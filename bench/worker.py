"""One benchmark process: set up one workload once, then time rounds of
its cases, each round in a fork of the set-up process, and print one JSON
line.

Run by ``run.py`` as ``python3 bench/worker.py <workload> <seed> <trace>
<deadline> <spans file>``, with the library's ``src`` on ``PYTHONPATH``.
Rounds are run until the next one would end after ``deadline``, at least
one; with ``trace`` 1 they alternate untraced and traced.  Right after
set-up the reference kernel is timed five times (``setup_ref_s``), to
calibrate the set-up time.  Deadline and the printed ``ready`` (the reading
at the end of set-up) are
``time.perf_counter()`` readings; that clock is system-wide and monotonic
on Linux, so the parent subtracts its own reading at spawn to get the
set-up time.
"""

import inspect
import json
import os
import random
import resource
import signal
import sys
import time
import traceback

import workloads
import tracing


CASE_LIMIT_S = 30        # about ten times the slowest case

# inputs of the reference kernel: fixed, whatever the workload seed
_REF = random.Random(0)
_REF_A, _REF_B = _REF.getrandbits(60000), _REF.getrandbits(60000)
_REF_XS = [_REF.getrandbits(140) for _ in range(1500)]
_REF_MOD = 5 ** 60


def reference():
    """Time a fixed pure-Python kernel that does not call the library: two
    products of 60 000-bit integers and five passes of small modular steps
    over 1 500 integers of 140 bits, the two kinds of work the library's
    time goes to.  Run before every case, it shows how fast the host runs
    Python at that moment."""
    start = time.perf_counter()
    for _ in range(2):
        _REF_A * _REF_B
    for _ in range(5):
        acc, out = 0, []
        for x in _REF_XS:
            acc = (acc * 7 + x) % _REF_MOD
            out.append(acc & 1023)
    return time.perf_counter() - start


class CaseTimeout(Exception):
    pass


def _expire(signum, frame):
    raise CaseTimeout(f"case ran past {CASE_LIMIT_S} s")


def run_steps(run, steps):
    """Call ``run``, appending the time of each of its steps to ``steps``;
    a generator ``run`` ends a step at each ``yield``."""
    start = time.perf_counter()
    if not inspect.isgeneratorfunction(run):
        try:
            return run()
        finally:
            steps.append(time.perf_counter() - start)
    gen = run()
    try:
        while True:
            next(gen)
            now = time.perf_counter()
            steps.append(now - start)
            start = now
    except StopIteration as stop:
        return stop.value
    finally:
        steps.append(time.perf_counter() - start)


def time_cases(cases):
    """Run every case once, in order; an exception (a case running past
    its time limit included) is kept as the output.  Returns each case's
    reference time (see ``reference``), step times and outputs."""
    refs, times, outputs = [], [], []
    previous = signal.signal(signal.SIGALRM, _expire)
    try:
        for _kind, run, _check in cases:
            refs.append(reference())
            steps = []
            signal.setitimer(signal.ITIMER_REAL, CASE_LIMIT_S)
            try:
                out, err = run_steps(run, steps), None
            except Exception as exc:   # a failed operation, counted
                out, err = None, f"{type(exc).__name__}: {exc}"
            signal.setitimer(signal.ITIMER_REAL, 0)
            times.append(steps)
            outputs.append((out, err))
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    return refs, times, outputs


def check_cases(cases, outputs):
    """Names of the failed operations, with what failed in each."""
    failures = []
    for (kind, _run, check), (out, err) in zip(cases, outputs):
        if err is None:
            try:
                bad = check(out)
            except Exception as exc:
                bad = [f"check raised {type(exc).__name__}: {exc}"]
        else:
            bad = [err]
        if bad:
            failures.append(f"{kind}: {', '.join(bad)}")
    return failures


def run_round(cases, trace, spans_path):
    """Time one round over the cases in this process, then check them."""
    tracer = tracing.Tracer() if trace else None
    if tracer:
        tracer.install()
    refs, times, outputs = time_cases(cases)
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer:
        tracer.remove()
    result = {"trace": trace, "ref_s": refs,
              "case_s": times, "peak_rss_kib": rss_kib,
              "attempted": len(cases),
              "failures": check_cases(cases, outputs)}
    if tracer:
        result["layers"] = tracer.stats()
        tracer.write_spans(spans_path)
    return result


def forked_round(cases, trace, spans_path):
    """Run one round in a fork of this process and wait for it.  Every
    round thus starts from the state set-up left: the caches the library
    fills lazily are cold in each, as in a fresh process."""
    rfd, wfd = os.pipe()
    sys.stdout.flush()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(rfd)
            line = json.dumps(run_round(cases, trace, spans_path))
            with os.fdopen(wfd, "w") as out:
                out.write(line)
            code = 0
        except BaseException:
            traceback.print_exc()
        finally:
            os._exit(code)
    os.close(wfd)
    with os.fdopen(rfd) as inp:
        data = inp.read()
    _, status = os.waitpid(pid, 0)
    if os.waitstatus_to_exitcode(status) != 0 or not data:
        raise RuntimeError(f"round process exited with status {status}")
    return json.loads(data)


def main(argv):
    name, seed, trace = argv[0], int(argv[1]), argv[2] == "1"
    deadline, spans_path = float(argv[3]), argv[4]
    cases = workloads.build(name, seed)
    ready = time.perf_counter()
    setup_refs = [reference() for _ in range(5)]
    pattern = [False, True] if trace else [False]
    rounds = []
    while True:
        for traced in pattern:
            rounds.append(forked_round(cases, traced, spans_path))
        now = time.perf_counter()
        step = (now - ready) * len(pattern) / len(rounds)
        if now + step > deadline:
            break
    print(json.dumps({"ready": ready, "setup_ref_s": setup_refs,
                      "rounds": rounds}))


if __name__ == "__main__":
    main(sys.argv[1:])
