"""Benchmark command: ``python3 bench/run.py --workload <name> --seed <n>
--seconds <s> --trace <0|1>``, run from the root of a source checkout.

A run starts ``SETUPS`` fresh single-threaded processes (``worker.py``), one
at a time, each with an equal share of ``--seconds``.  Each process does
the whole set-up once and then times rounds of the workload's fixed, seeded
case list, each round in a fork of the set-up process, so that every round
starts cold from the same state.

With ``--trace 0`` the last line of standard output is the JSON object with
the end-to-end metrics, over the untraced rounds:

* ``setup_s``: the median over the processes of the time from spawning one
  to the end of its set-up (interpreter start, package import, building
  fields and seeded inputs), calibrated by the reference kernel timed
  right after it;
* ``wall_s``: the timed round over the case list on a quiet host: each
  step of each case (one library call) is timed against the reference
  kernel run just before the case (see ``calibrated_cases``);
* ``case_p50_ms``: the median over the case list of a case's time so
  counted;
* ``peak_rss_mib``: the median peak resident memory of a round's process.

With ``--trace 1`` each process alternates untraced and traced rounds, and
the metrics are the per-layer ones of ``tracing.METRICS``: counts from a
traced round, times as medians over the traced rounds, and
``trace.overhead_s`` as the traced minus the untraced ``wall_s``.

The result is also written to ``.bench_out/``, with the spans of the last
traced round.  Exits with code 2, printing no result, when the library's
source is not in the checkout.
"""

import argparse
import compileall
import json
import os
import signal
import statistics
import subprocess
import sys
import time

import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("operators", "module-lattice", "log-division")
SETUPS = 5
# the reference kernel's (``worker.reference``) fastest time on the two-core
# VM the reference figures in README.md come from
REFERENCE_S = 0.00285
HARD_LIMIT_S = 170       # the command must end within 180 s


class WorkerFailed(Exception):
    pass


def run_worker(workload, seed, trace, deadline, timeout, env, spans_path):
    """Run one fresh process; returns its result with ``setup_s`` added."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), workload,
           str(seed), "1" if trace else "0", repr(deadline), spans_path]
    spawned = time.perf_counter()
    # a session of its own, so that a kill reaches the round it has forked
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT,
                            text=True, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise WorkerFailed(f"{workload} worker exceeded {timeout:.0f} s")
    if proc.returncode != 0:
        raise WorkerFailed(f"{workload} worker exited {proc.returncode}")
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError) as exc:
        raise WorkerFailed(f"{workload} worker printed no result") from exc
    result["setup_raw_s"] = result["ready"] - spawned
    result["setup_s"] = calibrated(result["setup_raw_s"], statistics.median(
        result["setup_ref_s"]))
    return result


def calibrated(seconds, ref):
    """A time taken while the reference kernel took ``ref``, in seconds of
    the host of the reference figures when quiet."""
    return seconds / ref * REFERENCE_S


def calibrated_cases(rounds):
    """Each case's time on a quiet host, in seconds.  Every round runs the
    same case list from the same state, so a step does the same work in
    each; what changes is how fast the host runs, which the reference
    kernel timed just before the case measures.  A step counts as the
    median over the rounds of its time divided by that reference time,
    times ``REFERENCE_S``.  A case whose steps differ in number between
    rounds (it failed in some) counts as a whole."""
    out = []
    for i, samples in enumerate(zip(*(r["case_s"] for r in rounds))):
        refs = [r["ref_s"][i] for r in rounds]
        if len({len(steps) for steps in samples}) == 1:
            timed = [[calibrated(t, ref) for t in steps]
                     for ref, steps in zip(refs, samples)]
            out.append(sum(map(statistics.median, zip(*timed))))
        else:
            out.append(statistics.median(
                calibrated(sum(steps), ref)
                for ref, steps in zip(refs, samples)))
    return out


def end_to_end(workers, rounds):
    med = statistics.median
    cases = calibrated_cases(rounds)
    return {
        "setup_s": (med(w["setup_s"] for w in workers), "s"),
        "wall_s": (sum(cases), "s"),
        "case_p50_ms": (med(cases) * 1e3, "ms"),
        "peak_rss_mib": (med(r["peak_rss_kib"] for r in rounds) / 1024,
                         "MiB"),
    }


def per_layer(plain, traced):
    out = {}
    for name, unit in tracing.METRICS:
        if name == "trace.overhead_s":
            value = (sum(calibrated_cases(traced)) -
                     sum(calibrated_cases(plain)))
        elif name in tracing.COUNT_METRICS:
            value = traced[0]["layers"][name]
        else:
            value = statistics.median(r["layers"][name] for r in traced)
        out[name] = (value, unit)
    return out


def counts_repeat(traced):
    first = traced[0]["layers"]
    return all(r["layers"][name] == first[name]
               for r in traced for name in tracing.COUNT_METRICS)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "padic_hodge", "__init__.py")):
        print(f"error: no library source under {SRC}", file=sys.stderr)
        return 2
    start = time.perf_counter()
    os.makedirs(OUT, exist_ok=True)
    # byte-compile once, outside every timed set-up
    sys.pycache_prefix = os.path.join(OUT, "pycache")
    for folder in (os.path.join(SRC, "padic_hodge"), HERE):
        compileall.compile_dir(folder, quiet=1)
    env = dict(os.environ, PYTHONHASHSEED="0",
               PYTHONPYCACHEPREFIX=sys.pycache_prefix,
               PYTHONPATH=os.pathsep.join(
                   [SRC] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    tag = f"{args.workload}-seed{args.seed}"
    spans_path = os.path.join(OUT, f"spans-{tag}.tsv")

    seconds = min(args.seconds, HARD_LIMIT_S - 40)
    workers = []
    try:
        for k in range(SETUPS):
            deadline = start + seconds * (k + 1) / SETUPS
            timeout = HARD_LIMIT_S - (time.perf_counter() - start)
            workers.append(run_worker(args.workload, args.seed, args.trace,
                                      deadline, timeout, env, spans_path))
    except WorkerFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    rounds = [r for w in workers for r in w["rounds"]]
    plain = [r for r in rounds if not r["trace"]]
    traced = [r for r in rounds if r["trace"]]
    attempted = sum(r["attempted"] for r in rounds)
    failures = [f for r in rounds for f in r["failures"]]
    for line in sorted(set(failures)):
        print(f"FAILED {line}", file=sys.stderr)
    if traced:
        metrics = per_layer(plain, traced)
        correct = counts_repeat(traced)
    else:
        metrics = end_to_end(workers, plain)
        correct = True
    result = {"correct": correct, "attempted": attempted,
              "failed": len(failures),
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()}}
    line = json.dumps(result)
    with open(os.path.join(OUT, f"result-{tag}-trace{args.trace}.json"),
              "w") as fobj:
        fobj.write(line + "\n")
    print(f"{args.workload}: {len(workers)} processes, {len(plain)} "
          f"untraced and {len(traced)} traced rounds in "
          f"{time.perf_counter() - start:.1f} s; raw setup_s "
          + " ".join(f"{w['setup_raw_s']:.3f}" for w in workers)
          + "; raw round wall_s "
          + " ".join(f"{sum(map(sum, r['case_s'])):.3f}" for r in plain))
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
