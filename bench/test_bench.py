"""Tests of the benchmark itself.  Run from the repository root with
``python3 -m pytest bench/test_bench.py -q`` (about two minutes: the count
test runs every workload's traced run twice)."""

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run        # noqa: E402
import tracing    # noqa: E402
import worker     # noqa: E402


def bench(workload, seed, trace, seconds=1, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join(cwd, "bench", "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=200)
    return proc


def result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_counts_repeat(workload):
    first, second = (result(bench(workload, 7, 1)) for _ in range(2))
    for res in (first, second):
        assert res["correct"] and res["failed"] == 0
        names = [name for name, _ in tracing.METRICS]
        assert list(res["metrics"]) == names
    for name in tracing.COUNT_METRICS:
        assert first["metrics"][name] == second["metrics"][name], name


def test_metric_names_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fobj:
        spec = json.load(fobj)
    assert spec["command"][1] == "bench/run.py"
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        tracing.METRICS
    e2e = run.end_to_end([{"setup_s": 1.0}], [{
        "ref_s": [0.01], "case_s": [[0.1]], "peak_rss_kib": 1024}])
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        [(name, unit) for name, (_, unit) in e2e.items()]


def test_failures_are_counted_not_fatal(monkeypatch):
    monkeypatch.setattr(worker, "CASE_LIMIT_S", 0.2)

    def raises():
        raise ValueError("boom")

    def spins():
        time.sleep(5)

    cases = [("ok", lambda: 1, lambda out: []),
             ("wrong", lambda: 2, lambda out: ["out==1"] if out != 1 else []),
             ("raises", raises, lambda out: []),
             ("spins", spins, lambda out: []),
             ("bad-check", lambda: 3, lambda out: out.missing)]
    start = time.perf_counter()
    _refs, _times, outputs = worker.time_cases(cases)
    assert time.perf_counter() - start < 2
    failures = worker.check_cases(cases, outputs)
    assert [f.split(":")[0] for f in failures] == \
        ["wrong", "raises", "spins", "bad-check"]
    assert "CaseTimeout" in failures[2]


def test_steps_are_timed_against_the_reference():
    def three_steps():
        yield
        yield
        return "out"

    steps = []
    assert worker.run_steps(three_steps, steps) == "out"
    assert len(steps) == 3
    ref = run.REFERENCE_S
    # three rounds; the host runs at half speed in the second
    rounds = [{"ref_s": [1.0, 1.0], "case_s": [[1.0, 5.0], [2.0]]},
              {"ref_s": [2.0, 2.0], "case_s": [[2.0, 10.0], [4.0, 4.0]]},
              {"ref_s": [1.0, 1.0], "case_s": [[3.0, 4.0], [3.0]]}]
    # case 0, step by step: median(1, 1, 3) + median(5, 5, 4) reference
    # times; case 1 has two steps in one round, so it counts as a whole:
    # median(2, 4, 3)
    assert run.calibrated_cases(rounds) == \
        pytest.approx([6.0 * ref, 3.0 * ref])


def test_rounds_start_from_the_set_up_state():
    state = []

    def grow():
        state.append(1)
        return len(state)

    cases = [("grow", grow, lambda out: [] if out == 1 else [f"len={out}"])]
    rounds = [worker.forked_round(cases, False, None) for _ in range(2)]
    assert [r["failures"] for r in rounds] == [[], []]
    assert state == []


def test_tracer_restores_the_library():
    from padic_hodge import analytic, intpoly, modules, seriesops
    before = (seriesops.log_order, analytic.log_order, intpoly.polymul,
              modules.find_k_roots, modules.FilteredPhiModule.sub_degrees)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert analytic.log_order is seriesops.log_order
        assert analytic.log_order is not before[0]
        assert modules.find_k_roots.__wrapped__ is before[3]
    finally:
        tracer.remove()
    assert (seriesops.log_order, analytic.log_order, intpoly.polymul,
            modules.find_k_roots,
            modules.FilteredPhiModule.sub_degrees) == before


def test_refuses_without_the_library(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("operators", 1, 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
