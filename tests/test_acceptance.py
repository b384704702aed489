"""Acceptance criteria, one test per criterion.

Every criterion runs at its stated tolerance (exact integers and rationals
throughout; runtime limits where stated) and prints one PASS/FAIL line.
Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import random
import time
from fractions import Fraction

import pytest

from padic_hodge.config import Config
from padic_hodge.padics import UnramifiedField
from padic_hodge.series import TruncatedSeries, INFINITE
from padic_hodge import seriesops as so
from padic_hodge.seriesops import LogPolynomial
from padic_hodge.modules import (FilteredPhiModule, Subspace,
                                 modular_form_module)
from padic_hodge.analytic import (contradiction_pipeline,
                                  det_log_divisibility)
from padic_hodge.cli import mf_rank_table
from padic_hodge import generators as gen
from padic_hodge.suites import run_suite

CFG = Config(seed=12061997)


def report(n, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {n:>2} {name}: {status}" + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {n} ({name}) failed: {detail}"


def test_criterion_01_rank_tables():
    expected = [
        ((5, 2, 0, -3, 2), [0, 0, 0, 0, 2, 2]),
        ((5, 2, 1, -3, 2), [0, 0, 0, 1, 2, 2]),
        ((5, 4, 0, -4, 1), [0, 0, 0, 0, 0, 2]),
    ]
    ok = True
    details = []
    for (p, k, ap, j0, j1), want in expected:
        t0 = time.time()
        rows = mf_rank_table(p, k, Fraction(ap), j0, j1)
        dt = time.time() - t0
        got = [r for _, _, r in rows]
        ok = ok and got == want and dt < 1.0
        details.append(f"({p},{k},{ap}): {got} in {dt:.2f}s")
    report(1, "eigenform rank tables, exact and under 1s each", ok,
           "; ".join(details))


def test_criterion_02_log_power_orders():
    field = UnramifiedField(5, 1, 20)
    ok = all(so.growth_order(
        LogPolynomial({r: TruncatedSeries.one(field, 25)})) == r
        for r in range(5))
    report(2, "growth order of log^r equals r for r = 0..4", ok)


def test_criterion_03_operator_identities():
    t0 = time.time()
    rep = run_suite("operators", seed=CFG.seed, count=200, cfg=CFG)
    dt = time.time() - t0
    ok = rep.passed and dt < 30.0
    report(3, "200 seeded operator-identity cases, exact, under 30s", ok,
           f"{len(rep.cases)} cases in {dt:.1f}s, "
           f"{len(rep.failures)} failures")


def test_criterion_04_norm_laws():
    rep = run_suite("norms", seed=CFG.seed, count=100, cfg=CFG)
    report(4, "norm multiplicativity and phi law on 100 pairs, exact",
           rep.passed, f"{len(rep.failures)} failures")


def test_criterion_05_division_roundtrips():
    rng = random.Random(CFG.seed)
    N = CFG.truncation
    field = UnramifiedField(5, 1, 20, work_margin=210)
    lg = so.log_series(field, N)
    failures = []
    for i in range(50):
        h = gen.random_poly_series(field, rng, N, deg=rng.randint(0, 4),
                                   unit_constant=True)
        powers = [h]
        for _ in range(3):
            powers.append((lg * powers[-1]).truncate(N))
        for r in range(4):
            lo = so.log_order(powers[r], n_max=1)
            if lo != r:
                failures.append((i, r, lo))
                continue
            q = powers[r]
            for _ in range(r):
                q = so.divide_by_log(q, n_max=1)
            if not q.equals(h.truncate(q.n)):
                failures.append((i, r, "recovery"))
    report(5, "log-division roundtrips on 50 bounded series, r <= 3",
           not failures, f"failures: {failures[:3]}")


def test_criterion_06_order_transfer():
    rng = random.Random(CFG.seed)
    field = UnramifiedField(5, 1, 20)
    failures = 0
    for _ in range(25):
        a, b = rng.randint(0, 4), rng.randint(0, 4)
        c = gen.random_poly_series(field, rng, 25, deg=3, unit_constant=True)
        alpha = Fraction(gen.random_unit(rng, 5)) * \
            Fraction(5) ** rng.randint(-2, 2)
        f = LogPolynomial({a: c._scalar_mul(alpha)})
        g = LogPolynomial({b: c})
        ord_mu = a - b  # mu = p^(a-b) sigma(alpha)/alpha with |sigma(x)|=|x|
        if so.growth_order(f) != ord_mu + so.growth_order(g):
            failures += 1
    report(6, "order transfer on 25 constructed triples, exact rationals",
           failures == 0, f"{failures} failures")


def test_criterion_07_det_log_divisibility():
    rng = random.Random(CFG.seed)
    field = UnramifiedField(5, 1, 20, work_margin=250)
    failures = []
    for i in range(20):
        d = 2 if i % 2 == 0 else 3
        M = gen.random_wa_module_bounded(field, rng, d=d)
        gs = [gen.synthetic_member(M, rng, CFG.truncation, mode="adapted")
              for _ in range(M.d)]
        rep = det_log_divisibility(gs, n_max=1)
        want = -M.t_H
        if not (rep.verified and
                (rep.log_lower == INFINITE or rep.log_lower >= want)):
            failures.append((i, d, rep.log_lower, want))
    report(7, "determinant log-divisibility on 20 synthetic instances",
           not failures, f"failures: {failures[:3]}")


def test_criterion_08_tensor_slope_bound():
    rep = run_suite("tensor-slope", seed=CFG.seed, count=100, cfg=CFG)
    report(8, "tensor slope bound on 100 generic 2x2 instances",
           rep.passed, f"{len(rep.failures)} failures")


def test_criterion_09_admissibility_certificates():
    field = UnramifiedField(5, 1, 20)
    qp1 = FilteredPhiModule(field, [[field.coerce(Fraction(1, 5))]],
                            [(-1, Subspace(field, 1, [[field.one()]]))])
    ok1 = qp1.is_weakly_admissible().verdict
    om = modular_form_module(5, 2, 1, field=field)
    neg = [S for S in om.phi_stable_subspaces()
           if S.dimension == 1 and om.sub_degrees(S)[1] == Fraction(-1)][0]
    vec = [c.coordinate(0).lift_fraction() for c in neg.basis[0]]
    bad = modular_form_module(5, 2, 1, filtration_line=vec, field=field)
    cert = bad.is_weakly_admissible()
    ok2 = (not cert.verdict and cert.witness is not None and
           cert.witness.subspace.equals(neg))
    report(9, "admissibility certificates (positive and named witness)",
           ok1 and ok2,
           f"qp1-analog wa={ok1}, eigenline witness named={ok2}")


def test_criterion_10_tilde_strict_slope():
    rep = run_suite("tilde", seed=CFG.seed, count=50, cfg=CFG)
    report(10, "erased jump-0 step gives strict negative slope, 50 modules",
           rep.passed, f"{len(rep.failures)} failures")


def test_criterion_11_contradiction_pipeline():
    rng = random.Random(CFG.seed)
    ss_field = UnramifiedField(5, 1, 20, work_margin=150)
    ss = modular_form_module(5, 2, 0, field=ss_field)
    g = gen.synthetic_member(ss, rng, CFG.truncation, mode="deep")
    rep = contradiction_pipeline(ss, "dim2-det", g, n_max=1)
    ok1 = (rep.order_upper == 1 and rep.log_lower == 2 and
           rep.verdict == "forced zero")
    w_field = UnramifiedField(5, 1, 20, work_margin=320)
    ok2 = True
    details = []
    for i in range(6):
        mode = "strict" if i % 2 == 0 else "wa"
        M, _, _ = gen.split_module(w_field, rng, 2, mode)
        gv = gen.synthetic_member(M, rng, CFG.truncation, mode="adapted")
        r = contradiction_pipeline(M, "wronskian", gv, n_max=1)
        agree = (r.verdict == "forced zero") == (M.t_H < M.t_N) and \
            r.verdict != "inconclusive"
        ok2 = ok2 and agree
        details.append(f"tH={M.t_H},tN={M.t_N}:{r.verdict}")
    report(11, "contradiction engine: exact supersingular numbers and the "
               "Wronskian dichotomy", ok1 and ok2,
           f"dim2-det upper={rep.order_upper} lower={rep.log_lower}; " +
           "; ".join(details))


def test_criterion_12_twist_monotonicity():
    rep = run_suite("twist-monotone", seed=CFG.seed, count=50, cfg=CFG)
    report(12, "fil1 twist monotonicity on 50 weakly admissible modules",
           rep.passed, f"{len(rep.failures)} failures")
