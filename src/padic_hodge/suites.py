"""Seeded verification suites behind the `verify` command.

Each suite draws deterministic cases from a seed, checks an exact identity
or a certified verdict, and reports one result per case with enough detail
to replay a failure.  Exit semantics are owned by the CLI: a suite only
reports.
"""

from dataclasses import dataclass
from fractions import Fraction
import random

from .config import Config, DEFAULT
from .errors import TailBoundError
from .padics import UnramifiedField
from .series import TruncatedSeries
from . import seriesops as so
from .seriesops import LogPolynomial
from .linalg import det
from .modules import (FilteredPhiModule, Subspace, modular_form_module,
                      tensor_slope_check)
from .analytic import contradiction_pipeline, det_log_divisibility
from . import generators as gen


@dataclass
class CaseResult:
    index: int
    name: str
    passed: bool
    detail: str = ""


@dataclass
class SuiteReport:
    suite: str
    seed: int
    count: int
    cases: list

    @property
    def passed(self):
        return all(c.passed for c in self.cases)

    @property
    def failures(self):
        return [c for c in self.cases if not c.passed]


SUITE_DEFAULT_COUNTS = {
    "operators": 200,
    "norms": 100,
    "orders": 25,
    "divisibility": 50,
    "slopes": 25,
    "tensor-slope": 100,
    "admissibility": 25,
    "tilde": 50,
    "contradiction": 8,
    "twist-monotone": 50,
}


def division_margin(cfg: Config, divisions: int) -> int:
    """Work margin of a field whose series take ``divisions`` divisions by
    log(1+x) at the configured truncation degree N: the guard plus
    N // (p - 1) per division, the digits of absolute precision that one
    ``divide_by_log`` at degree N spends (x/log(1+x) mod x^(N+1) has least
    valuation -(N // (p - 1))).  ``log_order`` divides until a division
    fails, so ``divisions`` bounds the chain a field's series may meet."""
    return cfg.guard + divisions * (cfg.truncation // (cfg.p - 1))


def series_field(cfg: Config, divisions: int = 0) -> UnramifiedField:
    """The configured field at ``division_margin(cfg, divisions)``."""
    return UnramifiedField(cfg.p, cfg.f, cfg.precision,
                           work_margin=division_margin(cfg, divisions),
                           guard=cfg.guard)


def _agree(l, r):
    """Do two series agree up to the shorter one's truncation degree?"""
    m = min(l.n, r.n)
    return l.truncate(m).equals(r.truncate(m))


def suite_operators(rng, count, cfg):
    """psi.phi = id, D.phi = p phi.D, psi.D = p D.psi, D.gamma_c = c gamma_c.D
    on random truncated series, exact at propagated precision."""
    field = series_field(cfg)
    N = cfg.truncation
    p = cfg.p
    out = []
    for i in range(count):
        g = gen.random_poly_series(field, rng, N)
        c = rng.choice([u for u in range(2, 3 * p) if u % p])
        checks = []
        pg = so.phi_op(g)
        checks.append(("psi.phi=id", so.psi_op(pg).truncate(N).equals(g)))
        checks.append(("D.phi=p.phi.D",
                       _agree(so.d_op(pg),
                              so.phi_op(so.d_op(g))._scalar_mul(p))))
        checks.append(("psi.D=p.D.psi",
                       _agree(so.psi_op(so.d_op(g)),
                              so.d_op(so.psi_op(g))._scalar_mul(p))))
        checks.append((f"D.gamma_{c}=c.gamma_{c}.D",
                       _agree(so.d_op(so.gamma_action(g, c)),
                              so.gamma_action(so.d_op(g), c)._scalar_mul(c))))
        bad = [name for name, ok in checks if not ok]
        out.append(CaseResult(i, "operator-identities", not bad,
                              f"failed: {bad}" if bad else f"c={c}"))
    return out


def suite_norms(rng, count, cfg):
    """Norm multiplicativity and the phi/radius law, exact in log form."""
    field = series_field(cfg)
    N = cfg.p ** 2
    out = []
    for i in range(count):
        f = gen.random_poly_series(field, rng, N)
        g = gen.random_poly_series(field, rng, N)
        checks = []
        for n in (1, 2):
            lhs = so.rho_norm(f * g, n).value
            rhs = so.rho_norm(f, n).value + so.rho_norm(g, n).value
            checks.append((f"mult@{n}", lhs == rhs))
            lhs2 = so.rho_norm(so.phi_op(f), n + 1).value
            rhs2 = so.rho_norm(f, n).value
            checks.append((f"phi@{n}", lhs2 == rhs2))
        bad = [name for name, ok in checks if not ok]
        out.append(CaseResult(i, "norm-laws", not bad,
                              f"failed: {bad}" if bad else ""))
    return out


def suite_orders(rng, count, cfg):
    """Exact growth orders on the structured class and the order-transfer
    law for twisted pairs (f, g, mu)."""
    field = series_field(cfg)
    out = []
    small = cfg.p ** 2
    for r in range(5):
        lp = LogPolynomial({r: TruncatedSeries.one(field, small)})
        ok = so.growth_order(lp) == r
        out.append(CaseResult(len(out), f"order(log^{r})=={r}", ok))
    for i in range(count):
        a = rng.randint(0, 4)
        b = rng.randint(0, 4)
        c = gen.random_poly_series(field, rng, small, deg=3,
                                   unit_constant=True)
        alpha = Fraction(gen.random_unit(rng, cfg.p) *
                         cfg.p ** rng.randint(-2, 2))
        f_poly = LogPolynomial({a: c._scalar_mul(alpha)})
        g_poly = LogPolynomial({b: c})
        # phi(f)/f = mu phi(g)/g with mu = p^(a-b) sigma(alpha)/alpha, and
        # sigma preserves valuations, so ord(mu) = a - b
        ord_mu = a - b
        ok = so.growth_order(f_poly) == ord_mu + so.growth_order(g_poly)
        out.append(CaseResult(len(out), "order-transfer", ok,
                              f"a={a} b={b} ord_mu={ord_mu}"))
    # dominance on random structured sums
    for i in range(5):
        exps = sorted(rng.sample(range(5), rng.randint(1, 3)))
        terms = {e: gen.random_poly_series(field, rng, small, deg=2,
                                           unit_constant=True)
                 for e in exps}
        lp = LogPolynomial(terms)
        out.append(CaseResult(len(out), "order-dominance",
                              so.growth_order(lp) == max(exps),
                              f"exps={exps}"))
    return out


def suite_divisibility(rng, count, cfg):
    """Division roundtrips log_order(log^r h) = r with exact recovery of h,
    plus determinant log-divisibility on synthetic members (d <= 3).  A case
    whose layer test the truncation cannot decide fails as inconclusive."""
    out = []
    N = cfg.truncation
    field = series_field(cfg, divisions=5)
    lg = so.log_series(field, N)
    roundtrips = max(count - 20, 10)
    for i in range(roundtrips):
        r = rng.randint(0, 3)
        h = gen.random_poly_series(field, rng, N, deg=rng.randint(0, 4),
                                   unit_constant=True)
        f = h
        for _ in range(r):
            f = (lg * f).truncate(N)
        try:
            lo = so.log_order(f, n_max=1)
            ok = lo == r
            detail = f"r={r} got={lo}"
            if ok and r:
                q = f
                for _ in range(r):
                    q = so.divide_by_log(q, n_max=1)
                ok = q.equals(h.truncate(q.n))
                detail += " recovered" if ok else " recovery failed"
        except TailBoundError as err:
            ok, detail = False, f"inconclusive: {err}"
        out.append(CaseResult(len(out), "log-roundtrip", ok, detail))
    det_field = series_field(cfg, 6)
    for i in range(min(20, count)):
        d = 2 if i % 2 == 0 else 3
        M = gen.random_wa_module_bounded(det_field, rng, d=d)
        gs = [gen.synthetic_member(M, rng, N, mode="adapted")
              for _ in range(M.d)]
        try:
            rep = det_log_divisibility(gs, n_max=1)
            ok = rep.verified
            detail = f"d={d} t_H={M.t_H} log_lower={rep.log_lower}"
        except TailBoundError as err:
            ok, detail = False, f"inconclusive: {err}"
        out.append(CaseResult(len(out), "det-log-divisibility", ok, detail))
    return out


def suite_slopes(rng, count, cfg):
    """Newton slopes against constructions with known Frobenius data."""
    field = UnramifiedField(cfg.p, cfg.f, cfg.precision, guard=cfg.guard)
    p = cfg.p
    out = []
    ss = modular_form_module(p, 2, 0, field=field)
    out.append(CaseResult(0, "supersingular-slopes",
                          ss.newton_slopes() == [Fraction(-1, 2),
                                                 Fraction(-1, 2)]))
    om = modular_form_module(p, 2, 1, field=field)
    out.append(CaseResult(1, "ordinary-slopes",
                          om.newton_slopes() == [Fraction(-1), Fraction(0)]))
    for i in range(count):
        d = rng.choice([2, 3])
        M = gen.random_wa_module(field, rng, d=d)
        slopes = M.newton_slopes()
        tn = sum(slopes, Fraction(0))
        dv = det(M.linearized_frobenius()).valuation()
        ok = tn == Fraction(dv, field.f) and M.t_H == tn
        out.append(CaseResult(len(out), "slopes-sum-det", ok,
                              f"d={d} t_N={tn} v(det)={dv}"))
    return out


def suite_tensor_slope(rng, count, cfg):
    """Slope bound on generic 2x2 tensor products with the exact maximal
    subspace slopes of the factors.

    Genericity means the four tensor eigenvalues stay separated: the two
    factors must have different slope gaps, otherwise the middle
    eigenvalues collide and the subspace enumeration is not certified.
    The field keeps the library's default margin, not the guard alone:
    valuation spreads across the sixteen tensor entries eat relative
    precision in the induced-degree eliminations, and at f = 3 the guard
    alone leaves an entry inside the guard band.
    """
    field = UnramifiedField(cfg.p, cfg.f, cfg.precision, guard=cfg.guard)
    out = []

    def gap(m):
        s = m.newton_slopes()
        return s[1] - s[0]

    for i in range(count):
        m1 = gen.random_wa_module_d2(field, rng)
        m2 = gen.random_wa_module_d2(field, rng)
        while gap(m1) == gap(m2):
            m2 = gen.random_wa_module_d2(field, rng)
        c1 = m1.max_subspace_slope()
        c2 = m2.max_subspace_slope()
        cert = tensor_slope_check(m1, m2, c1, c2)
        out.append(CaseResult(i, "tensor-slope-bound", cert.verdict,
                              f"c1={c1} c2={c2} worst={cert.witness.slope}"))
    return out


def suite_admissibility(rng, count, cfg):
    """Certified weak admissibility: sampled instances, the eigenline
    counterexample, and twist invariance."""
    field = UnramifiedField(cfg.p, cfg.f, cfg.precision, guard=cfg.guard)
    out = []
    qp1 = FilteredPhiModule(
        field, [[field.coerce(Fraction(1, cfg.p))]],
        [(-1, Subspace(field, 1, [[field.one()]]))])
    out.append(CaseResult(0, "unit-twist-analog-wa",
                          qp1.is_weakly_admissible().verdict))
    om = modular_form_module(cfg.p, 2, 1, field=field)
    lines = [S for S in om.phi_stable_subspaces() if S.dimension == 1]
    neg = [S for S in lines if om.sub_degrees(S)[1] == Fraction(-1)][0]
    vec = [c.coordinate(0).lift_fraction() for c in neg.basis[0]]
    bad = modular_form_module(cfg.p, 2, 1, filtration_line=vec, field=field)
    cert = bad.is_weakly_admissible()
    out.append(CaseResult(1, "eigenline-not-wa",
                          (not cert.verdict) and cert.witness is not None
                          and cert.witness.subspace.equals(neg),
                          cert.note))
    for i in range(count):
        M = gen.random_wa_module(field, rng)
        k = rng.randint(-2, 2)
        ok = M.is_weakly_admissible().verdict and \
            M.twist(k).is_weakly_admissible().verdict
        out.append(CaseResult(len(out), "wa-and-twist", ok, f"k={k}"))
    return out


def suite_tilde(rng, count, cfg):
    """Erasing the jump-0 step of a weakly admissible module with h_0 != 0
    satisfying the strict degree condition yields a strictly negative
    slope."""
    field = UnramifiedField(cfg.p, cfg.f, cfg.precision, guard=cfg.guard)
    out = []
    for i in range(count):
        M = gen.random_h0_ncond_module(field, rng)
        td = M.erase_filtration_step(0)
        cert = td.slope_bound_check(0, strict=True)
        out.append(CaseResult(i, "tilde-strict-negative", cert.verdict,
                              f"jumps={M.jumps()} worst={cert.witness.slope}"))
    return out


def suite_contradiction(rng, count, cfg):
    """The order-versus-divisibility engine: exact numbers on the
    supersingular preset and the Wronskian dichotomy."""
    out = []
    N = cfg.truncation
    ss_field = series_field(cfg, 3)
    ss = modular_form_module(cfg.p, 2, 0, field=ss_field)
    g = gen.synthetic_member(ss, rng, N, mode="deep")
    rep = contradiction_pipeline(ss, "dim2-det", g, n_max=1)
    ok = (rep.order_upper == 1 and rep.log_lower == 2 and
          rep.verdict == "forced zero")
    out.append(CaseResult(0, "supersingular-dim2-det", ok,
                          f"upper={rep.order_upper} lower={rep.log_lower} "
                          f"verdict={rep.verdict}"))
    w_field = series_field(cfg, 9)
    for i in range(count):
        strictness = "strict" if i % 2 == 0 else "wa"
        M, slopes, jumps = gen.split_module(w_field, rng, 2, strictness)
        gv = gen.synthetic_member(M, rng, N, mode="adapted")
        rep = contradiction_pipeline(M, "wronskian", gv, n_max=1)
        expect_forced = M.t_H < M.t_N
        ok = (rep.verdict == "forced zero") == expect_forced and \
            rep.verdict != "inconclusive"
        out.append(CaseResult(len(out), f"wronskian-{strictness}", ok,
                              f"tH={M.t_H} tN={M.t_N} verdict={rep.verdict} "
                              f"upper={rep.order_upper} lower={rep.log_lower}"))
    return out


def suite_twist_monotone(rng, count, cfg):
    """twist(fil1(M), 1) is contained in fil1(twist(M, 1)) on sampled
    weakly admissible modules."""
    field = UnramifiedField(cfg.p, cfg.f, cfg.precision, guard=cfg.guard)
    out = []
    for i in range(count):
        M = gen.random_wa_module(field, rng)
        f0 = M.fil1()
        f1 = M.twist(1).fil1()
        ok = f1.contains(f0)
        out.append(CaseResult(i, "fil1-twist-monotone", ok,
                              f"dim fil1={f0.dimension} -> {f1.dimension}"))
    return out


SUITES = {
    "operators": suite_operators,
    "norms": suite_norms,
    "orders": suite_orders,
    "divisibility": suite_divisibility,
    "slopes": suite_slopes,
    "tensor-slope": suite_tensor_slope,
    "admissibility": suite_admissibility,
    "tilde": suite_tilde,
    "contradiction": suite_contradiction,
    "twist-monotone": suite_twist_monotone,
}


def run_suite(name, seed=None, count=None, cfg: Config = DEFAULT) -> SuiteReport:
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; available: "
                         f"{', '.join(sorted(SUITES))}")
    seed = cfg.seed if seed is None else seed
    if count is not None and count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    count = count or SUITE_DEFAULT_COUNTS[name]
    rng = random.Random(seed)
    cases = SUITES[name](rng, count, cfg)
    return SuiteReport(name, seed, count, cases)
