"""Vector series: Phi, growth orders, membership, Wronskians, orbits,
and the contradiction engine."""

import functools
import random
from fractions import Fraction

import pytest

from padic_hodge.errors import PrecisionError, TailBoundError
from padic_hodge.padics import UnramifiedField
from padic_hodge.cyclotomic import CyclotomicLayer, CyclotomicElement
from padic_hodge.series import TruncatedSeries, INFINITE
from padic_hodge import seriesops as so
from padic_hodge.seriesops import LogPolynomial
from padic_hodge.modules import FilteredPhiModule, Subspace, modular_form_module
from padic_hodge.analytic import (VectorSeries, phi_vec, phi_growth_order,
                                  check_membership, wronskian_det,
                                  phi_orbit_wedge, orbit_relation,
                                  contradiction_pipeline, det_log_divisibility,
                                  _span_margin)
from padic_hodge import analytic, generators as gen
from padic_hodge.config import Config
from padic_hodge.suites import series_field

from helpers import from_eigen_terms


def unit_module(field):
    return FilteredPhiModule(field, [[field.one()]],
                             [(0, Subspace(field, 1, [[field.one()]]))])


def diag_module(field, fracs, jumps=None):
    d = len(fracs)
    A = [[field.coerce(fracs[i]) if i == j else field.zero()
          for j in range(d)] for i in range(d)]
    full = Subspace(field, d, [[field.one() if i == j else field.zero()
                                for j in range(d)] for i in range(d)])
    filt = [(0, full)] if jumps is None else jumps
    return FilteredPhiModule(field, A, filt)


# -- phi on vectors ------------------------------------------------------------

def test_phi_vec_eigenvector_case(K5):
    # g = h * v with phi(v) = p^a v: Phi(g) = p^a phi(h) v
    m = diag_module(K5, [Fraction(25), Fraction(1, 5)])
    rng = random.Random(41)
    h = gen.random_poly_series(K5, rng, 20)
    zero = TruncatedSeries.zero(K5, 20)
    g = VectorSeries(m, [h, zero])
    out = phi_vec(g)
    expect = so.phi_op(h)._scalar_mul(25)
    assert out.components[0].truncate(out.n).equals(
        expect.truncate(out.components[0].n).truncate(out.n))
    assert out.components[1].is_zero


def test_phi_vec_unit_module_is_phi(K5):
    m = unit_module(K5)
    rng = random.Random(42)
    h = gen.random_poly_series(K5, rng, 20)
    g = VectorSeries(m, [h])
    out = phi_vec(g)
    ph = so.phi_op(h)
    assert out.components[0].equals(ph.truncate(out.n))


def test_phi_vec_matrix_substitution_oracle(K5):
    # generic 2-dim: component-wise expansion A . sigma-substituted parts
    rng = random.Random(43)
    A = [[K5.coerce(rng.randint(-3, 3)) for _ in range(2)] for _ in range(2)]
    while True:
        try:
            m = FilteredPhiModule(K5, A, [(0, Subspace(K5, 2,
                [[K5.one(), K5.zero()], [K5.zero(), K5.one()]]))])
            break
        except Exception:
            A = [[K5.coerce(rng.randint(-3, 3)) for _ in range(2)]
                 for _ in range(2)]
    h0 = gen.random_poly_series(K5, rng, 15)
    h1 = gen.random_poly_series(K5, rng, 15)
    g = VectorSeries(m, [h0, h1])
    out = phi_vec(g)
    p0, p1 = so.phi_op(h0), so.phi_op(h1)
    for i in range(2):
        expect = (p0._scalar_mul(A[i][0]) + p1._scalar_mul(A[i][1]))
        assert out.components[i].equals(expect.truncate(out.n))


# -- phi growth order ------------------------------------------------------------

def test_phi_growth_order_eigen_exact(K5):
    m = diag_module(K5, [Fraction(25), Fraction(1, 5)])
    rng = random.Random(44)
    b = gen.random_poly_series(K5, rng, 20, deg=2, unit_constant=True)
    # g = log^u b * v with phi(v) = p^2 v: order u + 2
    for u in (0, 1, 3):
        terms = [([K5.one(), K5.zero()], Fraction(2), LogPolynomial({u: b}))]
        g = from_eigen_terms(m, terms, 40)
        po = phi_growth_order(g)
        assert po.exact and po.value == u + 2
    # constant eigenvector with slope 0
    m0 = diag_module(K5, [Fraction(1), Fraction(1, 5)])
    terms = [([K5.one(), K5.zero()], Fraction(0),
              LogPolynomial({0: TruncatedSeries.one(K5, 40)}))]
    g = from_eigen_terms(m0, terms, 40)
    assert phi_growth_order(g).value == 0


def test_phi_growth_order_dominance(K5):
    m = diag_module(K5, [Fraction(1), Fraction(1)])
    rng = random.Random(45)
    b = gen.random_poly_series(K5, rng, 30, deg=1, unit_constant=True)
    terms = [([K5.one(), K5.zero()], Fraction(0), LogPolynomial({1: b})),
             ([K5.zero(), K5.one()], Fraction(0), LogPolynomial({3: b}))]
    g = from_eigen_terms(m, terms, 40)
    assert phi_growth_order(g).value == 3


def test_phi_growth_order_estimate_flag(K5):
    # no eigen metadata: the result is an estimate, never exact
    m = modular_form_module(5, 2, 0, field=K5)
    rng = random.Random(46)
    g = gen.synthetic_member(m, rng, 125, mode="deep")
    po = phi_growth_order(g)
    assert not po.exact


# -- membership ------------------------------------------------------------------

def test_membership_log_multiple_is_member(K5):
    m = modular_form_module(5, 2, 0, field=K5)
    rng = random.Random(47)
    g = gen.synthetic_member(m, rng, 125, mode="deep")
    rep = check_membership(g, 0, (0,), 0, 1, tilde=True)
    assert not rep.indeterminate
    assert all(row.status in ("member", "trivial") for row in rep.rows)


def test_membership_zero_vector(K5):
    m = modular_form_module(5, 2, 0, field=K5)
    z = TruncatedSeries.zero(K5, 50, tail_zero=True)
    g = VectorSeries(m, [z, z])
    rep = check_membership(g, 0, (0,), 0, 2, tilde=True)
    assert rep.verdict


def test_membership_constant_off_position(K5):
    # a constant vector outside phi(Fil^0) fails the subspace condition at
    # (j = 0, n = 1) with an explicit margin
    m = modular_form_module(5, 2, 0, field=K5)
    one = TruncatedSeries.one(K5, 50)
    zero = TruncatedSeries.zero(K5, 50)
    g = VectorSeries(m, [one, zero])  # e1 not in phi^n(span(e1+e2))
    rep = check_membership(g, 0, (), 0, 1, tilde=True)
    assert not rep.verdict
    bad = [row for row in rep.rows if row.status == "non-member"]
    assert bad and bad[0].j == 0 and bad[0].n == 1
    assert bad[0].margin < 1


def test_membership_constant_in_position(K5):
    # the same constant vector placed on the twisted filtration line passes
    m = modular_form_module(5, 2, 0, field=K5)
    basis = m.fil_at(0).basis[0]
    img = m.apply_phi(list(basis))
    comps = [TruncatedSeries.make(K5, [c], n=50, tail_zero=True) for c in img]
    g = VectorSeries(m, comps)
    rep = check_membership(g, 0, (), 0, 1, tilde=True)
    assert rep.verdict


def test_membership_rejects_positive_v(K5):
    m = modular_form_module(5, 2, 0, field=K5)
    z = TruncatedSeries.zero(K5, 20)
    g = VectorSeries(m, [z, z])
    with pytest.raises(ValueError):
        check_membership(g, 1, (), 0, 1)


@pytest.mark.parametrize("n_max", [0, -1])
def test_no_layer_gives_no_verdict(K5, n_max):
    # below layer 1 no membership row is checked, so neither report may
    # answer: a zero vector would otherwise be a member and divide anything
    m = modular_form_module(5, 2, 0, field=K5)
    z = TruncatedSeries.zero(K5, 20, tail_zero=True)
    g = VectorSeries(m, [z, z])
    with pytest.raises(ValueError, match="n_max"):
        check_membership(g, 0, (0,), 0, n_max)
    with pytest.raises(ValueError, match="n_max"):
        det_log_divisibility([g, g], n_max)


def test_membership_psi_zero_flag(K5):
    m = unit_module(K5)
    onex = TruncatedSeries.make(K5, [1, 1], n=25)
    g = VectorSeries(m, [onex])
    rep = check_membership(g, 0, (), 1, 1, tilde=False)
    assert rep.psi_zero is True
    one = TruncatedSeries.one(K5, 25)
    g2 = VectorSeries(m, [one])
    rep2 = check_membership(g2, 0, (), 1, 1, tilde=False)
    assert rep2.psi_zero is False and not rep2.verdict
    # psi of a truncated component is undecided: no verdict either way
    g3 = VectorSeries(m, [onex.truncate(20)])
    rep3 = check_membership(g3, 0, (), 1, 1, tilde=False)
    assert rep3.psi_zero is None and rep3.indeterminate and not rep3.verdict
    assert check_membership(g3, 0, (), 1, 1).psi_zero is None


def _values_with_residuals(layer, basis, x, ks, rng):
    """Values sum_j pi^j (w_j + p^(k_j) u_j x) with w_j a random integer
    combination of ``basis`` and u_j a unit; k_j = None leaves w_j alone."""
    K, p = layer.field, layer.p
    coords = []
    for k in ks:
        s, t = rng.randint(-50, 50), rng.randint(-50, 50)
        vec = [K.coerce(s * a + t * b) for a, b in zip(*basis)]
        if k is not None:
            u = K.element([rng.randint(1, p - 1)]
                          + [rng.randint(0, p) for _ in range(K.f - 1)])
            vec = [c + u * (p ** k * xi) for c, xi in zip(vec, x)]
        coords.append(vec)
    return [CyclotomicElement(layer, [vec[i] for vec in coords])
            for i in range(len(x))]


@pytest.mark.parametrize("f", [1, 2])
@pytest.mark.parametrize("p", [3, 5, 7])
def test_span_margin_reads_coordinates(p, f):
    # the span of (1, a, 0) and (0, b, 1) is cut out by the primitive form
    # (a, -1, b), which sends x = (0, 1, 0) to a unit: the residual of the
    # pi^j-coordinate vector w_j + p^k u x has valuation exactly k
    K = UnramifiedField(p, f, 20)
    rng = random.Random(70 + 10 * p + f)
    a, b = rng.randint(-9, 9), rng.randint(-9, 9)
    basis = [[1, a, 0], [0, b, 1]]
    kbasis = [[K.coerce(c) for c in vec] for vec in basis]
    x = [0, 1, 0]
    certainty = Fraction(30)
    for n in (1, 2):
        layer = CyclotomicLayer(K, n)
        e = layer.e
        for _ in range(4):
            ks = [rng.choice([None, rng.randint(0, 35)]) for _ in range(e)]
            values = _values_with_residuals(layer, basis, x, ks, rng)
            expect = min([certainty] + [k + Fraction(j, e)
                                        for j, k in enumerate(ks)
                                        if k is not None])
            assert _span_margin(values, kbasis, certainty) == expect
        inside = _values_with_residuals(layer, basis, x, [None] * e, rng)
        assert _span_margin(inside, kbasis, certainty) == certainty
        # a residual of valuation 42 at precision 44 sits inside the guard
        # band: the margin cannot be read off
        ks = [None] * e
        ks[rng.randrange(e)] = K.work_prec - 2
        guarded = _values_with_residuals(layer, basis, x, ks, rng)
        with pytest.raises(PrecisionError):
            _span_margin(guarded, kbasis, certainty)


@pytest.mark.parametrize("f", [1, 2])
@pytest.mark.parametrize("p", [3, 5, 7])
def test_span_margin_reads_past_an_undecided_coordinate(p, f):
    # one pi^j-coordinate's residual sits in its guard band (valuation 42 at
    # precision 44), so it is known only to lie at or above its floor
    # 40 + j/e; a decided residual of another coordinate below that floor
    # decides the margin, and one that could lie above it does not
    K = UnramifiedField(p, f, 20)
    rng = random.Random(170 + 10 * p + f)
    a, b = rng.randint(-9, 9), rng.randint(-9, 9)
    basis = [[1, a, 0], [0, b, 1]]
    kbasis = [[K.coerce(c) for c in vec] for vec in basis]
    x = [0, 1, 0]
    high = K.work_prec - 2
    for n in (1, 2):
        e = CyclotomicLayer(K, n).e
        for _ in range(3):
            guarded, low = rng.sample(range(e), 2)
            ks = [rng.choice([None, rng.randint(0, 35)]) for _ in range(e)]
            ks[guarded] = high
            ks[low] = rng.randint(0, 30)
            values = _values_with_residuals(CyclotomicLayer(K, n), basis, x,
                                            ks, rng)
            expect = min([Fraction(50)] + [k + Fraction(j, e)
                                           for j, k in enumerate(ks)
                                           if k is not None and j != guarded])
            assert _span_margin(values, kbasis, Fraction(50)) == expect
        # a decided residual of valuation 40: at pi^0 it lies below the
        # floor 40 + 1/e of an undecided pi^1-coordinate, at pi^1 (40 + 1/e)
        # it could lie above the floor 40 of an undecided pi^0-coordinate
        edge = K.work_prec - 4
        ks = [None] * e
        ks[0], ks[1] = edge, high
        values = _values_with_residuals(CyclotomicLayer(K, n), basis, x, ks,
                                        rng)
        assert _span_margin(values, kbasis, Fraction(50)) == edge
        ks[0], ks[1] = high, edge
        values = _values_with_residuals(CyclotomicLayer(K, n), basis, x, ks,
                                        rng)
        with pytest.raises(PrecisionError) as info:
            _span_margin(values, kbasis, Fraction(50))
        assert info.value.floor == edge


# -- wronskians and orbits ----------------------------------------------------------

def test_wronskian_log_one(K5):
    # components (log, 1): det [[log, 1], [1, 0]] = -1
    m = diag_module(K5, [Fraction(1), Fraction(5)])
    n = 60
    lg = so.log_series(K5, n).truncate(n)
    one = TruncatedSeries.one(K5, n)
    g = VectorSeries(m, [lg, one])
    w = wronskian_det(g, 2)
    minus_one = TruncatedSeries.make(K5, [-1], n=w.n)
    assert w.equals(minus_one)


def test_wronskian_proportional_columns(K5):
    m = diag_module(K5, [Fraction(1), Fraction(5)])
    rng = random.Random(48)
    h = gen.random_poly_series(K5, rng, 40)
    g = VectorSeries(m, [h, h._scalar_mul(3)])
    assert wronskian_det(g, 2).is_zero


def test_wronskian_scalar_times_fixed_vector(K5):
    m = diag_module(K5, [Fraction(1), Fraction(5)])
    rng = random.Random(49)
    h = gen.random_poly_series(K5, rng, 40)
    g = VectorSeries(m, [h._scalar_mul(2), h._scalar_mul(7)])
    assert wronskian_det(g, 2).is_zero


def _wronskian_by_d_op_chain(g, order):
    cols, cur = [g.components], g.components
    for _ in range(order - 1):
        cur = [so.d_op(c) for c in cur]
        cols.append(cur)
    return analytic._columns_det([col[:order] for col in cols])


def _mixed_component(K, rng, n, kind):
    """An exact polynomial, the truncation of a longer one, or a truncated
    series with an explicit tail bound, all of degree n."""
    if kind == "exact":
        return gen.random_poly_series(K, rng, n, deg=rng.randint(0, n))
    if kind == "cut":
        longer = gen.random_poly_series(K, rng, n + rng.randint(1, 5))
        return longer.truncate(n)
    return TruncatedSeries.make(
        K, [rng.randrange(K.p ** 10) for _ in range(n + 1)], n=n,
        tail_zero=False, bound=(Fraction(rng.randint(-2, 0)),
                                rng.randint(0, 2), 0))


@pytest.mark.parametrize("order", [1, 2, 3])
@pytest.mark.parametrize("p", [3, 5])
def test_wronskian_matches_the_d_op_chain(p, order):
    # the derivative ladder aligns each rung before differentiating it; the
    # chain differentiates the raw series and aligns once at the end
    K = UnramifiedField(p, 1, 20)
    m = diag_module(K, [Fraction(1), Fraction(p), Fraction(1, p)])
    rng = random.Random(10 * p + order)
    kinds = ["exact", "cut", "bound"]
    for trial in range(8):
        n = rng.randint(5, 3 * p)
        mix = rng.sample(kinds, 2) + [rng.choice(kinds)]
        g = VectorSeries(m, [_mixed_component(K, rng, n, kind)
                             for kind in rng.sample(mix, 3)])
        got = wronskian_det(g, order)
        want = _wronskian_by_d_op_chain(g, order)
        assert (got.n, got.shift, got.rel, got.coords, got.bound,
                got.tail_zero) == (want.n, want.shift, want.rel, want.coords,
                                   want.bound, want.tail_zero)


def test_orbit_wedge_colinear_is_zero(K5):
    m = diag_module(K5, [Fraction(25), Fraction(1, 5)])
    rng = random.Random(50)
    h = gen.random_poly_series(K5, rng, 30)
    zero = TruncatedSeries.zero(K5, 30)
    g = VectorSeries(m, [h, zero])
    assert phi_orbit_wedge(g, 1).is_zero


def test_orbit_wedge_n0_identity_case(K5):
    m = unit_module(K5)
    rng = random.Random(51)
    h = gen.random_poly_series(K5, rng, 30)
    g = VectorSeries(m, [h])
    assert phi_orbit_wedge(g, 0).equals(h)


def test_orbit_wedge_log_divisible(K5div):
    # synthetic member of the supersingular module: g and Phi(g) wedge to a
    # log^2-divisible series with bounded quotient
    m = modular_form_module(5, 2, 0, field=K5div)
    rng = random.Random(52)
    g = gen.synthetic_member(m, rng, 125, mode="deep")
    w = phi_orbit_wedge(g, 1)
    assert so.log_order(w, n_max=1) == 2


def test_orbit_relation_eigen_case(K5):
    # eigenvector times a series: v = 1 with coefficient p^a phi(h)/h
    m = diag_module(K5, [Fraction(25), Fraction(1, 5)])
    rng = random.Random(53)
    h = gen.random_poly_series(K5, rng, 30, deg=3, unit_constant=True)
    zero = TruncatedSeries.zero(K5, 30)
    g = VectorSeries(m, [h, zero])
    rel = orbit_relation(g, 2)
    assert rel.status == "ok" and rel.v == 1
    num, den = rel.coefficients[0]
    # cross-multiplied: num * h == den * (p^2 phi(h))
    lhs = num * h
    rhs = den * so.phi_op(h)._scalar_mul(25)
    mmin = min(lhs.n, rhs.n)
    assert lhs.truncate(mmin).equals(rhs.truncate(mmin))


def test_orbit_relation_generic_dim2_wedge_quotients(K5):
    m = modular_form_module(5, 2, 0, field=K5)
    rng = random.Random(54)
    g = gen.synthetic_member(m, rng, 60, mode="deep")
    rel = orbit_relation(g, 2)
    assert rel.status == "ok" and rel.v == 2
    # Cramer coefficients against the wedge quotients:
    # Phi^2(g) = a1 Phi(g) + a0 g with a1 = (g /\ Phi^2 g)/(g /\ Phi g)
    orbit = [g]
    from padic_hodge.analytic import phi_iterate
    orbit = phi_iterate(g, 2)
    def wedge(a, b):
        return (a.components[0] * b.components[1] -
                a.components[1] * b.components[0])
    w01 = wedge(orbit[0], orbit[1])
    w02 = wedge(orbit[0], orbit[2])
    w12 = wedge(orbit[1], orbit[2])
    num0, den0 = rel.coefficients[0]   # coefficient of g
    num1, den1 = rel.coefficients[1]   # coefficient of Phi(g)
    pairs = [(num1 * w01, den1 * w02), (num0 * w01, den0 * (-w12))]
    for lhs, rhs in pairs:
        mmin = min(lhs.n, rhs.n)
        assert lhs.truncate(mmin).equals(rhs.truncate(mmin))


def test_orbit_relation_zero(K5):
    m = unit_module(K5)
    z = TruncatedSeries.zero(K5, 20)
    g = VectorSeries(m, [z])
    rel = orbit_relation(g, 1)
    assert rel.status == "zero" and rel.v == 0


# -- contradiction pipeline ---------------------------------------------------------

def test_pipeline_supersingular_numbers(K5div):
    m = modular_form_module(5, 2, 0, field=K5div)
    rng = random.Random(55)
    g = gen.synthetic_member(m, rng, 125, mode="deep")
    rep = contradiction_pipeline(m, "dim2-det", g, n_max=1)
    assert rep.order_upper == 1 and rep.log_lower == 2
    assert rep.verdict == "forced zero"


def test_growth_order_is_computed_only_where_exact(K5div, monkeypatch):
    # a verdict reads the phi-twisted order only when eigen data makes it
    # exact; without eigen data no order, and no estimate, is computed
    calls = []

    def counting(g, *args):
        calls.append(g)
        return phi_growth_order(g, *args)

    monkeypatch.setattr(analytic, "phi_growth_order", counting)
    m = modular_form_module(5, 2, 0, field=K5div)
    g = gen.synthetic_member(m, random.Random(55), 125, mode="deep")
    rep = contradiction_pipeline(m, "dim2-det", g, n_max=1)
    assert rep.verdict == "forced zero" and calls == []
    assert rep.membership.order is None and rep.membership.order_pass is None
    # log^0 b * e1 with phi(e1) = 25 e1: exact order 2
    m = diag_module(K5div, [Fraction(25), Fraction(1, 5)])
    b = gen.random_poly_series(K5div, random.Random(44), 20, deg=2,
                               unit_constant=True)
    g = from_eigen_terms(m, [([K5div.one(), K5div.zero()], Fraction(2),
                              LogPolynomial({0: b}))], 40)
    for r, passes in ((2, True), (1, False)):
        calls.clear()
        rep = check_membership(g, 0, (), r, 1)
        assert len(calls) == 1
        assert rep.order.exact and rep.order.value == 2
        assert rep.order_pass is passes


def test_pipeline_zero_input_vacuous(K5div):
    m = modular_form_module(5, 2, 0, field=K5div)
    z = TruncatedSeries.zero(K5div, 125, tail_zero=True)
    g = VectorSeries(m, [z, z])
    rep = contradiction_pipeline(m, "dim2-det", g, n_max=1)
    assert rep.log_lower == INFINITE and rep.verdict == "forced zero"


def test_pipeline_wronskian_dichotomy():
    field = UnramifiedField(5, 1, 20, work_margin=300)
    rng = random.Random(56)
    for mode, expect_forced in (("strict", True), ("wa", False)):
        M, slopes, jumps = gen.split_module(field, rng, 2, mode)
        g = gen.synthetic_member(M, rng, 125, mode="adapted")
        rep = contradiction_pipeline(M, "wronskian", g, n_max=1)
        assert rep.verdict != "inconclusive"
        assert (rep.verdict == "forced zero") == expect_forced
        assert (M.t_H < M.t_N) == expect_forced


@functools.lru_cache(maxsize=None)
def _p3_strict_wronskian_case():
    """Case 1 of `verify contradiction --config tests/data/p3.json --seed 1`
    (p = 3, N = 81): a strict split module with slopes (-3, -2) and jumps
    (-5, -4) and its adapted synthetic member, drawn as the suite draws
    them after its supersingular case."""
    cfg = Config(p=3, truncation=81)
    rng = random.Random(1)
    ss = modular_form_module(3, 2, 0, field=series_field(cfg, 3))
    gen.synthetic_member(ss, rng, 81, mode="deep")
    M, slopes, jumps = gen.split_module(series_field(cfg, 9), rng, 2,
                                        "strict")
    assert (slopes, jumps) == ([-3, -2], [-5, -4])
    return M, gen.synthetic_member(M, rng, 81, mode="adapted")


def test_pipeline_undecided_log_bound_is_inconclusive():
    # the Wronskian's first layer test cannot be decided at N = 81: the
    # pipeline reports it instead of letting the TailBoundError escape
    M, g = _p3_strict_wronskian_case()
    rep = contradiction_pipeline(M, "wronskian", g, n_max=1)
    assert rep.membership.verdict and not rep.membership.indeterminate
    assert (rep.verdict, rep.order_upper, rep.log_lower) == \
        ("inconclusive", 4, None)
    assert rep.provenance[-1] == (
        "log bound undecided: certainty 1/2 below decision threshold 1; "
        "raise the truncation degree")
    with pytest.raises(TailBoundError, match="certainty 1/2"):
        so.log_order(rep.det_series, n_max=1)


def test_pipeline_orbit_wedge_mode(K5div):
    m = modular_form_module(5, 2, 0, field=K5div).erase_filtration_step(0)
    rng = random.Random(57)
    g = gen.synthetic_member(m, rng, 125, mode="deep")
    rep = contradiction_pipeline(m, "orbit-wedge", g, n_max=1)
    # pente < 0 module: the top orbit wedge is forced to vanish
    assert rep.verdict == "forced zero"


def test_pipeline_soundness_evaluations(K5div):
    # whenever the verdict is forced zero on a constructed series, the
    # determinant evaluates below precision at the layer points
    from padic_hodge.seriesops import cyclotomic_evaluate
    m = modular_form_module(5, 2, 0, field=K5div)
    rng = random.Random(58)
    g = gen.synthetic_member(m, rng, 125, mode="deep")
    rep = contradiction_pipeline(m, "dim2-det", g, n_max=1)
    assert rep.verdict == "forced zero"
    assert rep.log_lower > rep.order_upper
    F = rep.det_series
    ev = cyclotomic_evaluate(F, CyclotomicLayer(K5div, 1))
    kind, floor = ev.classify()
    assert kind == "zero"


@functools.cache
def _supersingular_wide():
    """The supersingular module over Q_5 at a work margin of 150."""
    field = UnramifiedField(5, 1, 20, work_margin=150)
    return modular_form_module(5, 2, 0, field=field)


def _exact_cubics(m):
    """Two exact cubics outside the class: at the layers n = 1, 2 their
    values neither vanish nor lie in K_n (x) phi^n Fil^0."""
    return VectorSeries(m, [TruncatedSeries.make(m.field, [1, 2, 3, 4]),
                            TruncatedSeries.make(m.field, [0, 1, 0, 1])])


def test_pipeline_inconclusive_on_indeterminate_membership():
    # a deep member cut to degree 124 with no tail bound: no layer value is
    # certified, so membership and the verdict stay undecided
    m = _supersingular_wide()
    g = gen.synthetic_member(m, random.Random(1), 125, mode="deep")
    cut = VectorSeries(m, [TruncatedSeries.make(m.field,
                                                c.coefficients()[:125],
                                                n=124, tail_zero=False)
                           for c in g.components])
    rep = contradiction_pipeline(m, "dim2-det", cut)
    assert rep.membership.indeterminate and rep.verdict == "inconclusive"
    assert rep.order_upper is None and rep.log_lower is None
    assert rep.provenance == ["membership indeterminate at the configured "
                              "layers"]
    assert rep.det_series is None


def test_pipeline_names_the_kind_of_each_failed_row():
    # the vanishing row and the subspace row fail at the same (j, n): the
    # provenance names each by its kind, not the same (j, n) twice
    m = _supersingular_wide()
    rep = contradiction_pipeline(m, "dim2-det", _exact_cubics(m), n_max=2)
    assert not rep.membership.indeterminate
    assert rep.verdict == "inconclusive" and rep.det_series is None
    assert rep.provenance == [
        "membership hypotheses fail: vanish (j=0, n=1), subspace (j=0, n=1), "
        "vanish (j=0, n=2), subspace (j=0, n=2)"]
    assert rep.order_upper is None and rep.log_lower is None


def test_phi_growth_order_estimate_on_exact_components():
    # (1 (x) phi)^-1 = [[0, 5], [-1, 0]] sends (c1, c2) to (5 c2, -c1),
    # -5 (c1, c2) and (-25 c2, 5 c1) at rho_1, rho_2, rho_3; c1 has a unit
    # constant term and c2 = x + x^3, so the norms give 0, -1, -1: slope
    # -1/2 with residuals 1/6, -1/3, 1/6
    po = phi_growth_order(_exact_cubics(_supersingular_wide()))
    assert not po.exact and po.value is None
    assert po.interval == (Fraction(-5, 6), Fraction(-1, 6))
    assert po.note == "least-squares estimate; not used in verdicts"


# -- determinant log-divisibility ------------------------------------------------------

def test_det_divisibility_verified(K5div):
    rng = random.Random(59)
    for d in (2, 3):
        M = gen.random_wa_module_bounded(K5div, rng, d=d)
        gs = [gen.synthetic_member(M, rng, 125, mode="adapted")
              for _ in range(d)]
        rep = det_log_divisibility(gs, n_max=1)
        assert rep.verified and rep.log_lower >= -M.t_H


def test_det_divisibility_dim1_trivial(K5):
    m = unit_module(K5)
    rng = random.Random(60)
    h = gen.random_poly_series(K5, rng, 50, unit_constant=True)
    g = VectorSeries(m, [h])
    rep = det_log_divisibility([g], n_max=1)
    assert rep.verified and rep.t_H == 0


def test_det_divisibility_dependent_columns(K5):
    m = diag_module(K5, [Fraction(1), Fraction(5)],
                    jumps=None)
    rng = random.Random(61)
    h = gen.random_poly_series(K5, rng, 50)
    g1 = VectorSeries(m, [h, h._scalar_mul(2)])
    g2 = VectorSeries(m, [h._scalar_mul(3), h._scalar_mul(6)])
    rep = det_log_divisibility([g1, g2], n_max=1)
    assert rep.verified and rep.log_lower == INFINITE


def test_phi_orbit_membership_compatibility(K5div):
    # bounded combinations sum a_j Phi^j(g) of a member satisfy the same
    # layer conditions (in the tilde class, no psi constraint)
    m = modular_form_module(5, 2, 0, field=K5div)
    rng = random.Random(62)
    g = gen.synthetic_member(m, rng, 125, mode="deep")
    base = check_membership(g, 0, (0,), 0, 1, tilde=True)
    assert all(r.status in ("member", "trivial") for r in base.rows)
    from padic_hodge.analytic import phi_iterate
    orbit = phi_iterate(g, 2)
    a = [gen.random_poly_series(K5div, rng, 125, deg=2) for _ in range(3)]
    comps = None
    for coeff, vec in zip(a, orbit):
        add = [(coeff * c).truncate(125) for c in vec.components]
        comps = add if comps is None else [x + y for x, y in zip(comps, add)]
    h = VectorSeries(m, comps)
    rep = check_membership(h, 0, (0,), 0, 1, tilde=True)
    assert all(r.status in ("member", "trivial") for r in rep.rows)


def test_wronskian_phi_scaling_identity(K5):
    # det(Phi g, D Phi g) = p * lambda_1 lambda_2 * phi(det(g, D g)) on
    # split modules (lambda_i the Frobenius eigenvalues), as an exact
    # identity of truncated series
    field = K5
    rng = random.Random(63)
    M, slopes, _ = gen.split_module(field, rng, 2, "wa")
    g = gen.synthetic_member(M, rng, 60, mode="adapted")
    V = wronskian_det(g, 2)
    pg = phi_vec(g)
    Vp = wronskian_det(pg, 2)
    lam_prod = M.phi_matrix[0][0] * M.phi_matrix[1][1]
    expect = so.phi_op(V)._scalar_mul(lam_prod)._scalar_mul(5)
    mmin = min(Vp.n, expect.n)
    assert Vp.truncate(mmin).equals(expect.truncate(mmin))


# -- layer-test rows, table driven ------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _table_field(p, f):
    return UnramifiedField(p, f, 20)


def _supersingular_pair(p, f, n, case):
    """A test vector on the weight-2 supersingular module (jumps -1, 0;
    Fil^0 a line) over the unramified degree-f extension of Q_p."""
    K = _table_field(p, f)
    m = modular_form_module(p, 2, 0, field=K)
    zero = TruncatedSeries.zero(K, n)
    if case == "log-e1":       # vanishes at every pi_n
        comps = [so.log_series(K, n), zero]
    elif case == "e1":         # a unit off phi(Fil^0)
        comps = [TruncatedSeries.one(K, n), zero]
    elif case == "phi-fil0":   # a unit on phi(Fil^0)
        comps = [TruncatedSeries.make(K, [c], n=n)
                 for c in m.apply_phi(list(m.fil_at(0).basis[0]))]
    elif case == "no-bound":   # untracked tail without a bound
        comps = [TruncatedSeries.make(K, [1, 2], n=n, tail_zero=False), zero]
    elif case == "weak-bound":  # tail bound too weak for the decision level
        comps = [TruncatedSeries.make(K, [1, 2], n=n, tail_zero=False,
                                      bound=(Fraction(20), 0, 0)), zero]
    return VectorSeries(m, comps)


F = Fraction
MEMBERSHIP_ROWS = [
    # (p, f, N, case, verdict, indeterminate, rows (j, n, kind, status, margin))
    (5, 1, 50, "log-e1", True, False,
     [(-1, 1, "subspace", "trivial", None),
      (0, 1, "vanish", "member", F(43, 4)),
      (0, 1, "subspace", "member", F(43, 4))]),
    (5, 1, 50, "e1", False, False,
     [(-1, 1, "subspace", "trivial", None),
      (0, 1, "vanish", "non-member", F(0)),
      (0, 1, "subspace", "non-member", F(0))]),
    (5, 1, 50, "phi-fil0", False, False,
     [(-1, 1, "subspace", "trivial", None),
      (0, 1, "vanish", "non-member", F(-1)),
      (0, 1, "subspace", "member", F(43))]),
    (5, 1, 50, "no-bound", False, True,
     [(-1, 1, "subspace", "indeterminate", None),
      (0, 1, "subspace", "indeterminate", None)]),
    (5, 1, 50, "weak-bound", False, True,
     [(-1, 1, "subspace", "indeterminate", F(-15, 2)),
      (0, 1, "subspace", "indeterminate", F(-29, 4))]),
    (5, 2, 25, "log-e1", True, False,
     [(-1, 1, "subspace", "trivial", None),
      (0, 1, "vanish", "member", F(9, 2)),
      (0, 1, "subspace", "member", F(9, 2))]),
    (5, 2, 25, "e1", False, False,
     [(-1, 1, "subspace", "trivial", None),
      (0, 1, "vanish", "non-member", F(0)),
      (0, 1, "subspace", "non-member", F(0))]),
    (5, 2, 25, "phi-fil0", False, False,
     [(-1, 1, "subspace", "trivial", None),
      (0, 1, "vanish", "non-member", F(-1)),
      (0, 1, "subspace", "member", F(43))]),
    (7, 1, 49, "log-e1", True, False,
     [(-1, 1, "subspace", "trivial", None),
      (0, 1, "vanish", "member", F(19, 3)),
      (0, 1, "subspace", "member", F(19, 3))]),
    (7, 1, 49, "e1", False, False,
     [(-1, 1, "subspace", "trivial", None),
      (0, 1, "vanish", "non-member", F(0)),
      (0, 1, "subspace", "non-member", F(0))]),
    (7, 1, 49, "weak-bound", False, True,
     [(-1, 1, "subspace", "indeterminate", F(-71, 6)),
      (0, 1, "subspace", "indeterminate", F(-35, 3))]),
]


@pytest.mark.parametrize("p,f,n,case,verdict,indeterminate,rows",
                         MEMBERSHIP_ROWS)
def test_membership_row_table(p, f, n, case, verdict, indeterminate, rows):
    rep = check_membership(_supersingular_pair(p, f, n, case), 0, (0,), 0, 1)
    assert [(r.j, r.n, r.kind, r.status, r.margin) for r in rep.rows] == rows
    assert (rep.verdict, rep.indeterminate) == (verdict, indeterminate)


DET_ROWS = [
    # (p, f, N, cases of the two columns, verified, log_lower,
    #  rows (column, j, n, status, margin))
    (5, 1, 50, ("log-e1", "log-e1"), True, 2,
     [(0, 0, 1, "member", F(43, 4)), (1, 0, 1, "member", F(43, 4))]),
    (5, 1, 50, ("weak-bound", "e1"), False, 0,
     [(0, 0, 1, "indeterminate", F(-29, 4)), (1, 0, 1, "non-member", F(0))]),
    (5, 2, 25, ("log-e1", "log-e1"), True, 2,
     [(0, 0, 1, "member", F(9, 2)), (1, 0, 1, "member", F(9, 2))]),
    (5, 2, 25, ("log-e1", "e1"), False, 0,
     [(0, 0, 1, "member", F(9, 2)), (1, 0, 1, "non-member", F(0))]),
    (7, 1, 49, ("log-e1", "log-e1"), True, 2,
     [(0, 0, 1, "member", F(19, 3)), (1, 0, 1, "member", F(19, 3))]),
    (7, 1, 49, ("e1", "e1"), False, 0,
     [(0, 0, 1, "non-member", F(0)), (1, 0, 1, "non-member", F(0))]),
]


def _swap(g):
    # put a case's series in the second coordinate instead of the first
    return VectorSeries(g.module, g.components[::-1])


@pytest.mark.parametrize("p,f,n,cases,verified,log_lower,rows", DET_ROWS)
def test_det_divisibility_row_table(p, f, n, cases, verified, log_lower,
                                    rows):
    gs = [_supersingular_pair(p, f, n, cases[0]),
          _swap(_supersingular_pair(p, f, n, cases[1]))]
    rep = det_log_divisibility(gs, n_max=1)
    assert rep.hypothesis_rows == rows
    assert (rep.verified, rep.log_lower, rep.t_H) == (verified, log_lower, -1)


def test_det_divisibility_propagates_tail_bound_error():
    gs = [_supersingular_pair(5, 1, 50, "no-bound"),
          _swap(_supersingular_pair(5, 1, 50, "log-e1"))]
    with pytest.raises(TailBoundError):
        det_log_divisibility(gs, n_max=1)


def test_det_divisibility_propagates_log_order_error(monkeypatch):
    # the columns g and D(g) pass every layer test, but their determinant
    # (the Wronskian of g) cannot take its first division at N = 81
    M, g = _p3_strict_wronskian_case()
    gs = [g, VectorSeries(M, [so.d_op(c) for c in g.components])]
    with pytest.raises(TailBoundError, match="certainty 1/2"):
        det_log_divisibility(gs, n_max=1)
    monkeypatch.setattr(analytic, "log_order", lambda F, n_max: 0)
    rows = det_log_divisibility(gs, n_max=1).hypothesis_rows
    assert rows and all(row[3] == "member" for row in rows)
