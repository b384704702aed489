"""Gauss norms on the radii rho_n and growth orders."""

import random
from fractions import Fraction

import pytest

from padic_hodge.padics import UnramifiedField
from padic_hodge.series import TruncatedSeries
from padic_hodge import seriesops as so
from padic_hodge.seriesops import LogPolynomial
from padic_hodge.errors import TailBoundError
from padic_hodge import generators as gen

from helpers import expand_by_power_loop


def direct_min_oracle(coeff_vals, n, p=5):
    """min_i (v_p(a_i) + i/(p^n(p-1))) over explicit valuations."""
    w = Fraction(1, p ** n * (p - 1))
    return min(Fraction(v) + i * w for i, v in coeff_vals)


def test_norm_of_constant(K5):
    f = TruncatedSeries.make(K5, [50], n=5)
    assert so.rho_norm(f, 2) == 2


def test_norm_of_log_direct_minimization(K5):
    # min over i of (-v_p(i) + i/(p(p-1))), attained at i = p
    N = 125
    lg = so.log_series(K5, N)
    vals = []
    for i in range(1, N + 1):
        v = 0
        k = i
        while k % 5 == 0:
            k //= 5
            v += 1
        vals.append((i, -v))
    expect = direct_min_oracle(vals, 1)
    assert so.rho_norm(lg, 1) == expect == Fraction(-3, 4)


def test_norm_multiplicative_and_phi_law(K5):
    rng = random.Random(13)
    for _ in range(20):
        f = TruncatedSeries.make(K5, [rng.randrange(5 ** 10)
                                      for _ in range(26)], n=25)
        g = TruncatedSeries.make(K5, [rng.randrange(5 ** 10)
                                      for _ in range(26)], n=25)
        for n in (1, 2):
            assert so.rho_norm(f * g, n) == \
                so.rho_norm(f, n) + so.rho_norm(g, n)
            assert so.rho_norm(so.phi_op(f), n + 1) == so.rho_norm(f, n)


def test_norm_tail_domination_error(K5):
    # an unbounded-profile truncation refuses a tail-sensitive norm
    s = so.ilog_series(K5, 40).truncate(40)  # no tail claim
    with pytest.raises(TailBoundError):
        so.rho_norm(s, 1)


def test_growth_order_log_powers(K5):
    for r in range(5):
        lp = LogPolynomial({r: TruncatedSeries.one(K5, 10)})
        assert so.growth_order(lp) == r


def test_growth_order_zero_errors(K5):
    lp = LogPolynomial({2: TruncatedSeries.zero(K5, 4)})
    with pytest.raises(ValueError):
        so.growth_order(lp)


def test_growth_order_dominance(K5):
    lp = LogPolynomial({2: TruncatedSeries.make(K5, [7], n=4),
                        1: TruncatedSeries.one(K5, 4)})
    assert so.growth_order(lp) == 2


def test_growth_order_rejects_raw_series(K5):
    with pytest.raises(TypeError):
        so.growth_order(TruncatedSeries.one(K5, 4))


def test_order_transfer_constructed_triples(K5):
    # f = log^a * (alpha c), g = log^b * c: the ratio of phi-multipliers is
    # the scalar mu = p^(a-b) sigma(alpha)/alpha, and orders differ by
    # ord(mu) = a - b
    rng = random.Random(14)
    for _ in range(25):
        a, b = rng.randint(0, 4), rng.randint(0, 4)
        c = gen.random_poly_series(K5, rng, 25, deg=3, unit_constant=True)
        alpha = Fraction(gen.random_unit(rng, 5)) * Fraction(5) ** rng.randint(-2, 2)
        from padic_hodge.padics import vp_fraction
        mu_ord = (a - b) + vp_fraction(alpha, 5) - vp_fraction(alpha, 5)
        f = LogPolynomial({a: c._scalar_mul(alpha)})
        g = LogPolynomial({b: c})
        assert so.growth_order(f) == mu_ord + so.growth_order(g)


def test_estimate_brackets_exact_orders(K5div):
    # slope fits over n = 1..3 need the i = p^3 coefficient tracked and a
    # truncation deep enough that the tail of log^3 (profile slope 3, next
    # valuation dip at i = p^5) cannot beat its tracked minimum
    N = 3500
    lg = so.log_series(K5div, N)
    one = TruncatedSeries.one(K5div, N)
    l3 = (lg * lg).truncate(N)
    l3 = (l3 * lg).truncate(N)
    lo, hi = so.growth_order_estimate(l3)
    assert lo <= 3 <= hi
    lo, hi = so.growth_order_estimate(one)
    assert lo <= 0 <= hi
    mixed = (lg * TruncatedSeries.make(K5div, [1, 5], n=N)).truncate(N)
    lo, hi = so.growth_order_estimate(mixed)
    assert lo <= 1 <= hi


def test_structured_expand_consistency(K5):
    # expanding a LogPolynomial matches term-wise series arithmetic
    rng = random.Random(15)
    c0 = gen.random_poly_series(K5, rng, 20, deg=2)
    c2 = gen.random_poly_series(K5, rng, 20, deg=2)
    lp = LogPolynomial({0: c0, 2: c2})
    n = 20
    lg = so.log_series(K5, n)
    direct = c0.truncate(n) + (c2.truncate(n) * lg * lg).truncate(n)
    assert lp.expand(n).equals(direct.truncate(lp.expand(n).n))


def _layout(s):
    return (s.n, s.shift, s.rel, s.coords, s.bound, s.tail_zero)


@pytest.mark.parametrize("p", [3, 5, 7])
@pytest.mark.parametrize("f", [1, 2])
def test_expand_matches_the_power_loop(p, f):
    # the field's kept powers of log(1+x) give the bits of powers built
    # afresh, whether the list is cold, partly built or complete
    field = UnramifiedField(p, f, 20, work_margin=30)
    rng = random.Random(10 * p + f)
    n = 30
    cs = [gen.random_poly_series(field, rng, n, deg=2) for _ in range(5)]
    shapes = [{2: 0}, {0: 1}, {4: 2, 1: 3}, {0: 0, 1: 1, 2: 2, 3: 3, 4: 4},
              {3: 4}, {1: 2, 3: 0}]
    for shape in shapes:
        lp = LogPolynomial({i: cs[k] for i, k in shape.items()})
        assert _layout(lp.expand(n)) == _layout(expand_by_power_loop(lp, n))
