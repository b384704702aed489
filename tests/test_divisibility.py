"""Certified division by log(1+x) and the maximal log-power divisor."""

import random
from fractions import Fraction

import pytest

from padic_hodge.config import Config
from padic_hodge.padics import UnramifiedField
from padic_hodge.series import TruncatedSeries, INFINITE
from padic_hodge import intpoly
from padic_hodge import seriesops as so
from padic_hodge.errors import NotDivisibleError, TailBoundError
from padic_hodge.modules import modular_form_module
from padic_hodge import generators as gen
from padic_hodge.suites import division_margin, series_field

from helpers import x_plus_one_power


def test_divide_log_itself(K5div):
    N = 125
    lg = so.log_series(K5div, N).truncate(N)
    q = so.divide_by_log(lg, n_max=1)
    assert q.equals(TruncatedSeries.one(K5div, q.n))


def test_divide_x_fails_with_witness(K5div):
    x = TruncatedSeries.make(K5div, [0, 1], n=125)
    with pytest.raises(NotDivisibleError) as exc:
        so.divide_by_log(x, n_max=1)
    layer, val = exc.value.witness
    assert layer == 1 and val == Fraction(1, 4)  # x(zeta-1) = pi, v = 1/(p-1)


def test_divide_constant_term_witness(K5div):
    one = TruncatedSeries.one(K5div, 20)
    with pytest.raises(NotDivisibleError) as exc:
        so.divide_by_log(one, n_max=1)
    assert exc.value.witness[0] == "x=0"


def test_multiply_then_divide_roundtrip(K5div):
    N = 125
    lg = so.log_series(K5div, N)
    h = TruncatedSeries.make(K5div, [1, 3, 1] + [0] * (N - 2), n=N)
    f = (lg * h).truncate(N)
    q = so.divide_by_log(f, n_max=1)
    assert q.equals(h.truncate(q.n))


def test_log_order_examples(K5div):
    N = 125
    lg = so.log_series(K5div, N)
    onex = TruncatedSeries.make(K5div, [1, 1], n=N)
    f = onex
    for _ in range(3):
        f = (lg * f).truncate(N)
    assert so.log_order(f, n_max=1) == 3
    assert so.log_order(TruncatedSeries.one(K5div, N), n_max=1) == 0
    assert so.log_order(TruncatedSeries.zero(K5div, N)) == INFINITE


def test_log_order_roundtrip_seeded(K5div):
    rng = random.Random(16)
    N = 125
    lg = so.log_series(K5div, N)
    for _ in range(10):
        r = rng.randint(0, 3)
        h = gen.random_poly_series(K5div, rng, N, deg=rng.randint(0, 4),
                                   unit_constant=True)
        f = h
        for _ in range(r):
            f = (lg * f).truncate(N)
        assert so.log_order(f, n_max=1) == r
        # exact recovery at truncation
        q = f
        for _ in range(r):
            q = so.divide_by_log(q, n_max=1)
        assert q.equals(h.truncate(q.n))


def test_divide_checks_layer_two_when_asked(K5div):
    # a series vanishing at layer 1 but not layer 2: (x - pi-orbit factor)
    # is hard to write down; instead check that n_max=2 also certifies a
    # genuine multiple of log
    N = 125
    lg = so.log_series(K5div, N)
    h = TruncatedSeries.make(K5div, [2, 1] + [0] * (N - 1), n=N)
    f = (lg * h).truncate(N)
    q = so.divide_by_log(f, n_max=2)
    assert q.equals(h.truncate(q.n))


def test_divide_rejects_phi_of_log_factor(K5div):
    # phi(log)/p = log has the same zeros; but (1+x)^p - 1 - x*(unit) does
    # not vanish at layer 2 roots: divide must refuse x*(1 + ...) there
    N = 125
    s = x_plus_one_power(K5div, 5, N) - \
        TruncatedSeries.one(K5div, N)
    # s = (1+x)^5 - 1 vanishes at layer-1 points but NOT at layer-2 points
    q1 = so.divide_by_log(s, n_max=1)   # layer-1 evidence alone passes
    assert q1 is not None
    with pytest.raises(NotDivisibleError) as exc:
        so.divide_by_log(s, n_max=2)
    assert exc.value.witness[0] == 2


def test_divide_twice_returns_kept_quotient(K5div, monkeypatch):
    N = 125
    lg = so.log_series(K5div, N)
    h = TruncatedSeries.make(K5div, [3, 1, 4, 1] + [0] * (N - 3), n=N)
    f = (lg * h).truncate(N)
    so.ilog_series(K5div, N)  # built before counting
    products = []
    polymul = intpoly.polymul
    monkeypatch.setattr(intpoly, "polymul",
                        lambda *args: products.append(args) or polymul(*args))
    q = so.divide_by_log(f, n_max=1)
    assert len(products) == 1
    assert so.divide_by_log(f, n_max=1) is q
    assert so.divide_by_log(f, n_max=2) is q
    assert len(products) == 1
    assert q.equals(h.truncate(q.n))


def test_kept_quotient_still_checks_layers(K5div):
    # ((1+x)^p - 1)*h vanishes at layer 1 but not at layer 2: the quotient
    # kept by the n_max=1 call must not let an n_max=2 call through
    N = 125
    h = TruncatedSeries.make(K5div, [2, 1, 1] + [0] * (N - 2), n=N)
    f = ((x_plus_one_power(K5div, 5, N)
          - TruncatedSeries.one(K5div, N)) * h).truncate(N)
    q = so.divide_by_log(f, n_max=1)
    for _ in range(2):
        with pytest.raises(NotDivisibleError) as exc:
            so.divide_by_log(f, n_max=2)
        assert exc.value.witness[0] == 2
    assert so.divide_by_log(f, n_max=1) is q


def _count_evaluations(monkeypatch):
    """(series, layer index) of every ``cyclotomic_evaluate`` call."""
    calls = []
    evaluate = so.cyclotomic_evaluate

    def counted(f, layer):
        calls.append((f, layer.n))
        return evaluate(f, layer)
    monkeypatch.setattr(so, "cyclotomic_evaluate", counted)
    return calls


@pytest.mark.parametrize("r", [1, 3])
def test_each_layer_of_a_series_is_evaluated_once(K5div, monkeypatch, r):
    N = 125
    lg = so.log_series(K5div, N)
    f = TruncatedSeries.make(K5div, [2, 7, 1], n=N)
    for _ in range(r):
        f = (lg * f).truncate(N)
    calls = _count_evaluations(monkeypatch)
    assert so.log_order(f, n_max=1) == r
    # the last division stops at x = 0, before any layer
    assert len(calls) == r
    # log^3 h at N = 125 cannot decide layer 2 on its first two series;
    # an undecided layer is kept too, and the chain goes on at layer 1
    for n_max in (1, 2, 2, 1):
        cur = f
        for _ in range(r):
            try:
                cur = so.divide_by_log(cur, n_max=n_max)
            except TailBoundError:
                cur = so.divide_by_log(cur, n_max=1)
    assert len(calls) == 2 * r
    assert len({(id(s), n) for s, n in calls}) == len(calls)
    assert [n for _, n in calls] == [1] * r + [2] * r


def test_a_kept_evaluation_raises_the_same_witness(K5div, monkeypatch):
    x = TruncatedSeries.make(K5div, [0, 1], n=125)
    calls = _count_evaluations(monkeypatch)
    witnesses = []
    for _ in range(2):
        with pytest.raises(NotDivisibleError) as exc:
            so.divide_by_log(x, n_max=1)
        witnesses.append(exc.value.witness)
    assert witnesses[0] == witnesses[1] and witnesses[0][0] == 1
    assert len(calls) == 1


def test_a_kept_evaluation_stays_undecided(K5div, monkeypatch):
    # the tail profile lets the layer-1 value sit below valuation 1
    s = TruncatedSeries.make(K5div, [0, 5, 25], n=10, tail_zero=False,
                             bound=(Fraction(5), 0, 0))
    calls = _count_evaluations(monkeypatch)
    for _ in range(3):
        with pytest.raises(TailBoundError, match="certainty"):
            so.divide_by_log(s, n_max=1)
    assert len(calls) == 1


def test_second_member_makes_only_its_own_products(monkeypatch):
    # the field keeps log(1+x)^k per degree: a second deep member of a
    # jump -3 module multiplies each b by log^3 and builds no power again
    field = UnramifiedField(5, 1, 20, work_margin=40)
    m = modular_form_module(5, 4, 0, field=field)
    inside, products = [], []
    polymul, expand = intpoly.polymul, so.LogPolynomial.expand

    def counted_polymul(*args):
        if inside:
            products.append(args)
        return polymul(*args)

    def counted_expand(self, n):
        inside.append(1)
        try:
            return expand(self, n)
        finally:
            inside.pop()
    monkeypatch.setattr(intpoly, "polymul", counted_polymul)
    monkeypatch.setattr(so.LogPolynomial, "expand", counted_expand)
    rng = random.Random(3)
    gen.synthetic_member(m, rng, 40, mode="deep")
    assert len(products) == m.d + 3
    del products[:]
    gen.synthetic_member(m, rng, 40, mode="deep")
    assert len(products) == m.d


def random_k_series(field, rng, n, deg):
    """A polynomial of degree deg over K with a unit constant term, every
    t-coordinate drawn, padded to degree n."""
    p, f = field.p, field.f
    mod = p ** field.work_prec
    coords = [[rng.randrange(mod) if i <= deg else 0 for i in range(n + 1)]
              for _ in range(f)]
    coords[0][0] = rng.randrange(1, p) + p * rng.randrange(mod // p)
    return TruncatedSeries(field, n, 0, field.work_prec, coords,
                           tail_zero=True)


@pytest.mark.parametrize("f", [1, 2, 3])
@pytest.mark.parametrize("p", [3, 5, 7, 11])
def test_divide_recovers_cofactor_seeded(p, f):
    field = UnramifiedField(p, f, 20, work_margin=60)
    rng = random.Random(50 * p + f)
    N = p * p
    lg = so.log_series(field, N)
    for _ in range(3):
        h = random_k_series(field, rng, N, rng.randint(0, 4))
        q = so.divide_by_log((lg * h).truncate(N), n_max=1)
        # the quotient keeps most of the 80-digit window
        assert q.n == N - 1 and q.prec >= 60
        assert q.equals(h.truncate(q.n))


@pytest.mark.parametrize("p, N", [(3, 27), (3, 81), (5, 25), (5, 125),
                                  (7, 343), (11, 121)])
def test_division_margin_is_what_one_division_spends(p, N):
    # x/log(1+x) mod x^(N+1) has least valuation -(N // (p - 1)), and one
    # division of a dividend of non-negative valuation lowers its absolute
    # precision by exactly that: the per-division figure of the suites'
    # margin is the library's own
    cfg = Config(p=p, truncation=N)
    per = division_margin(cfg, 1) - division_margin(cfg, 0)
    assert per == N // (p - 1)
    field = series_field(cfg, 1)
    assert so.ilog_series(field, N).vmin == -per
    rng = random.Random(p * N)
    lg = so.log_series(field, N)
    for e in (0, 2):
        f = (lg * gen.random_poly_series(field, rng, N, deg=4)).truncate(N)
        f = f._scalar_mul(p ** (e - f.vmin))
        assert f.vmin == e
        assert f.prec - so.divide_by_log(f, n_max=1).prec == per
