"""Cyclotomic layers: Eisenstein structure, valuations, evaluation."""

import functools
import random
from fractions import Fraction

import pytest

from padic_hodge.cyclotomic import CyclotomicLayer, CyclotomicElement
from padic_hodge.padics import UnramifiedField
from padic_hodge.series import TruncatedSeries
from padic_hodge.seriesops import cyclotomic_evaluate, log_series
from padic_hodge.errors import PrecisionError


def test_layer_minimal_polynomial_is_eisenstein(K5):
    for n in (1, 2):
        layer = CyclotomicLayer(K5, n)
        mp = layer.minimal_polynomial
        assert mp[-1] == 1 and mp[0] == 5
        assert all(c % 5 == 0 for c in mp[:-1])
        assert layer.e == 5 ** (n - 1) * 4


def test_layer_cap(K5):
    with pytest.raises(ValueError):
        CyclotomicLayer(K5, 4)


def _element(layer, coords):
    """The layer value sum_j coords[j] pi^j, zero-padded to e coordinates."""
    field = layer.field
    coords = list(coords) + [0] * (layer.e - len(coords))
    return CyclotomicElement(layer, [field.coerce(c) for c in coords])


def test_uniformizer_valuations(K5):
    L1 = CyclotomicLayer(K5, 1)
    L2 = CyclotomicLayer(K5, 2)
    # Newton polygon of the Eisenstein polynomial
    assert _element(L1, [0, 1]).valuation() == Fraction(1, 4)
    assert _element(L1, [5]).valuation() == 1
    assert _element(L2, [0, 0, 1]).valuation() == Fraction(1, 10)


def test_zero_signal(K5):
    L1 = CyclotomicLayer(K5, 1)
    with pytest.raises(PrecisionError):
        _element(L1, []).valuation()


def _ints(value, mod):
    """Integer coordinates of an integral layer value, reduced mod ``mod``."""
    out = []
    for c in value.coords:
        q = c.lift_fraction()
        assert q.denominator == 1
        out.append(int(q) % mod)
    return out


def _layer_mul(a, b, mp, mod):
    """Product of two integer coordinate vectors in Z[X]/(mp(X), mod) for
    the monic minimal polynomial ``mp``."""
    e = len(mp) - 1
    raw = [0] * (2 * e - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            raw[i + j] += x * y
    for k in range(2 * e - 2, e - 1, -1):
        c = raw[k]
        for i in range(e + 1):
            raw[k - e + i] -= c * mp[i]
    return [x % mod for x in raw[:e]]


def test_evaluation_simple_cases(K5):
    L1 = CyclotomicLayer(K5, 1)
    L2 = CyclotomicLayer(K5, 2)
    # 1 + x evaluates to the class of 1 + pi
    s = TruncatedSeries.make(K5, [1, 1], n=10)
    ev = cyclotomic_evaluate(s, L1)
    assert _ints(ev.value, 5 ** ev.value.prec) == [1, 1, 0, 0]
    # x at layer 2 evaluates to pi_2, valuation exactly 1/e_2
    s2 = TruncatedSeries.make(K5, [0, 1], n=10)
    ev2 = cyclotomic_evaluate(s2, L2)
    assert ev2.value.valuation() == Fraction(1, 20)


def test_log_vanishes_at_root_of_unity(K5):
    # the p-adic logarithm of a p-power root of unity is zero: the truncated
    # log evaluates inside the certified tail bound at both layers
    N = 125
    lg = log_series(K5, N)
    for n in (1, 2):
        layer = CyclotomicLayer(K5, n)
        ev = cyclotomic_evaluate(lg, layer)
        kind, floor = ev.classify(Fraction(1))
        assert kind == "zero"
        # oracle: the first untracked term 1/(N+1) x^(N+1) dominates the tail
        assert floor >= Fraction(N + 1, layer.e) - 3


def test_evaluation_is_ring_hom(K5):
    # evaluation at pi_1 against plain integers modulo (Phi_5(1+X), 5^m)
    rng = random.Random(6)
    L1 = CyclotomicLayer(K5, 1)
    mp = L1.minimal_polynomial
    for _ in range(10):
        f = TruncatedSeries.make(K5, [rng.randint(0, 60) for _ in range(9)], n=8)
        g = TruncatedSeries.make(K5, [rng.randint(0, 60) for _ in range(9)], n=8)
        vf, vg, vprod, vsum = (cyclotomic_evaluate(s, L1).value
                               for s in (f, g, f * g, f + g))
        mod = 5 ** min(v.prec for v in (vf, vg, vprod, vsum))
        a, b = _ints(vf, mod), _ints(vg, mod)
        assert _ints(vprod, mod) == _layer_mul(a, b, mp, mod)
        assert _ints(vsum, mod) == [(x + y) % mod for x, y in zip(a, b)]


@functools.lru_cache(maxsize=None)
def _field(p, f):
    return UnramifiedField(p, f, 20)


def _pow_rows_value(s, layer):
    """Oracle for the value at pi_n: each coordinate column dotted with the
    table of the powers of X modulo the minimal polynomial."""
    field = s.field
    mod = field.p ** s.rel
    rows = layer.pow_rows(s.n, mod)
    cols = [[sum(r * row[j] for r, row in zip(col, rows)) % mod
             for j in range(layer.e)] for col in s.coords]
    return [field.from_residues(s.shift, [col[j] for col in cols], s.prec)
            for j in range(layer.e)]


@pytest.mark.parametrize("p,f,n", [(p, f, n) for p in (3, 5, 7, 11)
                                   for f in (1, 2, 3) for n in (1, 2, 3)
                                   if n < 3 or p <= 5])
def test_evaluation_matches_pow_rows_oracle(p, f, n):
    field = _field(p, f)
    layer = CyclotomicLayer(field, n)
    e = layer.e
    rng = random.Random(100 * p + 10 * f + n)
    for N in sorted({0, e - 1, e, e + 1, p ** 3}):
        for rel in (1, rng.randint(2, 60)):
            mod = p ** rel
            coords = [[rng.choice([0, mod - 1, rng.randrange(mod)])
                       for _ in range(N + 1)] for _ in range(f)]
            s = TruncatedSeries(field, N, rng.randint(-3, 5), rel, coords,
                                tail_zero=True)
            ev = cyclotomic_evaluate(s, layer)
            assert [(c.val, c.prec, c.res) for c in ev.value.coords] == \
                [(c.val, c.prec, c.res) for c in _pow_rows_value(s, layer)]
            assert (ev.prec, ev.tail) == (s.prec, None)
