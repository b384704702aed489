"""TruncatedSeries.vmin against a trial-division oracle, the tail valuation
bound against its full scan, and products over f > 1 against exact integer
products reduced modulo the defining polynomial."""

import math
import random
from fractions import Fraction

import pytest

from padic_hodge import intpoly
from padic_hodge.padics import UnramifiedField, vp_int
from padic_hodge.series import (TruncatedSeries, tail_valuation_bound,
                                _floor_logp, _mul_profiles)


FIELDS = {(p, f): UnramifiedField(p, f, 20) for p in (3, 5, 7) for f in (1, 2)}


def vmin_oracle(s):
    """shift + least residue valuation by trial division; prec when every
    residue is zero."""
    p = s.field.p
    vals = [vp_int(r, p) for col in s.coords for r in col if r]
    return s.shift + min(vals) if vals else s.prec


def series(field, shift, rel, coords):
    n = len(coords[0]) - 1
    return TruncatedSeries(field, n, shift, rel, coords)


def random_residue(rng, p, rel, v):
    """A residue below p^rel of valuation exactly v (v < rel)."""
    unit = rng.randrange(1, p ** (rel - v))
    while unit % p == 0:
        unit = rng.randrange(1, p ** (rel - v))
    return p ** v * unit


@pytest.mark.parametrize("p,f", sorted(FIELDS))
def test_vmin_random_against_oracle(p, f):
    field = FIELDS[(p, f)]
    rng = random.Random(1000 * p + f)
    for _ in range(40):
        n = rng.randint(0, 30)
        shift = rng.randint(-10, 10)
        rel = rng.randint(1, 120)
        coords = [[random_residue(rng, p, rel, rng.randrange(rel))
                   if rng.random() < 0.6 else 0 for _ in range(n + 1)]
                  for _ in range(f)]
        s = series(field, shift, rel, coords)
        assert s.vmin == vmin_oracle(s)


@pytest.mark.parametrize("p,f", sorted(FIELDS))
def test_vmin_all_residues_zero(p, f):
    field = FIELDS[(p, f)]
    s = series(field, -3, 40, [[0] * 11 for _ in range(f)])
    assert s.vmin == vmin_oracle(s) == 37


@pytest.mark.parametrize("p,f", sorted(FIELDS))
@pytest.mark.parametrize("prec", [-5, -1, 0])
def test_vmin_zero_series_without_window(p, f, prec):
    s = TruncatedSeries.zero(FIELDS[(p, f)], 8, prec=prec)
    assert s.rel <= 0
    assert s.vmin == vmin_oracle(s) == prec


@pytest.mark.parametrize("p,f", sorted(FIELDS))
def test_vmin_single_residue_at_top_of_window(p, f):
    field = FIELDS[(p, f)]
    rng = random.Random(p + 10 * f)
    for rel in (1, 2, 17, 90):
        coords = [[0] * 13 for _ in range(f)]
        coords[rng.randrange(f)][rng.randrange(13)] = \
            random_residue(rng, p, rel, rel - 1)
        s = series(field, 4, rel, coords)
        assert s.vmin == vmin_oracle(s) == 4 + rel - 1


@pytest.mark.parametrize("p", [3, 5, 7])
def test_vmin_least_valuation_in_second_coordinate(p):
    field = FIELDS[(p, 2)]
    rng = random.Random(p)
    rel = 60
    for v in (0, 5, 59):
        first = [random_residue(rng, p, rel, rng.randint(v + 1, rel - 1))
                 if v + 1 < rel else 0 for _ in range(20)]
        second = [0] * 20
        second[rng.randrange(20)] = random_residue(rng, p, rel, v)
        s = series(field, -2, rel, [first, second])
        assert s.vmin == vmin_oracle(s) == v - 2


def full_scan_tail_bound(b, s, h, weight, p, N):
    """min over i > N of i*weight - b - s*floor(log_p(i+h)), read at N+1 and
    at the 39 powers of p above it where the floor steps."""
    k0 = _floor_logp(N + 1 + h, p)
    best = Fraction(N + 1) * weight - b - s * k0
    for k in range(k0 + 1, k0 + 40):
        i = max(p ** k - h, N + 1)
        best = min(best, Fraction(i) * weight - b - s * k)
    return best


@pytest.mark.parametrize("p", [3, 5, 7])
def test_tail_valuation_bound_matches_full_scan(p):
    rng = random.Random(200 + p)
    field = UnramifiedField(p, 1, 10)
    for _ in range(300):
        n = rng.randint(1, 8)
        weight = rng.choice([Fraction(1, p ** (n - 1) * (p - 1)),
                             Fraction(1, p ** n * (p - 1))])
        b = Fraction(rng.randint(-60, 60), rng.randint(1, 6))
        s, h, N = rng.randint(0, 300), rng.randint(0, 6), rng.randint(1, 400)
        f = TruncatedSeries.zero(field, N, bound=(b, s, h), tail_zero=False)
        assert tail_valuation_bound(f, weight) == \
            full_scan_tail_bound(b, s, h, weight, p, N)


def t_power_rows(field, count):
    """Exact integer coordinates of t^0, ..., t^(count-1) modulo the
    defining polynomial g, each from the last by one multiplication by t."""
    g, f = field.defpoly, field.f
    rows = [[1] + [0] * (f - 1)]
    for _ in range(count - 1):
        prev = rows[-1]
        rows.append([(prev[l - 1] if l else 0) - prev[-1] * g[l]
                     for l in range(f)])
    return rows


def exact_product_columns(a, b, n_out):
    """Coordinate columns of a*b through degree n_out: the product in
    Z[t][x] of the two residue polynomials, t^k replaced by its row."""
    f = a.field.f
    rows = t_power_rows(a.field, 2 * f - 1)
    cols = [[0] * (n_out + 1) for _ in range(f)]
    for l, ca in enumerate(a.coords):
        for m, cb in enumerate(b.coords):
            row = rows[l + m]
            for i, x in enumerate(ca[:n_out + 1]):
                for j, y in enumerate(cb[:n_out + 1 - i]):
                    for q in range(f):
                        cols[q][i + j] += x * y * row[q]
    return cols


def readings(s):
    """(valuation, precision, residues) of every tracked coefficient."""
    return [(c.val, c.prec, c.res) for c in s.coefficients()]


def wide_product(a, b, prod):
    """The exact product in the window shift(a) + shift(b), low digits that
    are zero in every residue included, at the precision of ``prod``."""
    shift = a.shift + b.shift
    return TruncatedSeries(a.field, prod.n, shift, prod.prec - shift,
                           exact_product_columns(a, b, prod.n))


def random_series(rng, field, n, tail_zero):
    p, f = field.p, field.f
    rel = rng.choice([1, rng.randint(2, 60)])
    mod = p ** rel
    coords = [[rng.choice([0, mod - 1, rng.randrange(mod)])
               for _ in range(n + 1)] for _ in range(f)]
    return TruncatedSeries(field, n, rng.randint(-3, 3), rel, coords,
                           bound=None if tail_zero else (0, 1, 0),
                           tail_zero=tail_zero)


@pytest.mark.parametrize("p,f,defpoly", [
    (3, 2, None), (5, 2, None), (7, 2, None), (3, 3, None), (5, 3, None),
    # the smallest irreducible polynomials above have no t^(f-1) term; these
    # have one, so a column reduced early is read again
    (5, 2, (2, 1, 1)), (3, 3, (1, 0, 2, 1)), (5, 3, (2, 0, 1, 1))])
def test_mul_matches_exact_product_mod_g(p, f, defpoly):
    field = UnramifiedField(p, f, 20, defpoly=defpoly)
    rng = random.Random(300 + 10 * p + f + (defpoly is not None))
    for case in range(24):
        # exact times exact (full length), exact times truncated, truncated
        # times truncated (shorter length), and length-one factors
        a = random_series(rng, field, rng.choice([0, rng.randint(1, 25)]),
                          case % 3 != 2)
        b = random_series(rng, field, rng.choice([0, rng.randint(1, 25)]),
                          case % 3 == 0)
        prod = a * b
        assert prod.n == (a.n + b.n if a.tail_zero and b.tail_zero
                          else min(x.n for x in (a, b) if not x.tail_zero))
        # the product's window is that of the normalized operands
        na, nb = a.normalized(), b.normalized()
        assert prod.shift == na.shift + nb.shift
        assert prod.prec == min(a.prec + b.vmin, b.prec + a.vmin)
        mod = p ** prod.rel
        assert prod.coords == [[c % mod for c in col] for col in
                               exact_product_columns(na, nb, prod.n)]
        assert readings(prod) == readings(wide_product(a, b, prod))


def dead_digit_series(rng, field, n, tail_zero):
    """A series whose residues are all divisible by p^k with 1 <= k < rel
    (or, one time in six, all zero)."""
    p, f = field.p, field.f
    rel = rng.randint(2, 60)
    k = rng.randint(1, rel - 1)
    zero = rng.randrange(6) == 0
    coords = [[0 if zero else p ** k * rng.randrange(p ** (rel - k))
               for _ in range(n + 1)] for _ in range(f)]
    if not zero:
        coords[rng.randrange(f)][rng.randint(0, n)] = \
            random_residue(rng, p, rel, k)
    return TruncatedSeries(field, n, rng.randint(-40, 3), rel, coords,
                           bound=None if tail_zero else (0, 1, 0),
                           tail_zero=tail_zero)


@pytest.mark.parametrize("f", [1, 2, 3])
@pytest.mark.parametrize("p", [3, 5, 7])
def test_mul_drops_dead_digits(p, f, monkeypatch):
    # operands whose low digits are zero in every residue: the product's
    # values, precision, degree and bound are those of the exact product in
    # the wide window, and polymul sees only the operands' live digits
    field = UnramifiedField(p, f, 20)
    rng = random.Random(700 + 10 * p + f)
    calls = []

    def spy(a, b, mod, n):
        calls.append((a, b, mod))
        return polymul(a, b, mod, n)

    polymul = intpoly.polymul
    monkeypatch.setattr(intpoly, "polymul", spy)
    for case in range(30):
        n_a, n_b = rng.randint(0, 20), rng.randint(0, 20)
        # exact times exact, exact times truncated, truncated times exact
        a = dead_digit_series(rng, field, n_a, case % 3 != 2)
        b = (dead_digit_series(rng, field, n_b, case % 3 != 1)
             if case % 4 else random_series(rng, field, n_b, case % 3 != 1))
        if case % 10 == 9:
            # an operand with no window: the product is zero at its precision
            a = TruncatedSeries.zero(field, n_a, prec=rng.randint(-3, 0))
        for x, y in ((a, b), (b, a)):
            calls.clear()
            prod = x * y
            assert prod.n == (x.n + y.n if x.tail_zero and y.tail_zero
                              else min(s.n for s in (x, y) if not s.tail_zero))
            assert prod.prec == min(x.prec + y.vmin, y.prec + x.vmin)
            assert prod.bound == _mul_profiles(x.effective_bound(),
                                               y.effective_bound())
            assert readings(prod) == readings(wide_product(x, y, prod))
            rel = prod.prec - x.normalized().shift - y.normalized().shift
            if rel <= 0:
                # no live digit to multiply
                assert calls == [] and prod.is_zero
                continue
            assert prod.rel == rel and len(calls) == f * f
            assert {mod for _, _, mod in calls} == {p ** prod.rel}
            for s, side in ((x, 0), (y, 1)):
                if not s.is_zero:
                    # the residues that reach polymul have no common factor p
                    g = math.gcd(*(r for call in calls for r in call[side]))
                    assert g % p
            if not (x.is_zero or y.is_zero):
                assert prod.rel == prod.prec - x.vmin - y.vmin

