"""TruncatedSeries.vmin against a trial-division oracle, and the tail
valuation bound against its full scan."""

import random
from fractions import Fraction

import pytest

from padic_hodge.padics import UnramifiedField, vp_int
from padic_hodge.series import TruncatedSeries, tail_valuation_bound, _floor_logp


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
