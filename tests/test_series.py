"""TruncatedSeries.vmin against a trial-division oracle."""

import random

import pytest

from padic_hodge.padics import UnramifiedField, vp_int
from padic_hodge.series import TruncatedSeries


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
