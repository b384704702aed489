"""Exact linear algebra and root finding over K."""

import random
from fractions import Fraction
from functools import lru_cache
from itertools import permutations

import pytest

from padic_hodge.linalg import (classify, solve, kernel, det, charpoly, echelon,
                                _best_pivot, mat_mul)
from padic_hodge.padics import FieldElement, UnramifiedField
from padic_hodge.polyroots import (newton_root_valuations, find_k_roots,
                                   poly_eval, _evaluate, _int_ops, _int_poly)
from padic_hodge.errors import EnumerationUnsupportedError, PrecisionError
from padic_hodge import generators as gen
from padic_hodge import polyroots

import polyroots_oracle as oracle


def rand_matrix(field, rng, n, den=(1, 2, 5)):
    return [[field.coerce(Fraction(rng.randint(-30, 30), rng.choice(den)))
             for _ in range(n)] for _ in range(n)]


def det_fraction_oracle(rows):
    """Leibniz determinant over exact rationals."""
    n = len(rows)
    total = Fraction(0)
    for perm in permutations(range(n)):
        sign = 1
        seen = list(perm)
        # parity by counting inversions
        inv = sum(1 for i in range(n) for j in range(i + 1, n)
                  if seen[i] > seen[j])
        sign = -1 if inv % 2 else 1
        prod = Fraction(1)
        for i in range(n):
            prod *= rows[i][perm[i]]
        total += sign * prod
    return total


def test_det_matches_leibniz_oracle(K5):
    rng = random.Random(21)
    for n in (2, 3, 4):
        for _ in range(5):
            fracs = [[Fraction(rng.randint(-9, 9), rng.choice([1, 1, 5]))
                      for _ in range(n)] for _ in range(n)]
            mat = [[K5.coerce(x) for x in row] for row in fracs]
            got = det(mat)
            expect = K5.coerce(det_fraction_oracle(fracs))
            assert (got - expect).is_zero


def test_solve_and_kernel(K5):
    rng = random.Random(22)
    for _ in range(10):
        A = rand_matrix(K5, rng, 3)
        x_true = [K5.coerce(rng.randint(-5, 5)) for _ in range(3)]
        b = [sum((A[i][j] * x_true[j] for j in range(3)), K5.zero())
             for i in range(3)]
        x, resid = solve(A, b)
        if x is None:
            continue  # singular draw
        for got, want in zip(x, x_true):
            assert (got - want).is_zero
    # an inconsistent system reports residual valuations
    A = [[K5.one(), K5.one()], [K5.one(), K5.one()]]
    b = [K5.zero(), K5.coerce(25)]
    x, resid = solve(A, b)
    assert x is None and resid == [2]


def test_kernel_dimension(K5):
    A = [[K5.one(), K5.coerce(2), K5.coerce(3)]]
    ker = kernel(A)
    assert len(ker) == 2
    for v in ker:
        img = sum((A[0][j] * v[j] for j in range(3)), K5.zero())
        assert img.is_zero


def test_charpoly_companion(K5):
    # companion matrix of X^2 + 5 has exactly that characteristic polynomial
    C = [[K5.zero(), K5.coerce(-5)], [K5.one(), K5.zero()]]
    cp = charpoly(C)
    assert (cp[0] - K5.coerce(5)).is_zero
    assert cp[1].is_zero
    assert (cp[2] - K5.one()).is_zero


def test_guard_band_raises(K5):
    assert K5.guard == 4
    nearly = K5.coerce(5 ** 41)  # valuation 41 inside the 44-digit window
    with pytest.raises(PrecisionError):
        classify(nearly)


def test_newton_polygon_reads_the_field_guard():
    # a coefficient of valuation 38 at precision 44 clears a guard of 4
    # digits and sits inside a guard of 8
    for guard, decides in ((4, True), (8, False)):
        K = UnramifiedField(5, 1, 20, guard=guard)
        g = [K.coerce(5 ** 38), K.one()]
        assert g[0].prec == 44
        if decides:
            assert newton_root_valuations(g) == [Fraction(38)]
        else:
            with pytest.raises(PrecisionError):
                newton_root_valuations(g)


def test_newton_polygon_examples(K5):
    # X^2 - X/5 + 1/5: root valuations {-1, 0}
    g = [K5.coerce(Fraction(1, 5)), K5.coerce(Fraction(-1, 5)), K5.one()]
    assert newton_root_valuations(g) == [Fraction(-1), Fraction(0)]
    # X^2 + 5: both roots of valuation 1/2
    g2 = [K5.coerce(5), K5.zero(), K5.one()]
    assert newton_root_valuations(g2) == [Fraction(1, 2), Fraction(1, 2)]


def test_newton_polygon_precision_guard(K5):
    # constant term indistinguishable from zero: not invertible at precision
    zero_const = K5.zero(6)
    g = [zero_const, K5.one(), K5.one()]
    with pytest.raises(PrecisionError):
        newton_root_valuations(g)


def test_find_roots_with_multiplicity(K5):
    # (X-2)^2 (X-10)
    g = [K5.coerce(-40), K5.coerce(44), K5.coerce(-14), K5.one()]
    roots, resid = find_k_roots(g, K5)
    assert len(resid) - 1 == 0
    by_mult = sorted((m, r.coordinate(0).lift_fraction()) for r, m in roots)
    assert by_mult[0][0] == 1 and by_mult[1][0] == 2
    for r, m in roots:
        assert poly_eval(g, r, K5).is_zero


def test_find_roots_none_for_irreducible(K5):
    g = [K5.coerce(5), K5.zero(), K5.one()]  # X^2 + 5
    roots, resid = find_k_roots(g, K5)
    assert not roots and len(resid) - 1 == 2


def test_find_roots_in_extension(K25):
    # split quadratic with roots t, t+1 in the residue-field lift
    t = K25.gen()
    a, b = t, t + K25.one()
    g = [a * b, -(a + b), K25.one()]
    roots, resid = find_k_roots(g, K25)
    assert len(roots) == 2 and len(resid) - 1 == 0
    for target in (a, b):
        assert any((r - target).is_zero for r, _ in roots)


# -- one pivot inverse per echelon row ---------------------------------------

def _echelon_by_division(matrix):
    """Reference elimination that divides every entry of a pivot row by the
    pivot (the same pivot order as linalg.echelon with reduce_above)."""
    rows = [list(r) for r in matrix]
    r = 0
    for c in range(len(rows[0])):
        if r >= len(rows):
            break
        i, _ = _best_pivot(rows, r, c)
        if i is None:
            continue
        rows[r], rows[i] = rows[i], rows[r]
        piv = rows[r][c]
        rows[r] = [x / piv for x in rows[r]]
        for k in range(len(rows)):
            if k != r and not rows[k][c].is_zero:
                factor = rows[k][c]
                rows[k] = [a - factor * b for a, b in zip(rows[k], rows[r])]
        r += 1
    return rows


def _shape(x):
    return (x.val, x.prec, x.res)


def _count_inverses(monkeypatch, cls):
    calls = []
    original = cls.inverse

    def counting(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(cls, "inverse", counting)
    return calls


@pytest.mark.parametrize("f", [1, 2])
def test_echelon_one_inverse_per_pivot(monkeypatch, f):
    field = UnramifiedField(5, f, 20)
    rng = random.Random(40 + f)
    for n, m in ((3, 3), (3, 5), (4, 2)):
        mat = [[field.element(
            [Fraction(rng.randint(-30, 30), rng.choice((1, 2, 5)))
             for _ in range(f)]) for _ in range(m)] for _ in range(n)]
        mat[-1] = [a + b for a, b in zip(mat[0], mat[1])]  # rank deficit
        expect = _echelon_by_division(mat)
        calls = _count_inverses(monkeypatch, FieldElement)
        rows, pivots, _ = echelon(mat, reduce_above=True)
        monkeypatch.undo()
        assert len(calls) == len(pivots) < n
        assert [[_shape(x) for x in row] for row in rows] == \
            [[_shape(x) for x in row] for row in expect]
        square = mat[:min(n, m)]
        square = [row[:len(square)] for row in square]
        calls = _count_inverses(monkeypatch, FieldElement)
        d = det(square)
        monkeypatch.undo()
        assert len(calls) <= len(square)
        if not d.is_zero:
            assert len(calls) == len(square)


def test_poly_eval_keeps_leading_digits_at_negative_valuation(K5):
    # Horner starts at the leading coefficient: at x = 5^-2 + O(5^0) a
    # constant stays itself and 5^-3 x + 1 is known to 5^-3
    x = K5.scalar(Fraction(1, 25), 0)
    one = poly_eval([K5.one()], x, K5)
    assert (one.val, one.prec) == (0, K5.one().prec)
    lin = poly_eval([K5.one(), K5.scalar(Fraction(1, 125))], x, K5)
    assert (lin.val, lin.prec) == (-5, -3)
    assert lin.lift_fraction() == Fraction(1, 5 ** 5)


# -- Panayi's reduction against the digit descent ------------------------------

@pytest.mark.parametrize("f", [1, 2, 3])
def test_integer_horner_matches_poly_eval(f):
    # val, prec and residues of the integer evaluation at a unit are those of
    # FieldElement Horner, with zero and low-precision coefficients and
    # partial sums of positive valuation
    field = UnramifiedField(5, f, 20)
    rng = random.Random(70 + f)
    mul, _ = _int_ops(field)
    for _ in range(80):
        coeffs = []
        for _ in range(rng.randint(1, 5)):
            prec = rng.randint(8, field.work_prec)
            if rng.random() < 0.2:
                coeffs.append(field.zero(prec))
            else:
                v = rng.choice([0, 0, 1, 2, 5])
                coeffs.append(field.from_residues(
                    v, [rng.randrange(5 ** 40) for _ in range(f)], prec))
        xprec = rng.randint(3, field.work_prec)
        x = field.from_residues(0, [rng.randint(1, 4)] +
                                [rng.randrange(5 ** 40) for _ in range(f - 1)],
                                xprec)
        want = poly_eval(coeffs, x, field)
        v, prec, acc = _evaluate(_int_poly(coeffs, field), x.res, xprec,
                                 field.p, mul)
        got = field.from_residues(0, acc, prec)
        assert (v, got.val, got.prec, got.res) == \
            (want.val, want.val, want.prec, want.res)


def _root_keys(roots):
    return [(r.val, r.prec, r.res, m) for r, m in roots]


def _certified(g, roots, field):
    """The oracle's roots cut to the precision that Hensel's lemma certifies,
    which is all that the search returns."""
    return [(field.from_residues(
        r.val, r.res, min(r.prec, oracle.certified_prec(g, r, field))), m)
        for r, m in roots]


# digits that a random lift of g adds above each coefficient's precision
_LIFT_DIGITS = 220


@lru_cache(maxsize=None)
def _lift_field(p, f):
    """K(p, f) with 236 digits more than the default window."""
    return UnramifiedField(p, f, 20, work_margin=260)


def _random_lift(g, exact, rng):
    """Monic g with random digits above each lower coefficient's precision,
    as a polynomial over ``exact`` known to _LIFT_DIGITS more digits."""
    p = exact.p
    lift = []
    for c in g[:-1]:
        base = c.prec if c.val is None else c.val
        lift.append(exact.from_residues(
            base, [r + rng.randrange(p ** _LIFT_DIGITS) * p ** (c.prec - base)
                   for r in c.res], c.prec + _LIFT_DIGITS))
    return lift + [exact.one()]


def _assert_roots_hold_on_lifts(g, roots, field):
    """Each root of g agrees, to every digit it claims, with a K-root of
    each of three seeded random lifts of g.  Every lift of g agrees with g
    at g's precision, so a certified root is within its precision of a
    root of every lift."""
    exact = _lift_field(field.p, field.f)
    rng = random.Random(len(g))
    for _ in range(3):
        lift_roots = [t for t, _ in find_k_roots(_random_lift(g, exact, rng),
                                                 exact)[0]]
        for r, m in roots:
            assert m == 1  # a multiple root splits on a lift
            assert any((exact.coerce(r) - t).is_zero for t in lift_roots)


def _assert_matches_oracle(g, field):
    """The same roots as the digit descent, in the same order, with the same
    valuation and multiplicity, agreeing on the digits both sides claim, and
    a residual of the same degree; each root holds on random lifts of g to
    every digit it claims."""
    want_roots, want_res = oracle.find_k_roots(g, field)
    got_roots, got_res = find_k_roots(g, field)
    assert [(r.val, m) for r, m in got_roots] == \
        [(r.val, m) for r, m in want_roots]
    assert all((a - b).is_zero
               for (a, _), (b, _) in zip(got_roots, want_roots))
    assert len(got_res) == len(want_res)
    _assert_roots_hold_on_lifts(g, got_roots, field)


def _random_matrix(field, rng, d):
    p = field.p
    A = [[field.element([Fraction(rng.randint(-30, 30), rng.choice((1, 1, p)))
                         for _ in range(field.f)]) for _ in range(d)]
         for _ in range(d)]
    if field.f > 1:
        A = mat_mul(A, [[field.sigma(c) for c in row] for row in A])
    return A


@pytest.mark.parametrize("p,f", [(3, 1), (5, 1), (7, 1), (3, 2), (5, 2)])
def test_roots_match_the_digit_descent(p, f):
    # charpolys of seeded modules' linearized Frobenius and of random
    # matrices; at f = 2 only those that the descent finishes in well under
    # a second
    field = UnramifiedField(p, f, 20)
    rng = random.Random(80 + 10 * p + f)
    polys = [charpoly(gen.random_wa_module(field, rng).linearized_frobenius())
             for _ in range(4 if f == 1 else 2)]
    polys += [charpoly(_random_matrix(field, rng, rng.choice((2, 3))))
              for _ in range(12 if f == 1 else 6)]
    for g in polys:
        _assert_matches_oracle(g, field)


def _poly_with_roots(field, roots):
    g = [field.one()]
    for r in roots:
        g = [a - r * b for a, b in zip([field.zero()] + g, g + [field.zero()])]
    return g


def _count_root_searches(monkeypatch):
    """Count the calls of find_k_roots, recursive ones included."""
    calls = []
    original = polyroots.find_k_roots

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(polyroots, "find_k_roots", counting)
    return calls


@pytest.mark.parametrize("root,mult,other",
                         [(2, 3, 7), (3, 4, 8), (5, 2, -10), (25, 2, 3)])
def test_multiple_roots_come_through_the_derivative(monkeypatch, K5, root,
                                                    mult, other):
    # (X - root)^mult (X - other) over Q_5: the search cannot separate the
    # cluster at root, and the roots of the derivatives give it, one more
    # each time than in the derivative
    g = _poly_with_roots(K5, [K5.coerce(root)] * mult + [K5.coerce(other)])
    calls = _count_root_searches(monkeypatch)
    roots, resid = polyroots.find_k_roots(g, K5)
    assert len(calls) == mult  # g, g', ..., the derivative where root is simple
    assert len(roots) == 2 and len(resid) == 1
    for want, m in ((root, mult), (other, 1)):
        assert [m] == [n for r, n in roots if (r - K5.coerce(want)).is_zero]


def test_multiple_root_in_the_extension(K25):
    # (X - t)^2 (X - t - 1) over K(5, 2)
    t = K25.gen()
    g = _poly_with_roots(K25, [t, t, t + K25.one()])
    roots, resid = find_k_roots(g, K25)
    assert len(roots) == 2 and len(resid) == 1
    for want, m in ((t, 2), (t + K25.one(), 1)):
        assert [m] == [n for r, n in roots if (r - want).is_zero]


def test_roots_of_a_polynomial_with_a_zero_coefficient(K5):
    # X^2 - 25: h at valuation 1 scales the tracked zero X coefficient by 5
    g = [K5.coerce(-25), K5.zero(), K5.one()]
    assert g[1].is_zero
    roots, resid = find_k_roots(g, K5)
    assert len(resid) == 1 and [m for _, m in roots] == [1, 1]
    for want in (5, -5):
        assert sum((r - K5.coerce(want)).is_zero for r, _ in roots) == 1


def test_reduction_finds_every_root_of_a_cluster(K5):
    # 6 and 26 agree mod 5; Newton's test already passes at x = 1, and the
    # descent lifts 26 from there and never looks below it
    g = _poly_with_roots(K5, [K5.coerce(6), K5.coerce(26)])
    roots, resid = find_k_roots(g, K5)
    assert sorted(r.lift_fraction() for r, m in roots) == [6, 26]
    assert all(m == 1 for _, m in roots) and len(resid) == 1
    want, want_res = oracle.find_k_roots(g, K5)
    assert [r.lift_fraction() for r, _ in want] == [26] and len(want_res) == 2
    cut = _root_keys(_certified(g, want, K5))
    assert cut == [k for k in _root_keys(roots) if k[2] == cut[0][2]]


def test_root_at_an_exact_start_keeps_the_start_precision(K5):
    # h(2) vanishes at the start point: the lift returns it unchanged, at the
    # working precision, as the FieldElement lift does
    g = _poly_with_roots(K5, [K5.coerce(2), K5.coerce(8), K5.coerce(4)])
    roots, _ = find_k_roots(g, K5)
    assert _root_keys(roots) == \
        _root_keys(_certified(g, oracle.find_k_roots(g, K5)[0], K5))
    by_value = {r.lift_fraction(): r for r, _ in roots}
    assert by_value[2].prec == by_value[4].prec == K5.work_prec


def test_lifted_roots_claim_only_certified_digits():
    # four linear factors over K(5, 2), two of whose roots are 5 apart: the
    # Newton iterates are known to more digits than h(x) vanishes to, and
    # claiming those made the division take a wrong factor and leave a
    # quadratic residual that holds two K-roots.  Each root is returned to
    # the digits that Hensel's lemma certifies and agrees with exactly one
    # true root there
    K = UnramifiedField(5, 2, 20)
    exact = UnramifiedField(5, 2, 20, work_margin=400)
    coords = [[412860343614793449794, 1904542274146758727],
              [412860343614793449799, 1904542274146758727],
              [164367557795751596519, 412567482481731368132],
              [Fraction(579540744084850234751, 5), 74799872083297439207]]
    g = _poly_with_roots(K, [K.element(c) for c in coords])
    true = [exact.element(c) for c in coords]
    roots, resid = find_k_roots(g, K)
    assert len(resid) == 1 and [m for _, m in roots] == [1, 1, 1, 1]
    for r, _ in roots:
        assert sum((exact.coerce(r) - t).is_zero for t in true) == 1
    _assert_roots_hold_on_lifts(g, roots, K)
    # h at valuation -1 is g(y / 5) times 5^4, at valuation 0 g times 5,
    # each scaled exactly
    assert sorted((r.val, r.prec) for r, _ in roots) == \
        [(-1, 42), (0, 33), (0, 33), (0, 33)]


def test_multiplicities_never_exceed_the_newton_polygon():
    # a charpoly over K(3, 2) with one root at each of the valuations -10,
    # -6, -4 and 0, the lower coefficients known to 10-31 digits: with h
    # scaled by p^e exactly, the search finds each root, simple, and the
    # count stays within the polygon
    K = UnramifiedField(3, 2, 20)
    g = [K.from_residues(v, (r, 0), prec) for v, prec, r in (
        (-20, 10, 2684354560000), (-20, 13, 5556189748968323),
        (-16, 20, 11503476736), (-10, 31, 36472996377169034195), (0, 44, 1))]
    assert newton_root_valuations(g) == [-10, -6, -4, 0]
    roots, resid = find_k_roots(g, K)
    assert sorted((r.val, m) for r, m in roots) == \
        [(-10, 1), (-6, 1), (-4, 1), (0, 1)]
    assert len(resid) == 1
    _assert_roots_hold_on_lifts(g, roots, K)
