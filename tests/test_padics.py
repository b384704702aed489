"""Scalar and unramified-field arithmetic against exact rational oracles."""

import random
from fractions import Fraction

import pytest

from padic_hodge.padics import (PadicScalar, UnramifiedField, frobenius_sigma,
                                vp_fraction)
from padic_hodge.errors import PrecisionError


def scal(x, p=5, prec=20):
    return PadicScalar.from_rational(Fraction(x), p, prec)


def test_rational_roundtrip_valuations():
    cases = [(Fraction(7, 3), 0), (Fraction(50), 2), (Fraction(1, 25), -2),
             (Fraction(-15, 2), 1)]
    for x, v in cases:
        s = scal(x)
        assert s.val == v == vp_fraction(x, 5)
        # the stored residue reproduces x modulo p^prec
        assert (s - scal(x)).is_zero


def test_field_ops_match_fraction_oracle():
    rng = random.Random(11)
    for _ in range(200):
        a = Fraction(rng.randint(-400, 400), rng.choice([1, 2, 3, 7, 25]))
        b = Fraction(rng.randint(-400, 400), rng.choice([1, 3, 4, 5, 9]))
        sa, sb = scal(a), scal(b)
        assert (sa + sb - scal(a + b)).is_zero
        assert (sa * sb - scal(a * b)).is_zero
        assert (sa - sb - scal(a - b)).is_zero
        if b != 0:
            assert (sa / sb - scal(a / b)).is_zero


def test_ring_axioms_at_precision():
    rng = random.Random(5)
    for _ in range(100):
        xs = [scal(Fraction(rng.randint(-10 ** 6, 10 ** 6),
                            rng.choice([1, 1, 2, 5, 125])))
              for _ in range(3)]
        a, b, c = xs
        assert ((a + b) + c - (a + (b + c))).is_zero
        assert ((a * b) * c - (a * (b * c))).is_zero
        assert (a * (b + c) - (a * b + a * c)).is_zero


def test_subtraction_cancellation_tracks_zero():
    a = scal(Fraction(7, 3))
    z = a - a
    assert z.is_zero and z.prec == 20
    # division by a tracked zero is refused
    with pytest.raises(PrecisionError):
        a / z


def test_precision_propagation_rules():
    a = scal(25)          # val 2
    b = scal(Fraction(1, 5))  # val -1
    prod = a * b
    # relative precisions 18 and 21; product val 1, rel 18 -> prec 19
    assert prod.val == 1 and prod.prec == 19
    q = b / a
    assert q.val == -3


def test_zero_times_value_precision():
    z = PadicScalar.zero(5, 12)
    a = scal(Fraction(1, 5))
    prod = z * a
    assert prod.is_zero and prod.prec == 11


def test_frobenius_identity_on_qp(K5):
    a = K5.coerce(7)
    assert (frobenius_sigma(a) - a).is_zero


def test_frobenius_lift_and_order(K25):
    t = K25.gen()
    s = frobenius_sigma(t)
    # sigma(t) = t^p mod p: Hensel lift oracle via Newton from t^p
    diff = s - K25._power_of_gen(5)
    assert diff.valuation_or_none() is None or diff.valuation() >= 1
    # sigma^2 = id for f = 2
    assert (frobenius_sigma(s) - t).is_zero


def test_frobenius_is_ring_hom(K25):
    rng = random.Random(3)
    for _ in range(25):
        a = K25.random_element(rng)
        b = K25.random_element(rng)
        assert (frobenius_sigma(a * b) -
                frobenius_sigma(a) * frobenius_sigma(b)).is_zero
        assert (frobenius_sigma(a + b) -
                frobenius_sigma(a) - frobenius_sigma(b)).is_zero


def test_sigma_f_is_identity_random(K25):
    rng = random.Random(4)
    for _ in range(10):
        a = K25.random_element(rng)
        out = frobenius_sigma(frobenius_sigma(a))
        assert (out - a).is_zero


def test_field_inverse_roundtrip(K25):
    rng = random.Random(9)
    for _ in range(20):
        a = K25.random_element(rng)
        if a.valuation_or_none() is None:
            continue
        assert (a * K25.inverse(a) - K25.one()).is_zero


def test_nonirreducible_defpoly_rejected():
    # X^2 - 1 factors mod 5
    with pytest.raises(ValueError):
        UnramifiedField(5, 2, 20, defpoly=[-1, 0, 1])


def test_serialization_digits():
    s = scal(Fraction(7, 3))
    digs = s.digits()
    assert all(0 <= d < 5 for d in digs)
    assert sum(d * 5 ** i for i, d in enumerate(digs)) == s.unit


# -- FieldElement at f = 1 is PadicScalar, bit for bit ---------------------

def _shape(x):
    """(val, prec, residue) of a PadicScalar or a degree-1 FieldElement."""
    if isinstance(x, PadicScalar):
        return (x.val, x.prec, x.unit)
    return (x.val, x.prec, x.res[0])


def _random_scalar(rng, p):
    prec = rng.randint(5, 60)
    if rng.random() < 0.15:
        return PadicScalar.zero(p, prec)
    val = rng.randint(-3, 3)
    if val >= prec:
        return PadicScalar.zero(p, prec)
    unit = rng.randrange(1, p ** (prec - val))
    while unit % p == 0:
        unit = rng.randrange(1, p ** (prec - val))
    return PadicScalar.from_residue(p, val, unit, prec)


def _outcome(fn):
    try:
        return _shape(fn())
    except PrecisionError:
        return "PrecisionError"


@pytest.mark.parametrize("p", [3, 5])
def test_degree_one_element_matches_padic_scalar(p):
    K = UnramifiedField(p, 1, 20, work_margin=15)
    rng = random.Random(100 + p)
    for _ in range(300):
        sa, sb = _random_scalar(rng, p), _random_scalar(rng, p)
        a, b = K.coerce(sa), K.coerce(sb)
        assert _shape(a) == _shape(sa)
        assert _shape(a + b) == _shape(sa + sb)
        assert _shape(a - b) == _shape(sa - sb)
        assert _shape(a * b) == _shape(sa * sb)
        assert _shape(-a) == _shape(-sa)
        # an element quotient multiplies by the inverse, whose 1 is
        # known to the divisor's precision
        assert _outcome(lambda: a.inverse()) == _outcome(lambda: 1 / sa)
        assert _outcome(lambda: a / b) == _outcome(lambda: sa * (1 / sb))
        # int, Fraction and PadicScalar operands; ints and Fractions are
        # known to the working precision, on either side
        n = rng.choice([0, rng.randint(-10 ** 4, 10 ** 4), p ** 3 * 7])
        x = Fraction(rng.randint(-500, 500), rng.choice([1, 2, p, p ** 2, 7 * p]))
        for other in (n, x, sb):
            so = other if isinstance(other, PadicScalar) else \
                PadicScalar.from_rational(other, p, K.work_prec)
            assert _shape(a + other) == _shape(sa + so)
            assert _shape(other + a) == _shape(so + sa)
            assert _shape(a - other) == _shape(sa - so)
            assert _shape(a * other) == _shape(sa * so)
            assert _outcome(lambda: a / other) == _outcome(lambda: sa / so)
        for other in (n, x):
            so = PadicScalar.from_rational(other, p, K.work_prec)
            assert _shape(other - a) == _shape(so - sa)
            assert _shape(other * a) == _shape(so * sa)


# -- f = 2, 3 against exact arithmetic in Q[t]/(g) -------------------------

def _qt_mul(a, b, g):
    """Product in Q[t]/(g) for a monic integer g."""
    f = len(g) - 1
    raw = [Fraction(0)] * (2 * f - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            raw[i + j] += x * y
    for k in range(2 * f - 2, f - 1, -1):
        c = raw[k]
        raw[k] = Fraction(0)
        for i in range(f):
            raw[k - f + i] -= c * g[i]
    return raw[:f]


def _qt_inverse(b, g):
    """Inverse in Q[t]/(g) by solving (b * x) = 1 with exact fractions."""
    f = len(g) - 1
    basis = [[Fraction(int(i == l)) for i in range(f)] for l in range(f)]
    cols = [_qt_mul(b, e, g) for e in basis]
    rows = [[cols[j][i] for j in range(f)] + [Fraction(int(i == 0))]
            for i in range(f)]
    for c in range(f):
        r = next(i for i in range(c, f) if rows[i][c] != 0)
        rows[c], rows[r] = rows[r], rows[c]
        rows[c] = [x / rows[c][c] for x in rows[c]]
        for i in range(f):
            if i != c and rows[i][c] != 0:
                rows[i] = [x - rows[i][c] * y for x, y in zip(rows[i], rows[c])]
    return [rows[i][f] for i in range(f)]


def _agrees(e, coords, p):
    """Does the element equal the rational vector modulo p^e.prec?"""
    for l, q in enumerate(coords):
        own = Fraction(0) if e.is_zero else Fraction(e.res[l]) * Fraction(p) ** e.val
        d = q - own
        if d != 0 and vp_fraction(d, p) < e.prec:
            return False
    return True


def _rational_vector(rng, p, f):
    return [Fraction(rng.randint(-p ** 6, p ** 6),
                     rng.choice([1, 2, p, p * p, 3 * p + 1])) for _ in range(f)]


@pytest.mark.parametrize("p,f", [(3, 2), (3, 3), (5, 2), (5, 3), (7, 2), (7, 3)])
def test_extension_arithmetic_matches_rational_oracle(p, f):
    K = UnramifiedField(p, f, 20)
    g = K.defpoly
    rng = random.Random(10 * p + f)
    for _ in range(25):
        qa, qb = _rational_vector(rng, p, f), _rational_vector(rng, p, f)
        if not any(qb):
            continue
        a, b = K.element(qa, prec=30), K.element(qb, prec=25)
        assert _agrees(a, qa, p) and _agrees(b, qb, p)
        prod = a * b
        assert prod.prec == a.val + b.val + min(a.prec - a.val, b.prec - b.val)
        assert _agrees(prod, _qt_mul(qa, qb, g), p)
        inv = b.inverse()
        assert (inv.val, inv.prec) == (-b.val, b.prec - 2 * b.val)
        assert _agrees(inv, _qt_inverse(qb, g), p)
        quo = a / b
        assert _agrees(quo, _qt_mul(qa, _qt_inverse(qb, g), g), p)
        assert quo.prec >= min(a.prec - b.val, a.val + b.prec - 2 * b.val)
        assert (a - a).is_zero and (a - a).prec == 30


@pytest.mark.parametrize("p,f", [(3, 2), (3, 3), (5, 2), (5, 3), (7, 2), (7, 3)])
def test_extension_sigma_matches_rational_oracle(p, f):
    K = UnramifiedField(p, f, 20)
    g = K.defpoly
    s = K.sigma(K.gen())
    # sigma(t) is the root of g that reduces to t^p mod p
    st = [Fraction(r) * Fraction(p) ** s.val for r in s.res]
    acc = [Fraction(0)] * f
    for c in reversed(g):
        acc = _qt_mul(acc, st, g)
        acc[0] += c
    assert all(vp_fraction(c, p) >= K.work_prec for c in acc if c)
    tp = [Fraction(int(i == 0)) for i in range(f)]
    t = [Fraction(int(i == 1)) for i in range(f)]
    for _ in range(p):
        tp = _qt_mul(tp, t, g)
    assert all(vp_fraction(x - y, p) >= 1 for x, y in zip(st, tp) if x != y)
    rng = random.Random(20 * p + f)
    for _ in range(15):
        qa, qb = _rational_vector(rng, p, f), _rational_vector(rng, p, f)
        a, b = K.element(qa, prec=30), K.element(qb, prec=25)
        # sigma(a) = sum a_l sigma(t)^l, evaluated exactly
        image = [Fraction(0)] * f
        power = [Fraction(int(i == 0)) for i in range(f)]
        for c in qa:
            image = [x + c * y for x, y in zip(image, power)]
            power = _qt_mul(power, st, g)
        sa = K.sigma(a)
        assert (sa.val, sa.prec) == (a.val, a.prec) and _agrees(sa, image, p)
        assert (K.sigma(a, f) - a).is_zero
        assert (K.sigma_inv(sa) - a).is_zero
        assert (K.sigma(a * b) - K.sigma(a) * K.sigma(b)).is_zero
        assert (K.sigma(a + b) - K.sigma(a) - K.sigma(b)).is_zero


def test_tracked_zero_products_and_inverse():
    for f in (1, 2):
        K = UnramifiedField(5, f, 20)
        z = K.zero(12)
        a = K.coerce(Fraction(1, 5))
        prod = z * a
        assert prod.is_zero and prod.prec == 11 and prod.res == (0,) * f
        with pytest.raises(PrecisionError):
            z.inverse()
        with pytest.raises(PrecisionError):
            a / z
