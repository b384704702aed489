"""Scalar and unramified-field arithmetic against exact rational oracles."""

import random
from fractions import Fraction

import pytest

from padic_hodge.padics import UnramifiedField, frobenius_sigma, vp_fraction
from padic_hodge.polyroots import poly_eval
from padic_hodge.errors import PrecisionError
from padic_hodge import serialize as ser

from helpers import random_element

Q5 = UnramifiedField(5, 1, 20)


def scal(x, prec=20):
    return Q5.scalar(Fraction(x), prec)


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
    z = Q5.zero(12)
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
        a = random_element(K25, rng)
        b = random_element(K25, rng)
        assert (frobenius_sigma(a * b) -
                frobenius_sigma(a) * frobenius_sigma(b)).is_zero
        assert (frobenius_sigma(a + b) -
                frobenius_sigma(a) - frobenius_sigma(b)).is_zero


def test_sigma_f_is_identity_random(K25):
    rng = random.Random(4)
    for _ in range(10):
        a = random_element(K25, rng)
        out = frobenius_sigma(frobenius_sigma(a))
        assert (out - a).is_zero


def test_field_inverse_roundtrip(K25):
    rng = random.Random(9)
    for _ in range(20):
        a = random_element(K25, rng)
        if a.valuation_or_none() is None:
            continue
        assert (a * K25.inverse(a) - K25.one()).is_zero


def test_nonirreducible_defpoly_rejected():
    # X^2 - 1 factors mod 5
    with pytest.raises(ValueError):
        UnramifiedField(5, 2, 20, defpoly=[-1, 0, 1])


def test_serialization_digits():
    s = scal(Fraction(7, 3))
    digs = [int(d) for d in ser.scalar_to_json(s)["unit"]]
    assert len(digs) == s.prec - s.val
    assert all(0 <= d < 5 for d in digs)
    assert sum(d * 5 ** i for i, d in enumerate(digs)) == s.res[0]


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


def _lift(e, p):
    """The rational vector p^val * res an element stands for."""
    if e.is_zero:
        return [Fraction(0)] * len(e.res)
    return [Fraction(r) * Fraction(p) ** e.val for r in e.res]


def _canonical(e, coords, prec, p):
    """Is e the element the rational vector gives modulo p^prec: known to
    prec, the tracked zero when every coordinate lies in p^prec, else the
    true valuation with residues in [0, p^(prec - val))?"""
    v = min((vp_fraction(c, p) for c in coords if c), default=prec)
    if v >= prec:
        return (e.val, e.prec) == (None, prec) and not any(e.res)
    return ((e.val, e.prec) == (v, prec) and _agrees(e, coords, p)
            and all(0 <= r < p ** (prec - v) for r in e.res))


def _mul_prec(a, b):
    """Precision of a product from the operands' (val, prec); a tracked zero
    counts its precision: p^a O_K * p^b O_K lands in p^(a+b) O_K."""
    (va, pa), (vb, pb) = a, b
    if va is None or vb is None:
        return (pa if va is None else va) + (pb if vb is None else vb)
    return va + vb + min(pa - va, pb - vb)


@pytest.mark.parametrize("p,f", [(3, 1), (5, 1), (3, 2), (3, 3), (5, 2),
                                 (5, 3), (7, 2), (7, 3)])
def test_extension_arithmetic_matches_rational_oracle(p, f):
    """Each operation against exact arithmetic in Q[t]/(g), with its
    precision rule written out.  The inverse of an element of valuation v
    has val -v and keeps every relative digit (prec - 2v), at every f.  Int
    and Fraction operands are known to work_prec, and a division by one is
    coordinate-wise."""
    K = UnramifiedField(p, f, 20)
    g, W = K.defpoly, K.work_prec
    rng = random.Random(10 * p + f)
    orng = random.Random(1000 + 10 * p + f)
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
        # the same rules, bit for bit, over operands of low precision and
        # tracked zeros
        cp = orng.choice([1, 3, 25, 60])
        c, d = K.element(qb, prec=cp), K.element(qa, prec=60)
        assert _canonical(c, qb, cp, p) and _canonical(d, qa, 60, p)
        for x, y in ((a, b), (b, a), (a, c), (c, a), (d, c), (c, d),
                     (a - a, b), (b, a - a), (c - c, a)):
            lx, ly = _lift(x, p), _lift(y, p)
            vx, vy = (x.val, x.prec), (y.val, y.prec)
            prec = min(x.prec, y.prec)
            assert _canonical(x, lx, x.prec, p)
            assert _canonical(x + y, [s + t for s, t in zip(lx, ly)], prec, p)
            assert _canonical(x - y, [s - t for s, t in zip(lx, ly)], prec, p)
            assert _canonical(-x, [-s for s in lx], x.prec, p)
            assert _canonical(x * y, _qt_mul(lx, ly, g), _mul_prec(vx, vy), p)
            if y.is_zero:
                with pytest.raises(PrecisionError):
                    y.inverse()
                with pytest.raises(PrecisionError):
                    x / y
                continue
            v = y.val
            rel = y.prec - v
            iy = y.inverse()
            assert _canonical(iy, _qt_inverse(ly, g), rel - v, p)
            assert _canonical(x / y, _qt_mul(lx, _qt_inverse(ly, g), g),
                              _mul_prec(vx, (iy.val, iy.prec)), p)
        n = orng.choice([0, orng.randint(-10 ** 4, 10 ** 4), p ** 3 * 7])
        r = Fraction(orng.randint(-500, 500),
                     orng.choice([1, 2, p, p ** 2, 7 * p]))
        for x in (a, c, d, a - a):
            lx, vx = _lift(x, p), (x.val, x.prec)
            for q in (n, r):
                e = [Fraction(q)] + [Fraction(0)] * (f - 1)
                vq = (vp_fraction(q, p) if q else None, W)
                prec = min(x.prec, W)
                plus = [s + t for s, t in zip(lx, e)]
                minus = [s - t for s, t in zip(lx, e)]
                assert _canonical(x + q, plus, prec, p)
                assert _canonical(q + x, plus, prec, p)
                assert _canonical(x - q, minus, prec, p)
                assert _canonical(q - x, [-s for s in minus], prec, p)
                times = _qt_mul(lx, e, g)
                assert _canonical(x * q, times, _mul_prec(vx, vq), p)
                assert _canonical(q * x, times, _mul_prec(vx, vq), p)
                if not q:
                    with pytest.raises(PrecisionError):
                        x / q
                    continue
                vq = vq[0]
                qprec = x.prec - vq if x.is_zero else \
                    x.val - vq + min(x.prec - x.val, W - vq)
                assert _canonical(x / q, [s / q for s in lx], qprec, p)


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
    # one window rule: row 0 of sigma is exact and rows 1..f-1 are known to
    # _sigma_prec digits (44 here), so a Q_p scalar keeps its window
    # (1/p at prec 44, 1 at prec 62) and t at prec 62 is capped
    P = K._sigma_prec + 18
    for op in (K.sigma, K.sigma_inv):
        assert op(K.scalar(Fraction(1, p))).prec == K.work_prec == 44
        assert op(K.one(P)).prec == P
        assert op(K.gen(P)).prec == K._sigma_prec == 44
    # sigma of elements is the column sigma of their residues, window
    # included: a column of units gets the least of their windows
    units = [K.element([1 + p * rng.randrange(p ** P)]
                       + [rng.randrange(p ** P) * p ** rng.randint(0, 20)
                          for _ in range(f - 1)], prec=P)
             for _ in range(4)]
    for op, inverse in ((K.sigma, False), (K.sigma_inv, True)):
        images = [op(u) for u in units]
        cols, rel = K.sigma_columns(
            [[u.res[l] for u in units] for l in range(f)], P, inverse)
        assert rel == min(s.prec for s in images)
        for i, s in enumerate(images):
            assert s.val == 0 and rel <= s.prec
            assert all((r - col[i]) % p ** rel == 0
                       for r, col in zip(s.res, cols))
        one_col = [K.sigma_columns([[r] for r in u.res], P, inverse)
                   for u in units]
        assert [(tuple(c[0] for c in cols), rel) for cols, rel in one_col] \
            == [(s.res, s.prec) for s in images]


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


@pytest.mark.parametrize("f", [1, 2])
def test_precision_zero_is_not_the_working_precision(f):
    # modulo p^0 nothing is known: each constructor gives a tracked zero at
    # prec 0, not an element known to work_prec
    K = UnramifiedField(5, f, 20)
    made = [K.zero(0), K.one(0), K.gen(0), K.scalar(7, 0),
            K.element([1] + [0] * (f - 1), 0),
            K.element([Fraction(7, 3)] * f, 0),
            random_element(K, random.Random(1), prec=0)]
    for e in made:
        assert (e.val, e.prec) == (None, 0) and not any(e.res)
    x = K.scalar(Fraction(1, 25), 0)
    assert (x.val, x.prec, x.res[0]) == (-2, 0, 1)
    # the empty polynomial is the zero known to the point's precision
    assert poly_eval([], x, K).prec == 0
