"""Exact arithmetic in the unramified extension K of Q_p of degree f.

Q_p itself is the field of degree f = 1, and a Q_p scalar inside K is an
element whose coordinates above 0 are zero.  Values carry an absolute
precision exponent: a value is known modulo p^m.  Every ring operation
propagates the correct output precision (minimum for addition,
valuation-adjusted for products and quotients), and a value whose residue
vanishes inside its own window degrades to a tracked zero rather than ever
pretending to be exactly 0.

An element of K is stored on plain integers, like a truncated series: a
valuation, one absolute precision for the whole element, and f residues,
its coordinates in the power basis 1, t, ..., t^{f-1} of a monic defining
polynomial g that is irreducible mod p.  A product is the integer product
of the two coordinate vectors, reduced modulo g and the residue window by
one synthetic division (``intpoly.remainder``).  The Frobenius lift sigma
is computed once at field construction by Hensel iteration from t^p, kept
as the integer matrix of the residues of sigma(t^l), and verified to have
order f.

Only the field knows this layout: a series asks it for ``sigma_columns``
(sigma or sigma^-1 of residue columns, and the image's window) and
``mul_columns`` (products of coordinate columns).  An element's sigma is
``sigma_columns`` on columns of length 1: one window rule for both.
"""

from fractions import Fraction
from itertools import zip_longest
from math import gcd

from .errors import PrecisionError
from . import intpoly


def vp_int(n: int, p: int) -> int:
    """p-adic valuation of a nonzero integer."""
    if n == 0:
        raise ValueError("valuation of 0 is infinite")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def vp_fraction(x, p: int):
    x = Fraction(x)
    if x == 0:
        raise ValueError("valuation of 0 is infinite")
    return vp_int(x.numerator, p) - vp_int(x.denominator, p)


# ----------------------------------------------------------------------
# residue-field polynomial helpers (F_p[X] arithmetic for construction)
# ----------------------------------------------------------------------

def _fp_trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _fp_mul(a, b, p):
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                out[j] = (out[j] + x * y) % p
    return _fp_trim(out)


def _fp_divmod(a, b, p):
    """Quotient and remainder of a by a trimmed nonzero b over F_p."""
    r = _fp_trim([c % p for c in a])
    q = [0] * max(len(r) - len(b) + 1, 0)
    inv = pow(b[-1], -1, p)
    while len(r) >= len(b):
        off = len(r) - len(b)
        q[off] = c = r[-1] * inv % p
        for j, y in enumerate(b, off):
            r[j] = (r[j] - c * y) % p
        _fp_trim(r)
    return q, r


def _fp_powmod(a, n, g, p):
    result = [1]
    base = _fp_divmod(a, g, p)[1]
    while n:
        if n & 1:
            result = _fp_divmod(_fp_mul(result, base, p), g, p)[1]
        base = _fp_divmod(_fp_mul(base, base, p), g, p)[1]
        n >>= 1
    return result


def _fp_gcd(a, b, p):
    a, b = _fp_trim(list(a)), _fp_trim(list(b))
    while b:
        a, b = b, _fp_divmod(a, b, p)[1]
    return a


def _fp_minus_x(a, p):
    """a(X) - X over F_p, trimmed."""
    diff = list(a) + [0] * max(0, 2 - len(a))
    diff[1] = (diff[1] - 1) % p
    return _fp_trim(diff)


def _fp_is_irreducible(g, p):
    f = len(g) - 1
    if f < 1:
        return False
    x = [0, 1]
    # X^(p^f) must reduce to X, and gcd(X^(p^(f/q)) - X, g) = 1 for primes q | f
    if _fp_minus_x(_fp_powmod(x, p ** f, g, p), p):
        return False
    ff = f
    primes = set()
    q = 2
    while q * q <= ff:
        if ff % q == 0:
            primes.add(q)
            while ff % q == 0:
                ff //= q
        q += 1
    if ff > 1:
        primes.add(ff)
    for q in primes:
        diff = _fp_minus_x(_fp_powmod(x, p ** (f // q), g, p), p)
        if not diff:
            return False
        if len(_fp_gcd(g, diff, p)) > 1:
            return False
    return True


def _fp_invmod(a, g, p):
    """Inverse of a modulo (g, p) by extended Euclid over F_p[X]."""
    r0, r1 = list(g), _fp_trim([c % p for c in a])
    s0, s1 = [], [1]
    if not r1:
        raise ZeroDivisionError("zero in residue field")
    while r1:
        q, r = _fp_divmod(r0, r1, p)
        s = [(x - y) % p
             for x, y in zip_longest(s0, _fp_mul(q, s1, p), fillvalue=0)]
        r0, r1 = r1, r
        s0, s1 = s1, _fp_trim(s)
    if len(r0) != 1:
        raise ZeroDivisionError("not invertible in residue field")
    c = pow(r0[0], -1, p)
    return [x * c % p for x in s0]


def find_irreducible(p: int, f: int):
    """Smallest monic degree-f polynomial over Z_p irreducible mod p
    (coefficients lifted to [0, p))."""
    if f == 1:
        return [0, 1]
    # iterate constant-first lexicographic over the non-leading coefficients
    count = p ** f
    for code in range(count):
        coeffs = []
        c = code
        for _ in range(f):
            coeffs.append(c % p)
            c //= p
        g = coeffs + [1]
        if _fp_is_irreducible(g, p):
            return g
    raise RuntimeError("no irreducible polynomial found (unreachable)")


# ----------------------------------------------------------------------
# the unramified field K
# ----------------------------------------------------------------------

class FieldElement:
    """Element p^val * sum_l res[l] t^l of K, known modulo p^prec.

    ``res`` holds one integer per power of t, each in [0, p^(prec - val))
    and not all divisible by p; the tracked zero has val None and all
    residues 0.
    """

    __slots__ = ("field", "val", "prec", "res")

    def __init__(self, field, val, prec, res):
        self.field = field
        self.val = val
        self.prec = prec
        self.res = res

    @property
    def is_zero(self):
        return self.val is None

    def valuation_or_none(self):
        return self.val

    def valuation(self):
        if self.val is None:
            raise PrecisionError(
                f"indistinguishable from zero at O(p^{self.prec})")
        return self.val

    def coordinate(self, l):
        """Coordinate l (the coefficient of t^l) as a Q_p scalar of K."""
        field = self.field
        if self.val is None:
            return self
        return field.from_residues(self.val, (self.res[l],) + field._zeros[1:],
                                   self.prec)

    def lift_fraction(self):
        """Canonical rational lift p^val * res[0] of a Q_p scalar."""
        if any(self.res[1:]):
            raise ValueError("not a Q_p scalar")
        if self.val is None:
            return Fraction(0)
        return Fraction(self.res[0]) * Fraction(self.field.p) ** self.val

    def _add(self, other, sign):
        field = self.field
        if not isinstance(other, FieldElement):
            other = field.coerce(other)
        prec = min(self.prec, other.prec)
        va, vb = self.val, other.val
        base = prec
        if va is not None and va < base:
            base = va
        if vb is not None and vb < base:
            base = vb
        p = field.p
        ma = 0 if va is None else p ** (va - base)
        mb = 0 if vb is None else sign * p ** (vb - base)
        return field.from_residues(
            base, [x * ma + y * mb for x, y in zip(self.res, other.res)], prec)

    def __add__(self, other):
        return self._add(other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        return self._add(other, -1)

    def __rsub__(self, other):
        return self.field.coerce(other) - self

    def __neg__(self):
        if self.val is None:
            return self
        mod = self.field.p ** (self.prec - self.val)
        return FieldElement(self.field, self.val, self.prec,
                            tuple(-r % mod for r in self.res))

    def __mul__(self, other):
        field = self.field
        if not isinstance(other, FieldElement):
            other = field.coerce(other)
        va, vb = self.val, other.val
        if va is None or vb is None:
            # p^a O_K * p^b O_K lands in p^(a+b) O_K
            return FieldElement(field, None, (self.prec if va is None else va)
                                + (other.prec if vb is None else vb), field._zeros)
        # a product of units is a unit: no common power of p to strip
        rel = min(self.prec - va, other.prec - vb)
        mod = field.p ** rel
        if field.f == 1:
            res = (self.res[0] * other.res[0] % mod,)
        else:
            res = field._mul_res(self.res, other.res, mod)
        return FieldElement(field, va + vb, va + vb + rel, res)

    __rmul__ = __mul__

    def __truediv__(self, other):
        field = self.field
        if isinstance(other, FieldElement):
            return self * field.inverse(other)
        # an int or Fraction divides coordinate-wise
        s = field.coerce(other)
        if s.val is None:
            raise PrecisionError(
                f"division by a value indistinguishable from zero at O(p^{s.prec})")
        if self.val is None:
            return FieldElement(field, None, self.prec - s.val, self.res)
        rel = min(self.prec - self.val, s.prec - s.val)
        mod = field.p ** rel
        u = pow(s.res[0], -1, mod)
        val = self.val - s.val
        return FieldElement(field, val, val + rel,
                            tuple(r * u % mod for r in self.res))

    def inverse(self):
        return self.field.inverse(self)

    def __repr__(self):
        p = self.field.p
        parts = []
        for l in range(self.field.f):
            c = self.coordinate(l)
            parts.append(f"O({p}^{c.prec})" if c.val is None else
                         f"{p}^{c.val}*{c.res[0]} + O({p}^{c.prec})")
        return "K(" + ", ".join(parts) + ")"


PRECISION = 20    # absolute precision m of a field by default
GUARD = 4         # digits a verdict must clear above the precision floor
WORK_MARGIN = 24  # digits a field works above its precision by default


class UnramifiedField:
    """The degree-f unramified extension of Q_p with its Frobenius lift.

    Internal computations run at a working precision a little above the
    user-facing one so that derived verdicts keep their guard digits.
    ``guard`` is that band: every verdict over the field (a pivot, a rank,
    a Newton polygon vertex) raises PrecisionError rather than decide an
    entry whose valuation lies within ``guard`` digits of its own
    precision.
    """

    def __init__(self, p, f=1, precision=PRECISION, defpoly=None,
                 work_margin=WORK_MARGIN, guard=GUARD):
        self.p = p
        self.f = f
        self.prec = precision
        self.guard = guard
        # WORK_MARGIN covers the untracked losses of the linear algebra; a
        # division by log(1+x) at degree N spends N // (p - 1) digits, so
        # series callers budget their own (suites.division_margin)
        self.work_prec = precision + work_margin
        if defpoly is None:
            defpoly = find_irreducible(p, f)
        defpoly = [int(c) for c in defpoly]
        if len(defpoly) != f + 1 or defpoly[-1] != 1:
            raise ValueError("defining polynomial must be monic of degree f")
        if f > 1 and not _fp_is_irreducible([c % p for c in defpoly], p):
            raise ValueError("defining polynomial is not irreducible mod p")
        self.defpoly = defpoly
        self._zeros = (0,) * f
        if f > 1:
            # row l: residues of sigma(t^l) (resp. sigma^-1(t^l)), known
            # modulo p^_sigma_prec; sigma^-1 = sigma^(f-1)
            frob = self._hensel_frobenius()
            self._sigma_prec = frob.prec
            self._sigma_rows = self._power_rows(frob)
            inv = frob
            for _ in range(f - 2):
                inv = self.sigma(inv)
            self._sigma_inv_rows = self._power_rows(inv)
            self._check_order()

    # -- scalars -------------------------------------------------------

    def compatible(self, other) -> bool:
        """Structural equality: same prime, degree and defining polynomial."""
        return (self.p, self.f, self.defpoly) == \
            (other.p, other.f, other.defpoly)

    def scalar(self, x, prec=None):
        """The rational x as a Q_p scalar of K, known modulo p^prec."""
        if prec is None:
            prec = self.work_prec
        x = Fraction(x)
        p = self.p
        vd = vp_int(x.denominator, p)
        if prec + vd <= 0:
            return FieldElement(self, None, prec, self._zeros)
        u = pow(x.denominator // p ** vd, -1, p ** (prec + vd))
        return self.from_residues(
            -vd, (x.numerator * u,) + self._zeros[1:], prec)

    def coerce(self, x):
        if isinstance(x, FieldElement):
            if x.field is not self:
                if not self.compatible(x.field):
                    raise ValueError("mixed fields")
                return FieldElement(self, x.val, x.prec, x.res)
            return x
        if isinstance(x, int):
            return self.from_residues(0, (x,) + self._zeros[1:], self.work_prec)
        return self.scalar(x)

    def from_residues(self, base, residues, prec):
        """The element p^base * sum_l residues[l] t^l known modulo p^prec."""
        rel = prec - base
        if rel <= 0:
            return FieldElement(self, None, prec, self._zeros)
        p = self.p
        mod = p ** rel
        res = [r % mod for r in residues]
        g = gcd(*res)
        if g == 0:
            return FieldElement(self, None, prec, self._zeros)
        if g % p == 0:
            v = vp_int(g, p)
            q = p ** v
            res = [r // q for r in res]
            base += v
        return FieldElement(self, base, prec, tuple(res))

    def element(self, coords, prec=None):
        """sum_l coords[l] t^l for int, Fraction or Q_p scalar coordinates,
        known to the least precision among them."""
        if prec is None:
            prec = self.work_prec
        if len(coords) != self.f:
            raise ValueError(f"expected {self.f} coordinates")
        if all(isinstance(c, int) for c in coords):
            return self.from_residues(0, coords, prec)
        scal = [c if isinstance(c, FieldElement) else self.scalar(c, prec)
                for c in coords]
        if any(any(c.res[1:]) for c in scal):
            raise ValueError("coordinates must be Q_p scalars")
        prec = min(c.prec for c in scal)
        base = min((c.val for c in scal if c.val is not None), default=prec)
        p = self.p
        return self.from_residues(
            base, [0 if c.val is None else c.res[0] * p ** (c.val - base)
                   for c in scal], prec)

    def zero(self, prec=None):
        return FieldElement(self, None, self.work_prec if prec is None
                            else prec, self._zeros)

    def one(self, prec=None):
        return self.element([1] + [0] * (self.f - 1), prec)

    def gen(self, prec=None):
        if self.f == 1:
            return self.zero(prec)
        return self.element([0, 1] + [0] * (self.f - 2), prec)

    # -- construction internals ----------------------------------------

    def _power_rows(self, a):
        """Residues of 1, a, ..., a^(f-1) for a unit a, at base 0."""
        rows = [(1,) + self._zeros[1:]]
        power = self.one()
        for _ in range(self.f - 1):
            power = power * a
            rows.append(power.res)
        return rows

    def _eval_int_poly(self, coeffs, x):
        """Evaluate an integer-coefficient polynomial at a FieldElement."""
        acc = self.scalar(coeffs[-1], x.prec)
        for c in reversed(coeffs[:-1]):
            acc = acc * x + self.scalar(c, x.prec)
        return acc

    def _hensel_frobenius(self):
        """Root of the defining polynomial congruent to t^p mod p."""
        x = self._power_of_gen(self.p)
        dpoly = [i * c for i, c in enumerate(self.defpoly)][1:]
        for _ in range(64):
            gx = self._eval_int_poly(self.defpoly, x)
            if gx.is_zero:
                return x
            x = x - gx * self.inverse(self._eval_int_poly(dpoly, x))
        raise PrecisionError("Frobenius Hensel lift did not converge")

    def _power_of_gen(self, k):
        t = self.gen()
        out = self.one()
        for _ in range(k):
            out = out * t
        return out

    def _check_order(self):
        x = self.gen()
        y = x
        for _ in range(self.f):
            y = self.sigma(y)
        if not (y - x).is_zero:
            raise PrecisionError("sigma^f != id at working precision")
        # frobenius image must reduce to t^p mod p
        diff = self.sigma(x) - self._power_of_gen(self.p)
        v = diff.valuation_or_none()
        if v is not None and v < 1:
            raise ValueError("Frobenius image does not reduce to t^p mod p")

    # -- field operations ------------------------------------------------

    def _mul_res(self, a, b, mod):
        """Residues of (sum a_l t^l)(sum b_l t^l) in the power basis."""
        f = self.f
        raw = [0] * (2 * f - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b, i):
                    raw[j] += x * y
        return tuple(intpoly.remainder(raw, self.defpoly[:f], mod))

    def inverse(self, a):
        v = a.valuation()
        p = self.p
        # every relative digit of a survives: val -v, prec a.prec - 2v
        rel = a.prec - v
        if self.f == 1:
            return FieldElement(self, -v, rel - v,
                                (pow(a.res[0], -1, p ** rel),))
        x = _fp_invmod(a.res, self.defpoly, p)
        x = tuple(x) + self._zeros[len(x):]
        # Newton: x <- x(2 - a x), doubling the correct digits each pass
        good = 1
        while good < rel:
            good = min(2 * good, rel)
            mod = p ** good
            e = self._mul_res(a.res, x, mod)
            x = self._mul_res(x, ((2 - e[0]) % mod,)
                              + tuple(-c % mod for c in e[1:]), mod)
        return FieldElement(self, -v, rel - v, x)

    def sigma_columns(self, cols, rel, inverse=False):
        """(sigma, or sigma^-1, of residue columns known in the relative
        window rel; the window of the image).  Column l holds coordinate l.
        Row 0 of the map is exact and rows 1..f-1 are known to _sigma_prec
        digits, so the window is capped at _sigma_prec plus the least
        valuation in columns 1..f-1."""
        if self.f == 1:
            return cols, rel
        g = gcd(*(r for col in cols[1:] for r in col))
        if g:
            rel = min(rel, self._sigma_prec + vp_int(g, self.p))
        mod = self.p ** rel
        rows = self._sigma_inv_rows if inverse else self._sigma_rows
        out = []
        for m in range(self.f):
            acc = [0] * len(cols[0])
            for row, col in zip(rows, cols):
                s = row[m] % mod
                if s:
                    acc = [(a + s * c) % mod for a, c in zip(acc, col)]
            out.append(acc)
        return out, rel

    def mul_columns(self, a, b, mod, out_len):
        """The first out_len terms, mod ``mod``, of the product of two lists
        of coordinate columns: one ``intpoly.polymul`` per pair of
        coordinates, then the 2f - 1 raw columns reduced modulo g."""
        if self.f == 1:
            return [intpoly.polymul(a[0], b[0], mod, out_len)]
        f = self.f
        raw = [[0] * out_len for _ in range(2 * f - 1)]
        for l, ca in enumerate(a):
            for k, cb in enumerate(b, l):
                pm = intpoly.polymul(ca, cb, mod, out_len)
                raw[k] = [x + y for x, y in zip(raw[k], pm)]
        for k in range(2 * f - 2, f - 1, -1):
            for j, c in enumerate(self.defpoly[:f], k - f):
                raw[j] = [x - c * y for x, y in zip(raw[j], raw[k])]
        return [[x % mod for x in col] for col in raw[:f]]

    def _sigma_element(self, a, inverse):
        """sigma or sigma^-1 of an element, as columns of length 1."""
        if a.val is None:
            return a
        cols, rel = self.sigma_columns([[r] for r in a.res], a.prec - a.val,
                                       inverse)
        return FieldElement(self, a.val, a.val + rel, tuple(c for c, in cols))

    def sigma(self, a):
        """The Frobenius lift: the automorphism of K lifting x -> x^p on the
        residue field, applied coefficient-wise via sigma(t)."""
        return a if self.f == 1 else self._sigma_element(a, False)

    def sigma_inv(self, a):
        return a if self.f == 1 else self._sigma_element(a, True)

    def __repr__(self):
        return f"UnramifiedField(p={self.p}, f={self.f})"

