"""Totally ramified cyclotomic layers K_n = K(mu_{p^n}) over the unramified K.

The layer is presented as K[X]/(Phi_{p^n}(1+X)), so the class of X is the
uniformizer pi_n = zeta_n - 1 and valuations are read off the Eisenstein
Newton polygon: v_p(sum a_j pi^j) = min_j (v_p(a_j) + j/e_n), the minimum
being attained at a unique j because the fractional parts j/e_n are
pairwise distinct.
"""

from fractions import Fraction
from functools import lru_cache
from math import comb

from .errors import PrecisionError
from .linalg import RingOps, solve, mat_transpose
from .padics import FieldElement


@lru_cache(maxsize=None)
def _cyclotomic_shift_coeffs(p: int, n: int):
    """Exact integer coefficients of Phi_{p^n}(1+X) = sum_i (1+X)^(i*p^(n-1))."""
    e = p ** (n - 1) * (p - 1)
    coeffs = [0] * (e + 1)
    for i in range(p):
        k = i * p ** (n - 1)
        for j in range(min(k, e) + 1):
            coeffs[j] += comb(k, j)
    return tuple(coeffs)


class CyclotomicLayer:
    """Layer index n, with ramification index e_n = p^(n-1)(p-1)."""

    def __init__(self, field, n: int, cap: int = 3):
        if n < 1:
            raise ValueError("layer index must be >= 1")
        if n > cap:
            raise ValueError(
                f"layer {n} exceeds the configured cap {cap} "
                f"(e_{n} = {field.p ** (n - 1) * (field.p - 1)} coordinates)")
        self.field = field
        self.p = field.p
        self.n = n
        self.e = field.p ** (n - 1) * (field.p - 1)
        self.minimal_polynomial = list(_cyclotomic_shift_coeffs(field.p, n))
        self._validate_eisenstein()
        self._pow_rows_cache = {}

    def _validate_eisenstein(self):
        mp = self.minimal_polynomial
        p = self.p
        if mp[-1] != 1 or mp[0] != p:
            raise ValueError("layer minimal polynomial is not Eisenstein")
        for c in mp[:-1]:
            if c % p != 0:
                raise ValueError("layer minimal polynomial is not Eisenstein")

    def pow_rows(self, max_deg: int, mod: int):
        """Integer rows of x^i mod the minimal polynomial, i = 0..max_deg,
        entries reduced mod ``mod``."""
        key = (max_deg, mod)
        hit = self._pow_rows_cache.get(key)
        if hit is not None:
            return hit
        e = self.e
        rows = [[0] * e for _ in range(max_deg + 1)]
        rows[0][0] = 1
        mp = self.minimal_polynomial
        for i in range(1, max_deg + 1):
            prev = rows[i - 1]
            top = prev[e - 1]
            row = [0] + prev[:-1]
            if top:
                for j in range(e):
                    row[j] = (row[j] - top * mp[j]) % mod
            else:
                row = [c % mod for c in row]
            rows[i] = row
        self._pow_rows_cache[key] = rows
        return rows

    # -- elements -------------------------------------------------------

    def element(self, coords):
        out = [self.field.coerce(c) for c in coords]
        if len(out) != self.e:
            raise ValueError(f"expected {self.e} coordinates")
        return CyclotomicElement(self, out)

    def zero(self, prec=None):
        return CyclotomicElement(self, [self.field.zero(prec)] * self.e)

    def one(self, prec=None):
        z = self.field.zero(prec)
        return CyclotomicElement(self, [self.field.one(prec)] + [z] * (self.e - 1))

    def uniformizer(self, prec=None):
        z = self.field.zero(prec)
        o = self.field.one(prec)
        coords = [z, o] + [z] * (self.e - 2)
        return CyclotomicElement(self, coords)

    def from_field(self, a):
        a = self.field.coerce(a)
        z = self.field.zero(a.prec)
        return CyclotomicElement(self, [a] + [z] * (self.e - 1))

    def ops(self, guard=4):
        return RingOps(self.zero, self.one, guard)


class CyclotomicElement:
    """Element of K_n as a coordinate vector in powers of pi_n over K."""

    __slots__ = ("layer", "coords")

    def __init__(self, layer, coords):
        self.layer = layer
        self.coords = tuple(coords)

    @property
    def is_zero(self):
        return all(c.is_zero for c in self.coords)

    @property
    def prec(self):
        return min(c.prec for c in self.coords)

    def valuation_or_none(self):
        e = self.layer.e
        best = None
        for j, c in enumerate(self.coords):
            v = c.valuation_or_none()
            if v is None:
                continue
            cand = Fraction(v) + Fraction(j, e)
            if best is None or cand < best:
                best = cand
        return best

    def valuation(self):
        v = self.valuation_or_none()
        if v is None:
            raise PrecisionError(
                f"indistinguishable from zero at O(p^{self.prec})")
        return v

    def __add__(self, other):
        return CyclotomicElement(self.layer,
                                 [a + b for a, b in zip(self.coords, other.coords)])

    def __neg__(self):
        return CyclotomicElement(self.layer, [-a for a in self.coords])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        layer = self.layer
        if isinstance(other, (int, FieldElement)):
            return CyclotomicElement(layer, [c * other for c in self.coords])
        e = layer.e
        raw = [None] * (2 * e - 1)
        for k in range(2 * e - 1):
            acc = None
            lo = max(0, k - e + 1)
            for i in range(lo, min(k, e - 1) + 1):
                a, b = self.coords[i], other.coords[k - i]
                if a.is_zero and b.is_zero:
                    continue
                term = a * b
                acc = term if acc is None else acc + term
            raw[k] = acc
        zero = layer.field.zero()
        coords = [(c if c is not None else zero) for c in raw[:e]]
        mod = layer.p ** (layer.field.work_prec + 8)
        rows = layer.pow_rows(2 * e - 2, mod)
        for k in range(e, 2 * e - 1):
            if raw[k] is None:
                continue
            row = rows[k]
            for i in range(e):
                if row[i]:
                    coords[i] = coords[i] + raw[k] * _signed(row[i], mod)
        return CyclotomicElement(layer, coords)

    __rmul__ = __mul__

    def mul_by_pi(self):
        """Multiplication by the uniformizer: a shift plus one reduction row."""
        layer = self.layer
        e = layer.e
        top = self.coords[e - 1]
        coords = [layer.field.zero(self.prec)] + list(self.coords[:-1])
        if not top.is_zero:
            mp = layer.minimal_polynomial
            for i in range(e):
                if mp[i]:
                    coords[i] = coords[i] - top * mp[i]
        return CyclotomicElement(layer, coords)

    def __truediv__(self, other):
        return self * invert(other)

    def inverse(self):
        return invert(self)

    def equals(self, other):
        return (self - other).is_zero

    def __repr__(self):
        nz = [(j, c) for j, c in enumerate(self.coords) if not c.is_zero]
        if not nz:
            return f"K_{self.layer.n}(0 + O(p^{self.prec}))"
        parts = ", ".join(f"pi^{j}*({c!r})" for j, c in nz[:3])
        more = "..." if len(nz) > 3 else ""
        return f"K_{self.layer.n}({parts}{more})"


def _signed(c, mod):
    """Lift a residue to the symmetric range for hand-off to exact scalars."""
    return c - mod if c > mod // 2 else c


def invert(a: CyclotomicElement) -> CyclotomicElement:
    """Inverse via the K-linear multiplication matrix (dimension e_n)."""
    layer = a.layer
    if a.is_zero:
        raise PrecisionError(
            f"division by a value indistinguishable from zero at O(p^{a.prec})")
    e = layer.e
    # columns: coordinates of a * pi^j (each step is a shift + one reduction)
    cols = []
    prod = a
    for j in range(e):
        cols.append(list(prod.coords))
        if j < e - 1:
            prod = prod.mul_by_pi()
    A = mat_transpose(cols)
    field = layer.field
    ops = RingOps(field.zero, field.one)
    rhs = [field.one()] + [field.zero()] * (e - 1)
    x, resid = solve(A, rhs, ops)
    if x is None:
        raise PrecisionError("inversion system inconsistent at precision")
    return CyclotomicElement(layer, x)


def cyclo_valuation(a: CyclotomicElement) -> Fraction:
    """v_p of a nonzero element, an exact rational with denominator | e_n."""
    return a.valuation()
