"""Totally ramified cyclotomic layers K_n = K(mu_{p^n}) over the unramified K.

The layer is presented as K[X]/(Phi_{p^n}(1+X)), so the class of X is the
uniformizer pi_n = zeta_n - 1 and valuations are read off the Eisenstein
Newton polygon: v_p(sum a_j pi^j) = min_j (v_p(a_j) + j/e_n), the minimum
being attained at a unique j because the fractional parts j/e_n are
pairwise distinct.  A series takes its value at pi_n as its remainder
modulo this minimal polynomial, one synthetic division per coordinate
column (``seriesops.cyclotomic_evaluate``); ``pow_rows``, the table of the
powers of X, is the slow oracle that division is tested against.

Elements of K_n are values only, kept as their coordinates a_j over K; the
library does no arithmetic in K_n.  K_n is free over K on 1, pi, ...,
pi^(e_n - 1), so a value lies in K_n (x) W for a K-subspace W exactly when
each coordinate vector lies in W (``analytic._span_margin``).
"""

from fractions import Fraction
from functools import lru_cache
from math import comb

from .errors import PrecisionError

# highest layer index a CyclotomicLayer accepts; the e_n = p^(n-1)(p-1)
# coordinates grow p-fold with each layer
LAYER_CAP = 3


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

    def __init__(self, field, n: int):
        if n < 1:
            raise ValueError("layer index must be >= 1")
        if n > LAYER_CAP:
            raise ValueError(
                f"layer {n} exceeds the cap {LAYER_CAP} "
                f"(e_{n} = {field.p ** (n - 1) * (field.p - 1)} coordinates)")
        self.field = field
        self.p = field.p
        self.n = n
        self.e = field.p ** (n - 1) * (field.p - 1)
        self.minimal_polynomial = list(_cyclotomic_shift_coeffs(field.p, n))
        self._validate_eisenstein()

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
        entries reduced mod ``mod``: the table of powers that
        ``cyclotomic_evaluate``'s synthetic division is checked against."""
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
        return rows


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

    def __repr__(self):
        nz = [(j, c) for j, c in enumerate(self.coords) if not c.is_zero]
        if not nz:
            return f"K_{self.layer.n}(0 + O(p^{self.prec}))"
        parts = ", ".join(f"pi^{j}*({c!r})" for j, c in nz[:3])
        more = "..." if len(nz) > 3 else ""
        return f"K_{self.layer.n}({parts}{more})"

