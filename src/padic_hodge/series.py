"""Truncated power series over K with exact residue arithmetic.

A series is a coefficient vector a_0..a_N over K stored as f parallel
integer residue vectors: coefficient i equals p^shift * (sum_l coords[l][i]
t^l) and is known modulo p^(shift+rel).  Precision is tracked per series
(the uniform window of its coefficients); every ring operation propagates
the correct output precision using the minimum coefficient valuation of the
other factor.  A product works in the window of its operands' live digits:
each operand gives up the low digits that are zero in all its residues
before the residues multiply, so a series whose shift lies below its least
valuation (a quotient by log(1+x), say) costs no more than its normalized
form.  Series code reaches K's coordinates only through the field's
``mul_columns`` (products) and ``sigma_columns`` (sigma for phi and psi,
with the field's one window rule).

Tail knowledge takes one of three forms:

* ``tail_zero`` -- the series is an exact polynomial;
* a profile bound (b, s, h) certifying v_p(a_i) >= -b - s*floor(log_p(i+h))
  for every i including the untracked tail (s is a log-power budget --
  log(1+x) itself has profile (0, 1, 0) -- and the index shift h absorbs
  differentiation, which moves coefficients down without growing them);
* nothing, in which case any tail-sensitive question raises TailBoundError.

An exact polynomial also keeps its coordinates in the basis (1+x)^k
(``ycoords``), in the same window, where phi, psi and D are index maps.  They
are made by the sign-flipped inverse of ``intpoly.taylor_shift`` per column
the first time an operator asks, or handed over by the operator that made
the series; every other constructor starts without them, and a truncated
series never keeps them.
"""

from fractions import Fraction
import math

from . import intpoly
from .errors import TailBoundError
from .padics import FieldElement

INFINITE = math.inf


def _floor_logp(i: int, p: int) -> int:
    k = 0
    while i >= p:
        i //= p
        k += 1
    return k


class TruncatedSeries:
    __slots__ = ("field", "n", "shift", "rel", "coords", "bound", "tail_zero",
                 "_vmin", "_ycoords", "_by_log")

    def __init__(self, field, n, shift, rel, coords, bound=None, tail_zero=False,
                 ycoords=None):
        self.field = field
        self.n = n
        self.shift = shift
        self.rel = rel
        self.coords = coords
        self.bound = _norm_profile(bound)
        self.tail_zero = tail_zero
        self._vmin = None
        self._ycoords = ycoords
        self._by_log = None   # quotient by log(1+x), kept by divide_by_log

    # -- constructors ---------------------------------------------------

    @staticmethod
    def make(field, coefficients, n=None, bound=None, tail_zero=True, prec=None):
        """Series from a list of coefficients (FieldElement / int / Fraction).

        By default the input is taken to be an exact polynomial.
        """
        coeffs = [c if isinstance(c, FieldElement) else field.coerce(c)
                  for c in coefficients]
        if n is None:
            n = len(coeffs) - 1
        if len(coeffs) < n + 1:
            coeffs = coeffs + [field.zero()] * (n + 1 - len(coeffs))
        coeffs = coeffs[:n + 1]
        prec = prec if prec is not None else min((c.prec for c in coeffs),
                                                 default=field.work_prec)
        vals = [v for c in coeffs for v in [c.valuation_or_none()] if v is not None]
        shift = min([0] + vals)
        rel = prec - shift
        if rel <= 0:
            return TruncatedSeries.zero(field, n, prec=prec,
                                        bound=bound, tail_zero=tail_zero)
        p = field.p
        mod = p ** rel
        cols = [[0] * (n + 1) for _ in range(field.f)]
        for i, c in enumerate(coeffs):
            if c.val is not None:
                m = p ** (c.val - shift)
                for col, r in zip(cols, c.res):
                    col[i] = r * m % mod
        return TruncatedSeries(field, n, shift, rel, cols,
                               bound=_norm_profile(bound), tail_zero=tail_zero)

    @staticmethod
    def zero(field, n, prec=None, bound=None, tail_zero=True):
        prec = prec if prec is not None else field.work_prec
        cols = [[0] * (n + 1) for _ in range(field.f)]
        return TruncatedSeries(field, n, 0, prec, cols,
                               bound=bound, tail_zero=tail_zero)

    @staticmethod
    def one(field, n, prec=None):
        s = TruncatedSeries.zero(field, n, prec=prec)
        s.coords[0][0] = 1
        return s

    # -- basic structure -------------------------------------------------

    @property
    def prec(self):
        return self.shift + self.rel

    @property
    def vmin(self):
        """Certified minimal coefficient valuation, or prec when every
        residue is zero (always so when rel <= 0).

        Every residue lies below p^rel, so gcd(p^rel, residues...) is
        p^(least residue valuation), capped at p^rel for an all-zero series.
        """
        if self._vmin is None:
            if self.rel <= 0:
                self._vmin = self.prec
            else:
                p = self.field.p
                g = math.gcd(p ** self.rel,
                             *(r for col in self.coords for r in col))
                self._vmin = self.shift + round(math.log(g, p))
        return self._vmin

    def ycoords(self):
        """Residue columns of the tracked coefficients in the basis (1+x)^k,
        k = 0..n, in the series' window: f(x - 1) = sum_i (-x)^i sum_k
        C(k, i) (-1)^k f_k, ``intpoly.taylor_shift`` between two sign flips.

        An exact polynomial keeps them (a series is never changed after it
        is made).  A truncated series makes them afresh on every call: they
        are not a truncation of the coordinates of the full series."""
        if self._ycoords is not None:
            return self._ycoords
        mod = self.field.p ** self.rel

        def flip(col):
            return [-c % mod if i % 2 else c for i, c in enumerate(col)]
        ys = [flip(intpoly.taylor_shift(flip(col), mod))
              for col in self.coords]
        if self.tail_zero:
            self._ycoords = ys
        return ys

    @property
    def is_zero(self):
        return all(r == 0 for col in self.coords for r in col)

    def effective_bound(self):
        """Profile (b, s, h) valid for all coefficients including the tail,
        or None when nothing is known about the tail."""
        if self.bound is not None:
            return self.bound
        if self.tail_zero:
            return (Fraction(max(0, -min(self.vmin, 0))), 0, 0)
        return None

    def coeff(self, i) -> FieldElement:
        if i > self.n:
            if self.tail_zero:
                return self.field.zero(self.prec)
            raise IndexError(f"coefficient {i} beyond truncation degree {self.n}")
        return self.field.from_residues(
            self.shift, [col[i] for col in self.coords], self.prec)

    def coefficients(self):
        return [self.coeff(i) for i in range(self.n + 1)]

    def residues(self, shift, rel):
        """Coordinate residue vectors aligned to the given window."""
        p = self.field.p
        mod = p ** rel
        mult = p ** (self.shift - shift)
        return [[r * mult % mod for r in col] for col in self.coords]

    def truncate(self, n_new):
        if n_new >= self.n:
            if self.tail_zero and n_new > self.n:
                cols = [col + [0] * (n_new - self.n) for col in self.coords]
                return TruncatedSeries(self.field, n_new, self.shift, self.rel,
                                       cols, self.bound, True)
            return self
        cols = [col[:n_new + 1] for col in self.coords]
        return TruncatedSeries(self.field, n_new, self.shift, self.rel, cols,
                               self.effective_bound(), False)

    def as_polynomial(self):
        """Reinterpret the tracked coefficients as an exact polynomial,
        dropping any claim about the original series' tail.  Legitimate when
        the caller is constructing a polynomial, not truncating a series."""
        return TruncatedSeries(self.field, self.n, self.shift, self.rel,
                               self.coords, None, True)

    def shift_x(self, k):
        """Multiply by x^k (k >= 0) or divide by x^k (k < 0; low coefficients
        are dropped and must be zero at precision for exact semantics)."""
        if k == 0:
            return self
        if k > 0:
            cols = [[0] * k + col[:max(0, self.n + 1 - k)] for col in self.coords]
            return TruncatedSeries(self.field, self.n, self.shift, self.rel,
                                   cols, self.bound, False)
        k = -k
        cols = [col[k:] for col in self.coords]
        return TruncatedSeries(self.field, self.n - k, self.shift, self.rel,
                               cols, self.bound, self.tail_zero)

    # -- ring operations ---------------------------------------------------

    def _n_eff(self):
        return INFINITE if self.tail_zero else self.n

    def __add__(self, other):
        if not isinstance(other, TruncatedSeries):
            other = TruncatedSeries.make(self.field, [other], n=0)
        field = self.field
        prec = min(self.prec, other.prec)
        shift = min(self.shift, other.shift)
        rel = prec - shift
        na, nb = self._n_eff(), other._n_eff()
        if min(na, nb) == INFINITE:
            n_out = max(self.n, other.n)
            tz = True
        else:
            n_out = int(min(min(na, nb), max(self.n, other.n)))
            tz = False
        if rel <= 0:
            ba, bb = self.effective_bound(), other.effective_bound()
            bound = _merge_profiles(ba, bb)
            return TruncatedSeries.zero(field, n_out, prec=prec, bound=bound,
                                        tail_zero=tz)
        p = field.p
        mod = p ** rel
        ra = self.residues(shift, rel)
        rb = other.residues(shift, rel)
        cols = []
        for l in range(field.f):
            ca, cb = ra[l], rb[l]
            col = [0] * (n_out + 1)
            for i in range(min(len(ca), n_out + 1)):
                col[i] = ca[i]
            for i in range(min(len(cb), n_out + 1)):
                col[i] = (col[i] + cb[i]) % mod
            cols.append(col)
        bound = _merge_profiles(self.effective_bound(), other.effective_bound())
        return TruncatedSeries(field, n_out, shift, rel, cols, bound, tz)

    def __neg__(self):
        mod = self.field.p ** self.rel
        cols = [[(-r) % mod for r in col] for col in self.coords]
        return TruncatedSeries(self.field, self.n, self.shift, self.rel, cols,
                               self.bound, self.tail_zero)

    def __sub__(self, other):
        if not isinstance(other, TruncatedSeries):
            other = TruncatedSeries.make(self.field, [other], n=0)
        return self + (-other)

    def _scalar_mul(self, c):
        """Multiply by an exact rational or a K scalar."""
        field = self.field
        if isinstance(c, (int, Fraction)):
            c = Fraction(c)
            if c == 0:
                return TruncatedSeries.zero(field, self.n,
                                            prec=self.prec, tail_zero=self.tail_zero)
            from .padics import vp_fraction
            v = vp_fraction(c, field.p)
            mod = field.p ** self.rel
            unit = Fraction(c, Fraction(field.p) ** v)
            u = unit.numerator * pow(unit.denominator, -1, mod) % mod
            cols = [[r * u % mod for r in col] for col in self.coords]
            b = self.effective_bound()
            bound = None if b is None else (b[0] - v, b[1], b[2])
            return TruncatedSeries(field, self.n, self.shift + v, self.rel,
                                   cols, bound, self.tail_zero)
        one_term = TruncatedSeries.make(field, [c], n=0)
        return self * one_term

    def __mul__(self, other):
        field = self.field
        if not isinstance(other, TruncatedSeries):
            if isinstance(other, (int, Fraction)):
                return self._scalar_mul(other)
            return self._scalar_mul(field.coerce(other))
        na, nb = self._n_eff(), other._n_eff()
        if min(na, nb) == INFINITE:
            n_out = self.n + other.n
            tz = True
        else:
            n_out = int(min(na, nb))
            tz = False
        prec = min(self.prec + other.vmin, other.prec + self.vmin)
        # the window holds only the operands' live digits: a low digit that
        # is zero in every residue of an operand is moved into its shift
        # before the operands multiply, instead of being carried through
        a, b = self.normalized(), other.normalized()
        shift = a.shift + b.shift
        rel = prec - shift
        bound = _mul_profiles(self.effective_bound(), other.effective_bound())
        if rel <= 0:
            return TruncatedSeries.zero(field, n_out, prec=prec, bound=bound,
                                        tail_zero=tz)
        cols = field.mul_columns(a.coords, b.coords, field.p ** rel, n_out + 1)
        return TruncatedSeries(field, n_out, shift, rel, cols, bound, tz)

    __rmul__ = __mul__

    def normalized(self):
        """Strip the largest common power of p from the residues into shift."""
        k = self.vmin - self.shift
        if k <= 0 or k >= self.rel:
            return self
        q = self.field.p ** k
        cols = [[r // q if r else 0 for r in col] for col in self.coords]
        return TruncatedSeries(self.field, self.n, self.shift + k,
                               self.rel - k, cols, self.bound, self.tail_zero)

    def equals(self, other):
        return (self - other).is_zero

    def __repr__(self):
        nz = [(i, self.coeff(i)) for i in range(min(self.n, 6) + 1)]
        body = " + ".join(f"({c!r})x^{i}" for i, c in nz if not c.is_zero)
        return (f"Series[N={self.n}, O(p^{self.prec})]"
                f"({body or '0'}{'' if self.n <= 6 else ' + ...'})")


# ----------------------------------------------------------------------
# tail bounds
# ----------------------------------------------------------------------

def _norm_profile(bound):
    if bound is None:
        return None
    if not isinstance(bound, tuple):
        return (Fraction(bound), 0, 0)
    if len(bound) == 2:
        return (Fraction(bound[0]), bound[1], 0)
    return (Fraction(bound[0]), bound[1], bound[2])


def _merge_profiles(ba, bb):
    """Profile dominating both inputs (for sums)."""
    if ba is None or bb is None:
        return None
    return (max(ba[0], bb[0]), max(ba[1], bb[1]), max(ba[2], bb[2]))


def _mul_profiles(ba, bb):
    """Profile of a product: constants and slopes add, shifts take the max."""
    if ba is None or bb is None:
        return None
    return (ba[0] + bb[0], ba[1] + bb[1], max(ba[2], bb[2]))


def tail_valuation_bound(series, weight: Fraction):
    """Lower bound for min_{i>N} (v_p(a_i) + i*weight), or None (exact tail 0).

    ``weight`` is the per-degree valuation weight of the evaluation point
    (1/e_n for the layer-n uniformizer, 1/(p^n (p-1)) for the rho_n norm).

    Raises TailBoundError when the series carries no tail information.
    """
    if series.tail_zero:
        return None
    prof = series.effective_bound()
    if prof is None:
        raise TailBoundError(
            "series carries no coefficient bound; tail-sensitive decision refused")
    b, s, h = prof
    p = series.field.p
    N = series.n
    # g(i) = i*weight - b - s*floor(log_p(i+h)) increases between powers of
    # p, so the minimum over i > N is attained at N+1 or where the floor
    # steps, at i = p^k - h for k > k0.  Those candidates are convex in k:
    # step k -> k+1 adds p^k (p-1) weight - s, which grows with k.  So the
    # scan (at most 39 steps) stops at the first one that does not fall.
    k0 = _floor_logp(N + 1 + h, p)
    best = Fraction(N + 1) * weight - b - s * k0
    low = None
    for k in range(k0 + 1, k0 + 40):
        cand = (p ** k - h) * weight - b - s * k
        if low is not None and cand >= low:
            break
        low = cand
    return min(best, low)
