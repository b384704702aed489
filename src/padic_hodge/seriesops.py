"""Operators on truncated series: phi, psi, D, the gamma-action and ell_j,
Gauss norms on the radii rho_n, growth orders, and log-divisibility.

phi substitutes x -> (1+x)^p - 1 with a Frobenius twist of the coefficients;
psi is its left inverse, extracting the part of f supported on p-th powers
of (1+x); D is the derivation (1+x) d/dx.  In the basis (1+x)^k all three
are index maps: phi sends k to pk, psi keeps the k divisible by p, and D
multiplies coordinate k by k.  On an exact polynomial they work on the
series' kept (1+x)-coordinates (``TruncatedSeries.ycoords``; D only when the
input already has them), hand each output its own, and build the output's
x-basis coefficients in the same call by one Taylor shift back (D directly):
``intpoly.taylor_shift`` maps (1+x)-coordinates to x-coefficients, and
``ycoords`` is its sign-flipped inverse.  phi's shift is strided, at factor
p, from the N + 1 coordinates, not their p-sparse stretch of length pN + 1.
phi on a truncated series makes its coordinates afresh on each call; psi
raises TailBoundError there, since its every coefficient depends on the
unknown tail.  Both twist the coefficients by the field's ``sigma_columns``
and claim its one window rule: no more than the rows of sigma give.
The gamma-action substitutes x -> (1+x)^c - 1 through the p-adic binomial
series of c, whose column stops at its first zero numerator (past i = c for
an integer c), by one ``intpoly.compose`` per coordinate: all of them, and
a later gamma_c at the same c, N and window, share one cached plan of the
powers of (1+x)^c - 1.
Values at the cyclotomic layers are remainders modulo the layer's minimal
polynomial (``intpoly.remainder``), decided at ``DECISION_LEVEL``,
valuation 1 (modulo p^1).
"""

from fractions import Fraction
from dataclasses import dataclass
import math

from . import intpoly
from .errors import (PrecisionError, TailBoundError, NotDivisibleError,
                     PsiNotZeroError)
from .padics import FieldElement, vp_int, vp_fraction
from .cyclotomic import CyclotomicLayer, CyclotomicElement
from .series import TruncatedSeries, tail_valuation_bound, _floor_logp, INFINITE

DECISION_LEVEL = Fraction(1)
# growth-order estimates fit the radii rho_1..rho_3: a line through two
# points has no residual, so its interval would read as exact
ESTIMATE_RADII = 3
_MAX_LOG_DIVISIONS = 64


def _field_cache(field):
    cache = getattr(field, "_series_cache", None)
    if cache is None:
        cache = {}
        field._series_cache = cache
    return cache


def _bump_profile(bound, db=0, dh=0):
    if bound is None:
        return None
    b, s, h = bound
    return (b + db * s, s, h + dh)


# ----------------------------------------------------------------------
# the operators
# ----------------------------------------------------------------------

def phi_op(f: TruncatedSeries) -> TruncatedSeries:
    """f |-> f^sigma((1+x)^p - 1).

    Exact to degree p*N for polynomial input; for a truncated series only
    the first N coefficients of the image are determined, and the output is
    truncated accordingly.
    """
    field = f.field
    p = field.p
    full = p * f.n
    n_out = full if f.tail_zero else f.n
    ys, rel = field.sigma_columns(f.ycoords(), f.rel)
    mod = p ** rel
    # y_k (1+x)^(pk) is shifted at stride p, the full p N + 1 coefficients:
    # the high powers of (1+x) contribute to every low x-degree
    out = [intpoly.taylor_shift(y, mod, p)[:n_out + 1] for y in ys]
    return TruncatedSeries(field, n_out, f.shift, rel, out,
                           f.effective_bound(), f.tail_zero,
                           [intpoly.stretch(y, p, full + 1) for y in ys]
                           if f.tail_zero else None)


def psi_op(f: TruncatedSeries) -> TruncatedSeries:
    """Left inverse of phi: keeps the (1+x)^(pk) isotypic part.

    Equivalent to averaging over the p-th roots of unity, but computed by
    coefficient extraction in the substituted variable.  Exact polynomials
    only: no tail bound fixes psi of a truncated series.
    """
    field = f.field
    p = field.p
    if not f.tail_zero:
        raise TailBoundError(
            "psi of a truncated series depends on its unknown tail")
    if f.n < p:
        raise ValueError(f"psi needs truncation degree >= p, got {f.n}")
    ys, rel = field.sigma_columns(
        [y[::p] for y in f.ycoords()], f.rel, inverse=True)
    out = [intpoly.taylor_shift(y, p ** rel) for y in ys]
    return TruncatedSeries(field, f.n // p, f.shift, rel, out,
                           _bump_profile(f.effective_bound(), 1), True, ys)


def d_op(f: TruncatedSeries) -> TruncatedSeries:
    """D = (1+x) d/dx; drops the top coefficient unless the input is an
    exact polynomial.  Kept (1+x)-coordinates y_k of the input become the
    output's k*y_k."""
    field = f.field
    mod = field.p ** f.rel
    n_out = f.n if f.tail_zero else f.n - 1
    if n_out < 0:
        raise ValueError("cannot differentiate a degree-<1 truncated series")
    out = []
    for col in f.coords:
        g = [0] * (n_out + 1)
        for i in range(n_out + 1):
            acc = i * col[i] if i <= f.n else 0
            if i + 1 <= f.n:
                acc += (i + 1) * col[i + 1]
            g[i] = acc % mod
        out.append(g)
    ys = None
    if f._ycoords is not None:
        ys = [[k * y % mod for k, y in enumerate(col)] for col in f._ycoords]
    return TruncatedSeries(field, n_out, f.shift, f.rel, out,
                           _bump_profile(f.effective_bound(), 0, 1),
                           f.tail_zero, ys)


def _binomial_column(c_res, n, rel, p, extra):
    """Residues of C(c, i) mod p^rel for i = 0..n, where c_res is the
    residue of c modulo p^(rel+extra) and extra >= v_p(n!).

    Once the numerator vanishes mod p^(rel+extra) (past i = c for an
    integer c >= 0), so does every later one, and the rest of the column is
    zero: the loop stops there and skips those modular inverses."""
    W = rel + extra
    modW = p ** W
    mod = p ** rel
    out = [1 % mod]
    num = 1          # prod_{k<i} (c - k) mod p^W
    vfact = 0        # v_p(i!)
    ufact_inv = 1    # inverse of the unit part of i! mod p^W
    for i in range(1, n + 1):
        num = num * ((c_res - (i - 1)) % modW) % modW
        if not num:
            return out + [0] * (n + 1 - i)
        t = vp_int(i, p)
        vfact += t
        u = i // p ** t
        ufact_inv = ufact_inv * pow(u, -1, modW) % modW
        r = num * ufact_inv % modW
        out.append(r // p ** vfact % mod)
    return out


def gamma_action(f: TruncatedSeries, c) -> TruncatedSeries:
    """f |-> f((1+x)^c - 1) for a unit c of Z_p.

    ``c`` may be an exact int/Fraction (expanded exactly) or a Q_p scalar
    (a FieldElement whose coordinates above 0 are zero), in which case the
    output precision honestly reflects the loss v_p(N!) inherent in
    evaluating binomials of an approximate argument.
    """
    field = f.field
    p = field.p
    n = f.n
    extra = vp_int(math.factorial(n), p) if n else 0
    rel = f.rel
    prec_out = f.prec
    if isinstance(c, FieldElement):
        if c.val != 0 or any(c.res[1:]):
            raise ValueError("gamma-action argument must be a unit of Z_p")
        avail = c.prec  # digits of c available
        rel = min(rel, max(avail - extra, 0))
        if rel <= 0:
            raise PrecisionError("argument of gamma-action too imprecise")
        prec_out = f.shift + rel
        c_res = c.res[0] % p ** (rel + extra)
    else:
        c = Fraction(c)
        if c == 1:
            return f
        if vp_fraction(c, p) != 0:
            raise ValueError("gamma-action argument must be a unit of Z_p")
        modW = p ** (rel + extra)
        c_res = c.numerator * pow(c.denominator, -1, modW) % modW
    mod = p ** rel
    B = _binomial_column(c_res, n, rel, p, extra)
    B[0] = 0  # (1+x)^c - 1
    out = []
    for col in f.coords:
        cc = [r % mod for r in col]
        out.append(intpoly.compose(cc, B, mod, n + 1))
    return TruncatedSeries(field, n, f.shift, prec_out - f.shift, out,
                           f.effective_bound(), False)


def _log_column(p: int, n: int, e: int, mod: int) -> list:
    """Residues of p^e * log(1+x) to degree n, mod ``mod``: entry k is
    (-1)^(k+1) p^(e - v(k)) (k / p^v(k))^(-1), entry 0 is 0."""
    col = [0] * (n + 1)
    for k in range(1, n + 1):
        v = vp_int(k, p)
        r = p ** (e - v) * pow(k // p ** v, -1, mod) % mod
        col[k] = r if k % 2 else (-r) % mod
    return col


def log_series(field, n: int) -> TruncatedSeries:
    """log(1+x) truncated to degree n (exact residues, profile (0, 1))."""
    cache = _field_cache(field)
    key = ("log", n)
    if key not in cache:
        p = field.p
        e = _floor_logp(max(n, 1), p)
        prec = field.work_prec + 16
        rel = prec - (-e)
        col = _log_column(p, n, e, p ** rel)
        cols = [col] + [[0] * (n + 1) for _ in range(field.f - 1)]
        cache[key] = TruncatedSeries(field, n, -e, rel, cols,
                                     (Fraction(0), 1, 0), False)
    return cache[key]


def _log_powers(field, n: int, k: int) -> list:
    """[1, log(1+x), ..., log(1+x)^k] truncated to degree n.

    The field keeps one list per degree n and extends it on demand, each
    power the truncated product of the one before and ``log_series``."""
    cache = _field_cache(field)
    key = ("logpow", n)
    if key not in cache:
        cache[key] = [TruncatedSeries.one(field, n)]
    pws = cache[key]
    while len(pws) <= k:
        pws.append((pws[-1] * log_series(field, n)).truncate(n))
    return pws


def ilog_series(field, n: int) -> TruncatedSeries:
    """x/log(1+x) truncated to degree n, by Newton inversion at an elevated
    window.

    The result's least valuation is -(n // (p - 1)) and its relative window
    is at least the field's work_prec digits; its absolute precision may
    lie below work_prec.  That is what a division needs: a product with a
    dividend known to at most work_prec digits, of least valuation >= 0,
    is known to exactly n // (p - 1) digits less than the dividend.

    The field keeps one series, the longest built so far; a shorter request
    truncates it, since the inverse truncated to degree n is the inverse of
    the degree-n truncation.
    """
    cache = _field_cache(field)
    cached = cache.get("ilog")
    if cached is None or cached.n < n:
        p = field.p
        e = _floor_logp(max(n + 1, 1), p)
        big = field.work_prec + 16 + e * (math.ceil(math.log2(max(n, 2))) + 2)
        rel = big + e
        # u = log(1+x)/x with exact residues at the elevated window
        col = _log_column(p, n + 1, e, p ** rel)[1:]
        u_series = TruncatedSeries(field, n, -e, rel,
                                   [col] + [[0] * (n + 1)
                                            for _ in range(field.f - 1)],
                                   None, False)
        v_series = TruncatedSeries.one(field, 0, prec=big)
        length = 1
        two = TruncatedSeries.make(field, [2], n=0, prec=big + 2 * e)
        while length < n + 1:
            length = min(2 * length, n + 1)
            u_t = u_series.truncate(length - 1)
            w = two - (u_t * v_series.truncate(length - 1))
            v_series = (v_series * w).truncate(length - 1).as_polynomial()
        out = v_series.normalized()
        # the result stands for the truncation of x/log(1+x); its tail is
        # neither zero nor (b, s)-profiled, so it carries no tail claim
        cached = TruncatedSeries(field, out.n, out.shift, out.rel,
                                 out.coords, None, False)
        cache["ilog"] = cached
    return cached if cached.n == n else cached.truncate(n).normalized()


def ell_op(f: TruncatedSeries, j: int) -> TruncatedSeries:
    """ell_j = log(1+x) * D - j, defined on the kernel of psi."""
    if not psi_op(f).is_zero:
        raise PsiNotZeroError(
            "ell_j applied to a series with psi(f) != 0 at tracked precision")
    df = d_op(f)
    out = log_series(f.field, df.n) * df
    if j:
        out = out - f._scalar_mul(j)
    return out


# ----------------------------------------------------------------------
# norms and growth orders
# ----------------------------------------------------------------------

def rho_weight(p: int, n: int) -> Fraction:
    return Fraction(1, p ** n * (p - 1))


def rho_norm(f: TruncatedSeries, n: int) -> Fraction:
    """-log_p of the sup norm of f on |x| = rho_n, as an exact rational:
    min_i (v_p(a_i) + i/(p^n(p-1))), certified against the tail.

    Raises TailBoundError when the untracked tail could beat the tracked
    minimum and PrecisionError when a tracked-zero coefficient could.
    """
    field = f.field
    p = field.p
    w = rho_weight(p, n)
    best = None
    zero_floor = None  # strongest possible contribution of a tracked zero
    for i in range(f.n + 1):
        vals = []
        all_zero = True
        for col in f.coords:
            r = col[i]
            if r:
                all_zero = False
                vals.append(vp_int(r, p) + f.shift)
        if all_zero:
            cand = Fraction(f.prec) + i * w
            if zero_floor is None or cand < zero_floor:
                zero_floor = cand
            continue
        cand = min(vals) + i * w
        if best is None or cand < best:
            best = cand
    if best is None:
        raise ValueError("norm of a series indistinguishable from zero")
    if zero_floor is not None and zero_floor <= best:
        raise PrecisionError(
            "a coefficient known only to be zero at precision could decide the norm")
    if not f.tail_zero:
        tb = tail_valuation_bound(f, w)
        if tb is not None and tb <= best:
            raise TailBoundError(
                f"tail bound {tb} does not exceed the tracked minimum {best}")
    return best


class LogPolynomial:
    """Structured element sum_i c_i(x) * log(1+x)^i with bounded c_i.

    This is the class on which the growth order is computed exactly: a
    bounded nonzero series has order 0 and each log factor contributes 1.
    """

    def __init__(self, terms):
        self.terms = {}
        for i, c in terms.items():
            if i < 0:
                raise ValueError("log exponents must be >= 0")
            prof = c.effective_bound()
            if prof is None or prof[1] != 0:
                raise ValueError(
                    "LogPolynomial coefficients must carry a constant bound")
            self.terms[int(i)] = c

    @property
    def is_zero(self):
        return all(c.is_zero for c in self.terms.values())

    def expand(self, n: int) -> TruncatedSeries:
        """sum_i c_i log(1+x)^i truncated to degree n, the terms added in
        ascending exponent; the powers of log(1+x) are the field's, built
        once per degree (``_log_powers``)."""
        field = next(iter(self.terms.values())).field
        pws = _log_powers(field, n, max(self.terms))
        acc = None
        for i in sorted(self.terms):
            term = (self.terms[i].truncate(n) * pws[i]).truncate(n)
            acc = term if acc is None else acc + term
        return acc


def growth_order(f: LogPolynomial) -> int:
    """Exact growth order on the structured class: max log exponent with a
    nonzero coefficient."""
    if not isinstance(f, LogPolynomial):
        raise TypeError("exact growth orders are defined on LogPolynomial only; "
                        "use growth_order_estimate for raw truncated series")
    nz = [i for i, c in f.terms.items() if not c.is_zero]
    if not nz:
        raise ValueError("growth order of the zero element is undefined")
    return max(nz)


def growth_order_estimate(f: TruncatedSeries):
    """Least-squares slope of n -> log_p ||f||_{rho_n} over n = 1..3
    (``ESTIMATE_RADII``), returned as an interval (slope - h, slope + h)
    with h the max residual.

    An estimate only; never used in acceptance decisions.
    """
    return _slope_interval([-rho_norm(f, n)
                            for n in range(1, ESTIMATE_RADII + 1)])


def _slope_interval(ys):
    """Exact least-squares slope of n -> ys[n - 1] over n = 1..len(ys)
    (at least two points), as (slope - h, slope + h) with h the max
    residual."""
    k = len(ys)
    sx = Fraction(k * (k + 1), 2)
    sxx = Fraction(k * (k + 1) * (2 * k + 1), 6)
    sy = sum(ys)
    sxy = sum(Fraction(n) * y for n, y in zip(range(1, k + 1), ys))
    slope = (k * sxy - sx * sy) / (k * sxx - sx * sx)
    intercept = (sy - slope * sx) / k
    h = max(abs(y - (slope * n + intercept))
            for n, y in zip(range(1, k + 1), ys))
    return (slope - h, slope + h)


# ----------------------------------------------------------------------
# cyclotomic evaluation and log-divisibility
# ----------------------------------------------------------------------

@dataclass
class CycloEvaluation:
    """Value of a truncated series at pi_n = zeta_n - 1 with its certificates.

    ``prec`` is the absolute precision of the computed value (m_eff: the
    input's window after the precision spent so far) and ``tail`` the
    certified valuation floor of the untracked tail's contribution (None for
    exact polynomials).
    """
    value: CyclotomicElement
    tail: Fraction | None
    prec: int

    @property
    def certainty(self):
        """Valuation level up to which the value is trustworthy."""
        if self.tail is None:
            return Fraction(self.prec)
        return min(Fraction(self.prec), self.tail)

    @property
    def floor(self):
        """Certified valuation floor: v_p(true value) >= floor, the observed
        valuation capped at the certainty."""
        v = self.value.valuation_or_none()
        level = self.certainty
        return level if v is None else min(Fraction(v), level)

    def classify(self):
        """-> ('zero', floor) | ('nonzero', valuation).

        The value counts as vanishing when its floor clears
        ``DECISION_LEVEL``; it counts as nonzero only when its observed
        valuation is certified below that level (the floor is then that
        valuation).  If the certificates cannot even decide at that level,
        TailBoundError asks the caller to raise the truncation degree.
        """
        level = self.certainty
        if level < DECISION_LEVEL:
            raise TailBoundError(
                f"certainty {level} below decision threshold "
                f"{DECISION_LEVEL}; raise the truncation degree")
        floor = self.floor
        return ("zero" if floor >= DECISION_LEVEL else "nonzero", floor)


def cyclotomic_evaluate(f: TruncatedSeries,
                        layer: CyclotomicLayer) -> CycloEvaluation:
    """Evaluate at x = pi_n with a certified tail valuation bound: each
    coordinate column is reduced modulo the layer's minimal polynomial by
    one synthetic division (``intpoly.remainder``), giving the pi^j
    coordinates over K."""
    field = f.field
    if not field.compatible(layer.field):
        raise ValueError("layer belongs to a different base field")
    e = layer.e
    mod = field.p ** f.rel
    low = layer.minimal_polynomial[:e]
    cols = [intpoly.remainder(col, low, mod) for col in f.coords]
    coords = [field.from_residues(f.shift, [col[j] for col in cols], f.prec)
              for j in range(e)]
    value = CyclotomicElement(layer, coords)
    tail = tail_valuation_bound(f, Fraction(1, e)) if not f.tail_zero else None
    return CycloEvaluation(value, tail, f.prec)


def divide_by_log(f: TruncatedSeries, n_max: int = 1) -> TruncatedSeries:
    """Return g with f = g*log(1+x), certified at truncation level.

    Divisibility is cross-validated two ways: the value at x = 0 and at the
    layers n <= n_max must vanish within certified bounds, and the formal
    bottom-up division must be consistent.  Failures raise
    NotDivisibleError with the first witness.

    The quotient is f * x/log(1+x) divided by x, whose constant term f(0)
    is zero here: one product at degree N, which spends N // (p - 1) digits
    of absolute precision (``ilog_series``).  It keeps f's profile with one
    log power less, and no tail claim when f has none.

    A series is never changed after it is made, so f keeps what a division
    computes from it: its value at each layer n, evaluated the first time a
    call checks that layer, and the quotient, which does not depend on
    n_max; a later call on f returns that same quotient object.  Every call
    still checks x = 0 and classifies the layers n <= n_max before the kept
    quotient is read, so it raises the same error each time; only the
    layers no earlier call checked are evaluated.
    """
    field = f.field
    c0 = f.coeff(0)
    if not c0.is_zero:
        raise NotDivisibleError(
            f"constant term has valuation {c0.valuation()} (nonzero at x = 0)",
            witness=("x=0", c0.valuation()))
    if f._layer_evals is None:
        f._layer_evals = {}
    for n in range(1, n_max + 1):
        ev = f._layer_evals.get(n)
        if ev is None:
            ev = cyclotomic_evaluate(f, CyclotomicLayer(field, n))
            f._layer_evals[n] = ev
        kind, info = ev.classify()
        if kind == "nonzero":
            raise NotDivisibleError(
                f"value at layer {n} has valuation {info}",
                witness=(n, info))
    if f._by_log is not None:
        return f._by_log
    prod = f * ilog_series(field, f.n)
    if prod.rel <= 0:
        raise PrecisionError(
            "precision window exhausted dividing by log(1+x); rebuild the "
            "inputs over a field with a larger work_margin")
    prof = f.effective_bound()
    q = TruncatedSeries(field, prod.n - 1, prod.shift, prod.rel,
                        [col[1:] for col in prod.coords],
                        None if prof is None
                        else (prof[0], max(prof[1] - 1, 0), prof[2]), False)
    f._by_log = q
    return q


def log_order(f: TruncatedSeries, n_max: int = 1):
    """Largest r with f divisible by log(1+x)^r at truncation level;
    INFINITE for the (tracked) zero series."""
    if f.is_zero:
        return INFINITE
    cur = f
    for r in range(_MAX_LOG_DIVISIONS):
        try:
            cur = divide_by_log(cur, n_max=n_max)
        except NotDivisibleError:
            return r
    raise PrecisionError(
        f"log_order did not terminate within {_MAX_LOG_DIVISIONS} divisions")
