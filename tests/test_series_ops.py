"""Operators on truncated series, checked against independent oracles.

The oracles work in exact rational arithmetic (Fraction coefficient lists):
substitution by direct polynomial expansion, the gamma-action through the
formal exponential of c*log(1+x), and ell_0 through the truncated operator
logarithm of an explicit gamma.
"""

import random
from fractions import Fraction
from math import comb, factorial

import pytest

from padic_hodge.padics import UnramifiedField, vp_int
from padic_hodge.series import TruncatedSeries
from padic_hodge import intpoly, seriesops as so
from padic_hodge.errors import PsiNotZeroError, TailBoundError

from helpers import random_element, shift, x_plus_one_power


# -- exact rational oracles ----------------------------------------------

def frac_mul(a, b, out_len):
    out = [Fraction(0)] * out_len
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            if i + j >= out_len:
                break
            out[i + j] += x * y
    return out


def frac_log(out_len):
    return [Fraction(0)] + [Fraction((-1) ** (i + 1), i)
                            for i in range(1, out_len)]


def frac_exp_of(s, out_len):
    """exp(s) for a rational coefficient list with s[0] = 0."""
    acc = [Fraction(0)] * out_len
    acc[0] = Fraction(1)
    term = list(acc)
    for k in range(1, out_len):
        term = frac_mul(term, s, out_len)
        term = [t / k for t in term]
        acc = [x + y for x, y in zip(acc, term)]
    return acc


def series_matches_fractions(series, fracs):
    expect = TruncatedSeries.make(series.field, fracs[:series.n + 1],
                                  n=series.n)
    return series.equals(expect)


# -- phi -------------------------------------------------------------------

def test_phi_on_one_plus_x(K5):
    f = TruncatedSeries.make(K5, [1, 1], n=30)
    assert so.phi_op(f).equals(x_plus_one_power(K5, 5, 150))


def test_phi_on_log_scales_by_p(K5):
    lg = so.log_series(K5, 125).truncate(125)
    out = so.phi_op(lg)
    expect = so.log_series(K5, out.n)._scalar_mul(5).truncate(out.n)
    assert out.equals(expect)


def test_phi_by_direct_expansion_oracle(K3):
    # x^2 at p = 3: ((1+x)^3 - 1)^2 expanded exactly
    f = TruncatedSeries.make(K3, [0, 0, 1], n=8)
    u = [Fraction(0), 3, 3, 1]  # (1+x)^3 - 1
    expect = frac_mul(u, u, 25)
    out = so.phi_op(f)
    assert series_matches_fractions(out, expect)


def test_phi_semilinear_coefficients(K25):
    # phi(c) = sigma(c) for a constant: the coefficient twist is sigma
    t = K25.gen()
    f = TruncatedSeries.make(K25, [t, t], n=10)
    out = so.phi_op(f)
    st = K25.sigma(t)
    assert (out.coeff(0) - st).is_zero


# -- psi -------------------------------------------------------------------

def test_psi_trivial_cases(K5):
    one = TruncatedSeries.one(K5, 25)
    assert so.psi_op(one).equals(TruncatedSeries.one(K5, 5))
    onex = TruncatedSeries.make(K5, [1, 1], n=25)
    assert so.psi_op(onex).is_zero
    phix = x_plus_one_power(K5, 5, 25)
    assert so.psi_op(phix).equals(TruncatedSeries.make(K5, [1, 1], n=5))


def test_psi_phi_identity_over_extension(K25):
    rng = random.Random(8)
    for _ in range(5):
        g = TruncatedSeries.make(
            K25, [random_element(K25, rng) for _ in range(26)], n=25)
        assert so.psi_op(so.phi_op(g)).truncate(25).equals(g)


def _int_compose(coeffs, h, mod):
    """f(h(X)) for integer polynomials by Horner, coefficients mod ``mod``."""
    acc = [coeffs[-1] % mod]
    for c in reversed(coeffs[:-1]):
        new = [0] * (len(acc) + len(h) - 1)
        for i, a in enumerate(acc):
            for j, b in enumerate(h):
                new[i + j] += a * b
        new[0] += c
        acc = [v % mod for v in new]
    return acc


def _layer_reduce(poly, mp, mod):
    """Remainder of an integer polynomial modulo the monic ``mp`` and ``mod``."""
    e = len(mp) - 1
    poly = list(poly) + [0] * e
    for k in range(len(poly) - 1, e - 1, -1):
        c = poly[k]
        for i in range(e + 1):
            poly[k - e + i] -= c * mp[i]
    return [c % mod for c in poly[:e]]


def test_psi_averaging_oracle(K5):
    # psi extracts the (1+x)^(5k) part: phi(psi(f)) is the average of
    # f(z(1+x) - 1) over z in mu_5.  At x = pi_1 = zeta - 1 the points are
    # z(1 + pi) - 1 = (1+X)^k - 1, k = 1..5, so 5 phi(psi(f))(pi) is the sum
    # of f((1+X)^k - 1) in plain integers modulo (Phi_5(1+X), 5^m)
    from padic_hodge.cyclotomic import CyclotomicLayer
    from padic_hodge.seriesops import cyclotomic_evaluate
    rng = random.Random(9)
    coeffs = [rng.randint(0, 600) for _ in range(26)]
    f = TruncatedSeries.make(K5, coeffs, n=25)
    psif = so.psi_op(f)
    L1 = CyclotomicLayer(K5, 1)
    lhs = cyclotomic_evaluate(so.phi_op(psif).truncate(25), L1).value
    mod = 5 ** (lhs.prec + 1)
    acc = [0] * (25 * 5 + 1)
    for k in range(1, 6):
        h = [0] + [comb(k, i) for i in range(1, k + 1)]
        for i, c in enumerate(_int_compose(coeffs, h, mod)):
            acc[i] += c
    fives = []
    for c in lhs.coords:
        q = 5 * c.lift_fraction()
        assert q.denominator == 1
        fives.append(int(q) % mod)
    assert fives == _layer_reduce(acc, L1.minimal_polynomial, mod)


@pytest.mark.parametrize("p, N", [(3, 27), (5, 25), (5, 125)])
def test_psi_refuses_a_truncated_series(p, N):
    # every coefficient of psi(f) depends on f's tail: psi of the kept
    # digits of a degree-3N polynomial truncated to N, even with the valid
    # bound (0, 0, 0), misses psi of the whole polynomial, while phi and D
    # of the truncation agree with the whole polynomial's
    field = UnramifiedField(p, 1, 20)
    rng = random.Random(p * N)
    coeffs = [rng.randrange(p ** 20) for _ in range(3 * N + 1)]
    whole = TruncatedSeries.make(field, coeffs)
    cut = TruncatedSeries.make(field, coeffs[:N + 1], bound=(0, 0, 0),
                               tail_zero=False)
    assert not _two_shift_psi(cut).equals(so.psi_op(whole).truncate(N // p))
    for s in (cut, so.log_series(field, N)):
        with pytest.raises(TailBoundError):
            so.psi_op(s)
        with pytest.raises(TailBoundError):
            so.ell_op(s, 0)
    assert so.phi_op(cut).equals(so.phi_op(whole).truncate(N))
    assert so.d_op(cut).equals(so.d_op(whole).truncate(N - 1))


# -- D ---------------------------------------------------------------------

def test_d_op_examples(K5):
    onex = TruncatedSeries.make(K5, [1, 1], n=10)
    assert so.d_op(onex).equals(onex)
    lg = so.log_series(K5, 40).truncate(40)
    one = TruncatedSeries.one(K5, 39)
    assert so.d_op(lg).equals(one)
    x2 = TruncatedSeries.make(K5, [0, 0, 1], n=10)
    assert so.d_op(x2).equals(TruncatedSeries.make(K5, [0, 2, 2], n=10))


# -- gamma -----------------------------------------------------------------

def test_gamma_identity(K5):
    f = TruncatedSeries.make(K5, [3, 1, 4], n=20)
    assert so.gamma_action(f, 1) is f


def test_gamma_against_exp_oracle(K5):
    # gamma_c(1+x) = exp(c log(1+x)) expanded in exact rationals
    n = 30
    onex = TruncatedSeries.make(K5, [1, 1], n=n)
    for c in (6, 7, Fraction(11, 2)):
        out = so.gamma_action(onex, c)
        s = [Fraction(c) * v for v in frac_log(n + 1)]
        assert series_matches_fractions(out, frac_exp_of(s, n + 1))


def test_gamma_power_law(K5):
    # (1+x)^2 -> (1+x)^(2c)
    n = 30
    sq = TruncatedSeries.make(K5, [1, 2, 1], n=n)
    out = so.gamma_action(sq, 7)
    expect = x_plus_one_power(K5, 14, n)
    assert out.equals(expect.truncate(out.n))


def test_gamma_functoriality(K5):
    rng = random.Random(10)
    f = TruncatedSeries.make(K5, [rng.randint(0, 5 ** 8) for _ in range(31)],
                             n=30)
    lhs = so.gamma_action(so.gamma_action(f, 7), 11)
    rhs = so.gamma_action(f, 77)
    assert lhs.equals(rhs)


def test_gamma_requires_unit(K5, K25):
    f = TruncatedSeries.one(K5, 10)
    with pytest.raises(ValueError):
        so.gamma_action(f, 5)
    with pytest.raises(ValueError):
        so.gamma_action(f, K5.scalar(5, 40))
    # c must lie in Z_p, not merely be a unit of K
    g = TruncatedSeries.one(K25, 10)
    with pytest.raises(ValueError):
        so.gamma_action(g, K25.one() + K25.gen())


def test_gamma_padic_scalar_argument(K5):
    f = TruncatedSeries.make(K5, [1, 1], n=10)
    c = K5.scalar(7, 40)
    out = so.gamma_action(f, c)
    expect = so.gamma_action(f, 7)
    m = min(out.n, expect.n)
    assert out.truncate(m).equals(expect.truncate(m))


@pytest.mark.parametrize("p, f, n, c, prec", [
    (5, 2, 125, 7, 20),
    (5, 2, 125, Fraction(3, 2), 20),
    # 40 digits of c, less v_5(125!) = 31 lost to the binomials; a pair is
    # the rational and precision of a Q_p scalar of the field
    (5, 2, 125, (Fraction(-1, 3), 40), 9),
    (7, 1, 343, 6, 20),
    # 70 digits of c, less v_7(343!) = 57
    (7, 1, 343, (Fraction(2, 5), 70), 13),
])
def test_gamma_commutes_with_d(p, f, n, c, prec):
    # D gamma_c = c gamma_c D, with the output precision gamma_c reports
    field = UnramifiedField(p, f, 20)
    if isinstance(c, tuple):
        c = field.scalar(*c)
    rng = random.Random(31)
    g = TruncatedSeries.make(
        field, [random_element(field, rng) for _ in range(n + 1)], n=n)
    out = so.gamma_action(g, c)
    assert out.prec == prec
    l = so.d_op(out)
    r = so.gamma_action(so.d_op(g), c)._scalar_mul(c)
    m = min(l.n, r.n)
    assert l.truncate(m).equals(r.truncate(m))


def binomial_column_full(c_res, n, rel, p, extra):
    """C(c, i) mod p^rel for i = 0..n by the whole loop, never stopping."""
    modW = p ** (rel + extra)
    out, num, vfact, ufact_inv = [1 % p ** rel], 1, 0, 1
    for i in range(1, n + 1):
        num = num * (c_res - (i - 1)) % modW
        t = vp_int(i, p)
        vfact += t
        ufact_inv = ufact_inv * pow(i // p ** t, -1, modW) % modW
        out.append(num * ufact_inv % modW // p ** vfact % p ** rel)
    return out


@pytest.mark.parametrize("p", [3, 5, 7])
def test_binomial_column_stops_at_a_zero_numerator(p):
    # integer c against math.comb; rational c and the residue of a p-adic
    # c (a FieldElement hands over its first coordinate) against the loop
    rng = random.Random(p)
    for n, rel in ((p ** 2, 9), (p ** 3, 40)):
        extra = vp_int(factorial(n), p)
        modW = p ** (rel + extra)
        for c in (2, 4, 13, 14, n - 1, n, n + 2):
            if c % p:
                assert so._binomial_column(c, n, rel, p, extra) == \
                    [comb(c, i) % p ** rel for i in range(n + 1)]
        residues = [Fraction(c).numerator * pow(Fraction(c).denominator, -1,
                                                modW) % modW
                    for c in (-1, -7, Fraction(1, 2), Fraction(-2, 11))]
        residues += [rng.randrange(1, p) + p * rng.randrange(modW // p)
                     for _ in range(3)]
        for r in residues:
            assert so._binomial_column(r, n, rel, p, extra) == \
                binomial_column_full(r, n, rel, p, extra)


# -- ell -------------------------------------------------------------------

def test_ell_examples(K5):
    n = 30
    onex = TruncatedSeries.make(K5, [1, 1], n=n)
    el0 = so.ell_op(onex, 0)
    expect = (so.log_series(K5, n) * onex).truncate(el0.n)
    assert el0.equals(expect)
    el1 = so.ell_op(onex, 1)
    expect1 = (expect - onex.truncate(expect.n)).truncate(el1.n)
    assert el1.equals(expect1)


def test_ell_on_power_family(K5):
    # ell_0((1+x)^a) = a log(1+x) (1+x)^a
    n = 30
    for a in (2, 3, 7):
        f = x_plus_one_power(K5, a, n)
        out = so.ell_op(f, 0)
        expect = (so.log_series(K5, n) * f)._scalar_mul(a).truncate(out.n)
        assert out.equals(expect)


def test_ell_operator_log_oracle(K5):
    """ell_0 agrees with the truncated operator logarithm of an explicit
    gamma of cyclotomic character value 1 + p, up to that series' own
    truncation error."""
    n = 25
    f = TruncatedSeries.make(K5, [1, 1], n=n)
    # sum_{i=1..T} (-1)^(i+1) (gamma - 1)^i / i applied to f, over log(1+p)
    T = 30
    diffs = []
    cur = f
    gf = so.gamma_action(f, 6)
    cur = gf - f
    acc = None
    for i in range(1, T + 1):
        term = cur._scalar_mul(Fraction((-1) ** (i + 1), i))
        acc = term if acc is None else acc + term
        cur = so.gamma_action(cur, 6) - cur
    # divide by log_p(1 + p) = sum (-1)^(k+1) p^k / k
    logchi = sum(Fraction((-1) ** (k + 1) * 5 ** k, k) for k in range(1, 40))
    oracle = acc._scalar_mul(1 / logchi)
    out = so.ell_op(f, 0)
    m = min(out.n, oracle.n)
    # the operator-log truncation error after T terms is far below the
    # working window only for the first several digits; compare against a
    # a modest threshold by checking the difference's valuations
    diff = out.truncate(m) - oracle.truncate(m)
    # v_p((gamma-1)^i f / i) grows like i - log_5(i); T = 30 buys > 20 digits
    assert diff.is_zero or diff.vmin >= 15


def test_ell_rejects_non_kernel_input(K5):
    f = TruncatedSeries.one(K5, 30)  # psi(1) = 1 != 0
    with pytest.raises(PsiNotZeroError):
        so.ell_op(f, 0)


# -- the operator identity battery (small seeded sample) -------------------

def test_operator_identities_random(K5):
    rng = random.Random(12)
    N = 125
    p = 5
    for _ in range(10):
        g = TruncatedSeries.make(K5, [rng.randrange(5 ** 20)
                                      for _ in range(N + 1)], n=N)
        assert so.psi_op(so.phi_op(g)).truncate(N).equals(g)
        l, r = so.d_op(so.phi_op(g)), so.phi_op(so.d_op(g))._scalar_mul(p)
        m = min(l.n, r.n)
        assert l.truncate(m).equals(r.truncate(m))
        l, r = so.psi_op(so.d_op(g)), so.d_op(so.psi_op(g))._scalar_mul(p)
        m = min(l.n, r.n)
        assert l.truncate(m).equals(r.truncate(m))
        c = rng.choice([2, 3, 4, 6, 7, 8])
        l = so.d_op(so.gamma_action(g, c))
        r = so.gamma_action(so.d_op(g), c)._scalar_mul(c)
        m = min(l.n, r.n)
        assert l.truncate(m).equals(r.truncate(m))


@pytest.mark.parametrize("p", [3, 5, 7])
@pytest.mark.parametrize("f", [1, 2])
def test_integer_gamma_matches_schoolbook_substitution(p, f):
    # an integer c hands compose the column of (1+x)^c - 1 padded with
    # zeros; c = 14 > N at p = 3 has no zero tail, and c divisible by p is
    # not a unit
    field = UnramifiedField(p, f, 20)
    rng = random.Random(10 * p + f)
    n = p * p
    for c in (2, 6, 14):
        g = _random_series(field, rng, n, rng.random() < 0.5)
        if c % p == 0:
            with pytest.raises(ValueError):
                so.gamma_action(g, c)
            continue
        out = so.gamma_action(g, c)
        assert (out.n, out.shift, out.rel) == (g.n, g.shift, g.rel)
        h = [0] + [comb(c, i) for i in range(1, c + 1)]
        mod = p ** g.rel
        for col, got in zip(g.coords, out.coords):
            assert got == (_int_compose(col, h, mod) + [0] * n)[:n + 1], c


def _round_trip_sizes():
    for p in (3, 5, 7, 11):
        for f in (1, 2, 3):
            yield p, f, p * p
            if p <= 7:
                yield p, f, p ** 3


@pytest.mark.parametrize("p, f, N", list(_round_trip_sizes()))
def test_operator_round_trips(p, f, N):
    # psi phi = id, D phi = p phi D, psi D = p D psi and D gamma_c =
    # c gamma_c D on an exact polynomial; at N = p^3 phi shifts p N + 1
    # coefficients (2402 at p = 7), many packed leaves.  On a truncated
    # series psi depends on the unknown tail, so only the identities
    # without psi are checked there.
    field = UnramifiedField(p, f, 20)
    rng = random.Random(N + 10 * f)
    c = rng.choice([u for u in range(2, 15) if u % p])
    for tail_zero in (True, False):
        g = _random_series(field, rng, N, tail_zero)
        pairs = [(so.d_op(so.phi_op(g)), so.phi_op(so.d_op(g)), p),
                 (so.d_op(so.gamma_action(g, c)),
                  so.gamma_action(so.d_op(g), c), c)]
        if tail_zero:
            assert so.psi_op(so.phi_op(g)).truncate(N).equals(g)
            pairs.append((so.psi_op(so.d_op(g)), so.d_op(so.psi_op(g)), p))
        for l, r, k in pairs:
            r = r._scalar_mul(k)
            m = min(l.n, r.n)
            assert l.truncate(m).equals(r.truncate(m)), (tail_zero, c)


# -- x/log(1+x): one cached series per field -------------------------------

def _on_empty_cache(field, fn):
    """fn() run on an emptied series cache; the cache is restored after."""
    cache = field._series_cache
    saved = dict(cache)
    cache.clear()
    try:
        return fn()
    finally:
        cache.clear()
        cache.update(saved)


def _ilog_keys(field):
    return [k for k in field._series_cache if "ilog" in k]


def _layout(s):
    return (s.n, s.shift, s.rel, s.coords, s.bound, s.tail_zero)


@pytest.mark.parametrize("p, f, N", [(3, 1, 80), (3, 2, 54), (5, 1, 100),
                                     (5, 2, 60), (7, 1, 98), (7, 2, 60)])
def test_divide_by_log_on_cached_ilog_matches_fresh(p, f, N):
    field = UnramifiedField(p, f, 20, work_margin=150)
    rng = random.Random(100 * p + f)
    # the longest chain first, so later chains start below the cached degree
    for r, n0 in [(4, N), (2, N), (3, N - 5), (1, N // 2), (3, 3 * N // 4)]:
        lg = so.log_series(field, n0)
        h = TruncatedSeries.make(
            field, [field.element([rng.randrange(p ** 20) for _ in range(f)])
                    for _ in range(4)], n=n0)
        cur = h
        for _ in range(r):
            cur = (lg * cur).truncate(n0)
        for _ in range(r):
            il = so.ilog_series(field, cur.n)
            # the quotient's window is set by f's precision, never by the
            # (possibly lower) window of a truncated cached series
            assert cur.prec + il.vmin <= il.prec + cur.vmin
            q = so.divide_by_log(cur, n_max=1)
            # a copy of cur has no kept quotient, so it is divided afresh
            copy = TruncatedSeries(field, *_layout(cur))
            fresh = _on_empty_cache(
                field, lambda: so.divide_by_log(copy, n_max=1))
            assert fresh is not q
            assert _layout(q) == _layout(fresh)
            cur = q
        assert cur.equals(h.truncate(cur.n))
    assert _ilog_keys(field) == ["ilog"]


def test_ilog_cache_keeps_the_longest_series():
    field = UnramifiedField(5, 2, 20, work_margin=60)
    assert so.ilog_series(field, 20).n == 20
    longer = so.ilog_series(field, 50)
    assert longer.n == 50
    assert _ilog_keys(field) == ["ilog"]
    shorter = so.ilog_series(field, 30)
    assert shorter.n == 30
    fresh = _on_empty_cache(field, lambda: so.ilog_series(field, 30))
    assert shorter.shift == fresh.shift and shorter.equals(fresh)
    assert so.ilog_series(field, 50) is longer
    assert _ilog_keys(field) == ["ilog"]


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_ilog_keeps_what_a_division_needs(p):
    # x/log(1+x) mod x^(N+1) has least valuation -(N // (p - 1)) and keeps
    # at least work_prec relative digits; its absolute precision may lie
    # below work_prec (by 23 digits at p = 5, N = 132, margin 4).  So a
    # dividend known to work_prec digits, of least valuation 0, keeps
    # exactly N // (p - 1) digits less in the product
    degrees = sorted(N for N in (p * p, 2 * p * p, 3 * p * p + 1, p ** 3,
                                 p ** 3 + 7) if N <= 700)
    for f in (1, 2):
        for margin in (4, 24, 97, 250):
            field = UnramifiedField(p, f, 20, work_margin=margin)
            for N in degrees:
                il = so.ilog_series(field, N)
                loss = N // (p - 1)
                assert il.vmin == -loss and il.rel >= field.work_prec
                one = TruncatedSeries.one(field, N)
                assert (one * il).prec == field.work_prec - loss


# -- phi, psi and D on kept (1+x)-coordinates against the two-shift formula ----

def _sigma_cols(field, rel, cols, inverse=False):
    if field.f == 1:
        return cols
    mod = field.p ** rel
    rows = field._sigma_inv_rows if inverse else field._sigma_rows
    return [[sum(rows[l][m] * cols[l][i] for l in range(field.f)) % mod
             for i in range(len(cols[0]))] for m in range(field.f)]


def _two_shift_phi(f):
    """phi: sigma, Taylor shift to the (1+x)-basis, stretch, shift back."""
    p, mod = f.field.p, f.field.p ** f.rel
    full = p * f.n
    n_out = full if f.tail_zero else f.n
    out = []
    for col in _sigma_cols(f.field, f.rel, f.coords):
        y = intpoly.stretch(shift(col, -1, mod), p, full + 1)
        out.append(intpoly.taylor_shift(y, mod)[:n_out + 1])
    return TruncatedSeries(f.field, n_out, f.shift, f.rel, out,
                           f.effective_bound(), f.tail_zero)


def _two_shift_psi(f):
    """psi: Taylor shift to the (1+x)-basis, contract, shift back, sigma^-1."""
    p, mod = f.field.p, f.field.p ** f.rel
    out = [intpoly.taylor_shift(shift(col, -1, mod)[::p], mod)
           for col in f.coords]
    b = f.effective_bound()
    return TruncatedSeries(f.field, f.n // p, f.shift, f.rel,
                           _sigma_cols(f.field, f.rel, out, inverse=True),
                           None if b is None else (b[0] + b[1], b[1], b[2]),
                           f.tail_zero)


def _x_basis_d(f):
    """D = (1+x) d/dx on x-basis coefficients: i a_i + (i+1) a_(i+1)."""
    mod = f.field.p ** f.rel
    n_out = f.n if f.tail_zero else f.n - 1
    out = [[(i * c[i] + (i + 1) * c[i + 1]) % mod for i in range(n_out + 1)]
           for c in (col + [0] for col in f.coords)]
    b = f.effective_bound()
    return TruncatedSeries(f.field, n_out, f.shift, f.rel, out,
                           None if b is None else (b[0], b[1], b[2] + 1),
                           f.tail_zero)


_ORACLES = {so.phi_op: _two_shift_phi, so.psi_op: _two_shift_psi,
            so.d_op: _x_basis_d}
_CHAINS = [(so.phi_op,), (so.psi_op,), (so.d_op,),
           (so.phi_op, so.psi_op), (so.d_op, so.phi_op), (so.d_op, so.psi_op),
           (so.psi_op, so.d_op), (so.phi_op, so.d_op)]


def _keeps_fresh_coordinates(s):
    """Kept (1+x)-coordinates, if any, are those of the series' residues."""
    if s._ycoords is None:
        return True
    mod = s.field.p ** s.rel
    return s.tail_zero and s._ycoords == [shift(col, -1, mod)
                                          for col in s.coords]


def _check_chains(s):
    for chain in _CHAINS:
        got, want = s, _layout(s)
        for op in chain:
            if op is so.psi_op and not got.tail_zero:
                # psi of a truncated series depends on its unknown tail
                with pytest.raises(TailBoundError):
                    op(got)
                break
            got = op(got)
            assert _keeps_fresh_coordinates(got)
            want = _layout(_ORACLES[op](TruncatedSeries(s.field, *want)))
            assert _layout(got) == want, [op.__name__ for op in chain]
    assert _keeps_fresh_coordinates(s)


def _random_series(field, rng, n, tail_zero, bound=None, scale=1):
    p, f = field.p, field.f
    coeffs = [field.element([rng.randrange(p ** 20) for _ in range(f)])
              for _ in range(n + 1)]
    return TruncatedSeries.make(field, coeffs, n=n, bound=bound,
                                tail_zero=tail_zero)._scalar_mul(scale)


@pytest.mark.parametrize("p", [3, 5, 7, 11])
@pytest.mark.parametrize("f", [1, 2, 3])
def test_operators_on_kept_coordinates_match_two_shifts(p, f):
    field = UnramifiedField(p, f, 20)
    rng = random.Random(1000 * p + f)
    for _ in range(2):
        n = rng.randint(2 * p + 1, 4 * p)
        exact = _random_series(field, rng, n, True,
                               scale=Fraction(p) ** rng.randint(-2, 2))
        # D before and after the first operator made the coordinates
        assert exact._ycoords is None
        assert _layout(so.d_op(exact)) == _layout(_x_basis_d(exact))
        _check_chains(exact)
        for bound in (None, (0, 0, 0), (1, 1, 0)):
            _check_chains(_random_series(field, rng, n, False, bound))


@pytest.mark.parametrize("p", [3, 5, 7, 11])
@pytest.mark.parametrize("f", [1, 2, 3])
def test_phi_at_the_strided_leaf_edges_matches_two_shifts(p, f):
    # phi's shift at stride p against sigma, shift, stretch and shift back,
    # with N + 1 coordinates at the leaf, one past it and past the first
    # split; psi of the result against the two-shift psi of the oracle's
    field = UnramifiedField(p, f, 20)
    rng = random.Random(10 * p + f)
    rel = _random_series(field, rng, 1, True).rel
    leaf = intpoly._leaf_length(p ** rel, p)
    for n in (leaf - 1, leaf, 2 * leaf):
        s = _random_series(field, rng, n, True)
        assert s.rel == rel
        got, want = so.phi_op(s), _two_shift_phi(s)
        assert _layout(got) == _layout(want), n
        assert _layout(so.psi_op(got)) == _layout(_two_shift_psi(want)), n
        assert so.psi_op(got).truncate(n).equals(s)


def test_phi_adds_no_leaf_rows_to_the_binomial_cache():
    # the leaf rows of phi's and ycoords' shifts are made uncached: within
    # one leaf phi adds no row to _binomial_row, and past one split it adds
    # the one row of each shift's halving product
    field = UnramifiedField(5, 1, 20)
    rng = random.Random(4)
    rel = _random_series(field, rng, 1, True).rel
    leaf = intpoly._leaf_length(5 ** rel, 5)
    assert leaf < intpoly._leaf_length(5 ** rel, 1) <= 2 * leaf
    for n, rows in ((leaf - 1, 0), (2 * leaf - 1, 2)):
        s = _random_series(field, rng, n, True)
        intpoly._binomial_row.cache_clear()
        intpoly._leaf_rows.cache_clear()
        so.phi_op(s)
        assert intpoly._leaf_rows.cache_info().currsize == 2
        assert intpoly._binomial_row.cache_info().currsize == rows, n


@pytest.mark.parametrize("p", [3, 5])
def test_operators_share_one_factor_one_leaf_table(p):
    # ycoords' inverse shift and psi's shift back read the same factor-1
    # rows; phi adds its own at factor p, and nothing else is built
    field = UnramifiedField(p, 1, 20)
    s = _random_series(field, random.Random(p), 4 * p, True)
    mod = p ** s.rel
    intpoly._leaf_rows.cache_clear()
    so.psi_op(so.phi_op(s))
    so.psi_op(s)
    assert intpoly._leaf_rows.cache_info().currsize == 2
    intpoly._leaf_rows(mod, 1)
    intpoly._leaf_rows(mod, p)
    assert intpoly._leaf_rows.cache_info().currsize == 2


@pytest.mark.parametrize("p, f", [(3, 1), (5, 2), (7, 3), (11, 1)])
def test_derived_series_carry_no_stale_coordinates(p, f):
    field = UnramifiedField(p, f, 20)
    rng = random.Random(p + 100 * f)
    n = 3 * p
    g = _random_series(field, rng, n, True)
    so.phi_op(g)  # g now keeps its (1+x)-coordinates
    assert g._ycoords is not None
    h = _random_series(field, rng, n, True)
    divisible = TruncatedSeries.make(
        field, [p * rng.randrange(p ** 20) for _ in range(n + 1)], n=n)
    so.psi_op(divisible)
    derived = [g._scalar_mul(Fraction(p, 3)), g._scalar_mul(field.coerce(2)),
               divisible.normalized(), g.truncate(n + 3), g.truncate(n - 2),
               g.truncate(n - 2).as_polynomial(), g.as_polynomial(), g + h,
               g - g, -g, TruncatedSeries.one(field, n)]
    assert divisible.normalized().shift == divisible.shift + 1
    for s in derived:
        assert _keeps_fresh_coordinates(s)
        _check_chains(s)


@pytest.mark.parametrize("op, n", [(so.phi_op, 1), (so.psi_op, 25)])
def test_sigma_rows_bound_the_claimed_window(op, n):
    # the rows of sigma(t^l), l >= 1, are known to _sigma_prec digits: an
    # operator on x*t held to 62 digits claims no more than those rows give,
    # and agrees with the same sigma in a 100-digit field to what it claims
    K = UnramifiedField(5, 2, 20)
    big = UnramifiedField(5, 2, 100, defpoly=K.defpoly)

    def x_times(c):
        return TruncatedSeries.make(c.field, [c.field.zero(c.prec), c], n=n,
                                    prec=c.prec)

    out = op(x_times(K.gen(62)))
    ref = op(x_times(big.gen(100)))
    assert out.prec == K._sigma_prec < 62
    for i in range(out.n + 1):
        assert (big.coerce(out.coeff(i)) - ref.coeff(i)).is_zero
    # row 0 of sigma is exact: Q_p coefficients, and every f = 1 series,
    # keep their whole window
    assert op(x_times(K.one(62))).prec == 62
    lg = so.log_series(K, 25).as_polynomial()
    assert op(lg).prec == lg.prec > K._sigma_prec
    assert op(x_times(UnramifiedField(5, 1, 20).one(62))).prec == 62
    # psi still inverts phi on the capped window
    s = x_times(K.gen(62))
    assert so.psi_op(so.phi_op(s)).truncate(n).equals(s)
