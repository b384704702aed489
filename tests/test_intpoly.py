"""Packed polynomial kernels against naive integer oracles."""

import random
from math import comb, isqrt

import pytest

from padic_hodge import intpoly

from helpers import shift


def naive_mul(a, b, mod, out_len):
    """Truncated product, reduced mod ``mod``; exact over Z for mod None."""
    out = [0] * out_len
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            if i + j < out_len:
                out[i + j] += x * y
    return out if mod is None else [c % mod for c in out]


def test_polymul_matches_naive():
    rng = random.Random(1)
    mod = 5 ** 24
    for _ in range(20):
        la, lb = rng.randint(1, 40), rng.randint(1, 40)
        a = [rng.randrange(mod) for _ in range(la)]
        b = [rng.randrange(mod) for _ in range(lb)]
        out_len = rng.randint(1, la + lb + 4)
        assert intpoly.polymul(a, b, mod, out_len) == naive_mul(a, b, mod, out_len)


@pytest.mark.parametrize("mod", [5, 5 ** 230], ids=["p^1", "p^230"])
def test_polymul_edges_against_naive(mod):
    # out_len above, at and below the full length a*b; unequal and length-1
    # operands; operand entries at and above mod; (70, 75) is four-point
    # at p^230 up to its full length
    rng = random.Random(mod % 1000 + 7)
    shapes = [(1, 1), (1, 9), (9, 1), (3, 17), (17, 3), (40, 40), (70, 75)]
    for la, lb in shapes:
        full = la + lb - 1
        for _ in range(3):
            a = [rng.choice([0, mod - 1, mod, mod + 1, 3 * mod - 1,
                             rng.randrange(mod), rng.randrange(5 * mod)])
                 for _ in range(la)]
            b = [rng.choice([0, mod - 1, mod, rng.randrange(mod),
                             rng.randrange(mod, 7 * mod)])
                 for _ in range(lb)]
            for out_len in {1, max(full - 1, 1), full, full + 1, full + 5}:
                assert intpoly.polymul(a, b, mod, out_len) == \
                    naive_mul(a, b, mod, out_len)


def four_point_length(mod):
    """The least n at which ``polymul`` reads a product of two length-n
    operands truncated to n four-point."""
    n = 1
    while (n * intpoly._limb_bits(mod, n)) ** 2 < intpoly._FOUR_POINT * n:
        n += 1
    return n


@pytest.mark.parametrize("digits", [1, 60, 230, 320])
@pytest.mark.parametrize("p", [3, 5, 7, 11])
def test_polymul_worst_case_limbs(p, digits):
    # every entry mod - 1: the middle coefficients of the product reach the
    # limb bound, the only inputs where a limb one bit short would carry;
    # lengths odd and even, each half of the operands on both sides of
    # CPython's Karatsuba cutoff (70 digits of 30 bits), and lengths at the
    # four-point crossover, balanced and not, with len a + len b - 1 odd
    # and even; at twice the crossover length the full product is
    # four-point too
    mod = p ** digits
    shapes = [(la, lb) for la in (1, 2, 3, 16, 17, 40, 41, 126, 313)
              for lb in sorted({la, 1, 17, 41})]
    x = four_point_length(mod)
    if x < 300:
        shapes += [(la, lb) for la in (x - 1, x, x + 1)
                   for lb in (la, la + 1, 2 * la + 5)]
        shapes += [(2 * x, 2 * x), (2 * x + 1, 2 * x)]
    for la, lb in shapes:
        a, b = [mod - 1] * la, [mod - 1] * lb
        full = la + lb - 1
        expect = naive_mul(a, b, mod, full + 2)
        for out_len in {1, 2, full // 2, full // 2 + 1, max(full - 1, 1),
                        full, full + 1, full + 2}:
            assert intpoly.polymul(a, b, mod, out_len) == \
                expect[:out_len], (la, lb, out_len)


def test_polymul_four_point_at_the_spare_bit(monkeypatch):
    # mod - 1 = m with 2 m^2 less than 2^H / 16 below 2^(2H), H = 280: the
    # inner coefficients are all 2 m^2, so each spills almost 2^H into the
    # window of the one before it, which limbs of H bits (no spare bit)
    # would carry out of; every product here is read four-point
    monkeypatch.setattr(intpoly, "_FOUR_POINT", 0)
    x = 1 << 280
    m = isqrt((x * x - 1) // 2)
    assert x * x - 2 * m * m < x // 16
    for la, lb in ((2, 2), (2, 6), (6, 2), (2, 7)):
        a, b = [m] * la, [m] * lb
        full = la + lb - 1
        for out_len in {1, full - 1, full, full + 2}:
            assert intpoly.polymul(a, b, m + 1, out_len) == \
                naive_mul(a, b, m + 1, out_len), (la, lb, out_len)


def test_polymul_four_point_only_from_the_crossover(monkeypatch):
    # the crossover counts the coefficients kept: at the crossover length a
    # truncated product is four-point and the full one is not
    calls = []
    real = intpoly._four_point
    monkeypatch.setattr(intpoly, "_four_point",
                        lambda *args: calls.append(args) or real(*args))
    mod = 5 ** 230
    x = four_point_length(mod)
    a = [mod - 1] * x
    intpoly.polymul(a[1:], a[1:], mod, x - 1)
    assert calls == []
    intpoly.polymul(a, a, mod, 2 * x - 1)
    assert calls == []
    intpoly.polymul(a, a, mod, x)
    assert len(calls) == 1


def test_taylor_shift_matches_binomials():
    rng = random.Random(2)
    mod = 5 ** 20
    for delta in (1, -1):
        for _ in range(10):
            n = rng.randint(1, 60)
            a = [rng.randrange(mod) for _ in range(n)]
            got = shift(a, delta, mod)
            expect = [0] * n
            for i, c in enumerate(a):
                for k in range(i + 1):
                    expect[k] = (expect[k] +
                                 c * comb(i, k) * pow(delta, i - k, mod)) % mod
            assert got == expect


@pytest.mark.parametrize("k", [0, 1, 95, 96, 97, 313, 1201])
def test_binomial_rows_match_comb(k):
    # rows built by the recurrence against math.comb, at the leaf length and
    # either side of it, and at phi's widest split for p = 7, N = 343
    for mod in (3, 3 ** 40, 5 ** 60, 5 ** 320):
        assert intpoly._binomial_row(k, mod) == tuple(
            comb(k, i) % mod for i in range(k + 1))


def binomial_shift(coeffs, delta, mod):
    """f(x + delta) for delta = +-1 by the direct binomial sum over Z,
    reduced at the end: c_i C(i, k) delta^(i-k) is added to x^k, each term
    the last times (i - k) / ((k + 1) delta), an exact division."""
    out = [0] * len(coeffs)
    for i, c in enumerate(coeffs):
        term = c * delta ** i
        for k in range(i + 1):
            out[k] += term
            term = term * (i - k) // ((k + 1) * delta)
    return [x % mod for x in out]


@pytest.mark.parametrize("digits", [1, 60, 230])
@pytest.mark.parametrize("p", [3, 5, 7, 11])
def test_taylor_shift_across_the_leaf(p, digits):
    # lengths on both sides of the packed leaf at this modulus and of the
    # first split, the empty input, and every entry mod - 1 (the largest
    # limb sums)
    rng = random.Random(100 * p + digits)
    mod = p ** digits
    leaf = intpoly._leaf_length(mod, 1)
    for n in (0, 1, leaf - 1, leaf, leaf + 1, 2 * leaf, 2 * leaf + 1):
        for a in ([rng.randrange(mod) for _ in range(n)], [mod - 1] * n):
            for delta in (1, -1):
                assert shift(a, delta, mod) == \
                    binomial_shift(a, delta, mod), (n, delta)


@pytest.mark.parametrize("p", [5, 7])
def test_taylor_shift_on_stretched_vectors(p):
    # the factor-1 shift of a p-sparse vector of length p N + 1 at N = p^3
    # (626 and 2402 coefficients), whose leaves see one nonzero entry in p;
    # the oracle takes about a second at 2402, so each input gets one delta
    rng = random.Random(p)
    n = p ** 3
    for digits in (1, 60, 230):
        mod = p ** digits
        for y, delta in (([rng.randrange(mod) for _ in range(n + 1)], 1),
                         ([mod - 1] * (n + 1), -1)):
            y = intpoly.stretch(y, p, p * n + 1)
            assert shift(y, delta, mod) == \
                binomial_shift(y, delta, mod), (digits, delta)


def strided_inputs(rng, mod, p):
    """(n, y) at every edge of the strided leaf at ``mod`` and factor p and
    of the first split, with random entries, every entry mod - 1, and a
    zero upper half."""
    leaf = intpoly._leaf_length(mod, p)
    for n in sorted({0, 1, 2, leaf - 1, leaf, leaf + 1, 2 * leaf,
                     2 * leaf + 1}):
        yield n, [rng.randrange(mod) for _ in range(n)]
        yield n, [mod - 1] * n
        yield n, [rng.randrange(mod) for _ in range(n - n // 2)] + \
            [0] * (n // 2)


def stretched(y, p):
    return intpoly.stretch(y, p, p * (len(y) - 1) + 1 if y else 0)


@pytest.mark.parametrize("digits", [1, 20, 60, 230, 320])
@pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
def test_strided_shift_matches_the_stretched_shift(p, digits):
    # sum_k y_k (x + delta)^(p k) is the factor-1 shift of y's p-stretch,
    # bit for bit, at every leaf edge of the strided kernel
    rng = random.Random(1000 * p + digits)
    mod = p ** digits
    for n, y in strided_inputs(rng, mod, p):
        for delta in (1, -1):
            got = shift(y, delta, mod, p)
            assert len(got) == (p * (n - 1) + 1 if n else 0)
            assert got == shift(stretched(y, p), delta, mod), (n, delta)


@pytest.mark.parametrize("digits", [1, 20, 60, 230, 320])
@pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
def test_strided_shift_matches_binomials(p, digits):
    # the direct binomial sum over Z on the stretched vector, at the leaf
    # edges up to length 400 of that vector (the oracle is quadratic in it)
    rng = random.Random(2000 * p + digits)
    mod = p ** digits
    for n, y in strided_inputs(rng, mod, p):
        if p * n > 400:
            continue
        for delta in (1, -1):
            assert shift(y, delta, mod, p) == \
                binomial_shift(stretched(y, p), delta, mod), (n, delta)


def test_leaf_length_follows_the_limb_width():
    # about 2^15 bits of leaf at factor 1, less per term at a wider stride,
    # and at least one coefficient at any modulus
    assert [intpoly._leaf_length(5 ** d, 1) for d in (20, 60, 230, 320)] == \
        [256, 117, 30, 22]
    assert intpoly._leaf_length(7 ** 60, 1) == 96
    assert intpoly._leaf_length(5 ** 60, 5) == 68
    assert intpoly._leaf_length(7 ** 60, 7) == 50
    assert intpoly._leaf_length(3, 1) == 256
    assert intpoly._leaf_length(7 ** 5000, 7) == 1


def test_taylor_shift_multiplies_only_above_the_leaf(monkeypatch):
    calls = []
    real = intpoly.polymul
    monkeypatch.setattr(intpoly, "polymul",
                        lambda *args: calls.append(args) or real(*args))
    mod = 5 ** 20
    for factor in (1, 5):
        leaf = intpoly._leaf_length(mod, factor)
        shift([mod - 1] * leaf, -1, mod, factor)
        assert calls == []
        shift([mod - 1] * (leaf + 1), -1, mod, factor)
        assert len(calls) == 1
        calls.clear()


def test_shift_roundtrip():
    rng = random.Random(3)
    mod = 7 ** 15
    a = [rng.randrange(mod) for _ in range(80)]
    back = shift(intpoly.taylor_shift(a, mod), -1, mod)
    assert back == a


def test_stretch_contract():
    a = [1, 2, 3, 4]
    s = intpoly.stretch(a, 3, 12)
    assert s[0] == 1 and s[3] == 2 and s[6] == 3 and s[9] == 4
    assert s[::3] == [1, 2, 3, 4]


def horner(f, g, mod, out_len, mul):
    """Composition oracle: Horner from the top, one product per coefficient."""
    acc = [0] * out_len
    for c in reversed(f):
        acc = mul(acc, g, mod, out_len)
        acc[0] = (acc[0] + c) % mod
    return acc


def test_compose_matches_naive():
    rng = random.Random(4)
    mod = 5 ** 18
    for _ in range(8):
        n = rng.randint(2, 25)
        f = [rng.randrange(mod) for _ in range(n)]
        g = [0] + [rng.randrange(mod) for _ in range(n - 1)]
        got = intpoly.compose(f, g, mod, n)
        assert got == horner(f, g, mod, n, naive_mul)


def _degree(g, mod, out_len):
    """deg g as compose sees it: reduced, cut to out_len, zero tail off."""
    g = [c % mod for c in g[:out_len]]
    return max((k for k, c in enumerate(g) if c), default=0)


def _edge_lengths(len_f, out_len, deg):
    """The longest lengths L <= len_f of f whose last block, of compose's
    m for L, is one short of m, exactly m long, or one coefficient."""
    found = {}
    for n in range(len_f, 0, -1):
        m = intpoly._baby_steps(n, out_len, deg)
        edge = {0: "full", 1: "one", m - 1: "short"}.get(n % m)
        if edge:
            found.setdefault(edge, n)
    return sorted(found.values())


def _binomial_g(c, mod, length):
    """(1+x)^c - 1 padded with zeros to ``length``, as integer gamma_c
    hands it over."""
    g = [0] + [comb(c, i) % mod for i in range(1, c + 1)]
    return g + [0] * (length - len(g))


def _compose_cases(rng, len_f, mod, wide):
    """Seeded (f, g, out_len) triples around one length of f.

    out_len runs below, at and above len f and down to 2 and 1, at most
    compose's m and below deg g; g is full (dense), the constant [0],
    shorter than out_len, or a binomial column (1+x)^c - 1, c in
    {2, 6, 14}, padded with zeros or with multiples of mod.  Each non-zero
    g also meets f cut to the lengths where the last block of m is one
    short, full, or one coefficient long.  With ``wide`` the inputs come
    from a window 125 times wider and must be reduced mod ``mod``.
    """
    top = mod * 125 if wide else mod
    f = [rng.randrange(top) for _ in range(len_f)]
    for out_len in sorted({1, 2, max(len_f - 3, 1), max(len_f, 1), len_f + 4}):
        full = [0] + [rng.randrange(top) for _ in range(out_len + 2)]
        short = [mod if wide else 0] + [rng.randrange(top)
                                        for _ in range(out_len // 2)]
        columns = [_binomial_g(c, mod, out_len + 2) for c in (2, 6, 14)]
        columns.append(columns[1] + [mod, 0, 3 * mod])
        for g in [full, [0], short] + columns:
            yield f, g, out_len
            deg = _degree(g, mod, out_len)
            if deg:
                for n in _edge_lengths(len_f, out_len, deg):
                    if n != len_f:
                        yield f[:n], g, out_len


@pytest.mark.parametrize("p", [3, 5, 7, 11])
@pytest.mark.parametrize("len_f", [0, 1, 2, 16, 17])
def test_compose_small_against_naive_horner(p, len_f):
    rng = random.Random(100 * p + len_f)
    windows = [(1, False), (9, True), (40, False)]
    if p == 5:
        windows.append((320, False))
    for digits, wide in windows:
        mod = p ** digits
        for f, g, out_len in _compose_cases(rng, len_f, mod, wide):
            assert intpoly.compose(f, g, mod, out_len) == \
                horner(f, g, mod, out_len, naive_mul)


@pytest.mark.parametrize("p, len_f, digits", [
    (3, 126, 60), (7, 126, 20), (11, 126, 40), (5, 126, 340),
    (3, 126, 1), (5, 126, 60),
    (3, 344, 30), (7, 344, 60), (11, 344, 20),
])
def test_compose_large_against_polymul_horner(p, len_f, digits):
    # polymul itself is checked against naive multiplication above
    rng = random.Random(1000 * p + len_f + digits)
    mod = p ** digits
    f = [rng.randrange(mod) for _ in range(len_f)]
    for out_len in (1, len_f - 7, len_f, len_f + 3):
        g = [0] + [rng.randrange(mod) for _ in range(out_len)]
        assert intpoly.compose(f, g, mod, out_len) == \
            horner(f, g, mod, out_len, intpoly.polymul)
    short = [0] + [rng.randrange(mod * p) for _ in range(len_f // 3)]
    assert intpoly.compose(f, short, mod, len_f) == \
        horner(f, short, mod, len_f, intpoly.polymul)
    assert intpoly.compose(f, [0], mod, len_f) == [f[0]] + [0] * (len_f - 1)
    # gamma_c's short columns, and f at the block edges of a short and a
    # dense g; out_len at most m
    dense = [0] + [rng.randrange(mod) for _ in range(len_f)]
    for g in [_binomial_g(c, mod, len_f) for c in (2, 6, 14)] + [dense]:
        deg = _degree(g, mod, len_f)
        lengths = _edge_lengths(len_f, len_f, deg) if len_f < 200 else []
        for n in [len_f] + lengths:
            assert intpoly.compose(f[:n], g, mod, len_f) == \
                horner(f[:n], g, mod, len_f, intpoly.polymul)
        assert intpoly._baby_steps(len_f, 5, _degree(g, mod, 5)) >= 5
        assert intpoly.compose(f, g, mod, 5) == \
            horner(f, g, mod, 5, naive_mul)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_compose_with_a_zero_tail(p):
    # g = (1+x)^c - 1 padded with zeros to out_len, as integer gamma_c hands
    # it over, also with tail entries that are multiples of mod; and short
    # g whose powers outgrow out_len
    rng = random.Random(7 * p)
    for digits in (1, 20, 60):
        mod = p ** digits
        for len_f, out_len in ((126, 126), (30, 20), (17, 40), (5, 3), (1, 9)):
            f = [rng.randrange(mod) for _ in range(len_f)]
            mul = naive_mul if len_f * out_len < 2000 else intpoly.polymul
            for c in (2, 6, 14):
                h = [0] + [comb(c, i) for i in range(1, c + 1)]
                short = [0] + [rng.randrange(mod) for _ in range(c)]
                for g in (h + [0] * out_len, h + [mod, 0, 2 * mod],
                          short + [0] * out_len):
                    g = g[:max(out_len, len(h))]
                    assert intpoly.compose(f, g, mod, out_len) == \
                        horner(f, g, mod, out_len, mul), (len_f, out_len, c)


def _plan_counts():
    info = intpoly._compose_plan.cache_info()
    return info.hits, info.misses


def test_compose_reuses_a_plan_for_another_f():
    rng = random.Random(21)
    mod, n = 5 ** 60, 126
    g = _binomial_g(6, mod, n)
    intpoly._compose_plan.cache_clear()
    for _ in range(3):
        f = [rng.randrange(mod) for _ in range(n)]
        assert intpoly.compose(f, g, mod, n) == \
            horner(f, g, mod, n, intpoly.polymul)
    # a zero tail, or one of multiples of mod, is the same g
    f = [rng.randrange(mod) for _ in range(n)]
    assert intpoly.compose(f, g[:7] + [mod, 0], mod, n) == \
        horner(f, g, mod, n, intpoly.polymul)
    assert _plan_counts() == (3, 1)


def test_compose_plans_differ_by_mod_and_out_len():
    rng = random.Random(22)
    f = [rng.randrange(7 ** 30) for _ in range(40)]
    g = _binomial_g(6, 7 ** 30, 40)
    intpoly._compose_plan.cache_clear()
    for mod, out_len in ((7 ** 30, 40), (7 ** 12, 40), (7 ** 30, 40),
                         (7 ** 12, 40), (7 ** 30, 33), (7 ** 30, 33)):
        assert intpoly.compose(f, g, mod, out_len) == \
            horner(f, g, mod, out_len, naive_mul)
    assert _plan_counts() == (3, 3)


def test_compose_with_interleaved_g():
    # more distinct g than the cache keeps, each met again after the others
    rng = random.Random(23)
    mod, n = 3 ** 20, 50
    gs = [_binomial_g(c, mod, n) for c in (2, 4, 5, 7, 8, 10)]
    gs.append([0] + [rng.randrange(mod) for _ in range(n - 1)])
    assert len(gs) > intpoly._PLANS
    intpoly._compose_plan.cache_clear()
    for _ in range(2):
        for g in gs + gs[::-1]:
            f = [rng.randrange(mod) for _ in range(n)]
            assert intpoly.compose(f, g, mod, n) == \
                horner(f, g, mod, n, naive_mul)


def test_compose_result_is_the_callers():
    rng = random.Random(24)
    mod, n = 5 ** 20, 60
    f = [rng.randrange(mod) for _ in range(n)]
    for g in (_binomial_g(2, mod, n), [0] + [rng.randrange(mod)
                                             for _ in range(n - 1)]):
        expect = horner(f, g, mod, n, naive_mul)
        g_copy = list(g)
        first = intpoly.compose(f, g, mod, n)
        first[:] = [0] * n
        first.append(1)
        assert intpoly.compose(f, g, mod, n) == expect
        assert g == g_copy


def test_compose_requires_zero_constant_term():
    mod = 7 ** 5
    for g in ([1, 1], [mod + 3], [-1, 0, 2]):
        with pytest.raises(ValueError):
            intpoly.compose([1, 2, 3], g, mod, 4)


def long_division(coeffs, low):
    """Quotient and remainder over Z of sum coeffs[k] X^k by the monic
    X^e + sum low[j] X^j, by schoolbook long division with no reduction."""
    e = len(low)
    r = list(coeffs)
    q = [0] * max(len(r) - e, 0)
    for k in range(len(r) - 1, e - 1, -1):
        c = q[k - e] = r[k]
        for j, d in enumerate(low + [1]):
            r[k - e + j] -= c * d
    return q, r[:e] + [0] * (e - len(r))


def _lows(rng, p, e, mod):
    """Moduli of degree e: small signed entries with zeros among them, a
    p-divisible (Eisenstein) shape, every entry mod - 1, and X^e."""
    small = [rng.choice([0, 0, 1, -1, p, -p, rng.randint(-p * p, p * p)])
             for _ in range(e)]
    eisenstein = [p * rng.randint(1, p) for _ in range(e)]
    return [small, eisenstein, [mod - 1] * e, [0] * e]


@pytest.mark.parametrize("digits", [1, 60, 230])
@pytest.mark.parametrize("p", [3, 5, 7])
def test_remainder_against_long_division(p, digits):
    rng = random.Random(10 * p + digits)
    mod = p ** digits
    for e in (1, 2, 3, 5, 20):
        for low in _lows(rng, p, e, mod):
            # fewer, as many and more coefficients than the degree e
            for length in sorted({0, 1, e - 1, e, e + 1, 2 * e + 3, 61}):
                for coeffs in ([rng.randrange(mod) for _ in range(length)],
                               [mod - 1] * length,
                               [rng.choice([0, mod - 1, rng.randrange(mod)])
                                for _ in range(length)]):
                    q, r = long_division(coeffs, low)
                    # the oracle itself: q * modulus + r is the input over Z
                    back = naive_mul(q, low + [1], None, length) if q else []
                    back += [0] * (length - len(back))
                    assert [x + y for x, y in zip(back, r + [0] * length)] \
                        == coeffs
                    got = intpoly.remainder(coeffs, low, mod)
                    assert got == [c % mod for c in r], (e, low, length)
