"""Packed big-integer kernels for polynomial arithmetic modulo p^R.

A coefficient vector with entries in [0, mod) is packed into one Python
integer using fixed-width limbs sized so that a full convolution cannot
overflow a limb.  A polynomial product is a two-point Kronecker
substitution (Harvey, arXiv:0712.4046): each operand is split into its
even- and odd-index halves, packed at limbs of 2W bits and evaluated at
+2^W and -2^W, so the product costs two big-integer multiplications of half
the width of a single-point packing.  Sum and difference of the two values
give the even and odd coefficients of the product exactly, because each of
them is non-negative and below 2^(2W).  Wide products take Harvey's
four-point variant instead: the same evaluation at limbs of about W bits,
of the product and of its reversal, so four multiplications of a quarter
of the width; each coefficient's low half is read from the first value and
its high half from the second, in one pass.  The Taylor shift maps
(1+x)^(sk)-coordinates y to x-coefficients sum_k y_k (1+x)^(sk) (phi's at
s = p) by a divide-and-conquer stack of such products down to blocks whose
length follows the limb width and the stride; each block is one big-integer
sum of packed rows of (1+x)^(sk), unpacked once.  Composition f(g(x)) is
Brent-Kung baby-step/giant-step: the baby powers of g, each at its true
degree, are packed once, each block of f becomes an integer combination of
those packed integers, and only the giant steps cost polynomial products.
Since g(0) = 0, each power is x^k h_k and only the h_k are multiplied; the
block length follows deg g, and the packed powers of the last two g are
kept, so a second composition with the same g skips them.
Everything here is exact integer arithmetic; reduction mod p^R happens
only at unpack time.
``remainder`` reduces modulo a monic integer polynomial by synthetic
division, for elements of K = Q_p[t]/(g) and values at the cyclotomic
layers; ``UnramifiedField.mul_columns`` reduces series columns on its own.

These kernels are internal: the series layer is responsible for precision
bookkeeping and only hands in canonical residue vectors.
"""

from math import isqrt
from functools import lru_cache
from itertools import zip_longest


def _limb_bits(mod: int, length: int) -> int:
    # products of two reduced coefficients, summed over <= length terms
    bound = (mod - 1) * (mod - 1) * max(length, 1)
    bits = bound.bit_length() + 1
    return ((bits + 7) // 8) * 8


def pack(coeffs, limb_bytes: int) -> int:
    return int.from_bytes(b"".join(c.to_bytes(limb_bytes, "little")
                                   for c in coeffs), "little")


def unpack(n: int, count: int, limb_bytes: int):
    raw = n.to_bytes(limb_bytes * count, "little")
    return [int.from_bytes(raw[pos:pos + limb_bytes], "little")
            for pos in range(0, limb_bytes * count, limb_bytes)]


# polymul reads four-point once (min(len a, len b) * limb bits)^2 reaches
# _FOUR_POINT * max(coefficients kept, min(len a, len b)); its docstring
# gives the measurement
_FOUR_POINT = 1 << 24


def _two_point(a, b, limb_bytes: int):
    """Even and odd coefficient classes of a*b, each packed at limbs of
    2W = 8 ``limb_bytes`` bits: the halves of each operand are packed at
    that width and evaluated at +-2^W, and the sum and difference of the
    two products are sum_i c_(2i) 2^(2Wi) and sum_i c_(2i+1) 2^(2Wi)."""
    w = 4 * limb_bytes
    a_even, a_odd = pack(a[0::2], limb_bytes), pack(a[1::2], limb_bytes) << w
    b_even, b_odd = pack(b[0::2], limb_bytes), pack(b[1::2], limb_bytes) << w
    at_plus = (a_even + a_odd) * (b_even + b_odd)
    at_minus = (a_even - a_odd) * (b_even - b_odd)
    return (at_plus + at_minus) >> 1, (at_plus - at_minus) >> (w + 1)


def _four_point(a, b, hb: int, keep: int):
    """First ``keep`` coefficients of a*b, not reduced, from the two-point
    values of a*b and of its reversal at limbs of H = 8 ``hb`` bits, where
    2H - 1 bits hold every coefficient."""
    k = len(a) + len(b) - 1
    forward = _two_point(a, b, hb)
    reverse = _two_point(a[::-1], b[::-1], hb)
    out = [0] * keep
    for s in (0, 1):
        # class s, c_s, c_(s+2), .., c_(s+2m), read from its last entry
        # down is class (k - 1 - s) % 2 of the reversed product
        m = (k - 1 - s) // 2
        out[s::2] = _read_class(forward[s], reverse[(k - 1 - s) % 2], m,
                                (keep + 1 - s) // 2, hb)
    return out


def _read_class(f: int, r: int, m: int, n: int, hb: int):
    """d_0 .. d_(n-1) from F = sum_i d_i X^i and R = sum_i d_i X^(m-i),
    X = 2^H, H = 8 ``hb``, given 0 <= d_i < X^2 / 2.

    Write d_j = lo_j + X hi_j with lo_j, hi_j < X.  Digit j of F is lo_j
    plus the carry of d_0 .. d_(j-1), which is hi_(j-1) plus the borrow of
    the step before, so one pass from the bottom gives each lo_j.  The 2H
    bits of R from H(m - j) up are d_j + X lo_(j-1) + e_j mod X^2, where
    the spill of d_(j+1), d_(j+2), .. is e_j < (X^2 / 2) / (X - 1) < X:
    with the spare bit it stays below one digit, so hi_j is the top digit
    of that window less lo_(j-1), less one more when its bottom digit is
    below lo_j."""
    h = 8 * hb
    low = (1 << h) - 1
    digits = unpack(f & ((1 << h * n) - 1), n, hb)
    # digits m + 1 down to m - n + 1 of R
    top = unpack(r >> h * (m - n + 1), n + 1, hb)[::-1]
    out = []
    carry = prev = 0
    for digit, upper, below in zip(digits, top, top[1:]):
        t = digit - carry
        lo = t & low
        hi = (upper - prev + ((below - lo) >> h)) & low
        carry = hi - (t >> h)
        prev = lo
        out.append(lo + (hi << h))
    return out


def polymul(a, b, mod: int, out_len: int):
    """Truncated product of coefficient vectors ``a`` and ``b`` mod ``mod``.

    Returns the first ``out_len`` coefficients of a*b, entries reduced to
    [0, mod).

    Two-point Kronecker substitution (Harvey, arXiv:0712.4046).  Split
    a = E(x^2) + x O(x^2) into even- and odd-index halves and pack each half
    in limbs of 2W bits, 2W = ``_limb_bits``, so that a(2^W) = E + (O << W)
    and a(-2^W) = E - (O << W) are integers of half the width a single-point
    packing would take.  The product c = a*b is evaluated at both points,
    c(2^W) + c(-2^W) = 2 C_e(2^2W) and c(2^W) - c(-2^W) = 2^(W+1) C_o(2^2W),
    where C_e and C_o hold the even and odd coefficients of c.  Every
    coefficient of c is a sum of at most min(len a, len b) products of
    residues in [0, mod), so it is non-negative and below 2^(2W): the two
    packed halves read back exactly, limb by limb, and nothing carries
    between limbs.

    Four-point (Harvey's KS4) for wide products.  The same evaluation is
    made at limbs of only H bits, 2H = 2W rounded up to 16 bits, so 2H - 1
    bits still hold a coefficient, both of a*b and of its reversal
    x^(k-1) c(1/x), k = len a + len b - 1, the product of the reversed
    operands: four products of a quarter of single-point width instead of
    two of half.  The limbs of a class now overlap.  Class s of a*b,
    c_s, c_(s+2), .., read from its last entry down, is class
    (k - 1 - s) % 2 of the reversed product.  The forward value gives each
    coefficient's low H bits, its carries taken off from the bottom, and
    the reversed value its high H bits, read from the top: what the later
    coefficients spill into a window there is below 2^H, because the spare
    bit keeps each of them below 2^(2H - 1) (``_read_class``).

    The readback is a Python loop over the coefficients kept and the extra
    packing grows with the operands, while the saving grows about as the
    square of the width.  So four-point runs once (min(len a, len b) 2W)^2
    reaches ``_FOUR_POINT`` = 2^24 times max(kept, min(len a, len b)): from
    min(len a, len b) 2W = 46 000 bits for a series product keeping 126
    terms, from 102 000 for a Taylor-shift product of 626.  Measured on a
    2-core host, Python 3.11.7 (four-point over two-point time, best of 11
    interleaved calls, median of 3-5 inputs): a product of length-n
    operands truncated to n breaks even at n 2W = 16 000 bits at 5^230,
    32 000-48 000 at 7^60 and 5^60, 128 000 at 5^30; a full one at
    16 000-32 000 (5^230), 64 000 (7^60) and 90 000-128 000 (5^60).  Above that
    four-point takes 0.80 of the time at 5^230 and length 126, 0.84 for a
    full product at 7^60 and length 364, 0.67-0.70 from length 500 at
    5^230.  Of 288 cases (3^1 to 5^320, lengths 8-1000, out_len 1 to full)
    the rule took the path slower by more than 5 % in 15: 13 products
    truncated far below their operands' length stayed two-point (0.80-0.95
    four-point), and two of length 8 at 5^320 went four-point (1.09-1.12).
    """
    if not a or not b:
        return [0] * out_len
    # operands may arrive from wider residue windows; reduce before packing
    a = [x % mod for x in a]
    b = [x % mod for x in b]
    n = min(len(a), len(b))
    bits = _limb_bits(mod, n)
    keep = min(out_len, len(a) + len(b) - 1)
    if (n * bits) ** 2 >= _FOUR_POINT * max(keep, n):
        coeffs = _four_point(a, b, (bits + 15) // 16, keep)
    else:
        lb = bits // 8
        even, odd = _two_point(a, b, lb)
        # the limbs above `keep` are never read: mask them off first
        n_even, n_odd = (keep + 1) // 2, keep // 2
        coeffs = [0] * keep
        coeffs[0::2] = unpack(even & ((1 << (bits * n_even)) - 1), n_even, lb)
        coeffs[1::2] = unpack(odd & ((1 << (bits * n_odd)) - 1), n_odd, lb)
    return [c % mod for c in coeffs] + [0] * (out_len - keep)


def remainder(coeffs, low, mod: int):
    """Coefficients of sum_k coeffs[k] X^k modulo the monic
    X^e + sum_j low[j] X^j, e = len(low), reduced to [0, mod).

    Synthetic division from the top: the coefficient of each degree
    k >= e, reduced mod ``mod``, is cleared by subtracting it times
    X^(k-e) times the modulus.  A remainder modulo a monic polynomial is
    unique, so the entries below e are reduced only at the end.
    """
    e = len(low)
    r = list(coeffs) + [0] * (e - len(coeffs))
    terms = [(j, c) for j, c in enumerate(low) if c]
    for k in range(len(r) - 1, e - 1, -1):
        top = r[k] % mod
        if top:
            for j, c in terms:
                r[k - e + j] -= top * c
    return [x % mod for x in r[:e]]


# taylor_shift's leaf length times the width of a product of two residues
# at factor 1; taylor_shift's docstring gives the measurement
_LEAF_BITS = 1 << 15


def _leaf_length(mod: int, factor: int) -> int:
    """Length of ``taylor_shift``'s packed leaf at ``mod`` and stride
    ``factor``: _LEAF_BITS / (b factor^(1/3)), b the bits of a product of
    two residues, at least 128."""
    bits = max(2 * (mod - 1).bit_length(), 128)
    return max(1, int(_LEAF_BITS / (bits * factor ** (1 / 3))))


@lru_cache(maxsize=256)
def _binomial_row(k: int, mod: int):
    # coefficients of (1 + x)^k mod `mod`, from the top: C(k, i) by the
    # exact recurrence C(k, i - 1) = C(k, i) * i / (k - i + 1)
    row = [0] * (k + 1)
    c = 1
    for i in range(k, -1, -1):
        row[i] = c % mod
        c = c * i // (k - i + 1)
    return tuple(row)


@lru_cache(maxsize=16)
def _leaf_rows(mod: int, factor: int):
    """(leaf length L, limb bytes, packed (1 + x)^(factor k) mod ``mod``
    for k < L).

    The limbs hold a sum of L products of reduced residues.  The rows are
    made by ``_binomial_row``'s uncached function: its cache keeps the
    rows of the halving products, not these."""
    leaf = _leaf_length(mod, factor)
    lb = _limb_bits(mod, leaf) // 8
    row = _binomial_row.__wrapped__
    return leaf, lb, tuple(pack(row(factor * k, mod), lb)
                           for k in range(leaf))


def taylor_shift(coeffs, mod: int, factor: int = 1):
    """x-coefficients of sum_k y_k (1 + x)^(factor k) from the coordinates
    y = ``coeffs``, all mod ``mod``, factor (len y - 1) + 1 of them: f(x + 1)
    at factor 1, and at factor p the shift of y stretched to y_k x^(pk)
    (phi's), without making that p-sparse vector.  Its inverse is
    ``TruncatedSeries.ycoords``, this shift between two sign flips.

    Divide and conquer (von zur Gathen & Gerhard, ISSAC 1997) on y: y = lo
    + x^h hi gives lo's shift + (1 + x)^(factor h) times hi's, one
    ``polymul`` by a binomial row per level.  A block of at most L
    coefficients is one big-integer sum sum_k y_k P_k, where P_k packs the
    reduced row of (1 + x)^(factor k): the sum skips zero y_k, no limb
    overflows, and the block is unpacked once.  A leaf covers factor times
    as many output coefficients as it has big-integer terms.

    L = 2^15 / (b factor^(1/3)) (``_leaf_length``), b = 2 log2(mod) the
    width of a product of two residues, at least 128: at factor 1, 117 at
    5^60, 96 at 7^60, 30 at 5^230, 22 at 5^320 and 256 at 5^20; 68 at
    factor 5 and 5^60, 50 at factor 7 and 7^60.  Measured on a 2-core
    host, Python 3.11.7 (best of 9 interleaved calls, median of 3 inputs):
    a packed block of n coefficients, its rows sized for n terms, over one
    level of halving (two packed halves and one ``polymul``) takes

        modulus, factor   32    64    96    128   192   256
        5^60, 1           0.62  0.80  0.91  1.00  1.05  1.19
        7^60, 1           0.66  0.86  0.95  1.08  1.19  1.22
        5^230, 1          1.03  1.24  1.38  1.42  1.53  1.58
        5^320, 1          1.15  1.38  1.47  1.53  1.64  1.70
        2^60, 2           0.45  0.53  0.60  0.63  0.75  0.83
        3^60, 3           0.51  0.62  0.69  0.73  0.86  0.95
        5^60, 5           0.51  0.60  0.67  0.74  0.82  0.93
        7^60, 7           0.47  0.57  0.68  0.78  0.87
        5^230, 5          0.81  0.98  1.04  1.16
        7^230, 7          0.78  0.99

    so the crossover n b is 30 000-39 000 bits at factor 1 (about 28 at
    5^230, 21 at 5^320) and grows about as sqrt(factor): 52 000-84 000 at
    factors 3-7.  Above factor 1 the rows of a leaf at the crossover take
    factor^2 times the bytes of factor 1's, and a process builds them once
    per (mod, factor), so L stays below it: the rows take about
    2^26 factor^(1/3) / b bytes, 0.24 MB at 5^60 and factor 1, 0.41 MB at
    factor 5, where they take one to two shifts' time to build.  There a
    626-coefficient shift takes 0.62-0.65 of the time of the stretched
    vector's at factor 1 (0.75-0.82 at L = 2^15 / (b sqrt(factor))); at
    7^60 and factor 7 a 2402-coefficient one takes 0.77-0.80 (0.85-0.91).
    b is floored at 128 bits: the crossover at 5^20 and 3^1 is beyond 256.

    The rows are kept in ``_leaf_rows`` (16 entries) per (mod, factor);
    the halving products read ``_binomial_row`` (256 entries).
    """
    n = len(coeffs)
    out_len = factor * (n - 1) + 1 if n else 0
    leaf, lb, rows = _leaf_rows(mod, factor)
    if n <= leaf:
        s = sum((c % mod) * r for c, r in zip(coeffs, rows) if c)
        return [c % mod for c in unpack(s, out_len, lb)]
    h = n // 2
    lo = taylor_shift(coeffs[:h], mod, factor)
    hi = taylor_shift(coeffs[h:], mod, factor)
    shifted_hi = polymul(hi, _binomial_row(factor * h, mod), mod, out_len)
    return ([(c + s) % mod for c, s in zip(lo, shifted_hi)] +
            shifted_hi[len(lo):])


def stretch(coeffs, factor: int, out_len: int):
    """Index dilation c_k -> position factor*k (substitution y -> y^factor)."""
    out = [0] * out_len
    for k, c in enumerate(coeffs):
        pos = k * factor
        if pos >= out_len:
            break
        out[pos] = c
    return out


# compose keeps the plans of this many (g, mod, out_len, m); its
# docstring gives their size
_PLANS = 2


def _baby_steps(len_f: int, out_len: int, deg: int) -> int:
    """compose's block length m for f of length len_f and g of degree deg
    (1 <= deg < out_len); its docstring gives the measurement."""
    m0 = isqrt(len_f - 1) + 1
    return min(len_f, 2 * m0, isqrt(len_f * out_len // deg) + 1)


@lru_cache(maxsize=_PLANS)
def _compose_plan(g, mod: int, out_len: int, m: int):
    """(limb bytes, packed g^0 .. g^(m-1), their width, h_m) for ``compose``.

    ``g`` is a reduced tuple with g[0] = 0 and a nonzero last entry, so
    g^k = x^k h_k with h_1 = g[1:].  h_k = h_(k-1) h_1 is cut to
    out_len - k coefficients, all that x^k h_k keeps, and to its true
    length k (deg g - 1) + 1.  The packed g^k is packed h_k shifted up by
    k limbs, made as soon as h_k is; the limbs hold a sum of m products of
    reduced residues."""
    h = h1 = g[1:]
    lb = _limb_bits(mod, m) // 8
    packed, width = [1], 1
    for k in range(1, m):
        packed.append(pack(h, lb) << (8 * lb * k))
        width = max(width, k + len(h))
        keep = min(out_len - k - 1, (k + 1) * (len(h1) - 1) + 1)
        h = polymul(h, h1, mod, keep) if keep > 0 else []
    return lb, tuple(packed), min(out_len, width), tuple(h)


def compose(f, g, mod: int, out_len: int):
    """Coefficients of f(g(x)) truncated to ``out_len``; needs g[0] == 0.

    Baby-step/giant-step (Brent & Kung, J. ACM 1978; the evaluation scheme
    of Paterson & Stockmeyer, SIAM J. Comput. 1973).  Write f = sum_i
    B_i(x) x^(im) where each block B_i has m coefficients.  The baby powers
    g^0 .. g^(m-1) are packed once into limbs wide enough for a sum of m
    products, so each B_i(g) is a sum of small-integer multiples of packed
    integers.  Horner in G = g^m over the blocks then takes
    ceil(len f / m) - 1 products.

    No power is multiplied with its zero low terms.  Since g(0) = 0,
    g^k = x^k h_k, and only the h_k are multiplied: h_k = h_(k-1) h_1, cut
    to out_len - k coefficients and to its true length k (deg g - 1) + 1,
    so a short g (gamma_c for an integer c, where deg g = c) pays for its
    degree.  A giant step acc G + B_i(g) is x^m (acc h_m) + B_i(g), with
    acc and the product cut to out_len - m coefficients; acc keeps only its
    true length.

    m follows deg g (``_baby_steps``): with m0 = ceil(sqrt(len f)),
    m = min(len f, 2 m0, isqrt(len f out_len / deg g) + 1).  A dense g
    (deg g near out_len) keeps m0, the classic balance of m baby products
    against len f / m giant ones, each about out_len long.  A short g
    makes the baby products cheap, but the block sums grow with the width
    m deg g of the powers; len f / m giant products against len f sums of
    that width balance near m = sqrt(len f out_len / deg g), capped at
    2 m0, past which a single call loses.  Measured on a 2-core host,
    Python 3.11.7 (best of 5 interleaved calls per m, m from 0.75 m0 to
    3 m0, out_len = len f = N + 1, random g of the given degree), the
    rule's time over that of the fastest m, for one call and for a pair of
    calls that share the plan:

        modulus, N      deg g = 2   6          14         N/3        N
        5^60, 125       1.06/1.00   1.04/1.00  1.05/1.00  1.03/1.01  1.03/1.16
        7^60, 343       1.04/1.08   1.02/1.10  1.01/1.04  1.03/1.00  1.00/1.07
        3^60, 81        1.09/1.01   1.08/1.00  1.11/1.00  1.11/1.03  1.00/1.12
        11^20, 121      1.07/1.00   1.14/1.02  1.07/1.00  1.04/1.06  1.00/1.14
        5^230, 125      1.00/1.00   1.08/1.01  1.06/1.00  1.05/1.02  1.02/1.10

    The fastest single call took 1.2-2 m0 for a short g (up to 2.5 m0 at
    7^60) and 0.75-1.2 m0 for a dense one, where 2 m0 takes 1.2 times as
    long; the fastest pair took 1.5-3 m0 for a short g.  m0 for every g, as
    before, took 1.01-1.26 of the fastest single call and 1.13-1.40 of the
    fastest pair for a short g.

    The plan, the packed baby powers and h_m, is kept in an ``lru_cache``
    of ``_PLANS`` = 2 entries keyed on (g reduced and without its zero
    tail, mod, out_len, m): gamma_c hands one g to every coordinate of a
    series and to every series it acts on at one N and window.  A plan
    takes about 0.1 MB at 5^60, N = 125 and 0.2 MB at 7^60, N = 343.
    """
    if g and g[0] % mod != 0:
        raise ValueError("composition requires g(0) = 0")
    g = [c % mod for c in g[:out_len]]
    while g and not g[-1]:
        g.pop()
    if not f or not g:
        # g = 0 mod x^out_len, so f(g) = f(0)
        out = [0] * out_len
        if f and out:
            out[0] = f[0] % mod
        return out
    m = _baby_steps(len(f), out_len, len(g) - 1)
    lb, packed, width, giant = _compose_plan(tuple(g), mod, out_len, m)

    def block(i):
        # B_i(g): no limb overflows, since it sums at most m products
        s = sum((c % mod) * q for c, q in zip(f[i:i + m], packed))
        return [c % mod for c in unpack(s, width, lb)]

    cut = out_len - m
    # x^m h_m vanishes mod x^out_len when cut <= 0: f(g) = B_0(g)
    starts = range(0, len(f) if cut > 0 else 1, m)
    acc = block(starts[-1])
    for i in reversed(starts[:-1]):
        prod = polymul(acc[:cut], giant, mod,
                       min(cut, len(acc) + len(giant) - 1))
        acc = [(a + b) % mod for a, b in
               zip_longest(block(i), [0] * m + prod, fillvalue=0)]
    return acc + [0] * (out_len - len(acc))
