"""Packed big-integer kernels for polynomial arithmetic modulo p^R.

A coefficient vector with entries in [0, mod) is packed into one Python
integer using fixed-width limbs sized so that a full convolution cannot
overflow a limb.  A polynomial product is a two-point Kronecker
substitution (Harvey, arXiv:0712.4046): each operand is split into its
even- and odd-index halves, packed at limbs of 2W bits and evaluated at
+2^W and -2^W, so the product costs two big-integer multiplications of half
the width of a single-point packing.  Sum and difference of the two values
give the even and odd coefficients of the product exactly, because each of
them is non-negative and below 2^(2W).  Taylor shifts f(x) -> f(x + delta)
are a divide-and-conquer stack of such products down to blocks of at most
``_LEAF`` coefficients; each block is one big-integer sum of packed rows of
(x + delta)^i, unpacked once.  Composition f(g(x)) is Brent-Kung
baby-step/giant-step: the baby powers of g, each at its true degree, are
packed once, each block of f becomes an integer combination of those packed
integers, and only the giant steps cost polynomial products.  Everything
here is exact integer arithmetic; reduction mod p^R happens only at unpack
time.
``remainder`` reduces modulo a monic integer polynomial by synthetic
division; it is the one reduction of K = Q_p[t]/(g) and of the values at
the cyclotomic layers.

These kernels are internal: the series layer is responsible for precision
bookkeeping and only hands in canonical residue vectors.
"""

from math import comb, isqrt
from functools import lru_cache


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
    """
    if not a or not b:
        return [0] * out_len
    # operands may arrive from wider residue windows; reduce before packing
    a = [x % mod for x in a]
    b = [x % mod for x in b]
    bits = _limb_bits(mod, min(len(a), len(b)))
    lb, w = bits // 8, bits // 2
    keep = min(out_len, len(a) + len(b) - 1)
    a_even, a_odd = pack(a[0::2], lb), pack(a[1::2], lb) << w
    b_even, b_odd = pack(b[0::2], lb), pack(b[1::2], lb) << w
    at_plus = (a_even + a_odd) * (b_even + b_odd)
    at_minus = (a_even - a_odd) * (b_even - b_odd)
    # the limbs above `keep` are never read: mask them off before unpacking
    n_even, n_odd = (keep + 1) // 2, keep // 2
    even = ((at_plus + at_minus) >> 1) & ((1 << (bits * n_even)) - 1)
    odd = ((at_plus - at_minus) >> (w + 1)) & ((1 << (bits * n_odd)) - 1)
    out = [0] * out_len
    out[0:keep:2] = [c % mod for c in unpack(even, n_even, lb)]
    out[1:keep:2] = [c % mod for c in unpack(odd, n_odd, lb)]
    return out


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


# taylor_shift's leaf length; its docstring gives the measured crossover
_LEAF = 96


@lru_cache(maxsize=256)
def _binomial_row(k: int, delta: int, mod: int):
    # coefficients of (x + delta)^k mod `mod`
    return tuple(comb(k, i) * pow(delta, k - i, mod) % mod for i in range(k + 1))


@lru_cache(maxsize=16)
def _leaf_rows(delta: int, mod: int):
    """(limb bytes, packed (x + delta)^i mod ``mod`` for i < _LEAF).

    The limbs hold a sum of _LEAF products of reduced residues."""
    lb = _limb_bits(mod, _LEAF) // 8
    row, packed = [1], []
    for _ in range(_LEAF):
        packed.append(pack(row, lb))
        row = [(a + delta * b) % mod for a, b in zip([0] + row, row + [0])]
    return lb, tuple(packed)


def taylor_shift(coeffs, delta: int, mod: int):
    """Coefficients of f(x + delta) given those of f, all mod ``mod``.

    Divide and conquer (von zur Gathen & Gerhard, ISSAC 1997): f = lo +
    x^h * hi gives f(x+d) = lo(x+d) + (x+d)^h * hi(x+d), one ``polymul``
    per level.  A block of at most ``_LEAF`` = 96 coefficients is one
    big-integer sum sum_i c_i P_i, where P_i packs the reduced row of
    (x + delta)^i: the sum skips zero c_i (phi's stretched vectors are
    p-sparse), no limb overflows, and the block is unpacked once.

    96 is the measured crossover at mod 5^60 and 7^60, the operators'
    window (2-core host, Python 3.11.7): a packed block of length n beats
    one level of halving (two packed halves and one ``polymul``) up to
    n = 96 there, up to n >= 256 at 5^20 and 3^1, and up to n = 48 at
    5^230.
    """
    n = len(coeffs)
    if n <= _LEAF:
        lb, rows = _leaf_rows(delta, mod)
        s = sum((c % mod) * r for c, r in zip(coeffs, rows) if c)
        return [c % mod for c in unpack(s, n, lb)]
    h = n // 2
    lo = taylor_shift(coeffs[:h], delta, mod)
    hi = taylor_shift(coeffs[h:], delta, mod)
    shifted_hi = polymul(hi, list(_binomial_row(h, delta, mod)), mod, n)
    return [(c + s) % mod for c, s in zip(lo, shifted_hi)] + shifted_hi[h:]


def stretch(coeffs, factor: int, out_len: int):
    """Index dilation c_k -> position factor*k (substitution y -> y^factor)."""
    out = [0] * out_len
    for k, c in enumerate(coeffs):
        pos = k * factor
        if pos >= out_len:
            break
        out[pos] = c
    return out


def contract(coeffs, factor: int):
    """Keep indices divisible by ``factor`` and divide them by it."""
    return [coeffs[k] for k in range(0, len(coeffs), factor)]


def compose(f, g, mod: int, out_len: int):
    """Coefficients of f(g(x)) truncated to ``out_len``; needs g[0] == 0.

    Baby-step/giant-step (Brent & Kung, J. ACM 1978).  With m = ceil(sqrt
    len f), write f = sum_i B_i(x) x^(im) where each block B_i has m
    coefficients.  The baby powers g^0 .. g^(m-1) are packed once into
    limbs wide enough for a sum of m products, so each B_i(g) is a sum of
    small-integer multiples of packed integers.  Horner in G = g^m over the
    blocks then takes ceil(len f / m) - 1 products, about 2 sqrt(len f)
    with the baby steps.  Each power g^k is multiplied at its true length
    min(out_len, k deg g + 1): a short g padded with zeros (gamma_c for an
    integer c, where deg g = c) pays for its degree, not for ``out_len``.
    """
    if g and g[0] % mod != 0:
        raise ValueError("composition requires g(0) = 0")
    if not f:
        return [0] * out_len
    g = [c % mod for c in g[:out_len]]
    while len(g) > 1 and not g[-1]:
        g.pop()
    deg = max(len(g) - 1, 0)
    m = isqrt(len(f) - 1) + 1
    powers = [[1], g]
    while len(powers) <= m:
        powers.append(polymul(powers[-1], g, mod,
                              min(out_len, len(powers) * deg + 1)))
    giant = powers.pop()
    lb = _limb_bits(mod, m) // 8
    packed = [pack(q, lb) for q in powers]
    width = max(len(q) for q in powers)

    def block(i):
        # B_i(g): no limb overflows, since it sums at most m products
        s = sum((c % mod) * q for c, q in zip(f[i:i + m], packed))
        return [c % mod for c in unpack(s, width, lb)] + [0] * (out_len - width)

    starts = range(0, len(f), m)
    acc = block(starts[-1])
    for i in reversed(starts[:-1]):
        acc = polymul(acc, giant, mod, out_len)
        acc = [(a + b) % mod for a, b in zip(acc, block(i))]
    return acc
