"""Constructors and references that only the tests use.

Each builds its value from the library's public data or, where a test
checks a fast path against its definition, from the one private helper
that path is made of.
"""

import math
from fractions import Fraction

from padic_hodge import intpoly
from padic_hodge.analytic import VectorSeries
from padic_hodge.modules import _fil_dim
from padic_hodge.series import TruncatedSeries


def x_plus_one_power(field, exponent, n, prec=None):
    """(1+x)^exponent as an exact polynomial (exponent >= 0)."""
    prec = prec if prec is not None else field.work_prec
    mod = field.p ** prec
    col = [math.comb(exponent, i) % mod for i in range(min(exponent, n) + 1)]
    col += [0] * (n + 1 - len(col))
    cols = [col] + [[0] * (n + 1) for _ in range(field.f - 1)]
    return TruncatedSeries(field, n, 0, prec, cols, bound=(Fraction(0), 0),
                           tail_zero=True)


def shift(y, delta, mod, factor=1):
    """sum_k y_k (x + delta)^(factor k) mod ``mod`` for delta = +-1:
    ``intpoly.taylor_shift`` at +1, and at -1 the same shift between two
    sign flips, since (x - 1)^m = (-1)^m (1 - x)^m: the entries y_k with
    factor k odd are negated before it, and the odd x-coefficients after."""
    if delta == 1:
        return intpoly.taylor_shift(y, mod, factor)

    def flip(col, stride):
        return [-c % mod if stride * k % 2 else c for k, c in enumerate(col)]

    return flip(intpoly.taylor_shift(flip(y, factor), mod, factor), 1)


def random_element(field, rng, prec=None, integral=True):
    """A seeded element of ``field`` at ``prec`` digits; with ``integral``
    false its coordinates may carry p^-1 or p^-2."""
    if prec is None:
        prec = field.prec
    lo = 0 if integral else -2
    coords = [rng.randrange(field.p ** prec) * Fraction(field.p) ** rng.randint(lo, 0)
              for _ in range(field.f)]
    return field.element(coords, prec=prec)


def from_eigen_terms(module, terms, n):
    """sum_l c_l(x) * v_l as a VectorSeries that keeps its eigen data.

    ``terms``: list of (vector over K, slope: Fraction, c_l: LogPolynomial).
    """
    field = module.field
    comps = [TruncatedSeries.zero(field, n, bound=(Fraction(0), 0, 0),
                                  tail_zero=False)
             for _ in range(module.d)]
    for vec, slope, cl in terms:
        series = cl.expand(n)
        for i, coord in enumerate(vec):
            if getattr(coord, "is_zero", False):
                continue
            comps[i] = comps[i] + series._scalar_mul(field.coerce(coord))
    return VectorSeries(module, comps,
                        eigen_data=[(s, c) for _, s, c in terms])


def slope_lambda(module):
    """(t_H - t_N) / d, the slope of a nonzero filtered phi-module."""
    if module.d == 0:
        raise ValueError("slope of the zero module is undefined")
    return Fraction(module.t_H - module.t_N, module.d)


def induced_fil_dim(module, S, j):
    """dim Fil^j of the filtration that ``module`` induces on S, from the
    ranks the stable-subspace lattice uses."""
    return _fil_dim(module._induced_hodge(S)[0], j)
