"""Seeded generators for the randomized verification suites.

Everything here is deterministic given a random.Random instance.  The
weakly admissible samplers are generate-and-certify: a draw is kept only if
the admissibility certificate passes, so the suites always run on verified
instances.  Synthetic members are built from log-power multiples of
filtration-adapted vectors; they satisfy every finitely checkable
hypothesis of the membership classes while leaving the asymptotic growth
condition to the structured/estimated order machinery.
"""

from fractions import Fraction

from .errors import PadicError
from .linalg import mat_mul, inverse, identity
from .series import TruncatedSeries
from .seriesops import LogPolynomial
from .modules import FilteredPhiModule, Subspace, _level_filtration
from .analytic import VectorSeries


def random_poly_series(field, rng, n, deg=None, unit_constant=False):
    """Random polynomial with integer coefficients, padded to degree n."""
    deg = n if deg is None else deg
    coeffs = [rng.randrange(field.p ** field.prec) for _ in range(deg + 1)]
    if unit_constant:
        c0 = coeffs[0]
        while c0 % field.p == 0:
            c0 = rng.randrange(field.p ** field.prec)
        coeffs[0] = c0
    return TruncatedSeries.make(field, coeffs, n=n)


def random_unit(rng, p):
    u = rng.randrange(1, p ** 3)
    while u % p == 0:
        u = rng.randrange(1, p ** 3)
    return u


def _unimodular(field, rng, d):
    """A small random integer matrix with unit determinant (shear product)."""
    m = [[1 if i == j else 0 for j in range(d)] for i in range(d)]
    for _ in range(2 * d):
        i, j = rng.randrange(d), rng.randrange(d)
        if i == j:
            continue
        c = rng.randint(-2, 2)
        for k in range(d):
            m[i][k] += c * m[j][k]
    return [[field.coerce(c) for c in row] for row in m]


def _conjugated_phi(field, rng, slopes, units):
    """P D sigma(P)^-1 with D = diag(units[i] p^slopes[i]) and a unimodular P
    drawn from rng; the slopes of phi^f / f are the slopes."""
    p, d = field.p, len(slopes)
    D = [[field.coerce(Fraction(units[i]) * Fraction(p) ** slopes[i])
          if i == j else field.zero() for j in range(d)] for i in range(d)]
    P = _unimodular(field, rng, d)
    sigmaP = [[field.sigma(c) for c in row] for row in P]
    return mat_mul(P, mat_mul(D, inverse(sigmaP)))


def split_module(field, rng, d=2, jumps_mode="wa"):
    """Diagonal Frobenius with coordinate filtration steps.

    jumps_mode 'wa' places each coordinate's jump at its slope (t_H = t_N
    on every stable subspace); 'strict' places it strictly below (a module
    of negative slope).  Slopes are distinct non-positive integers, so the
    stable subspaces are exactly the coordinate sums.
    """
    slopes = rng.sample(range(-3, 1), d)
    drop = 0 if jumps_mode == "wa" else rng.randint(1, 2)
    jumps = [s - drop for s in slopes]
    p = field.p
    A = [[field.coerce(Fraction(random_unit(rng, p)) * Fraction(p) ** slopes[i])
          if i == j else field.zero() for j in range(d)] for i in range(d)]
    return (FilteredPhiModule(field, A, _level_filtration(field, jumps)),
            slopes, jumps)


def _sample(field, what, draw, keep):
    """The first of 400 draws that ``keep`` accepts.  ``draw()`` returns a
    Frobenius matrix and filtration, or None for a draw rejected outright;
    a library refusal while building or keeping the module rejects the draw
    too.  Any other exception propagates: it is a defect, not a draw."""
    last = None
    for _ in range(400):
        parts = draw()
        if parts is None:
            continue
        try:
            M = FilteredPhiModule(field, *parts)
            if keep(M):
                return M
        except (PadicError, ArithmeticError, ValueError) as e:
            last = e
    raise RuntimeError(f"could not sample {what}") from last


def _weakly_admissible(M):
    return M.is_weakly_admissible().verdict


def random_wa_module_d2(field, rng):
    """Weakly admissible dimension-2 module with distinct integer slopes and
    a generic (non-eigen) filtration line; admissible by construction and
    re-certified."""
    p = field.p

    def draw():
        a = rng.randint(-3, 0)
        b = rng.randint(a + 1, 1)
        # j1 <= a keeps every eigenline admissible; j1 < j2 = a+b-j1 as well
        j1_max = min(a, (a + b - 1) // 2)
        j1 = rng.randint(j1_max - 2, j1_max)
        j2 = a + b - j1
        units = [random_unit(rng, p), random_unit(rng, p)]
        A = _conjugated_phi(field, rng, (a, b), units)
        line = [rng.randint(-4, 4) for _ in range(2)]
        if line == [0, 0]:
            return None
        return A, [(j1, Subspace(field, 2, identity(field, 2))),
                   (j2, Subspace(field, 2, [line]))]

    return _sample(field, "a weakly admissible d=2 module", draw,
                   _weakly_admissible)


def random_wa_module_d3(field, rng):
    """Weakly admissible dimension-3 module (generate and certify)."""
    p = field.p

    def draw():
        slopes = sorted(rng.sample(range(-3, 2), 3))
        t = sum(slopes)
        j1 = rng.randint(slopes[0] - 2, slopes[0])
        j3 = rng.randint(slopes[2], slopes[2] + 2)
        j2 = t - j1 - j3
        if not j1 < j2 < j3:
            return None
        units = [random_unit(rng, p) for _ in range(3)]
        A = _conjugated_phi(field, rng, slopes, units)
        v1 = [rng.randint(-3, 3) for _ in range(3)]
        v2 = [rng.randint(-3, 3) for _ in range(3)]
        plane = Subspace(field, 3, [v1, v2])
        if plane.dimension != 2:
            return None
        return A, [(j1, Subspace(field, 3, identity(field, 3))),
                   (j2, plane), (j3, Subspace(field, 3, [v1]))]

    return _sample(field, "a weakly admissible d=3 module", draw,
                   _weakly_admissible)


def random_wa_module(field, rng, d=None):
    d = d or rng.choice([2, 2, 3])
    if d == 2:
        return random_wa_module_d2(field, rng)
    return random_wa_module_d3(field, rng)


def random_wa_module_bounded(field, rng, d=None):
    """Weakly admissible module with a capped log-power budget: all jumps
    >= -3 and t_H >= -4, so determinant divisibility chains stay within the
    precision window of a division-sized field."""
    for _ in range(300):
        M = random_wa_module(field, rng, d)
        if min(M.jumps()) >= -3 and M.t_H >= -4:
            return M
    raise RuntimeError("could not sample a bounded weakly admissible module")


def random_h0_ncond_module(field, rng):
    """Weakly admissible d=2 module with h_0 != 0 satisfying the strict
    degree condition on Fil^0-avoiding subspaces (always true for this
    family: slopes a < b <= -1, jumps {a+b, 0}, generic line)."""
    p = field.p

    def draw():
        b = rng.randint(-2, -1)
        a = rng.randint(b - 2, b - 1)
        units = [random_unit(rng, p), random_unit(rng, p)]
        A = _conjugated_phi(field, rng, (a, b), units)
        line = [rng.randint(-4, 4), rng.randint(-4, 4)]
        if line == [0, 0]:
            return None
        return A, [(a + b, Subspace(field, 2, identity(field, 2))),
                   (0, Subspace(field, 2, [line]))]

    def keep(M):
        return (_weakly_admissible(M) and M.n_condition(0).verdict
                and M.hodge_degree()[0].get(0, 0) != 0)

    return _sample(field, "an h_0 != 0 module satisfying the degree "
                   "condition", draw, keep)


def synthetic_member(module, rng, n, mode="deep"):
    """log-power multiple of filtration-adapted vectors.

    mode 'deep' uses the uniform exponent -min(jump) on every adapted
    vector (all nontrivial filtration conditions hold by exact vanishing);
    mode 'adapted' uses the exponent matching each vector's own level (the
    evaluations land exactly on the filtration steps -- use on modules
    whose steps are phi-stable when the phi-twisted class is tested).
    """
    field = module.field
    vectors, levels = module.adapted_basis()
    u_max = -min(module.jumps())
    comps = None
    for vec, level in zip(vectors, levels):
        u = u_max if mode == "deep" else max(-level, 0)
        b = random_poly_series(field, rng, n, deg=2, unit_constant=True)
        cl = LogPolynomial({u: b})
        series = cl.expand(n)
        add = [series._scalar_mul(c) for c in vec]
        if comps is None:
            comps = add
        else:
            comps = [x + y for x, y in zip(comps, add)]
    return VectorSeries(module, comps)
