"""The benchmark's three workloads: seeded inputs, timed cases and checks.

``build(name, seed)`` runs the set-up of one workload: it makes every input
from the seed (certifying generated modules through the library) and returns
the fixed list of cases.  A case is ``(kind, run, check)``: ``run()`` makes
the library calls that are timed and returns their outputs; ``check(out)``
returns the names of the checks that failed (an empty list when all hold).
A ``run`` that makes several calls is a generator that yields between them,
so that each call is timed as a step of its own; it returns its outputs.

Checks compare against work done here in plain integers and rationals, or
against properties the method must have; never against stored output.

The library is reached through module attributes (``so.phi_op``, not an
imported name), so that the traced run sees every call.
"""

import random
from fractions import Fraction
from itertools import combinations
from math import comb

from padic_hodge import analytic, errors, generators, modules, serialize
from padic_hodge import seriesops as so
from padic_hodge.padics import UnramifiedField
from padic_hodge.series import TruncatedSeries, INFINITE

PREC = 20            # user-facing precision of every field
C_RANGE = range(2, 15)


def _units(rng, p):
    u = rng.randrange(1, p ** 3)
    while u % p == 0:
        u = rng.randrange(1, p ** 3)
    return u


# ----------------------------------------------------------------------
# operators: phi, psi, D and gamma_c on random series
# ----------------------------------------------------------------------

def substitute(coeffs, h, mod, length):
    """Schoolbook f(h(x)) mod (x^length, mod) by Horner, in plain integers;
    ``h`` is a short polynomial with h(0) = 0."""
    acc = [0] * length
    for c in reversed(coeffs):
        new = [0] * length
        for k, hk in enumerate(h):
            if hk and k < length:
                new[k:] = [a + hk * b for a, b in zip(new[k:], acc)]
        new[0] += c
        acc = [v % mod for v in new]
    return acc


def _same(l, r):
    m = min(l.n, r.n)
    return l.truncate(m).equals(r.truncate(m))


def _operator_case(field, g, c, oracle):
    p = field.p

    def run():
        o = {}
        o["pg"] = so.phi_op(g)
        yield
        o["dg"] = so.d_op(g)
        yield
        o["gc"] = so.gamma_action(g, c)
        yield
        o["psi_pg"] = so.psi_op(o["pg"])
        yield
        o["d_pg"] = so.d_op(o["pg"])
        yield
        o["phi_dg"] = so.phi_op(o["dg"])
        yield
        o["psi_dg"] = so.psi_op(o["dg"])
        yield
        o["d_psi_g"] = so.d_op(so.psi_op(g))
        yield
        o["d_gc"] = so.d_op(o["gc"])
        yield
        o["gc_dg"] = so.gamma_action(o["dg"], c)
        return o

    def check(o):
        bad = []
        if not o["psi_pg"].truncate(g.n).equals(g):
            bad.append("psi.phi=id")
        if not _same(o["d_pg"], o["phi_dg"]._scalar_mul(p)):
            bad.append("D.phi=p.phi.D")
        if not _same(o["psi_dg"], o["d_psi_g"]._scalar_mul(p)):
            bad.append("psi.D=p.D.psi")
        if not _same(o["d_gc"], o["gc_dg"]._scalar_mul(c)):
            bad.append(f"D.gamma_{c}=c.gamma_{c}.D")
        if oracle:
            mod = p ** g.rel
            col = g.coords[0]
            pg, gc = o["pg"], o["gc"]
            h_phi = [comb(p, i) for i in range(p + 1)]
            h_phi[0] = 0
            if (pg.shift, pg.rel) != (g.shift, g.rel) or pg.coords[0] != \
                    substitute(col, h_phi, mod, pg.n + 1):
                bad.append("phi=schoolbook")
            h_gam = [comb(c, i) for i in range(c + 1)]
            h_gam[0] = 0
            if (gc.shift, gc.rel) != (g.shift, g.rel) or gc.coords[0] != \
                    substitute(col, h_gam, mod, gc.n + 1):
                bad.append(f"gamma_{c}=schoolbook")
        return bad

    return f"operators-p{p}", run, check


def build_operators(rng):
    """11 series at p = 5 (N = 125) and one at p = 7 (N = 343), f = 1, mod
    p^60.  gamma_c costs more as c grows, so every round has the same
    multiset of c: each unit in 2..14 once at p = 5, and 6 at p = 7; the
    seed draws the series and which series gets which c.  Three of the
    p = 5 cases are also checked against a schoolbook substitution."""
    units5 = [u for u in C_RANGE if u % 5]
    specs = [(5, units5), (7, [6])]
    oracle_idx = set(rng.sample(range(len(units5)), 3))
    cases = []
    for p, cs in specs:
        field = UnramifiedField(p, 1, PREC, work_margin=40)
        n = p ** 3
        cs = rng.sample(cs, len(cs))
        for i, c in enumerate(cs):
            g = TruncatedSeries.make(
                field, [rng.randrange(p ** PREC) for _ in range(n + 1)], n=n)
            cases.append(_operator_case(field, g, c,
                                        p == 5 and i in oracle_idx))
    return cases


# ----------------------------------------------------------------------
# filtered phi-modules with recorded construction data
# ----------------------------------------------------------------------

class Built:
    """A certified module with the data chosen to build it: phi is
    P diag(u_i p^(s_i)) P^-1, so the columns of P span the stable lines."""

    def __init__(self, module, slopes, P, steps):
        self.module = module
        self.slopes = list(slopes)    # Frobenius slopes, sorted
        self.P = P
        self.steps = steps            # [(jump, integral basis vectors)]

    @property
    def t_H(self):
        """Sum of j * h_j; every step drops the dimension by one."""
        return sum(j for j, _ in self.steps)

    def degrees(self):
        """Sorted (dim, t_H, t_N) of every nonzero stable subspace, worked
        out here in rationals: a subspace is spanned by some columns of P,
        its t_N is the sum of their slopes, and its induced t_H comes from
        the dimensions of its intersections with the filtration steps."""
        d = len(self.slopes)
        cols = [[self.P[r][i] for r in range(d)] for i in range(d)]
        out = []
        for k in range(1, d + 1):
            for idx in combinations(range(d), k):
                span = [cols[i] for i in idx]
                dims = [k + len(vecs) - _rank(span + vecs)
                        for _, vecs in self.steps] + [0]
                t_H = sum(j * (dims[n] - dims[n + 1])
                          for n, (j, _) in enumerate(self.steps))
                out.append((k, t_H, sum(self.slopes[i] for i in idx)))
        return sorted(out)

    def max_slope(self):
        return max(Fraction(th - tn, k) for k, th, tn in self.degrees())


def _rref(rows):
    """Reduced row echelon form and rank of a small rational matrix."""
    m = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for col in range(len(m[0])):
        piv = next((r for r in range(rank, len(m)) if m[r][col]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        m[rank] = [x / m[rank][col] for x in m[rank]]
        for r in range(len(m)):
            if r != rank and m[r][col]:
                f = m[r][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[rank])]
        rank += 1
    return m, rank


def _rank(rows):
    return _rref(rows)[1]


def _unimodular(rng, d):
    m = [[int(i == j) for j in range(d)] for i in range(d)]
    for _ in range(2 * d):
        i, j = rng.randrange(d), rng.randrange(d)
        if i != j:
            c = rng.randint(-2, 2)
            m[i] = [a + c * b for a, b in zip(m[i], m[j])]
    return m


def _inverse(m):
    d = len(m)
    aug, _ = _rref([list(row) + [int(i == j) for j in range(d)]
                    for i, row in enumerate(m)])
    return [row[d:] for row in aug]


def _conjugated(rng, p, slopes):
    """phi matrix P diag(u_i p^s_i) P^-1 with P integral unimodular; P is
    fixed by Frobenius, so the slopes of phi^f / f are the s_i."""
    d = len(slopes)
    P = _unimodular(rng, d)
    diag = [Fraction(_units(rng, p)) * Fraction(p) ** s for s in slopes]
    Pinv = _inverse(P)
    A = [[sum(P[i][k] * diag[k] * Pinv[k][j] for k in range(d))
          for j in range(d)] for i in range(d)]
    return A, P


def _module(field, A, steps):
    F = field.coerce
    d = len(A)
    filt = [(j, modules.Subspace(field, d, [[F(c) for c in v] for v in vecs]))
            for j, vecs in steps]
    return modules.FilteredPhiModule(field, [[F(c) for c in row] for row in A],
                                     filt)


def _certified(M):
    try:
        return M.is_weakly_admissible().verdict
    except (errors.PadicError, ValueError):
        return False


def d2_shapes():
    """Every (slopes, jumps) of the d = 2 family: slopes a < b with
    -3 <= a <= 0 and b <= 1; j1 at most min(a, (a + b - 1) // 2) and within
    2 of it, j2 = a + b - j1 (so t_H = t_N and both eigenlines admissible)."""
    out = []
    for a in range(-3, 1):
        for b in range(a + 1, 2):
            top = min(a, (a + b - 1) // 2)
            out.extend(((a, b), (j1, a + b - j1))
                       for j1 in range(top - 2, top + 1))
    return out


def d3_shapes():
    """Every (slopes, jumps) of the d = 3 family: three slopes in -3..1,
    j1 within 2 below the least, j3 within 2 above the greatest, and
    j1 < j2 < j3 with j1 + j2 + j3 = t_N."""
    out = []
    for slopes in combinations(range(-3, 2), 3):
        for j1 in range(slopes[0] - 2, slopes[0] + 1):
            for j3 in range(slopes[2], slopes[2] + 3):
                j2 = sum(slopes) - j1 - j3
                if j1 < j2 < j3:
                    out.append((slopes, (j1, j2, j3)))
    return out


D2_SHAPES, D3_SHAPES = d2_shapes(), d3_shapes()


def spread(items, k):
    """k items evenly spaced through a list."""
    return [items[i * len(items) // k] for i in range(k)]


def wa_module(field, rng, shape, max_tries=100):
    """A certified weakly admissible module of the given shape; the seed
    draws the conjugating matrix, the units and the filtration vectors."""
    slopes, jumps = shape
    d = len(slopes)
    full = [[int(i == j) for j in range(d)] for i in range(d)]
    for _ in range(max_tries):
        A, P = _conjugated(rng, field.p, slopes)
        vecs = [[rng.randint(-3, 3) for _ in range(d)] for _ in range(d - 1)]
        if _rank(vecs) < d - 1:
            continue
        # a full flag: the whole space, then (d = 3) a plane, then a line
        steps = [(jumps[0], full)] + [(j, vecs[:d - 1 - n])
                                      for n, j in enumerate(jumps[1:])]
        M = _module(field, A, steps)
        if _certified(M):
            return Built(M, slopes, P, steps)
    raise RuntimeError(f"no weakly admissible module of shape {shape} "
                       f"within {max_tries} tries")


def split_module(field, rng, slopes, jumps):
    """Diagonal phi with unit multiples of p^slope and coordinate
    filtration steps: Fil^j is spanned by the e_i with jump_i >= j."""
    d = len(slopes)
    A = [[Fraction(_units(rng, field.p)) * Fraction(field.p) ** slopes[i]
          if i == j else 0 for j in range(d)] for i in range(d)]
    steps = [(j, [[int(k == i) for k in range(d)]
                  for i in range(d) if jumps[i] >= j])
             for j in sorted(set(jumps))]
    return _module(field, A, steps)


# ----------------------------------------------------------------------
# module-lattice: stable-subspace lattices, verdicts and tensor bounds
# ----------------------------------------------------------------------

def _module_json(built, margin):
    node = serialize.module_to_json(built.module)
    node["work_margin"] = margin
    return node


def _lattice_case(built, margin):
    node = _module_json(built, margin)
    d = built.module.d

    def run():
        M = serialize.module_from_json(node)
        yield
        lattice = M.phi_stable_subspaces()
        yield
        wa = M.is_weakly_admissible()
        yield
        lam = M.max_subspace_slope()
        yield
        f0 = M.fil1()
        yield
        f1 = M.twist(1).fil1()
        return M, lattice, wa, lam, f0, f1

    def check(o):
        M, lattice, wa, lam, f0, f1 = o
        bad = []
        if M.newton_slopes() != [Fraction(s) for s in built.slopes]:
            bad.append("newton-slopes")
        if len(lattice) != 2 ** d:
            bad.append("lattice-size")
        if M.t_H != built.t_H:
            bad.append("t_H")
        if not wa.verdict:
            bad.append("weakly-admissible")
        if sorted((r.subspace.dimension, r.t_H, r.t_N) for r in wa.rows) \
                != built.degrees():
            bad.append("subspace-degrees")
        if lam != built.max_slope():
            bad.append("max-subspace-slope")
        if not f1.contains(f0):
            bad.append("fil1-twist-monotone")
        return bad

    return f"module-d{d}-f{built.module.field.f}", run, check


def _pair_case(b1, b2, margin):
    n1, n2 = _module_json(b1, margin), _module_json(b2, margin)
    c1, c2 = b1.max_slope(), b2.max_slope()

    def run():
        m1 = serialize.module_from_json(n1)
        m2 = serialize.module_from_json(n2)
        yield
        return modules.tensor_slope_check(m1, m2, c1, c2)

    def check(cert):
        bad = []
        if not cert.verdict:
            bad.append("tensor-verdict")
        if cert.witness is None or cert.witness.slope > c1 + c2:
            bad.append("lambda<=c1+c2")
        return bad

    return "tensor-pair", run, check


def _gap(shape):
    (a, b), _ = shape
    return b - a


def pair_shapes(k):
    """k pairs of d = 2 shapes with different slope gaps (equal gaps make
    the middle tensor eigenvalues collide)."""
    pairs = []
    for first in spread(D2_SHAPES, k):
        j = (D2_SHAPES.index(first) + 7) % len(D2_SHAPES)
        while _gap(D2_SHAPES[j]) == _gap(first):
            j = (j + 1) % len(D2_SHAPES)
        pairs.append((first, D2_SHAPES[j]))
    return pairs


# (field degree f, shapes) of the module cases, at work margin 40
LATTICE_MODULES = [(1, spread(D2_SHAPES, 15)), (1, spread(D3_SHAPES, 3)),
                   (2, spread(D2_SHAPES, 1))]
LATTICE_PAIRS = pair_shapes(2)


def build_module_lattice(rng):
    """Module cases: every other d = 2 shape and three d = 3 shapes at
    f = 1, one d = 2 shape at f = 2 (work margin 40); two tensor pairs of
    d = 2 modules at f = 1 with different slope gaps (work margin 140)."""
    cases = []
    for f, shapes in LATTICE_MODULES:
        field = UnramifiedField(5, f, PREC, work_margin=40)
        cases.extend(_lattice_case(wa_module(field, rng, shape), 40)
                     for shape in shapes)
    field = UnramifiedField(5, 1, PREC, work_margin=140)
    for s1, s2 in LATTICE_PAIRS:
        cases.append(_pair_case(wa_module(field, rng, s1),
                                wa_module(field, rng, s2), 140))
    return cases


# ----------------------------------------------------------------------
# log-division: division by log(1+x), log orders and the engine
# ----------------------------------------------------------------------

def equals_poly(s, coeffs):
    """Does the series agree with the integer polynomial to its precision?
    (in plain integers: residues scaled to a common window)."""
    p = s.field.p
    low = min(s.shift, 0)
    mod = p ** (s.prec - low)
    scale_s = p ** (s.shift - low)
    scale_c = p ** (-low)
    for i in range(s.n + 1):
        c = coeffs[i] if i < len(coeffs) else 0
        if any(col[i] for col in s.coords[1:]):
            return False
        if (s.coords[0][i] * scale_s - c * scale_c) % mod:
            return False
    return True


def _roundtrip_case(f, r, h):
    def run():
        lo = so.log_order(f, n_max=1)
        q = f
        for _ in range(r):
            yield
            q = so.divide_by_log(q, n_max=1)
        return lo, q

    def check(o):
        lo, q = o
        bad = []
        if lo != r:
            bad.append(f"log_order={lo}!={r}")
        if q.prec < PREC or not equals_poly(q, h):
            bad.append("recovery")
        return bad

    return f"roundtrip-r{r}", run, check


def _det_case(built, gs):
    t_H = built.t_H

    def run():
        return analytic.det_log_divisibility(gs, n_max=1)

    def check(rep):
        bad = []
        if not rep.verified:
            bad.append("verified")
        if rep.log_lower != INFINITE and rep.log_lower < -t_H:
            bad.append("log_lower>=-t_H")
        return bad

    return f"det-d{built.module.d}", run, check


def _wronskian_case(M, slopes, jumps, gv):
    forced = sum(jumps) < sum(slopes)
    mode = "strict" if forced else "wa"

    def run():
        return analytic.contradiction_pipeline(M, "wronskian", gv, n_max=1)

    def check(rep):
        bad = []
        if rep.verdict == "inconclusive":
            bad.append("inconclusive")
        elif (rep.verdict == "forced zero") != forced:
            bad.append(f"verdict={rep.verdict}")
        return bad

    return f"wronskian-{mode}", run, check


def _bounded(shape):
    """Log-power budget of the determinant cases: every jump >= -3 and
    t_H >= -4, so the division chain fits the work margin."""
    return min(shape[1]) >= -3 and sum(shape[1]) >= -4


# fixed mix of r: 10 at r = 3 (where the median case falls), 8 cheaper
ROUNDTRIP_R = [3, 2, 3, 1] * 3 + [3, 2] + [3, 3, 0, 3]
DET_SHAPES = [next(s for s in D2_SHAPES if _bounded(s)),
              next(s for s in D3_SHAPES if _bounded(s))]
# d = 2 split modules (slopes, jumps): one strict (every jump one below its
# slope) and one weakly admissible
WRONSKIAN_SHAPES = [((-3, -2), (-4, -3)), ((-3, -1), (-3, -1))]


def build_log_division(rng):
    """At p = 5, f = 1, N = 125: roundtrips log^r h at work margin 210,
    determinant divisibility at 250 and the Wronskian engine at 320."""
    p, n = 5, 125
    field = UnramifiedField(p, 1, PREC, work_margin=210)
    lg = so.log_series(field, n)
    cases = []
    for r in ROUNDTRIP_R:
        deg = rng.randint(0, 4)
        h = [rng.randrange(p ** PREC) for _ in range(deg + 1)]
        while h[0] % p == 0:
            h[0] = rng.randrange(p ** PREC)
        f = TruncatedSeries.make(field, h, n=n)
        for _ in range(r):
            f = (lg * f).truncate(n)
        cases.append(_roundtrip_case(f, r, h))
    field = UnramifiedField(p, 1, PREC, work_margin=250)
    for shape in DET_SHAPES:
        built = wa_module(field, rng, shape)
        gs = [generators.synthetic_member(built.module, rng, n, mode="adapted")
              for _ in range(built.module.d)]
        cases.append(_det_case(built, gs))
    field = UnramifiedField(p, 1, PREC, work_margin=320)
    for slopes, jumps in WRONSKIAN_SHAPES:
        M = split_module(field, rng, slopes, jumps)
        gv = generators.synthetic_member(M, rng, n, mode="adapted")
        cases.append(_wronskian_case(M, slopes, jumps, gv))
    return cases


WORKLOADS = {
    "operators": build_operators,
    "module-lattice": build_module_lattice,
    "log-division": build_log_division,
}


def build(name, seed):
    """The fixed case list of a workload for a seed."""
    return WORKLOADS[name](random.Random(f"{name}:{seed}"))
