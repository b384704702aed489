"""Vector-valued series over a filtered phi-module: the operator
Phi = phi (x) phi, growth orders in the phi-twisted sense, membership in
the growth/filtration/vanishing classes of series, Wronskians, Phi-orbit
wedges, and the order-versus-log-divisibility contradiction engine.

Verdicts here are certificates at finite truncation and finitely many
cyclotomic layers; "inconclusive" is a first-class outcome and is never
silently collapsed into a boolean.
"""

from fractions import Fraction
from dataclasses import dataclass

from .errors import PrecisionError, TailBoundError
from .cyclotomic import CyclotomicLayer
from .linalg import solve, mat_transpose
from .series import TruncatedSeries, INFINITE
from .seriesops import (phi_op, d_op, psi_op, cyclotomic_evaluate, log_order,
                        rho_norm, growth_order, _slope_interval)
from .modules import FilteredPhiModule, Subspace, _mat_inverse


class VectorSeries:
    """Element of (truncated series) tensor D, in the module's ambient basis.

    ``eigen_data``, when present, records the structured form
    sum_l c_l(x) * v_l with phi^f(v_l) = (eigenvalue of slope a_l) v_l and
    c_l a LogPolynomial; the phi-twisted growth order is exact on this class.
    """

    def __init__(self, module: FilteredPhiModule, components,
                 eigen_data=None, psi_zero_checked=False):
        self.module = module
        self.components = list(components)
        if len(self.components) != module.d:
            raise ValueError("component count must match the module dimension")
        ns = {c.n for c in self.components}
        if len(ns) != 1:
            raise ValueError("components must share one truncation degree")
        self.eigen_data = eigen_data
        self.psi_zero_checked = psi_zero_checked

    @property
    def n(self):
        return self.components[0].n

    @property
    def is_zero(self):
        return all(c.is_zero for c in self.components)

    def truncate(self, n_new):
        return VectorSeries(self.module,
                            [c.truncate(n_new) for c in self.components],
                            self.eigen_data, self.psi_zero_checked)

    @staticmethod
    def from_eigen_terms(module, terms, n):
        """Build sum_l c_l(x) * v_l keeping the structured metadata.

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


def phi_vec(g: VectorSeries) -> VectorSeries:
    """Phi = (series phi) on components followed by the module's matrix."""
    module = g.module
    field = module.field
    phid = [phi_op(c) for c in g.components]
    n_min = min(c.n for c in phid)
    phid = [c.truncate(n_min) for c in phid]
    out = []
    for i in range(module.d):
        acc = None
        for j in range(module.d):
            a = module.phi_matrix[i][j]
            if a.is_zero:
                continue
            term = phid[j]._scalar_mul(a)
            acc = term if acc is None else acc + term
        out.append(acc if acc is not None
                   else TruncatedSeries.zero(field, n_min))
    return VectorSeries(module, out)


def phi_iterate(g: VectorSeries, k: int, cap=None) -> list:
    """[g, Phi g, ..., Phi^k g], each re-truncated to the starting degree."""
    cap = cap or g.n
    out = [g.truncate(cap)]
    cur = g
    for _ in range(k):
        cur = phi_vec(cur).truncate(cap)
        out.append(cur)
    return out


@dataclass
class PhiOrder:
    exact: bool
    value: Fraction | None = None
    interval: tuple | None = None
    note: str = ""


def phi_growth_order(g: VectorSeries, n_max: int = 3) -> PhiOrder:
    """Growth order in the phi-twisted sense.

    Exact (max over eigencomponents of slope + coefficient growth order)
    when the structured eigen decomposition is attached; otherwise a
    least-squares estimate over the radii, flagged as such.
    """
    if g.eigen_data is not None:
        best = None
        for slope, cl in g.eigen_data:
            if cl.is_zero:
                continue
            val = Fraction(slope) + growth_order(cl)
            if best is None or val > best:
                best = val
        if best is None:
            raise ValueError("phi growth order of the zero element is undefined")
        return PhiOrder(True, value=best)
    # estimate: slope fit of -log_p ||(1 (x) phi)^{-n} g||_{rho_n}
    module = g.module
    field = module.field
    ops = module.ops()
    cur = g.components
    ys = []
    try:
        Ainv = _mat_inverse(module.phi_matrix, ops)
        for n in range(1, n_max + 1):
            nxt = []
            for i in range(module.d):
                acc = None
                for j in range(module.d):
                    a = Ainv[i][j]
                    if a.is_zero:
                        continue
                    term = cur[j]._scalar_mul(field.sigma_inv(a))
                    acc = term if acc is None else acc + term
                nxt.append(acc if acc is not None
                           else TruncatedSeries.zero(field, cur[0].n))
            cur = nxt
            vals = []
            for c in cur:
                if not c.is_zero:
                    vals.append(rho_norm(c, n).value)
            if not vals:
                raise ValueError("zero vector series")
            ys.append(-min(vals))
    except (TailBoundError, PrecisionError) as e:
        return PhiOrder(False, note=f"estimate unavailable: {e}")
    if len(ys) < 2:
        return PhiOrder(False, note="not enough radii for an estimate")
    return PhiOrder(False, interval=_slope_interval(ys),
                    note="least-squares estimate; not used in verdicts")


# ----------------------------------------------------------------------
# membership reports
# ----------------------------------------------------------------------

@dataclass
class ConditionRow:
    j: int
    n: int
    kind: str            # 'subspace' | 'vanish'
    status: str          # 'member' | 'non-member' | 'trivial' | 'indeterminate'
    margin: object       # certified valuation floor or obstruction valuation


@dataclass
class MembershipReport:
    v: int
    J: tuple
    r: Fraction
    n_max: int
    tilde: bool
    psi_zero: bool | None
    order: PhiOrder | None
    order_pass: bool | None
    rows: list
    verdict: bool
    indeterminate: bool

    def failed_rows(self):
        return [row for row in self.rows if row.status == "non-member"]


def _derivative_ladder(components, depth):
    """[components, D(components), ..., D^depth(components)]: every rung
    after the first truncated to the shortest of its series."""
    ladder = [components]
    for _ in range(depth):
        ladder.append(_align([d_op(c) for c in ladder[-1]]))
    return ladder


def _phi_power_basis(module, S: Subspace, n: int):
    """Basis of phi^n(S) as ambient vectors."""
    vecs = [list(v) for v in S.basis]
    for _ in range(n):
        vecs = [module.apply_phi(v) for v in vecs]
    return vecs


def check_membership(g: VectorSeries, v: int, J, r, n_max: int,
                     tilde: bool = True, threshold=Fraction(1),
                     layer_cap: int = 3) -> MembershipReport:
    """Certificate-style membership in the growth/filtration/vanishing class
    with parameters (v, J, r) at layers n <= n_max.

    The filtration conditions compare D^(-j)(g)(zeta_n - 1) against
    K_n (x) phi^n Fil^j; ``tilde`` skips the psi(g) = 0 requirement (the
    variant defined for v <= 0 without the kernel condition).  Verdicts are
    'member up to layer n_max': the quantifier over all n is inherently
    truncated, and the order condition is binding only when it is exact.
    """
    module = g.module
    field = module.field
    if v > 0:
        raise ValueError("only v <= 0 is supported (reduce by twisting; "
                         "D^(-j) with j > 0 would need an antiderivative)")
    J = tuple(sorted(set(J)))
    jumps = module.jumps()
    if any(j > v for j in J):
        raise ValueError("J must consist of integers <= v")
    min_jump = min(jumps + [v])
    rows = []
    indeterminate = False
    verdict = True
    psi_zero = None
    if not tilde:
        psi_zero = all(psi_op(c).is_zero for c in g.components)
        if not psi_zero:
            verdict = False
    derivs = _derivative_ladder(g.components, -min_jump)
    ops_cache = {}
    for j in range(min_jump, v + 1):
        t = -j
        comps = derivs[t]
        filj = module.fil_at(j)
        for n in range(1, n_max + 1):
            layer = CyclotomicLayer(field, n, cap=layer_cap)
            try:
                evs = [cyclotomic_evaluate(c, layer) for c in comps]
            except TailBoundError:
                rows.append(ConditionRow(j, n, "subspace", "indeterminate",
                                         None))
                indeterminate = True
                continue
            certainty = min(ev.certainty for ev in evs)
            if certainty < threshold:
                rows.append(ConditionRow(j, n, "subspace", "indeterminate",
                                         certainty))
                indeterminate = True
                continue
            E = [ev.value for ev in evs]
            floors = []
            for ev, e in zip(evs, E):
                vv = e.valuation_or_none()
                floors.append(ev.certainty if vv is None
                              else min(Fraction(vv), ev.certainty))
            vanish_floor = min(floors)
            vanishes = vanish_floor >= threshold
            if j in J:
                if vanishes:
                    rows.append(ConditionRow(j, n, "vanish", "member",
                                             vanish_floor))
                else:
                    rows.append(ConditionRow(j, n, "vanish", "non-member",
                                             vanish_floor))
                    verdict = False
            # subspace condition
            if filj.dimension == module.d:
                rows.append(ConditionRow(j, n, "subspace", "trivial", None))
                continue
            if vanishes:
                rows.append(ConditionRow(j, n, "subspace", "member",
                                         vanish_floor))
                continue
            if filj.dimension == 0:
                rows.append(ConditionRow(j, n, "subspace", "non-member",
                                         vanish_floor))
                verdict = False
                continue
            key = (j, n)
            if key not in ops_cache:
                basis = _phi_power_basis(module, filj, n)
                cols = [[layer.from_field(c) for c in vec] for vec in basis]
                ops_cache[key] = mat_transpose(cols)
            A = ops_cache[key]
            cops = layer.ops(module.guard)
            try:
                x, resid = solve(A, E, cops)
            except PrecisionError:
                rows.append(ConditionRow(j, n, "subspace", "indeterminate",
                                         None))
                indeterminate = True
                continue
            # margin = residual valuation of the best solution, capped at
            # the certified level of the evaluations
            if x is not None:
                margin = certainty
            else:
                margin = min(min(Fraction(v) for v in resid), certainty)
            if margin >= threshold:
                rows.append(ConditionRow(j, n, "subspace", "member", margin))
            else:
                rows.append(ConditionRow(j, n, "subspace", "non-member",
                                         margin))
                verdict = False
    order = phi_growth_order(g) if not g.is_zero else None
    order_pass = None
    if order is not None and order.exact:
        order_pass = order.value <= Fraction(v) + Fraction(r)
        if not order_pass:
            verdict = False
    return MembershipReport(v, J, Fraction(r), n_max, tilde, psi_zero,
                            order, order_pass, rows,
                            verdict and not indeterminate, indeterminate)


# ----------------------------------------------------------------------
# Wronskians, orbit wedges, orbit relations
# ----------------------------------------------------------------------

def _series_det(matrix):
    """Determinant of a small matrix of truncated series (minor expansion)."""
    k = len(matrix)
    if k == 1:
        return matrix[0][0]
    if k == 2:
        return matrix[0][0] * matrix[1][1] - matrix[0][1] * matrix[1][0]
    acc = None
    for col in range(k):
        minor = [row[:col] + row[col + 1:] for row in matrix[1:]]
        term = matrix[0][col] * _series_det(minor)
        if col % 2 == 1:
            term = -term
        acc = term if acc is None else acc + term
    return acc


def _align(series_list):
    m = min(s.n for s in series_list)
    return [s.truncate(m) for s in series_list]


def wronskian_det(g: VectorSeries, order: int) -> TruncatedSeries:
    """det(g, D g, ..., D^(order-1) g) over the first ``order`` components.

    Detects linear dependence of the component series over the constants.
    """
    if order > g.module.d:
        raise ValueError("order exceeds the module dimension")
    cols = [g.components]
    cur = g.components
    for _ in range(order - 1):
        cur = [d_op(c) for c in cur]
        cols.append(cur)
    flat = _align([c for col in cols for c in col[:order]])
    matrix = [[flat[t * order + i] for t in range(order)]
              for i in range(order)]
    return _series_det(matrix)


def phi_orbit_wedge(g: VectorSeries, n: int) -> TruncatedSeries:
    """Top-wedge coordinate of the Phi-orbit.

    For a 2-dimensional module this is the pairwise wedge g /\\ Phi^n(g)
    (coefficient of e1 /\\ e2); in general the chain
    g /\\ Phi(g) /\\ ... /\\ Phi^n(g) requires n + 1 = d.
    """
    d = g.module.d
    if n == 0:
        if d == 1:
            return g.components[0]
        raise ValueError("degenerate single-vector wedge needs d = 1")
    orbit = phi_iterate(g, n)
    if d == 2:
        a, b = orbit[0], orbit[-1]
        flat = _align([a.components[0], a.components[1],
                       b.components[0], b.components[1]])
        return flat[0] * flat[3] - flat[1] * flat[2]
    if n + 1 != d:
        raise ValueError("chain wedge needs n + 1 = module dimension")
    flat = _align([c for h in orbit for c in h.components])
    matrix = [[flat[t * d + i] for t in range(d)] for i in range(d)]
    return _series_det(matrix)


@dataclass
class OrbitRelation:
    status: str            # 'ok' | 'independent' | 'indeterminate' | 'zero'
    v: int | None
    coefficients: list     # list of (numerator, denominator) series pairs


def orbit_relation(g: VectorSeries, v_max: int) -> OrbitRelation:
    """Least v <= v_max with Phi^v(g) in the span of the lower orbit over
    the fraction field at truncation level; coefficients returned as
    numerator/denominator pairs of series (Cramer on a certified minor).

    An ill-conditioned solve (no minor with a certified-nonzero
    determinant) yields 'indeterminate', never a fabricated relation.
    """
    from itertools import combinations
    d = g.module.d
    if v_max > d:
        raise ValueError("v_max cannot exceed the module dimension")
    if g.is_zero:
        return OrbitRelation("zero", 0, [])
    orbit = phi_iterate(g, v_max)
    for v in range(1, v_max + 1):
        vecs = orbit[:v + 1]
        # wedge of the first v+1 orbit vectors: all (v+1)x(v+1) minors vanish?
        dependent = True
        if v + 1 <= d:
            for rows_idx in combinations(range(d), v + 1):
                flat = _align([vecs[t].components[i]
                               for t in range(v + 1) for i in rows_idx])
                matrix = [[flat[t * (v + 1) + k] for t in range(v + 1)]
                          for k in range(v + 1)]
                if not _series_det(matrix).is_zero:
                    dependent = False
                    break
        if not dependent:
            continue
        # Cramer for the coefficients on a certified row subset
        for rows_idx in combinations(range(d), v):
            flat = _align([vecs[t].components[i]
                           for t in range(v) for i in rows_idx] +
                          [orbit[v].components[i] for i in rows_idx])
            M = [[flat[t * v + k] for t in range(v)] for k in range(v)]
            rhs = [flat[v * v + k] for k in range(v)]
            den = _series_det(M)
            if den.is_zero or den.vmin > den.prec - g.module.guard:
                continue
            coeffs = []
            for i in range(v):
                Mi = [[(rhs[k] if t == i else M[k][t]) for t in range(v)]
                      for k in range(v)]
                coeffs.append((_series_det(Mi), den))
            return OrbitRelation("ok", v, coeffs)
        return OrbitRelation("indeterminate", v, [])
    return OrbitRelation("independent", None, [])


# ----------------------------------------------------------------------
# the contradiction pipeline and the determinant divisibility check
# ----------------------------------------------------------------------

@dataclass
class ContradictionReport:
    which: str
    order_upper: Fraction
    log_lower: object          # int or INFINITE
    verdict: str               # 'forced zero' | 'not forced' | 'inconclusive'
    provenance: list
    membership: MembershipReport | None
    det_series: TruncatedSeries | None = None


def contradiction_pipeline(module: FilteredPhiModule, which: str,
                           g: VectorSeries, n_max: int = 1,
                           r=Fraction(0), threshold=Fraction(1),
                           div_n_max: int = 1) -> ContradictionReport:
    """Bound a determinant's growth order from Newton slopes above and its
    log-divisibility order from below; 'forced zero' when the lower bound
    exceeds the upper.

    The hypotheses on g are verified first through the membership report
    (at the configured layers); an indeterminate membership yields the
    verdict 'inconclusive', never 'forced zero'.
    """
    d = module.d
    t_N = module.t_N
    provenance = []
    J = (0,) if which == "dim2-det" else ()
    membership = check_membership(g, 0, J, r, n_max, tilde=True,
                                  threshold=threshold)
    if membership.indeterminate:
        return ContradictionReport(which, Fraction(0), 0, "inconclusive",
                                   ["membership indeterminate at the "
                                    "configured layers"], membership)
    if not membership.verdict and membership.failed_rows():
        return ContradictionReport(which, Fraction(0), 0, "inconclusive",
                                   ["membership hypotheses fail: " +
                                    ", ".join(f"(j={row.j}, n={row.n})"
                                              for row in
                                              membership.failed_rows())],
                                   membership)
    if which == "dim2-det":
        if d != 2:
            raise ValueError("dim2-det needs a 2-dimensional module")
        F = phi_orbit_wedge(g, 1)
        order_upper = -t_N + Fraction(r) * 2
        provenance.append(
            "order bound: component orders sum to at most -t_N for a vector "
            "of phi-twisted order <= 0 written in a Frobenius eigenbasis")
    elif which == "wronskian":
        F = wronskian_det(g, d)
        order_upper = -t_N - Fraction(d * (d - 1), 2)
        provenance.append(
            "order bound: -t_N - d(d-1)/2 from Newton slopes and the "
            "derivative ladder of the Wronskian")
    elif which == "orbit-wedge":
        F = phi_orbit_wedge(g, d - 1) if d > 1 else g.components[0]
        order_upper = -t_N
        provenance.append(
            "order bound: -t_N for the top wedge of the Phi-orbit")
    else:
        raise ValueError(f"unknown pipeline mode {which!r}")
    ll = log_order(F, n_max=div_n_max, threshold=threshold)
    provenance.append(
        "log bound: iterated certified division by log(1+x) "
        f"(layers <= {div_n_max})")
    verdict = "forced zero" if (ll == INFINITE or ll > order_upper) \
        else "not forced"
    return ContradictionReport(which, order_upper, ll, verdict, provenance,
                               membership, F)


@dataclass
class DetDivisibilityReport:
    verified: bool
    log_lower: object
    t_H: int
    hypothesis_rows: list


def det_log_divisibility(gs, n_max: int = 1, threshold=Fraction(1),
                         div_n_max: int = 1) -> DetDivisibilityReport:
    """Check that det(g_1, ..., g_d) is divisible by log^(-t_H)(1+x).

    The hypothesis here uses the plain filtration steps (the evaluated
    derivatives must land in K_n (x) Fil^j); it is pre-checked at the
    layers n <= n_max and the verdict compares the computed log order of
    the determinant against -t_H.
    """
    module = gs[0].module
    d = module.d
    if len(gs) != d:
        raise ValueError("need exactly d vector series")
    field = module.field
    jumps = module.jumps()
    min_jump = min(jumps + [0])
    rows = []
    ok = True
    for idx, g in enumerate(gs):
        derivs = _derivative_ladder(g.components, -min_jump)
        for j in range(min_jump, 1):
            filj = module.fil_at(j)
            if filj.dimension == d:
                continue
            for n in range(1, n_max + 1):
                layer = CyclotomicLayer(field, n)
                evs = [cyclotomic_evaluate(c, layer) for c in derivs[-j]]
                certainty = min(ev.certainty for ev in evs)
                if certainty < threshold:
                    rows.append((idx, j, n, "indeterminate", certainty))
                    ok = False
                    continue
                E = [ev.value for ev in evs]
                floors = []
                for ev, e in zip(evs, E):
                    vv = e.valuation_or_none()
                    floors.append(ev.certainty if vv is None
                                  else min(Fraction(vv), ev.certainty))
                if min(floors) >= threshold:
                    rows.append((idx, j, n, "member", min(floors)))
                    continue
                if filj.dimension == 0:
                    rows.append((idx, j, n, "non-member", min(floors)))
                    ok = False
                    continue
                cols = [[layer.from_field(c) for c in vec]
                        for vec in (list(v) for v in filj.basis)]
                x, resid = solve(mat_transpose(cols), E,
                                 layer.ops(module.guard))
                if x is not None:
                    margin = certainty
                else:
                    margin = min(min(Fraction(v) for v in resid), certainty)
                if margin >= threshold:
                    rows.append((idx, j, n, "member", margin))
                else:
                    rows.append((idx, j, n, "non-member", margin))
                    ok = False
    if not ok:
        return DetDivisibilityReport(False, 0, module.t_H, rows)
    flat = _align([c for g in gs for c in g.components])
    matrix = [[flat[t * d + i] for t in range(d)] for i in range(d)]
    F = _series_det(matrix)
    ll = log_order(F, n_max=div_n_max, threshold=threshold)
    t_H = module.t_H
    verified = (ll == INFINITE) or (ll >= -t_H)
    return DetDivisibilityReport(verified, ll, t_H, rows)
