"""Vector-valued series over a filtered phi-module: the operator
Phi = phi (x) phi, growth orders in the phi-twisted sense, membership in
the growth/filtration/vanishing classes of series, Wronskians, Phi-orbit
wedges, and the order-versus-log-divisibility contradiction engine.

Verdicts here are certificates at finite truncation and finitely many
cyclotomic layers; "inconclusive" is a first-class outcome and is never
silently collapsed into a boolean.  The growth-order estimate is a report
printed by ``amember``, never an input to a verdict.  Layer tests decide at
``seriesops.DECISION_LEVEL``, valuation 1 (modulo p^1).  Membership of a
layer value in K_n (x) phi^n Fil^j is read coordinate by coordinate: each
pi_n^j-coordinate vector is solved against phi^n Fil^j over K.
"""

from fractions import Fraction
from dataclasses import dataclass

from .errors import PrecisionError, TailBoundError
from .cyclotomic import CyclotomicLayer
from .linalg import solve, mat_transpose, inverse
from .series import TruncatedSeries, INFINITE
from .seriesops import (phi_op, d_op, psi_op, cyclotomic_evaluate, log_order,
                        rho_norm, growth_order, _slope_interval,
                        DECISION_LEVEL)
from .modules import FilteredPhiModule, Subspace


class VectorSeries:
    """Element of (truncated series) tensor D, in the module's ambient basis.

    ``eigen_data``, when present, records the structured form
    sum_l c_l(x) * v_l with phi^f(v_l) = (eigenvalue of slope a_l) v_l and
    c_l a LogPolynomial; the phi-twisted growth order is exact on this class.
    """

    def __init__(self, module: FilteredPhiModule, components,
                 eigen_data=None):
        self.module = module
        self.components = list(components)
        if len(self.components) != module.d:
            raise ValueError("component count must match the module dimension")
        ns = {c.n for c in self.components}
        if len(ns) != 1:
            raise ValueError("components must share one truncation degree")
        self.eigen_data = eigen_data

    @property
    def n(self):
        return self.components[0].n

    @property
    def is_zero(self):
        return all(c.is_zero for c in self.components)

    def truncate(self, n_new):
        return VectorSeries(self.module,
                            [c.truncate(n_new) for c in self.components],
                            self.eigen_data)


def _mat_apply(A, comps):
    """[sum_j A[i][j] * comps[j]]_i for a K-matrix A and series of one degree;
    a row with no nonzero entry gives the zero series."""
    field = comps[0].field
    out = []
    for row in A:
        acc = None
        for a, c in zip(row, comps):
            if a.is_zero:
                continue
            term = c._scalar_mul(a)
            acc = term if acc is None else acc + term
        out.append(acc if acc is not None
                   else TruncatedSeries.zero(field, comps[0].n))
    return out


def phi_vec(g: VectorSeries) -> VectorSeries:
    """Phi = (series phi) on components followed by the module's matrix."""
    phid = _align([phi_op(c) for c in g.components])
    return VectorSeries(g.module, _mat_apply(g.module.phi_matrix, phid))


def phi_iterate(g: VectorSeries, k: int) -> list:
    """[g, Phi g, ..., Phi^k g], each re-truncated to the starting degree."""
    out = [g.truncate(g.n)]
    cur = g
    for _ in range(k):
        cur = phi_vec(cur).truncate(g.n)
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
    cur = g.components
    ys = []
    try:
        twisted = [[field.sigma_inv(a) for a in row]
                   for row in inverse(module.phi_matrix)]
        for n in range(1, n_max + 1):
            cur = _mat_apply(twisted, cur)
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
    order: PhiOrder | None   # exact, from eigen data; else None
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


def _layer_values(components, layer):
    """(values at pi_n, least certainty, certified valuation floor of the
    vector); TailBoundError from the evaluation propagates."""
    evs = [cyclotomic_evaluate(c, layer) for c in components]
    return ([ev.value for ev in evs], min(ev.certainty for ev in evs),
            min(ev.floor for ev in evs))


def _span_margin(values, basis, certainty):
    """Membership margin of the layer values in K_n (x) span(basis).

    K_n is free over K on 1, pi, ..., pi^(e-1) and the span is a K-subspace,
    so the values are members exactly when each pi^j-coordinate vector
    solves over K: then the margin is the certainty.  Otherwise it is the
    valuation min_j (resid_j + j/e) of the residual sum_j pi^j rho_j, capped
    at the certainty.  A coordinate whose solve is undecided contributes
    only its certified floor + j/e: the margin stands when a decided
    residual lies strictly below every such floor, and the PrecisionError
    propagates otherwise."""
    A = mat_transpose(basis)
    e = values[0].layer.e
    decided, undecided = [], []
    for j in range(e):
        try:
            x, resid = solve(A, [v.coords[j] for v in values])
        except PrecisionError as err:
            undecided.append((err.floor + Fraction(j, e), err))
            continue
        if x is None:
            decided.append(min(resid) + Fraction(j, e))
    if undecided and not (decided and
                          min(decided) < min(f for f, _ in undecided)):
        raise undecided[0][1]
    return min([certainty] + decided)


def _hypothesis_level(module, S: Subspace, k: int, values, certainty,
                      floor):
    """Level of the layer values against K_n (x) phi^k(S): the certified
    floor when it clears the decision level or S is 0, otherwise the span
    margin, whose PrecisionError propagates."""
    if floor >= DECISION_LEVEL or S.dimension == 0:
        return floor
    return _span_margin(values, _phi_power_basis(module, S, k), certainty)


def _status(level):
    return "member" if level >= DECISION_LEVEL else "non-member"


def check_membership(g: VectorSeries, v: int, J, r, n_max: int,
                     tilde: bool = True) -> MembershipReport:
    """Certificate-style membership in the growth/filtration/vanishing class
    with parameters (v, J, r) at layers n <= n_max.

    The filtration conditions compare D^(-j)(g)(zeta_n - 1) against
    K_n (x) phi^n Fil^j; ``tilde`` skips the psi(g) = 0 requirement (the
    variant defined for v <= 0 without the kernel condition).  Verdicts are
    'member up to layer n_max': the quantifier over all n is inherently
    truncated.  The order condition is checked, and ``order`` set, only
    when eigen data make the phi-twisted order of ``g`` exact.
    A layer whose evaluation has no tail bound, whose certainty is below
    the decision level, or whose span solve is ill-conditioned gives an
    'indeterminate' row.  Without ``tilde``, a truncated component (psi
    undecided) makes the report indeterminate.
    """
    module = g.module
    field = module.field
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    if v > 0:
        raise ValueError("only v <= 0 is supported (reduce by twisting; "
                         "D^(-j) with j > 0 would need an antiderivative)")
    J = tuple(sorted(set(J)))
    jumps = module.jumps()
    if any(j > v for j in J):
        raise ValueError("J must consist of integers <= v")
    min_jump = min(jumps + [v])
    rows = []
    psi_zero = None
    if not tilde:
        try:
            psi_zero = all(psi_op(c).is_zero for c in g.components)
        except TailBoundError:
            pass
    derivs = _derivative_ladder(g.components, -min_jump)
    for j in range(min_jump, v + 1):
        filj = module.fil_at(j)
        for n in range(1, n_max + 1):
            layer = CyclotomicLayer(field, n)
            try:
                values, certainty, floor = _layer_values(derivs[-j], layer)
            except TailBoundError:
                rows.append(ConditionRow(j, n, "subspace", "indeterminate",
                                         None))
                continue
            if certainty < DECISION_LEVEL:
                rows.append(ConditionRow(j, n, "subspace", "indeterminate",
                                         certainty))
                continue
            if j in J:
                rows.append(ConditionRow(j, n, "vanish", _status(floor),
                                         floor))
            if filj.dimension == module.d:
                rows.append(ConditionRow(j, n, "subspace", "trivial", None))
                continue
            try:
                level = _hypothesis_level(module, filj, n, values,
                                          certainty, floor)
            except PrecisionError:
                rows.append(ConditionRow(j, n, "subspace", "indeterminate",
                                         None))
                continue
            rows.append(ConditionRow(j, n, "subspace", _status(level),
                                     level))
    order = order_pass = None
    if g.eigen_data is not None and not g.is_zero:
        order = phi_growth_order(g)
        order_pass = order.value <= Fraction(v) + Fraction(r)
    indeterminate = (not tilde and psi_zero is None) or \
        any(row.status == "indeterminate" for row in rows)
    verdict = (psi_zero is not False and order_pass is not False
               and not indeterminate
               and all(row.status != "non-member" for row in rows))
    return MembershipReport(v, J, Fraction(r), n_max, tilde, psi_zero,
                            order, order_pass, rows, verdict, indeterminate)


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


def _columns_det(columns):
    """Determinant of the square matrix whose t-th column is ``columns[t]``,
    every entry truncated to the shortest series first."""
    k = len(columns)
    flat = _align([c for col in columns for c in col])
    return _series_det([[flat[t * k + i] for t in range(k)]
                        for i in range(k)])


def wronskian_det(g: VectorSeries, order: int) -> TruncatedSeries:
    """det(g, D g, ..., D^(order-1) g) over the first ``order`` components.

    Detects linear dependence of the component series over the constants.
    """
    if order > g.module.d:
        raise ValueError("order exceeds the module dimension")
    return _columns_det(_derivative_ladder(g.components[:order], order - 1))


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
    if d != 2 and n + 1 != d:
        raise ValueError("chain wedge needs n + 1 = module dimension")
    orbit = phi_iterate(g, n)
    if d == 2:
        orbit = [orbit[0], orbit[-1]]
    return _columns_det([h.components for h in orbit])


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
        # wedge of the first v+1 orbit vectors: all (v+1)x(v+1) minors
        # vanish (there are none when v + 1 > d)?
        if not all(_columns_det([[h.components[i] for i in rows_idx]
                                 for h in vecs]).is_zero
                   for rows_idx in combinations(range(d), v + 1)):
            continue
        # Cramer for the coefficients on a certified row subset
        for rows_idx in combinations(range(d), v):
            flat = _align([vecs[t].components[i]
                           for t in range(v) for i in rows_idx] +
                          [orbit[v].components[i] for i in rows_idx])
            M = [[flat[t * v + k] for t in range(v)] for k in range(v)]
            rhs = [flat[v * v + k] for k in range(v)]
            den = _series_det(M)
            if den.is_zero or den.vmin > den.prec - g.module.field.guard:
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
                           r=Fraction(0)) -> ContradictionReport:
    """Bound a determinant's growth order from Newton slopes above and its
    log-divisibility order from below; 'forced zero' when the lower bound
    exceeds the upper.

    The hypotheses on g are verified first through the membership report
    (at the configured layers); an indeterminate membership, or a log order
    whose layer test cannot be decided at the truncation degree, yields the
    verdict 'inconclusive', never 'forced zero'.
    """
    d = module.d
    t_N = module.t_N
    provenance = []
    J = (0,) if which == "dim2-det" else ()
    membership = check_membership(g, 0, J, r, n_max, tilde=True)
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
    try:
        ll = log_order(F, n_max=1)
    except TailBoundError as e:
        provenance.append(f"log bound undecided: {e}")
        return ContradictionReport(which, order_upper, 0, "inconclusive",
                                   provenance, membership, F)
    provenance.append(
        "log bound: iterated certified division by log(1+x) (layers <= 1)")
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


def det_log_divisibility(gs, n_max: int = 1) -> DetDivisibilityReport:
    """Check that det(g_1, ..., g_d) is divisible by log^(-t_H)(1+x).

    The hypothesis here uses the plain filtration steps (the evaluated
    derivatives must land in K_n (x) Fil^j); it is pre-checked at the
    layers n <= n_max and the verdict compares the computed log order of
    the determinant against -t_H.  TailBoundError and PrecisionError from
    the layer tests, and from the determinant's log order, propagate.
    """
    module = gs[0].module
    d = module.d
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    if len(gs) != d:
        raise ValueError("need exactly d vector series")
    field = module.field
    min_jump = min(module.jumps() + [0])
    rows = []
    for idx, g in enumerate(gs):
        derivs = _derivative_ladder(g.components, -min_jump)
        for j in range(min_jump, 1):
            filj = module.fil_at(j)
            if filj.dimension == d:
                continue
            for n in range(1, n_max + 1):
                layer = CyclotomicLayer(field, n)
                values, certainty, floor = _layer_values(derivs[-j], layer)
                if certainty < DECISION_LEVEL:
                    rows.append((idx, j, n, "indeterminate", certainty))
                    continue
                level = _hypothesis_level(module, filj, 0, values,
                                          certainty, floor)
                rows.append((idx, j, n, _status(level), level))
    if any(row[3] != "member" for row in rows):
        return DetDivisibilityReport(False, 0, module.t_H, rows)
    F = _columns_det([g.components for g in gs])
    ll = log_order(F, n_max=1)
    t_H = module.t_H
    verified = (ll == INFINITE) or (ll >= -t_H)
    return DetDivisibilityReport(verified, ll, t_H, rows)
