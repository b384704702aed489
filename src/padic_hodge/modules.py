"""Filtered phi-modules over the unramified field K.

A module carries an invertible matrix A acting sigma-semilinearly
(phi(v) = A sigma(v)) and a decreasing exhaustive separated filtration,
stored as an ascending list of (jump, subspace) pairs whose first subspace
is the full space: Fil^i equals the subspace of the smallest listed jump
>= i, the full space below all jumps and 0 above them.

The Hodge degree is t_H = sum_j j*h_j over the jumps, the Newton degree
t_N the sum of Frobenius slopes (valuations of the eigenvalues of the
K-linear power phi^f, divided by f).  Weak admissibility demands
t_H = t_N globally and t_H <= t_N on every phi-stable subspace; the
enumeration of those subspaces is complete exactly in the regimes the
constructor of the lattice certifies, and errors loudly otherwise.

The degrees of a stable subspace S come from the lattice's own data:
t_N(S) = v(det phi^f on S)/f is the sum of the root valuations recorded
with S while the lattice is built, and t_H(S) reads each dim(S meet Fil)
as dim S + dim Fil - dim(S + Fil), one rank for each step other than the
whole space.  ``induced_submodule`` builds the whole induced module and is
kept only as the tests' oracle.

Every rank, span and root decision reads the guard band of the module's
field (``UnramifiedField.guard``); a module has no precision setting of its
own.
"""

from fractions import Fraction
from dataclasses import dataclass
from itertools import combinations, product as iter_product

from .errors import (PrecisionError, EnumerationUnsupportedError,
                     NotStableError, PadicError)
from .padics import GUARD, PRECISION, UnramifiedField
from .linalg import (echelon, solve, kernel, det, charpoly, mat_mul, mat_vec,
                     mat_transpose, column_space_basis, in_span, inverse,
                     identity)
from .polyroots import find_k_roots, newton_root_valuations


class Subspace:
    """A K-subspace of K^d, held as an echelonized row basis.  Every entry
    is coerced into ``field``, so every rank decision reads its guard band."""

    def __init__(self, field, dim_ambient, vectors):
        self.field = field
        self.dim_ambient = dim_ambient
        self.basis = column_space_basis([[field.coerce(c) for c in v]
                                         for v in vectors])

    @property
    def dimension(self):
        return len(self.basis)

    def contains(self, other):
        return all(in_span(self.basis, list(v)) for v in other.basis)

    def equals(self, other):
        return self.dimension == other.dimension and self.contains(other)

    def sum(self, other):
        return Subspace(self.field, self.dim_ambient,
                        self.basis + other.basis)

    def __repr__(self):
        return f"Subspace(dim {self.dimension} of {self.dim_ambient})"


@dataclass
class CertificateRow:
    subspace: Subspace
    t_H: int
    t_N: Fraction
    slope: Fraction | None


@dataclass
class Certificate:
    verdict: bool
    rows: list
    witness: CertificateRow | None = None
    note: str = ""


class FilteredPhiModule:
    def __init__(self, field: UnramifiedField, phi_matrix, filtration,
                 validate: bool = True):
        self.field = field
        self.d = len(phi_matrix)
        self.phi_matrix = [[field.coerce(c) for c in row] for row in phi_matrix]
        self.filtration = []
        for j, sub in filtration:
            if isinstance(sub, Subspace) and sub.field is not field:
                sub = sub.basis  # decided again over the module's field
            if not isinstance(sub, Subspace):
                sub = Subspace(field, self.d, sub)
            self.filtration.append((int(j), sub))
        if validate:
            self._validate()
        self._lattice = None
        self._lattice_error = None  # why the lattice cannot be enumerated
        self._t_N = None      # t_N of each _lattice member
        self._hodge = None    # (h, t_H) of each _lattice member, or None

    # -- validation ------------------------------------------------------

    def _validate(self):
        if any(len(row) != self.d for row in self.phi_matrix):
            raise ValueError("phi matrix must be square")
        if self.d and det(self.phi_matrix).is_zero:
            raise PrecisionError("phi not invertible at precision")
        jumps = [j for j, _ in self.filtration]
        if jumps != sorted(jumps) or len(set(jumps)) != len(jumps):
            raise ValueError(f"filtration jumps out of order: {jumps}")
        if not self.filtration:
            raise ValueError("filtration must not be empty")
        if self.filtration[0][1].dimension != self.d:
            raise ValueError("lowest filtration step must be the full space")
        dims = [sub.dimension for _, sub in self.filtration]
        if any(a <= b for a, b in zip(dims, dims[1:])):
            raise ValueError("filtration subspaces must strictly decrease")
        for (_, big), (_, small) in zip(self.filtration, self.filtration[1:]):
            if not big.contains(small):
                raise ValueError("filtration steps are not nested")

    # -- filtration accessors ---------------------------------------------

    def fil_at(self, j) -> Subspace:
        """Fil^j under the step convention."""
        for jj, sub in self.filtration:
            if j <= jj:
                return sub
        return Subspace(self.field, self.d, [])

    def jumps(self):
        return [j for j, _ in self.filtration]

    def full_space(self):
        return self.filtration[0][1]

    # -- basic invariants ---------------------------------------------------

    def hodge_degree(self):
        """(h: {j: h_j}, t_H)."""
        return self._induced_hodge(self.full_space())

    def _induced_hodge(self, S):
        """(h: {j: h_j}, t_H) of the filtration induced on S, over the jumps
        with h_j > 0.  Each dim(S meet Fil) is dim S + dim Fil - dim(S + Fil):
        one rank, with no kernel and no solve.  A step that is the whole
        space meets S in S, and S = V meets every step in the step, so
        neither needs a rank; the lowest step is always the whole space."""
        d, s = self.d, S.dimension
        dims = [F.dimension if s == d else s if F.dimension == d else
                s + F.dimension - len(echelon(S.basis + F.basis)[1])
                for _, F in self.filtration] + [0]
        h = {j: dims[l] - dims[l + 1]
             for l, (j, _) in enumerate(self.filtration) if dims[l] > dims[l + 1]}
        return h, sum(j * m for j, m in h.items())

    @property
    def t_H(self):
        return self.hodge_degree()[1]

    def linearized_frobenius(self):
        """The K-linear matrix of phi^f: A sigma(A) ... sigma^(f-1)(A)."""
        field = self.field
        B = self.phi_matrix
        cur = self.phi_matrix
        for _ in range(1, field.f):
            cur = [[field.sigma(c) for c in row] for row in cur]
            B = mat_mul(B, cur)
        return B

    def newton_slopes(self):
        """Sorted Frobenius slopes (each repeated with multiplicity)."""
        vals = newton_root_valuations(
            _charpoly(self.linearized_frobenius(), self.field))
        f = self.field.f
        return sorted(Fraction(v, f) for v in vals)

    @property
    def t_N(self) -> Fraction:
        return sum(self.newton_slopes(), Fraction(0))

    # -- phi action ----------------------------------------------------------

    def apply_phi(self, v):
        """phi(v) = A sigma(v)."""
        field = self.field
        sv = [field.sigma(c) for c in v]
        return mat_vec(self.phi_matrix, sv)

    def is_phi_stable(self, S: Subspace):
        for v in S.basis:
            img = self.apply_phi(v)
            if not in_span(S.basis, img):
                return False, img
        return True, None

    # -- subspace enumeration -------------------------------------------------

    def phi_stable_subspaces(self):
        """The complete finite list of phi-stable K-subspaces (0 and the
        full space included), recording the t_N of each.

        Complete when the characteristic polynomial of the linearized phi^f
        is squarefree, or for d <= 3 through the primary decomposition;
        raises EnumerationUnsupportedError outside the certified regime
        (e.g. a scalar block, whose invariant lattice is infinite).  The
        module keeps the lattice, or that error, and later calls return the
        one or raise the other again without a second search.
        """
        if self._lattice is None:
            if self._lattice_error is not None:
                raise self._lattice_error.with_traceback(None)
            try:
                self._build_lattice()
            except EnumerationUnsupportedError as err:
                self._lattice_error = err
                raise
        return self._lattice

    def _build_lattice(self):
        field = self.field
        B = self.linearized_frobenius()
        roots, residual = find_k_roots(_charpoly(B, field), field)
        res_deg = len(residual) - 1
        if res_deg not in (0, 2, 3):
            raise EnumerationUnsupportedError(
                f"cannot certify the factor structure of a degree-{res_deg} "
                f"residual factor; non-generic, unsupported")
        # one chain per primary component, with the valuation that each of
        # its dimensions adds to v(det B)
        components = [(r.valuation(), self._primary_chain(B, r, mult))
                      for r, mult in roots]
        if res_deg:
            # an irreducible residual factor of multiplicity one: its kernel
            # is a simple component, and all its roots share one valuation
            if sum(m for _, m in roots) + res_deg != self.d:
                raise EnumerationUnsupportedError(
                    "residual factor has multiplicity > 1; unsupported")
            mat = self._poly_of_matrix(B, residual)
            comp = Subspace(field, self.d, kernel(mat))
            if comp.dimension != res_deg:
                raise PrecisionError(
                    "kernel of the irreducible factor has unexpected dimension")
            components.append((Fraction(residual[0].valuation(), res_deg),
                               [None, comp]))  # None encodes the zero choice
        # B-invariant subspaces: sums of one choice per component chain, all
        # distinct since the components are independent; at f = 1 phi is B
        # itself, so only f > 1 needs the (sigma-semilinear) stability check
        members = []
        for pick in iter_product(*(chain for _, chain in components)):
            chosen = [(v, T) for (v, _), T in zip(components, pick)
                      if T is not None]
            S = Subspace(field, self.d, [b for _, T in chosen for b in T.basis])
            if field.f == 1 or self.is_phi_stable(S)[0]:
                members.append((S, Fraction(
                    sum(v * T.dimension for v, T in chosen), field.f)))
        members.sort(key=lambda m: m[0].dimension)
        self._lattice, self._t_N = map(list, zip(*members))
        self._hodge = [None] * len(members)

    def _poly_of_matrix(self, B, poly):
        """poly(B) for a coefficient list over K."""
        n = self.d
        acc = [[poly[-1] * x for x in row] for row in identity(self.field, n)]
        for c in reversed(poly[:-1]):
            acc = mat_mul(acc, B)
            for i in range(n):
                acc[i][i] = acc[i][i] + c
        return acc

    def _primary_chain(self, B, eigval, mult):
        """None (the zero choice) and the kernels of (B - eigval)^k for
        k = 1..mult: the B-invariant subspaces of the primary component of
        eigval when it is one Jordan block."""
        n = self.d
        shifted = [[(B[i][j] - eigval) if i == j else B[i][j]
                    for j in range(n)] for i in range(n)]
        chain = [None, Subspace(self.field, n, kernel(shifted))]
        power = shifted
        for _ in range(1, mult):
            power = mat_mul(power, shifted)
            chain.append(Subspace(self.field, n, kernel(power)))
        if chain[-1].dimension != mult:
            raise PrecisionError("primary component has unexpected dimension")
        if chain[1].dimension == mult > 1:
            raise EnumerationUnsupportedError(
                "scalar block of dimension >= 2: the invariant lattice is "
                "infinite; non-generic, unsupported")
        if chain[1].dimension != 1:
            raise EnumerationUnsupportedError(
                "multiple Jordan blocks share an eigenvalue; the "
                "invariant lattice is infinite; non-generic, unsupported")
        if mult > 3:
            raise EnumerationUnsupportedError(
                f"primary component of multiplicity {mult} > 3; unsupported")
        return chain

    # -- induced structures ---------------------------------------------------

    def induced_submodule(self, S: Subspace) -> "FilteredPhiModule":
        """The filtered phi-module structure on a phi-stable subspace, with
        the induced filtration Fil^j S = S intersect Fil^j."""
        if S.dimension == 0:
            raise ValueError("use the zero-module conventions directly")
        field = self.field
        basis_cols = mat_transpose([list(b) for b in S.basis])
        # matrix X with phi(basis_i) = sum_j X[j][i] basis_j
        cols = []
        for v in S.basis:
            img = self.apply_phi(v)
            x, _ = solve(basis_cols, img)
            if x is None:
                raise NotStableError("subspace is not phi-stable",
                                     witness=img)
            cols.append(x)
        X = mat_transpose(cols)
        # induced filtration in the coordinates of S: Fil^j S is the kernel
        # of c -> sum c_i s_i modulo Fil^j; a step is kept where its
        # dimension drops
        steps = [(j, Subspace(field, S.dimension, [
            k[:S.dimension] for k in kernel(
                [[b[i] for b in S.basis] + [-v[i] for v in F.basis]
                 for i in range(self.d)])]))
            for j, F in self.filtration]
        dims = [T.dimension for _, T in steps] + [0]
        chain = [step for l, step in enumerate(steps) if dims[l] > dims[l + 1]]
        return FilteredPhiModule(field, X, chain, validate=False)

    # -- degrees of stable subspaces ------------------------------------------

    def sub_degrees(self, S: Subspace):
        """(t_H, t_N) of the filtered module induced on a phi-stable
        subspace, with the zero-module convention (0, 0).

        Read from the lattice member equal to S: t_N is the root-valuation
        sum recorded with the member, t_H comes from ranks
        (``_induced_hodge``), computed at most once per member.  Raises
        NotStableError when S is not a member of the lattice."""
        if S.dimension == 0:
            return 0, Fraction(0)
        i = self._member(S)
        return self._member_hodge(i)[1], self._t_N[i]

    def _member(self, S: Subspace) -> int:
        """Index of the lattice member equal to S (NotStableError if none)."""
        lattice = self.phi_stable_subspaces()
        i = next((i for i, T in enumerate(lattice) if T is S), None)
        if i is None:
            i = next((i for i, T in enumerate(lattice)
                      if T.dimension == S.dimension and T.equals(S)), None)
        if i is None:
            raise NotStableError("subspace is not phi-stable",
                                 witness=self.is_phi_stable(S)[1])
        return i

    def _member_hodge(self, i: int):
        """(h, t_H) induced on lattice member i, ranked once per module."""
        if self._hodge[i] is None:
            self._hodge[i] = self._induced_hodge(self._lattice[i])
        return self._hodge[i]

    # -- admissibility and slope verdicts --------------------------------------

    def _rows(self, fil_zero_at=None):
        """CertificateRow(S, t_H, t_N, lambda) of each nonzero stable subspace
        in lattice order, or of those with induced Fil^fil_zero_at = 0; each
        member is ranked at most once per module."""
        for i, S in enumerate(self.phi_stable_subspaces()):
            if S.dimension == 0:
                continue
            if fil_zero_at is not None and \
                    _fil_dim(self._member_hodge(i)[0], fil_zero_at) != 0:
                continue
            th, tn = self.sub_degrees(S)
            yield CertificateRow(S, th, tn, Fraction(th - tn, S.dimension))

    def is_weakly_admissible(self) -> Certificate:
        """t_H = t_N globally and t_H <= t_N on every phi-stable subspace."""
        rows = list(self._rows())
        # the last row is the full space; the zero module has no row, and
        # t_H = t_N = 0
        equal = not rows or rows[-1].t_H == rows[-1].t_N
        witness = next((r for r in rows if r.t_H > r.t_N), None)
        if witness is not None:
            return Certificate(
                False, rows, witness,
                f"stable subspace of dimension {witness.subspace.dimension} "
                f"has t_H = {witness.t_H} > t_N = {witness.t_N}")
        return Certificate(equal, rows, None,
                           "" if equal else "global degrees differ")

    def n_condition(self, j: int) -> Certificate:
        """Every nonzero stable subspace with induced Fil^j = 0 has
        t_H < t_N (strictly)."""
        rows = list(self._rows(fil_zero_at=j))
        witness = next((r for r in rows if r.t_H >= r.t_N), None)
        return Certificate(witness is None, rows, witness)

    def slope_bound_check(self, c, strict: bool = False) -> Certificate:
        """lambda(S) <= c (or < c) over all nonzero stable subspaces; the
        witness is the first row of maximal slope."""
        c = Fraction(c)
        rows = list(self._rows())
        verdict = all(r.slope < c if strict else r.slope <= c for r in rows)
        return Certificate(verdict, rows,
                           max(rows, key=lambda r: r.slope, default=None))

    def max_subspace_slope(self) -> Fraction:
        """Exact max of lambda over nonzero stable subspaces."""
        return max((r.slope for r in self._rows()), default=None)

    # -- Fil^1 extraction and the rank formula ---------------------------------

    def fil1(self) -> Subspace:
        """Sum of the stable subspaces with induced Fil^0 = 0 and
        t_H = t_N; re-verified to satisfy both conditions itself."""
        adm = self.is_weakly_admissible()
        if not adm.verdict:
            raise PadicError(
                f"fil1 requires a weakly admissible module: {adm.note}")
        total = Subspace(self.field, self.d, [])
        for row in self._rows(fil_zero_at=0):
            if row.t_H == row.t_N:
                total = total.sum(row.subspace)
        if total.dimension == 0:
            return total
        # the sum of stable subspaces is a member, ranked at most once
        if _fil_dim(self._member_hodge(self._member(total))[0], 0) != 0:
            raise PadicError("sum not admissible: the sum of qualifying "
                             "subspaces meets Fil^0")
        th, tn = self.sub_degrees(total)
        if th != tn:
            raise PadicError(
                f"sum not admissible: t_H = {th} != t_N = {tn} on the sum")
        return total

    def universal_norm_rank(self) -> int:
        """[K:Q_p] * dim fil1."""
        return self.field.f * self.fil1().dimension

    # -- constructions ----------------------------------------------------------

    def twist(self, k: int) -> "FilteredPhiModule":
        """Scale phi by p^(-k) and shift every filtration jump by -k."""
        if k == 0:
            return self
        field = self.field
        scale = field.scalar(Fraction(field.p) ** (-k))
        A = [[c * scale for c in row] for row in self.phi_matrix]
        filt = [(j - k, sub) for j, sub in self.filtration]
        tw = FilteredPhiModule(field, A, filt, validate=False)
        if self._lattice is not None:
            # twisting keeps every stable subspace; t_N drops by k per dimension
            tw._lattice = list(self._lattice)
            tw._t_N = [t - k * S.dimension
                       for S, t in zip(self._lattice, self._t_N)]
            tw._hodge = [None] * len(self._lattice)
        return tw

    def adapted_basis(self):
        """Vectors v_1..v_d with levels so that Fil^j = span(v_i: level_i >= j).

        Built by extending a basis of the deepest step backwards through the
        chain; levels are the jumps at which each vector enters.
        """
        vectors, levels = [], []
        for j, sub in reversed(self.filtration):
            for v in sub.basis:
                if not in_span(vectors, list(v)):
                    vectors.append(list(v))
                    levels.append(j)
        return vectors, levels

    def in_adapted_coordinates(self):
        """(module in the adapted basis, change-of-basis matrix P columns).

        The returned module has the same abstract structure with filtration
        steps spanned by standard basis vectors.
        """
        field = self.field
        vectors, levels = self.adapted_basis()
        P = mat_transpose(vectors)  # columns are the adapted vectors
        sigmaP = [[field.sigma(c) for c in row] for row in P]
        A_ad = mat_mul(inverse(P), mat_mul(self.phi_matrix, sigmaP))
        mod = FilteredPhiModule(field, A_ad, _level_filtration(field, levels),
                                validate=False)
        return mod, levels, P

    def tensor_product(self, other: "FilteredPhiModule") -> "FilteredPhiModule":
        """Tensor product with the convolved filtration
        Fil^j = sum_{a+b=j} Fil^a (x) Fil^b (built on adapted bases, where
        the convolution is the span of basis tensors with level sums >= j)."""
        if not self.field.compatible(other.field):
            raise ValueError("tensor factors over different fields")
        field = self.field
        m1, lv1, _ = self.in_adapted_coordinates()
        m2, lv2, _ = other.in_adapted_coordinates()
        # row i*d2 + j, column k*d2 + l holds A1[i][k] * A2[j][l]
        A = [[a * b for a in row1 for b in row2]
             for row1 in m1.phi_matrix for row2 in m2.phi_matrix]
        levels = [a + b for a in lv1 for b in lv2]
        return FilteredPhiModule(field, A, _level_filtration(field, levels),
                                 validate=False)

    def wedge_power(self, v: int) -> "FilteredPhiModule":
        """Lambda^v with the filtration induced from the tensor convolution:
        on an adapted basis, spans of elementary wedges by level sums."""
        if not 1 <= v <= self.d:
            raise ValueError(f"wedge exponent must be in 1..{self.d}")
        field = self.field
        m, levels, _ = self.in_adapted_coordinates()
        idxsets = list(combinations(range(self.d), v))
        A = [[det([[m.phi_matrix[i][j] for j in J] for i in I])
              for J in idxsets] for I in idxsets]
        wedge_levels = [sum(levels[i] for i in I) for I in idxsets]
        return FilteredPhiModule(field, A,
                                 _level_filtration(field, wedge_levels),
                                 validate=False)

    def erase_filtration_step(self, k: int) -> "FilteredPhiModule":
        """Same phi; the filtration step at jump k erased (Fil^k becomes
        Fil^(k+1), everything else unchanged)."""
        jumps = self.jumps()
        if k not in jumps:
            raise ValueError(f"{k} is not a filtration jump of this module")
        idx = jumps.index(k)
        filt = list(self.filtration)
        if idx > 0 and jumps[idx - 1] == k - 1:
            # the step merges into the previous one
            filt.pop(idx)
        else:
            filt[idx] = (k - 1, filt[idx][1])
        return FilteredPhiModule(self.field, self.phi_matrix, filt,
                                 validate=False)

    def __repr__(self):
        return (f"FilteredPhiModule(d={self.d}, f={self.field.f}, "
                f"jumps={self.jumps()})")


def _charpoly(B, field):
    """charpoly(B), or the constant 1 of ``field`` for the empty matrix."""
    return charpoly(B) if B else [field.one()]


def _fil_dim(h, j):
    """dim Fil^j from the Hodge numbers {jump: multiplicity}."""
    return sum(m for i, m in h.items() if i >= j)


def _level_filtration(field, levels):
    """Fil^j = span{e_i : levels[i] >= j} on the standard basis of
    K^len(levels), one step at each level."""
    n = len(levels)
    basis = identity(field, n)
    return [(j, Subspace(field, n, [e for e, lv in zip(basis, levels)
                                    if lv >= j]))
            for j in sorted(set(levels))]


def tensor_slope_check(m1: FilteredPhiModule, m2: FilteredPhiModule,
                       c1, c2) -> Certificate:
    """Verify the slope bound lambda <= c1 + c2 on the tensor product of two
    modules of slopes <= c1 and <= c2."""
    pre1 = m1.slope_bound_check(c1)
    if not pre1.verdict:
        raise ValueError("first factor is not of slope <= c1")
    pre2 = m2.slope_bound_check(c2)
    if not pre2.verdict:
        raise ValueError("second factor is not of slope <= c2")
    return m1.tensor_product(m2).slope_bound_check(Fraction(c1) + Fraction(c2))


def modular_form_module(p: int, k_weight: int, a_p, filtration_line=None,
                        field: UnramifiedField | None = None) -> FilteredPhiModule:
    """The rank-2 filtered module of a weight-k eigenform with Frobenius
    normalized so that t_N = t_H = -(k-1).

    phi = p^-(k-1) * C with C the companion matrix of
    X^2 - a_p X + p^(k-1); jumps at -(k-1) (full space) and 0 (a line,
    by default spanned by e1 + e2, generically not an eigenline).
    """
    if k_weight < 2:
        raise ValueError("weight must be >= 2")
    a_p = Fraction(a_p)
    field = field or UnramifiedField(p, 1)
    from .padics import vp_fraction
    if a_p != 0 and vp_fraction(a_p, p) < 0:
        raise ValueError("a_p must be integral at p")
    scale = Fraction(p) ** (-(k_weight - 1))
    A = [[0, -scale * Fraction(p) ** (k_weight - 1)],
         [scale, scale * a_p]]
    mat = [[field.coerce(c) for c in row] for row in A]
    if filtration_line is None:
        filtration_line = [1, 1]
    line = Subspace(field, 2, [[field.coerce(c) for c in filtration_line]])
    filt = [(-(k_weight - 1), Subspace(field, 2, identity(field, 2))),
            (0, line)]
    return FilteredPhiModule(field, mat, filt)


def mf_rank_table(p, k_weight, a_p, j_min, j_max, precision=PRECISION,
                  guard=GUARD):
    """Rows (j, dim fil1, rank) for the twisted eigenform module."""
    if j_min > j_max:
        raise ValueError("jmin must be <= jmax")
    base = modular_form_module(p, k_weight, a_p,
                               field=UnramifiedField(p, 1, precision,
                                                     guard=guard))
    rows = []
    prev_rank = None
    for j in range(j_min, j_max + 1):
        tw = base.twist(j)
        dim = tw.fil1().dimension
        rank = base.field.f * dim
        if prev_rank is not None and rank < prev_rank:
            raise PadicError("rank table is not non-decreasing (internal error)")
        prev_rank = rank
        rows.append((j, dim, rank))
    return rows
