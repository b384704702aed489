"""Filtered phi-modules: degrees, slopes, admissibility, constructions."""

import random
import time
from fractions import Fraction
from itertools import combinations, product
from types import SimpleNamespace

import pytest

from padic_hodge.padics import UnramifiedField
from padic_hodge.modules import (FilteredPhiModule, Subspace, CertificateRow,
                                 modular_form_module,
                                 tensor_slope_check)
from padic_hodge.errors import (EnumerationUnsupportedError, NotStableError,
                                PadicError, PrecisionError)
from padic_hodge.linalg import inverse, mat_mul, mat_vec
from padic_hodge import modules
from padic_hodge import generators as gen
from padic_hodge.polyroots import newton_root_valuations

from helpers import induced_fil_dim, slope_lambda


def full2(field):
    return Subspace(field, 2, [[field.one(), field.zero()],
                               [field.zero(), field.one()]])


def line(field, vec):
    return Subspace(field, 2, [[field.coerce(c) for c in vec]])


def unit_module(field):
    return FilteredPhiModule(field, [[field.one()]],
                             [(0, Subspace(field, 1, [[field.one()]]))])


# -- degrees -----------------------------------------------------------------

def test_hodge_degree_examples(K5):
    m1 = FilteredPhiModule(K5, [[K5.coerce(Fraction(1, 5))]],
                           [(-1, Subspace(K5, 1, [[K5.one()]]))])
    h, th = m1.hodge_degree()
    assert th == -1 and h == {-1: 1}
    mf = modular_form_module(5, 2, 0, field=K5)
    h, th = mf.hodge_degree()
    assert th == -1 and h == {-1: 1, 0: 1}
    m0 = unit_module(K5)
    assert m0.hodge_degree() == ({0: 1}, 0)


def test_newton_slopes_diagonal(K5):
    a, b = 2, -1
    A = [[K5.coerce(5 ** a), K5.zero()], [K5.zero(), K5.coerce(Fraction(1, 5))]]
    m = FilteredPhiModule(K5, A, [(0, full2(K5))])
    assert m.newton_slopes() == sorted([Fraction(a), Fraction(b)])


def test_newton_slopes_companion(K5):
    A = [[K5.zero(), K5.coerce(-5)], [K5.one(), K5.zero()]]
    m = FilteredPhiModule(K5, A, [(0, full2(K5))])
    assert m.newton_slopes() == [Fraction(1, 2), Fraction(1, 2)]


def test_newton_slopes_semilinear(K25):
    # dim 2 over the unramified quadratic: A antidiagonal (0 p; 1 0) has
    # A sigma(A) = p * Id, so both slopes are 1/2
    A = [[K25.zero(), K25.coerce(5)], [K25.one(), K25.zero()]]
    full = Subspace(K25, 2, [[K25.one(), K25.zero()],
                             [K25.zero(), K25.one()]])
    m = FilteredPhiModule(K25, A, [(0, full)])
    assert m.newton_slopes() == [Fraction(1, 2), Fraction(1, 2)]
    assert m.t_N == 1


# -- stable subspaces ---------------------------------------------------------

def test_stable_subspaces_dim1(K5):
    m = unit_module(K5)
    subs = m.phi_stable_subspaces()
    assert [s.dimension for s in subs] == [0, 1]


def test_stable_subspaces_ordinary(K5):
    m = modular_form_module(5, 2, 1, field=K5)
    subs = m.phi_stable_subspaces()
    assert [s.dimension for s in subs] == [0, 1, 1, 2]
    # the two lines are eigenlines with t_N 0 and -1
    tns = sorted(m.sub_degrees(s)[1] for s in subs if s.dimension == 1)
    assert tns == [Fraction(-1), Fraction(0)]


def test_stable_subspaces_supersingular(K5):
    m = modular_form_module(5, 2, 0, field=K5)
    assert [s.dimension for s in m.phi_stable_subspaces()] == [0, 2]


def test_scalar_block_unsupported(K5):
    A = [[K5.one(), K5.zero()], [K5.zero(), K5.one()]]
    m = FilteredPhiModule(K5, A, [(0, full2(K5))])
    with pytest.raises(EnumerationUnsupportedError):
        m.phi_stable_subspaces()


def test_scalar_block_error_is_kept(K5, monkeypatch):
    # the module keeps the EnumerationUnsupportedError of its first search
    # and raises it again without a second root search
    A = [[K5.one(), K5.zero()], [K5.zero(), K5.one()]]
    m = FilteredPhiModule(K5, A, [(0, full2(K5))])
    with pytest.raises(EnumerationUnsupportedError) as first:
        m.phi_stable_subspaces()
    searches = []
    monkeypatch.setattr(modules, "find_k_roots",
                        lambda *args: searches.append(args))
    with pytest.raises(EnumerationUnsupportedError) as again:
        m.phi_stable_subspaces()
    with pytest.raises(EnumerationUnsupportedError):
        m.is_weakly_admissible()
    assert searches == []
    assert str(again.value) == str(first.value)


def test_induced_submodule(K5):
    m = modular_form_module(5, 2, 1, field=K5)
    lines = [S for S in m.phi_stable_subspaces() if S.dimension == 1]
    for S in lines:
        sub = m.induced_submodule(S)
        # slope-0 line gets the induced jump at the minimal jump of m
        if m.sub_degrees(S)[1] == 0:
            assert sub.jumps() == [-1] and sub.t_H == -1
    # a non-stable subspace is rejected with the violating image
    bad = line(K5, [1, 1])
    with pytest.raises(NotStableError):
        m.induced_submodule(bad)


def test_induced_on_full_is_same(K5):
    m = modular_form_module(5, 2, 0, field=K5)
    sub = m.induced_submodule(m.full_space())
    assert sub.t_H == m.t_H and sub.t_N == m.t_N


# -- admissibility ------------------------------------------------------------

def test_wa_qp1_analog(K5):
    m = FilteredPhiModule(K5, [[K5.coerce(Fraction(1, 5))]],
                          [(-1, Subspace(K5, 1, [[K5.one()]]))])
    cert = m.is_weakly_admissible()
    assert cert.verdict and m.t_H == -1 and m.t_N == -1


def test_wa_supersingular(K5):
    assert modular_form_module(5, 2, 0, field=K5).is_weakly_admissible().verdict


def test_not_wa_eigenline_filtration(K5):
    m = modular_form_module(5, 2, 1, field=K5)
    neg = [S for S in m.phi_stable_subspaces()
           if S.dimension == 1 and m.sub_degrees(S)[1] == Fraction(-1)][0]
    vec = [c.coordinate(0).lift_fraction() for c in neg.basis[0]]
    bad = modular_form_module(5, 2, 1, filtration_line=vec, field=K5)
    cert = bad.is_weakly_admissible()
    assert not cert.verdict
    assert cert.witness is not None and cert.witness.subspace.equals(neg)
    assert cert.witness.t_H == 0 and cert.witness.t_N == -1


def test_n_condition_examples(K5):
    ss = modular_form_module(5, 2, 0, field=K5)
    assert ss.n_condition(0).verdict
    # diag(p^-1, 1) with jumps split across the eigenlines: an admissible
    # line avoids Fil^0, so the strict condition fails
    A = [[K5.coerce(Fraction(1, 5)), K5.zero()], [K5.zero(), K5.one()]]
    m = FilteredPhiModule(K5, A, [(-1, full2(K5)), (0, line(K5, [0, 1]))])
    cert = m.n_condition(0)
    assert not cert.verdict
    assert cert.witness.t_H == cert.witness.t_N == -1
    # dim 1 with jump 0: vacuous
    assert unit_module(K5).n_condition(0).verdict


# -- fil1 and ranks -------------------------------------------------------------

def test_fil1_examples(K5):
    ss = modular_form_module(5, 2, 0, field=K5)
    assert ss.fil1().dimension == 0
    assert ss.twist(1).fil1().dimension == 2
    om = modular_form_module(5, 2, 1, field=K5)
    f1 = om.fil1()
    assert f1.dimension == 1
    neg = [S for S in om.phi_stable_subspaces()
           if S.dimension == 1 and om.sub_degrees(S)[1] == Fraction(-1)][0]
    assert f1.equals(neg)


def test_rank_examples(K5):
    ss = modular_form_module(5, 2, 0, field=K5)
    om = modular_form_module(5, 2, 1, field=K5)
    assert ss.universal_norm_rank() == 0
    assert ss.twist(1).universal_norm_rank() == 2
    assert om.universal_norm_rank() == 1


def test_fil1_requires_weak_admissibility(K5):
    m = modular_form_module(5, 2, 1, field=K5)
    neg = [S for S in m.phi_stable_subspaces()
           if S.dimension == 1 and m.sub_degrees(S)[1] == Fraction(-1)][0]
    vec = [c.coordinate(0).lift_fraction() for c in neg.basis[0]]
    bad = modular_form_module(5, 2, 1, filtration_line=vec, field=K5)
    with pytest.raises(PadicError):
        bad.fil1()


# -- twist, tensor, wedge, tilde -------------------------------------------------

def test_twist_degree_shift_random(K5):
    rng = random.Random(31)
    for _ in range(10):
        m = gen.random_wa_module(K5, rng)
        k = rng.randint(-2, 2)
        tw = m.twist(k)
        assert tw.t_H == m.t_H - k * m.d
        assert tw.t_N == m.t_N - k * m.d
        assert tw.is_weakly_admissible().verdict


def test_twist_unit_example(K5):
    m = unit_module(K5)
    tw = m.twist(1)
    assert tw.jumps() == [-1] and tw.newton_slopes() == [Fraction(-1)]


def test_tensor_unit_is_identity(K5):
    m = modular_form_module(5, 2, 1, field=K5)
    tp = m.tensor_product(unit_module(K5))
    assert tp.t_H == m.t_H and tp.newton_slopes() == m.newton_slopes()
    h, _ = tp.hodge_degree()
    assert h == m.hodge_degree()[0]


def test_tensor_dim1_sums(K5):
    a = FilteredPhiModule(K5, [[K5.coerce(5)]],
                          [(2, Subspace(K5, 1, [[K5.one()]]))])
    b = FilteredPhiModule(K5, [[K5.coerce(Fraction(1, 5))]],
                          [(-1, Subspace(K5, 1, [[K5.one()]]))])
    tp = a.tensor_product(b)
    assert tp.jumps() == [1] and tp.newton_slopes() == [Fraction(0)]


def test_tensor_h_vector_convolution_oracle(K5):
    # brute-force dimension count of sum Fil^a (x) Fil^b
    rng = random.Random(33)
    m1 = gen.random_wa_module_d2(K5, rng)
    m2 = gen.random_wa_module_d2(K5, rng)
    tp = m1.tensor_product(m2)
    from padic_hodge.linalg import column_space_basis
    jumps = sorted({a + b for a in m1.jumps() + [m1.jumps()[-1] + 1]
                    for b in m2.jumps() + [m2.jumps()[-1] + 1]})
    for j in range(min(tp.jumps()) - 1, max(tp.jumps()) + 2):
        vecs = []
        for a in range(-8, 9):
            b = j - a
            fa = m1.fil_at(a)
            fb = m2.fil_at(b)
            for u in fa.basis:
                for w in fb.basis:
                    vecs.append([x * y for x in u for y in w])
        dim = len(column_space_basis(vecs)) if vecs else 0
        assert tp.fil_at(j).dimension == dim


def test_wedge_examples(K5):
    ss = modular_form_module(5, 2, 0, field=K5)
    w1 = ss.wedge_power(1)
    assert w1.t_H == ss.t_H and w1.t_N == ss.t_N
    top = ss.wedge_power(2)
    assert top.d == 1
    assert top.t_H == ss.t_H and top.t_N == ss.t_N
    assert top.jumps() == [-1]
    # weight-k top wedge: slope and jump both -(k-1)
    mf4 = modular_form_module(5, 4, 0, field=K5)
    top4 = mf4.wedge_power(2)
    assert top4.newton_slopes() == [Fraction(-3)] and top4.jumps() == [-3]


def test_wedge_top_random(K5):
    rng = random.Random(34)
    for _ in range(5):
        m = gen.random_wa_module(K5, rng, d=3)
        top = m.wedge_power(3)
        assert top.t_H == m.t_H and top.t_N == m.t_N


def test_tilde_examples(K5):
    ss = modular_form_module(5, 2, 0, field=K5)
    td = ss.erase_filtration_step(0)
    h, th = td.hodge_degree()
    assert th == ss.t_H - ss.hodge_degree()[0][0]  # t_H drops by h_0
    assert th == -2 and td.t_N == -1
    assert td.slope_bound_check(0, strict=True).verdict
    with pytest.raises(ValueError):
        td.erase_filtration_step(0)  # no longer a jump


def test_tilde_general_k(K5):
    # erase an interior jump: only Fil^k changes
    rng = random.Random(35)
    m = gen.random_wa_module(K5, rng, d=3)
    k = m.jumps()[1]
    td = m.erase_filtration_step(k)
    h_old, th_old = m.hodge_degree()
    h_new, th_new = td.hodge_degree()
    assert th_new == th_old - h_old[k]
    for j in range(min(m.jumps()) - 1, max(m.jumps()) + 2):
        if j == k:
            assert td.fil_at(j).equals(m.fil_at(k + 1))
        else:
            assert td.fil_at(j).equals(m.fil_at(j))


# -- slopes ---------------------------------------------------------------------

def test_slope_lambda(K5):
    m = modular_form_module(5, 2, 0, field=K5)
    assert slope_lambda(m) == 0
    m1 = FilteredPhiModule(K5, [[K5.one()]],
                           [(-1, Subspace(K5, 1, [[K5.one()]]))])
    assert slope_lambda(m1) == -1


def test_slope_bound_check(K5):
    m = modular_form_module(5, 2, 0, field=K5)
    assert m.slope_bound_check(0).verdict
    m1 = FilteredPhiModule(K5, [[K5.one()]],
                           [(-1, Subspace(K5, 1, [[K5.one()]]))])
    assert not m1.slope_bound_check(-1, strict=True).verdict
    assert m1.slope_bound_check(-1, strict=False).verdict


def test_tensor_slope_check_examples(K5):
    rng = random.Random(36)
    m = modular_form_module(5, 2, 1, field=K5)
    u = unit_module(K5)
    cert = tensor_slope_check(u, m, 0, m.max_subspace_slope())
    assert cert.verdict
    for _ in range(5):
        m1 = gen.random_wa_module_d2(K5, rng)
        m2 = gen.random_wa_module_d2(K5, rng)
        assert tensor_slope_check(m1, m2, m1.max_subspace_slope(),
                                  m2.max_subspace_slope()).verdict


def test_tensor_lattice_at_f2():
    # two d = 2 modules with different slope gaps: their tensor product has
    # four simple Frobenius eigenlines, so every sum of them is stable.  The
    # root search once descended the residue class of 0 here without end.
    K = UnramifiedField(5, 2, 20, work_margin=140)
    rng = random.Random(2)
    m1 = gen.random_wa_module_d2(K, rng)
    m2 = gen.random_wa_module_d2(K, rng)
    lattice = m1.tensor_product(m2).phi_stable_subspaces()
    assert sorted(S.dimension for S in lattice) == \
        [0] + [1] * 4 + [2] * 6 + [3] * 4 + [4]


# -- certificates over the stable-subspace lattice --------------------------------

def _certificate_modules():
    """(name, module, admissible): d = 2 and d = 3 at f = 1, d = 2 at f = 2,
    and modules that fail on a subspace, globally, or both."""
    K5 = UnramifiedField(5, 1, 20)
    K25 = UnramifiedField(5, 2, 20)
    rng = random.Random(41)
    om = modular_form_module(5, 2, 1, field=K5)
    neg = [S for S in om.phi_stable_subspaces()
           if S.dimension == 1 and om.sub_degrees(S)[1] == Fraction(-1)][0]
    vec = [c.coordinate(0).lift_fraction() for c in neg.basis[0]]
    one = Subspace(K5, 1, [[K5.one()]])
    return [
        ("d2-f1", gen.random_wa_module_d2(K5, rng), True),
        ("ordinary", om, True),
        ("d3-f1", gen.random_wa_module(K5, rng, d=3), True),
        ("d2-f2", gen.random_wa_module_d2(K25, rng), True),
        ("eigenline", modular_form_module(5, 2, 1, filtration_line=vec,
                                          field=K5), False),
        ("global", FilteredPhiModule(K5, [[K5.coerce(5)]], [(0, one)]), False),
        ("both", FilteredPhiModule(K5, [[K5.coerce(Fraction(1, 5))]],
                                   [(0, one)]), False),
    ]


CERT_MODULES = _certificate_modules()
CERT_IDS = [name for name, _, _ in CERT_MODULES]


def _fresh(m):
    """The same module with nothing computed yet."""
    return FilteredPhiModule(m.field, m.phi_matrix, m.filtration,
                             validate=False)


def _oracle_rows(m, j=None):
    """Rows rebuilt from the induced module of every lattice member, keeping
    those whose induced Fil^j is 0 when j is given."""
    rows = []
    for S in m.phi_stable_subspaces()[1:]:
        sub = m.induced_submodule(S)
        if j is not None and sub.fil_at(j).dimension:
            continue
        rows.append(CertificateRow(S, sub.t_H, sub.t_N,
                                   Fraction(sub.t_H - sub.t_N, S.dimension)))
    return rows


def _jump_range(m):
    return range(min(m.jumps()) - 1, max(m.jumps()) + 2)


@pytest.mark.parametrize("name,module,admissible", CERT_MODULES, ids=CERT_IDS)
def test_certificates_match_rebuilt_rows(name, module, admissible):
    m = _fresh(module)
    wa = m.is_weakly_admissible()
    lam = m.max_subspace_slope()
    bounds = {(c, strict): m.slope_bound_check(c, strict)
              for c in (lam, lam - Fraction(1, 2)) for strict in (False, True)}
    ncond = {j: m.n_condition(j) for j in _jump_range(m)}
    rows = _oracle_rows(m)
    assert wa.rows == rows
    failing = [r for r in rows if r.t_H > r.t_N]
    globally = m.t_H == m.t_N
    assert wa.verdict == admissible == (globally and not failing)
    if failing:
        w = failing[0]
        assert wa.witness == w
        assert wa.note == (f"stable subspace of dimension "
                           f"{w.subspace.dimension} has t_H = {w.t_H} > "
                           f"t_N = {w.t_N}")
    else:
        assert wa.witness is None
        assert wa.note == ("" if globally else "global degrees differ")
    assert lam == max(r.slope for r in rows)
    first_max = next(r for r in rows if r.slope == lam)
    for (c, strict), cert in bounds.items():
        assert cert.rows == rows and cert.witness == first_max
        assert cert.verdict == all(r.slope < c if strict else r.slope <= c
                                   for r in rows)
    for j, cert in ncond.items():
        expect = _oracle_rows(m, j)
        bad = [r for r in expect if r.t_H >= r.t_N]
        assert cert.rows == expect
        assert cert.witness == (bad[0] if bad else None)
        assert cert.verdict == (not bad) and cert.note == ""
    if admissible:
        total = Subspace(m.field, m.d, [])
        for r in _oracle_rows(m, 0):
            if r.t_H == r.t_N:
                total = total.sum(r.subspace)
        assert m.fil1().equals(total)


@pytest.mark.parametrize("name,module,admissible", CERT_MODULES, ids=CERT_IDS)
def test_certificates_build_each_submodule_once(name, module, admissible,
                                                monkeypatch):
    # the certificates build no induced module, and the degrees of each
    # lattice member are computed once: fil1's re-check of the sum reads the
    # member equal to the sum
    m = _fresh(module)
    seen, reads, computed = [], [], []
    sub_degrees = FilteredPhiModule.sub_degrees
    induced_hodge = FilteredPhiModule._induced_hodge

    def reading(self, S):
        seen.append(S)
        reads.append(S)
        try:
            return sub_degrees(self, S)
        finally:
            reads.pop()

    def counting(self, S):
        if reads:
            computed.append(S)
        return induced_hodge(self, S)

    def building(self, S):
        raise AssertionError("a certificate built an induced module")

    monkeypatch.setattr(FilteredPhiModule, "sub_degrees", reading)
    monkeypatch.setattr(FilteredPhiModule, "_induced_hodge", counting)
    monkeypatch.setattr(FilteredPhiModule, "induced_submodule", building)
    m.is_weakly_admissible()
    m.max_subspace_slope()
    m.slope_bound_check(0)
    if admissible:
        f1 = m.fil1()
        assert any(T is f1 for T in seen) == bool(f1.dimension)
    else:
        with pytest.raises(PadicError):
            m.fil1()
    members = [S for S in m.phi_stable_subspaces() if S.dimension]
    for S in members:
        assert sum(T is S for T in computed) == 1
    assert len(computed) == len(members)


@pytest.mark.parametrize("name,module,admissible", CERT_MODULES, ids=CERT_IDS)
def test_n_condition_reads_only_fil_zero_members(name, module, admissible,
                                                 monkeypatch):
    read = []
    sub_degrees = FilteredPhiModule.sub_degrees

    def recording(self, S):
        read.append(S)
        return sub_degrees(self, S)

    monkeypatch.setattr(FilteredPhiModule, "sub_degrees", recording)
    for j in _jump_range(module):
        m = _fresh(module)
        read.clear()
        m.n_condition(j)
        expect = [S for S in m.phi_stable_subspaces()
                  if S.dimension and induced_fil_dim(m, S, j) == 0]
        assert len(read) == len(expect)
        assert all(a is b for a, b in zip(read, expect))


@pytest.mark.parametrize("seed", [3, 8])
def test_certificates_rank_each_member_at_most_once(seed, monkeypatch):
    # the Fil^0 filter of n_condition and fil1 and the degrees of the rows
    # share one rank per member; t_H of the full space is the last row's
    m = gen.random_wa_module_d3(UnramifiedField(5, 1, 20),
                                random.Random(seed))
    calls = []
    induced_hodge = FilteredPhiModule._induced_hodge

    def counting(self, S):
        calls.append(S)
        return induced_hodge(self, S)

    monkeypatch.setattr(FilteredPhiModule, "_induced_hodge", counting)
    m.is_weakly_admissible()
    m.n_condition(0)
    m.fil1()
    members = [S for S in m.phi_stable_subspaces() if S.dimension]
    assert len(calls) <= len(members)


def test_returned_rows_do_not_alias_the_memo():
    _, module, _ = CERT_MODULES[2]
    m = _fresh(module)
    first = m.is_weakly_admissible()
    expect = list(first.rows)
    first.rows[0].t_H += 100
    first.rows.reverse()
    first.rows.pop()
    again = m.is_weakly_admissible()
    assert again.verdict and again.rows == _oracle_rows(m)
    assert [r.subspace for r in again.rows] == [r.subspace for r in expect]
    cert = m.slope_bound_check(m.max_subspace_slope())
    cert.rows.clear()
    assert m.slope_bound_check(m.max_subspace_slope()).rows == again.rows


# -- lattice degrees against the induced-module oracle ------------------------

def _random_phi(K, rng, d, shape=None):
    """(A, P) with A = P D sigma(P)^-1 for a random unimodular integer P and
    D of one shape, drawn unless given: distinct integer slopes; at d = 3
    the companion matrix of X^3 - p u (an irreducible residual of slope
    1/3); a 2x2 Jordan block; at f = 1 the companion matrix of
    X^2 - p u X + p u' (slope 1/2); at f > 1 an antidiagonal block with a
    non-rational unit, whose B-eigenlines are not phi-stable.  Only on
    request, "repeat": distinct integer slopes but the first two equal.  The
    columns of P are eigenvectors of the split shape."""
    p = K.p

    def unit():
        return K.element([rng.randint(1, p - 1)] +
                         [rng.randint(0, p - 1) for _ in range(K.f - 1)])

    shapes = ["split", "cubic" if d == 3 else "split", "jordan"] + \
        (["swap"] if K.f > 1 else ["quadratic"])
    shape = shape or rng.choice(shapes)
    slopes = rng.sample(range(-3, 3), d)
    if shape == "repeat":
        slopes[1] = slopes[0]
    D = [[unit() * K.scalar(Fraction(p) ** s) if i == j else K.zero()
          for j in range(d)] for i, s in enumerate(slopes)]
    if shape == "quadratic":
        D[0][0], D[0][1] = K.zero(), -(unit() * K.coerce(p))
        D[1][0], D[1][1] = K.one(), unit() * K.coerce(p)
    elif shape == "cubic":
        D = [[K.zero(), K.zero(), unit() * K.coerce(p)],
             [K.one(), K.zero(), K.zero()], [K.zero(), K.one(), K.zero()]]
    elif shape == "jordan":
        D[1][1], D[0][1] = D[0][0], K.one()
    elif shape == "swap":  # B-eigenvalues a sigma(b), b sigma(a), apart mod p
        a = K.element([rng.randint(1, p - 1) for _ in range(K.f)])
        D[0][1], D[1][0] = a * K.scalar(Fraction(p) ** slopes[0]), K.one()
        D[0][0] = D[1][1] = K.zero()
    P = gen._unimodular(K, rng, d)
    return mat_mul(P, mat_mul(D, inverse(P))), P


def _random_module(K, rng, d, shape=None):
    """A module with phi from _random_phi and a random filtration, generally
    not admissible: nested steps spanned by leading runs of vectors, each a
    column of P or a small random integer vector."""
    A, P = _random_phi(K, rng, d, shape)
    full = [[K.one() if i == j else K.zero() for j in range(d)]
            for i in range(d)]
    while True:
        vecs = [[row[i] for row in P] if rng.random() < 0.4 else
                [K.coerce(rng.randint(-3, 3)) for _ in range(d)]
                for i in rng.sample(range(d), d - 1)]
        dims = sorted(rng.sample(range(1, d), rng.randint(0, d - 1)),
                      reverse=True)
        jumps = sorted(rng.sample(range(-3, 4), len(dims) + 1))
        steps = [Subspace(K, d, full)] + [Subspace(K, d, vecs[:k])
                                          for k in dims]
        if [S.dimension for S in steps[1:]] == dims:
            return FilteredPhiModule(K, A, list(zip(jumps, steps)))


def _assert_degrees_match_oracle(m):
    """sub_degrees, induced_fil_dim and hodge_degree against the induced
    module of every lattice member."""
    dims = [S.dimension for _, S in m.filtration] + [0]
    assert m.hodge_degree()[0] == {j: a - b for j, a, b in
                                   zip(m.jumps(), dims, dims[1:])}
    lattice = m.phi_stable_subspaces()
    assert lattice[0].dimension == 0 and lattice[-1].dimension == m.d
    for S in lattice[1:]:
        assert m.is_phi_stable(S)[0]
        sub = m.induced_submodule(S)
        assert m.sub_degrees(S) == (sub.t_H, sub.t_N)
        for j in _jump_range(m):
            assert induced_fil_dim(m, S, j) == sub.fil_at(j).dimension
    assert m.sub_degrees(m.full_space()) == (m.t_H, m.t_N)


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("f", [1, 2])
@pytest.mark.parametrize("p", [3, 5, 7])
def test_lattice_degrees_match_induced_modules(p, f, d):
    K = UnramifiedField(p, f, 20)
    rng = random.Random(1000 * p + 100 * f + d)
    checked = 0
    for _ in range(4):
        m = _random_module(K, rng, d)
        try:
            m.phi_stable_subspaces()
        except EnumerationUnsupportedError:
            continue
        _assert_degrees_match_oracle(m)
        checked += 1
    assert checked >= 2


@pytest.mark.parametrize("p", [3, 5])
def test_tensor_lattice_degrees_match_induced_modules(p):
    K = UnramifiedField(p, 1, 20, work_margin=60)
    rng = random.Random(50 + p)
    checked = 0
    for _ in range(3):
        tp = _random_module(K, rng, 2).tensor_product(
            _random_module(K, rng, 2))
        try:
            tp.phi_stable_subspaces()
        except EnumerationUnsupportedError:
            continue
        _assert_degrees_match_oracle(tp)
        checked += 1
    assert checked >= 1
    # four simple eigenlines at f = 2: all sixteen sums are members
    K = UnramifiedField(5, 2, 20, work_margin=140)
    rng = random.Random(2)
    tp = gen.random_wa_module_d2(K, rng).tensor_product(
        gen.random_wa_module_d2(K, rng))
    _assert_degrees_match_oracle(tp)


@pytest.mark.parametrize("f", [2, 3])
def test_lattices_at_f_2_and_3(f):
    # random d = 2 modules (a Jordan block among them), d = 3 modules with a
    # repeated slope, and the tensor product of two d = 2 modules
    K = UnramifiedField(5, f, 20, work_margin=140)
    rng = random.Random(93)
    mods = [_random_module(K, rng, 2) for _ in range(3)] + \
        [_random_module(K, rng, 3, "repeat") for _ in range(2)]
    mods.append(_random_module(K, rng, 2).tensor_product(
        _random_module(K, rng, 2)))
    sizes = []
    for m in mods:
        _assert_degrees_match_oracle(m)
        sizes.append(len(m.phi_stable_subspaces()))
    assert 3 in sizes[:3]  # 0, the eigenline and the plane of a Jordan block
    assert sizes[3:5] == [8, 8] and sizes[5] > 4


@pytest.mark.parametrize("f", [2, 3])
def test_double_roots_at_f_2_and_3_are_fast(f):
    # the root search follows only the double root mod p, not all p^f
    # residue classes around it
    K = UnramifiedField(5, f, 20)
    jordan = FilteredPhiModule(K, [[K.coerce(5), K.one()],
                                   [K.zero(), K.coerce(5)]], [(0, full2(K))])
    start = time.perf_counter()
    lattice = jordan.phi_stable_subspaces()
    assert time.perf_counter() - start < 2
    assert [S.dimension for S in lattice] == [0, 1, 2]
    assert [jordan.sub_degrees(S)[1] for S in lattice] == [0, 1, 2]
    # A sigma(A) = 5 Id: phi^2 is a scalar at f = 2, and at f = 3 phi^3 = 5A
    # has the irrational eigenvalues +-5 sqrt 5
    swap = FilteredPhiModule(K, [[K.zero(), K.coerce(5)],
                                 [K.one(), K.zero()]], [(0, full2(K))])
    start = time.perf_counter()
    if f == 2:
        with pytest.raises(EnumerationUnsupportedError, match="scalar block"):
            swap.phi_stable_subspaces()
    else:
        assert [S.dimension for S in swap.phi_stable_subspaces()] == [0, 2]
    assert time.perf_counter() - start < 2


def _needs_a_power_beyond_the_working_precision(m):
    """Whether, for some integer root valuation v of the charpoly g of
    phi^f, g(p^v y) has content p^-e with e at least the working precision,
    so that p^e as a Q_p scalar at that precision is a tracked zero."""
    K = m.field
    g = modules._charpoly(m.linearized_frobenius(), K)
    return any(-min(c.val + int(v) * k for k, c in enumerate(g)
                    if c.val is not None) >= K.work_prec
               for v in set(newton_root_valuations(g)) if v.denominator == 1)


def test_lattice_when_h_needs_a_power_beyond_the_working_precision():
    # tensor products of seeded d = 2 modules over K(5, 3) at work margin
    # 24, each with a root valuation whose normalized h needs a factor p^e,
    # e >= 44.  h is scaled by p^e exactly, so every lattice is found, and
    # it matches the induced modules wherever those can be built at this
    # precision (seed 21's cannot)
    K = UnramifiedField(5, 3, 20, work_margin=24)
    tried = matched = 0
    for seed in range(30):
        rng = random.Random(seed)
        tp = gen.random_wa_module_d2(K, rng).tensor_product(
            gen.random_wa_module_d2(K, rng))
        if not _needs_a_power_beyond_the_working_precision(tp):
            continue
        tried += 1
        tp.phi_stable_subspaces()
        try:
            _assert_degrees_match_oracle(tp)
        except PrecisionError:
            continue
        matched += 1
    assert tried == 12 and matched >= 11


def _max_slope_members(m):
    """(lambda_max, the nonzero lattice members of slope lambda_max)."""
    rows = m.slope_bound_check(0).rows
    lam = max(r.slope for r in rows)
    return lam, [r.subspace for r in rows if r.slope == lam]


def _tensor_subspace(m1, m2, S1, S2):
    """S1 (x) S2 in the coordinates of m1.tensor_product(m2), which are the
    products of the factors' adapted coordinates."""
    Q1 = inverse(m1.in_adapted_coordinates()[2])
    Q2 = inverse(m2.in_adapted_coordinates()[2])
    return Subspace(m1.field, m1.d * m2.d,
                    [[a * b for a in mat_vec(Q1, u) for b in mat_vec(Q2, v)]
                     for u in S1.basis for v in S2.basis])


@pytest.mark.parametrize("f", [1, 2])
def test_max_slope_adds_on_tensor_products(f):
    # factors that are not weakly admissible: split phi with a random
    # filtration (a destabilizing eigenline), or split_module's "strict"
    # jumps (every subspace of slope -drop).  lambda = (t_H - t_N)/dim, and
    # by Totaro (Duke Math. J. 83, 1996) tensor products of semistable
    # filtered isocrystals are semistable, so the Harder-Narasimhan
    # filtrations multiply: lambda_max(M1 (x) M2) = lambda_max(M1) +
    # lambda_max(M2), and the largest member of maximal slope is the product
    # of the factors' largest ones.  When each factor has one member of
    # maximal slope, that product is also slope_bound_check's witness
    K = UnramifiedField(5, f, 20, work_margin=60)
    rng = random.Random(7 + f)
    kinds = set()
    for _ in range(10 if f == 1 else 5):
        kind = rng.choice(["line", "strict"])
        factors = []
        while len(factors) < 2:
            m = _random_module(K, rng, 2, "split") if kind == "line" else \
                gen.split_module(K, rng, 2, "strict")[0]
            if not m.is_weakly_admissible().verdict:
                factors.append(m)
        tops = []
        for m in factors:
            assert all(r.slope == Fraction(r.t_H - r.t_N, r.subspace.dimension)
                       for r in m.slope_bound_check(0).rows)
            tops.append(_max_slope_members(m))
        (l1, top1), (l2, top2) = tops
        m1, m2 = factors
        tp = m1.tensor_product(m2)
        lam, top = _max_slope_members(tp)
        assert lam == l1 + l2
        largest = [max(t, key=lambda S: S.dimension) for t in (top1, top2)]
        product_top = _tensor_subspace(m1, m2, *largest)
        assert max(top, key=lambda S: S.dimension).equals(product_top)
        cert = tp.slope_bound_check(l1 + l2)
        assert cert.verdict and cert.witness.slope == lam
        assert not tp.slope_bound_check(l1 + l2, strict=True).verdict
        if len(top1) == len(top2) == 1:
            assert cert.witness.subspace.equals(product_top)
            kinds.add("unique")
        else:
            assert product_top.contains(cert.witness.subspace)
            kinds.add(kind)
    assert kinds == {"unique", "strict"}


@pytest.mark.parametrize("f", [1, 2])
def test_twist_keeps_the_lattice(f):
    # twist(k) hands its lattice over when the parent's is built; either way
    # it matches a module built afresh from the twisted matrix
    K = UnramifiedField(5, f, 20)
    rng = random.Random(60 + f)
    for _ in range(2):
        m = _random_module(K, rng, rng.choice([2, 3]))
        try:
            m.phi_stable_subspaces()
        except EnumerationUnsupportedError:
            continue
        for k in range(-2, 3):
            before = _fresh(m)
            before.phi_stable_subspaces()
            for tw in (before.twist(k), _fresh(m).twist(k)):
                fresh = _fresh(tw)
                got, want = tw.phi_stable_subspaces(), \
                    fresh.phi_stable_subspaces()
                assert len(got) == len(want)
                assert all(S.equals(T) for S, T in zip(got, want))
                assert [tw.sub_degrees(S) for S in got] == \
                    [fresh.sub_degrees(S) for S in want]
                _assert_degrees_match_oracle(tw)
            if k:
                handed = before.twist(k).phi_stable_subspaces()
                assert all(S is T for S, T in zip(handed, before._lattice))


@pytest.mark.parametrize("name,module,admissible", CERT_MODULES, ids=CERT_IDS)
def test_certificate_module_degrees_match_induced_modules(name, module,
                                                          admissible):
    _assert_degrees_match_oracle(_fresh(module))


def test_lattice_errors_still_fire(K5):
    # a scalar block has an infinite invariant lattice
    scalar = FilteredPhiModule(K5, [[K5.one(), K5.zero()],
                                    [K5.zero(), K5.one()]], [(0, full2(K5))])
    with pytest.raises(EnumerationUnsupportedError):
        scalar.sub_degrees(scalar.full_space())
    with pytest.raises(EnumerationUnsupportedError):
        scalar.is_weakly_admissible()
    # det phi of valuation 41 at precision 44: its Newton polygon is
    # undecided
    near = FilteredPhiModule(K5, [[K5.one(), K5.zero()],
                                  [K5.zero(), K5.coerce(5 ** 41)]],
                             [(0, full2(K5))], validate=False)
    with pytest.raises(PrecisionError):
        near.phi_stable_subspaces()
    with pytest.raises(PrecisionError):
        near.sub_degrees(near.full_space())
    # a line that is not an eigenline is not a member
    m = modular_form_module(5, 2, 1, field=K5)
    with pytest.raises(NotStableError) as info:
        m.sub_degrees(line(K5, [1, 1]))
    assert info.value.witness is not None


def _level_sum_dims(level_lists):
    """{j: dim} of the filtration whose basis vectors carry the level sums
    over one level from each list (the convolution of Hodge multisets)."""
    sums = [sum(t) for t in product(*level_lists)]
    return {j: sum(s >= j for s in sums) for j in sorted(set(sums))}


def _hodge_levels(m):
    h, _ = m.hodge_degree()
    return [j for j in sorted(h) for _ in range(h[j])]


def _step_dims(m):
    return {j: sub.dimension for j, sub in m.filtration}


def test_product_filtrations_keep_jumps_and_dims(K5):
    rng = random.Random(43)
    m = gen.random_wa_module(K5, rng, d=3)
    other = gen.random_wa_module_d2(K5, rng)
    lv = _hodge_levels(m)
    ad, levels, _ = m.in_adapted_coordinates()
    assert sorted(levels) == lv
    assert _step_dims(ad) == _step_dims(m) == _level_sum_dims([lv])
    for j, sub in ad.filtration:
        e = [[K5.one() if k == i else K5.zero() for k in range(3)]
             for i in range(3) if levels[i] >= j]
        assert sub.equals(Subspace(K5, 3, e))
    tp = m.tensor_product(other)
    assert _step_dims(tp) == _level_sum_dims([lv, _hodge_levels(other)])
    assert tp.t_H == 2 * m.t_H + 3 * other.t_H
    w2 = m.wedge_power(2)
    pair_sums = [lv[a] + lv[b] for a, b in combinations(range(3), 2)]
    assert _step_dims(w2) == _level_sum_dims([pair_sums])
    assert w2.t_H == 2 * m.t_H


# -- constructor validation -------------------------------------------------------

def test_modular_form_module_validation(K5):
    with pytest.raises(ValueError):
        modular_form_module(5, 1, 0, field=K5)
    with pytest.raises(ValueError):
        modular_form_module(5, 2, Fraction(1, 5), field=K5)


def test_filtration_validation(K5):
    A = [[K5.one(), K5.zero()], [K5.zero(), K5.coerce(5)]]
    with pytest.raises(ValueError):
        FilteredPhiModule(K5, A, [(0, line(K5, [1, 0])), (1, full2(K5))])
    with pytest.raises(ValueError):
        FilteredPhiModule(K5, A, [(0, line(K5, [1, 0]))])  # first not full
    sing = [[K5.one(), K5.one()], [K5.one(), K5.one()]]
    with pytest.raises(PrecisionError):
        FilteredPhiModule(K5, sing, [(0, full2(K5))])


def test_filtration_line_is_decided_at_the_field_guard():
    # the line [5^38, 1] at 44 digits: its echelon reads an entry of
    # valuation 38, clear of a 4-digit guard band and inside an 8-digit one
    for guard, decides in ((4, True), (8, False)):
        K = UnramifiedField(5, 1, 20, guard=guard)
        vec = [K.coerce(5 ** 38), K.one()]
        A = [[K.one(), K.zero()], [K.zero(), K.coerce(5)]]
        if decides:
            assert Subspace(K, 2, [vec]).dimension == 1
            FilteredPhiModule(K, A, [(0, full2(K)), (1, [vec])])
        else:
            with pytest.raises(PrecisionError):
                Subspace(K, 2, [vec])
            with pytest.raises(PrecisionError):
                FilteredPhiModule(K, A, [(0, full2(K)), (1, [vec])])


def test_filtration_from_another_field_is_decided_at_the_module_guard():
    # entries built over a guard-4 field are coerced into the guard-8
    # module field, raw or wrapped in a guard-4 Subspace, and decided there
    K4, K8 = UnramifiedField(5, 1, 20), UnramifiedField(5, 1, 20, guard=8)
    A = [[K8.one(), K8.zero()], [K8.zero(), K8.coerce(5)]]
    for K in (K8, K4):
        with pytest.raises(PrecisionError):
            FilteredPhiModule(K8, A, [(0, full2(K8)),
                                      (1, [[K.coerce(5 ** 38), K.one()]])])
    wrapped = Subspace(K4, 2, [[K4.coerce(5 ** 38), K4.one()]])
    with pytest.raises(PrecisionError):
        FilteredPhiModule(K8, A, [(0, full2(K8)), (1, wrapped)])
    # a line clear of both guard bands keeps its dimension, over K8
    m = FilteredPhiModule(K8, A, [(0, full2(K8)), (1, line(K4, [1, 1]))])
    fil = m.filtration[1][1]
    assert fil.field is K8 and fil.dimension == 1
    assert all(c.field is K8 for v in fil.basis for c in v)


def test_rank_staircase():
    # j -> rank(twist(M, j)) is non-decreasing and reaches f*d beyond the
    # negated minimal Hodge jump; large twists spread valuations, so use a
    # wide window
    K = UnramifiedField(5, 1, 20, work_margin=120)
    rng = random.Random(37)
    for _ in range(8):
        m = gen.random_wa_module(K, rng)
        jmin = min(m.jumps())
        ranks = [m.twist(j).universal_norm_rank() for j in range(-3, -jmin + 2)]
        assert all(a <= b for a, b in zip(ranks, ranks[1:]))
        assert ranks[-1] == m.field.f * m.d


# -- generators --------------------------------------------------------------

def test_generators_give_up_instead_of_looping(K5, monkeypatch):
    # a certifier that fails on every candidate ends in RuntimeError, chained
    # to the last failure, after a bounded number of tries
    def failing(*args, **kwargs):
        raise PadicError("certifier failed")

    start = time.perf_counter()
    monkeypatch.setattr(FilteredPhiModule, "is_weakly_admissible", failing)
    with pytest.raises(RuntimeError) as info:
        gen.random_wa_module_d2(K5, random.Random(5))
    assert isinstance(info.value.__cause__, PadicError)
    monkeypatch.setattr(gen, "FilteredPhiModule", failing)
    with pytest.raises(RuntimeError) as info:
        gen.random_h0_ncond_module(K5, random.Random(5))
    assert isinstance(info.value.__cause__, PadicError)
    monkeypatch.undo()
    monkeypatch.setattr(FilteredPhiModule, "is_weakly_admissible",
                        lambda self: SimpleNamespace(verdict=False))
    with pytest.raises(RuntimeError):
        gen.random_h0_ncond_module(K5, random.Random(5))
    assert time.perf_counter() - start < 10


@pytest.mark.parametrize("sampler", [gen.random_wa_module_d2,
                                     gen.random_wa_module_d3,
                                     gen.random_h0_ncond_module])
def test_samplers_propagate_programming_errors(K5, monkeypatch, sampler):
    # a refusal of the library rejects a draw; a TypeError is a defect and
    # must not be taken for one
    def broken(*args, **kwargs):
        raise TypeError("broken constructor")

    monkeypatch.setattr(gen, "FilteredPhiModule", broken)
    with pytest.raises(TypeError, match="broken constructor"):
        sampler(K5, random.Random(1))
