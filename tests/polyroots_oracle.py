"""Reference root search for the differential tests of ``polyroots``.

This is the digit descent that ``polyroots.find_k_roots`` used before
Panayi's reduction: it tries every residue class x = center + r0 p^scale
with v(h(x)) > scale, Hensel-lifts from the first class where Newton's test
passes, gives up below ``_DESCENT_DEPTH`` levels and then retries through
the roots of the derivative.  Around a multiple root at f >= 2 it grows as
(p^f)^depth, so tests call it only on polynomials where it finishes fast.
It also stops at the first class where Newton's test passes, so it can miss
a root of a cluster (x^2 - 32x + 156 = (x - 6)(x - 26) over Q_5 loses 6).
Its lift keeps the precision of the last Newton iterate, which can exceed
what Hensel's lemma certifies; ``certified_prec`` gives that bound.
"""

from fractions import Fraction
from itertools import product as iter_product

from padic_hodge.errors import EnumerationUnsupportedError, PrecisionError
from padic_hodge.padics import FieldElement
from padic_hodge.polyroots import (newton_root_valuations, poly_derivative,
                                   poly_divide_linear, poly_eval)

# deepest level of the digit descent before a cluster counts as unresolved
_DESCENT_DEPTH = 6


def _residue_elements(field):
    """All elements of the residue field F_{p^f} as integral FieldElements."""
    p, f = field.p, field.f
    return [field.element(list(digits))
            for digits in iter_product(range(p), repeat=f)]


def _newton_converges(g, dg, x, field):
    gx = poly_eval(g, x, field)
    dgx = poly_eval(dg, x, field)
    vg = gx.valuation_or_none()
    vdg = dgx.valuation_or_none()
    if vdg is None:
        return False
    if vg is None:
        return True
    return vg > 2 * vdg


def _lift_root(g, dg, x, field, target_prec):
    for _ in range(64):
        gx = poly_eval(g, x, field)
        v = gx.valuation_or_none()
        if v is None or v >= target_prec:
            return x
        dgx = poly_eval(dg, x, field)
        x = x - gx * field.inverse(dgx)
    raise PrecisionError("Newton iteration for a root did not converge")


def _normalized(g, val, field):
    """h(y) = g(p^val y) divided by its content, through Q_p scalars."""
    p = field.p
    h = [c * field.scalar(Fraction(p) ** (val * k)) for k, c in enumerate(g)]
    vmin = min(c.valuation() for c in h if not c.is_zero)
    return [c * field.scalar(Fraction(p) ** (-vmin)) for c in h]


def certified_prec(g, root, field):
    """The precision to which Hensel's lemma certifies a root of g returned
    by this search: with y = root / p^val a unit root of the normalized h,
    h(y) vanishes mod p^P and v(y - true root) >= P - v(h'(y))."""
    val = root.val
    h = _normalized(g, val, field)
    y = FieldElement(field, 0, root.prec - val, root.res)
    hy = poly_eval(h, y, field)
    assert hy.is_zero
    return val + hy.prec - poly_eval(poly_derivative(h, field), y,
                                     field).valuation()


def _roots_with_valuation(g, val, field):
    """(simple K-roots of monic g with the given integer valuation,
    unresolved-cluster flag)."""
    p = field.p
    h = _normalized(g, val, field)
    dh = poly_derivative(h, field)
    target = min(c.prec for c in h)
    roots = []
    unresolved = [False]

    def descend(center, scale, depth):
        if depth > _DESCENT_DEPTH:
            unresolved[0] = True
            return
        for r0 in _residue_elements(field):
            if depth == 0 and r0.is_zero:
                continue
            x = center + r0 * field.scalar(Fraction(p) ** scale)
            hx = poly_eval(h, x, field)
            vh = hx.valuation_or_none()
            if vh is not None and vh <= scale:
                continue
            if _newton_converges(h, dh, x, field):
                root = _lift_root(h, dh, x, field, target)
                if not any((root - r).is_zero for r in roots):
                    roots.append(root)
            else:
                descend(x, scale + 1, depth + 1)

    descend(field.zero(), 0, 0)
    return [r * field.scalar(Fraction(p) ** val) for r in roots], unresolved[0]


def strip_root(work, r, field):
    """(work divided by (X - r) while the remainder is a tracked zero, the
    number of such divisions): the multiplicity count of the descent."""
    mult = 0
    while len(work) > 1:
        q, rem = poly_divide_linear(work, r, field)
        if not rem.is_zero:
            break
        work = q
        mult += 1
    return work, mult


def find_k_roots(g, field, _depth=0):
    """(roots with multiplicities, residual) by the digit descent."""
    g = list(g)
    if len(g) <= 1:
        return [], g
    vals = newton_root_valuations(g)
    candidates = []
    unresolved = False
    for v in sorted(set(vals)):
        if v.denominator != 1:
            continue
        found, flag = _roots_with_valuation(g, int(v), field)
        candidates.extend(found)
        unresolved = unresolved or flag
    if unresolved and len(g) > 2 and _depth < 4:
        dg = poly_derivative(g, field)
        lead_inv = field.inverse(dg[-1])
        dmonic = [c * lead_inv for c in dg]
        droots, _ = find_k_roots(dmonic, field, _depth + 1)
        for r, _m in droots:
            if poly_eval(g, r, field).is_zero and \
               not any((r - c).is_zero for c in candidates):
                candidates.append(r)
    roots = []
    work = g
    for r in candidates:
        work, mult = strip_root(work, r, field)
        if mult:
            roots.append((r, mult))
    if unresolved:
        if len(work) > 1 and any(v.denominator == 1
                                 for v in newton_root_valuations(work)):
            raise EnumerationUnsupportedError(
                "root cluster could not be separated (non-generic Frobenius)")
    return roots, work
