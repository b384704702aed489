"""Newton polygons and K-rational root finding for monic polynomials over
the unramified field.

Roots in K have integer valuation (K is unramified), so candidate
valuations come from the integer-slope segments of the Newton polygon;
within one, residues are enumerated over the residue field F_{p^f} and
lifted by Hensel/Newton iteration, descending digit by digit when the
reduction has a multiple root.  Everything returns certified data or
raises: a polygon vertex decided by a coefficient known only below the
guard threshold is a PrecisionError, and a root search that cannot separate
clusters is reported as unsupported rather than guessed.
"""

from fractions import Fraction
from itertools import product as iter_product

from .errors import PrecisionError, EnumerationUnsupportedError

# deepest level of the digit descent before a cluster counts as unresolved
_DESCENT_DEPTH = 6


def poly_eval(coeffs, x, field):
    acc = coeffs[-1] if coeffs else field.zero(x.prec)
    for c in reversed(coeffs[:-1]):
        acc = acc * x + c
    return acc


def poly_derivative(coeffs, field):
    return [c * i for i, c in enumerate(coeffs)][1:]


def poly_divide_linear(coeffs, root, field):
    """Synthetic division by (X - root): returns (quotient, remainder)."""
    d = len(coeffs) - 1
    out = [None] * d
    acc = coeffs[d]
    for i in range(d - 1, -1, -1):
        out[i] = acc
        acc = coeffs[i] + acc * root
    return out, acc


def newton_root_valuations(coeffs):
    """Multiset of root valuations of a monic polynomial from its Newton
    polygon (valuations of the roots in an algebraic closure).

    Raises PrecisionError when a hull vertex would be decided by a
    coefficient that is indistinguishable from zero at its precision, or
    whose valuation lies inside the guard band of its field.
    """
    d = len(coeffs) - 1
    pts = []
    unknown = []
    for k, c in enumerate(coeffs):
        v = c.valuation_or_none()
        if v is None:
            if k == d:
                raise ValueError("polynomial is not monic at precision")
            unknown.append((k, c.prec))
        else:
            if k < d and v > c.prec - c.field.guard:
                raise PrecisionError(
                    f"coefficient {k} valuation {v} inside the guard band")
            pts.append((k, Fraction(v)))
    if not pts or pts[0][0] != 0:
        raise PrecisionError(
            "constant coefficient indistinguishable from zero "
            "(polynomial not invertible at precision)")
    # lower convex hull from (0, v0) to (d, 0)
    hull = [pts[0]]
    rest = pts[1:]
    while hull[-1][0] != d:
        x0, y0 = hull[-1]
        best = None
        best_slope = None
        for (x1, y1) in rest:
            if x1 <= x0:
                continue
            s = (y1 - y0) / (x1 - x0)
            if best_slope is None or s < best_slope or \
               (s == best_slope and x1 > best[0]):
                best, best_slope = (x1, y1), s
        hull.append(best)
    # tracked-zero coefficients must not dip below the hull
    def hull_value(k):
        for (x0, y0), (x1, y1) in zip(hull, hull[1:]):
            if x0 <= k <= x1:
                return y0 + (y1 - y0) * Fraction(k - x0, x1 - x0)
        raise AssertionError
    for k, prec in unknown:
        if Fraction(prec) < hull_value(k):
            raise PrecisionError(
                f"coefficient {k} known only mod p^{prec}, below the hull "
                f"value {hull_value(k)}")
    vals = []
    for (x0, y0), (x1, y1) in zip(hull, hull[1:]):
        slope = (y1 - y0) / (x1 - x0)
        vals.extend([-slope] * (x1 - x0))
    return sorted(vals)


def _residue_elements(field):
    """All elements of the residue field F_{p^f} as integral FieldElements."""
    p, f = field.p, field.f
    out = []
    for digits in iter_product(range(p), repeat=f):
        out.append(field.element(list(digits)))
    return out


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


def _roots_with_valuation(g, val, field):
    """(simple K-roots of monic g with the given integer valuation,
    unresolved-cluster flag)."""
    p = field.p
    # normalize: x = p^val * y, divide by the content so y-roots are units
    h = [c * field.scalar(Fraction(p) ** (val * k)) for k, c in enumerate(g)]
    vmin = min(c.valuation() for c in h if not c.is_zero)
    h = [c * field.scalar(Fraction(p) ** (-vmin)) for c in h]
    dh = poly_derivative(h, field)
    # lift all the way to the window so that downstream subtractions
    # B - lambda leave tracked zeros, not guard-band residue
    target = min(c.prec for c in h)
    roots = []
    unresolved = [False]

    def descend(center, scale, depth):
        # search roots congruent to center mod p^scale
        if depth > _DESCENT_DEPTH:
            unresolved[0] = True
            return
        for r0 in _residue_elements(field):
            if depth == 0 and r0.is_zero:
                continue  # y = x / p^val is a unit: no root reduces to 0
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


def _strip_root(work, r, field):
    mult = 0
    while len(work) > 1:
        q, rem = poly_divide_linear(work, r, field)
        if not rem.is_zero:
            break
        work = q
        mult += 1
    return work, mult


def find_k_roots(g, field, _depth=0):
    """All K-rational roots of a monic polynomial with multiplicities.

    Returns (roots, residual): roots as a list of (root, multiplicity) and
    the monic residual factor without K-roots.  Simple roots come from the
    digit-descent Hensel search; clusters the search cannot separate are
    retried through the roots of the derivative (multiple roots), and only
    if that also fails is the enumeration reported unsupported.
    """
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
        work, mult = _strip_root(work, r, field)
        if mult:
            roots.append((r, mult))
    if unresolved:
        if len(work) > 1 and any(v.denominator == 1
                                 for v in newton_root_valuations(work)):
            # integer-slope mass remains and the search could not separate it
            raise EnumerationUnsupportedError(
                "root cluster could not be separated (non-generic Frobenius)")
    return roots, work
