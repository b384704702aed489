"""Newton polygons and K-rational root finding for monic polynomials over
the unramified field.

Roots in K have integer valuation (K is unramified), so candidate
valuations come from the integer-slope segments of the Newton polygon.
For one valuation v, the roots are p^v y for the unit roots y of h, the
polynomial g(p^v y) divided by its content.  h is read off g's
coefficients directly: scaling by p^e is exact, moving a valuation and a
precision by e and keeping the residues.

The unit roots are found by Panayi's reduction (Berthomieu, Lecerf &
Quintin, "Polynomial root finding over local rings and application to
error correcting codes", AAECC 24, 2013).  A node of the search is a disc
y = center + p^scale z with the polynomial h(center + p^scale z) modulo
p^target, target being the least precision of h's coefficients.  The node
divides that polynomial by its content, finds the roots r0 of the
reduction mod p over F_{p^f}, and follows only those.  So a node branches
at most deg h ways, not p^f.
- A root r0 where Newton's test v(h(x)) > 2 v(h'(x)) holds at
  x = center + p^scale r0 is Hensel-lifted from x.
- A root r0 that is multiple mod p, or fails the test, becomes the child
  node center + p^scale r0 + p^(scale+1) z.  A multiple root is followed even
  after a lift, so every root of a cluster is found.
- A node whose polynomial vanishes mod p^target is a cluster that the
  precision cannot separate.  ``find_k_roots`` then looks for multiple roots
  among the roots of the derivative, and raises when that does not
  account for the cluster.

Multiplicities come from the search itself.  A Hensel-lifted root passes
Newton's test, so it is simple.  A root of g' of multiplicity m at which g
vanishes is a root of g of multiplicity m + 1; each recursion through the
derivative lowers the degree by one.  The residual is g divided by
(X - r) m times for each root, and a remainder that is not a tracked zero
raises.

The search runs on integer residue tuples: plain integers at f = 1 and the
field's own product otherwise.  Its Horner evaluation and Newton steps keep
the precision that FieldElement arithmetic would give them.  A lifted root
is returned to the least of that precision and the one Hensel's lemma
certifies: when h(x) vanishes mod p^P, x is within p^(P - v(h'(x))) of the
root.  Everything returns certified data or raises: a polygon vertex
decided by a coefficient known only below the guard threshold is a
PrecisionError, so are a division remainder that does not vanish and a
count of roots of one valuation, with multiplicity, above the polygon's
(a safety check), and a cluster that the search cannot
separate is reported as unsupported rather than guessed.
"""

from fractions import Fraction
from itertools import product as iter_product
from math import gcd

from .errors import PrecisionError, EnumerationUnsupportedError
from .padics import FieldElement, vp_int


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


def _int_ops(field):
    """(product, inverse) on residue tuples: plain integers at f = 1, the
    field's own product and inverse otherwise."""
    if field.f == 1:
        def mul(a, b, mod):
            return (a[0] * b[0] % mod,)

        def inv(a, rel):
            return (pow(a[0], -1, field.p ** rel),)
    else:
        mul = field._mul_res

        def inv(a, rel):
            return field.inverse(FieldElement(field, 0, rel, a)).res
    return mul, inv


def _int_poly(coeffs, field):
    """(integer residue tuples of the coefficients reduced mod p^prec, prec)
    with prec the least coefficient precision."""
    p = field.p
    prec = min(c.prec for c in coeffs)
    mod = p ** prec
    return [field._zeros if c.val is None else
            tuple(r * p ** c.val % mod for r in c.res) for c in coeffs], prec


def _horner(coeffs, x, mod, mul):
    """(coeffs evaluated at x mod ``mod``, gcd of ``mod`` and every partial
    Horner sum that gets multiplied by x)."""
    acc = coeffs[-1]
    low = mod
    for c in reversed(coeffs[:-1]):
        low = gcd(low, *acc)
        acc = tuple((a + b) % mod for a, b in zip(mul(acc, x, mod), c))
    return acc, low


def _evaluate(ipoly, x, xprec, p, mul):
    """(val or None, prec, residues mod p^prec) of ``poly_eval`` at a unit x
    known mod p^xprec, for a polynomial from ``_int_poly``.

    FieldElement arithmetic knows acc * x + c to the least of c's precision
    and, when acc is not zero, v(acc) + xprec; so the value is known to the
    least coefficient precision, or to xprec plus the least valuation of a
    partial Horner sum if that is lower."""
    coeffs, cprec = ipoly
    acc, low = _horner(coeffs, x, p ** cprec, mul)
    prec = min(cprec, xprec + vp_int(low, p))
    v = vp_int(gcd(p ** prec, *acc), p)
    return (None if v >= prec else v), prec, acc


class _UnitRootSearch:
    """Panayi's reduction for the unit roots of h, a polynomial over K with
    content 1 given as FieldElements: ``roots`` in the order found, and
    ``unresolved`` when a cluster vanishes at the precision."""

    def __init__(self, h, field):
        self.field = field
        self.p = p = field.p
        self.ih = _int_poly(h, field)
        self.idh = _int_poly(poly_derivative(h, field), field)
        self.target = self.ih[1]
        self.mod_t = p ** self.target
        # a start point center + p^scale r0 is known to the working
        # precision, as the FieldElement sum of its digits is
        self.start_prec = field.work_prec
        self.mul, self.inv = _int_ops(field)
        self.residues = list(iter_product(range(p), repeat=field.f))
        self.roots = []
        self.unresolved = False
        self.descend(field._zeros, 0, self.ih[0])

    def newton_converges(self, x):
        # Hensel: v(h(x)) > 2 v(h'(x)), where a value of h that vanishes at
        # its precision counts at that precision
        p, mul = self.p, self.mul
        vg, pg, _ = _evaluate(self.ih, x, self.start_prec, p, mul)
        vd = _evaluate(self.idh, x, self.start_prec, p, mul)[0]
        return vd is not None and (pg if vg is None else vg) > 2 * vd

    def lift(self, x):
        # Newton x <- x - h(x)/h'(x) on residue tuples, each step known to
        # the precision that FieldElement arithmetic gives it; it runs until
        # h(x) vanishes at its precision, so that downstream subtractions
        # B - lambda leave tracked zeros.  A step costs v(h'(x)) digits, and
        # Hensel certifies v(h(x)) - v(h'(x)) (pg for v(h(x)) once h(x)
        # vanishes mod p^pg): the root is the iterate certified furthest
        p, mul = self.p, self.mul
        xprec = self.start_prec
        best, best_prec = x, -1
        for _ in range(64):
            vg, pg, gx = _evaluate(self.ih, x, xprec, p, mul)
            vd, pd, dgx = _evaluate(self.idh, x, xprec, p, mul)
            if vd is None:
                raise PrecisionError(
                    "derivative indistinguishable from zero at a root")
            certified = min(xprec, (pg if vg is None else vg) - vd)
            if certified >= best_prec:
                best, best_prec = x, certified
            if vg is None:
                return self.field.from_residues(0, best, best_prec)
            rel = min(pg - vg, pd - vd)
            q = mul(tuple(a // p ** vg for a in gx),
                    self.inv(tuple(a // p ** vd % p ** (pd - vd)
                                   for a in dgx), pd - vd), p ** rel)
            xprec = min(xprec, vg - vd + rel)
            shift, mod = p ** (vg - vd), p ** xprec
            x = tuple((a - shift * b) % mod for a, b in zip(x, q))
        raise PrecisionError("Newton iteration for a root did not converge")

    def taylor(self, node, r0):
        # coefficients of node(z + r0) mod p^target
        mod_t, mul = self.mod_t, self.mul
        a = list(node)
        for i in range(len(a) - 1):
            for j in range(len(a) - 2, i - 1, -1):
                a[j] = tuple((u + v) % mod_t for u, v in
                             zip(a[j], mul(a[j + 1], r0, mod_t)))
        return a

    def descend(self, center, scale, node):
        # node: coefficients of h(center + p^scale z) mod p^target
        p, mod_t = self.p, self.mod_t
        e = vp_int(gcd(mod_t, *(c for a in node for c in a)), p)
        if e >= self.target:
            self.unresolved = True  # the cluster vanishes at the precision
            return
        pe, pe1 = p ** e, p ** (e + 1)
        red = [tuple(c // pe % p for c in a) for a in node]
        for r0 in self.residues:
            if scale == 0 and not any(r0):
                continue  # y = x / p^val is a unit: no root reduces to 0
            if any(_horner(red, r0, p, self.mul)[0]):
                continue
            x = tuple(c + d * p ** scale for c, d in zip(center, r0))
            lifted = self.newton_converges(x)
            if lifted:
                root = self.lift(x)
                if not any((root - r).is_zero for r in self.roots):
                    self.roots.append(root)
            shifted = self.taylor(node, r0)
            if lifted and any(c % pe1 for c in shifted[1]):
                continue  # a simple root mod p
            self.descend(x, scale + 1, [tuple(c * p ** k % mod_t for c in a)
                                        for k, a in enumerate(shifted)])


def _times_p_power(c, e):
    """c p^e exactly: valuation and precision move by e and the residues
    stay c's, since p^e is a unit times a power of p."""
    field = c.field
    if c.val is None:
        return FieldElement(field, None, c.prec + e, field._zeros)
    return FieldElement(field, c.val + e, c.prec + e, c.res)


def _roots_with_valuation(g, val, field):
    """(simple K-roots of monic g with the given integer valuation,
    unresolved-cluster flag)."""
    # normalize: x = p^val * y, divide by the content so y-roots are units
    h = [_times_p_power(c, val * k) for k, c in enumerate(g)]
    vmin = min(c.val for c in h if c.val is not None)
    h = [_times_p_power(c, -vmin) for c in h]
    if min(c.prec for c in h) < 1:
        return [], True  # h is not known mod p
    search = _UnitRootSearch(h, field)
    return [_times_p_power(r, val) for r in search.roots], search.unresolved


def find_k_roots(g, field):
    """All K-rational roots of a monic polynomial with multiplicities.

    Returns (roots, residual): roots as a list of (root, multiplicity) and
    the monic residual factor without K-roots.  Roots that Panayi's
    reduction Hensel-lifts are simple.  Clusters that it cannot separate at
    the precision are retried through the K-roots of the monic derivative:
    a root of g' of multiplicity m at which g vanishes is a root of g of
    multiplicity m + 1.  The residual is g divided by (X - r) m times for
    each root, each remainder a tracked zero or a PrecisionError.  Only if
    integer-slope mass of an unseparated cluster stays in the residual is
    the enumeration reported unsupported.
    """
    g = list(g)
    if len(g) <= 1:
        return [], g
    vals = newton_root_valuations(g)
    roots = []
    unresolved = False
    for v in sorted(set(vals)):
        if v.denominator != 1:
            continue
        found, flag = _roots_with_valuation(g, int(v), field)
        roots.extend((r, 1) for r in found)
        unresolved = unresolved or flag
    if unresolved and len(g) > 2:
        dg = poly_derivative(g, field)
        lead_inv = field.inverse(dg[-1])
        droots, _ = find_k_roots([c * lead_inv for c in dg], field)
        for r, m in droots:
            if poly_eval(g, r, field).is_zero and \
               not any((r - c).is_zero for c, _ in roots):
                roots.append((r, m + 1))
    work = g
    for r, m in roots:
        for _ in range(m):
            work, rem = poly_divide_linear(work, r, field)
            if not rem.is_zero:
                raise PrecisionError(
                    "a root's factor does not divide the polynomial at "
                    "precision")
    for v in {r.val for r, _ in roots}:
        # a safety check: roots of one valuation, with multiplicity, are no
        # more than the Newton polygon of g holds
        if sum(m for r, m in roots if r.val == v) > vals.count(v):
            raise PrecisionError(
                f"root multiplicities at valuation {v} exceed the Newton "
                f"polygon at precision")
    if unresolved:
        if len(work) > 1 and any(v.denominator == 1
                                 for v in newton_root_valuations(work)):
            # integer-slope mass remains and the search could not separate it
            raise EnumerationUnsupportedError(
                "root cluster could not be separated (non-generic Frobenius)")
    return roots, work
