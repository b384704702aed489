"""Exact linear algebra over the unramified field K.

Entries are ``FieldElement``s; a question over a cyclotomic layer K_n is
asked coordinate by coordinate over K.  Each pivot row is scaled by one
inverse of its pivot.  Pivots are chosen by minimal valuation
(maximal norm) and every rank/solve verdict records the certifying pivot
valuations.  An entry whose residue is nonzero but sits within ``guard``
digits of its own precision cannot be classified and raises
``PrecisionError`` instead of silently deciding a verdict.

Matrices are lists of rows; vectors are lists.
"""

from .errors import PrecisionError


class RingOps:
    """The zero/one constructors of K and the guard band of the
    classifier."""

    def __init__(self, zero, one, guard=4):
        self.zero = zero
        self.one = one
        self.guard = guard

    def classify(self, x):
        """-> ('zero', prec) | ('unit-ish', val); raises inside the guard band."""
        if x.is_zero:
            return ("zero", x.prec)
        v = x.valuation_or_none()
        if v > x.prec - self.guard:
            raise PrecisionError(
                f"entry with valuation {v} inside the guard band of O(p^{x.prec})")
        return ("nonzero", v)


def mat_mul(A, B, ops):
    n, k = len(A), len(B)
    m = len(B[0]) if B else 0
    out = []
    for i in range(n):
        row = []
        for j in range(m):
            acc = ops.zero()
            for l in range(k):
                acc = acc + A[i][l] * B[l][j]
            row.append(acc)
        out.append(row)
    return out


def mat_vec(A, v, ops):
    out = []
    for row in A:
        acc = ops.zero()
        for a, x in zip(row, v):
            acc = acc + a * x
        out.append(acc)
    return out


def mat_transpose(A):
    return [list(col) for col in zip(*A)]


def _best_pivot(rows, r, c, ops):
    """Row index >= r with the minimal-valuation entry in column c, or None.
    An entry inside the guard band raises PrecisionError once the column is
    read, its ``floor`` the least certified lower bound of the column."""
    best, best_val, err = None, None, None
    for i in range(r, len(rows)):
        try:
            kind, v = ops.classify(rows[i][c])
        except PrecisionError as exc:
            err = err or exc
            continue
        if kind == "nonzero" and (best_val is None or v < best_val):
            best, best_val = i, v
    if err is not None:
        err.floor = min(x.prec if x.is_zero else
                        min(x.valuation_or_none(), x.prec - ops.guard)
                        for x in (row[c] for row in rows[r:]))
        raise err
    return best, best_val


def echelon(matrix, ops, reduce_above=False):
    """Row echelon form.

    Returns (rows, pivots, cert) where pivots is a list of (row, col) and
    cert the list of certifying pivot valuations.
    """
    rows = [list(r) for r in matrix]
    n = len(rows)
    m = len(rows[0]) if rows else 0
    pivots = []
    cert = []
    r = 0
    for c in range(m):
        if r >= n:
            break
        i, v = _best_pivot(rows, r, c, ops)
        if i is None:
            continue
        rows[r], rows[i] = rows[i], rows[r]
        inv = rows[r][c].inverse()
        inv_row = [x * inv for x in rows[r]]
        rows[r] = inv_row
        rng = range(n) if reduce_above else range(r + 1, n)
        for k in rng:
            if k == r:
                continue
            factor = rows[k][c]
            if factor.is_zero:
                continue
            rows[k] = [a - factor * b for a, b in zip(rows[k], inv_row)]
        pivots.append((r, c))
        cert.append(v)
        r += 1
    return rows, pivots, cert


def solve(A, b, ops):
    """One solution x of A x = b, or None if certifiably inconsistent.

    The residual of an inconsistent system is reported through the second
    return slot: (x, None) on success, (None, residual_valuations) otherwise.
    """
    m = len(A[0]) if A else 0
    aug = [list(row) + [bb] for row, bb in zip(A, b)]
    rows, pivots, cert = echelon(aug, ops, reduce_above=True)
    piv_cols = [c for _, c in pivots]
    if m in piv_cols:
        # pivot in the constant column: inconsistent; residual valuation is
        # the precision-certified size of the unmatched component (recorded
        # before the pivot row was normalized)
        resid = [v for (r, c), v in zip(pivots, cert) if c == m]
        return None, resid
    x = [ops.zero() for _ in range(m)]
    for r, c in pivots:
        x[c] = rows[r][m]
    return x, None


def kernel(A, ops):
    """Basis of the right kernel of A (list of vectors)."""
    m = len(A[0]) if A else 0
    rows, pivots, _ = echelon(A, ops, reduce_above=True)
    piv_cols = {c: r for r, c in pivots}
    free = [c for c in range(m) if c not in piv_cols]
    basis = []
    for fc in free:
        v = [ops.zero() for _ in range(m)]
        v[fc] = ops.one()
        for c, r in piv_cols.items():
            v[c] = -(rows[r][fc])
        basis.append(v)
    return basis


def det(A, ops):
    """Determinant by fraction-free-ish elimination with norm pivoting."""
    n = len(A)
    rows = [list(r) for r in A]
    sign = 1
    acc = ops.one()
    for c in range(n):
        i, _ = _best_pivot(rows, c, c, ops)
        if i is None:
            return ops.zero()
        if i != c:
            rows[c], rows[i] = rows[i], rows[c]
            sign = -sign
        piv = rows[c][c]
        acc = acc * piv
        inv = piv.inverse()
        inv_row = [x * inv for x in rows[c]]
        for k in range(c + 1, n):
            factor = rows[k][c]
            if factor.is_zero:
                continue
            rows[k] = [a - factor * b for a, b in zip(rows[k], inv_row)]
    if sign < 0:
        return -acc
    return acc


def charpoly(A, ops):
    """Coefficients [c_0, ..., c_d] of det(X*I - A), monic, via principal
    minors (intended for the small dimensions handled here)."""
    d = len(A)
    from itertools import combinations
    coeffs = [ops.zero() for _ in range(d + 1)]
    coeffs[d] = ops.one()
    for k in range(1, d + 1):
        e_k = ops.zero()
        for subset in combinations(range(d), k):
            sub = [[A[i][j] for j in subset] for i in subset]
            e_k = e_k + det(sub, ops)
        c = e_k if k % 2 == 0 else -e_k
        coeffs[d - k] = c
    return coeffs


def column_space_basis(vectors, ops):
    """Echelonized basis of the span of the given vectors (as rows in, rows out)."""
    if not vectors:
        return []
    rows, pivots, _ = echelon(vectors, ops, reduce_above=True)
    return [rows[r] for r, _ in pivots]


def in_span(vectors, target, ops):
    """Is target in span(vectors)?  Returns (bool, residual_valuations)."""
    if not vectors:
        if all(t.is_zero for t in target):
            return True, None
        return False, [t.valuation_or_none() for t in target if not t.is_zero]
    A = mat_transpose(vectors)
    x, resid = solve(A, target, ops)
    return (x is not None), resid
