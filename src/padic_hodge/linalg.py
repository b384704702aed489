"""Exact linear algebra over the unramified field K.

Entries are ``FieldElement``s; a question over a cyclotomic layer K_n is
asked coordinate by coordinate over K.  Zero and one come from the entries'
own field.  Each pivot row is scaled by one inverse of its pivot.  Pivots
are chosen by minimal valuation (maximal norm) and every rank/solve verdict
records the certifying pivot valuations.  An entry whose residue is nonzero
but sits within its field's ``guard`` digits of its own precision cannot be
classified and raises ``PrecisionError`` instead of silently deciding a
verdict.

Matrices are lists of rows; vectors are lists.
"""

from itertools import combinations

from .errors import PrecisionError


def classify(x):
    """-> ('zero', prec) | ('nonzero', val); raises inside the guard band of
    x's field."""
    if x.is_zero:
        return ("zero", x.prec)
    v = x.valuation_or_none()
    if v > x.prec - x.field.guard:
        raise PrecisionError(
            f"entry with valuation {v} inside the guard band of O(p^{x.prec})")
    return ("nonzero", v)


def mat_mul(A, B):
    n, k = len(A), len(B)
    m = len(B[0]) if B else 0
    out = []
    for i in range(n):
        row = []
        for j in range(m):
            acc = B[0][0].field.zero()
            for l in range(k):
                acc = acc + A[i][l] * B[l][j]
            row.append(acc)
        out.append(row)
    return out


def mat_vec(A, v):
    out = []
    for row in A:
        acc = row[0].field.zero()
        for a, x in zip(row, v):
            acc = acc + a * x
        out.append(acc)
    return out


def mat_transpose(A):
    return [list(col) for col in zip(*A)]


def _best_pivot(rows, r, c):
    """Row index >= r with the minimal-valuation entry in column c, or None.
    An entry inside the guard band raises PrecisionError once the column is
    read, its ``floor`` the least certified lower bound of the column."""
    best, best_val, err = None, None, None
    for i in range(r, len(rows)):
        try:
            kind, v = classify(rows[i][c])
        except PrecisionError as exc:
            err = err or exc
            continue
        if kind == "nonzero" and (best_val is None or v < best_val):
            best, best_val = i, v
    if err is not None:
        err.floor = min(x.prec if x.is_zero else
                        min(x.valuation_or_none(), x.prec - x.field.guard)
                        for x in (row[c] for row in rows[r:]))
        raise err
    return best, best_val


def echelon(matrix, reduce_above=False):
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
        i, v = _best_pivot(rows, r, c)
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


def solve(A, b):
    """One solution x of A x = b, or None if certifiably inconsistent.

    The residual of an inconsistent system is reported through the second
    return slot: (x, None) on success, (None, residual_valuations) otherwise.
    """
    m = len(A[0]) if A else 0
    aug = [list(row) + [bb] for row, bb in zip(A, b)]
    rows, pivots, cert = echelon(aug, reduce_above=True)
    piv_cols = [c for _, c in pivots]
    if m in piv_cols:
        # pivot in the constant column: inconsistent; residual valuation is
        # the precision-certified size of the unmatched component (recorded
        # before the pivot row was normalized)
        resid = [v for (r, c), v in zip(pivots, cert) if c == m]
        return None, resid
    x = [A[0][0].field.zero() for _ in range(m)]
    for r, c in pivots:
        x[c] = rows[r][m]
    return x, None


def kernel(A):
    """Basis of the right kernel of A (list of vectors)."""
    m = len(A[0]) if A else 0
    rows, pivots, _ = echelon(A, reduce_above=True)
    piv_cols = {c: r for r, c in pivots}
    free = [c for c in range(m) if c not in piv_cols]
    basis = []
    for fc in free:
        field = A[0][0].field
        v = [field.zero() for _ in range(m)]
        v[fc] = field.one()
        for c, r in piv_cols.items():
            v[c] = -(rows[r][fc])
        basis.append(v)
    return basis


def det(A):
    """Determinant by fraction-free-ish elimination with norm pivoting."""
    n = len(A)
    rows = [list(r) for r in A]
    sign = 1
    field = A[0][0].field
    acc = field.one()
    for c in range(n):
        i, _ = _best_pivot(rows, c, c)
        if i is None:
            return field.zero()
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


def charpoly(A):
    """Coefficients [c_0, ..., c_d] of det(X*I - A), monic, via principal
    minors (intended for the small dimensions handled here)."""
    d = len(A)
    field = A[0][0].field
    coeffs = [field.zero() for _ in range(d + 1)]
    coeffs[d] = field.one()
    for k in range(1, d + 1):
        e_k = field.zero()
        for subset in combinations(range(d), k):
            sub = [[A[i][j] for j in subset] for i in subset]
            e_k = e_k + det(sub)
        c = e_k if k % 2 == 0 else -e_k
        coeffs[d - k] = c
    return coeffs


def identity(field, n):
    """The n x n identity matrix over ``field``."""
    return [[field.one() if i == j else field.zero() for j in range(n)]
            for i in range(n)]


def inverse(A):
    """A^-1 by Gauss-Jordan on [A | I]; PrecisionError if A is singular at
    precision."""
    n = len(A)
    aug = [list(row) + e for row, e in zip(A, identity(A[0][0].field, n))]
    rows, pivots, _ = echelon(aug, reduce_above=True)
    if len(pivots) != n:
        raise PrecisionError("matrix not invertible at precision")
    out = [[None] * n for _ in range(n)]
    for r, c in pivots:
        for j in range(n):
            out[c][j] = rows[r][n + j]
    return out


def column_space_basis(vectors):
    """Echelonized basis of the span of the given vectors (as rows in, rows out)."""
    if not vectors:
        return []
    rows, pivots, _ = echelon(vectors, reduce_above=True)
    return [rows[r] for r, _ in pivots]


def in_span(vectors, target):
    """Is target in span(vectors)?"""
    if not vectors:
        return all(t.is_zero for t in target)
    return solve(mat_transpose(vectors), target)[0] is not None
