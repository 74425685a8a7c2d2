"""Exact integer matrix routines.

Matrices are tuples of tuples (rows) of ints.  A rational matrix, such as
a pairing, is kept as (D, integer rows), the matrix rows / D, and the
product, the unimodular inverse, LLL reduction and the short-vector
search all run on integer rows.  No floating point anywhere.
"""

from __future__ import annotations

from itertools import chain, compress, repeat
from math import gcd, isqrt, lcm
from operator import add, mul, sub


def mat(rows) -> tuple:
    return tuple(tuple(r) for r in rows)


def shape(m) -> tuple:
    return (len(m), len(m[0]) if m else 0)


def identity(n: int) -> tuple:
    return diag((1,) * n)


def diag(entries) -> tuple:
    zero = (0,) * len(entries)
    return tuple(zero[:i] + (a,) + zero[i + 1:] for i, a in enumerate(entries))


def zeros(n: int, m: int) -> tuple:
    return tuple(tuple(0 for _ in range(m)) for _ in range(n))


def transpose(m) -> tuple:
    return tuple(zip(*m))


def lowest_terms(d, rows) -> tuple:
    """(D, rows) divided by the gcd of D > 0 and every entry: then D is the
    lcm of the denominators of rows / D, and (D, rows) is determined by
    the rational matrix rows / D."""
    g = gcd(d, *chain.from_iterable(rows))
    if g == 1:
        return d, rows
    return d // g, tuple(tuple(x // g for x in row) for row in rows)


def divide_columns(m, divisors):
    """m diag(divisors)^-1 as integer rows, column j divided by divisors[j],
    or None when a divisor does not divide every entry of its column."""
    if any(x % a for row in m for x, a in zip(row, divisors)):
        return None
    return tuple(tuple(x // a for x, a in zip(row, divisors)) for row in m)


def int_matmul(a, b) -> tuple:
    """The product a @ b of integer matrices.

    Row i of a @ b is the sum of the rows of b that the nonzeros of row i
    of a select, each times its entry; `compress` skips the zeros at C
    speed, so the product costs one row operation per nonzero of a.
    """
    if (len(a[0]) if a else 0) != len(b):
        raise ValueError(f"matmul shape mismatch: {shape(a)} x {shape(b)}")
    zero = (0,) * (len(b[0]) if b else 0)
    out = []
    for row in a:
        acc = None
        for x, brow in compress(zip(row, b), row):
            if acc is None:  # tuple() of a tuple is that tuple, not a copy
                acc = tuple(brow) if x == 1 else tuple(map(mul, repeat(x), brow))
            elif x == 1:
                acc = tuple(map(add, acc, brow))
            elif x == -1:
                acc = tuple(map(sub, acc, brow))
            else:
                acc = tuple(map(add, acc, map(mul, repeat(x), brow)))
        out.append(zero if acc is None else acc)
    return tuple(out)


def is_diagonal(m, entries) -> bool:
    """m == diag(entries), compared entry by entry without building diag(entries)."""
    n = len(entries)
    return len(m) == n and all(
        len(row) == n and row[i] == a and not any(row[:i]) and not any(row[i + 1:])
        for i, (row, a) in enumerate(zip(m, entries)))


def mat_scale(c, a) -> tuple:
    return tuple(tuple(c * x for x in row) for row in a)


def _bareiss(m):
    """Fraction-free row echelon form of the integer matrix m without row
    exchanges (Bareiss 1968; Cohen, 2.2).

    Returns (rows, pivot columns).  Elimination stops at the first zero
    diagonal entry, so the pivots are the leading principal minors of m,
    and every division is exact.
    """
    a = [list(row) for row in m]
    n, width = shape(a)
    cols, prev, r = [], 1, 0
    for c in range(width):
        if r == n or not a[r][c]:
            break
        piv = a[r][c]
        tail = a[r][c + 1:]
        for row in a[r + 1:]:
            x = row[c]
            if x:
                row[c + 1:] = [(piv * y - x * z) // prev for y, z in zip(row[c + 1:], tail)]
                row[c] = 0
            elif piv != prev:
                row[c + 1:] = [piv * y // prev for y in row[c + 1:]]
        cols.append(c)
        prev = piv
        r += 1
    return a, cols


def _sparse_rows(m) -> list:
    """The rows of m as dicts {column: entry} of their nonzeros."""
    return [dict(compress(enumerate(row), row)) for row in m]


def _inverse_rows(rows) -> list:
    """The rows of M^-1, as dicts of their nonzeros, from the sparse rows of
    an integer matrix M, which are consumed; see `unimodular_inverse`."""
    n = len(rows)
    ops = [{i: 1} for i in range(n)]  # ops[i] @ M == rows[i]
    where = [set() for _ in range(n)]  # column -> rows with a nonzero there
    for i, row in enumerate(rows):
        for j in row:
            where[j].add(i)

    def subtract(i, q, r):
        """rows[i] -= q * rows[r], and the same on ops."""
        row, acc = rows[i], ops[i]
        for j, x in rows[r].items():
            y = row.get(j, 0) - q * x
            if y:
                row[j] = y
                where[j].add(i)
            else:
                del row[j]
                where[j].discard(i)
        for j, x in ops[r].items():
            y = acc.get(j, 0) - q * x
            if y:
                acc[j] = y
            else:
                del acc[j]

    free = set(range(n))  # rows not yet used as a pivot
    pivots, singular, fraction = [], False, False
    for col in sorted(range(n), key=lambda j: len(where[j])):
        cand = where[col] & free
        if not cand:
            singular = True
            continue
        while len(cand) > 1:
            r = min(cand, key=lambda i: (abs(rows[i][col]), len(rows[i]), i))
            p = rows[r][col]
            for i in cand - {r}:
                subtract(i, rows[i][col] // p, r)
            cand = where[col] & free
        r = cand.pop()
        free.discard(r)
        p = rows[r][col]
        if abs(p) != 1:
            fraction = True  # go on: a later column may still prove M singular
        elif not fraction:
            for i in where[col] - {r}:
                subtract(i, rows[i][col] * p, r)
        pivots.append((col, r, p))
    if singular:
        raise ValueError("matrix is singular")
    if fraction:
        raise ValueError("inverse is not integral")
    inv = [None] * n
    for col, r, p in pivots:  # ops[r] @ M == p e_col, so row col of M^-1 is p ops[r]
        inv[col] = ops[r] if p == 1 else {j: -x for j, x in ops[r].items()}
    return inv


def unimodular_inverse(m) -> tuple:
    """M^-1 of an integer matrix M, as integer rows, by sparse row operations.

    Rows are dicts of their nonzeros, and [M | I] is reduced by integer row
    operations only.  Columns are taken sparsest first.  Among the rows not
    yet used as pivots, the entry of least absolute value in the column
    reduces the others (Euclid steps) until one nonzero is left; it must be
    +-1, and then clears its column from every other row.  A matrix close
    to a signed permutation thus costs about one row operation per nonzero.
    ValueError when M is singular (a column runs out of rows) or M^-1 is
    not integral (a pivot is not +-1), so an integer M passes iff it is
    unimodular.  The result is certified by M M^-1 == I, computed on the
    sparse rows of both: row i of M M^-1 sums the rows of M^-1 that the
    nonzeros of row i of M select, and must be e_i.
    """
    n, c = shape(m)
    if n != c:
        raise ValueError("inverse of a non-square matrix")
    rows = _sparse_rows(m)
    inv = _inverse_rows([row.copy() for row in rows])
    for i, row in enumerate(rows):
        acc = {}
        for j, x in row.items():
            for k, y in inv[j].items():
                acc[k] = acc.get(k, 0) + x * y
        if acc.pop(i, 0) != 1 or any(acc.values()):
            raise AssertionError("sparse inverse fails M M^-1 == I")
    dense = []
    for row in inv:
        out = [0] * n
        for j, x in row.items():
            out[j] = x
        dense.append(tuple(out))
    return tuple(dense)


def _columns_to_matrix(cols, nrows) -> tuple:
    return tuple(zip(*cols)) if cols else ((),) * nrows


def vectors_with_norm(q, target, _cache={}):
    """All integer vectors x with x^T Q x == target, for an integer form Q
    that is positive definite and an integer target.

    Fincke--Pohst depth-first search in integers.  With p_i the leading
    Bareiss pivots of Q (p_-1 = 1) and a_ij the entries of its Bareiss
    rows, x^T Q x = sum_i (p_i x_i + S_i)^2 / (p_i p_{i-1}) with
    S_i = sum_{j>i} a_ij x_j; scaled by the lcm of the p_i p_{i-1}, every
    bound is the isqrt of an integer, and the last coordinate is solved.
    """
    key = (mat(q), target)
    if key in _cache:
        return _cache[key]
    n, _ = shape(q)
    a, cols = _bareiss(q)
    if len(cols) < n or any(a[i][i] <= 0 for i in range(n)):
        raise ValueError("form is not positive definite")
    if n == 0 or target < 0:
        result = (tuple(),) if n == 0 and target == 0 else tuple()
        _cache[key] = result
        return result
    p = [a[i][i] for i in range(n)]
    m = lcm(*(pi * prev for pi, prev in zip(p, [1] + p)))
    w = [m // (pi * prev) for pi, prev in zip(p, [1] + p)]
    tails = [a[i][i + 1:] for i in range(n)]
    out = []
    x = [0] * n

    def descend(i, remaining):
        s = sum(map(mul, tails[i], x[i + 1:]))
        if i == 0:
            y2, r = divmod(remaining, w[0])
            y = isqrt(y2)
            if r or y * y != y2:
                return
            for yy in ((y, -y) if y else (0,)):
                x0, r = divmod(yy - s, p[0])
                if not r:
                    out.append((x0, *x[1:]))
            return
        b = isqrt(remaining // w[i])
        for xi in range(-((b + s) // p[i]), (b - s) // p[i] + 1):
            y = p[i] * xi + s
            x[i] = xi
            descend(i - 1, remaining - w[i] * y * y)
        x[i] = 0

    descend(n - 1, target * m)
    result = tuple(sorted(out))
    _cache[key] = result
    return result


def _lll_reduce(q) -> tuple:
    """Integral LLL (delta = 3/4) of a positive definite integer Gram matrix.

    Cohen, Alg. 2.6.7 (de Weger's integral variant) on the Gram entries:
    d[i] is the Gram determinant of the first i basis vectors and
    lam[k][j] = d[j+1] * mu_kj is an integer.  Returns (H, H^-1, det Q):
    the columns of the unimodular H are the reduced basis, so H^T Q H is
    LLL-reduced; H^-1 follows every column operation on H by the inverse
    row operation, and det Q is the last Gram determinant d[n].
    """
    n = len(q)
    h = [[int(i == j) for j in range(n)] for i in range(n)]  # h[k]: basis vector k
    g = [[int(i == j) for j in range(n)] for i in range(n)]  # g[i]: row i of H^-1
    d = [1] * (n + 1)
    lam = [[0] * n for _ in range(n)]

    def red(k, l):
        if 2 * abs(lam[k][l]) > d[l + 1]:
            c = (2 * lam[k][l] + d[l + 1]) // (2 * d[l + 1])
            h[k] = [x - c * y for x, y in zip(h[k], h[l])]
            g[l] = [x + c * y for x, y in zip(g[l], g[k])]
            lam[k][l] -= c * d[l + 1]
            for i in range(l):
                lam[k][i] -= c * lam[l][i]

    def swap(k, kmax):
        h[k], h[k - 1] = h[k - 1], h[k]
        g[k], g[k - 1] = g[k - 1], g[k]
        for j in range(k - 1):
            lam[k][j], lam[k - 1][j] = lam[k - 1][j], lam[k][j]
        lk = lam[k][k - 1]
        b = (d[k - 1] * d[k + 1] + lk * lk) // d[k]
        for i in range(k + 1, kmax + 1):
            t = lam[i][k]
            lam[i][k] = (d[k + 1] * lam[i][k - 1] - lk * t) // d[k]
            lam[i][k - 1] = (b * t + lk * lam[i][k]) // d[k + 1]
        d[k] = b

    k, kmax = 1, 0
    if n:
        d[1] = q[0][0]
    while k < n:
        if k > kmax:  # basis vector k is still e_k: extend Gram--Schmidt
            kmax = k
            for j in range(k + 1):
                u = sum(map(mul, q[k], h[j]))
                for i in range(j):
                    u = (d[i + 1] * u - lam[k][i] * lam[j][i]) // d[i]
                if j < k:
                    lam[k][j] = u
                else:
                    d[k + 1] = u
        red(k, k - 1)
        if 4 * d[k + 1] * d[k - 1] < 3 * d[k] * d[k] - 4 * lam[k][k - 1] ** 2:
            swap(k, kmax)
            k = max(1, k - 1)
        else:
            for l in range(k - 2, -1, -1):
                red(k, l)
            k += 1
    return transpose(h), mat(g), d[n]


def definite_isometries(q1, q2):
    """Unimodular B with B^T Q2 B = Q1, yielded exactly once each, for two
    integer forms the caller has proved symmetric positive definite and of
    equal rank; nothing here proves it again.

    Both forms are LLL-reduced, Q_i -> R_i = H_i^T Q_i H_i, with R1's basis
    ordered by norm.  Column-by-column backtracking over the short vectors
    of R2 finds each C with C^T R2 C = R1, and C -> H2 C H1^-1 is a
    bijection onto the isometries of the original forms.  Unequal determinants, read off the
    reductions, end the search at once.
    """
    n = len(q1)
    if n == 0:
        yield tuple()
        return
    h1, h1_inv, det1 = _lll_reduce(q1)
    h2, h2_inv, det2 = _lll_reduce(q2)
    # H H^-1 = I in integers: both transforms are unimodular, so d[n] of
    # each reduction is det Q_i
    ones = (1,) * n
    if not (is_diagonal(int_matmul(h1, h1_inv), ones) and is_diagonal(int_matmul(h2, h2_inv), ones)):
        raise AssertionError("LLL transform is not unimodular")
    if det1 != det2:
        return
    r1 = int_matmul(transpose(h1), int_matmul(q1, h1))
    order = sorted(range(n), key=lambda k: r1[k][k])
    h1_inv = tuple(h1_inv[k] for k in order)
    r1 = tuple(tuple(r1[i][j] for j in order) for i in order)
    r2 = int_matmul(transpose(h2), int_matmul(q2, h2))
    cols = [None] * n
    r2_cols = [None] * n  # cached R2 @ c_k

    def place(j):
        if j == n:
            # C^T R2 C = R1 with det R1 = det R2 != 0 forces det C = +-1, and
            # H1, H2 are unimodular, so b needs no unimodularity test
            b = int_matmul(int_matmul(h2, _columns_to_matrix(cols, n)), h1_inv)
            if int_matmul(transpose(b), int_matmul(q2, b)) != q1:
                raise AssertionError("isometry candidate failed the congruence re-check")
            yield b
            return
        for v in vectors_with_norm(r2, r1[j][j]):
            for k in range(j):
                if sum(map(mul, v, r2_cols[k])) != r1[j][k]:
                    break
            else:
                cols[j] = v
                r2_cols[j] = tuple(sum(map(mul, row, v)) for row in r2)
                yield from place(j + 1)
        cols[j] = None

    yield from place(0)
