import random
from fractions import Fraction
from math import ceil, floor, isqrt

import pytest

from tropcover.intlinalg import (_lll_reduce, diag,
                                 identity, int_matmul,
                                 is_diagonal, mat,
                                 transpose, unimodular_inverse,
                                 vectors_with_norm)

from oracles import (_cholesky, _lll_gram, clear_denominators, cokernel_tf, det,
                     gram_isometries, integral_inverse, inverse, is_positive_definite,
                     is_unimodular, kernel_basis, mat_equal, matmul, rank,
                     rational_definite_isometries, rational_vectors_with_norm, scaled_inverse,
                     snf, to_fractions, to_int)


class TestSNF:
    def test_diagonal_fixed(self):
        res = snf([[2, 0], [0, 4]])
        assert res.diagonal() == (2, 4)

    def test_hand_reduced_example(self):
        # gcd of entries 2 and |det| = 8 force invariant factors (2, 4)
        res = snf([[2, 4], [6, 8]])
        assert res.invariant_factors() == (2, 4)

    def test_zero_matrix(self):
        res = snf([[0, 0], [0, 0]])
        assert res.diagonal() == (0, 0)

    def test_rectangular(self):
        res = snf([[1, 2, 3]])
        assert res.invariant_factors() == (1,)

    def test_transform_identity_reverified(self):
        rng = random.Random(0)
        for _ in range(25):
            m = [[rng.randint(-9, 9) for _ in range(4)] for _ in range(3)]
            res = snf(m)  # the constructor re-verifies U@M@V = S and dets
            assert mat_equal(matmul(matmul(res.U, mat(m)), res.V), res.S)


def random_unimodular(rng, n):
    m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(3 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i != j:
            c = rng.randint(-2, 2)
            m[i] = [x + c * y for x, y in zip(m[i], m[j])]
    if rng.random() < 0.5:
        m[0] = [-x for x in m[0]]
    return mat(m)


class TestKernelCokernel:
    def test_identity_has_empty_kernel(self):
        assert kernel_basis(identity(3)) == ((), (), ())

    def test_difference_functional(self):
        basis = kernel_basis([[1, -1]])
        assert abs(basis[0][0]) == 1 and basis[0][0] == basis[1][0]

    def test_kernel_saturated(self):
        rng = random.Random(1)
        for _ in range(20):
            m = [[rng.randint(-5, 5) for _ in range(5)] for _ in range(3)]
            basis = kernel_basis(m)
            cols = len(basis[0]) if basis else 0
            assert rank(m) + cols == 5
            if cols:
                assert all(x == 0 for row in matmul(m, basis) for x in row)
                assert snf(basis).invariant_factors() == (1,) * cols

    def test_cokernel_torsion_only(self):
        cok = cokernel_tf([[1, 0], [0, 2]])
        assert cok.rank == 0

    def test_cokernel_rank_one(self):
        cok = cokernel_tf([[2], [0]])
        assert cok.rank == 1
        assert mat_equal(matmul(cok.projection, cok.representatives), identity(1))

    def test_free_double_cover_pullback_cokernel(self):
        # pullback matrix of a free double cover of a genus-2 graph:
        # alpha -> alpha+ + alpha-, gamma -> gamma~, in the adapted bases
        pull = [[1, 0], [1, 0], [0, 1]]
        cok = cokernel_tf(pull)
        assert cok.rank == 1


class TestGramIsometries:
    def test_diag22_has_exactly_eight(self):
        found = list(gram_isometries([[2, 0], [0, 2]], [[2, 0], [0, 2]]))
        assert len(found) == 8
        for b in found:
            assert is_unimodular(b)
            assert mat_equal(matmul(transpose(b), matmul(mat([[2, 0], [0, 2]]), b)),
                             mat([[2, 0], [0, 2]]))

    def test_determinant_rejector(self):
        assert list(gram_isometries([[2, 0], [0, 2]], [[2, 1], [1, 2]])) == []

    def test_identity_always_found(self):
        q = mat([[2, 1], [1, 4]])
        assert any(mat_equal(b, identity(2)) for b in gram_isometries(q, q))

    def test_norm_spectra_agree_for_isometric_forms(self):
        q1 = mat([[2, 1], [1, 2]])
        b = mat([[1, 1], [0, 1]])
        q2 = matmul(transpose(b), matmul(q1, b))
        for c in (1, 2, 3, 4, 6):
            assert len(vectors_with_norm(q1, c)) == len(vectors_with_norm(q2, c))
        assert list(gram_isometries(q1, q2))

    def test_rank_zero(self):
        assert list(gram_isometries((), ())) == [()]


def test_vectors_with_norm_exact():
    q = mat([[2, 0], [0, 2]])
    assert len(vectors_with_norm(q, 2)) == 4  # +-e1, +-e2
    assert len(vectors_with_norm(q, 4)) == 4  # (+-1, +-1)
    assert vectors_with_norm(q, 3) == ()


def test_clear_denominators_shared_scalar():
    a = to_fractions([[Fraction(1, 2), 1], [1, Fraction(1, 3)]])
    b = to_fractions([[Fraction(1, 4)]])
    scale, (sa, sb) = clear_denominators(a, b)
    assert scale == 12
    assert sa[0][0] == 6 and sb[0][0] == 3


def test_det_and_inverse_exact():
    m = [[Fraction(1, 2), 1], [0, Fraction(3)]]
    assert det(m) == Fraction(3, 2)
    assert mat_equal(matmul(m, inverse(m)), to_fractions(identity(2)))


# ---------------------------------------------------------------------------
# Differential checks of the Bareiss kernel against the Fraction
# Gauss-Jordan routines it replaced, kept here as reference oracles.


def oracle_det(m):
    n = len(m)
    a = [[Fraction(x) for x in row] for row in m]
    result = Fraction(1)
    for i in range(n):
        pivot = next((r for r in range(i, n) if a[r][i] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != i:
            a[i], a[pivot] = a[pivot], a[i]
            result = -result
        result *= a[i][i]
        inv = 1 / a[i][i]
        for r in range(i + 1, n):
            if a[r][i]:
                factor = a[r][i] * inv
                a[r] = [x - factor * y for x, y in zip(a[r], a[i])]
    return result


def oracle_inverse(m):
    n = len(m)
    a = [[Fraction(x) for x in row] + [Fraction(1 if j == i else 0) for j in range(n)]
         for i, row in enumerate(m)]
    for i in range(n):
        pivot = next((r for r in range(i, n) if a[r][i] != 0), None)
        if pivot is None:
            raise ValueError("matrix is singular")
        a[i], a[pivot] = a[pivot], a[i]
        inv = 1 / a[i][i]
        a[i] = [x * inv for x in a[i]]
        for r in range(n):
            if r != i and a[r][i]:
                factor = a[r][i]
                a[r] = [x - factor * y for x, y in zip(a[r], a[i])]
    return tuple(tuple(row[n:]) for row in a)


def oracle_rank(m):
    rows, cols = len(m), len(m[0]) if m else 0
    a = [[Fraction(x) for x in row] for row in m]
    r = 0
    for j in range(cols):
        pivot = next((i for i in range(r, rows) if a[i][j] != 0), None)
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        inv = 1 / a[r][j]
        a[r] = [x * inv for x in a[r]]
        for i in range(rows):
            if i != r and a[i][j]:
                factor = a[i][j]
                a[i] = [x - factor * y for x, y in zip(a[i], a[r])]
        r += 1
        if r == rows:
            break
    return r


def oracle_is_positive_definite(q):
    try:
        _cholesky(q)
    except ValueError:
        return False
    return True


def oracle_matmul(a, b):
    return tuple(tuple(sum((a[i][k] * b[k][j] for k in range(len(b))), Fraction(0))
                       for j in range(len(b[0]) if b else 0)) for i in range(len(a)))


def random_entry(rng, rational):
    if rational:
        return Fraction(rng.randint(-9, 9), rng.randint(1, 6))
    return rng.randint(-5, 5)


def random_matrix(rng, n, m, rational=False, rank_at_most=None):
    """n x m matrix; with rank_at_most, a product through that many columns."""
    if rank_at_most is None:
        return mat([[random_entry(rng, rational) for _ in range(m)] for _ in range(n)])
    left = random_matrix(rng, n, rank_at_most, rational)
    right = random_matrix(rng, rank_at_most, m, rational)
    return mat([[sum(left[i][k] * right[k][j] for k in range(rank_at_most)) for j in range(m)]
                for i in range(n)])


def random_cases(seed, count, square=True):
    """Integer and rational matrices of size 0-12, a third of them rank deficient."""
    rng = random.Random(seed)
    for i in range(count):
        n = rng.randint(0, 12)
        m = n if square else rng.randint(0, 12)
        if n == 0:
            m = 0
        deficient = m and i % 3 == 2
        yield random_matrix(rng, n, m, rational=i % 2 == 1,
                            rank_at_most=rng.randint(0, max(0, min(n, m) - 1)) if deficient else None)


def random_symmetric(rng, n, rational):
    """Symmetric forms: B^T B (PD, or PSD when B is rank deficient), B^T B
    shifted down by a multiple of I, and plain symmetric matrices."""
    kind = rng.randrange(3)
    if kind == 2:
        rows = [[random_entry(rng, rational) for _ in range(n)] for _ in range(n)]
        return mat([[rows[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)])
    b = random_matrix(rng, n, n, rational,
                      rank_at_most=rng.randint(0, max(0, n - 1)) if n and rng.random() < 0.3 else None)
    q = oracle_matmul(transpose(b), b)
    shift = rng.randint(0, 4) if kind == 1 else 0
    return mat([[q[i][j] - (shift if i == j else 0) for j in range(n)] for i in range(n)])


class TestBareissAgainstOracles:
    def test_det(self):
        for m in random_cases(10, 200):
            assert det(m) == oracle_det(m)

    def test_rank(self):
        for m in random_cases(11, 200, square=False):
            assert rank(m) == oracle_rank(m)

    def test_inverse(self):
        singular = 0
        for m in random_cases(12, 200):
            try:
                expected = oracle_inverse(m)
            except ValueError:
                singular += 1
                with pytest.raises(ValueError):
                    inverse(m)
                continue
            assert inverse(m) == expected
        assert 30 < singular < 170

    def test_is_positive_definite(self):
        rng = random.Random(13)
        verdicts = set()
        for i in range(200):
            q = random_symmetric(rng, rng.randint(0, 12), rational=i % 2 == 1)
            verdict = is_positive_definite(q)
            assert verdict == oracle_is_positive_definite(q)
            verdicts.add((verdict, len(q)))
        assert {v for v, n in verdicts if n} == {True, False}

    def test_unimodular_det(self):
        rng = random.Random(14)
        for n in range(1, 13):
            u = random_unimodular(rng, n)
            assert abs(det(u)) == 1 and is_unimodular(u)
            assert mat_equal(matmul(u, inverse(u)), identity(n))


class TestMatmulAgainstTripleLoop:
    def test_values(self):
        rng = random.Random(15)
        for i in range(200):
            n, k, m = rng.randint(0, 12), rng.randint(0, 12), rng.randint(0, 12)
            if n == 0:
                k = 0
            a = random_matrix(rng, n, k, rational=i % 3 == 1)
            b = random_matrix(rng, k, m, rational=i % 3 == 2) if k else ()
            assert matmul(a, b) == oracle_matmul(a, b)

    def test_sparse_factors(self):
        # zero entries of the left factor are skipped; dense, sparse and
        # all-zero factors on either side must agree with the triple loop
        rng = random.Random(17)

        def sparse(n, m, zero_share, rational):
            zero = Fraction(0) if rational else 0
            return mat([[zero if rng.random() < zero_share else random_entry(rng, rational)
                         for _ in range(m)] for _ in range(n)])
        for i in range(200):
            n, k, m = rng.randint(1, 14), rng.randint(1, 14), rng.randint(1, 14)
            a = sparse(n, k, rng.choice((0, 0.5, 0.8, 0.95, 1)), rational=i % 3 == 1)
            b = sparse(k, m, rng.choice((0, 0.5, 0.8, 0.95, 1)), rational=i % 3 == 2)
            product = matmul(a, b)
            assert product == oracle_matmul(a, b)
            assert all(type(x) is (Fraction if i % 3 else int) for row in product for x in row)

    def test_entry_types(self):
        rng = random.Random(16)
        a, b = random_matrix(rng, 4, 5), random_matrix(rng, 5, 3)
        assert all(type(x) is int for row in matmul(a, b) for x in row)
        for left, right in ((to_fractions(a), b), (a, to_fractions(b)),
                            (random_matrix(rng, 4, 5, rational=True), b)):
            assert all(type(x) is Fraction for row in matmul(left, right) for x in row)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            matmul(identity(2), identity(3))


class TestIntMatmulKernel:
    # the one product kernel, called directly on the package's integer forms
    @staticmethod
    def factor(rng, kind, n, m, rational):
        if kind == "dense":
            return random_matrix(rng, n, m, rational)
        if kind == "sparse":
            zero = Fraction(0) if rational else 0
            return mat([[random_entry(rng, rational) if rng.random() < 0.15 else zero
                         for _ in range(m)] for _ in range(n)])
        if kind == "zero":
            return mat([[0] * m for _ in range(n)])
        k = min(n, m)
        d = diag([random_entry(rng, rational) for _ in range(k)] if kind == "diagonal"
                 else [1] * k)
        return mat([list(row) + [0] * (m - k) for row in d] + [[0] * m] * (n - k))

    def test_against_the_triple_loop(self):
        rng = random.Random(38)
        kinds = ("dense", "sparse", "diagonal", "identity", "zero")
        seen = set()
        for i in range(400):
            n, k, m = rng.randint(0, 9), rng.randint(0, 9), rng.randint(0, 9)
            if n == 0:
                k = 0
            left, right = rng.choice(kinds), rng.choice(kinds)
            rational = (i % 4 == 1, i % 4 == 2)
            a = self.factor(rng, left, n, k, rational[0])
            b = self.factor(rng, right, k, m, rational[1]) if k else ()
            product = int_matmul(a, b)
            assert product == oracle_matmul(a, b)
            assert type(product) is tuple and all(type(row) is tuple for row in product)
            assert all(len(row) == (m if k else 0) for row in product)
            if not any(rational):
                assert all(type(x) is int for row in product for x in row)
            seen.add((left, right, n * k * m == 0, rational))
        assert len(seen) > 100

    def test_empty_factors(self):
        assert int_matmul((), ()) == ()
        assert int_matmul(((), ()), ()) == ((), ())
        assert int_matmul(((1, 2),), ((), ())) == ((),)
        assert int_matmul(((0, 0),), ((1, 2, 3), (4, 5, 6))) == ((0, 0, 0),)

    def test_rows_are_fresh_tuples(self):
        # a row of b that the product takes whole is copied when it is a list
        b = [[1, 2], [3, 4]]
        product = int_matmul(identity(2), b)
        assert product == ((1, 2), (3, 4))
        assert all(type(row) is tuple for row in product)
        b[0][0] = 9
        assert product == ((1, 2), (3, 4))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            int_matmul(identity(2), identity(3))


class TestIsDiagonal:
    def test_against_building_the_diagonal(self):
        rng = random.Random(40)
        for i in range(300):
            n = rng.randint(0, 6)
            entries = tuple(rng.randint(-2, 2) for _ in range(n))
            m = [list(row) for row in diag(entries)]
            if n and i % 3:
                r, c = rng.randrange(n), rng.randrange(n)
                m[r][c] += rng.choice((-1, 1))
            if i % 5 == 0:
                m = [[Fraction(x) for x in row] for row in m]
            assert is_diagonal(m, entries) == (mat(m) == diag(entries))

    def test_shapes(self):
        assert is_diagonal((), ())
        assert not is_diagonal(((1, 0),), (1,))
        assert not is_diagonal(((1,), (0,)), (1, 0))
        assert not is_diagonal(identity(2), (1, 1, 1))


# ---------------------------------------------------------------------------
# Differential checks of the integer short-vector search and the reduced
# isometry search against the Fraction Cholesky search and the unreduced
# backtracking they replaced, kept here as reference oracles.


def oracle_vectors_with_norm(q, target):
    n = len(q)
    if n == 0:
        return (tuple(),) if target == 0 else tuple()
    d, lmat = _cholesky(q)
    out = []
    x = [0] * n

    def descend(i, remaining):
        s = sum(lmat[i][j] * x[j] for j in range(i + 1, n))
        r = remaining / d[i]
        bound = isqrt(r.numerator * r.denominator) // r.denominator + 1
        for xi in range(ceil(-s - bound), floor(-s + bound) + 1):
            used = d[i] * (xi + s) ** 2
            if used > remaining:
                continue
            x[i] = xi
            if i == 0:
                if used == remaining:
                    out.append(tuple(x))
            else:
                descend(i - 1, remaining - used)
        x[i] = 0

    descend(n - 1, Fraction(target))
    return tuple(sorted(out))


def oracle_gram_isometries(q1, q2):
    n = len(q1)
    q1, q2 = mat(q1), mat(q2)
    if n == 0:
        yield tuple()
        return
    if det(q1) != det(q2):
        return
    cols = [None] * n
    q2_cols = [None] * n

    def place(j):
        if j == n:
            b = transpose(cols)
            if is_unimodular(b):
                yield b
            return
        for v in oracle_vectors_with_norm(q2, q1[j][j]):
            if all(sum(a * b for a, b in zip(v, q2_cols[k])) == q1[j][k] for k in range(j)):
                cols[j] = v
                q2_cols[j] = tuple(sum(a * b for a, b in zip(row, v)) for row in q2)
                yield from place(j + 1)
        cols[j] = None

    yield from place(0)


def random_pd_form(rng, n, rational=False, skew=0):
    """B^T B + I with B in {-1, 0, 1}, optionally congruent by a random unimodular
    matrix (`skew` elementary steps) and divided by 2-4."""
    b = [[rng.randint(-1, 1) for _ in range(n)] for _ in range(n)]
    q = [[sum(b[k][i] * b[k][j] for k in range(n)) + (i == j) for j in range(n)]
         for i in range(n)]
    if skew and n > 1:
        u = [list(row) for row in identity(n)]
        for _ in range(skew):
            i, j = rng.sample(range(n), 2)
            c = rng.choice((-2, -1, 1, 2))
            for row in u:
                row[j] += c * row[i]
        q = matmul(transpose(u), matmul(mat(q), mat(u)))
    if rational:
        den = rng.randint(2, 4)
        return mat([[Fraction(x, den) for x in row] for row in q])
    return mat(q)


class TestIntegerSearchAgainstOracles:
    def test_vectors_with_norm(self):
        rng = random.Random(17)
        sizes = set()
        for i in range(200):
            n = rng.randint(0, 8)
            q = random_pd_form(rng, n, rational=i % 2 == 1)
            k = rng.randrange(n) if n else None
            attained = q[k][k] if n else 0  # the norm of a basis vector
            for target in (attained, attained + 1, attained + Fraction(1, 2)):
                # a rational form and target, scaled to integers first
                found = rational_vectors_with_norm(q, target)
                assert found == oracle_vectors_with_norm(q, target), (q, target)
                sizes.add((bool(found), type(target) is int or Fraction(target).denominator == 1))
        assert sizes == {(True, True), (False, True), (True, False), (False, False)}

    def test_negative_target_has_no_vectors(self):
        assert vectors_with_norm(mat([[2, 1], [1, 2]]), -2) == ()

    def test_gram_isometries(self):
        rng = random.Random(18)
        counts = set()
        for i in range(60):
            n = rng.randint(0, 4)
            q1 = random_pd_form(rng, n, rational=i % 4 == 3)
            q2 = random_pd_form(rng, n) if i % 5 == 4 else q1
            u = random_unimodular(rng, n) if n else ()
            q2 = matmul(transpose(u), matmul(q2, u)) if n else q2
            found = list(gram_isometries(q1, q2))
            assert len(set(found)) == len(found)
            assert set(found) == set(oracle_gram_isometries(q1, q2)), (q1, q2)
            counts.add(bool(found))
        assert counts == {True, False}


def gram_schmidt(r):
    """(mu, squared norms B) of the basis with Gram matrix r, in fractions."""
    n, r = len(r), to_fractions(r)
    mu = [[Fraction(0)] * n for _ in range(n)]
    b = [Fraction(0)] * n
    for i in range(n):
        for j in range(i):
            mu[i][j] = (r[i][j] - sum(mu[j][k] * mu[i][k] * b[k] for k in range(j))) / b[j]
        b[i] = r[i][i] - sum(mu[i][k] ** 2 * b[k] for k in range(i))
    return mu, b


class TestLLLGram:
    def test_reduced_and_unimodular(self):
        rng = random.Random(19)
        swapped = 0
        for i in range(200):
            n = rng.randint(0, 8)
            q = random_pd_form(rng, n, skew=rng.randint(0, 4 * n))
            h = _lll_gram(q)
            assert len(h) == n
            if not n:
                continue
            assert is_unimodular(h)
            r = matmul(transpose(h), matmul(q, h))
            mu, b = gram_schmidt(r)
            for k in range(n):
                for l in range(k):
                    assert 2 * abs(mu[k][l]) <= 1  # |2 lambda_kl| <= d_l
                if k:
                    assert b[k] >= (Fraction(3, 4) - mu[k][k - 1] ** 2) * b[k - 1]
            swapped += h != identity(n)
        assert swapped > 50


class TestIntegralInverse:
    # `integral_inverse` back-substitutes in integers and divides once,
    # exactly; the route it replaced took the Fraction `inverse` and
    # converted it with `to_int`
    def test_unimodular_matches_the_fraction_inverse(self):
        rng = random.Random(31)
        for i in range(120):
            n = rng.randint(0, 12)
            u = random_unimodular(rng, n) if n else ()
            inv = integral_inverse(u)
            assert inv == to_int(inverse(u))
            assert all(type(x) is int for row in inv for x in row)
            if n:
                assert matmul(u, inv) == identity(n)

    def test_non_unimodular_and_singular_raise(self):
        rng = random.Random(32)
        seen = {"singular": 0, "not integral": 0, "integral": 0}
        for i in range(200):
            n = rng.randint(1, 9)
            deficient = i % 3 == 0
            m = random_matrix(rng, n, n, rational=i % 4 == 1,
                              rank_at_most=rng.randint(0, n - 1) if deficient else None)
            try:
                expected = inverse(m)
            except ValueError:
                seen["singular"] += 1
                with pytest.raises(ValueError, match="singular"):
                    integral_inverse(m)
                continue
            if all(x.denominator == 1 for row in expected for x in row):
                seen["integral"] += 1
                assert integral_inverse(m) == to_int(expected)
            else:
                seen["not integral"] += 1
                with pytest.raises(ValueError, match="not integral"):
                    integral_inverse(m)
        assert seen["singular"] > 40 and seen["not integral"] > 40 and seen["integral"]

    def test_scaled_inverse_is_the_inverse_times_delta(self):
        for m in random_cases(33, 120):
            try:
                expected = inverse(m)
            except ValueError:
                continue
            delta, x = scaled_inverse(m)
            assert all(type(v) is int for row in x for v in row)
            assert tuple(tuple(Fraction(v, delta) for v in row) for row in x) == expected


class TestUnimodularInverse:
    # `unimodular_inverse` reduces sparse dict rows by integer row
    # operations, Euclid steps and unit pivots; the dense elimination of
    # [M | I] it replaced, `integral_inverse`, is the oracle
    @staticmethod
    def _signed_permutation(rng, n, ops):
        """A shuffled signed permutation after `ops` elementary row operations."""
        m = [[0] * n for _ in range(n)]
        for i, j in enumerate(rng.sample(range(n), n)):
            m[i][j] = rng.choice((1, -1))
        for _ in range(ops):
            i, j = rng.randrange(n), rng.randrange(n)
            if i != j:
                c = rng.choice((-3, -1, 1, 2))
                m[i] = [x + c * y for x, y in zip(m[i], m[j])]
        return mat(m)

    def test_matches_the_dense_oracle_on_unimodular_matrices(self):
        rng = random.Random(36)
        sizes = set()
        for i in range(90):
            n = rng.randint(0, 60)
            if i % 3 == 0:
                m = random_unimodular(rng, n) if n else ()
            else:
                m = self._signed_permutation(rng, n, rng.randint(0, 2 * n))
            inv = unimodular_inverse(m)
            assert inv == integral_inverse(m)
            assert all(type(x) is int for row in inv for x in row)
            sizes.add(n)
        assert max(sizes) > 50

    def test_raises_what_the_dense_oracle_raises(self):
        rng = random.Random(37)
        seen = {"matrix is singular": 0, "inverse is not integral": 0, "integral": 0}
        for i in range(300):
            n = rng.randint(1, 12)
            deficient = i % 3 == 0
            m = random_matrix(rng, n, n, rank_at_most=rng.randint(0, n - 1) if deficient else None)
            if i % 5 == 1:
                m = self._signed_permutation(rng, n, n)
            try:
                expected = integral_inverse(m)
            except ValueError as exc:
                seen[str(exc)] += 1
                with pytest.raises(ValueError, match=f"^{exc}$"):
                    unimodular_inverse(m)
                continue
            seen["integral"] += 1
            assert unimodular_inverse(m) == expected
        assert min(seen.values()) > 20

    @pytest.mark.parametrize("m, message", [
        ([[1, 1], [1, 1]], "matrix is singular"),
        ([[2, 0], [0, 1]], "inverse is not integral")])
    def test_small_failures(self, m, message):
        for invert in (unimodular_inverse, integral_inverse):
            with pytest.raises(ValueError, match=f"^{message}$"):
                invert(mat(m))

    def test_non_square_is_refused(self):
        with pytest.raises(ValueError, match="non-square"):
            unimodular_inverse(((1, 0),))

    def test_result_is_certified(self, monkeypatch):
        # M M^-1 == I is checked on the sparse rows of the inverse the
        # elimination returns; a spoiled inverse trips it
        from tropcover import intlinalg
        eliminate = intlinalg._inverse_rows

        def one_more(inv):
            inv[2] = dict(inv[2])
            inv[2][0] = inv[2].get(0, 0) + 1
            return inv
        for spoil in (lambda inv: [{j: 2 * x for j, x in row.items()} for row in inv],
                      lambda inv: [inv[1], inv[0], inv[2]],
                      one_more):
            monkeypatch.setattr(intlinalg, "_inverse_rows", lambda rows: spoil(eliminate(rows)))
            with pytest.raises(AssertionError, match="M M\\^-1 == I"):
                unimodular_inverse(((0, 1, 0), (1, 0, 0), (1, 1, 1)))


class TestLLLCarriesItsInverse:
    # the reduction returns H^-1 and det Q next to H; the search checks
    # H H^-1 = I by one integer product instead of two determinants, and
    # compares determinants without eliminating
    def test_inverse_and_determinant(self):
        rng = random.Random(34)
        for i in range(150):
            n = rng.randint(0, 8)
            q = random_pd_form(rng, n, skew=rng.randint(0, 4 * n))
            h, h_inv, d = _lll_reduce(q)
            assert h == _lll_gram(q)
            assert d == det(q)
            if n:
                assert matmul(h, h_inv) == identity(n)
                assert h_inv == to_int(inverse(h))

    def test_definite_search_matches_the_checked_one(self):
        rng = random.Random(35)
        for i in range(40):
            n = rng.randint(0, 4)
            q1 = random_pd_form(rng, n, rational=i % 4 == 3)
            q2 = random_pd_form(rng, n) if i % 5 == 4 else q1
            u = random_unimodular(rng, n) if n else ()
            q2 = matmul(transpose(u), matmul(q2, u)) if n else q2
            assert list(rational_definite_isometries(q1, q2)) == list(gram_isometries(q1, q2))
