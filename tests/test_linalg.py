import numpy as np
import pytest

from tywha.linalg import SparseVec, Subspace, distance, nullspace, tensor_contains


def sv(**kw):
    return SparseVec({k: complex(v) for k, v in kw.items()})


class TestSparseVec:
    def test_arithmetic(self):
        a = sv(x=1, y=2j)
        b = sv(y=1, z=-1)
        assert (a + b).data == {"x": 1, "y": 1 + 2j, "z": -1}
        assert (a - b).data == {"x": 1, "y": -1 + 2j, "z": 1}
        assert (2 * a)["y"] == 4j
        assert a.conj()["y"] == -2j

    def test_prune_and_norm(self):
        a = sv(x=1e-12, y=1)
        assert a.prune(1e-9).data == {"y": 1}
        assert a.norm() == pytest.approx(1.0)

    def test_distance(self):
        assert distance(sv(x=1), sv(x=1, y=1e-3)) == pytest.approx(1e-3)


class TestSubspace:
    def test_span_empty(self):
        assert Subspace([]).dim == 0

    def test_span_dependent(self):
        v = sv(a=1, b=2)
        assert Subspace([v, 2 * v]).dim == 1

    def test_span_three_vectors_rank_two(self):
        s = Subspace([sv(a=1), sv(b=1), sv(a=1, b=1)])
        assert s.dim == 2

    def test_contains(self):
        s = Subspace([sv(a=1)])
        assert s.contains(sv(a=1 + 1e-12))
        assert not s.contains(sv(b=1))
        assert s.contains(SparseVec())

    def test_contains_key_outside_universe(self):
        s = Subspace([sv(a=1)])
        assert not s.contains(sv(a=1, zz=0.5))

    def test_intersect(self):
        s = Subspace([sv(a=1), sv(b=1)])
        t = Subspace([sv(b=1), sv(c=1)])
        meet = s.intersect(t)
        assert meet.dim == 1
        assert meet.contains(sv(b=1))

    def test_intersect_with_zero(self):
        s = Subspace([sv(a=1)])
        assert s.intersect(Subspace([])).dim == 0

    def test_membership_invariant_under_reordering(self):
        rng = np.random.default_rng(11)
        keys = list(range(6))
        vecs = [
            SparseVec({k: complex(*rng.normal(size=2)) for k in keys})
            for _ in range(3)
        ]
        probe = vecs[0] + 0.5 * vecs[2]
        for perm in ([0, 1, 2], [2, 0, 1], [1, 2, 0]):
            s = Subspace([vecs[i] for i in perm])
            assert s.contains(probe)
            assert not s.contains(SparseVec({7: 1.0}))

    def test_dimension_formula(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            n = int(rng.integers(2, 7))
            keys = list(range(n))

            def rand_vecs(count):
                return [
                    SparseVec({k: complex(*rng.normal(size=2)) for k in keys})
                    for _ in range(count)
                ]

            s = Subspace(rand_vecs(int(rng.integers(0, n + 1))))
            t = Subspace(rand_vecs(int(rng.integers(0, n + 1))))
            total = Subspace(s.basis_vectors() + t.basis_vectors())
            meet = s.intersect(t)
            assert s.dim + t.dim == total.dim + meet.dim

    def test_deterministic_bit_for_bit(self):
        vecs = [sv(a=1.5, b=-2, c=0.25), sv(b=1, d=3), sv(a=1, c=1, d=1)]
        s1 = Subspace(list(vecs))
        s2 = Subspace(list(vecs))
        assert np.array_equal(s1.basis, s2.basis)
        assert s1.pivots == s2.pivots
        assert s1.universe == s2.universe

    def test_coordinates_roundtrip(self):
        s = Subspace([sv(a=1, b=1), sv(b=1, c=2)])
        v = sv(a=2, b=3, c=2)
        assert s.contains(v)
        coords = s.coordinates(v)
        rebuilt = SparseVec()
        for c, row in zip(coords, s.basis_vectors()):
            rebuilt.add_scaled(row, c)
        assert distance(rebuilt, v) < 1e-9

    def test_basis_vectors_keep_entries_below_tolerance(self):
        # the verdict tolerance must not prune the vectors that span the space
        s = Subspace([SparseVec({0: 1, 1: 0.2})], eps=0.3)
        assert [v.data for v in s.basis_vectors()] == [{0: 1, 1: 0.2}]

    def test_pivot_block_is_identity(self):
        # complex pivots divide into themselves inexactly about one time in
        # five; the residuals rely on an exact identity pivot block
        rng = np.random.default_rng(0)
        vecs = [
            SparseVec(dict(enumerate(rng.standard_normal(6) + 1j * rng.standard_normal(6))))
            for _ in range(4)
        ]
        s = Subspace(vecs)
        assert np.array_equal(s.basis[:, s.pivots], np.eye(4))

    def test_contains_batch_matches_contains(self):
        s = Subspace([sv(a=1, b=2)])
        probes = [sv(a=2, b=4), sv(a=1), SparseVec(), sv(zz=1)]
        margins = s.contains_batch(probes)
        assert [m <= 0 for m in margins] == [s.contains(p) for p in probes]


class TestTensorContains:
    def test_full_right_leg(self):
        left = Subspace([sv(a=1)])
        t = SparseVec({("a", "p"): 1.0, ("a", "q"): 2.0})
        assert tensor_contains(t, left, None)
        t_bad = t + SparseVec({("b", "p"): 1.0})
        assert not tensor_contains(t_bad, left, None)

    def test_restricted_right_leg(self):
        left = Subspace([sv(a=1)])
        right = Subspace([SparseVec({"p": 1.0, "q": 1.0})])
        good = SparseVec({("a", "p"): 1.0, ("a", "q"): 1.0})
        assert tensor_contains(good, left, right)
        bad_right = SparseVec({("a", "p"): 1.0})
        assert not tensor_contains(bad_right, left, right)
        bad_left = SparseVec({("b", "p"): 1.0, ("b", "q"): 1.0})
        assert not tensor_contains(bad_left, left, right)


def _random(rng, m, n, rank):
    left = rng.standard_normal((m, rank)) + 1j * rng.standard_normal((m, rank))
    return left @ (rng.standard_normal((rank, n)) + 1j * rng.standard_normal((rank, n)))


class TestNullspace:
    """nullspace against a full-SVD reference: same dimension, same span."""

    @pytest.mark.parametrize(
        "m, n, rank",
        [
            (12, 5, 5),  # tall, full rank: trivial kernel
            (12, 5, 3),  # tall, rank-deficient
            (6, 6, 6),  # square, invertible
            (6, 6, 4),  # square, rank-deficient
            (3, 7, 3),  # wide: a thin V would drop 4 null vectors
            (4, 7, 2),  # wide, rank-deficient
            (5, 4, 0),  # zero matrix
        ],
    )
    def test_matches_full_svd(self, m, n, rank):
        mat = _random(np.random.default_rng(m * n + rank), m, n, rank)
        kernel = nullspace(mat)
        _, s, vh = np.linalg.svd(mat, full_matrices=True)
        ref = vh[int(np.sum(s > 1e-9 * max(1.0, s[0]))):].conj()
        assert kernel.shape == ref.shape == (n - rank, n)
        assert np.allclose(mat @ kernel.T, 0.0, atol=1e-9)
        # equal spans: equal orthogonal projectors onto them
        assert np.allclose(kernel.T @ kernel.conj(), ref.T @ ref.conj(), atol=1e-9)

    @pytest.mark.parametrize("m, n", [(0, 5), (5, 0), (0, 0)])
    def test_empty(self, m, n):
        kernel = nullspace(np.zeros((m, n), dtype=complex))
        assert np.array_equal(kernel, np.eye(n))
