"""Sparse complex vectors over arbitrary ordered keys, and tolerance-based
subspaces with membership, intersection, and equality.

Echelon reduction uses a deterministic pivot rule (largest modulus, ties by
lowest key index), so identical inputs give bit-identical bases.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

DEFAULT_TOL = 1e-9
# A value below this is cancellation residue, and pruning drops it.  It is
# kept apart from the verdict tolerance eps, which never prunes a value.
ROUNDOFF = 1e-12


class SparseVec:
    """Sparse complex vector: a dict from basis key to coefficient."""

    __slots__ = ("data",)

    def __init__(self, data=None):
        self.data = dict(data) if data else {}

    @classmethod
    def basis(cls, key, coeff=1.0 + 0.0j) -> "SparseVec":
        return cls({key: complex(coeff)})

    def items(self):
        return self.data.items()

    def keys(self):
        return self.data.keys()

    def get(self, key, default=0.0 + 0.0j):
        return self.data.get(key, default)

    def __getitem__(self, key):
        return self.data.get(key, 0.0 + 0.0j)

    def __len__(self):
        return len(self.data)

    def __bool__(self):
        return bool(self.data)

    def __add__(self, other: "SparseVec") -> "SparseVec":
        out = dict(self.data)
        for k, v in other.data.items():
            out[k] = out.get(k, 0.0) + v
        return SparseVec(out)

    def __sub__(self, other: "SparseVec") -> "SparseVec":
        out = dict(self.data)
        for k, v in other.data.items():
            out[k] = out.get(k, 0.0) - v
        return SparseVec(out)

    def __neg__(self) -> "SparseVec":
        return SparseVec({k: -v for k, v in self.data.items()})

    def __mul__(self, scalar) -> "SparseVec":
        s = complex(scalar)
        return SparseVec({k: v * s for k, v in self.data.items()})

    __rmul__ = __mul__

    def conj(self) -> "SparseVec":
        return SparseVec({k: v.conjugate() for k, v in self.data.items()})

    def norm(self) -> float:
        return float(np.sqrt(sum(abs(v) ** 2 for v in self.data.values())))

    def prune(self, eps: float = DEFAULT_TOL) -> "SparseVec":
        return SparseVec({k: v for k, v in self.data.items() if abs(v) > eps})

    def add_scaled(self, other: "SparseVec", scalar) -> None:
        """In-place self += scalar * other (builder helper, no pruning)."""
        s = complex(scalar)
        data = self.data
        for k, v in other.data.items():
            data[k] = data.get(k, 0.0) + v * s

    def __repr__(self):
        terms = ", ".join(f"{k}: {v:.4g}" for k, v in sorted(self.data.items()))
        return f"SparseVec({{{terms}}})"


def _sq(x: np.ndarray) -> np.ndarray:
    """Squared norm of each row."""
    return (x.real**2 + x.imag**2).sum(axis=1)


def distance(a: SparseVec, b: SparseVec) -> float:
    """Sup-norm distance between two sparse vectors."""
    keys = set(a.data) | set(b.data)
    return max((abs(a[k] - b[k]) for k in keys), default=0.0)


def nullspace(mat: np.ndarray, eps: float = DEFAULT_TOL) -> np.ndarray:
    """Rows spanning {x : mat @ x = 0}, via SVD with threshold eps.

    A tall system (m >= n) is factored thin, since its V is already square; a
    wide one keeps the full V, whose last n - m rows are null vectors too."""
    if mat.size == 0:
        return np.eye(mat.shape[1], dtype=complex)
    m, n = mat.shape
    _, s, vh = np.linalg.svd(mat, full_matrices=m < n)
    cutoff = eps * max(1.0, s[0] if len(s) else 0.0)
    rank = int(np.sum(s > cutoff))
    return vh[rank:].conj()


class Subspace:
    """Span of sparse vectors, reduced to row echelon form with unit pivots.

    Pivot columns are cleared in all other rows and the pivots are exactly 1,
    so the pivot block of ``basis`` is the identity and the coordinate of a
    member vector along basis row i is just its value at that row's pivot key.
    """

    def __init__(self, vectors: Iterable[SparseVec], eps: float = DEFAULT_TOL):
        vecs = list(vectors)
        self.eps = float(eps)
        keys = set()
        for v in vecs:
            keys.update(v.data)
        self.universe: list = sorted(keys)
        self.pos: dict = {k: i for i, k in enumerate(self.universe)}
        n = len(self.universe)
        basis = np.zeros((len(vecs), n), dtype=complex)
        count = 0
        pivots: list[int] = []
        for v in vecs:
            r = np.zeros(n, dtype=complex)
            for k, c in v.data.items():
                r[self.pos[k]] = c
            scale = np.linalg.norm(r)
            if count:
                # pivot columns are exclusive in reduced form, so one pass
                r -= r[pivots] @ basis[:count]
            if n == 0 or np.linalg.norm(r) <= self.eps * (1.0 + scale):
                continue
            p = int(np.argmax(np.abs(r)))  # ties resolve to the lowest index
            r = r / r[p]
            r[p] = 1.0
            if count:
                basis[:count] -= np.outer(basis[:count, p], r)
            basis[count] = r
            pivots.append(p)
            count += 1
        self.basis = basis[:count]
        self.pivots = pivots
        self._free = np.ones(n, dtype=bool)
        self._free[pivots] = False

    @property
    def dim(self) -> int:
        return len(self.pivots)

    def residuals(self, mat: np.ndarray, outside: np.ndarray) -> np.ndarray:
        """Norm of the component outside the subspace of each dense row over
        the universe, whose squared mass off the universe is ``outside``.
        The pivot block of the basis is the identity, so only the non-pivot
        columns need reducing."""
        free = self._free
        off = mat[:, free] - mat[:, self.pivots] @ self.basis[:, free]
        return np.sqrt(_sq(off) + outside)

    def residual(self, v: SparseVec) -> float:
        """Norm of the component of v outside the subspace."""
        return float(self.residuals(*self.to_dense([v]))[0])

    def contains(self, v: SparseVec) -> bool:
        return self.residual(v) <= self.eps * (1.0 + v.norm())

    def coordinates(self, v: SparseVec) -> np.ndarray:
        """Coefficients of v along the echelon basis (v must be a member)."""
        return np.array([v[self.universe[p]] for p in self.pivots], dtype=complex)

    def to_dense(self, vectors: Iterable[SparseVec]) -> tuple[np.ndarray, np.ndarray]:
        """Dense rows over this universe plus per-vector outside-universe mass."""
        vecs = list(vectors)
        mat = np.zeros((len(vecs), len(self.universe)), dtype=complex)
        outside = np.zeros(len(vecs))
        for i, v in enumerate(vecs):
            extra = 0.0
            for k, c in v.data.items():
                j = self.pos.get(k)
                if j is None:
                    extra += abs(c) ** 2
                else:
                    mat[i, j] = c
            outside[i] = extra
        return mat, outside

    def contains_batch(self, vectors: Iterable[SparseVec]) -> np.ndarray:
        """Residuals of many vectors at once (relative form as in contains)."""
        mat, outside = self.to_dense(vectors)
        norms = np.sqrt(_sq(mat) + outside)
        return self.residuals(mat, outside) - self.eps * (1.0 + norms)

    def basis_vectors(self) -> list[SparseVec]:
        keys = self.universe
        return [
            SparseVec({keys[j]: row[j] for j in np.flatnonzero(np.abs(row) > ROUNDOFF)})
            for row in self.basis
        ]

    def intersect(self, other: "Subspace") -> "Subspace":
        """Intersection via the kernel of the stacked coefficient system."""
        mine = self.basis_vectors()
        theirs = other.basis_vectors()
        if not mine or not theirs:
            return Subspace([], eps=self.eps)
        keys = sorted({k for v in mine + theirs for k in v.data})
        pos = {k: i for i, k in enumerate(keys)}
        stacked = np.zeros((len(keys), len(mine) + len(theirs)), dtype=complex)
        for j, v in enumerate(mine):
            for k, c in v.data.items():
                stacked[pos[k], j] = c
        for j, v in enumerate(theirs):
            for k, c in v.data.items():
                stacked[pos[k], len(mine) + j] = -c
        kernel = nullspace(stacked, eps=self.eps)
        out = []
        for coeffs in kernel:
            v = SparseVec()
            for j, c in enumerate(coeffs[: len(mine)]):
                v.add_scaled(mine[j], c)
            out.append(v.prune(ROUNDOFF))
        return Subspace(out, eps=self.eps)


def tensor_split_first(t: SparseVec) -> dict:
    """Group a vector over pair keys by first leg: {i: SparseVec over j}."""
    out: dict = {}
    for (i, j), c in t.data.items():
        vec = out.setdefault(i, SparseVec())
        vec.data[j] = vec.data.get(j, 0.0) + c
    return out


def tensor_split_second(t: SparseVec) -> dict:
    out: dict = {}
    for (i, j), c in t.data.items():
        vec = out.setdefault(j, SparseVec())
        vec.data[i] = vec.data.get(i, 0.0) + c
    return out


def tensor_contains(t: SparseVec, left: Subspace, right: Subspace | None) -> bool:
    """Membership of a vector over pair keys in left (x) right.

    ``right=None`` means the full space on the second leg.  The second legs
    are resolved first (each grouped vector must lie in ``right``), then the
    recombined first legs are tested against ``left``; this avoids ever
    materializing the tensor product space.  Coordinates along ``right`` of
    modulus at most ROUNDOFF are dropped.
    """
    if right is None:
        for _, w in tensor_split_second(t).items():
            if not left.contains(w):
                return False
        return True
    by_first = tensor_split_first(t)
    combos: dict[int, SparseVec] = {}
    for i, r in by_first.items():
        if not right.contains(r):
            return False
        for b, c in enumerate(right.coordinates(r)):
            if abs(c) > ROUNDOFF:
                combos.setdefault(b, SparseVec()).data[i] = c
    return all(left.contains(u) for u in combos.values())
