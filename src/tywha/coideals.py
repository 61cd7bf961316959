"""Weak coideal subalgebras of the Tambara-Yamagami groupoid algebra.

A weak coideal is assembled from a family of fiber subspaces ``X^x <= H^x``:
the subalgebra is ``A = sum_x X^x (x) conj(H^x)`` with unit ``v^0_Gamma (x)
conj(v^0_Omega)``, where Gamma is the joint support of ``X^0``.  Builders
construct the classified families from a subgroup K and coset data; the
verifier re-checks every defining property by plain linear algebra.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import ROW_BLOCK, AxiomCheck, AxiomReport, BasisUnit, BlockLabel, Slot, TYAlgebra
from .errors import InvariantError, StructuralError
from .groups import Coset, QuotientGroup, Subgroup, orthogonal, quotient
from .linalg import SparseVec, Subspace, distance, nullspace, tensor_contains


@dataclass(frozen=True)
class CoidealSpec:
    """Classification data (K, Z0, Z1): Z0 a set of K-cosets, Z1 a set of
    cosets of the annihilator of K.  At most one side may have more than one
    coset, and at least one side is nonempty."""

    subgroup: Subgroup
    z0: frozenset[Coset]
    z1: frozenset[Coset]

    def __post_init__(self):
        if not self.z0 and not self.z1:
            raise InvariantError("at least one of Z0, Z1 must be nonempty")
        if len(self.z0) > 1 and len(self.z1) > 1:
            raise InvariantError("no class has both |Z0| > 1 and |Z1| > 1")
        for c in self.z0:
            if c.subgroup != self.subgroup:
                raise InvariantError("Z0 entries must be cosets of K")
        sides = {c.subgroup for c in self.z1}
        if len(sides) > 1:
            raise InvariantError("Z1 entries must be cosets of a single subgroup")

    def describe(self) -> dict:
        return {
            "K": [list(e) for e in self.subgroup.sorted_elements],
            "Z0": sorted([list(c.rep) for c in self.z0]),
            "Z1": sorted([list(c.rep) for c in self.z1]),
        }


class WeakCoideal:
    """A verified-or-verifiable subalgebra candidate with its fiber data.

    The ambient subspace A <= B is assembled lazily: dimension bookkeeping
    only needs the per-block fiber spaces.
    """

    def __init__(
        self,
        algebra: TYAlgebra,
        x_spaces: dict[BlockLabel, Subspace],
        unit: SparseVec,
        gamma: frozenset[Slot],
        label: str,
        spec: CoidealSpec | None = None,
    ):
        self.algebra = algebra
        self.x_spaces = x_spaces
        self.unit = unit
        self.gamma = gamma
        self.label = label
        self.spec = spec
        self._space: Subspace | None = None

    @property
    def space(self) -> Subspace:
        if self._space is None:
            alg = self.algebra
            generators: list[SparseVec] = []
            for block in alg.blocks:
                sub = self.x_spaces.get(block)
                if sub is None or sub.dim == 0:
                    continue
                for u in sub.basis_vectors():
                    for col in alg.slots(block):
                        generators.append(
                            SparseVec(
                                {
                                    alg.unit_pos[BasisUnit(block, slot, col)]: c
                                    for (_b, slot), c in u.items()
                                }
                            )
                        )
            self._space = Subspace(generators, eps=alg.eps)
        return self._space

    @property
    def dim(self) -> int:
        return self.space.dim

    def x_dims(self) -> dict[BlockLabel, int]:
        return {b: s.dim for b, s in sorted(self.x_spaces.items()) if s.dim}

    def describe(self) -> dict:
        return {
            "label": self.label,
            "dim": self.dim,
            "x_dims": {str(b): s.dim for b, s in sorted(self.x_spaces.items()) if s.dim},
            "gamma": [str(s) for s in sorted(self.gamma)],
            "unit_support": len(self.unit),
            "spec": self.spec.describe() if self.spec else None,
            "is_coideal": is_coideal(self),
        }


# -- fiber vectors ---------------------------------------------------------------


def coset_vector(alg: TYAlgebra, block: BlockLabel, coset: Coset, barred: bool = False) -> SparseVec:
    """Sum of fiber basis vectors over a coset: v^g_lam, v^m_lam, or v^m_{~lam}."""
    if not block.is_m:
        if barred:
            raise InvariantError("group blocks have no barred slots")
        return SparseVec({(block, Slot.grp(p)): 1.0 + 0j for p in sorted(coset.elements)})
    mk = Slot.bar if barred else Slot.grp
    return SparseVec({(block, mk(p)): 1.0 + 0j for p in sorted(coset.elements)})


def full_fiber_vector(alg: TYAlgebra, block: BlockLabel) -> SparseVec:
    """The all-ones fiber vector v^x_Omega over every slot of a block."""
    return SparseVec({(block, s): 1.0 + 0j for s in alg.slots(block)})


# -- assembly ---------------------------------------------------------------------


def assemble(
    alg: TYAlgebra,
    x_vectors: dict[BlockLabel, list[SparseVec]],
    label: str,
    spec: CoidealSpec | None = None,
) -> WeakCoideal:
    """Assemble A = sum_x X^x (x) conj(H^x) from generating fiber vectors."""
    x_spaces: dict[BlockLabel, Subspace] = {}
    for block, vecs in x_vectors.items():
        for v in vecs:
            for (b, _), _c in v.items():
                if b != block:
                    raise InvariantError(f"fiber vector for {block} has support in {b}")
        x_spaces[block] = Subspace(vecs, eps=alg.eps)

    zero_block = BlockLabel.grp(alg.group.zero())
    gamma: set[Slot] = set()
    x0 = x_spaces.get(zero_block)
    if x0 is not None:
        for v in x0.basis_vectors():
            gamma.update(slot for (_b, slot), c in v.items() if abs(c) > alg.eps)
    unit = SparseVec(
        {
            alg.unit_pos[BasisUnit(zero_block, s, c)]: 1.0 + 0j
            for s in gamma
            for c in alg.slots(zero_block)
        }
    )
    return WeakCoideal(alg, x_spaces, unit, frozenset(gamma), label, spec)


# -- builders ----------------------------------------------------------------------


def _translated(quot: QuotientGroup, g, zs) -> set[Coset]:
    return {quot.translate(g, lam) for lam in zs}


def build_no_m(
    alg: TYAlgebra, subgroup: Subgroup, zs, side: int = 0
) -> WeakCoideal:
    """Family with trivial m fiber: X^g spanned by the coset vectors v^g_lam
    with lam in Z and lam - g in Z; X^m = 0.

    ``side=0`` takes Z inside G/K, ``side=1`` inside the quotient by the
    annihilator of K (the symmetric case).
    """
    zs = list(zs)
    if not zs:
        raise InvariantError("Z must be nonempty")
    if side not in (0, 1):
        raise InvariantError("side must be 0 or 1")
    base = subgroup if side == 0 else orthogonal(alg.bichar, subgroup)
    quot = quotient(alg.group, base)
    for lam in zs:
        if lam not in quot.cosets:
            raise InvariantError(f"{lam} is not a coset of the chosen subgroup")
    zset = set(zs)
    x_vectors: dict[BlockLabel, list[SparseVec]] = {}
    for g in alg.group.elements():
        block = BlockLabel.grp(g)
        hits = zset & _translated(quot, g, zset)
        if hits:
            x_vectors[block] = [coset_vector(alg, block, lam) for lam in sorted(hits, key=lambda c: c.rep)]
    spec = CoidealSpec(
        subgroup,
        frozenset(zset) if side == 0 else frozenset(),
        frozenset() if side == 0 else frozenset(zset),
    )
    return assemble(alg, x_vectors, f"no_m(side={side}, |Z|={len(zset)})", spec)


def build_with_m(
    alg: TYAlgebra, subgroup: Subgroup, zs, rho0: Coset
) -> WeakCoideal:
    """Family with nonzero m fiber: X^m is spanned by the coset vectors
    v^m_lam and v^m_{~lam} (lam in Z), and X^g additionally contains v^g_m
    for g in the annihilator of K.

    ``rho0`` is the distinguished coset of the annihilator; it labels the
    isomorphism class but does not enter the generating vectors.
    """
    zs = list(zs)
    if not zs:
        raise InvariantError("Z must be nonempty")
    perp = orthogonal(alg.bichar, subgroup)
    if rho0.subgroup != perp:
        raise InvariantError("rho0 must be a coset of the annihilator of K")
    quot = quotient(alg.group, subgroup)
    for lam in zs:
        if lam not in quot.cosets:
            raise InvariantError(f"{lam} is not a coset of K")
    zset = set(zs)
    mblock = BlockLabel.m()
    x_vectors: dict[BlockLabel, list[SparseVec]] = {
        mblock: [coset_vector(alg, mblock, lam, barred=False) for lam in sorted(zset, key=lambda c: c.rep)]
        + [coset_vector(alg, mblock, lam, barred=True) for lam in sorted(zset, key=lambda c: c.rep)]
    }
    for g in alg.group.elements():
        block = BlockLabel.grp(g)
        vecs = [
            coset_vector(alg, block, lam)
            for lam in sorted(zset & _translated(quot, g, zset), key=lambda c: c.rep)
        ]
        if g in perp:
            vecs.append(SparseVec.basis((block, Slot.m())))
        if vecs:
            x_vectors[block] = vecs
    spec = CoidealSpec(subgroup, frozenset(zset), frozenset([rho0]))
    return assemble(alg, x_vectors, f"with_m(|Z|={len(zset)})", spec)


def build_I_m_K(alg: TYAlgebra, subgroup: Subgroup) -> WeakCoideal:
    """One line per subgroup element, supported on the m slot: X^k = C v^k_m."""
    quot = quotient(alg.group, subgroup)
    x_vectors = {
        BlockLabel.grp(k): [SparseVec.basis((BlockLabel.grp(k), Slot.m()))]
        for k in subgroup.sorted_elements
    }
    spec = CoidealSpec(subgroup, frozenset([quot.coset_of(alg.group.zero())]), frozenset())
    return assemble(alg, x_vectors, "I_m_K", spec)


def build_I_Omega_K(alg: TYAlgebra, subgroup: Subgroup) -> WeakCoideal:
    """One all-ones line per subgroup element: X^k = C v^k_Omega."""
    quot = quotient(alg.group, subgroup)
    x_vectors = {
        BlockLabel.grp(k): [full_fiber_vector(alg, BlockLabel.grp(k))]
        for k in subgroup.sorted_elements
    }
    spec = CoidealSpec(subgroup, frozenset([quot.coset_of(alg.group.zero())]), frozenset())
    return assemble(alg, x_vectors, "I_Omega_K", spec)


# -- verification -------------------------------------------------------------------


def verify_weak_coideal(wc: WeakCoideal) -> AxiomReport:
    """Check, by subspace membership, every defining property of a weak
    coideal: product and star closure, the coproduct landing in A (x) B,
    the unit acting as identity, and the coproduct of the unit landing in
    A (x) B_t."""
    alg = wc.algebra
    eps = alg.eps
    report = AxiomReport(label=f"coideal {wc.label} on {alg.group}", eps=eps)
    checks = report.checks
    basis = wc.space.basis_vectors()

    unit_norm = wc.unit.norm()
    unit_ok = unit_norm > eps and wc.space.contains(wc.unit)
    checks.append(
        AxiomCheck(
            "unit exists in A",
            0.0 if unit_ok else float("inf"),
            unit_ok,
            "" if unit_ok else "empty or missing unit",
        )
    )

    # the products are densified one block of left factors (about ROW_BLOCK
    # rows) at a time; the witness is the first pair of largest margin
    size = len(basis)
    worst, witness = 0.0, ""
    best = -np.inf
    step = max(1, ROW_BLOCK // max(1, size))
    for lo in range(0, size, step):
        margins = wc.space.contains_batch(
            alg.multiply(a, b) for a in basis[lo:lo + step] for b in basis
        )
        k = int(np.argmax(margins))
        if margins[k] > best:
            best = float(margins[k])
            pair = divmod(lo * size + k, size)
    if best > 0:
        worst, witness = best, f"basis pair {pair}"
    checks.append(
        AxiomCheck("closed under product", worst, worst <= 0.0, witness, size**2, size**2)
    )

    worst, witness = 0.0, ""
    for i, a in enumerate(basis):
        r = wc.space.residual(alg.star(a)) - eps * (1.0 + a.norm())
        if r > worst:
            worst, witness = float(r), f"basis vector {i}"
    checks.append(
        AxiomCheck("closed under star", max(0.0, worst), worst <= 0.0, witness, size, size)
    )

    ok, witness = True, ""
    for i, a in enumerate(basis):
        inside = tensor_contains(alg.coproduct(a), wc.space, None, eps=eps)
        if ok and not inside:
            ok, witness = False, f"basis vector {i}"
    checks.append(
        AxiomCheck(
            "coproduct maps into A (x) B", 0.0 if ok else float("inf"), ok, witness, size, size
        )
    )

    worst, witness = 0.0, ""
    for i, a in enumerate(basis):
        r = max(
            distance(alg.multiply(wc.unit, a), a),
            distance(alg.multiply(a, wc.unit), a),
        )
        if r > worst:
            worst, witness = r, f"basis vector {i}"
    checks.append(
        AxiomCheck("unit acts as identity", worst, worst <= eps, witness, size, size)
    )

    target, _source = alg.counital_subalgebras()
    ok = bool(basis) and tensor_contains(alg.coproduct(wc.unit), wc.space, target, eps=eps)
    checks.append(
        AxiomCheck("coproduct of unit in A (x) B_t", 0.0 if ok else float("inf"), ok)
    )
    return report


def is_coideal(wc: WeakCoideal) -> bool:
    """True iff the subalgebra unit equals the ambient unit."""
    return distance(wc.unit, wc.algebra.unit()) <= wc.algebra.eps


def fixed_point_algebra(wc: WeakCoideal) -> Subspace:
    """The invariant subalgebra {a in A : Delta(a) = Delta(1_A)(a (x) 1)}."""
    alg = wc.algebra
    basis = wc.space.basis_vectors()
    if not basis:
        return Subspace([], eps=alg.eps)
    delta_unit = alg.coproduct(wc.unit)
    one = alg.unit()
    support = sorted({i for v in basis for i in v.keys()})
    twisted: dict[int, SparseVec] = {
        i: alg.tensor_multiply(delta_unit, alg.tensor(SparseVec.basis(i), one)) for i in support
    }
    columns = []
    for v in basis:
        col = alg.coproduct(v)
        for i, c in v.items():
            col.add_scaled(twisted[i], -c)
        columns.append(col.prune(alg.eps * 1e-3))
    keys = sorted({k for col in columns for k in col.keys()})
    pos = {k: r for r, k in enumerate(keys)}
    mat = np.zeros((len(keys), len(columns)), dtype=complex)
    for j, col in enumerate(columns):
        for k, c in col.items():
            mat[pos[k], j] = c
    kernel = nullspace(mat, eps=alg.eps)
    out = []
    for coeffs in kernel:
        v = SparseVec()
        for j, c in enumerate(coeffs):
            v.add_scaled(basis[j], c)
        out.append(v.prune(alg.eps * 1e-3))
    return Subspace(out, eps=alg.eps)


def center(wc: WeakCoideal) -> Subspace:
    """The center of A, by one commutant solve over A's basis."""
    return wc.algebra.commutant(wc.space.basis_vectors())


def is_indecomposable(wc: WeakCoideal) -> bool:
    """True iff the central invariant subalgebra is one-dimensional."""
    meet = center(wc).intersect(fixed_point_algebra(wc))
    return meet.dim == 1


def x0_partition(wc: WeakCoideal) -> list[frozenset[Slot]]:
    """Spectral blocks of the diagonal subalgebra X^0: slots are grouped by
    equal coordinate profiles across a basis of X^0."""
    alg = wc.algebra
    zero_block = BlockLabel.grp(alg.group.zero())
    x0 = wc.x_spaces.get(zero_block)
    if x0 is None or x0.dim == 0:
        raise StructuralError("X^0 is trivial; no unit block structure")
    basis = x0.basis_vectors()
    for u in basis:
        if not x0.contains(alg.sharp(u)):
            raise StructuralError("X^0 is not closed under the fiber involution")
        for v in basis:
            if not x0.contains(alg.circ(u, v)):
                raise StructuralError("X^0 is not closed under the fiber product")
    slots = sorted(wc.gamma)
    profiles: dict[int, list[complex]] = {i: [] for i in range(len(slots))}
    for u in basis:
        for i, s in enumerate(slots):
            profiles[i].append(u[(zero_block, s)])
    blocks: list[tuple[list[complex], set[Slot]]] = []
    for i, s in enumerate(slots):
        for profile, members in blocks:
            if all(abs(a - b) <= alg.eps for a, b in zip(profile, profiles[i])):
                members.add(s)
                break
        else:
            blocks.append((profiles[i], {s}))
    if len(blocks) != x0.dim:
        raise StructuralError(
            f"X^0 has {x0.dim} dimensions but {len(blocks)} spectral blocks"
        )
    out = [frozenset(members) for _, members in blocks]
    for members in out:
        indicator = SparseVec({(zero_block, s): 1.0 + 0j for s in members})
        if not x0.contains(indicator):
            raise StructuralError("spectral block indicator does not lie in X^0")
    return sorted(out, key=lambda ms: min(ms))


# -- spectral dimensions ---------------------------------------------------------


def spectral_dims_type_d(
    q0: QuotientGroup, q1: QuotientGroup, m0, m1
) -> dict[BlockLabel, int]:
    """Fiber dimensions of the two-sided (decomposed) case from multiplicity
    data over G/K and over the annihilator quotient:
    dim X^g = sum m0_r m0_{g+r} + sum m1_r m1_{g+r}, dim X^m = 2 S0 S1."""
    group = q0.group
    dims: dict[BlockLabel, int] = {}
    for g in group.elements():
        total = 0
        for quot, mult in ((q0, m0), (q1, m1)):
            for lam in quot.cosets:
                total += mult.get(lam, 0) * mult.get(quot.translate(g, lam), 0)
        dims[BlockLabel.grp(g)] = total
    s0 = sum(m0.get(lam, 0) for lam in q0.cosets)
    s1 = sum(m1.get(lam, 0) for lam in q1.cosets)
    dims[BlockLabel.m()] = 2 * s0 * s1
    return dims


def spectral_dims_type_i(quot: QuotientGroup, mult) -> dict[BlockLabel, int]:
    """Fiber dimensions of the self-paired case (only when K equals its own
    annihilator): dim X^g = sum m_r m_{g+r}, dim X^m = (sum m_r)^2."""
    group = quot.group
    dims: dict[BlockLabel, int] = {}
    for g in group.elements():
        dims[BlockLabel.grp(g)] = sum(
            mult.get(lam, 0) * mult.get(quot.translate(g, lam), 0) for lam in quot.cosets
        )
    dims[BlockLabel.m()] = sum(mult.get(lam, 0) for lam in quot.cosets) ** 2
    return dims


def spectral_dims(spec: CoidealSpec, alg: TYAlgebra) -> dict[BlockLabel, int]:
    """Predicted fiber dimensions for classification data with 0/1
    multiplicities."""
    group = alg.group
    q0 = quotient(group, spec.subgroup)
    perp = orthogonal(alg.bichar, spec.subgroup)
    q1 = quotient(group, perp)
    m0 = {lam: 1 for lam in spec.z0}
    m1 = {lam: 1 for lam in spec.z1}
    return spectral_dims_type_d(q0, q1, m0, m1)


def measured_dims(wc: WeakCoideal) -> dict[BlockLabel, int]:
    return {b: s.dim for b, s in wc.x_spaces.items() if s.dim}
