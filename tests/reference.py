"""Scalar references for the structure of B, one term at a time.

The package builds B's structure maps as index arrays and checks them by
joins over those arrays.  The functions here compute the same maps from the
closed-form fiber rules on ``SparseVec``s, and the four axiom rows that
``TYAlgebra.verify_axioms`` once evaluated this way; the tests compare the
arrays and the array rows against them.  Named blocks, slots and basis
units, cosets, the fiber subspaces of a weak coideal and its unit as a
``SparseVec`` are object views of the package's index arrays and coset
numbers, kept here for the tests that read them, with the adapters that take
``SparseVec``s into ``Subspace`` and back (``subspace``, ``basis_vectors``)
and into ``assemble``, the echelon constructor of a weak coideal from
arbitrary generating fiber rows, which only tests call.  The coideal checks as
they ran on A itself, before they moved to the fiber rows,
indecomposability by a dense stack per system shape, before it went
through ``linalg.components``, and the element arithmetic of groups and
their trivial and full subgroups are kept here for the tests that compare
against them.  ``table_rows`` expands an export's
tables into the rows they stand for, as the json module's ``default`` hook,
and ``failures`` lists a report's failed checks.  A keyed sum by
``np.unique``'s inverse and a component split by one grouping sort per
index are kept as references for ``linalg._sums`` and
``linalg.components``.  ``lstsq_haar``, a least-squares solve of the Haar
system by one ``lstsq`` per block, is the reference ``TYAlgebra.haar``'s
closed-form h and its rank are checked against.  The
translations sigma_t, built from the named slots, and their defects against
B's tables, by one sorted keyed sum per table and t, are the reference for
``TYAlgebra._translations`` and ``_translation_defects``.  sigma_t on
fiber rows, read from ``TYAlgebra._slot_table``, a span key for rows of
disjoint supports, and the two checks that builds follow sigma_t and that
classes share a subalgebra only as K <-> Kperp swap pairs are kept here for
the tests and for a CI step at order 8.  Both catalogs as they ran before
they formed classes as products of side orbits, by one ``orbit_partition``
over every valid pair point under ``_pair_perms`` per subgroup, are the
reference for ``weak_coideal_classes`` and ``g_algebra_classes``.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from functools import partial

import numpy as np

from tywha.algebra import AxiomReport, TYAlgebra
from tywha.classify import (
    CLASSIFY_ORDER_BOUND, ENUMERATION_BOUND, _coideal_flags, _pair_fixed, _pair_key, _pair_perms, _quotients,
    _representative, _subsets, _vector_fixed, _vector_key, _vectors, burnside_check, coideal_orbits, orbit_partition,
)
from tywha.coideals import CoidealSpec, WeakCoideal, _coords, _exact, _Fibers, _verdicts, build_from_spec
from tywha.errors import InvariantError, SizeError, StructuralError, check_order
from tywha.groups import (
    FiniteAbelianGroup, GroupElt, QuotientGroup, Subgroup, enumerate_subgroups, orthogonal, quotient,
)
from tywha.linalg import (
    DEFAULT_TOL, SparseVec, Subspace, _diff, _join, _kept, _pruned, _pruned_rows, _rank, _runs, _sq, _sums, _worst,
    components, nullspace, sparse_nullspace, span,
)

SLOT_GRP = 0
SLOT_M = 1
SLOT_BAR = 2


# -- element arithmetic --------------------------------------------------------------


def add(group: FiniteAbelianGroup, a: GroupElt, b: GroupElt) -> GroupElt:
    return tuple((x + y) % n for x, y, n in zip(a, b, group.factors))


def neg(group: FiniteAbelianGroup, a: GroupElt) -> GroupElt:
    return tuple((-x) % n for x, n in zip(a, group.factors))


def sub(group: FiniteAbelianGroup, a: GroupElt, b: GroupElt) -> GroupElt:
    return tuple((x - y) % n for x, y, n in zip(a, b, group.factors))


def trivial(group: FiniteAbelianGroup) -> Subgroup:
    return Subgroup.from_indices(group, [0])


def full(group: FiniteAbelianGroup) -> Subgroup:
    return Subgroup.from_indices(group, np.arange(group.order))


def distance(a: SparseVec, b: SparseVec) -> float:
    """Sup-norm distance between two sparse vectors."""
    keys = set(a.data) | set(b.data)
    return max((abs(a[k] - b[k]) for k in keys), default=0.0)


# -- named blocks, slots and basis units ---------------------------------------------


@dataclass(frozen=True, order=True)
class BlockLabel:
    """Label of a simple object: a group element, or the extra object m."""

    kind: int
    g: GroupElt = ()

    @classmethod
    def grp(cls, g: GroupElt) -> "BlockLabel":
        return cls(0, tuple(g))

    @classmethod
    def m(cls) -> "BlockLabel":
        return cls(1, ())

    @property
    def is_m(self) -> bool:
        return self.kind == 1

    def __str__(self) -> str:
        return "m" if self.is_m else ",".join(str(x) for x in self.g)


@dataclass(frozen=True, order=True)
class Slot:
    """Basis slot inside a fiber space.

    Group blocks carry group slots v^g_h plus one m slot v^g_m; the m block
    carries unbarred slots v^m_g and barred slots v^m_{~g}.
    """

    kind: int
    g: GroupElt = ()

    @classmethod
    def grp(cls, g: GroupElt) -> "Slot":
        return cls(SLOT_GRP, tuple(g))

    @classmethod
    def m(cls) -> "Slot":
        return cls(SLOT_M, ())

    @classmethod
    def bar(cls, g: GroupElt) -> "Slot":
        return cls(SLOT_BAR, tuple(g))

    def __str__(self) -> str:
        if self.kind == SLOT_M:
            return "m"
        body = ",".join(str(x) for x in self.g)
        return f"~{body}" if self.kind == SLOT_BAR else body


def blocks(alg) -> list[BlockLabel]:
    """B's blocks in ``Layout`` order: the group elements, then m."""
    return [BlockLabel.grp(g) for g in alg.group.elements()] + [BlockLabel.m()]


def slots(alg, block: BlockLabel) -> tuple[Slot, ...]:
    """A block's slots in ``Layout`` order: a group block's elements and then
    its m slot, the m block's elements and then their barred twins."""
    elems = alg.group.elements()
    if block.is_m:
        return tuple(Slot.grp(g) for g in elems) + tuple(Slot.bar(g) for g in elems)
    return tuple(Slot.grp(g) for g in elems) + (Slot.m(),)



@dataclass(frozen=True, order=True)
class BasisUnit:
    """Matrix-unit basis element (x; row, col) = v^x_row (x) conj(v^x_col)."""

    block: BlockLabel
    row: Slot
    col: Slot

    def __str__(self) -> str:
        return f"({self.block}; {self.row}, {self.col})"


# An algebra's blocks and slots never change, so its named units are built
# once; the scalar references ask for them once per term.
_NAMED: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _named(alg) -> tuple[list[BasisUnit], dict[BasisUnit, int]]:
    if alg not in _NAMED:
        named = [BasisUnit(b, r, c) for b in blocks(alg) for r in slots(alg, b) for c in slots(alg, b)]
        _NAMED[alg] = named, {u: i for i, u in enumerate(named)}
    return _NAMED[alg]


def units(alg) -> list[BasisUnit]:
    """B's basis units in index order: by block, then row slot, then column
    slot, each in the order of ``slots``."""
    return _named(alg)[0]


def unit_pos(alg) -> dict[BasisUnit, int]:
    """The index of each basis unit."""
    return _named(alg)[1]


def one(alg) -> SparseVec:
    """The unit of B, the sum of the zero block's units."""
    return SparseVec(dict.fromkeys(alg._layout.zero_units.tolist(), 1.0 + 0j))


# -- subspaces and fibers from sparse vectors -------------------------------------


def key_array(keys: list) -> np.ndarray:
    """The keys as a 1-D array: numbers and strings as numpy holds them,
    anything else (tuples of labels, say) as objects."""
    out = np.array(keys)
    if out.ndim != 1:
        out = np.empty(len(keys), dtype=object)
        for i, k in enumerate(keys):
            out[i] = k
    return out


def subspace(vectors, eps: float = DEFAULT_TOL) -> Subspace:
    """The span of sparse vectors, as a Subspace over the sorted keys they touch."""
    vecs = list(vectors)
    keys = sorted({k for v in vecs for k in v.data})
    pos = {k: i for i, k in enumerate(keys)}
    rows = np.zeros((len(vecs), len(keys)), dtype=complex)
    for r, v in enumerate(vecs):
        for k, c in v.items():
            rows[r, pos[k]] = c
    return Subspace(key_array(keys), rows, eps=eps)


def basis_vectors(space: Subspace) -> list[SparseVec]:
    """The basis rows of ``space`` as sparse vectors, pruned at ROUNDOFF."""
    keys = space.universe.tolist()
    return [SparseVec({keys[j]: row[j] for j in np.flatnonzero(row)}) for row in _pruned_rows(space.basis)]


# -- cosets as objects ---------------------------------------------------------------


@dataclass(frozen=True)
class Coset:
    """A coset as an object, the view of one coset number of a quotient:
    the number and the coset's members in index order, the least first."""

    number: int
    elements: tuple[GroupElt, ...]

    @property
    def rep(self) -> GroupElt:
        return self.elements[0]

    def __len__(self) -> int:
        return len(self.elements)


def cosets(quot: QuotientGroup) -> list[Coset]:
    """Every coset of ``quot`` in number order, from the elements carrying its label."""
    elems = quot.group.elements()
    return [Coset(c, tuple(a for i, a in enumerate(elems) if quot.label[i] == c)) for c in range(len(quot))]


def spec_of(alg, K, z0=(), z1=()) -> CoidealSpec:
    """Classification data (K, Z0, Z1) of ``alg``, Z0 and Z1 as coset numbers
    of G/K and of the quotient by the annihilator of K."""
    return CoidealSpec(quotient(alg.group, K), quotient(alg.group, orthogonal(alg.bichar, K)), z0, z1)


def coset_vector(alg, block: BlockLabel, coset: Coset, barred: bool = False) -> SparseVec:
    """Sum of fiber basis vectors over a coset: v^g_lam, v^m_lam, or v^m_{~lam}."""
    if barred and not block.is_m:
        raise InvariantError("group blocks have no barred slots")
    mk = Slot.bar if barred else Slot.grp
    return SparseVec({(block, mk(p)): 1.0 + 0j for p in sorted(coset.elements)})


def fiber_rows(alg, x_vectors: dict) -> tuple[np.ndarray, np.ndarray]:
    """Generating fiber vectors keyed (block, slot), listed per block, as the
    (block, rows) that ``assemble`` takes: one row over the block's slots
    per vector, padded with zeros to the widest block."""
    names, width = blocks(alg), int(alg._layout.sizes.max())
    block, rows = [], []
    for label, vecs in x_vectors.items():
        own = slots(alg, label)
        for v in vecs:
            row = np.zeros(width, dtype=complex)
            for (b, slot), c in v.items():
                if b != label:
                    raise InvariantError(f"fiber vector for {label} has support in {b}")
                row[own.index(slot)] = c
            block.append(names.index(label))
            rows.append(row)
    return np.array(block, dtype=np.int64), np.array(rows, dtype=complex).reshape(len(rows), width)


def assemble(alg: TYAlgebra, block: np.ndarray, rows: np.ndarray, label: str,
             spec: CoidealSpec | None = None) -> WeakCoideal:
    """Assemble A = sum_x X^x (x) conj(H^x) from generating fiber rows: row r
    lies in the fiber of block ``block[r]``, over its slots and padded with
    zeros to the widest block.  Each fiber is reduced to echelon form by one
    Subspace over the slots its rows touch."""
    sizes, width = alg._layout.sizes, int(alg._layout.sizes.max())
    block, rows, none = np.asarray(block), np.asarray(rows, dtype=complex), np.zeros(0, dtype=np.int64)
    parts = [(none, none, np.zeros((0, width), dtype=complex))]
    for b in np.unique(block).tolist():
        gens = rows[block == b]
        at = np.flatnonzero((gens != 0).any(axis=0))
        if len(at) and at[-1] >= sizes[b]:
            name = alg.block_names[b]
            raise InvariantError(f"fiber row for block {name} has support past its {sizes[b]} slots")
        sub = Subspace(at, gens[:, at])
        out = np.zeros((sub.dim, width), dtype=complex)
        out[:, at] = sub.basis
        parts.append((np.full(sub.dim, b), at[sub.pivots], out))
    return WeakCoideal(alg, *map(np.concatenate, zip(*parts)), label, spec)


# -- weak coideals as objects ------------------------------------------------------


def reduced(universe: list, basis: np.ndarray, pivots: list[int], eps: float = DEFAULT_TOL) -> Subspace:
    """The span of reduced echelon rows over ``universe`` with unit pivots, taken as they are."""
    keys = key_array(universe)
    space = Subspace(keys, np.zeros((0, len(keys))), eps=eps)
    space.basis, space.pivots, space._free = basis, pivots, ~np.isin(np.arange(len(keys)), pivots)
    return space


def x_spaces(wc) -> dict[BlockLabel, Subspace]:
    """Each nonzero fiber of a weak coideal as a Subspace over the (block,
    slot) keys its rows touch."""
    out, alg, names = {}, wc.algebra, blocks(wc.algebra)
    for b in np.unique(wc.fiber_block).tolist():
        label, mine = names[b], wc.fiber_block == b
        rows, own = wc.fiber_rows[mine], slots(alg, label)
        at = np.flatnonzero((rows != 0).any(axis=0))
        out[label] = reduced([(label, own[s]) for s in at.tolist()], rows[:, at],
                             np.searchsorted(at, wc.fiber_pivot[mine]).tolist(), alg.eps)
    return out


def unit_vector(wc) -> SparseVec:
    """1_A as a vector of B: each unit (0; r, c) carries the unit row's value at slot r."""
    alg = wc.algebra
    zero = blocks(alg)[alg._layout.zero]
    own, pos = slots(alg, zero), unit_pos(alg)
    return SparseVec({pos[BasisUnit(zero, own[r], c)]: v for r, v in enumerate(wc.unit.tolist()) if v for c in own})


# -- the fiber spaces ------------------------------------------------------------


def fiber_basis(alg, block: BlockLabel, slot: Slot) -> SparseVec:
    if slot not in slots(alg, block):
        raise InvariantError(f"slot {slot} does not belong to block {block}")
    return SparseVec.basis((block, slot))


def _circ_basis(alg, x: BlockLabel, a: Slot, y: BlockLabel, c: Slot) -> tuple:
    """Structure constants of the fiber product on basis vectors."""
    G = alg.group
    if not x.is_m and not y.is_m:
        g, h = x.g, y.g
        if a.kind == SLOT_GRP and c.kind == SLOT_GRP:
            # v^g_k . v^h_{h+k} = v^{g+h}_{h+k}
            if c.g == add(G, h, a.g):
                return (((BlockLabel.grp(add(G, g, h)), Slot.grp(c.g)), 1.0 + 0j),)
        elif a.kind == SLOT_M and c.kind == SLOT_M:
            # v^g_m . v^h_m = v^{g+h}_m
            return (((BlockLabel.grp(add(G, g, h)), Slot.m()), 1.0 + 0j),)
    elif not x.is_m and y.is_m:
        g = x.g
        if a.kind == SLOT_GRP and c.kind == SLOT_GRP:
            # v^g_k . v^m_k = v^m_{k-g}
            if a.g == c.g:
                return (((BlockLabel.m(), Slot.grp(sub(G, c.g, g))), 1.0 + 0j),)
        elif a.kind == SLOT_M and c.kind == SLOT_BAR:
            # v^g_m . v^m_{~k} = chi(g,k) v^m_{~k}
            return (((BlockLabel.m(), c), alg.chi(g, c.g)),)
    elif x.is_m and not y.is_m:
        h = y.g
        if a.kind == SLOT_GRP and c.kind == SLOT_M:
            # v^m_k . v^h_m = chi(h,k) v^m_k
            return (((BlockLabel.m(), a), alg.chi(h, a.g)),)
        elif a.kind == SLOT_BAR and c.kind == SLOT_GRP:
            # v^m_{~k} . v^h_{h+k} = v^m_{~(h+k)}
            if c.g == add(G, h, a.g):
                return (((BlockLabel.m(), Slot.bar(c.g)), 1.0 + 0j),)
    else:
        if a.kind == SLOT_GRP and c.kind == SLOT_BAR:
            # v^m_h . v^m_{~k} = v^{k-h}_k
            return (((BlockLabel.grp(sub(G, c.g, a.g)), Slot.grp(c.g)), 1.0 + 0j),)
        elif a.kind == SLOT_BAR and c.kind == SLOT_GRP and a.g == c.g:
            # v^m_{~h} . v^m_h = tau * sum_p conj(chi(p,h)) v^p_m
            return tuple(
                ((BlockLabel.grp(p), Slot.m()), alg.tau * alg.chi(p, a.g).conjugate())
                for p in G.elements()
            )
    return ()


def circ(alg, u: SparseVec, w: SparseVec) -> SparseVec:
    """Bilinear fiber product of vectors keyed by (block, slot)."""
    out = SparseVec()
    for (x, a), cu in u.items():
        for (y, c), cw in w.items():
            for key, coeff in _circ_basis(alg, x, a, y, c):
                out.data[key] = out.data.get(key, 0.0) + cu * cw * coeff
    return out.prune()


def _fiber_map(alg, x: BlockLabel, s: Slot, second_leg: bool) -> tuple[complex, BlockLabel, Slot]:
    """The (coeff, block, slot) image of slot s under the fiber involution
    (``second_leg=False``) or the conjugate-fiber identification used by the
    second tensor leg.  The two differ only in their m-block coefficients."""
    if not x.is_m:
        g = x.g
        target = BlockLabel.grp(neg(alg.group, g))
        if s.kind == SLOT_GRP:
            return 1.0 + 0j, target, Slot.grp(sub(alg.group, s.g, g))
        return 1.0 + 0j, target, Slot.m()
    unb, bar = (alg._phi_unb, alg._phi_bar) if second_leg else (alg._psi_unb, alg._psi_bar)
    if s.kind == SLOT_GRP:
        return complex(unb), x, Slot.bar(s.g)
    return complex(bar), x, Slot.grp(s.g)


def sharp(alg, u: SparseVec) -> SparseVec:
    """Conjugate-linear fiber involution on vectors keyed by (block, slot)."""
    out = SparseVec()
    for (x, s), c in u.items():
        coeff, tb, ts = _fiber_map(alg, x, s, second_leg=False)
        out.data[(tb, ts)] = out.data.get((tb, ts), 0.0) + c.conjugate() * coeff
    return out.prune()


# -- structure maps of B on vectors of units ----------------------------------------


def basis_element(alg, block: BlockLabel, row: Slot, col: Slot) -> SparseVec:
    return SparseVec.basis(unit_pos(alg)[BasisUnit(block, row, col)])


def add_scaled(out: SparseVec, other: SparseVec, scalar) -> None:
    """out += scalar * other in place, with no pruning."""
    s = complex(scalar)
    for k, v in other.data.items():
        out.data[k] = out.data.get(k, 0.0) + v * s


def haar_value(h, a: SparseVec) -> complex:
    """The invariant functional h, given by its coefficients, at a."""
    return complex(sum(c * h.coeffs[i] for i, c in a.items()))


def counit(alg, a: SparseVec) -> complex:
    total = 0.0 + 0j
    named = units(alg)
    for i, c in a.items():
        u = named[i]
        if u.row == u.col:
            total += c
    return total


def _apply(m, a: SparseVec, conjugate: bool) -> SparseVec:
    """The unit map u_i -> m.c[i] u_{m.k[i]} on a, conjugate-linear when
    ``conjugate``."""
    out: dict[int, complex] = {}
    for i, c in a.items():
        k, coeff = int(m.k[i]), complex(m.c[i])
        out[k] = out.get(k, 0.0) + (c.conjugate() if conjugate else c) * coeff
    return SparseVec(out).prune()


def star(alg, a: SparseVec) -> SparseVec:
    return _apply(alg._star_map, a, conjugate=True)


def antipode(alg, a: SparseVec) -> SparseVec:
    return _apply(alg._antipode_map, a, conjugate=False)


def term_vectors(terms: tuple, dim: int) -> list[SparseVec]:
    """The vectors 0..dim-1 given by their terms (vector, unit, value)."""
    out = [SparseVec() for _ in range(dim)]
    for i, k, c in zip(*(t.tolist() for t in terms)):
        out[i].data[k] = c
    return out


def eps_t(alg, a: SparseVec) -> SparseVec:
    src, key, val = alg._eps_t_table
    out = SparseVec()
    for i, c in a.items():
        lo, hi = np.searchsorted(src, [i, i + 1])
        add_scaled(out, SparseVec(zip(key[lo:hi].tolist(), val[lo:hi].tolist())), c)
    return out.prune()


# -- the axiom rows as the scalar paths evaluated them -------------------------------
#
# Each returns the row's (residual, passed, witness, instances) as
# ``verify_axioms`` reported it before the rows became array joins.


def _row(alg, distances, instances: int) -> tuple:
    residual = float(max(distances, default=0.0))
    return residual, residual <= alg.eps, "", instances


def counital_commute(alg) -> tuple:
    """"counital subalgebras commute": t s = s t over the basis vectors."""
    target, source = alg.counital_subalgebras()
    tvecs, svecs = basis_vectors(target), basis_vectors(source)
    distances = [distance(alg.multiply(t, s), alg.multiply(s, t)) for t in tvecs for s in svecs]
    return _row(alg, distances, len(tvecs) * len(svecs))


def antipode_squared(alg) -> tuple:
    """"antipode squared fixes target subalgebra": S(S(t)) = t."""
    tvecs = basis_vectors(alg.counital_subalgebras()[0])
    return _row(alg, [distance(antipode(alg, antipode(alg, t)), t) for t in tvecs], len(tvecs))


def weak_unit(alg) -> tuple:
    """"weak unit identity" on Delta(1) from the scalar coproduct."""
    d, T, D = alg.dim, alg.product, alg._coproduct_table
    items = sorted(alg.coproduct(one(alg)).items())
    a = np.array([k[0] for k, _ in items], dtype=np.int64)
    b = np.array([k[1] for k, _ in items], dtype=np.int64)
    c = np.array([v for _, v in items], dtype=complex)
    s, e = T.of_left(b)
    s2, q = _join(T.j[e], a)
    s, e = s[s2], e[s2]
    lhs = ((a[s] * d + T.k[e]) * d + b[q], c[s] * c[q] * T.c[e])
    s, q = _runs(D.ptr, a)
    rhs = ((D.first[q] * d + D.second[q]) * d + b[s], c[s])
    return _row(alg, [_worst(lhs, rhs)[0]], 1)


def zero_fiber_projections(alg) -> tuple:
    """"zero fiber projections" through ``sharp`` and ``circ``."""
    zero = BlockLabel.grp(alg.group.zero())
    basis = [(s, fiber_basis(alg, zero, s)) for s in slots(alg, zero)]
    distances = [distance(sharp(alg, v), v) for _, v in basis]
    distances += [distance(circ(alg, v, w), v if s == t else SparseVec()) for s, v in basis for t, w in basis]
    return _row(alg, distances, len(basis) ** 2)


ROWS = {
    "weak unit identity": weak_unit,
    "counital subalgebras commute": counital_commute,
    "antipode squared fixes target subalgebra": antipode_squared,
    "zero fiber projections": zero_fiber_projections,
}


# -- translations, one named basis unit at a time ------------------------------------


def translate_slot(alg, t: GroupElt, x: BlockLabel, s: Slot) -> tuple[complex, Slot]:
    """sigma_t on slot s of block x as (phase, slot): every group slot and
    every barred slot moves by t, and the m slot of a group block g stays,
    with phase conj chi(g, t)."""
    if s.kind == SLOT_M:
        return alg.chi(x.g, t).conjugate(), s
    return 1.0 + 0j, Slot(s.kind, add(alg.group, s.g, t))


def translate(alg, t: GroupElt, u: BasisUnit) -> tuple[complex, BasisUnit]:
    """sigma_t(u) as (phase, unit): u = (x; r, c) takes ph_r conj(ph_c),
    ph being ``translate_slot``'s phases."""
    (pr, r), (pc, c) = (translate_slot(alg, t, u.block, s) for s in (u.row, u.col))
    return pr * pc.conjugate(), BasisUnit(u.block, r, c)


def translation_defects(alg) -> np.ndarray:
    """For each t, in index order, the largest gap between B's product,
    coproduct, counit, antipode and star tables and the same table moved by
    sigma_t, each compared by one sorted keyed sum (``_worst``): no search
    and no composition of translations."""
    d, T, D, lay = alg.dim, alg.product, alg._coproduct_table, alg._layout
    S, st, pos, unit = alg._antipode_map, alg._star_map, unit_pos(alg), np.arange(alg.dim)
    out = []
    for t in alg.group.elements():
        moved = [translate(alg, t, u) for u in units(alg)]
        s = np.array([pos[v] for _, v in moved])
        p = np.array([ph for ph, _ in moved])
        q = p.conj()
        out.append(max(
            _worst(((s[T.i] * d + s[T.j]) * d + s[T.k], T.c * q[T.i] * q[T.j] * p[T.k]),
                   ((T.i * d + T.j) * d + T.k, T.c))[0],
            _worst(((s[D.src] * d + s[D.first]) * d + s[D.second], q[D.src] * p[D.first] * p[D.second]),
                   ((D.src * d + D.first) * d + D.second, np.ones(len(D.src))))[0],
            _worst((s, q * lay.diag), (unit, 1.0 * lay.diag))[0],
            _worst((s * d + s[S.k], q * p[S.k] * S.c), (unit * d + S.k, S.c))[0],
            _worst((s * d + s[st.k], p * p[st.k] * st.c), (unit * d + st.k, st.c))[0],
        ))
    return np.array(out)


# -- translations of weak coideals --------------------------------------------------
#
# The catalogs count classes up to translations.  sigma_t moves a fiber row
# slot by slot, as ``TYAlgebra._slot_table`` holds it, and a build should
# follow: build(t . p) spans sigma_t(build(p)) in every block.  The builders
# write rows with disjoint supports within each block, and sigma_t keeps
# that, so their spans are compared by ``span_key``.


def translated_spec(spec: CoidealSpec, t: int, sides=(0, 1)) -> CoidealSpec:
    """t . spec for the element of index t: the cosets of each side in
    ``sides`` moved by t in that side's own quotient."""
    z = [spec.z0, spec.z1]
    for side in sides:
        q = (spec.q0, spec.q1)[side]
        z[side] = q.trans[q.label[t], list(z[side])].tolist()
    return CoidealSpec(spec.q0, spec.q1, *z)


def translated_rows(alg, t: int, block: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """sigma_t, t an element's index, on fiber rows over the slots of their
    blocks: slot s goes to ``shift[t, s]`` with ``phase[t, s]`` of the
    algebra's slot table."""
    lay, S = alg._layout, alg._slot_table
    r, s = np.nonzero(rows)
    start = lay.slot_starts[block[r]]
    out = np.zeros_like(rows)
    out[r, S.shift[t, start + s] - start] = rows[r, s] * S.phase[t, start + s]
    return out


def span_key(block: np.ndarray, rows: np.ndarray) -> tuple:
    """A canonical form of the fibers spanned by rows whose supports are
    disjoint within each block: each row with its block, divided by its
    entry at its least slot and rounded to 12 places, sorted.  The nonzero
    vectors of least support in such a span are the multiples of its rows,
    so two families of such rows span the same fibers iff their keys are
    equal, whatever the rows' order and scale."""
    nonzero = np.abs(rows) > 1e-9
    for b in np.unique(block).tolist():
        if (nonzero[block == b].sum(axis=0) > 1).any():
            raise ValueError(f"rows of block {b} overlap")
    lead = rows[np.arange(len(rows)), nonzero.argmax(axis=1)]
    normal = np.round(rows / lead[:, None], 12) + 0.0  # + 0.0 turns -0.0 into 0.0
    return tuple(sorted(zip(block.tolist(), map(bytes, normal))))


def _key(wc, t: int = 0) -> tuple:
    """``span_key`` of sigma_t(wc)."""
    return span_key(wc.fiber_block, translated_rows(wc.algebra, t, wc.fiber_block, wc.fiber_rows))


def _departures(alg, classes, build) -> list[tuple[int, int]]:
    """The (class number, t), in order, at which ``build(alg, t . p)`` does
    not span sigma_t(``build(alg, p)``) in every block."""
    out = []
    for c, (spec, _) in enumerate(classes):
        wc = build(alg, spec)
        out += [(c, t) for t in range(alg.group.order) if _key(build(alg, translated_spec(spec, t))) != _key(wc, t)]
    return out


def follows_translations(alg, classes) -> int:
    """Check that builds follow sigma_t on every class p of ``classes``,
    given as (datum, flag), and every t, and return the number of (p, t) at
    which ``classify._representative`` departs.

    - ``build_from_spec`` never departs.
    - ``_representative`` departs exactly where ``build_I_Omega_K`` builds a
      lone singleton: its lines C v^k_Omega, over L = K for a Z0 singleton
      or its annihilator for a Z1 singleton, do not move with the coset,
      and sigma_t puts conj chi(k, t) on their slot v^k_m, which is not 1
      for some k in L iff t lies outside L's annihilator.
    - Moving alone the side that does not enter the generators, rho0 of
      ``build_with_m``, leaves the build as it is.  (``build_no_m``'s other
      side is empty, which every translation fixes.)"""
    assert _departures(alg, classes, build_from_spec) == []
    lone = []
    for c, (spec, _) in enumerate(classes):
        if len(spec.z0) + len(spec.z1) == 1:
            lines = spec.subgroup if spec.z0 else spec.q1.subgroup
            lone += [(c, t) for t in np.flatnonzero(alg.bichar.phase_table[lines.idx].any(axis=0)).tolist()]
            assert _representative(alg, spec).label == "I_Omega_K"
        if spec.z0 and spec.z1:
            wc = build_from_spec(alg, spec)
            side = 0 if wc.spec.q0 is spec.q1 else 1  # the side built as rho0, swapped in when it is Z0
            for t in range(alg.group.order):
                assert build_from_spec(alg, translated_spec(spec, t, (side,))).key() == wc.key(), (spec, t)
    assert _departures(alg, classes, _representative) == lone
    return len(lone)


def swap_pairs(alg, classes) -> int:
    """Check that two classes of ``classes``, given as (datum, flag), build
    the same subalgebra only when they are (K, Z0, Z1) and (Kperp, Z1, Z0)
    with K != Kperp, built by ``classify._representative`` or by
    ``build_from_spec``, and compared as they are or by the least
    ``span_key`` over sigma_t images; return the number of such pairs."""
    def shared(build, canonical=False) -> list:
        groups: dict[tuple, list[int]] = {}
        for c, (spec, _) in enumerate(classes):
            wc = build(alg, spec)
            key = min(_key(wc, t) for t in range(alg.group.order)) if canonical else _key(wc)
            groups.setdefault(key, []).append(c)
        return sorted(g for g in groups.values() if len(g) > 1)

    pairs = shared(_representative)
    assert pairs == shared(build_from_spec) == shared(_representative, canonical=True)
    for pair in pairs:
        assert len(pair) == 2, pair
        (p, _), (q, _) = (classes[c] for c in pair)
        K, perp = p.subgroup, p.q1.subgroup
        assert K != perp and (q.subgroup, q.q1.subgroup, q.z0, q.z1) == (perp, K, p.z1, p.z0), pair
    return len(pairs)


# -- the coideal checks on A itself ---------------------------------------------------
#
# ``verify_weak_coideal``'s rows as they ran on A = sum_x X^x (x) conj(H^x)
# before they moved to the fiber rows: batched residuals over A's
# coordinates, one block of A at a time, read from B's structure-constant
# arrays, with the instance counts (dim A, its square, or 1), residuals and
# witnesses they reported.


def summed(vec: np.ndarray, unit: np.ndarray, val: np.ndarray, dim: int) -> tuple:
    """Terms (vector, unit, value) summed per (vector, unit) and pruned by
    ``_pruned``, as (vector, unit, sum), sorted by vector, then unit."""
    keys, sums = _pruned(vec * dim + unit, val)
    return (*np.divmod(keys, dim), sums)


class ACoords:
    """A's basis terms as ``center`` reads them (``_coords``), with the
    membership test of A.

    A vector of B with block matrices V_x (row slot by column slot) lies in A
    iff every column of each V_x lies in X^x and it has no mass off A's
    blocks.  Its residual is the root of

        sum_x |V_x[free] - F_x[:, free]^T V_x[piv]|^2 + |mass off A's blocks|^2,

    taken by the sparse map ``reduce``: for each (block, row slot) of A's
    blocks, the free slots it reaches and with what coefficient (1 from a
    free slot to itself, -F_x[i, f] from the pivot slot of row i)."""

    def __init__(self, wc):
        alg = wc.algebra
        lay = self.layout = alg._layout
        self.dim, self.eps = alg.dim, alg.eps
        self.row, self.unit, self.val, self.size = _coords(wc)
        self.first_slot = np.cumsum(lay.sizes) - lay.sizes  # slot s of block b is first + s
        self.in_blocks = np.bincount(wc.fiber_block, minlength=len(lay.sizes)) > 0
        self.by_unit = np.argsort(self.unit, kind="stable")
        self.unit_sorted = self.unit[self.by_unit]
        self.covers = np.zeros(self.dim, dtype=bool)
        self.covers[self.unit] = True
        self.norms = np.sqrt(np.bincount(self.row, _sq(self.val), self.size))
        b, piv = wc.fiber_block, wc.fiber_pivot
        fiber = _pruned_rows(wc.fiber_rows)
        # ``reduce`` as (block slot, free slot, coefficient): each free slot to
        # itself, then each row's pivot to the free slots where it is nonzero
        pivot = np.zeros((len(lay.sizes), fiber.shape[1]), dtype=bool)
        pivot[b, piv] = True
        fb, fs = np.nonzero(~pivot & self.in_blocks[:, None] & (np.arange(fiber.shape[1]) < lay.sizes[:, None]))
        r, f = np.nonzero(fiber * ~pivot[b])
        key = self.first_slot[np.concatenate([fb, b[r]])] + np.concatenate([fs, piv[r]])
        order = np.argsort(key, kind="stable")
        self.reduce_slot = np.concatenate([fs, f])[order]
        self.reduce_coef = np.concatenate([np.ones(len(fs)), -fiber[r, f]])[order]
        self.reduce_ptr = np.searchsorted(key[order], np.arange(lay.sizes.sum() + 1))

    def residual(self, vec: np.ndarray, unit: np.ndarray, val: np.ndarray, n: int) -> tuple:
        """The norm of the component outside A, and the norm, of each of n
        vectors of B given by terms (vector, unit, value), summed per
        (vector, unit) and pruned by ``_pruned``."""
        lay, dim = self.layout, self.dim
        vec, unit, val = summed(vec, unit, val, dim)
        mass, b = _sq(val), lay.block[unit]
        off = ~self.in_blocks[b]
        s, p = _runs(self.reduce_ptr, self.first_slot[b] + lay.row[unit])
        out = lay.unit(b[s], self.reduce_slot[p], lay.col[unit[s]])
        keys, sums = _sums(vec[s] * dim + out, val[s] * self.reduce_coef[p])
        inside = np.bincount(keys // dim, _sq(sums), n)
        return np.sqrt(inside + np.bincount(vec[off], mass[off], n)), np.sqrt(np.bincount(vec, mass, n))

    def contains(self, vec: np.ndarray, unit: np.ndarray, val: np.ndarray, n: int) -> np.ndarray:
        res, norm = self.residual(vec, unit, val, n)
        return res <= self.eps * (1.0 + norm)


def unit_terms(wc) -> tuple[np.ndarray, np.ndarray]:
    """The units of 1_A, ascending, and 1_A as a dense vector of B: unit
    (0; r, c) carries the row's value at slot r."""
    lay = wc.algebra._layout
    row = np.repeat(wc.unit, lay.sizes[lay.zero])
    dense = np.zeros(wc.algebra.dim, dtype=complex)
    dense[lay.zero_units] = row
    return lay.zero_units[row != 0], dense


def invariance(wc) -> tuple:
    """The sparse system (rows, cols, vals) whose kernel is the invariant
    subalgebra {a in A : Delta(a) = Delta(1_A)(a (x) 1)}, in A's coordinates.

    Delta(1_A)(u_i (x) 1) is sum_p c_p (u_{f_p} u_i) (x) u_{s_p} over the terms
    c_p u_{f_p} (x) u_{s_p} of Delta(1_A), so each constraint column joins
    those first legs with the product entries whose right factor is u_i."""
    alg, A = wc.algebra, ACoords(wc)
    dim, T, C = alg.dim, alg.product, alg._coproduct_table
    units, mu = unit_terms(wc)
    _, p = _runs(C.ptr, units)
    p = p[np.argsort(C.first[p], kind="stable")]
    first, second, coef = C.first[p], C.second[p], mu[C.src[p]]
    t, p = _runs(C.ptr, A.unit)
    s, e = T.of_right(A.unit)
    q, d = _join(T.i[e], first)
    s, e = s[q], e[q]
    rows = np.concatenate([C.first[p] * dim + C.second[p], T.k[e] * dim + second[d]])
    cols = np.concatenate([A.row[t], A.row[s]])
    vals = np.concatenate([A.val[t], -coef[d] * A.val[s] * T.c[e]])
    return rows, cols, vals


def a_level_fixed_point_algebra(wc) -> Subspace:
    """``fixed_point_algebra`` as it ran on A: the kernel of the invariance
    system over A's basis."""
    A, alg = ACoords(wc), wc.algebra
    return span(sparse_nullspace(*invariance(wc), A.size), A.row, A.unit, A.val)


def _verdict(values: np.ndarray, witness) -> tuple[float, str]:
    """``coideals._verdicts`` on one coideal's values."""
    return _verdicts(values, np.zeros(len(values), dtype=np.int64), 1, witness)[0]


def a_unit_exists(wc, A: ACoords) -> tuple:
    units, mu = unit_terms(wc)
    res, norm = A.residual(np.zeros(len(units), dtype=np.int64), units, mu[units], 1)
    return _exact(bool(norm[0] > wc.algebra.eps and res[0] <= wc.algebra.eps * (1.0 + norm[0])),
                  "empty or missing unit")


def a_product_closure(wc, A: ACoords) -> tuple:
    """The margin res - eps (1 + |ab|) of every pair (a, b) of basis rows,
    numbered a * size + b: the products are one join of A's terms through
    the product entries with both factors on A's units.  A pair whose
    product has no terms has margin -eps and is left out."""
    T, size = wc.algebra.product, A.size
    within = np.flatnonzero(A.covers[T.i] & A.covers[T.j])
    s, e = _join(A.unit, T.i[within])
    e = within[e]
    q, p = _join(T.j[e], A.unit_sorted)
    s, e, b = s[q], e[q], A.by_unit[p]
    pairs, pair = np.unique(A.row[s] * size + A.row[b], return_inverse=True)
    res, norm = A.residual(pair, T.k[e], A.val[s] * A.val[b] * T.c[e], len(pairs))
    return _verdict(res - A.eps * (1.0 + norm), lambda at: f"basis pair {divmod(int(pairs[at]), size)}")


def a_star_closure(wc, A: ACoords) -> tuple:
    """The involution is a monomial map: u_i -> c_i u_{k_i}."""
    star = wc.algebra._star_map
    res, _ = A.residual(A.row, star.k[A.unit], A.val.conj() * star.c[A.unit], A.size)
    return _verdict(res - A.eps * (1.0 + A.norms), "basis vector {}".format)


def a_coproduct_into(wc, A: ACoords) -> tuple:
    """Delta(a) = sum_j w_j (x) u_j lies in A (x) B iff every w_j lies in A."""
    C, dim = wc.algebra._coproduct_table, wc.algebra.dim
    t, p = _runs(C.ptr, A.unit)
    keys, leg = np.unique(A.row[t] * dim + C.second[p], return_inverse=True)
    bad = keys[~A.contains(leg, C.first[p], A.val[t], len(keys))] // dim
    return _exact(not len(bad), f"basis vector {int(bad[0])}" if len(bad) else "")


def a_unit_identity(wc, A: ACoords) -> tuple:
    """The sup distance of 1_A a and a 1_A from a, for every basis row a."""
    alg = wc.algebra
    T, dim = alg.product, alg.dim
    _, mu = unit_terms(wc)
    dist = np.zeros(A.size)
    for (s, e), unit_coef in ((T.of_right(A.unit), mu[T.i]), (T.of_left(A.unit), mu[T.j])):
        row, k, val = summed(A.row[s], T.k[e], A.val[s] * unit_coef[e] * T.c[e], dim)
        keys, diff = _diff((row * dim + k, val), (A.row * dim + A.unit, A.val))
        np.maximum.at(dist, keys // dim, diff)
    return _verdict(dist, "basis vector {}".format)


def a_unit_coproduct(wc, A: ACoords) -> tuple:
    """Delta(1_A) = sum_f u_f (x) r_f lies in A (x) B_t: every r_f lies in
    B_t (one dense residual over its universe), and for each basis row of
    B_t the first legs weighted by their r_f coordinates lie in A.  Its
    witness was always empty."""
    alg = wc.algebra
    C, dim = alg._coproduct_table, alg.dim
    target, _source = alg.counital_subalgebras()
    units, mu = unit_terms(wc)
    _, p = _runs(C.ptr, units)
    firsts, at = np.unique(C.first[p], return_inverse=True)
    f, second, val = summed(at, C.second[p], mu[C.src[p]], dim)
    keys = target.universe
    pos = np.full(dim, -1)  # each unit's place in B_t's universe
    pos[keys] = np.arange(len(keys))
    inside = pos[second] >= 0
    legs = np.zeros((len(firsts), len(keys)), dtype=complex)
    legs[f[inside], pos[second[inside]]] = val[inside]
    res = target.residuals(legs, np.bincount(f[~inside], _sq(val[~inside]), len(firsts)))
    norms = np.sqrt(np.bincount(f, _sq(val), len(firsts)))
    row_of = np.full(dim, -1)  # the B_t basis row whose pivot is each unit
    row_of[keys[target.pivots]] = np.arange(target.dim)
    b = row_of[second]
    hit = b >= 0
    ok = (bool(A.size) and bool((res - target.eps * (1.0 + norms) <= 0.0).all())
          and bool(A.contains(b[hit], firsts[f[hit]], val[hit], target.dim).all()))
    return _exact(ok)


def a_level_report(wc) -> AxiomReport:
    """``verify_weak_coideal``'s report as the rows on A made it: the same
    names in the same order, with A's instance counts."""
    A, alg = ACoords(wc), wc.algebra
    rows = [
        ("unit exists in A", 1, a_unit_exists, alg.eps),
        ("closed under product", A.size**2, a_product_closure, 0.0),
        ("closed under star", A.size, a_star_closure, 0.0),
        ("coproduct maps into A (x) B", A.size, a_coproduct_into, alg.eps),
        ("unit acts as identity", A.size, a_unit_identity, alg.eps),
        ("coproduct of unit in A (x) B_t", 1, a_unit_coproduct, alg.eps),
    ]
    tau = "+" if alg.tau_sign > 0 else "-"
    return AxiomReport.run(f"coideal {wc.label} on {alg.group} tau{tau}", alg.eps, alg.unit_name, rows, wc, A)


def restricted_is_indecomposable(wc) -> bool:
    """``is_indecomposable`` as it ran on A: the invariant subalgebra is the
    kernel of the invariance system in A's coordinates, with rows z_i; its
    central elements sum_i y_i z_i are the kernel of the commutant system
    restricted to the z_i, a dense matrix over the few y_i."""
    A, alg = ACoords(wc), wc.algebra
    z = sparse_nullspace(*invariance(wc), A.size)
    (rows, cols, vals), (at, i) = alg.commutant(A.row, A.unit, A.val), np.nonzero(z.T)
    s, p = _join(cols, at)
    keys, r = np.unique(rows[s], return_inverse=True)
    restricted = np.zeros((1, len(keys), len(z)), dtype=complex)
    np.add.at(restricted[0], (r, i[p]), vals[s] * z[i[p], at[p]])
    return len(nullspace(restricted)[0]) == 1


def stacked_is_indecomposable(batch, fibers=None) -> list[bool]:
    """``is_indecomposable`` by a stacker of its own: each coideal's system
    of equations mu . xi - xi . mu, numbered by ``np.unique`` over the
    whole batch, laid by ``np.add.at`` into a dense stack of the systems of
    its shape (m, n), m >= 1 rows over its n X^0 rows, and one ``nullspace``
    per stack.  ``fibers`` are those of a batch that holds these coideals,
    the batch's own when not given; a coideal with X^0 = 0 is decomposable."""
    F = fibers or _Fibers(batch)
    own, mine = [F.index[id(wc)] for wc in batch], np.zeros(F.k, dtype=bool)
    mine[own] = True
    row, key, val = F.sorted_terms
    at = F.zero_rows[row]
    mu = (np.cumsum(F.zero_rows)[row[at]] - 1, key[at], val[at])  # coordinates along the batch's X^0 rows
    (i, r, out, v), (r2, i2, out2, v2) = F.compose(mu, F.sorted_terms), F.compose(F.terms, mu)
    keys, eq = np.unique(np.append(r, r2) * F.keys + np.append(out, out2), return_inverse=True)
    of_eq, n = F.owner[keys // F.keys], np.bincount(F.owner[F.zero_rows], minlength=F.k)
    m, c = np.bincount(of_eq, minlength=F.k), of_eq[eq]  # each system's m x n shape; each entry's coideal
    entry = (eq - (np.cumsum(m) - m)[c], np.append(i, i2) - (np.cumsum(n) - n)[c], np.append(v, -v2))  # in its system
    shape, out = np.where(mine & (n > 0), np.maximum(m, 1) * (n.max(initial=0) + 1) + n, -1), np.zeros(F.k, dtype=bool)
    for code in np.unique(shape[shape >= 0]).tolist():
        members, place = np.flatnonzero(shape == code), np.full(F.k, -1)
        place[members], hit = np.arange(len(members)), shape[c] == code
        system = np.zeros((len(members), max(m[members[0]], 1), n[members[0]]), dtype=complex)
        np.add.at(system, (place[c[hit]], entry[0][hit], entry[1][hit]), entry[2][hit])
        out[members] = np.bincount(nullspace(system)[1], minlength=len(members)) == 1
    return out[own].tolist()


# -- reports --------------------------------------------------------------------------


def failures(report) -> list:
    """The checks of a report that did not pass, in order."""
    return [c for c in report.checks if not c.passed]


def table_rows(table) -> list[list]:
    """The rows a :class:`tywha.algebra.Table` stands for in a report."""
    return [list(row) for row in zip(*(column.tolist() for column in table.columns))]


# -- references for the keyed sum, the component split and the Haar solve ----------


def unique_sums(keys: np.ndarray, vals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``linalg._sums`` by ``np.unique``'s inverse: the sum of ``vals`` on
    each key, added in input order, as (sorted keys, sums)."""
    uniq, inv = np.unique(keys, return_inverse=True)
    vals = np.asarray(vals, dtype=complex)
    return uniq, np.bincount(inv, vals.real, len(uniq)) + 1j * np.bincount(inv, vals.imag, len(uniq))


def _places(owner: np.ndarray, k: int):
    """Items grouped by owner 0..k-1, ascending within each group (owner -1
    is left out): the grouped items, each item's place in its group, and
    each group's start in the grouping and size."""
    order = np.argsort(owner, kind="stable")
    order = order[owner[order] >= 0]
    size = np.bincount(owner[order], minlength=k)
    start = np.cumsum(size) - size
    place = np.zeros(len(owner), dtype=int)
    place[order] = np.arange(len(order)) - start[owner[order]]
    return order, place, start, size


def propagated_labels(r: np.ndarray, c: np.ndarray, n: int, n_rows: int) -> tuple[np.ndarray, int]:
    """The column labels of ``linalg.components``' propagation over entries
    at (``r``, ``c``), run until a round changes nothing, and the number of
    rounds that took, that last one included."""
    label, old, rounds = np.arange(n), None, 0
    while not np.array_equal(label, old):
        old, low, rounds = label, np.full(n_rows, n), rounds + 1
        np.minimum.at(low, r, label[c])
        label = label.copy()
        np.minimum.at(label, c, low[r])
        while not np.array_equal(label[label], label):
            label = label[label]
    return label, rounds


def places_components(rows: np.ndarray, cols: np.ndarray, vals: np.ndarray, n: int):
    """``linalg.components`` by ``np.unique`` over the rows and over the
    shapes, the keyed sum by :func:`unique_sums`, and one stable grouping
    sort each for columns, rows, components and entries."""
    if not n:
        return
    row_ids, r = np.unique(rows, return_inverse=True)
    keys, vals = unique_sums(r * n + cols, vals)
    keep = _kept(vals)
    keys, vals = keys[keep], vals[keep]
    r, c = np.divmod(keys, n)
    label, _ = propagated_labels(r, c, n, len(row_ids))
    roots = np.flatnonzero(label == np.arange(n))
    comp = np.searchsorted(roots, label)
    row_comp = np.full(len(row_ids), -1)
    row_comp[r] = comp[c]
    by_col, col_at, col_start, width = _places(comp, len(roots))
    by_row, row_at, row_start, height = _places(row_comp, len(roots))
    shapes, shape = np.unique(height * (n + 1) + width, return_inverse=True)
    by_shape, slot, shape_start, count = _places(shape, len(shapes))
    by_entry, _, entry_start, entries = _places(shape[comp[c]], len(shapes))
    for start, k, at, m in zip(shape_start, count, entry_start, entries):
        members, part = by_shape[start:start + k], by_entry[at:at + m]
        h, w = height[members[0]], width[members[0]]
        blocks = np.zeros((k, h, w), dtype=complex)
        blocks[slot[comp[c[part]]], row_at[r[part]], col_at[c[part]]] = vals[part]
        yield (row_ids[by_row[row_start[members, None] + np.arange(h)]],
               by_col[col_start[members, None] + np.arange(w)], blocks)


def lstsq_haar(rows: np.ndarray, cols: np.ndarray, vals: np.ndarray, rhs: np.ndarray, n: int) -> tuple:
    """The Haar system (``TYAlgebra._haar_system``) over n columns solved by
    one ``lstsq`` per component block: the coefficients and the rank, each
    block's by ``linalg._rank``, summed."""
    coeffs, rank = np.zeros(n, dtype=complex), 0
    for ids, block_cols, blocks in components(rows, cols, vals, n):
        heads, has = np.zeros(ids.shape, dtype=complex), ids < len(rhs)
        heads[has] = rhs[ids[has]]
        for block, head, at in zip(blocks, heads, block_cols):
            x, _, _, s = np.linalg.lstsq(block, head, rcond=None)
            coeffs[at] = x
            rank += int(_rank(s))
    return coeffs, rank


# -- catalogs by one orbit partition of pair points per subgroup -------------------


def _sides(rows: np.ndarray, n0: int) -> tuple[np.ndarray, np.ndarray]:
    """The sizes of each pair row's two sides, over G/K and over G/Kperp."""
    return rows[:, :n0].sum(axis=1), rows[:, n0:].sum(axis=1)


def _specs(rows: np.ndarray, q0: QuotientGroup, q1: QuotientGroup) -> list[CoidealSpec]:
    """The classification data of indicator rows over G/K followed by
    G/Kperp, in one pass: each row's members on either side, as coset
    numbers."""
    n0 = len(q0)
    r, c = np.nonzero(rows)
    # row i's members are c[ends[i-1]:ends[i]], its Z0 members up to mids[i]
    ends = np.cumsum(np.bincount(r, minlength=len(rows)))
    mids = (ends - np.bincount(r[c >= n0], minlength=len(rows))).tolist()
    c, ends = np.where(c < n0, c, c - n0).tolist(), ends.tolist()
    return [CoidealSpec(q0, q1, c[lo:mid], c[mid:hi]) for lo, mid, hi in zip([0, *ends], mids, ends)]


def _valid_subset_pairs(q0: QuotientGroup, q1: QuotientGroup) -> np.ndarray:
    """Indicator rows of all nonempty (Z0, Z1) with at most one side beyond
    a singleton."""
    if 2 ** (len(q0) + len(q1)) > ENUMERATION_BOUND:
        raise SizeError("subset enumeration too large")
    rows = _subsets(len(q0) + len(q1))
    s0, s1 = _sides(rows, len(q0))
    return rows[(s0 + s1 > 0) & ((s0 <= 1) | (s1 <= 1))]


def _pair_classes(points: np.ndarray, perms: np.ndarray, key, fixed) -> tuple[np.ndarray, dict]:
    """Orbits of the points and their counts, cross-checked by Burnside."""
    orbits = orbit_partition(points, perms, key)
    count = burnside_check(perms, fixed, len(points), len(orbits))
    return orbits, {"n_points": len(points), "n_classes": len(orbits), "burnside_count": count}


def weak_coideal_classes(group: FiniteAbelianGroup, chi) -> tuple[dict, list]:
    """``classify.weak_coideal_classes`` by partitioning every subgroup's
    valid subset pairs under ``_pair_perms``."""
    check_order(group.order, CLASSIFY_ORDER_BOUND, "classification")
    per_subgroup, classes = [], []
    for K in enumerate_subgroups(group):
        perp, q0, q1, flip = _quotients(group, chi, K)
        n0, n1, perms, points = len(q0), len(q1), _pair_perms(q0, q1, flip), _valid_subset_pairs(q0, q1)
        orbits, counts = _pair_classes(points, perms, partial(_pair_key, n0=n0), partial(_pair_fixed, n0=n0))
        flags = _coideal_flags(*_sides(orbits["row"], n0), n0, n1)
        if orbits["size"][flags].sum() != _coideal_flags(*_sides(points, n0), n0, n1).sum():
            raise StructuralError("coideal flag is not constant on an orbit")
        specs, flags = _specs(orbits["row"], q0, q1), flags.tolist()
        if sorted((s.z0, s.z1) for s, f in zip(specs, flags) if f) != coideal_orbits(K, q0, q1, flip, perms):
            raise StructuralError(f"flagged orbits for K={K} disagree with the coideal orbit list")
        classes += zip(specs, flags)
        per_subgroup.append({
            "K": [list(e) for e in K.sorted_elements], "K_perp": [list(e) for e in perp.sorted_elements],
            "action": "translations+flip" if flip else "translations", **counts, "n_coideal": sum(flags),
            "burnside_ok": counts["burnside_count"] == counts["n_classes"],
            "orbits": [{"rep": s.reps(), "size": n, "coideal_flag": f}
                       for s, n, f in zip(specs, orbits["size"].tolist(), flags)]})
    return {"group": list(group.factors), "kind": "weak-coideals", "total_classes": len(classes),
            "per_subgroup": per_subgroup, "total_coideal_classes": sum(f for _, f in classes)}, classes


def g_algebra_classes(group: FiniteAbelianGroup, chi, max_mult: int = 2) -> dict:
    """``classify.g_algebra_classes`` by partitioning every subgroup's
    nonzero vectors over both sides under ``_pair_perms``."""
    check_order(group.order, CLASSIFY_ORDER_BOUND, "classification")
    per_subgroup = []
    key, fixed = partial(_vector_key, max_mult=max_mult), partial(_vector_fixed, max_mult=max_mult)
    for K in enumerate_subgroups(group):
        perp, q0, q1, flip = _quotients(group, chi, K)
        n0, n1 = len(q0), len(q1)
        if (max_mult + 1) ** (n0 + n1) > ENUMERATION_BOUND:
            raise SizeError("multiplicity enumeration too large; lower max_mult")
        types = {}
        if flip:
            orbits, counts = _pair_classes(_vectors(n0, max_mult)[1:], q0.trans, key, fixed)
            types["self-paired"] = {**counts, "orbits": orbits["row"].tolist()}
        orbits, counts = _pair_classes(_vectors(n0 + n1, max_mult)[1:], _pair_perms(q0, q1, flip), key, fixed)
        types["decomposed"] = {**counts, "orbits": [[r[:n0], r[n0:]] for r in orbits["row"].tolist()]}
        per_subgroup.append({"K": [list(e) for e in K.sorted_elements],
                             "K_perp": [list(e) for e in perp.sorted_elements],
                             "flip_action": flip, "types": types})
    total = sum(t["n_classes"] for e in per_subgroup for t in e["types"].values())
    return {"group": list(group.factors), "kind": "g-algebras", "total_classes": total, "per_subgroup": per_subgroup}
