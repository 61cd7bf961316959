"""Scalar references for the structure of B, one term at a time.

The package builds B's structure maps as index arrays and checks them by
joins over those arrays.  The functions here compute the same maps from the
closed-form fiber rules on ``SparseVec``s, and the four axiom rows that
``TYAlgebra.verify_axioms`` once evaluated this way; the tests compare the
arrays and the array rows against them.  Named blocks, slots and basis
units, cosets, the fiber subspaces of a weak coideal and its unit as a
``SparseVec`` are object views of the package's index arrays and coset
numbers, kept here for the tests that read them, with the adapters that take
``SparseVec``s into ``Subspace`` and ``assemble``.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

import numpy as np

from tywha.algebra import _join, _runs, _worst
from tywha.coideals import CoidealSpec
from tywha.errors import InvariantError
from tywha.groups import GroupElt, QuotientGroup, orthogonal, quotient
from tywha.linalg import DEFAULT_TOL, ROUNDOFF, SparseVec, Subspace

SLOT_GRP = 0
SLOT_M = 1
SLOT_BAR = 2


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
            if c.g == G.add(h, a.g):
                return (((BlockLabel.grp(G.add(g, h)), Slot.grp(c.g)), 1.0 + 0j),)
        elif a.kind == SLOT_M and c.kind == SLOT_M:
            # v^g_m . v^h_m = v^{g+h}_m
            return (((BlockLabel.grp(G.add(g, h)), Slot.m()), 1.0 + 0j),)
    elif not x.is_m and y.is_m:
        g = x.g
        if a.kind == SLOT_GRP and c.kind == SLOT_GRP:
            # v^g_k . v^m_k = v^m_{k-g}
            if a.g == c.g:
                return (((BlockLabel.m(), Slot.grp(G.sub(c.g, g))), 1.0 + 0j),)
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
            if c.g == G.add(h, a.g):
                return (((BlockLabel.m(), Slot.bar(c.g)), 1.0 + 0j),)
    else:
        if a.kind == SLOT_GRP and c.kind == SLOT_BAR:
            # v^m_h . v^m_{~k} = v^{k-h}_k
            return (((BlockLabel.grp(G.sub(c.g, a.g)), Slot.grp(c.g)), 1.0 + 0j),)
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
    return out.prune(ROUNDOFF)


def _fiber_map(alg, x: BlockLabel, s: Slot, second_leg: bool) -> tuple[complex, BlockLabel, Slot]:
    """The (coeff, block, slot) image of slot s under the fiber involution
    (``second_leg=False``) or the conjugate-fiber identification used by the
    second tensor leg.  The two differ only in their m-block coefficients."""
    if not x.is_m:
        g = x.g
        target = BlockLabel.grp(alg.group.neg(g))
        if s.kind == SLOT_GRP:
            return 1.0 + 0j, target, Slot.grp(alg.group.sub(s.g, g))
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
    return out.prune(ROUNDOFF)


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
    return SparseVec(out).prune(ROUNDOFF)


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
    return out.prune(ROUNDOFF)


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
    tvecs, svecs = target.basis_vectors(), source.basis_vectors()
    distances = [distance(alg.multiply(t, s), alg.multiply(s, t)) for t in tvecs for s in svecs]
    return _row(alg, distances, len(tvecs) * len(svecs))


def antipode_squared(alg) -> tuple:
    """"antipode squared fixes target subalgebra": S(S(t)) = t."""
    tvecs = alg.counital_subalgebras()[0].basis_vectors()
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
