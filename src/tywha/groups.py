"""Finite abelian groups, their subgroup lattice, quotients, and bicharacters.

Groups are presented as products of cyclic factors ``Z_{n_1} x ... x Z_{n_k}``;
elements are tuples of canonical residues, the identity is the zero tuple.
Bicharacters are stored as rational phase matrices: ``chi(g, h) =
exp(2*pi*i * sum_ij g_i h_j M_ij)`` with ``M`` symmetric mod 1.

Set computations (subgroups, cosets, annihilators) run on integer index
tables built lazily once per group: element ``i`` is ``elements()[i]`` and
``add_table[i, j]`` is the index of their sum.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import product
from math import lcm, prod

import numpy as np

from .errors import InvariantError, StructuralError, check_order

GroupElt = tuple[int, ...]

SUBGROUP_ENUM_BOUND = 64


@dataclass(frozen=True)
class FiniteAbelianGroup:
    """Product of cyclic groups given by the tuple of factor orders."""

    factors: tuple[int, ...]

    def __post_init__(self):
        if not self.factors or any(n < 1 for n in self.factors):
            raise InvariantError(f"cyclic factors must all be >= 1, got {self.factors}")

    @classmethod
    def from_spec(cls, text: str) -> "FiniteAbelianGroup":
        """Parse a group spec string like ``"2,4"``."""
        try:
            factors = tuple(int(part) for part in text.split(","))
        except ValueError as exc:
            raise InvariantError(f"bad group spec {text!r}") from exc
        return cls(factors)

    @property
    def order(self) -> int:
        return prod(self.factors)

    @property
    def rank(self) -> int:
        return len(self.factors)

    def zero(self) -> GroupElt:
        return (0,) * len(self.factors)

    def reduce(self, coords) -> GroupElt:
        if len(coords) != len(self.factors):
            raise InvariantError(f"element {coords!r} has wrong rank for {self}")
        return tuple(int(c) % n for c, n in zip(coords, self.factors))

    def add(self, a: GroupElt, b: GroupElt) -> GroupElt:
        return tuple((x + y) % n for x, y, n in zip(a, b, self.factors))

    def neg(self, a: GroupElt) -> GroupElt:
        return tuple((-x) % n for x, n in zip(a, self.factors))

    def sub(self, a: GroupElt, b: GroupElt) -> GroupElt:
        return tuple((x - y) % n for x, y, n in zip(a, b, self.factors))

    def elements(self) -> list[GroupElt]:
        """All elements in lexicographic order, which is index order."""
        return list(self._elements)

    @cached_property
    def _elements(self) -> tuple[GroupElt, ...]:
        return tuple(product(*(range(n) for n in self.factors)))

    @cached_property
    def _index(self) -> dict[GroupElt, int]:
        return {a: i for i, a in enumerate(self._elements)}

    def index(self, a: GroupElt) -> int:
        """Position of ``a`` in ``elements()``."""
        try:
            return self._index[a]
        except (KeyError, TypeError):
            raise InvariantError(f"{a} is not a canonical element of {self}") from None

    @cached_property
    def coords(self) -> np.ndarray:
        """The elements as rows of residues, in index order."""
        return np.array(self._elements, dtype=np.int64).reshape(self.order, self.rank)

    @cached_property
    def add_table(self) -> np.ndarray:
        """``add_table[i, j]`` is the index of element i plus element j."""
        sums = (self.coords[:, None, :] + self.coords[None, :, :]) % self.factors
        return np.ravel_multi_index(np.moveaxis(sums, -1, 0), self.factors)

    def __contains__(self, a) -> bool:
        return (
            isinstance(a, tuple)
            and len(a) == len(self.factors)
            and all(0 <= x < n for x, n in zip(a, self.factors))
        )

    def __str__(self) -> str:
        return "Z" + "xZ".join(str(n) for n in self.factors)


def _extend(group: FiniteAbelianGroup, sub: np.ndarray, g: int) -> np.ndarray:
    """Sorted indices of S + <g>: the translates of S by 0, g, 2g, ... up to
    the first multiple of g inside S, which are pairwise disjoint."""
    add, steps, x = group.add_table, [0], g
    while x not in sub:
        steps.append(x)
        x = add[x, g]
    return np.sort(add[np.ix_(steps, sub)], axis=None)


@dataclass(frozen=True)
class Subgroup:
    """A subgroup held as its full (frozen) element set, with the sorted
    indices of its elements in ``idx``."""

    group: FiniteAbelianGroup
    elements: frozenset[GroupElt]
    idx: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        group = self.group
        idx = np.array(sorted(group.index(a) for a in self.elements), dtype=np.int64)
        if group.zero() not in self.elements:
            raise InvariantError("subgroup must contain the identity")
        # a finite set with 0 that is closed under addition is a subgroup
        if not np.isin(group.add_table[np.ix_(idx, idx)], idx).all():
            raise InvariantError(f"{sorted(self.elements)} is not closed under addition")
        object.__setattr__(self, "idx", idx)

    @classmethod
    def from_indices(cls, group: FiniteAbelianGroup, idx) -> "Subgroup":
        return cls(group, frozenset(group._elements[i] for i in idx))

    @classmethod
    def generated(cls, group: FiniteAbelianGroup, gens) -> "Subgroup":
        sub = np.zeros(1, dtype=np.int64)
        for g in gens:
            sub = _extend(group, sub, group.index(group.reduce(g)))
        return cls.from_indices(group, sub.tolist())

    @classmethod
    def trivial(cls, group: FiniteAbelianGroup) -> "Subgroup":
        return cls(group, frozenset([group.zero()]))

    @classmethod
    def full(cls, group: FiniteAbelianGroup) -> "Subgroup":
        return cls(group, frozenset(group.elements()))

    @property
    def order(self) -> int:
        return len(self.elements)

    @cached_property
    def sorted_elements(self) -> tuple[GroupElt, ...]:
        return tuple(self.group._elements[i] for i in self.idx.tolist())

    def __contains__(self, a: GroupElt) -> bool:
        return a in self.elements

    def __str__(self) -> str:
        return "{" + ",".join(str(e) for e in self.sorted_elements) + "}"


def enumerate_subgroups(group: FiniteAbelianGroup) -> list[Subgroup]:
    """All subgroups, in canonical (order, sorted elements) order.

    Grown breadth first from the trivial subgroup: each S is extended to
    S + <g> for one g per nontrivial coset of S, since g's in one coset
    give the same S + <g>.
    """
    check_order(group.order, SUBGROUP_ENUM_BOUND, "subgroup enumeration")
    add = group.add_table
    frontier = [np.zeros(1, dtype=np.int64)]
    found = {frontier[0].tobytes(): frontier[0]}
    while frontier:
        nxt = []
        for sub in frontier:
            covered = np.zeros(group.order, dtype=bool)
            covered[sub] = True
            for g in range(group.order):
                if not covered[g]:
                    covered[add[g, sub]] = True
                    bigger = _extend(group, sub, g)
                    if found.setdefault(bigger.tobytes(), bigger) is bigger:
                        nxt.append(bigger)
        frontier = nxt
    # element order is index order, so this is the (order, sorted elements) order
    ordered = sorted((idx.tolist() for idx in found.values()), key=lambda idx: (len(idx), idx))
    return [Subgroup.from_indices(group, idx) for idx in ordered]


@dataclass(frozen=True)
class Coset:
    """A coset of a subgroup, canonically represented by its smallest element."""

    subgroup: Subgroup
    elements: frozenset[GroupElt]
    rep: GroupElt = field(compare=False)

    def __len__(self) -> int:
        return len(self.elements)

    def __str__(self) -> str:
        return f"{self.rep}+K"


@dataclass(frozen=True)
class QuotientGroup:
    """The quotient G/K with its translation action.

    ``label[i]`` is the position in ``cosets`` of element i's coset, and
    ``trans[t, c]`` is the position of coset t plus coset c.
    """

    group: FiniteAbelianGroup
    subgroup: Subgroup
    cosets: tuple[Coset, ...] = field(init=False)
    label: np.ndarray = field(init=False, repr=False, compare=False)
    trans: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        g, k = self.group, self.subgroup
        if k.group != g:
            raise InvariantError("subgroup belongs to a different group")
        add, elems = g.add_table, g._elements
        label = np.full(g.order, -1, dtype=np.int64)
        reps = []
        # scanning in index order makes each coset's first element its smallest
        for a in range(g.order):
            if label[a] < 0:
                label[add[a, k.idx]] = len(reps)
                reps.append(a)
        if len(reps) * k.order != g.order:
            raise InvariantError("cosets do not partition the group")
        members = add[np.ix_(reps, k.idx)].tolist()
        cosets = tuple(
            Coset(k, frozenset(elems[i] for i in m), elems[r]) for r, m in zip(reps, members)
        )
        object.__setattr__(self, "cosets", cosets)
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "trans", label[add[np.ix_(reps, reps)]])

    def __len__(self) -> int:
        return len(self.cosets)

    def coset_of(self, a: GroupElt) -> Coset:
        return self.cosets[self.label[self.group.index(a)]]

    def translate(self, a: GroupElt, coset: Coset) -> Coset:
        return self.coset_of(self.group.add(a, coset.rep))


def quotient(group: FiniteAbelianGroup, subgroup: Subgroup) -> QuotientGroup:
    return QuotientGroup(group, subgroup)


def _parse_fraction(entry) -> Fraction:
    if isinstance(entry, (str, int)) and not isinstance(entry, bool):
        try:
            return Fraction(entry)
        except (ValueError, ZeroDivisionError):
            pass
    raise InvariantError(f"bicharacter matrix entries must be rationals, got {entry!r}")


@dataclass(frozen=True)
class Bicharacter:
    """Symmetric bicharacter as a rational phase matrix mod 1.

    ``phase(g, h)`` returns the rational t with chi(g, h) = exp(2*pi*i*t);
    all values have unit modulus by construction.  ``phase_table[i, j]`` is
    that phase for elements i and j times ``denominator``, the common
    denominator of the matrix entries.
    """

    group: FiniteAbelianGroup
    matrix: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        k = self.group.rank
        m = self.matrix
        if len(m) != k or any(len(row) != k for row in m):
            raise InvariantError(f"phase matrix must be {k}x{k}")
        norm = tuple(tuple(Fraction(x) % 1 for x in row) for row in m)
        object.__setattr__(self, "matrix", norm)
        for i in range(k):
            for j in range(k):
                if norm[i][j] != norm[j][i]:
                    raise InvariantError("phase matrix must be symmetric mod 1")
                if (self.group.factors[i] * norm[i][j]) % 1 != 0:
                    raise InvariantError(
                        f"entry M[{i}][{j}] = {norm[i][j]} is not defined mod Z_{self.group.factors[i]}"
                    )

    @classmethod
    def standard(cls, group: FiniteAbelianGroup) -> "Bicharacter":
        """The diagonal bicharacter exp(2*pi*i * sum_i g_i h_i / n_i)."""
        k = group.rank
        rows = tuple(
            tuple(Fraction(1, group.factors[i]) if i == j else Fraction(0) for j in range(k))
            for i in range(k)
        )
        return cls(group, rows)

    @classmethod
    def from_json(cls, group: FiniteAbelianGroup, data) -> "Bicharacter":
        if isinstance(data, str):
            data = json.loads(data)
        rows = data.get("matrix") if isinstance(data, dict) else None
        if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
            raise InvariantError('bicharacter JSON must be {"matrix": [[...], ...]}')
        return cls(group, tuple(tuple(_parse_fraction(x) for x in row) for row in rows))

    @cached_property
    def denominator(self) -> int:
        return lcm(*(x.denominator for row in self.matrix for x in row))

    @cached_property
    def phase_table(self) -> np.ndarray:
        d, coords = self.denominator, self.group.coords
        scaled = np.array([[int(x * d) for x in row] for row in self.matrix], dtype=np.int64)
        return (coords @ scaled @ coords.T) % d

    def phase(self, g: GroupElt, h: GroupElt) -> Fraction:
        """Rational phase t of chi(g, h) = exp(2*pi*i*t), reduced mod 1."""
        i, j = self.group.index(g), self.group.index(h)
        return Fraction(int(self.phase_table[i, j]), self.denominator)

    @cached_property
    def _nondegenerate(self) -> bool:
        return not (self.phase_table[1:] == 0).all(axis=1).any()  # row 0 is the identity

    def is_nondegenerate(self) -> bool:
        """True iff the only g pairing trivially with everything is 0."""
        return self._nondegenerate

    def to_json(self) -> dict:
        return {"matrix": [[str(x) for x in row] for row in self.matrix]}


def orthogonal(chi: Bicharacter, subgroup: Subgroup) -> Subgroup:
    """The annihilator {g : chi(k, g) = 1 for all k in K}."""
    if not chi.is_nondegenerate():
        raise InvariantError("bicharacter is degenerate")
    group = chi.group
    perp = np.flatnonzero((chi.phase_table[subgroup.idx] == 0).all(axis=0))
    result = Subgroup.from_indices(group, perp.tolist())
    if subgroup.order * result.order != group.order:
        raise StructuralError(
            f"|K|*|Kperp| = {subgroup.order}*{result.order} != |G| = {group.order}"
        )
    return result
