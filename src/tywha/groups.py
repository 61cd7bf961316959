"""Finite abelian groups, their subgroup lattice, quotients, and bicharacters.

Groups are presented as products of cyclic factors ``Z_{n_1} x ... x Z_{n_k}``;
elements are tuples of canonical residues, the identity is the zero tuple.
Bicharacters are stored as rational phase matrices: ``chi(g, h) =
exp(2*pi*i * sum_ij g_i h_j M_ij)`` with ``M`` symmetric mod 1.

Set computations (subgroups, cosets, annihilators) run on integer index
tables built lazily once per group: element ``i`` is ``elements()[i]`` and
``add_table[i, j]`` is the index of their sum.  A subgroup is the sorted
array of its element indices, a quotient its coset label per element, and
the subgroup lattice is grown a level at a time on boolean member rows;
element tuples are built only when a caller asks for them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
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

    @cached_property
    def neg(self) -> np.ndarray:
        """``neg[i]`` is the index of minus element i."""
        return np.ravel_multi_index(np.moveaxis(-self.coords % self.factors, -1, 0), self.factors)

    @cached_property
    def _shift(self) -> np.ndarray:
        """Row g holds the index of j - g at j: a member row of S gathered there is that of S + g."""
        return self.add_table[:, self.neg].T

    def __str__(self) -> str:
        return "Z" + "xZ".join(str(n) for n in self.factors)


# Frontier rows are grown this many member-table entries at a time, which
# bounds the memory of one lattice level whatever its width.
LEVEL_BLOCK_ELEMS = 1 << 16


def _with_multiples(group: FiniteAbelianGroup, rows: np.ndarray, gens: np.ndarray) -> np.ndarray:
    """Member rows of S + <g> for member rows S of subgroups and element
    indices g: the union of the translates S + m*g, whose range of m doubles
    each step up to the exponent of the group."""
    add, shift = group.add_table, group._shift
    for _ in range((lcm(*group.factors) - 1).bit_length()):
        rows = rows | np.take_along_axis(rows, shift[gens], axis=1)
        gens = add[gens, gens]
    return rows


class Subgroup:
    """A subgroup held as the sorted indices ``idx`` of its elements; the
    element tuples are built from them when first asked for.  Every
    construction checks that the set holds 0 and is closed under addition.
    Subgroups are equal when their groups and element sets are."""

    def __init__(self, group: FiniteAbelianGroup, elements):
        self._set_idx(group, [group.index(a) for a in elements])

    @classmethod
    def from_indices(cls, group: FiniteAbelianGroup, idx) -> "Subgroup":
        sub = cls.__new__(cls)
        sub._set_idx(group, idx)
        return sub

    def _set_idx(self, group: FiniteAbelianGroup, idx) -> None:
        member = np.zeros(group.order, dtype=bool)
        member[idx] = True
        self.group, self.idx = group, np.flatnonzero(member)
        if not member[0]:
            raise InvariantError("subgroup must contain the identity")
        # a finite set with 0 that is closed under addition is a subgroup
        if not member[group.add_table[self.idx[:, None], self.idx]].all():
            raise InvariantError(f"{list(self.sorted_elements)} is not closed under addition")

    @classmethod
    def generated(cls, group: FiniteAbelianGroup, gens) -> "Subgroup":
        rows = np.eye(1, group.order, dtype=bool)
        for g in gens:
            rows = _with_multiples(group, rows, np.array([group.index(group.reduce(g))]))
        return cls.from_indices(group, np.flatnonzero(rows[0]))

    @property
    def order(self) -> int:
        return len(self.idx)

    @cached_property
    def sorted_elements(self) -> tuple[GroupElt, ...]:
        return tuple(self.group._elements[i] for i in self.idx.tolist())

    def __eq__(self, other) -> bool:
        return isinstance(other, Subgroup) and self.group == other.group and np.array_equal(self.idx, other.idx)

    def __hash__(self) -> int:
        return hash((self.group, self.idx.tobytes()))

    def __repr__(self) -> str:
        return f"Subgroup(group={self.group!r}, elements={self.sorted_elements!r})"

    def __str__(self) -> str:
        return "{" + ",".join(str(e) for e in self.sorted_elements) + "}"


def enumerate_subgroups(group: FiniteAbelianGroup) -> list[Subgroup]:
    """All subgroups, in canonical (order, sorted elements) order.

    Grown a level at a time from the trivial subgroup: each S of the
    frontier is extended to S + <g> for every g that is the least element of
    its coset (g's in one coset give the same S + <g>), and the subgroups
    not found before, told apart by their member keys, are the next
    frontier.
    """
    check_order(group.order, SUBGROUP_ENUM_BOUND, "subgroup enumeration")
    n, shift = group.order, group._shift
    # a member row's 64-bit key has element 0 as its top bit: among sets of
    # one size, a larger key is a smaller sorted tuple
    weights = np.uint64(1) << (np.uint64(63) - np.arange(n, dtype=np.uint64))
    found = frontier = np.eye(1, n, dtype=bool)
    step = max(1, LEVEL_BLOCK_ELEMS // (n * n))
    while len(frontier):
        grown = [found]
        for rows in (frontier[lo:lo + step] for lo in range(0, len(frontier), step)):
            # (S, g) with g outside S and the least element of S + g
            r, g = np.nonzero((rows[:, shift].argmax(axis=2) == np.arange(n)) & ~rows)
            grown.append(_with_multiples(group, rows[r], g))
        rows = np.concatenate(grown)
        first = np.unique(rows @ weights, return_index=True)[1]
        frontier = rows[first[first >= len(found)]]  # the distinct rows not found before
        found = np.concatenate([found, frontier])
    found = found[np.lexsort((~(found @ weights), found.sum(axis=1)))]
    return [Subgroup.from_indices(group, np.flatnonzero(row)) for row in found]


class QuotientGroup:
    """The quotient G/K with its translation action.

    A coset is its number: cosets are numbered in the order of their least
    elements ``reps``, which name them where a report prints them.
    ``label[i]`` is the number of element i's coset, and ``trans[t, c]``
    that of coset t plus coset c.
    """

    def __init__(self, group: FiniteAbelianGroup, subgroup: Subgroup):
        if subgroup.group != group:
            raise InvariantError("subgroup belongs to a different group")
        add = group.add_table
        least = add[:, subgroup.idx].min(axis=1)
        reps = np.flatnonzero(least == np.arange(group.order))
        if len(reps) * subgroup.order != group.order:
            raise InvariantError("cosets do not partition the group")
        self.group, self.subgroup, self.label = group, subgroup, np.searchsorted(reps, least)
        self.reps = tuple(group._elements[i] for i in reps.tolist())
        self.trans = self.label[add[reps[:, None], reps]]

    def __len__(self) -> int:
        return len(self.reps)

    def coset_of(self, a: GroupElt) -> int:
        """The number of a's coset."""
        return int(self.label[self.group.index(a)])


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
    """Symmetric nondegenerate bicharacter as a rational phase matrix mod 1.

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
        # nondegenerate: only 0 pairs trivially with everything (row 0 is the identity)
        if (self.phase_table[1:] == 0).all(axis=1).any():
            raise InvariantError("bicharacter degenerate")

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

    def to_json(self) -> dict:
        return {"matrix": [[str(x) for x in row] for row in self.matrix]}


def orthogonal(chi: Bicharacter, subgroup: Subgroup) -> Subgroup:
    """The annihilator {g : chi(k, g) = 1 for all k in K}."""
    group = chi.group
    perp = np.flatnonzero((chi.phase_table[subgroup.idx] == 0).all(axis=0))
    result = Subgroup.from_indices(group, perp)
    if subgroup.order * result.order != group.order:
        raise StructuralError(
            f"|K|*|Kperp| = {subgroup.order}*{result.order} != |G| = {group.order}"
        )
    return result
