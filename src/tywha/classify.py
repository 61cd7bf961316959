"""Orbit enumeration of isomorphism classes.

Weak-coideal classes are indexed by a subgroup K together with a pair of
coset subsets (Z0, Z1) in G/K x G/Kperp (at most one side larger than a
singleton), taken up to translations, and additionally up to the swap of
the two sides when K equals its own annihilator.  Algebra classes replace
subsets by nonnegative multiplicity vectors.  Points are integer rows over
the cosets of one side (over both, G/K then G/Kperp, only in the
cross-checks), and each action element is a coordinate permutation: the
image of ``row`` under ``perm`` is ``row[perm]``.

Classes are products of side orbits.  The action is T0 x T1, T_i moving
only side i, plus the swap when K = Kperp.  So orbit(Z0, Z1) = O0(Z0) x
O1(Z1), and validity depends only on the sides' weights (subset sizes, or
sums of multiplicities), which are orbit invariants.  Both keys are
lexicographic in (side 0, side 1), so a product's least key is the pair of
its sides' least keys.  Under the swap a class is an unordered pair {A, B}
of side orbits: its representative is (lesser, greater) by least key, and
its size 2|A||B|, or |A|^2 when A = B.  A class is held as its two side
orbits' indices.  A catalog call partitions each distinct quotient table's
points once and checks each distinct pair action once: the Burnside
average of fixed-point counts, taken from each permutation's cycle
structure, against the class count, the identity's count and the class
sizes against the points counted from the sides, and the
coideal-containing classes against their direct construction.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from itertools import groupby
from typing import Iterator, Sequence

import numpy as np

from .algebra import TYAlgebra
from .coideals import CoidealSpec, WeakCoideal, _builder, _build, _Families, _verified
from .errors import InvariantError, SizeError, StructuralError, check_order
from .groups import (
    Bicharacter, FiniteAbelianGroup, QuotientGroup, Subgroup, enumerate_subgroups, orthogonal,
    quotient,
)

CLASSIFY_ORDER_BOUND = 16
ENUMERATION_BOUND = 2_000_000
# Images are keyed at most this many coordinates at a time, which bounds the
# memory of the orbit engine whatever the number of points.
BLOCK_ELEMS = 1 << 20
# --realize checks its representatives in batches that hold this many fiber
# row pairs, sum r^2, or fewer before their last: it bounds a batch's memory.
BATCH_PAIRS = 1 << 15
# --realize builds at most this many classes in one array pass: it bounds a
# build's memory (at order 16, at most a few hundred fiber rows a class).
BUILD_CLASSES = 1 << 8


# -- orbit engine -----------------------------------------------------------------


def _images(rows: np.ndarray, perms: np.ndarray, key) -> np.ndarray:
    """Keys of every image: entry [p, h] is ``key(rows[p][perms[h]])``."""
    return key(rows[:, perms].reshape(-1, perms.shape[1])).reshape(len(rows), len(perms))


def orbit_partition(points: np.ndarray, perms: np.ndarray, key) -> np.ndarray:
    """Orbits of distinct integer point rows under a group of coordinate
    permutations, as records (representative ``row``, orbit ``size``) in key order.

    ``key`` maps rows injectively and in the order wanted for representatives
    into ``range(ENUMERATION_BOUND)``; each representative is its orbit's
    point of smallest key.  Raises ``StructuralError`` if the permutations
    are not a group (distinct rows closed under composition) or an image
    leaves the point set."""
    p, m = perms.shape
    rows = np.concatenate([perms, perms[:, perms].reshape(-1, m)])
    keys, which = np.unique(rows.view(np.dtype((np.void, rows.itemsize * m))).ravel(), return_inverse=True)
    # distinct and closed under composition: the rows of perms hit every key once
    if (np.bincount(which[:p], minlength=len(keys)) != 1).any():
        raise StructuralError("action elements are not a group of permutations")
    step = max(1, BLOCK_ELEMS // perms.size)
    own = np.concatenate([key(points[lo:lo + step]) for lo in range(0, len(points), step)])
    if own.min() < 0 or own.max() >= ENUMERATION_BOUND:
        raise SizeError("point keys exceed the enumeration bound")
    # where[k] is the position of the point with key k, or -1; the last slot
    # stays -1 and takes every key beyond the largest point key
    where = np.full(int(own.max()) + 2, -1, dtype=np.int64)
    where[own] = np.arange(len(points))
    if not (where[own] == np.arange(len(points))).all():
        raise StructuralError("points are not distinct")
    codes = np.empty(len(points), dtype=np.int64)
    for lo in range(0, len(points), step):
        images = _images(points[lo:lo + step], perms, key)
        if (where[np.minimum(images, len(where) - 1)] < 0).any():
            raise StructuralError("action does not preserve the point set")
        codes[lo:lo + step] = images.min(axis=1)
    reps, sizes = np.unique(codes, return_counts=True)
    out = np.empty(len(reps), dtype=[("row", points.dtype, (m,)), ("size", np.int64)])
    out["row"], out["size"] = points[where[reps]], sizes
    return out


def _cycle_roots(perms: np.ndarray) -> np.ndarray:
    """Whether each point is the least of its cycle, for every row of a
    stack of permutations (k, m).  Pointer doubling labels each point with
    the least of its cycle: each of ceil(log2 m) steps takes the smaller of a
    point's label and its image's, then squares the map."""
    m = perms.shape[1]
    label, image = np.broadcast_to(np.arange(m), perms.shape), perms
    for _ in range((m - 1).bit_length()):
        label = np.minimum(label, np.take_along_axis(label, image, axis=1))
        image = np.take_along_axis(image, image, axis=1)
    return label == np.arange(m)


def burnside_check(perms: np.ndarray, fixed, n_points: int, n_orbits: int) -> int:
    """Orbit count by the Burnside average over the action elements, where
    ``fixed(perms, roots)`` counts the points each permutation of a stack
    fixes from its cycle structure alone; ``roots`` marks the least point of
    every cycle.  The identity's count must equal the number of points
    enumerated and the average the number of orbits found; a mismatch
    means the enumeration, the action or the partition is broken."""
    stack = np.vstack([np.arange(perms.shape[1]), perms])  # the identity first
    counts = fixed(stack, _cycle_roots(stack))
    if counts[0] != n_points:
        raise StructuralError(f"Polya count {counts[0]} does not match {n_points} enumerated points")
    avg = Fraction(int(counts[1:].sum()), len(perms))
    if avg != n_orbits:
        raise StructuralError(f"Burnside average {avg} does not match {n_orbits} enumerated orbits")
    return n_orbits


def _weights(orbits: np.ndarray) -> np.ndarray:
    return orbits["row"].sum(axis=1, dtype=np.int64)


def _counted(orbits0: np.ndarray, orbits1: np.ndarray, which) -> int:
    """Pairs of points with ``which(w0, w1)`` of their sides' weights,
    counted from the sizes of the side orbits."""
    pairs = orbits0["size"][:, None] * orbits1["size"]
    return int(pairs[which(_weights(orbits0)[:, None], _weights(orbits1))].sum())


def _product(orbits0: np.ndarray, orbits1: np.ndarray, flip: bool, valid) -> tuple:
    """Classes of the pairs with ``valid(w0, w1)`` of their sides' weights,
    as arrays (i, j, sizes) in key order: class c is the product of side
    orbits i[c] and j[c] and holds sizes[c] points.  Each pair of side
    orbits is a class, or with ``flip`` each unordered pair (see the module
    docstring)."""
    i, j = np.divmod(np.arange(len(orbits0) * len(orbits1)), len(orbits1))
    keep = valid(_weights(orbits0)[i], _weights(orbits1)[j]) & ((i <= j) | (not flip))
    i, j = i[keep], j[keep]
    return i, j, orbits0["size"][i] * orbits1["size"][j] * np.where(flip & (i != j), 2, 1)


def _checked(perms: np.ndarray, fixed, n_points: int, sizes: np.ndarray) -> dict:
    """Counts of classes of the given sizes, cross-checked by Burnside on
    the pair action; the sizes must add up to the points counted too."""
    count = burnside_check(perms, fixed, n_points, len(sizes))
    if sizes.sum() != n_points:
        raise StructuralError(f"class sizes add up to {sizes.sum()}, not {n_points} points")
    return {"n_points": n_points, "n_classes": len(sizes), "burnside_count": count}


# -- weak-coideal classes (coset subset pairs) -----------------------------------


def _pair_perms(q0: QuotientGroup, q1: QuotientGroup, flip: bool) -> np.ndarray:
    """Action elements on rows over G/K followed by G/Kperp: translate each
    side by a coset, then, with ``flip``, swap the sides (which arises only
    when the two quotients coincide)."""
    side0 = np.repeat(q0.trans, len(q1), axis=0)
    side1 = np.tile(q1.trans + len(q0), (len(q0), 1))
    perms = [np.concatenate([side0, side1], axis=1)]
    if flip:
        perms.append(np.concatenate([side1, side0], axis=1))
    return np.concatenate(perms)


def _subsets(n: int) -> np.ndarray:
    """Indicator rows of all subsets of n coordinates."""
    return (np.arange(2**n)[:, None] >> np.arange(n) & 1).astype(np.uint8)


def _subset_rank(rows: np.ndarray) -> np.ndarray:
    """Pre-order rank of each indicator row in the subset tree, which orders
    subsets as their sorted member tuples: |S| + sum of 2^(n-1-j) over the
    non-members j below max S."""
    n = rows.shape[1]
    size = rows.sum(axis=1, dtype=np.int64)
    last = n - 1 - np.argmax(rows[:, ::-1], axis=1)
    below = (np.arange(n) < last[:, None]) & (size > 0)[:, None]
    weights = np.int64(1) << np.arange(n - 1, -1, -1, dtype=np.int64)
    return size + ((rows == 0) & below).astype(np.int64) @ weights


def _pair_key(rows: np.ndarray, n0: int) -> np.ndarray:
    """Order-preserving key of (Z0, Z1) in the order of their sorted tuples."""
    return (_subset_rank(rows[:, :n0]) << (rows.shape[1] - n0)) + _subset_rank(rows[:, n0:])


def _pair_fixed(perms: np.ndarray, roots: np.ndarray, n0: int) -> np.ndarray:
    """Pairs (Z0, Z1) fixed by each action element: Z0 and Z1 are unions of
    cycles, not both empty and not both beyond a singleton.  With the swap,
    Z1 is determined by Z0, so Z0 is a singleton fixed by perm twice."""
    # cycles and fixed points on each side
    (c0, c1), (f0, f1) = ((x[:, :n0].sum(axis=1), x[:, n0:].sum(axis=1))
                          for x in (roots, perms == np.arange(perms.shape[1])))
    twice = (np.take_along_axis(perms, perms[:, :n0], axis=1) == np.arange(n0)).sum(axis=1)
    return np.where(perms[:, 0] >= n0, twice, 2 ** (c0 + c1) - 1 - (2**c0 - 1 - f0) * (2**c1 - 1 - f1))


def _valid_pair(s0, s1):
    """Whether sides of sizes s0 and s1 form a class's pair: not both empty,
    not both beyond a singleton."""
    return (s0 + s1 > 0) & ((s0 <= 1) | (s1 <= 1))


def _coideal_flags(s0, s1, n0: int, n1: int):
    """Whether the class of (Z0, Z1) of sizes s0 and s1 contains a coideal:
    a lone singleton, or a full side paired with a singleton on the other
    side."""
    return ((s0 == 1) & ((s1 == 0) | (s1 == n1))) | ((s1 == 1) & ((s0 == 0) | (s0 == n0)))


def _members(rows: np.ndarray) -> list[tuple[int, ...]]:
    """The members of each indicator row, as its coordinates in order."""
    r, c = np.nonzero(rows)
    ends, c = np.cumsum(np.bincount(r, minlength=len(rows))).tolist(), c.tolist()
    return [tuple(c[lo:hi]) for lo, hi in zip([0, *ends], ends)]


def _quotients(group: FiniteAbelianGroup, chi: Bicharacter, K: Subgroup):
    """K's annihilator, G/K, G/Kperp and whether K is its own annihilator."""
    perp = orthogonal(chi, K)
    return perp, quotient(group, K), quotient(group, perp), K == perp


def _by_action(group: FiniteAbelianGroup, chi: Bicharacter, base: int, too_large: str, points, key, classes):
    """Each subgroup K with its annihilator, G/K, G/Kperp, flip and the
    classes of its pair action, ``classes(q0, q1, flip, orbits0, orbits1)``
    of the orbits of each side's ``points(n)`` under its translations.  In
    one call, each distinct translation table's orbits and each distinct
    pair action's classes are computed once.  Raises ``SizeError(too_large)``
    where base^(|G/K| + |G/Kperp|) exceeds the enumeration bound."""
    check_order(group.order, CLASSIFY_ORDER_BOUND, "classification")
    sides, actions = {}, {}
    for K in enumerate_subgroups(group):
        perp, q0, q1, flip = _quotients(group, chi, K)
        if base ** (len(q0) + len(q1)) > ENUMERATION_BOUND:
            raise SizeError(too_large)
        t0, t1 = q0.trans.tobytes(), q1.trans.tobytes()
        if (t0, t1, flip) not in actions:
            for table, q in ((t0, q0), (t1, q1)):
                if table not in sides:
                    sides[table] = orbit_partition(points(len(q)), q.trans, key)
            actions[t0, t1, flip] = classes(q0, q1, flip, sides[t0], sides[t1])
        yield K, perp, q0, q1, flip, actions[t0, t1, flip]


def _weak_action(q0: QuotientGroup, q1: QuotientGroup, flip: bool, orbits0: np.ndarray, orbits1: np.ndarray):
    """The classes of one pair action as their (Z0, Z1), read from the
    members of each side orbit, with their sizes, coideal flags and counts.
    Checked by Burnside on ``_pair_perms``, the flagged sizes against the
    flagged points and the flagged classes against ``coideal_orbits``."""
    (n0, n1), K = (len(q0), len(q1)), q0.subgroup
    (i, j, sizes), perms = _product(orbits0, orbits1, flip, _valid_pair), _pair_perms(q0, q1, flip)
    counts = _checked(perms, partial(_pair_fixed, n0=n0), _counted(orbits0, orbits1, _valid_pair), sizes)
    flags = _coideal_flags(_weights(orbits0)[i], _weights(orbits1)[j], n0, n1)
    # the flag is constant on orbits iff flagged orbits hold every flagged point
    if sizes[flags].sum() != _counted(orbits0, orbits1, partial(_coideal_flags, n0=n0, n1=n1)):
        raise StructuralError("coideal flag is not constant on an orbit")
    members0, members1 = _members(orbits0["row"]), _members(orbits1["row"])
    pairs = [(members0[a], members1[b]) for a, b in zip(i.tolist(), j.tolist())]
    if sorted(pair for pair, flag in zip(pairs, flags) if flag) != coideal_orbits(K, q0, q1, flip, perms):
        raise StructuralError(f"flagged orbits for K={K} disagree with the coideal orbit list")
    return pairs, sizes.tolist(), flags.tolist(), counts


def weak_coideal_classes(group: FiniteAbelianGroup, chi: Bicharacter) -> tuple[dict, list[tuple[CoidealSpec, bool]]]:
    """Enumerate all weak-coideal isomorphism classes, flag the
    coideal-containing ones, and cross-check counts.  Returns the report's
    JSON fields and each class's (datum, coideal flag), in report order.
    A subgroup's classes are the valid products of its two sides' subset
    orbits, formed and checked once per pair action (module docstring)."""
    per_subgroup, classes = [], []
    for K, perp, q0, q1, flip, (pairs, sizes, flags, counts) in _by_action(
            group, chi, 2, "subset enumeration too large", _subsets, _subset_rank, _weak_action):
        specs = [CoidealSpec(q0, q1, z0, z1) for z0, z1 in pairs]
        classes += zip(specs, flags)
        per_subgroup.append({
            "K": [list(e) for e in K.sorted_elements], "K_perp": [list(e) for e in perp.sorted_elements],
            "action": "translations+flip" if flip else "translations", **counts, "n_coideal": sum(flags),
            "burnside_ok": counts["burnside_count"] == counts["n_classes"],
            "orbits": [{"rep": s.reps(), "size": n, "coideal_flag": f}
                       for s, n, f in zip(specs, sizes, flags)]})
    return {"group": list(group.factors), "kind": "weak-coideals", "total_classes": len(classes),
            "per_subgroup": per_subgroup, "total_coideal_classes": sum(f for _, f in classes)}, classes


def coideal_orbits(K: Subgroup, q0: QuotientGroup, q1: QuotientGroup, flip: bool,
                   perms: np.ndarray) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Directly construct the coideal-containing orbits for one subgroup,
    given its quotients, flip and their ``_pair_perms``: four of them in
    general, two when K is its own annihilator.  Returns their
    representatives' sorted (Z0, Z1) pairs."""
    # (lam, {}), ({}, mu), (G/K, mu) and (lam, G/Kperp); lam and mu are the
    # cosets of 0, which come first on each side
    lam, mu = np.eye(1, len(q0), dtype=np.uint8)[0], np.eye(1, len(q1), dtype=np.uint8)[0]
    seeds = np.array([np.r_[lam, 0 * mu], np.r_[0 * lam, mu], np.r_[lam | 1, mu],
                      np.r_[lam, mu | 1]])
    keys = _images(seeds, perms, partial(_pair_key, n0=len(q0)))
    best = seeds[np.arange(len(seeds))[:, None], perms[keys.argmin(axis=1)]]
    seen = sorted(set(zip(_members(best[:, :len(q0)]), _members(best[:, len(q0):]))))
    expected = 2 if flip else 4
    if len(seen) != expected:
        raise StructuralError(f"constructed {len(seen)} coideal orbits for K={K}, not {expected}")
    return seen


# -- algebra classes (multiplicity data) ----------------------------------------


def _vectors(length: int, max_mult: int) -> np.ndarray:
    """All rows in {0..max_mult}^length in key order, the zero row first,
    built a column at a time."""
    base, codes = max_mult + 1, np.arange((max_mult + 1) ** length)
    rows = np.empty((len(codes), length), dtype=np.min_scalar_type(max_mult))
    for c in range(length):
        rows[:, c] = codes // base ** (length - 1 - c) % base
    return rows


def _vector_key(rows: np.ndarray, max_mult: int) -> np.ndarray:
    """Mixed-radix value of each row, which orders rows as tuples."""
    return rows.astype(np.int64) @ (max_mult + 1) ** np.arange(rows.shape[1], dtype=np.int64)[::-1]


def _vector_fixed(perms: np.ndarray, roots: np.ndarray, max_mult: int) -> np.ndarray:
    """Nonzero vectors fixed by each coordinate permutation: constant on cycles."""
    return (max_mult + 1) ** roots.sum(axis=1) - 1


def _nonzero_pair(w0, w1):
    return w0 + w1 > 0


def _algebra_types(q0: QuotientGroup, q1: QuotientGroup, flip: bool, orbits0: np.ndarray, orbits1: np.ndarray,
                   max_mult: int):
    """The class types of one pair action, each checked by Burnside: the
    nonzero side vectors ("self-paired", only with the swap; the zero
    vector's orbit comes first) and the side orbits' products but the zero
    pair ("decomposed").  Returns a function that writes them out afresh for
    each subgroup's record."""
    fixed, nonzero = partial(_vector_fixed, max_mult=max_mult), orbits0[1:]
    paired = _checked(q0.trans, fixed, int(nonzero["size"].sum()), nonzero["size"]) if flip else None
    i, j, sizes = _product(orbits0, orbits1, flip, _nonzero_pair)
    counts = _checked(_pair_perms(q0, q1, flip), fixed, _counted(orbits0, orbits1, _nonzero_pair), sizes)

    def types() -> dict:
        out = {"self-paired": {**paired, "orbits": nonzero["row"].tolist()}} if flip else {}
        sides = orbits0["row"][i].tolist(), orbits1["row"][j].tolist()
        return {**out, "decomposed": {**counts, "orbits": [list(pair) for pair in zip(*sides)]}}
    return types


def g_algebra_classes(
    group: FiniteAbelianGroup, chi: Bicharacter, max_mult: int = 2
) -> dict:
    """Bounded enumeration of algebra isomorphism classes: multiplicity
    vectors up to translations (self-paired type only for K equal to its
    annihilator, plus the swap there), as the report's JSON fields.  A
    subgroup's classes are products of its sides' vector orbits, zero
    included, formed and checked once per pair action (module docstring)."""
    if max_mult < 1:
        raise InvariantError("max_mult must be >= 1")
    points, key = partial(_vectors, max_mult=max_mult), partial(_vector_key, max_mult=max_mult)
    per_subgroup = [{"K": [list(e) for e in K.sorted_elements], "K_perp": [list(e) for e in perp.sorted_elements],
                     "flip_action": flip, "types": types()}
                    for K, perp, _, _, flip, types in _by_action(
                        group, chi, max_mult + 1, "multiplicity enumeration too large; lower max_mult", points, key,
                        partial(_algebra_types, max_mult=max_mult))]
    total = sum(t["n_classes"] for e in per_subgroup for t in e["types"].values())
    return {"group": list(group.factors), "kind": "g-algebras", "total_classes": total, "per_subgroup": per_subgroup}


# -- realization -----------------------------------------------------------------


def _realized(alg: TYAlgebra, classes: Sequence[tuple[CoidealSpec, bool]]) -> Iterator[tuple[list[int], _Families]]:
    """The families that realize the classes, given as (datum, coideal
    flag): ``I_Omega_K`` over K (Z0 side) or its annihilator (Z1 side) for a
    lone singleton, else ``build_from_spec``'s.  Yields, for each run of
    classes over one pair of quotients and each builder and side, the class
    numbers and their families, built in one array pass per BUILD_CLASSES
    classes."""
    for _, run in groupby(enumerate(classes), key=lambda c: (id(c[1][0].q0), id(c[1][0].q1))):
        groups: dict[tuple[str, int], list[int]] = {}
        for c, (spec, _) in run:
            lone = len(spec.z0) + len(spec.z1) == 1
            groups.setdefault(("I_Omega_K", int(not spec.z0)) if lone else _builder(spec), []).append(c)
        for (builder, side), numbers in groups.items():
            for lo in range(0, len(numbers), BUILD_CLASSES):
                chunk = numbers[lo:lo + BUILD_CLASSES]
                yield chunk, _build(alg, builder, side, [classes[c][0] for c in chunk])


def realize_and_verify(alg: TYAlgebra, classes: Sequence[tuple[CoidealSpec, bool]]) -> list[tuple[str, bytes, str]]:
    """Build a concrete representative of each class, given as its (datum,
    coideal flag), run the full coideal verification, and check the coideal
    flag, indecomposability, and the predicted fiber dimensions.  Returns,
    per class, the label of the builder that made it, the subalgebra's
    exact ``WeakCoideal.key``, and the message of the first check it fails,
    in that order, or "".

    The report, the coideal flag and indecomposability depend on the
    subalgebra alone, and a coideal's residuals are those of a batch of one,
    bit for bit.  So only the first class with each key is assessed, and
    every later class with that key takes its verdicts; the flag comparison
    and the dimension check are made per class.  The families are built a
    run at a time (``_realized``), and the distinct subalgebras assessed in
    batches of BATCH_PAIRS fiber row pairs, so the memory held does not grow
    with the classes."""
    realized, keys, verdicts, batch, pairs = [None] * len(classes), {}, {}, [], 0

    def check(queued: list[tuple[bytes, WeakCoideal]]) -> None:
        for (key, _), (report, flag, indecomposable) in zip(queued, _verified([wc for _, wc in queued])):
            verdicts[key] = report.passed, flag, indecomposable

    for numbers, families in _realized(alg, classes):
        for f, (c, key, dims_ok) in enumerate(zip(numbers, families.keys(), families.dims_match().tolist())):
            if key in keys:
                key = keys[key]  # one copy of each key
            else:
                keys[key] = key
                batch.append((key, families[f]))
                pairs += int(families.counts[f]) ** 2
                if pairs >= BATCH_PAIRS:
                    check(batch)
                    batch, pairs = [], 0
            realized[c] = families.labels[f], key, dims_ok
    if batch:
        check(batch)
    out = []
    for (rep, coideal), (label, key, dims_ok) in zip(classes, realized):
        passed, flag, indecomposable = verdicts[key]
        failure = next((text for ok, text in (
            (passed, "realized representative fails verification: {rep}"),
            (flag == coideal, "coideal flag mismatch for {rep}: built {flag}"),
            (indecomposable, "realized representative is decomposable: {rep}"),
            (dims_ok, "fiber dimensions disagree for {rep}")) if not ok), "")
        out.append((label, key, failure.format(rep=rep, flag=flag)))
    return out
