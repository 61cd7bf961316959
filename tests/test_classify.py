import hashlib
import itertools
import json
import random
import sys
from fractions import Fraction
from functools import partial

import numpy as np
import pytest

from tywha import classify, coideals
from tywha.algebra import TYAlgebra
from tywha.classify import (
    _cycle_roots,
    _images,
    _pair_fixed,
    _pair_key,
    _pair_perms,
    _product,
    _quotients,
    _subset_rank,
    _subsets,
    _vector_fixed,
    _vector_key,
    _vectors,
    burnside_check,
    coideal_orbits,
    g_algebra_classes,
    orbit_partition,
    realize_and_verify,
    weak_coideal_classes,
)
from tywha.cli import main as cli_main
from tywha.coideals import (
    build_from_spec, build_I_m_K, build_I_Omega_K, build_no_m, build_with_m, is_coideal, verify_weak_coideal,
)
from tywha.errors import InvariantError, SizeError, StructuralError
from tywha.groups import (
    Bicharacter,
    FiniteAbelianGroup,
    Subgroup,
    enumerate_subgroups,
    orthogonal,
    quotient,
)

import reference
from reference import _valid_subset_pairs

# sha256 of the --json reports of `classify weak-coideals` and
# `classify g-algebras --max-mult 2` (or PIN_MAX_MULT), with every
# "n_points" key removed and the rest re-serialised with sort_keys=True:
# same representatives, orbit sizes, coideal flags and order.  The pins up
# to order 8 were recorded from the tuple-based orbit code this engine
# replaced; those of orders 9-15 from the side-orbit products whose classes
# were still glued into pair rows.
CATALOG_SHA256 = {
    "1": ("ce83c6bb1d3693f3539662e38aafe1125cd5257a0dfba3dc1098a3da0e0c780d",
          "02900909863712a82a5997bbc115cd008de05a943f60432a72de181424258ab5"),
    "2": ("d93299c5a9aeb5f38502b7db6a56e7d6b37a9a87b0685b3d46176b2812caf05e",
          "c1f4ebed31d6060fd149934572329092e222da8752a6bd6d269b42912feb8a52"),
    "3": ("6faecefa18ed2e9366f5e65b732a8dfd6a52b1a58604eed5cd8be8692c686335",
          "98c26799b586f34b0b1b9f85d84064d430dcec3ebb0e73eed63360afd4f7e657"),
    "4": ("27ca6c67ff8465ab41b19284b3d5038864993aa4e6b90dc10fd540d1e0d386ff",
          "27f29b440fe4ba2447e5c232cb0e253f2b2671eff1777b6bd195309a2e26cd62"),
    "2,2": ("ac07fda6e6f20579ed559aef6e2706922d776b09297cc412418957fc4ab96582",
            "adc0fab3d9b1d8291ec824782574b197ddef72faad7ac471bcc499ec4eb49702"),
    "5": ("8fe08b59c633d7257d650d16a13ae146a2a36994d583181b9339f79917f735c9",
          "7520f2f55e61c3176fa353bccb6a2dd675046112447008e81019e325af977fbb"),
    "6": ("527f4c2bc757089dd384de0422073bc16694045b5fd3473bc91c54e558a5814f",
          "51b510c87dc132ac0e3e27c241134d6b917a14cb7e12821f87908c5cfbf4671f"),
    "7": ("ea70180574dd30460cae154ca663d389a959fd787b1c52c3606b08ccdcfdfb49",
          "2f25832c22fdf33285b604ed49f0b7a24712cbb1b4d5917066e8b08abdd687b2"),
    "8": ("bd2a3adb7dd9361f673538cf20578b23533cac4cfb3d0ff63094981fc9cc54ae",
          "f64b7043dc89d6e22fbf347f2f09275d3e4f167654951fd8c946fbd9140db94a"),
    "2,4": ("d493fe6506a649bd1fd4a1a82a9089cfbbefdf86ab021c27a1c949e2568222e7",
            "28621feb01a0164cabfc6c7c7a8d3c6a8fe5e4e617350705d5970fae561d105c"),
    "2,2,2": ("a28b15f513f7b3941ecc7839b3258f9f9adb5377e9c285c62f0e6d9f1a5f33e4",
              "ef30279401704a726139910de176225029285ca49ec68f79195d1ba6ceff1305"),
    "9": ("5ae1055d7fe65c0dbe405b7da733db90c7524b4e08d661ab379d50e2cdd2b789",
          "d9aea316a422bfe0ff1c12c501542b3800b26ffe7bec3fc7d52ba04e2d2bf777"),
    "3,3": ("8928418cb8a64929e978972b9afe53b63aeea0a1e9ed9f53235a4201dda51173",
            "043572aa6ee76bce239520d622a9f18d1f7a558826228d20de0026eeb4a31b8b"),
    "10": ("45dbf8b9fafde2fccdfff5d2c0d419decf850167572e210836841c01c05c2b8c",
           "cb21ee01320e9490ea7ad63d8a1876de2b1eebea2c94d8203dcfe314322b3599"),
    "11": ("41e3e3bf12d731a9b5e64abba5760311a37eaad5373e51a384b3b61c66b406a4",
           "15db58781d56484d7a9a31a72d8c3466b6349387a5870ab47bac13ffb15ebb4b"),
    "12": ("75d4f1c984ba29e329d3f9c1afaa24496a6a57aaf4edf4111ea63840c5fc0bd4",
           "5a1c468e202c7a09142444e8e7851e65a8213536cc3513bf2b4826b15fcbfdea"),
    "2,6": ("1f6779f58d75f32e2a7313a61feb0fb2f4d6ad249bc1bd3266aac6196a69b3e6",
            "78a67129d5e0e970ebdcdd7c487008ad0451dea4edb593247ddade548b5b2703"),
    "13": ("d83c39daa54efa8a2bd46895b10b964e1c298de899fb59ab95fbbdb6ec382d77",
           "d7470d0ff53395ddff1749657adc60e56d67a604acb23a8f5daf0b3622cd2642"),
    "14": ("832c91f4c14c260081b3e07c7d5790ac2b801ffde7473049cf025fbd837f0a24",
           "54a378f96e8cfd9a6eac356b7ae3bae617e2c3e97d86cab9a359613d727f469b"),
    "15": ("7cc92df2e8b8eca7c879c69beb0ac77a5340c93876735dbca4a52cf755a93f51",
           "ffa35822c4c3558455f7e4847343db5d8d7df78588c2182b645d73bce29ef267"),
}
# max-mult 2 exits 2 from order 13 on and takes seconds at order 12, so
# these groups pin the max-mult 1 report
PIN_MAX_MULT = dict.fromkeys(["12", "2,6", "13", "14", "15"], 1)


@pytest.fixture(scope="module")
def z2_report():
    grp = FiniteAbelianGroup((2,))
    return grp, weak_coideal_classes(grp, Bicharacter.standard(grp))


def by_subgroup(fields, classes):
    """Each per-subgroup entry of a catalog with its classes' (datum,
    coideal flag), in report order."""
    rest = iter(classes)
    return [(entry, list(itertools.islice(rest, entry["n_classes"]))) for entry in fields["per_subgroup"]]


def is_flip(entry) -> bool:
    return entry["action"] == "translations+flip"


def _setup(factors, k_gens):
    """Quotients, flip flag and subset-pair action of one subgroup."""
    grp = FiniteAbelianGroup(factors)
    chi = Bicharacter.standard(grp)
    K = Subgroup.generated(grp, k_gens)
    perp = orthogonal(chi, K)
    q0, q1 = quotient(grp, K), quotient(grp, perp)
    flip = K == perp
    return q0, q1, _pair_perms(q0, q1, flip), partial(_pair_key, n0=len(q0))


def _codes(rows, perms, key):
    return _images(np.asarray(rows), perms, key).min(axis=1)


def _brute_orbits(points, perms) -> set:
    return {frozenset(tuple(row[perm]) for perm in perms) for row in points}


def _stripped_sha256(payload) -> str:
    def strip(x):
        if isinstance(x, dict):
            return {k: strip(v) for k, v in x.items() if k != "n_points"}
        if isinstance(x, list):
            return [strip(v) for v in x]
        return x

    return hashlib.sha256(json.dumps(strip(payload), sort_keys=True).encode()).hexdigest()


def reference_cycles(perm) -> tuple[int, int]:
    """Number of cycles and of fixed points of a permutation row, by walking
    each cycle in Python."""
    perm, seen, cycles = list(perm), set(), 0
    for j in range(len(perm)):
        cycles += j not in seen
        while j not in seen:
            seen.add(j)
            j = perm[j]
    return cycles, sum(i == j for i, j in enumerate(perm))


CATALOG_GROUPS = [(n,) for n in range(1, 17)] + [
    (2, 2), (2, 4), (2, 2, 2), (3, 3), (2, 6), (2, 8), (4, 4), (2, 2, 4), (2, 2, 2, 2)]


class TestCycleRoots:
    def assert_matches_walk(self, perms):
        roots = _cycle_roots(perms)
        cycles, fixed = zip(*map(reference_cycles, perms.tolist()))
        assert roots.sum(axis=1).tolist() == list(cycles)
        assert (perms == np.arange(perms.shape[1])).sum(axis=1).tolist() == list(fixed)
        # the least point of each cycle is its only root
        for perm, row in zip(perms.tolist(), roots):
            for j in np.flatnonzero(row).tolist():
                k, cycle = perm[j], [j]
                while k != j:
                    cycle.append(k)
                    k = perm[k]
                assert min(cycle) == j

    def test_identity_and_single_long_cycle(self):
        m = 64
        rng = np.random.default_rng(3)
        order = rng.permutation(m)
        long = np.empty(m, dtype=np.int64)
        long[order] = np.roll(order, -1)  # one 64-cycle through a shuffled order
        perms = np.stack([np.arange(m), long, np.roll(np.arange(m), 1)])
        self.assert_matches_walk(perms)
        assert _cycle_roots(perms).sum(axis=1).tolist() == [64, 1, 1]

    @pytest.mark.parametrize("m", [1, 2, 3, 5, 8, 17, 33, 64])
    def test_random_permutations(self, m):
        rng = np.random.default_rng(m)
        self.assert_matches_walk(np.stack([rng.permutation(m) for _ in range(50)]))

    def test_every_catalog_stack_up_to_order_16(self):
        # the stacks weak_coideal_classes and g_algebra_classes hand to
        # burnside_check, for every subgroup of every group the catalogs
        # accept (the catalogs check each distinct stack once)
        stacks = 0
        for factors in CATALOG_GROUPS:
            grp = FiniteAbelianGroup(factors)
            chi = Bicharacter.standard(grp)
            for K in enumerate_subgroups(grp):
                _perp, q0, q1, flip = _quotients(grp, chi, K)
                for stack in [_pair_perms(q0, q1, flip)] + [q0.trans] * flip:
                    self.assert_matches_walk(stack)
                    stacks += 1
        assert stacks == 226


class TestBurnside:
    def test_translation_on_subsets(self):
        # Z2 translating the four subsets of a 2-element set: 3 orbits
        points = _subsets(2)
        perms = np.array([[0, 1], [1, 0]])
        orbits = orbit_partition(points, perms, _subset_rank)
        assert len(orbits) == 3
        assert len(_brute_orbits(points, perms)) == 3
        assert burnside_check(perms, lambda p, roots: 2 ** roots.sum(axis=1), len(points), 3) == 3

    def test_trivial_action(self):
        points = np.arange(7)[:, None]
        perms = np.array([[0]])
        orbits = orbit_partition(points, perms, lambda rows: rows[:, 0])
        assert orbits["size"].tolist() == [1] * 7
        assert burnside_check(perms, lambda p, roots: np.full(len(p), 7), 7, len(orbits)) == 7

    def test_two_element_orbit_fully_identified(self):
        points = np.array([[1, 0], [0, 1]])
        perms = np.array([[0, 1], [1, 0]])
        orbits = orbit_partition(points, perms, _subset_rank)
        assert [(tuple(r), s) for r, s in orbits.tolist()] == [((1, 0), 2)]
        # singletons fixed by a permutation are its fixed points
        assert burnside_check(perms, lambda p, roots: (p == np.arange(p.shape[1])).sum(axis=1), 2,
                              len(orbits)) == 1

    def test_non_action_detected(self):
        for perms in (
            [[1, 0]],  # no identity
            [[0, 1], [0, 1]],  # a repeated row
            [[0, 1, 2], [1, 2, 0]],  # not closed: the square of the rotation is missing
            [[0, 1, 2], [1, 0, 2], [0, 2, 1]],  # not closed: no product of the two swaps
        ):
            perms = np.array(perms)
            points = np.eye(perms.shape[1], dtype=np.uint8)
            with pytest.raises(StructuralError, match="not a group"):
                orbit_partition(points, perms, _subset_rank)

    def test_burnside_mismatch_detected(self):
        perms = np.array([[0, 1], [1, 0]])
        with pytest.raises(StructuralError, match="Burnside"):
            burnside_check(perms, lambda p, roots: 2 ** roots.sum(axis=1), 4, 4)


class TestPolyaCounts:
    @pytest.mark.parametrize("factors", [(4,), (2, 2)])
    def test_fixed_counts_match_brute_force(self, factors):
        grp = FiniteAbelianGroup(factors)
        chi = Bicharacter.standard(grp)
        for K in enumerate_subgroups(grp):
            q0, q1 = quotient(grp, K), quotient(grp, orthogonal(chi, K))
            n0 = len(q0)
            flips = (False, True) if len(q0) == len(q1) else (False,)
            for flip in flips:
                perms = _pair_perms(q0, q1, flip)
                pairs = _valid_subset_pairs(q0, q1)
                vectors = _vectors(perms.shape[1], 2)[1:]
                roots = _cycle_roots(perms)
                pair_counts, vector_counts = _pair_fixed(perms, roots, n0), _vector_fixed(perms, roots, 2)
                for perm, pair_count, vector_count in zip(perms, pair_counts, vector_counts):
                    assert pair_count == (pairs[:, perm] == pairs).all(axis=1).sum()
                    assert vector_count == (vectors[:, perm] == vectors).all(axis=1).sum()

    def test_dropped_point_trips_polya_count(self, monkeypatch):
        # a full side is fixed by every translation, so dropping it from the
        # side's subsets leaves the side's partition and the products
        # consistent; only the point count can notice
        grp = FiniteAbelianGroup((4,))
        monkeypatch.setattr(classify, "_subsets", lambda n: _subsets(n)[:-1])
        with pytest.raises(StructuralError, match="Polya count"):
            weak_coideal_classes(grp, Bicharacter.standard(grp))

    def test_dropped_moving_point_detected(self, monkeypatch):
        # the first nonempty subset, a singleton, moves under the translations
        grp = FiniteAbelianGroup((4,))
        monkeypatch.setattr(classify, "_subsets", lambda n: np.delete(_subsets(n), 1, axis=0))
        with pytest.raises(StructuralError):
            weak_coideal_classes(grp, Bicharacter.standard(grp))

    @pytest.mark.parametrize("catalog", [weak_coideal_classes, partial(g_algebra_classes, max_mult=1)])
    def test_dropped_class_trips_burnside_average(self, catalog, monkeypatch):
        # the points are counted from the sides, so only the class count
        # can notice a class the product step loses
        grp = FiniteAbelianGroup((4,))
        monkeypatch.setattr(classify, "_product", lambda *args: tuple(x[1:] for x in _product(*args)))
        with pytest.raises(StructuralError, match="Burnside average"):
            catalog(grp, Bicharacter.standard(grp))

    def test_unswapped_sizes_trip_the_size_count(self, monkeypatch):
        # with the swap, a class {A, B} with A != B holds 2|A||B| points;
        # sizes without the 2 leave the class count, and Burnside, as they are
        def unswapped_sizes(side0, side1, flip, valid):
            i, j, sizes = _product(side0, side1, flip, valid)
            if flip:
                sizes //= np.where(i == j, 1, 2)
            return i, j, sizes

        grp = FiniteAbelianGroup((4,))
        monkeypatch.setattr(classify, "_product", unswapped_sizes)
        with pytest.raises(StructuralError, match="class sizes add up to 9, not 14 points"):
            weak_coideal_classes(grp, Bicharacter.standard(grp))


HYPERBOLIC = ((Fraction(0), Fraction(1, 2)), (Fraction(1, 2), Fraction(0)))
# every group of order at most 8, Z3xZ3, and Z2xZ2 with the hyperbolic
# bicharacter, under which each subgroup of order 2 is its own annihilator
PRODUCT_CASES = [(f, None) for f in CATALOG_GROUPS if np.prod(f) <= 8] + [((3, 3), None), ((2, 2), HYPERBOLIC)]


def _datum(grp, phases):
    return grp, Bicharacter.standard(grp) if phases is None else Bicharacter(grp, phases)


class TestSideProducts:
    """Classes as products of side orbits equal the orbits of the pair
    points, as ``reference`` partitions them."""

    @pytest.mark.parametrize("factors, phases", PRODUCT_CASES,
                             ids=["x".join(map(str, f)) + "-hyperbolic" * (p is not None) for f, p in PRODUCT_CASES])
    def test_catalogs_equal_the_pair_engine(self, factors, phases):
        grp, chi = _datum(FiniteAbelianGroup(factors), phases)
        (fields, classes), (expected, expected_classes) = (
            catalog(grp, chi) for catalog in (weak_coideal_classes, reference.weak_coideal_classes))
        assert fields == expected

        def data(classes):
            return [(s.q0.subgroup, s.q1.subgroup, s.z0, s.z1, flag) for s, flag in classes]

        assert data(classes) == data(expected_classes)
        for max_mult in (1, 2):
            assert g_algebra_classes(grp, chi, max_mult) == reference.g_algebra_classes(grp, chi, max_mult)

    def test_the_cases_include_flip_subgroups(self):
        flips = {}
        for factors, phases in PRODUCT_CASES:
            grp, chi = _datum(FiniteAbelianGroup(factors), phases)
            flips[factors, phases is HYPERBOLIC] = sum(K == orthogonal(chi, K) for K in enumerate_subgroups(grp))
        assert {k: n for k, n in flips.items() if n} == {
            ((1,), False): 1, ((4,), False): 1, ((2, 2), False): 1, ((2, 2), True): 3}

    def test_one_side_pass_per_quotient_table(self, monkeypatch):
        # Z2^3's 16 subgroups have 4 distinct quotient tables, one per order,
        # and 4 distinct pair actions: no K is its own annihilator
        grp = FiniteAbelianGroup((2, 2, 2))
        chi = Bicharacter.standard(grp)
        subgroups = enumerate_subgroups(grp)
        assert len(subgroups) == 16 and len({quotient(grp, K).trans.tobytes() for K in subgroups}) == 4
        calls = []
        for name in ("orbit_partition", "burnside_check"):
            fn = getattr(classify, name)
            monkeypatch.setattr(classify, name, lambda *args, _fn=fn, _name=name: calls.append(_name) or _fn(*args))
        for catalog in (weak_coideal_classes, partial(g_algebra_classes, max_mult=1)):
            calls.clear()
            catalog(grp, chi)
            assert (calls.count("orbit_partition"), calls.count("burnside_check")) == (4, 4), catalog


class TestCanonicalForms:
    def test_idempotent_and_orbit_equivalence(self):
        _q0, _q1, perms, key = _setup((4,), [(2,)])
        points = _valid_subset_pairs(_q0, _q1)
        codes = _codes(points, perms, key)
        rng = random.Random(4)
        for _ in range(40):
            p, q = rng.randrange(len(points)), rng.randrange(len(points))
            images = points[p][perms]
            rep = images[int(np.argmin(key(images)))]
            assert _codes([rep], perms, key)[0] == key(rep[None])[0] == codes[p]
            same_canonical = codes[p] == codes[q]
            reachable = any((image == points[q]).all() for image in images)
            assert same_canonical == reachable

    def test_subset_rank_is_tuple_order(self):
        rows = _subsets(6)
        members = [tuple(np.flatnonzero(r)) for r in rows]
        ranks = _subset_rank(rows)
        assert sorted(range(len(rows)), key=lambda i: members[i]) == list(np.argsort(ranks))


class TestCatalogPins:
    @pytest.mark.parametrize("group", sorted(CATALOG_SHA256))
    def test_reports_match_pins(self, group, tmp_path, capsys):
        commands = (
            ["classify", "weak-coideals", "--group", group],
            ["classify", "g-algebras", "--group", group, "--max-mult", str(PIN_MAX_MULT.get(group, 2))],
        )
        for argv, expected in zip(commands, CATALOG_SHA256[group]):
            path = tmp_path / "report.json"
            assert cli_main([*argv, "--json", str(path)]) == 0
            assert _stripped_sha256(json.loads(path.read_text())) == expected
        capsys.readouterr()

    def test_n_points_reported(self):
        grp = FiniteAbelianGroup((4,))
        chi = Bicharacter.standard(grp)
        weak, _ = weak_coideal_classes(grp, chi)
        # any Z0 with |Z1| <= 1, less the empty pair, plus |Z0| <= 1 with |Z1| > 1
        assert [e["n_points"] for e in weak["per_subgroup"]] == [
            2**4 * 2 - 1, 2**2 * 3 - 1 + 3 * 1, 2 * 2**4 - 1
        ]
        alg = g_algebra_classes(grp, chi, max_mult=1)
        assert alg["per_subgroup"][1]["types"]["self-paired"]["n_points"] == 3
        assert alg["per_subgroup"][1]["types"]["decomposed"]["n_points"] == 15


class TestWeakCoidealClasses:
    def test_z2_counts(self, z2_report):
        _grp, (report, classes) = z2_report
        assert report["total_classes"] == len(classes) == 10
        assert report["total_coideal_classes"] == 8
        for entry in report["per_subgroup"]:
            assert len(entry["orbits"]) == entry["n_classes"] == 5
            assert entry["n_coideal"] == 4
            assert not is_flip(entry)
        # the non-coideal classes are full-Z0-with-empty-other-side shaped
        non = [spec for spec, flag in classes if not flag]
        assert len(non) == 2
        for spec in non:
            z = spec.z0 or spec.z1
            assert z == (0, 1) and not (spec.z0 and spec.z1)

    def test_trivial_group(self):
        grp = FiniteAbelianGroup((1,))
        report, _ = weak_coideal_classes(grp, Bicharacter.standard(grp))
        assert report["total_classes"] == 2
        assert report["total_coideal_classes"] == 2
        assert is_flip(report["per_subgroup"][0])

    def test_z4_flip_subgroup(self):
        grp = FiniteAbelianGroup((4,))
        report, _ = weak_coideal_classes(grp, Bicharacter.standard(grp))
        by_k = {tuple(map(tuple, e["K"])): e for e in report["per_subgroup"]}
        mid = by_k[((0,), (2,))]
        assert is_flip(mid)
        assert len(mid["orbits"]) == 4
        assert mid["n_coideal"] == 2

    @pytest.mark.parametrize("factors", [(2,), (3,), (4,), (2, 2)])
    def test_flag_counts_per_subgroup(self, factors):
        grp = FiniteAbelianGroup(factors)
        report, _ = weak_coideal_classes(grp, Bicharacter.standard(grp))
        for entry in report["per_subgroup"]:
            expected = 2 if is_flip(entry) else 4
            assert entry["n_coideal"] == expected
            assert entry["burnside_count"] == len(entry["orbits"])

    def test_flagged_equals_direct_construction(self):
        grp = FiniteAbelianGroup((2, 2))
        chi = Bicharacter.standard(grp)
        for _, classes in by_subgroup(*weak_coideal_classes(grp, chi)):
            K = classes[0][0].subgroup
            _perp, q0, q1, flip = _quotients(grp, chi, K)
            direct = coideal_orbits(K, q0, q1, flip, _pair_perms(q0, q1, flip))
            flagged = sorted((spec.z0, spec.z1) for spec, flag in classes if flag)
            assert flagged == sorted(direct)

    @pytest.mark.parametrize("factors", [f for f in CATALOG_GROUPS if np.prod(f) <= 8])
    def test_classes_line_up_with_the_orbits(self, factors):
        # the class list holds each reported orbit's datum and flag, in order
        grp = FiniteAbelianGroup(factors)
        report, classes = weak_coideal_classes(grp, Bicharacter.standard(grp))
        orbits = [o for e in report["per_subgroup"] for o in e["orbits"]]
        assert len(classes) == len(orbits) == report["total_classes"]
        assert [(spec.reps(), flag) for spec, flag in classes] == [(o["rep"], o["coideal_flag"]) for o in orbits]
        assert all(type(flag) is bool for _, flag in classes)

    def test_dropped_flip_detected(self, monkeypatch):
        grp = FiniteAbelianGroup((4,))
        chi = Bicharacter.standard(grp)
        monkeypatch.setattr(classify, "_pair_perms", lambda q0, q1, flip: _pair_perms(q0, q1, False))
        with pytest.raises(StructuralError):
            weak_coideal_classes(grp, chi)

    def test_order_guard(self):
        grp = FiniteAbelianGroup((17,))
        with pytest.raises(SizeError):
            weak_coideal_classes(grp, Bicharacter.standard(grp))

    def test_report_deterministic(self, z2_report):
        grp, (report, classes) = z2_report
        again, again_classes = weak_coideal_classes(grp, Bicharacter.standard(grp))
        assert json.dumps(report, sort_keys=True) == json.dumps(again, sort_keys=True)
        assert [(repr(spec), flag) for spec, flag in classes] == [(repr(spec), flag) for spec, flag in again_classes]


# The family realize_and_verify builds for each class, in catalog order:
# builder label, then the K, Z0 and Z1 of the family's own data.
REALIZED = {
    (4,): """\
I_Omega_K K=0,1,2,3 Z0=0 Z1=
I_Omega_K K=0 Z0=0 Z1=
with_m(|Z|=1) K=0,1,2,3 Z0=0 Z1=0
no_m(side=0, |Z|=2) K=0 Z0=0,1 Z1=
with_m(|Z|=2) K=0 Z0=0,1 Z1=0
no_m(side=0, |Z|=3) K=0 Z0=0,1,2 Z1=
with_m(|Z|=3) K=0 Z0=0,1,2 Z1=0
no_m(side=0, |Z|=4) K=0 Z0=0,1,2,3 Z1=
with_m(|Z|=4) K=0 Z0=0,1,2,3 Z1=0
no_m(side=0, |Z|=2) K=0 Z0=0,2 Z1=
with_m(|Z|=2) K=0 Z0=0,2 Z1=0
I_Omega_K K=0,2 Z0=0 Z1=
no_m(side=1, |Z|=2) K=0,2 Z0= Z1=0,1
with_m(|Z|=1) K=0,2 Z0=0 Z1=0
with_m(|Z|=2) K=0,2 Z0=0,1 Z1=0
I_Omega_K K=0 Z0=0 Z1=
no_m(side=1, |Z|=2) K=0,1,2,3 Z0= Z1=0,1
no_m(side=1, |Z|=3) K=0,1,2,3 Z0= Z1=0,1,2
no_m(side=1, |Z|=4) K=0,1,2,3 Z0= Z1=0,1,2,3
no_m(side=1, |Z|=2) K=0,1,2,3 Z0= Z1=0,2
I_Omega_K K=0,1,2,3 Z0=0 Z1=
with_m(|Z|=1) K=0,1,2,3 Z0=0 Z1=0
with_m(|Z|=2) K=0 Z0=0,1 Z1=0
with_m(|Z|=3) K=0 Z0=0,1,2 Z1=0
with_m(|Z|=4) K=0 Z0=0,1,2,3 Z1=0
with_m(|Z|=2) K=0 Z0=0,2 Z1=0""",
    (2, 2): """\
I_Omega_K K=00,01,10,11 Z0=00 Z1=
I_Omega_K K=00 Z0=00 Z1=
with_m(|Z|=1) K=00,01,10,11 Z0=00 Z1=00
no_m(side=0, |Z|=2) K=00 Z0=00,01 Z1=
with_m(|Z|=2) K=00 Z0=00,01 Z1=00
no_m(side=0, |Z|=3) K=00 Z0=00,01,10 Z1=
with_m(|Z|=3) K=00 Z0=00,01,10 Z1=00
no_m(side=0, |Z|=4) K=00 Z0=00,01,10,11 Z1=
with_m(|Z|=4) K=00 Z0=00,01,10,11 Z1=00
no_m(side=0, |Z|=2) K=00 Z0=00,10 Z1=
with_m(|Z|=2) K=00 Z0=00,10 Z1=00
no_m(side=0, |Z|=2) K=00 Z0=00,11 Z1=
with_m(|Z|=2) K=00 Z0=00,11 Z1=00
I_Omega_K K=00,10 Z0=00 Z1=
no_m(side=1, |Z|=2) K=00,01 Z0= Z1=00,01
I_Omega_K K=00,01 Z0=00 Z1=
with_m(|Z|=1) K=00,01 Z0=00 Z1=00
with_m(|Z|=2) K=00,10 Z0=00,01 Z1=00
no_m(side=0, |Z|=2) K=00,01 Z0=00,10 Z1=
with_m(|Z|=2) K=00,01 Z0=00,10 Z1=00
I_Omega_K K=00,01 Z0=00 Z1=
no_m(side=1, |Z|=2) K=00,10 Z0= Z1=00,10
I_Omega_K K=00,10 Z0=00 Z1=
with_m(|Z|=1) K=00,10 Z0=00 Z1=00
with_m(|Z|=2) K=00,01 Z0=00,10 Z1=00
no_m(side=0, |Z|=2) K=00,10 Z0=00,01 Z1=
with_m(|Z|=2) K=00,10 Z0=00,01 Z1=00
I_Omega_K K=00,11 Z0=00 Z1=
no_m(side=1, |Z|=2) K=00,11 Z0= Z1=00,01
with_m(|Z|=1) K=00,11 Z0=00 Z1=00
with_m(|Z|=2) K=00,11 Z0=00,01 Z1=00
I_Omega_K K=00 Z0=00 Z1=
no_m(side=1, |Z|=2) K=00,01,10,11 Z0= Z1=00,01
no_m(side=1, |Z|=3) K=00,01,10,11 Z0= Z1=00,01,10
no_m(side=1, |Z|=4) K=00,01,10,11 Z0= Z1=00,01,10,11
no_m(side=1, |Z|=2) K=00,01,10,11 Z0= Z1=00,10
no_m(side=1, |Z|=2) K=00,01,10,11 Z0= Z1=00,11
I_Omega_K K=00,01,10,11 Z0=00 Z1=
with_m(|Z|=1) K=00,01,10,11 Z0=00 Z1=00
with_m(|Z|=2) K=00 Z0=00,01 Z1=00
with_m(|Z|=3) K=00 Z0=00,01,10 Z1=00
with_m(|Z|=4) K=00 Z0=00,01,10,11 Z1=00
with_m(|Z|=2) K=00 Z0=00,10 Z1=00
with_m(|Z|=2) K=00 Z0=00,11 Z1=00""",
}


def count_group_rebuilds(monkeypatch) -> list[str]:
    """Wrap ``quotient`` and ``orthogonal`` in every tywha module that binds
    them; the returned list collects the name of each call."""
    calls = []
    for mod in [m for k, m in sys.modules.items() if k == "tywha" or k.startswith("tywha.")]:
        for name in ("quotient", "orthogonal"):
            fn = vars(mod).get(name)
            if fn is not None:
                monkeypatch.setattr(mod, name, lambda *args, _fn=fn, _name=name: calls.append(_name) or _fn(*args))
    return calls


class TestNoGroupRebuilds:
    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("factors", [(4,), (2, 2)])
    def test_realize_and_builders_take_quotients_from_the_spec(self, factors, sign, monkeypatch):
        # every class's spec carries G/K and G/Kperp from the catalog: realizing
        # it, and every builder that accepts it, computes no quotient and no
        # annihilator
        alg = TYAlgebra(FiniteAbelianGroup(factors), tau_sign=sign)
        _, classes = weak_coideal_classes(alg.group, alg.bichar)
        calls, built = count_group_rebuilds(monkeypatch), set()
        assert all(label and not failure for label, _, failure in realize_and_verify(alg, classes))
        for datum, _ in classes:
            for build in (build_from_spec, build_no_m, build_with_m, build_I_m_K, build_I_Omega_K):
                for spec in (datum, datum.swapped()):
                    try:
                        build(alg, spec)
                        built.add(build)
                    except InvariantError:
                        pass
        assert calls == [] and len(built) == 5

    def test_counter_sees_the_rebuilds(self, monkeypatch):
        calls = count_group_rebuilds(monkeypatch)
        grp = FiniteAbelianGroup((4,))
        weak_coideal_classes(grp, Bicharacter.standard(grp))
        assert calls.count("quotient") == 2 * 3 and calls.count("orthogonal") == 3


def expected_builder(spec) -> str:
    """The label of the family a class is realized by: I_Omega_K for a lone
    singleton, no_m when one side is empty, else with_m, whose |Z| is the
    larger side's."""
    n0, n1 = len(spec.z0), len(spec.z1)
    if n0 + n1 == 1:
        return "I_Omega_K"
    if not (n0 and n1):
        return f"no_m(side={0 if n0 else 1}, |Z|={n0 + n1})"
    return f"with_m(|Z|={max(n0, n1)})"


class TestRealization:
    def test_all_z2_classes_realize(self, z2_report):
        grp, (_, classes) = z2_report
        alg = TYAlgebra(grp)
        realized = realize_and_verify(alg, classes)
        assert [(label, failure) for label, _, failure in realized] == [(expected_builder(s), "") for s, _ in classes]

    def test_all_z4_classes_realize(self):
        grp = FiniteAbelianGroup((4,))
        alg = TYAlgebra(grp)
        report, classes = weak_coideal_classes(grp, alg.bichar)
        flip_entries = sum(map(is_flip, report["per_subgroup"]))
        labels = [label for label, _, _ in realize_and_verify(alg, classes)]
        assert labels == [expected_builder(spec) for spec, _ in classes]
        assert labels == [line.rsplit(" K=", 1)[0] for line in REALIZED[(4,)].splitlines()]
        assert flip_entries == 1

    @pytest.mark.parametrize("factors", sorted(REALIZED))
    def test_realized_families(self, factors, monkeypatch):
        alg = TYAlgebra(FiniteAbelianGroup(factors))
        got = []

        def record(batch, fibers=None):
            for wc in batch:
                spec = wc.spec.describe()
                data = (f"{k}={','.join(''.join(map(str, e)) for e in spec[k])}"
                        for k in ("K", "Z0", "Z1"))
                got.append(" ".join([wc.label, *data]))
            return verify_weak_coideal(batch, fibers)

        monkeypatch.setattr(coideals, "verify_weak_coideal", record)
        realize_and_verify(alg, weak_coideal_classes(alg.group, alg.bichar)[1])
        assert got == REALIZED[factors].split("\n")

    def test_coideal_flagged_reps_are_unital(self, z2_report, monkeypatch):
        grp, (_, classes) = z2_report
        alg = TYAlgebra(grp)
        built = []

        def record(batch, fibers=None):
            built.extend(batch)
            return verify_weak_coideal(batch, fibers)

        monkeypatch.setattr(coideals, "verify_weak_coideal", record)
        realize_and_verify(alg, classes)
        assert [is_coideal(wc) for wc in built] == [flag for _, flag in classes]

    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("factors, distinct", [((2,), 5), ((3,), 7), ((4,), 15), ((2, 2), 25)])
    def test_distinct_subalgebras(self, factors, distinct, sign):
        # two representatives have equal keys iff their fibers span the same
        # spaces block by block; no class count changes
        alg = TYAlgebra(FiniteAbelianGroup(factors), tau_sign=sign)
        _, classes = weak_coideal_classes(alg.group, alg.bichar)
        built = [classify._representative(alg, spec) for spec, _ in classes]
        realized = realize_and_verify(alg, classes)
        assert [key for _, key, _ in realized] == [wc.key() for wc in built]
        assert len({key for _, key, _ in realized}) == distinct and len(realized) == len(classes)
        for a, b in itertools.combinations(built, 2):
            assert (a.key() == b.key()) == same_fibers(a, b), (a.label, b.label)


def same_fibers(a, b) -> bool:
    """Whether two families span the same fiber in every block."""
    if not np.array_equal(a.x_dims(), b.x_dims()):
        return False
    rows, block = np.concatenate([a.fiber_rows, b.fiber_rows]), np.concatenate([a.fiber_block, b.fiber_block])
    return all(np.linalg.matrix_rank(rows[block == x]) == (a.fiber_block == x).sum() for x in np.unique(block))


# per group, each tau sign: the (class, t) pairs at which the realized
# representative departs from sigma_t, of all (class, t) pairs, and the
# K <-> Kperp swap pairs of classes that build one subalgebra, of all classes
TRANSLATED_CLASSES = {
    (2,): (2, 20, 5, 10), (3,): (4, 42, 7, 14), (4,): (8, 104, 11, 26), (2, 2): (16, 176, 19, 44),
    (5,): (8, 150, 15, 30), (6,): (24, 432, 35, 72),
}


class TestTranslatedClasses:
    """Builds follow the translations sigma_t of B, and classes collide
    only as swap pairs (``reference.follows_translations`` and
    ``reference.swap_pairs``; CI runs both at order 8)."""

    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("factors", sorted(TRANSLATED_CLASSES))
    def test_builds_follow_translations(self, factors, sign):
        alg = TYAlgebra(FiniteAbelianGroup(factors), tau_sign=sign)
        _, classes = weak_coideal_classes(alg.group, alg.bichar)
        departures, pairs, _, n_classes = TRANSLATED_CLASSES[factors]
        assert len(classes) * alg.group.order == pairs and len(classes) == n_classes
        assert reference.follows_translations(alg, classes) == departures

    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("factors", sorted(TRANSLATED_CLASSES))
    def test_collisions_are_swap_pairs(self, factors, sign):
        alg = TYAlgebra(FiniteAbelianGroup(factors), tau_sign=sign)
        _, classes = weak_coideal_classes(alg.group, alg.bichar)
        assert reference.swap_pairs(alg, classes) == TRANSLATED_CLASSES[factors][2]

    def test_span_key_tells_spans_apart(self):
        rows = np.array([[1, 1, 0, 0], [0, 0, 2j, 0], [1, 0, 0, 0]], dtype=complex)
        block = np.array([0, 0, 1])
        same = reference.span_key(block, rows)
        assert reference.span_key(block[[1, 0, 2]], rows[[1, 0, 2]] * [[-1], [3], [1j]]) == same
        moved = rows.copy()
        moved[0, 1] = -1
        assert reference.span_key(block, moved) != same
        with pytest.raises(ValueError, match="overlap"):
            reference.span_key(np.array([0, 0]), rows[[0, 2]])


class TestAlgebraClasses:
    def test_z2_decomposed_count(self):
        grp = FiniteAbelianGroup((2,))
        payload = g_algebra_classes(grp, Bicharacter.standard(grp), max_mult=1)
        for entry in payload["per_subgroup"]:
            assert "self-paired" not in entry["types"]
            assert entry["types"]["decomposed"]["n_classes"] == 5

    def test_z4_flip_subgroup_types(self):
        grp = FiniteAbelianGroup((4,))
        payload = g_algebra_classes(grp, Bicharacter.standard(grp), max_mult=1)
        by_k = {tuple(map(tuple, e["K"])): e for e in payload["per_subgroup"]}
        mid = by_k[((0,), (2,))]
        assert mid["flip_action"]
        assert mid["types"]["self-paired"]["n_classes"] == 2
        assert mid["types"]["decomposed"]["n_classes"] == 5

    def test_flip_halves_asymmetric_pairs(self):
        # independent oracle: brute-force orbits of nonzero {0,1}^2 x {0,1}^2
        # vectors under translations, with and without the side swap
        shifts = [[0, 1], [1, 0]]
        without = np.array([a + [2 + x for x in b] for a in shifts for b in shifts])
        with_flip = np.concatenate([without, without[:, [2, 3, 0, 1]]])
        points = _vectors(4, 1)[1:]  # the nonzero vectors
        key = partial(_vector_key, max_mult=1)
        fixed = partial(_vector_fixed, max_mult=1)
        for perms, expected in ((without, 8), (with_flip, 5)):
            assert len(_brute_orbits(points, perms)) == expected
            orbits = orbit_partition(points, perms, key)
            assert len(orbits) == expected
            assert burnside_check(perms, fixed, len(points), len(orbits)) == expected

    def test_max_mult_validation(self):
        grp = FiniteAbelianGroup((2,))
        with pytest.raises(InvariantError):
            g_algebra_classes(grp, Bicharacter.standard(grp), max_mult=0)

    def test_deterministic(self):
        grp = FiniteAbelianGroup((2, 2))
        chi = Bicharacter.standard(grp)
        a = json.dumps(g_algebra_classes(grp, chi), sort_keys=True)
        b = json.dumps(g_algebra_classes(grp, chi), sort_keys=True)
        assert a == b


class TestEmittedShapes:
    @pytest.mark.parametrize("factors", [(2,), (4,), (2, 2)])
    def test_every_rep_has_valid_shape(self, factors):
        # no class with both sides empty and none with both sides beyond a
        # singleton (in particular nothing shaped like a standalone
        # self-paired payload)
        grp = FiniteAbelianGroup(factors)
        _, classes = weak_coideal_classes(grp, Bicharacter.standard(grp))
        for spec, _ in classes:
            assert spec.z0 or spec.z1
            assert len(spec.z0) <= 1 or len(spec.z1) <= 1

    def test_flip_fixes_canonical_form(self):
        q, _q1, perms, key = _setup((4,), [(2,)])
        flipped = next(c for e, c in by_subgroup(*weak_coideal_classes(q.group, Bicharacter.standard(q.group)))
                       if is_flip(e))

        def row(z0, z1):
            out = np.zeros(2 * len(q), dtype=np.uint8)
            for side, z in enumerate((z0, z1)):
                for c in z:
                    out[side * len(q) + c] = 1
            return out

        for spec, _ in flipped:
            rep = row(spec.z0, spec.z1)
            assert _codes([row(spec.z1, spec.z0)], perms, key)[0] == key(rep[None])[0]
            assert _codes([rep], perms, key)[0] == key(rep[None])[0]


class TestOrbitPartition:
    def test_partition_covers_points(self):
        q0, q1, perms, key = _setup((4,), [])
        points = _valid_subset_pairs(q0, q1)
        orbits = orbit_partition(points, perms, key)
        assert orbits["size"].sum() == len(points)
        reps = [tuple(rep) for rep in orbits["row"].tolist()]
        assert len(set(reps)) == len(reps)
        assert {tuple(p) for p in points.tolist()} >= set(reps)
        assert len(orbits) == len(_brute_orbits(points, perms))
        assert sorted(len(o) for o in _brute_orbits(points, perms)) == sorted(orbits["size"].tolist())


class TestOrderSixteen:
    @pytest.fixture(scope="class")
    def reports(self):
        out = {}
        for factors in [(4, 4), (2, 8), (2, 2, 4), (2, 2, 2, 2)]:
            grp = FiniteAbelianGroup(factors)
            out[factors], _ = weak_coideal_classes(grp, Bicharacter.standard(grp))
        return out

    @pytest.mark.parametrize(
        "factors,total",
        [((4, 4), 17234), ((2, 8), 17104), ((2, 2, 4), 18246), ((2, 2, 2, 2), 20904)],
    )
    def test_catalog_finishes_and_checks(self, reports, factors, total):
        report = reports[factors]
        assert report["total_classes"] == total
        for entry in report["per_subgroup"]:
            assert entry["burnside_count"] == len(entry["orbits"])
            assert entry["n_coideal"] == (2 if is_flip(entry) else 4)

    def test_cyclic_via_cli(self, tmp_path, capsys):
        path = tmp_path / "z16.json"
        assert cli_main(["classify", "weak-coideals", "--group", "16", "--json", str(path)]) == 0
        payload = json.loads(path.read_text())
        assert payload["total_classes"] == 16618
        assert all(e["burnside_ok"] for e in payload["per_subgroup"])
        assert [e["n_coideal"] for e in payload["per_subgroup"]] == [4, 4, 2, 4, 4]
        capsys.readouterr()


# (group, automorphism matrix A acting on coordinate columns, the phase
# matrix A^T M A of the twisted bicharacter, total classes): e2 -> e1 + e2,
# x2 on Z5, and e2 -> e1 + e2, e3 -> e2 + e3 on Z2^3
AUTOMORPHISMS = {
    "Z2xZ2": ((2, 2), [[1, 1], [0, 1]], [["1/2", "1/2"], ["1/2", "0"]], 44),
    "Z5": ((5,), [[2]], [["4/5"]], 30),
    "Z3xZ3": ((3, 3), [[1, 1], [0, 1]], [["1/3", "1/3"], ["1/3", "2/3"]], 298),
    "Z2^3": ((2, 2, 2), [[1, 1, 0], [0, 1, 1], [0, 0, 1]],
             [["1/2", "1/2", "0"], ["1/2", "0", "1/2"], ["0", "1/2", "0"]], 392),
}


class TestAutomorphismInvariance:
    """For an automorphism alpha of G with matrix A, chi' = chi o (alpha x
    alpha) has the phase matrix A^T M A, and alpha carries the classes of
    (G, chi') at K onto those of (G, chi) at alpha(K)."""

    @pytest.mark.parametrize("case", sorted(AUTOMORPHISMS))
    def test_classes_follow_the_automorphism(self, case):
        factors, A, phases, total = AUTOMORPHISMS[case]
        grp = FiniteAbelianGroup(factors)
        chi = Bicharacter.standard(grp)
        M = [[Fraction(x) for x in row] for row in chi.matrix]
        k = grp.rank
        twisted = [[sum(A[a][i] * M[a][b] * A[b][j] for a in range(k) for b in range(k)) for j in range(k)]
                   for i in range(k)]
        chi2 = Bicharacter(grp, tuple(map(tuple, twisted)))
        assert chi2.matrix == tuple(tuple(Fraction(x) for x in row) for row in phases)

        def alpha(g):
            return tuple(sum(A[i][j] * g[j] for j in range(k)) % n for i, n in enumerate(factors))

        def counts(report, key):
            return {key(tuple(map(tuple, e["K"]))): (len(e["orbits"]), e["n_coideal"]) for e in report["per_subgroup"]}

        standard, _ = weak_coideal_classes(grp, chi)
        moved, _ = weak_coideal_classes(grp, chi2)
        assert standard["total_classes"] == moved["total_classes"] == total
        assert counts(moved, lambda K: frozenset(map(alpha, K))) == counts(standard, frozenset)
