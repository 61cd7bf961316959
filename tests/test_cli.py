import functools
import hashlib
import json
import os
import random
import subprocess
import sys
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tywha.cli as cli
import tywha.coideals as coideals
from tywha.algebra import Table, TYAlgebra
from tywha.cli import main
from tywha.groups import FiniteAbelianGroup
from tywha.linalg import SparseVec

from reference import a_level_report, distance, table_rows


def run(argv):
    return main(argv)


def built(label, spec):
    """A built family as "<label> K=.. Z0=.. Z1=..", each group element
    written as its digits."""
    data = (f"{k}={','.join(''.join(map(str, e)) for e in spec[k])}" for k in ("K", "Z0", "Z1"))
    return " ".join([label, *data])


class TestGroupDescribe:
    def test_z4_table(self, capsys):
        assert run(["group", "describe", "--group", "4"]) == 0
        out = capsys.readouterr().out
        assert "{(0,),(2,)}" in out
        assert "K = K_perp" in out

    def test_hyperbolic_bichar_file(self, tmp_path, capsys):
        path = tmp_path / "chi.json"
        path.write_text(json.dumps({"matrix": [["0", "1/2"], ["1/2", "0"]]}))
        assert run(["group", "describe", "--group", "2,2", "--bichar", str(path)]) == 0
        out = capsys.readouterr().out
        assert out.count("\n") >= 6  # header + 5 subgroups

    def test_degenerate_bichar_exits_2(self, tmp_path, capsys):
        path = tmp_path / "flat.json"
        path.write_text(json.dumps({"matrix": [["0"]]}))
        assert run(["group", "describe", "--group", "2", "--bichar", str(path)]) == 2
        assert "bicharacter degenerate" in capsys.readouterr().err

    @pytest.mark.parametrize("matrix, entry", [
        ('[["1/0"]]', "'1/0'"),
        ('[["abc"]]', "'abc'"),
        ('[[true]]', "True"),
        ('"x"', None),
        ('[1]', None),
    ], ids=["zero-denominator", "not-a-number", "bool", "string", "flat-list"])
    def test_malformed_bichar_matrix_exits_2(self, matrix, entry, tmp_path, capsys):
        path = tmp_path / "chi.json"
        path.write_text('{"matrix": %s}' % matrix)
        assert run(["group", "describe", "--group", "2", "--bichar", str(path)]) == 2
        err = capsys.readouterr().err
        want = (f"entries must be rationals, got {entry}" if entry
                else 'bicharacter JSON must be {"matrix": [[...], ...]}')
        assert err.startswith("error: ") and want in err and err.count("\n") == 1

    def test_bad_group_exits_2(self):
        assert run(["group", "describe", "--group", "zzz"]) == 2


# the rows that take one first factor per translation orbit
REDUCED_ROWS = {
    "product associativity", "coproduct multiplicative", "coassociativity", "weak counit identity",
    "antipode anti-multiplicative", "star anti-multiplicative",
}


class TestWhaCommands:
    def test_verify_passes(self, capsys):
        assert run(["wha", "verify", "--group", "2", "--tau", "+"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out

    @pytest.mark.parametrize("group", ["8", "2,4", "9", "2,2,2,2"])
    @pytest.mark.parametrize("tau", ["+", "-"])
    def test_verify_order_8_exhaustive(self, group, tau, tmp_path):
        out = tmp_path / "axioms.json"
        assert run(["wha", "verify", "--group", group, "--tau", tau, "--json", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["passed"]
        n = FiniteAbelianGroup.from_spec(group).order
        dim = n * (n + 1) ** 2 + 4 * n * n
        for c in payload["checks"]:
            if c["name"] in REDUCED_ROWS:  # one first factor per translation orbit
                assert c["mode"] == "exhaustive by translation", c["name"]
                assert c["instances_checked"] * dim == (n * n + 7 * n) * c["instances_total"], c["name"]
            else:
                assert c["mode"] == "exhaustive", c["name"]
                assert c["instances_checked"] == c["instances_total"], c["name"]

    @pytest.mark.parametrize("group", ["17", "2,9"])
    @pytest.mark.parametrize(
        "command",
        [["wha", "verify"], ["wha", "export"], ["coideal", "build", "--K", "0"]],
        ids=["verify", "export", "coideal"],
    )
    def test_algebra_over_order_bound_exits_2(self, command, group, tmp_path, capsys):
        start = time.perf_counter()
        code = run([*command, "--group", group, "--json", str(tmp_path / "out.json")])
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert "exceeds" in capsys.readouterr().err

    @pytest.mark.parametrize("group", ["100000", "1000000000"])
    @pytest.mark.parametrize("command", [
        ["wha", "verify"],
        ["wha", "export"],
        ["coideal", "build", "--K", "0"],
        ["classify", "weak-coideals"],
        ["classify", "g-algebras"],
        ["group", "describe"],
    ], ids=["verify", "export", "coideal", "classify", "g-algebras", "describe"])
    def test_order_bound_is_checked_before_the_bicharacter(self, command, group, capsys):
        # validating the bicharacter builds a |G| x |G| phase table
        start = time.perf_counter()
        assert run([*command, "--group", group]) == 2
        assert time.perf_counter() - start < 1.0
        assert f"|G| = {group} exceeds" in capsys.readouterr().err

    @pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1"])
    @pytest.mark.parametrize(
        "command",
        [
            ["wha", "verify"],
            ["wha", "export"],
            ["coideal", "build", "--K", "0"],
            ["classify", "weak-coideals", "--realize"],
            ["classify", "weak-coideals"],
        ],
        ids=["verify", "export", "coideal", "realize", "classify"],
    )
    def test_tolerance_not_finite_and_positive_exits_2(self, command, tol, tmp_path, capsys):
        out = tmp_path / "out.json"
        assert run([*command, "--group", "2", "--tol", tol, "--json", str(out)]) == 2
        assert "tolerance must be finite and positive" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("tau", ["+", "-"])
    def test_verify_json_names_its_datum(self, tau, tmp_path):
        # chi^2 on Z3 is a different datum; the report says which one it checked
        chi = tmp_path / "chi.json"
        chi.write_text(json.dumps({"matrix": [["2/3"]]}))
        out = tmp_path / "axioms.json"
        assert run(["wha", "verify", "--group", "3", "--tau", tau, "--bichar", str(chi), "--json", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert (payload["bicharacter"], payload["tau_sign"]) == ({"matrix": [["2/3"]]}, 1 if tau == "+" else -1)
        export = tmp_path / "export.json"
        assert run(["wha", "export", "--group", "3", "--tau", tau, "--bichar", str(chi), "--json", str(export)]) == 0
        assert payload["bicharacter"] == json.loads(export.read_text())["bicharacter"]

    def test_bad_tau_flag_exits_2(self):
        with pytest.raises(SystemExit) as err:
            run(["wha", "verify", "--group", "2", "--tau", "x"])
        assert err.value.code == 2

    def test_verify_json_reports_coverage(self, tmp_path):
        out = tmp_path / "axioms.json"
        assert run(["wha", "verify", "--group", "3", "--json", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["schema"] == "tywha-axioms/3"
        assert (payload["bicharacter"], payload["tau_sign"]) == ({"matrix": [["1/3"]]}, 1)
        checks = {c["name"]: c for c in payload["checks"]}
        translations = checks["translations are automorphisms"]
        assert translations["passed"] and translations["instances_total"] == 3
        assoc = checks["product associativity"]  # 30 = 3^2 + 7 * 3 first factors
        assert assoc["mode"] == "exhaustive by translation"
        assert (assoc["instances_checked"], assoc["instances_total"]) == (30 * 84**2, 84**3)
        haar = checks["haar positive"]
        assert haar["mode"] == "exhaustive"
        assert haar["instances_checked"] == haar["instances_total"] == 84**2

    @pytest.mark.parametrize("group, tol", [("2", "0.3"), ("3", "0.3"), ("2,2", "0.3"), ("8", "0.1")])
    @pytest.mark.parametrize("tau", ["+", "-"])
    def test_loose_tolerance_decides_no_rank(self, group, tol, tau, tmp_path):
        # a loose verdict tolerance must not drop singular values or echelon
        # rows: the Haar system stays uniquely solvable and the center keeps
        # its dimension
        out = tmp_path / "axioms.json"
        assert run(["wha", "verify", "--group", group, "--tau", tau, "--tol", tol, "--json", str(out)]) == 0
        assert all(c["passed"] for c in json.loads(out.read_text())["checks"])

    def test_export_product_does_not_depend_on_tolerance(self, tmp_path):
        products = []
        for tol in ("1e-9", "0.6"):
            out = tmp_path / f"wha_{tol}.json"
            assert run(["wha", "export", "--group", "4", "--tol", tol, "--json", str(out)]) == 0
            products.append(json.loads(out.read_text())["product"])
        assert len(products[0]) == 1168
        assert products[0] == products[1]

    def test_export_roundtrip(self, tmp_path):
        out = tmp_path / "wha.json"
        assert run(["wha", "export", "--group", "2", "--tau", "-", "--json", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["format"] == "ty-wha/1"
        assert data["dim"] == 34

        table = {}
        for i, j, k, re_, im_ in data["product"]:
            table.setdefault((i, j), []).append((k, complex(re_, im_)))

        from tywha.algebra import TYAlgebra
        from tywha.groups import FiniteAbelianGroup

        alg = TYAlgebra(FiniteAbelianGroup((2,)), tau_sign=-1)
        rng = random.Random(2)
        for _ in range(10):
            a, b = (
                SparseVec(
                    {rng.randrange(alg.dim): complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(6)}
                )
                for _ in range(2)
            )
            redone = {}
            for i, ca in a.items():
                for j, cb in b.items():
                    for k, c in table.get((i, j), ()):
                        redone[k] = redone.get(k, 0) + ca * cb * c
            assert distance(SparseVec(redone), alg.multiply(a, b)) < 1e-9


# sha256 of `wha export --group G --tau T --json PATH` (default tolerance),
# recorded before the product and unit maps were built as array joins: the
# structure constants must stay bit for bit the same, signed zeros included
EXPORT_SHA256 = {
    ("1", "+"): "4d173bdeff4c76be6beee1acb128df6098c23639fe07f2b7f788fc9b447431d3",
    ("1", "-"): "28796b5dcc37599bbb28fad4367fa6e38e00f6bca1f9a2b94bc42ea0a61cede7",
    ("2", "+"): "ef364607fb7c6f2522e4bac9ff47b32129322a0a83f995430910385372e88eb2",
    ("2", "-"): "0d34387734da28818faf54bd6e3296acd54ba1d23439b27ab3cf87488a90bfa6",
    ("3", "+"): "95f26789236679d81e76e147f0768a8bf1e9ccb17c8442866c20a03c580b15c2",
    ("3", "-"): "7db0b64c5b0c199813c39114457765cace71212bf15aff0c376c781671bf34a1",
    ("4", "+"): "01a8745a2020fa084adc4b88600d0121c20c8998212f317d494ba4996bee24cf",
    ("4", "-"): "9880c73dae99e6f5f3831f5a606baf3923db1bde5df8142993f47a58e752688c",
    ("2,2", "+"): "16cdbf9b8dd5890834a85dd767b364d4b7f171efa23ff9ee043ed54370a09e32",
    ("2,2", "-"): "2f125382d00eee9ac6e50ddb13ba2b730ab902341cb56afca80569be4defd7b8",
    ("5", "+"): "23a743be2238f7783d0d27b5fd2e9fbdd59fdebc53421cb68fadbc0876949e0e",
    ("5", "-"): "6f7807067cceb2caa0e06f57283c883d526c0732329a7aa2db3dc26515088b22",
    ("6", "+"): "3a089c055e14584bcf7fa971f8370be91d091d24fe4a85351f2cef623f1c7297",
    ("6", "-"): "f24282554d97f8c70aecc8a1397f4921102fc9f267f6118814a5efe984997bbc",
    ("8", "+"): "04ba31b9472b20a0d871d54bce7ccf27a2ff21b08a3c5fc538f53ff2ae8ab456",
    ("8", "-"): "71b74f8c7a34421291b3056c014da518400f8a3c8f290c4f4fa5802290e7a4d7",
    ("2,4", "-"): "bd9e632ab5dc7cbd91fe01f71195955e41cc2f91727d41eacdaebd86128218d6",
}


class TestExportPins:
    @pytest.mark.parametrize("group,tau", sorted(EXPORT_SHA256))
    def test_export_bytes_pinned(self, group, tau, tmp_path):
        out = tmp_path / "wha.json"
        assert run(["wha", "export", "--group", group, "--tau", tau, "--json", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == EXPORT_SHA256[(group, tau)]

    def test_export_without_json_exits_2(self, capsys):
        assert run(["wha", "export", "--group", "2"]) == 2
        assert "--json" in capsys.readouterr().err


class TestReportFiles:
    def test_rewritten_report_has_identical_bytes(self, tmp_path):
        out = tmp_path / "wha.json"
        assert run(["wha", "export", "--group", "3", "--json", str(out)]) == 0
        first = out.read_bytes()
        out.write_text("stale and longer than nothing")
        assert run(["wha", "export", "--group", "3", "--json", str(out)]) == 0
        assert out.read_bytes() == first
        assert run(["wha", "export", "--group", "3", "--json", str(out)]) == 0
        assert out.read_bytes() == first

    def test_rewritten_report_keeps_file_and_links(self, tmp_path):
        out, link = tmp_path / "wha.json", tmp_path / "hard.json"
        out.write_text("old")
        out.chmod(0o640)
        link.hardlink_to(out)
        inode = out.stat().st_ino
        assert run(["wha", "export", "--group", "2", "--json", str(out)]) == 0
        assert out.stat().st_ino == inode
        assert out.stat().st_mode & 0o777 == 0o640
        assert link.read_bytes() == out.read_bytes() != b"old"

    def test_report_through_symlink_writes_target(self, tmp_path):
        target, link = tmp_path / "target.json", tmp_path / "link.json"
        target.write_text("old")
        link.symlink_to(target)
        assert run(["wha", "verify", "--group", "1", "--json", str(link)]) == 0
        assert link.is_symlink()
        assert json.loads(target.read_text())["passed"] is True


def stdlib_report(payload) -> bytes:
    """The bytes the json module writes for a report, with its trailing newline,
    each table written as the list of its rows."""
    return (json.dumps(payload, indent=2, sort_keys=True, default=table_rows) + "\n").encode("ascii")


_text = st.text(st.sampled_from('"\\[]{},: \n\t\x00\x1f\x7fa0é€😀') | st.characters(), max_size=12)
_scalar = (
    st.none() | st.booleans() | st.integers() | st.floats() | _text
    | st.sampled_from([float("nan"), float("inf"), -float("inf"), -0.0])
)
_nested = st.integers(1, 80).map(lambda depth: functools.reduce(lambda inner, _: [inner], range(depth), {}))
_json_value = st.recursive(
    _scalar | _nested, lambda kids: st.lists(kids, max_size=6) | st.dictionaries(_text, kids, max_size=6),
    max_leaves=40,
)
_int = st.integers(-(2**63), 2**63 - 1) | st.integers(-3, 3)
_float = st.floats() | st.sampled_from([-0.0, 0.0, float("nan"), float("inf"), -float("inf"), 1e16, 1e-05, 5e-324])


@st.composite
def _tables(draw) -> Table:
    """A table of 0 to 12 rows with 1 to 5 int64 and float64 columns."""
    rows = draw(st.integers(0, 12))
    kinds = draw(st.lists(st.sampled_from([(_int, np.int64), (_float, np.float64)]), min_size=1, max_size=5))
    return Table(*(np.array(draw(st.lists(values, min_size=rows, max_size=rows)), dtype) for values, dtype in kinds))


_with_tables = st.recursive(
    _tables() | _scalar, lambda kids: st.lists(kids, max_size=5) | st.dictionaries(_text, kids, max_size=5),
    max_leaves=12,
)


class TestReportWriter:
    """The report writer lays out the C encoder's text, and a table's rows from
    its columns, with array operations; its bytes must be the json module's,
    a table written as its rows, piece by piece or in one piece."""

    @settings(max_examples=400, deadline=None)
    @given(value=_json_value | _with_tables, piece_items=st.sampled_from([1, 2, cli._PIECE_ITEMS]))
    def test_bytes_equal_stdlib(self, tmp_path_factory, value, piece_items):
        path = tmp_path_factory.getbasetemp() / "report.json"
        with mock.patch.object(cli, "_PIECE_ITEMS", piece_items):
            cli._write_json(str(path), value)
        assert path.read_bytes() == stdlib_report(value)

    def test_tau_minus_export_keeps_negative_zero(self, tmp_path):
        # the tables' float values are told apart by their bits: by value,
        # -0.0 would merge into 0.0 or 0.0 into -0.0
        data = TYAlgebra(FiniteAbelianGroup((1,)), tau_sign=-1).export_data()
        imag = data["antipode"].columns[3]
        assert np.any((imag == 0) & np.signbit(imag)) and np.any((imag == 0) & ~np.signbit(imag))
        path = tmp_path / "wha.json"
        cli._write_json(str(path), data)
        written = path.read_bytes()
        assert written == stdlib_report(data)
        assert b"-0.0\n" in written and b" 0.0\n" in written

    @pytest.mark.parametrize("argv", [
        ["group", "describe", "--group", "2,2"],
        ["wha", "verify", "--group", "2", "--tau", "-"],
        ["wha", "export", "--group", "3"],
        ["coideal", "build", "--group", "4", "--K", "2", "--Z0", "all", "--Z1", "0"],
        ["classify", "weak-coideals", "--group", "2,4"],
        ["classify", "weak-coideals", "--group", "2", "--realize"],
        ["classify", "g-algebras", "--group", "4", "--max-mult", "2"],
    ], ids=["describe", "verify", "export", "coideal", "classify", "realize", "g-algebras"])
    @pytest.mark.parametrize("piece_items", [2, cli._PIECE_ITEMS])
    def test_every_command_writes_stdlib_bytes(self, argv, piece_items, tmp_path, monkeypatch):
        payloads, write = [], cli._write_json
        monkeypatch.setattr(cli, "_write_json", lambda path, payload: (payloads.append(payload), write(path, payload)))
        monkeypatch.setattr(cli, "_PIECE_ITEMS", piece_items)
        out = tmp_path / "report.json"
        assert run([*argv, "--json", str(out)]) == 0
        assert out.read_bytes() == stdlib_report(payloads[0])

    @pytest.mark.parametrize("builder, z, message", [
        ("no_m", ["--Z0", "0", "--Z1", "0"], "no_m takes Z on one side only: Z0 or Z1 must be empty"),
        ("no_m", [], "at least one of Z0, Z1 must be nonempty"),
        ("with_m", ["--Z0", "0"], "rho0 must be a single coset of the annihilator of K"),
    ], ids=["no_m-both-sides", "no_m-no-Z", "with_m-no-rho0"])
    def test_builder_rejects_its_data_exits_2(self, builder, z, message, capsys):
        # the builders' own checks reject data that does not fit them
        assert run(["coideal", "build", "--group", "4", "--K", "2", "--builder", builder, *z]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("argv, message", [
        (["coideal", "build", "--group", "4", "--K", "x"], "malformed group element 'x'"),
        (["coideal", "build", "--group", "4", "--K", "2", "--Z0", "1,a"], "malformed group element '1,a'"),
        (["group", "describe", "--group", "2", "--bichar", "{bad}"], "bicharacter file {bad} is not valid JSON"),
        (["wha", "verify", "--group", "1", "--json", "{tmp}"], "cannot write report {tmp}: Is a directory"),
        (["wha", "verify", "--group", "1", "--json", "{tmp}/no/r.json"], "cannot write report {tmp}/no/r.json"),
        *(
            (["coideal", "build", "--group", "4", "--K", "2", "--builder", builder, flag, "1"],
             f"error: builder {builder} takes no --Z0/--Z1\n")
            for builder in ("I_m_K", "I_Omega_K") for flag in ("--Z0", "--Z1")
        ),
    ], ids=["K", "Z0", "bichar", "json-dir", "json-no-parent",
            "I_m_K-Z0", "I_m_K-Z1", "I_Omega_K-Z0", "I_Omega_K-Z1"])
    def test_bad_input_or_report_path_exits_2(self, argv, message, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        fill = {"{bad}": str(bad), "{tmp}": str(tmp_path)}
        for key, value in fill.items():
            argv = [a.replace(key, value) for a in argv]
            message = message.replace(key, value)
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert message in captured.err and "Traceback" not in captured.err
        if "--json" in argv:  # the verdict is printed before the report is written
            assert "PASS" in captured.out

    @pytest.mark.parametrize("argv", [
        ["group", "describe", "--group", "2,2"],
        ["wha", "verify", "--group", "1", "--json", "{tmp}/r.json"],
    ], ids=["describe", "verify-json"])
    def test_closed_stdout_exits_quietly(self, argv, tmp_path, capsys, monkeypatch):
        class ClosedPipe:
            """A stdout whose reader has gone, over a descriptor main may redirect."""

            def __init__(self, fd):
                self.fd = fd

            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

            def flush(self):
                pass

            def fileno(self):
                return self.fd

        argv = [a.replace("{tmp}", str(tmp_path)) for a in argv]
        with open(tmp_path / "stdout", "w") as fh:
            monkeypatch.setattr(sys, "stdout", ClosedPipe(fh.fileno()))
            assert run(argv) == 1
        assert capsys.readouterr().err == ""
        assert not (tmp_path / "r.json").exists()

    def test_stdout_closed_by_its_reader(self):
        # `tywha group describe --group 2,2,2,2,2,2 | head -1`: about 1 MB of
        # output, so the child is still writing when the reader closes the pipe
        env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(cli.__file__))}
        proc = subprocess.Popen(
            [sys.executable, "-m", "tywha.cli", "group", "describe", "--group", "2,2,2,2,2,2"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        assert proc.stdout.readline().startswith(b"group Z2xZ2xZ2xZ2xZ2xZ2")
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait() == 1
        assert err == b""


class TestCoidealCommand:
    def test_named_builder(self, capsys):
        assert run(["coideal", "build", "--group", "2", "--K", "0", "--builder", "I_Omega_K"]) == 0
        out = capsys.readouterr().out
        assert "is_coideal = True" in out

    def test_full_z0_with_rho(self, capsys):
        code = run(
            ["coideal", "build", "--group", "4", "--K", "2", "--Z0", "all", "--Z1", "0"]
        )
        assert code == 0
        assert "is_coideal = True" in capsys.readouterr().out

    def test_both_sides_large_exits_2(self, capsys):
        code = run(
            ["coideal", "build", "--group", "4", "--K", "2", "--Z0", "0;1", "--Z1", "0;1"]
        )
        assert code == 2
        assert "Z0" in capsys.readouterr().err

    def test_no_data_exits_2(self):
        assert run(["coideal", "build", "--group", "2", "--K", "0"]) == 2

    # the family the inferred dispatch builds for each shape of (Z0, Z1)
    @pytest.mark.parametrize("group, K, data, want", [
        ("4", "2", "--Z0 0", "no_m(side=0, |Z|=1) K=0,2 Z0=0 Z1="),
        ("4", "2", "--Z1 0", "no_m(side=1, |Z|=1) K=0,2 Z0= Z1=0"),
        ("4", "2", "--Z0 all", "no_m(side=0, |Z|=2) K=0,2 Z0=0,1 Z1="),
        ("4", "2", "--Z1 all", "no_m(side=1, |Z|=2) K=0,2 Z0= Z1=0,1"),
        ("4", "2", "--Z0 all --Z1 0", "with_m(|Z|=2) K=0,2 Z0=0,1 Z1=0"),
        ("4", "2", "--Z0 0 --Z1 all", "with_m(|Z|=2) K=0,2 Z0=0,1 Z1=0"),
        ("4", "0", "--Z0 0 --Z1 all", "with_m(|Z|=1) K=0,1,2,3 Z0=0 Z1=0"),
        ("4", "0", "--Z1 all", "no_m(side=1, |Z|=1) K=0 Z0= Z1=0"),
        ("2,2", "1,0", "--Z0 0,0", "no_m(side=0, |Z|=1) K=00,10 Z0=00 Z1="),
        ("2,2", "1,0", "--Z1 0,0", "no_m(side=1, |Z|=1) K=00,10 Z0= Z1=00"),
        ("2,2", "1,0", "--Z0 all", "no_m(side=0, |Z|=2) K=00,10 Z0=00,01 Z1="),
        ("2,2", "1,0", "--Z1 all", "no_m(side=1, |Z|=2) K=00,10 Z0= Z1=00,10"),
        ("2,2", "1,0", "--Z0 all --Z1 0,0", "with_m(|Z|=2) K=00,10 Z0=00,01 Z1=00"),
        ("2,2", "1,0", "--Z0 0,0 --Z1 all", "with_m(|Z|=2) K=00,01 Z0=00,10 Z1=00"),
        ("2,2", "0,0", "--Z0 0,0 --Z1 all", "with_m(|Z|=1) K=00,01,10,11 Z0=00 Z1=00"),
        ("2,2", "0,0", "--Z1 all", "no_m(side=1, |Z|=1) K=00 Z0= Z1=00"),
    ])
    def test_inferred_builder(self, tmp_path, group, K, data, want):
        out = tmp_path / "coideal.json"
        argv = ["coideal", "build", "--group", group, "--K", K, *data.split(), "--json", str(out)]
        assert run(argv) == 0
        payload = json.loads(out.read_text())
        assert built(payload["label"], payload["spec"]) == want

    def test_named_no_m_builder(self, capsys):
        code = run(
            ["coideal", "build", "--group", "4", "--K", "2", "--Z0", "all", "--builder", "no_m"]
        )
        assert code == 0
        assert "is_coideal = False" in capsys.readouterr().out

    def test_named_with_m_builder(self, capsys):
        code = run(
            [
                "coideal", "build", "--group", "4", "--K", "2",
                "--Z0", "0", "--Z1", "1", "--builder", "with_m",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "indecomposable = True" in out

    def test_with_m_builder_needs_single_rho(self, capsys):
        code = run(
            ["coideal", "build", "--group", "4", "--K", "2", "--Z0", "0", "--builder", "with_m"]
        )
        assert code == 2

    def test_json_report(self, tmp_path):
        out = tmp_path / "coideal.json"
        code = run(
            [
                "coideal",
                "build",
                "--group",
                "4",
                "--K",
                "2",
                "--Z0",
                "1",
                "--json",
                str(out),
            ]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["verified"] is True
        assert payload["is_coideal"] is False
        assert payload["indecomposable"] is True
        assert payload["dims_match_prediction"] is True


    @staticmethod
    def outputs(argv, tmp_path, capsys) -> tuple:
        """Exit code, stdout and JSON bytes of one command."""
        out = tmp_path / "coideal.json"
        code = run([*argv, "--json", str(out)])
        return code, capsys.readouterr().out, out.read_bytes()

    @pytest.mark.parametrize("tau, sign", [("+", 1), ("-", -1)])
    def test_report_names_tau(self, tau, sign, tmp_path, capsys):
        argv = ["coideal", "build", "--group", "4", "--K", "2", "--Z0", "0", "--tau", tau]
        code, out, report = self.outputs(argv, tmp_path, capsys)
        assert code == 0 and json.loads(report)["tau_sign"] == sign
        assert out.splitlines()[0] == f"axiom checks for coideal no_m(side=0, |Z|=1) on Z4 tau{tau} (tolerance 1e-09)"

    @pytest.mark.parametrize("listed, once", [("0;2;1", "0;1"), ("3;1;2;0", "0;1"), ("2;0", "0")])
    def test_repeated_cosets_are_taken_once(self, listed, once, tmp_path, capsys):
        # 0 and 2 lie in one coset of K = {0, 2}, as do 1 and 3
        base = ["coideal", "build", "--group", "4", "--K", "2"]
        got = self.outputs([*base, "--Z0", listed], tmp_path, capsys)
        assert got == self.outputs([*base, "--Z0", once], tmp_path, capsys) and got[0] == 0

    @pytest.mark.parametrize("group, K, side, reps", [
        ("4", "2", "--Z0", "0;1"), ("4", "2", "--Z1", "0;1"), ("4", "0", "--Z0", "0;1;2;3"),
        ("2,2", "1,0", "--Z0", "0,0;0,1"), ("2,2", "1,0", "--Z1", "0,0;1,0"), ("6", "2", "--Z0", "0;1"),
        ("2,4", "0,2", "--Z0", "0,0;0,1;1,0;1,1"),
    ])
    def test_all_lists_every_representative(self, group, K, side, reps, tmp_path, capsys):
        base = ["coideal", "build", "--group", group, "--K", K]
        got = self.outputs([*base, side, "all"], tmp_path, capsys)
        assert got == self.outputs([*base, side, reps], tmp_path, capsys) and got[0] == 0


# sha256 of the stdout of `classify weak-coideals --group G`, and with
# `--realize --tau T`: the per-subgroup lines and the realize summaries
CLASSIFY_STDOUT_SHA256 = {
    ("2", None): "8d44086ae90cb0cfa323b7e31be7491eaa05dd3842738f15c93dbbf744524432",
    ("4", None): "effc091da792a1db2f3bb1a71dfe7d81a99a32912e9f51074754ec44fa85ad5a",
    ("2,2", None): "679d9d1af7d0571d67560c367e31ac9fdc29a7e972e58b111201e55efda64399",
    ("2,4", None): "d89b117e3e8529cb900fd7bb28eab1279f879448372e9cb53be14d8526561d3f",
    ("2", "+"): "f7517028675ea25500cf987cced578a726b1ba40e6c93d03e68f873dd9874366",
    ("2", "-"): "f7517028675ea25500cf987cced578a726b1ba40e6c93d03e68f873dd9874366",
    ("2,2", "+"): "279f729c723b6bfd4dc1a89864deb652dd4eed3f944c3653e79e26b08e6727ec",
    ("2,2", "-"): "279f729c723b6bfd4dc1a89864deb652dd4eed3f944c3653e79e26b08e6727ec",
}


class TestClassifyCommands:
    @pytest.mark.parametrize("group,tau", CLASSIFY_STDOUT_SHA256)
    def test_stdout_pinned(self, group, tau, capsys):
        assert run(["classify", "weak-coideals", "--group", group, *(["--realize", "--tau", tau] if tau else [])]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == CLASSIFY_STDOUT_SHA256[group, tau]

    def test_z2_counts(self, capsys):
        assert run(["classify", "weak-coideals", "--group", "2"]) == 0
        out = capsys.readouterr().out
        assert "10 total, 8 coideal-containing" in out

    def test_trivial_group(self, capsys):
        assert run(["classify", "weak-coideals", "--group", "1"]) == 0
        assert "2 total, 2 coideal-containing" in capsys.readouterr().out

    def test_realize_flag(self, capsys):
        assert run(["classify", "weak-coideals", "--group", "2", "--realize"]) == 0
        assert "realized and verified" in capsys.readouterr().out

    def test_realize_counts_distinct_subalgebras(self, tmp_path, capsys):
        # the last stdout line and a top-level JSON key; the catalog alone has neither
        out = tmp_path / "realize.json"
        assert run(["classify", "weak-coideals", "--group", "2", "--realize", "--json", str(out)]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "built 5 distinct subalgebras for 10 classes"
        assert json.loads(out.read_text())["distinct_subalgebras"] == 5
        assert run(["classify", "weak-coideals", "--group", "2", "--json", str(out)]) == 0
        assert "built" not in capsys.readouterr().out and "distinct_subalgebras" not in json.loads(out.read_text())

    def test_realize_at_loose_tolerance_verifies_every_class(self, tmp_path):
        # indecomposability is a rank question, which the verdict tolerance
        # does not decide
        out = tmp_path / "realize.json"
        assert run(["classify", "weak-coideals", "--group", "8", "--realize", "--tol", "0.6",
                    "--json", str(out)]) == 0
        orbits = [o for e in json.loads(out.read_text())["per_subgroup"] for o in e["orbits"]]
        assert len(orbits) == 168 and all(o["verified"] for o in orbits)

    def test_realize_summary_counts_only_verified(self, monkeypatch, capsys):
        import tywha.cli as cli

        realize = cli.realize_and_verify

        def second_fails(alg, classes):
            realized = realize(alg, classes)
            label, key, _ = realized[1]
            realized[1] = (label, key, "injected")
            return realized

        monkeypatch.setattr(cli, "realize_and_verify", second_fails)
        assert run(["classify", "weak-coideals", "--group", "2", "--realize"]) == 1
        lines = [x.strip() for x in capsys.readouterr().out.splitlines() if "realiz" in x]
        assert lines == [
            "realization FAILED: injected",
            "realized and verified 4 of 5 representatives",
            "realized and verified 5 representatives",
        ]

    @pytest.mark.parametrize("kind", ["verification", "flag", "indecomposable", "dims"])
    def test_realize_failure_lines(self, kind, monkeypatch, capsys):
        # one verdict of assess made to fail for every class
        from tywha import coideals
        from tywha.algebra import AxiomCheck, AxiomReport
        from tywha.classify import weak_coideal_classes
        from tywha.groups import Bicharacter, FiniteAbelianGroup

        is_coideal = coideals.is_coideal
        name, fake, message = {
            "verification": ("verify_weak_coideal",
                             lambda batch, fibers=None: [
                                 AxiomReport("injected", 1e-9, [AxiomCheck("injected", 1.0, False)]) for _ in batch],
                             "realized representative fails verification: {rep}"),
            "flag": ("is_coideal", lambda wc: not is_coideal(wc),
                     "coideal flag mismatch for {rep}: built {flag}"),
            "indecomposable": ("is_indecomposable", lambda batch, fibers=None: [False] * len(batch),
                               "realized representative is decomposable: {rep}"),
            "dims": ("dims_match", lambda wc: False, "fiber dimensions disagree for {rep}"),
        }[kind]
        monkeypatch.setattr(coideals, name, fake)
        assert run(["classify", "weak-coideals", "--group", "2", "--realize"]) == 1
        group = FiniteAbelianGroup((2,))
        _, classes = weak_coideal_classes(group, Bicharacter.standard(group))
        failed = [x for x in capsys.readouterr().out.splitlines() if "FAILED" in x]
        assert failed == [f"    realization FAILED: {message.format(rep=spec, flag=not flag)}" for spec, flag in classes]
        assert all(line.count("CoidealSpec({'K': ") == 1 for line in failed)

    def test_guard_exceeded_exits_2(self):
        assert run(["classify", "weak-coideals", "--group", "17"]) == 2

    def test_realize_past_bound_exits_2_fast(self, capsys):
        # --realize is bounded by the algebra bound, 16, checked before
        # anything is built
        start = time.perf_counter()
        assert run(["classify", "weak-coideals", "--group", "17", "--realize"]) == 2
        assert time.perf_counter() - start < 2.0
        assert capsys.readouterr().err == "error: |G| = 17 exceeds algebra bound 16\n"

    def test_json_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for path in (a, b):
            assert run(["classify", "weak-coideals", "--group", "2", "--json", str(path)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_catalog_builds_no_algebra(self, tmp_path, monkeypatch, capsys):
        # only --realize needs the algebra; the catalog and its errors do not
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        argv = ["classify", "weak-coideals", "--group", "2,2", "--tol", "1e-9"]
        assert run([*argv, "--json", str(a)]) == 0
        before = capsys.readouterr()

        def refuse(self, *args, **kwargs):
            raise AssertionError("TYAlgebra built")

        monkeypatch.setattr(TYAlgebra, "__init__", refuse)
        assert run([*argv, "--json", str(b)]) == 0
        assert capsys.readouterr() == before
        assert a.read_bytes() == b.read_bytes()
        degenerate, malformed = tmp_path / "degenerate.json", tmp_path / "malformed.json"
        degenerate.write_text('{"matrix": [["0"]]}')
        malformed.write_text('{"matrix": [["1/2", "0"]]}')
        for bad, err in (
            (["--group", "17"], "|G| = 17 exceeds algebra bound 16"),
            (["--group", "17", "--realize"], "|G| = 17 exceeds algebra bound 16"),
            (["--group", "4", "--tol", "nan"], "tolerance must be finite and positive, got nan"),
            (["--group", "4", "--tol", "0"], "tolerance must be finite and positive, got 0.0"),
            (["--group", "2", "--bichar", str(degenerate)], "bicharacter degenerate"),
            (["--group", "2", "--bichar", str(malformed)], "phase matrix must be 1x1"),
            (["--group", "2", "--bichar", str(tmp_path / "missing.json")],
             f"bicharacter file not found: {tmp_path / 'missing.json'}"),
        ):
            assert run(["classify", "weak-coideals", *bad]) == 2
            assert capsys.readouterr().err == f"error: {err}\n"
        with pytest.raises(AssertionError, match="TYAlgebra built"):
            run(["classify", "weak-coideals", "--group", "2", "--realize"])

    def test_g_algebras(self, capsys, tmp_path):
        out = tmp_path / "algs.json"
        code = run(
            ["classify", "g-algebras", "--group", "2", "--max-mult", "1", "--json", str(out)]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        counts = [
            e["types"]["decomposed"]["n_classes"] for e in payload["per_subgroup"]
        ]
        assert counts == [5, 5]

    @pytest.mark.parametrize("group", ["16", "2,2,2,2"])
    def test_g_algebras_enumeration_bound(self, group, capsys):
        # the trivial subgroup pairs 16 cosets with 1: 3^17 vectors at
        # --max-mult 2 exceed the enumeration bound, 2^17 at --max-mult 1 do not
        assert run(["classify", "g-algebras", "--group", group, "--max-mult", "2"]) == 2
        assert capsys.readouterr() == ("", "error: multiplicity enumeration too large; lower max_mult\n")
        assert run(["classify", "g-algebras", "--group", group, "--max-mult", "1"]) == 0
        assert capsys.readouterr().out.startswith("algebra classes of ")


class TestParserBuiltOnce:
    # each option given in one call and left out of the next
    CALLS = [
        ["classify", "weak-coideals", "--group", "2", "--realize"],
        ["classify", "weak-coideals", "--group", "2", "--json", "{json}"],
        ["classify", "weak-coideals", "--group", "2"],
        ["coideal", "build", "--group", "4", "--K", "2", "--builder", "I_m_K", "--tau", "-", "--json", "{json}"],
        ["coideal", "build", "--group", "4", "--K", "2", "--builder", "I_m_K"],
        ["coideal", "build", "--group", "4", "--K", "2", "--Z0", "0"],
        ["coideal", "build", "--group", "4", "--K", "2", "--builder", "with_m", "--Z0", "0;1"],
    ]

    def outcomes(self, tmp_path, capsys):
        tmp_path.mkdir()
        got = []
        for i, argv in enumerate(self.CALLS):
            path = tmp_path / f"{i}.json"
            code = run([str(path) if a == "{json}" else a for a in argv])
            got.append((code, capsys.readouterr(), path.read_bytes() if path.exists() else None))
        return got

    def test_calls_match_a_fresh_parser(self, tmp_path, capsys, monkeypatch):
        assert cli.build_parser() is cli.build_parser()
        cached = self.outcomes(tmp_path / "cached", capsys)
        monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
        assert cli.build_parser() is not cli.build_parser()
        assert self.outcomes(tmp_path / "fresh", capsys) == cached
        assert [code for code, _, _ in cached] == [0, 0, 0, 0, 0, 0, 2]


# The five coideal builds of the benchmark's realize workload, and a
# single-coset build
PINNED_BUILDS = [
    ("4", "2", ("--Z0", "all", "--Z1", "0")),
    ("4", "1", ("--Z0", "0", "--Z1", "all")),
    ("4", "2", ("--builder", "I_m_K")),
    ("2,2", "1,0", ("--Z0", "0,0;0,1")),
    ("2,2", "1,1", ("--builder", "I_Omega_K")),
    ("4", "2", ("--Z0", "0")),
]


def _report_sha256(payload) -> str:
    """sha256 of a verify or coideal report without its residuals and without
    the witnesses of passing rows: a passing row's witness names the unit where
    roundoff peaks, which depends on the machine."""
    checks = [
        {k: v for k, v in c.items() if k != "residual" and (k != "witness" or not c["passed"])}
        for c in payload["checks"]
    ]
    return hashlib.sha256(json.dumps({**payload, "checks": checks}, sort_keys=True).encode()).hexdigest()


class TestReportPins:
    """Check names, instance counts, verdicts, failing witnesses, fiber
    dimensions, Gamma, the unit's support and the classification data of the
    verify and coideal reports, pinned as sha256."""

    # schema tywha-axioms/3: the datum, the translation row and per-row coverage
    VERIFY_SHA256 = {
        ("3", "+"): "5d16f62142d1027b3eebcf34861fcd79e7dca3da60ce6814c690a6ccba2f4321",
        ("3", "-"): "4506591b851d94faa670bd813dcc66e6c6e496fc27862a866f85f1fb8c113fd4",
        ("2,2", "+"): "60b557563d64ee889e47cc14195d2554cdf1b6f9384be09f6b259545c01a985c",
        ("2,2", "-"): "debc3f7fa037e64b6c29adeb5dc751bf4239fe0276754f3139b003c3ab763787",
    }
    # the same reports as tywha-axioms/2 wrote them, before the datum keys,
    # the translation row and the reduced coverage
    VERIFY_AXIOMS_2_SHA256 = {
        ("3", "+"): "1a810c3665e5a5069023c078dc8dd220760f8689271597bfe31956d2de99d49b",
        ("3", "-"): "6064fb249be5197582628f5a8d5e53ffcfdaa34b3761442fa9b31a3c7c04f64b",
        ("2,2", "+"): "5d4549c1a2ca568c05c0b6a90969d0db871ec1dcc8519f8842a0e1f108ffbaa8",
        ("2,2", "-"): "9d2825e3d4b2825bbe8617a92186b91f62b6319c446a138e65c986e4aadacfd1",
    }
    # a coideal report names its tau sign: the two signs give different bytes;
    # its rows run on the fiber rows (schema tywha-coideal/3)
    BUILD_SHA256 = {
        (0, "+"): "7c0fc34324aff56a25ea61376794b467ee701e5709e424fea003a5a92e83ff24",
        (0, "-"): "c7143205df901d7798dfe0add07d98694d45df1eaa4e263146993cbd8254855c",
        (1, "+"): "d78beff4553ba7c34b1f23276ed00d79faad8ef37dea3774f000fdce5a2afcc5",
        (1, "-"): "9237516fef8986f475d2f50cb1f6a351e842f442822d803b637568f9c28fec7a",
        (2, "+"): "1c3a1a58329a71a804196bfa79201298a6d561270f06c8b68e30b1527568e6e3",
        (2, "-"): "0cbdb11c9cbacf14d51cd65661de37b72fb7c98c09182562b5520c62dde83beb",
        (3, "+"): "281be43d2fcde42991248436857e7be0bf3a0a3fb59449d821d5341021f9417e",
        (3, "-"): "392bb8bb529fa3fb47db3e03c82ce57a5670d1e393a6ee161da3cd45edb8775b",
        (4, "+"): "16aedc14eacd230225bfc80c0c4f43a1e24891f60c928ebd07976f3a42b6278e",
        (4, "-"): "7f5ca0677ee5a820a851ec48e3ebc331f9554fb53fb0e4ed09d4add28804798c",
        (5, "+"): "61d1936566bdc34278644ff9d6620ce7ef1c7d97050a7f1bde6421c8a34051f0",
        (5, "-"): "bbaf7f22f755655a69c6cca18c2437d8c0086d6d8627e3185748ddd0e6a80ac5",
    }
    # the same reports from the rows as they ran on A (reference.a_level_report),
    # under the schema they had then, tywha-coideal/2
    BUILD_ON_A_SHA256 = {
        (0, "+"): "8b503bb717e4e920b942440df6b51ab2763260b8fdd161b9a8ef79a63cbac53c",
        (0, "-"): "59813f85ff088cdbd5cca13f5076af5fbd9b782f8537d1a2f475ec5101e3b3f4",
        (1, "+"): "e1e84b6ec522ec36a4161f1776c4842f09b80940eb884e904b054bb8f9bb065a",
        (1, "-"): "d14808a0e883dfd9cf943443a081a011a33e0e149ec0fe21340b4768b09155b3",
        (2, "+"): "3dfd8ec7c26277fb0680053fa7ff8bb5fe9099bb828932708e8c695138072d5d",
        (2, "-"): "a4ed2b838e24eff41d5f8a354d728066ae35eb949a353d27c60203114abdd996",
        (3, "+"): "6cbf7525bebee3d371fef06f7b950ecb2218a927ac64baa511deaeb324ef74c7",
        (3, "-"): "e1a1c59982e47727a0cd31ee36e0788dd56c89277ba463e6ee994887fbeaf326",
        (4, "+"): "486495d1080fe2c6f7400b0e51ba92c51f345db9b937b0aa162858254861c3bd",
        (4, "-"): "a38d53eab759d4e922cc469926b2e23dbe16213532f601a705e745be6d864539",
        (5, "+"): "7d426df1d50e35bf119b61969b936c5e3d7fb08a4946d80cada165b6b6b93344",
        (5, "-"): "a8cbd06fa1a24290048855a569c8942536f96926f33de3b141a4c1ccf68d0e71",
    }

    @staticmethod
    def report(argv, tmp_path) -> dict:
        out = tmp_path / "report.json"
        assert run([*argv, "--json", str(out)]) in (0, 1)
        return json.loads(out.read_text())

    @pytest.mark.parametrize("group,tau", sorted(VERIFY_SHA256))
    def test_verify_report_pinned(self, group, tau, tmp_path):
        payload = self.report(["wha", "verify", "--group", group, "--tau", tau], tmp_path)
        assert _report_sha256(payload) == self.VERIFY_SHA256[(group, tau)]
        # every other field is as tywha-axioms/2 wrote it
        earlier = {k: v for k, v in payload.items() if k not in ("bicharacter", "tau_sign")}
        earlier["schema"] = "tywha-axioms/2"
        earlier["checks"] = [
            {**c, "instances_checked": c["instances_total"], "mode": "exhaustive"}
            for c in payload["checks"] if c["name"] != "translations are automorphisms"
        ]
        assert _report_sha256(earlier) == self.VERIFY_AXIOMS_2_SHA256[(group, tau)]

    @pytest.mark.parametrize("build", range(len(PINNED_BUILDS)))
    @pytest.mark.parametrize("tau", ["+", "-"])
    def test_coideal_report_pinned(self, build, tau, tmp_path):
        group, K, spec = PINNED_BUILDS[build]
        argv = ["coideal", "build", "--group", group, "--K", K, *spec, "--tau", tau]
        assert _report_sha256(self.report(argv, tmp_path)) == self.BUILD_SHA256[build, tau]

    @pytest.mark.parametrize("build", range(len(PINNED_BUILDS)))
    @pytest.mark.parametrize("tau", ["+", "-"])
    def test_coideal_report_on_a_pinned(self, build, tau, tmp_path, monkeypatch):
        # the rows as they ran on A, under the schema they had, keep their pins
        monkeypatch.setattr(coideals, "verify_weak_coideal",
                            lambda batch, fibers=None: [a_level_report(wc) for wc in batch])
        group, K, spec = PINNED_BUILDS[build]
        argv = ["coideal", "build", "--group", group, "--K", K, *spec, "--tau", tau]
        payload = {**self.report(argv, tmp_path), "schema": "tywha-coideal/2"}
        assert _report_sha256(payload) == self.BUILD_ON_A_SHA256[build, tau]
