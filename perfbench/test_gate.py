"""The correctness gate passes on real output and trips on a wrong pin or a
failed check. Run: python3 -m pytest -q perfbench/test_gate.py"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
import tywha.cli  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

PINS = workloads.load_pins()


def _command(workload: str, name: str) -> workloads.Command:
    return next(c for c in workloads.WORKLOADS[workload](0) if c.name == name)


def _run(cmd: workloads.Command, path: Path) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return tywha.cli.main([*cmd.argv, "--json", str(path)])


@pytest.fixture(scope="module")
def realized(tmp_path_factory):
    cmd = _command("realize", "realize 3")
    path = tmp_path_factory.mktemp("gate") / "realize.json"
    return cmd, _run(cmd, path), path


@pytest.fixture(scope="module")
def export(tmp_path_factory):
    cmd = _command("export", "export 6")
    path = tmp_path_factory.mktemp("gate") / "export.json"
    return cmd, _run(cmd, path), path


def test_pins_cover_every_command():
    for make in workloads.WORKLOADS.values():
        assert all(c.name in PINS for c in make(0))


def test_benchmark_json_lists_what_a_run_reports():
    bench = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    traced = tracing.metric_names() + ["trace.wall_s", "trace.overhead_s"]
    assert [m["name"] for m in bench["per_layer"]] == traced


def test_gate_passes_on_seed_output(realized, export):
    for cmd, rc, path in (realized, export):
        assert workloads.gate(cmd, rc, path, PINS) == []


def test_gate_trips_on_wrong_pinned_count(realized):
    cmd, rc, path = realized
    pins = copy.deepcopy(PINS)
    pins[cmd.name]["total_classes"] += 1
    assert any("total_classes" in p for p in workloads.gate(cmd, rc, path, pins))


def test_gate_trips_on_wrong_export_digest(export):
    cmd, rc, path = export
    pins = copy.deepcopy(PINS)
    pins[cmd.name]["sha256"] = "0" * 64
    assert any("sha256" in p for p in workloads.gate(cmd, rc, path, pins))


def test_gate_trips_on_changed_export_bytes(export, tmp_path):
    cmd, rc, path = export
    changed = tmp_path / "export.json"
    changed.write_bytes(path.read_bytes() + b" ")
    assert workloads.gate(cmd, rc, changed, PINS)


def test_gate_trips_on_nonzero_exit(realized):
    cmd, _, path = realized
    assert workloads.gate(cmd, 1, path, PINS) == ["exit code 1"]


def _verify_report(tmp_path, checks, passed=True) -> Path:
    path = tmp_path / "verify.json"
    path.write_text(json.dumps({"passed": passed, "checks": checks}))
    return path


def test_gate_on_verify_reports(tmp_path):
    cmd = _command("axioms", "verify 4 +")
    names = PINS[cmd.name]["check_names"]
    ok = [{"name": n, "passed": True, "residual": 0.0} for n in names]
    extra = ok + [{"name": "a check added later", "passed": True, "residual": 0.0}]
    assert workloads.gate(cmd, 0, _verify_report(tmp_path, extra), PINS) == []

    large = copy.deepcopy(ok)
    large[1]["residual"] = 1e-6
    assert workloads.gate(cmd, 0, _verify_report(tmp_path, large), PINS)
    assert workloads.gate(cmd, 0, _verify_report(tmp_path, ok[1:]), PINS)
    assert workloads.gate(cmd, 0, _verify_report(tmp_path, ok, passed=False), PINS)


def test_gate_trips_on_unverified_realized_orbit(tmp_path):
    cmd = _command("realize", "realize 3")
    pins = PINS[cmd.name]
    payload = {
        "total_classes": pins["total_classes"],
        "total_coideal_classes": pins["total_coideal_classes"],
        "per_subgroup": [
            {"K": k, "n_classes": n, "n_coideal": c, "burnside_ok": True,
             "orbits": [{"verified": True}] * n}
            for k, n, c in pins["per_subgroup"]
        ],
    }
    path = tmp_path / "realize.json"
    path.write_text(json.dumps(payload))
    assert workloads.gate(cmd, 0, path, PINS) == []
    payload["per_subgroup"][0]["orbits"][0] = {"verified": False}
    path.write_text(json.dumps(payload))
    assert workloads.gate(cmd, 0, path, PINS)


def test_burnside_recount_is_not_counted():
    tracer = tracing.Tracer()
    counter = dict((name, c) for _, _, name, c in tracing.TARGETS)["classify.orbit_partition"]
    partition = tracer.wrap("classify.orbit_partition", lambda points: [points], counter)
    burnside = tracer.wrap("classify.burnside_check", lambda points: len(partition(points)))
    partition(frozenset({1, 2, 3}))
    burnside(frozenset({1, 2, 3}))
    assert tracer.counts == {"classify.points": 3, "classify.orbits": 1}
    layers = tracing.summarize(tracer.arrays(), tracer.counts)
    assert layers["classify.orbit_partition.calls"] == 2


@pytest.mark.parametrize("name", ["g-algebras 4 max-mult 3", "describe 2,2,2,4"])
def test_gate_on_catalog_reports(name, tmp_path):
    cmd = _command("catalog", name)
    path = tmp_path / "report.json"
    rc = _run(cmd, path)
    assert workloads.gate(cmd, rc, path, PINS) == []

    pins = copy.deepcopy(PINS)
    if cmd.kind == "g-algebras":
        pins[name]["total_classes"] += 1
    else:
        pins[name]["subgroups"][0][-1] += 1
    assert workloads.gate(cmd, rc, path, pins)

    if cmd.kind == "g-algebras":
        payload = json.loads(path.read_text())
        types = payload["per_subgroup"][0]["types"]
        next(iter(types.values()))["burnside_count"] += 1
        path.write_text(json.dumps(payload))
        assert any("Burnside" in p for p in workloads.gate(cmd, rc, path, PINS))
