"""tywha benchmark: run one workload against the checkout's ``src`` and print
its metrics, with the JSON result as the last line of standard output.

    python3 perfbench/run.py --workload axioms --seed 1 --seconds 26 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs an
untraced and a traced worker and reports the per-layer metrics and the
tracing overhead. ``--workload all`` runs every workload in turn.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_LAUNCHES = 15
# Seconds one pass of each workload takes at the seed commit on the recorded
# machine, speed ticks and gate included. They fix the number of passes a run of
# --seconds makes, the same for every commit, so that the best-of-passes
# minimum of a slower change is not taken over fewer samples.
PASS_S = {"axioms": 5.0, "realize": 4.1, "catalog": 4.0, "export": 1.7}
SETUP_SHARE_S = 4
# Each workload's children must end within this many seconds of its start.
WORKLOAD_LIMIT_S = 170
_deadline = float("inf")
PROBE = (
    "import time, tywha.cli; tywha.cli.build_parser(); "
    "print(time.monotonic(), tywha.cli.__file__)"
)


class BenchError(Exception):
    pass


def child_env() -> dict:
    # One client, no extra threads: with two BLAS threads on two cores, any
    # other busy process leaves OpenBLAS spin-waiting and a pass can take 15x
    # longer.
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_child(argv: list[str]) -> str:
    proc = subprocess.run(
        [sys.executable, *argv], env=child_env(), capture_output=True, text=True,
        timeout=max(1.0, _deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        raise BenchError(f"child {argv[:2]} exited {proc.returncode}:\n{proc.stderr}")
    return proc.stdout


def setup_seconds() -> float:
    """Median time, in reference seconds, from launching an interpreter until
    the CLI parser is built."""
    samples = []
    for _ in range(SETUP_LAUNCHES):
        before = speed.ticks()
        t0 = time.monotonic()
        ready, module_file = run_child(["-c", PROBE]).split()
        if not Path(module_file).resolve().is_relative_to(SRC.resolve()):
            raise BenchError(f"tywha imported from {module_file}, not from {SRC}")
        mean_tick = statistics.fmean(before + speed.ticks())
        samples.append(speed.adjust(float(ready) - t0, mean_tick))
    return statistics.median(samples)


def passes_for(workload: str, seconds: float) -> int:
    return max(1, int((seconds - SETUP_SHARE_S) / PASS_S[workload]))


def run_worker(workload: str, seed: int, passes: int, trace: bool) -> dict:
    out = OUT / workload / ("traced" if trace else "plain")
    argv = [str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
            "--passes", str(passes), "--out", str(out)]
    stdout = run_child(argv + (["--trace"] if trace else []))
    return json.loads(stdout.splitlines()[-1])


def gate_counts(result: dict) -> tuple[int, int, list[str]]:
    attempted, failed, notes = 0, 0, []
    for n, p in enumerate(result["passes"]):
        for name, problems in zip(result["commands"], p["problems"]):
            attempted += 1
            if problems:
                failed += 1
                notes.append(f"FAIL pass {n} {name}: {'; '.join(problems)}")
    return attempted, failed, notes


def adjusted_times(pass_: dict) -> list[float]:
    """Each command's time in a pass, in reference seconds (see speed.py)."""
    return [speed.adjust(t, tick) for t, tick in zip(pass_["times"], pass_["tick"])]


def best_times(result: dict) -> list[float]:
    """Each command's best adjusted time over the run's passes: transient
    contention on a shared machine only ever adds time, so the minimum is the
    steadiest estimate of the uncontended cost."""
    return [min(ts) for ts in zip(*map(adjusted_times, result["passes"]))]


def end_to_end(workload: str, seed: int, seconds: float) -> tuple[dict, list[dict]]:
    setup = setup_seconds()
    result = run_worker(workload, seed, passes_for(workload, seconds), trace=False)
    passes = result["passes"]
    best = best_times(result)
    raw = [min(ts) for ts in zip(*(p["times"] for p in passes))]
    for name, t, r in zip(result["commands"], best, raw):
        print(f"# {workload}: {name}: {t:.3f} ref s, {r:.3f} wall s (best of {len(passes)} passes)")
    metrics = {
        "wall_s": (sum(best), "s"),
        "slowest_cmd_s": (max(best), "s"),
        "setup_s": (setup, "s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
    }
    return metrics, [result]


def per_layer(workload: str, seed: int, seconds: float) -> tuple[dict, list[dict]]:
    # A traced pass takes up to twice as long as a plain one.
    passes = max(1, passes_for(workload, seconds) // 3)
    plain = run_worker(workload, seed, passes, trace=False)
    traced = run_worker(workload, seed, passes, trace=True)
    wall_plain, wall_traced = sum(best_times(plain)), sum(best_times(traced))
    metrics = {
        name: (value, "count" if isinstance(value, int) else "s")
        for name, value in traced["layers"].items()
    }
    metrics["trace.wall_s"] = (wall_traced, "s")
    metrics["trace.overhead_s"] = (wall_traced - wall_plain, "s")
    return metrics, [plain, traced]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=26)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    if not (SRC / "tywha" / "cli.py").is_file():
        print(f"error: no tywha sources at {SRC}", file=sys.stderr)
        return 2

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    attempted = failed = 0
    out_metrics = {}
    global _deadline
    for workload in names:
        _deadline = time.monotonic() + WORKLOAD_LIMIT_S
        if args.trace:
            metrics, results = per_layer(workload, args.seed, args.seconds)
        else:
            metrics, results = end_to_end(workload, args.seed, args.seconds)
        a = f = 0
        for result in results:
            ra, rf, notes = gate_counts(result)
            a, f = a + ra, f + rf
            for note in notes:
                print(f"# {workload}: {note}")
        attempted, failed = attempted + a, failed + f
        print(f"# {workload}: env {json.dumps(results[-1]['env'], sort_keys=True)}")
        print(f"# {workload}: failed_frac {f / a:.4f} ({f} of {a} commands)")
        for name, (value, unit) in metrics.items():
            print(f"{workload} {name} {value if isinstance(value, int) else f'{value:.6g}'} {unit}")
            key = name if len(names) == 1 else f"{workload}.{name}"
            out_metrics[key] = {"value": value, "unit": unit}

    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": out_metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(1)
