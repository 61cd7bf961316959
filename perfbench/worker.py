"""One workload run in a fresh interpreter: a single client calls
``tywha.cli.main(argv)`` in process, one command at a time (closed loop).

Started by run.py with ``src`` on PYTHONPATH. Prints one JSON object: the
time of each command in each pass, the mean machine-speed tick around and
during it (``speed.py``), the gate's findings, peak RSS and the BLAS set-up.
The number of passes is fixed by the caller, so that a slower or faster
change is measured on as many samples as its parent.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import json
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import tywha.cli

import speed
import tracing
import workloads


def blas_info() -> dict:
    """OpenBLAS version and thread count, read from numpy's bundled library."""
    import numpy as np

    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libdir / "libscipy_openblas*.so")):
        lib = ctypes.CDLL(path)
        lib.scipy_openblas_get_config64_.restype = ctypes.c_char_p
        lib.scipy_openblas_get_num_threads64_.restype = ctypes.c_int
        return {
            "numpy": np.__version__,
            "blas": lib.scipy_openblas_get_config64_().decode(),
            "blas_threads": lib.scipy_openblas_get_num_threads64_(),
        }
    return {"numpy": np.__version__, "blas": "unknown", "blas_threads": None}


def run_pass(cmds, out_dir: Path, pins: dict) -> dict:
    """One pass over ``cmds``. ``tick[i]`` is the mean speed tick taken just
    before, during and just after command i; ``times[i]`` excludes the ticks
    taken during it."""
    times, ticks, problems = [], [], []
    before = speed.ticks()
    with open(os.devnull, "w") as sink:
        for i, cmd in enumerate(cmds):
            path = out_dir / f"cmd{i}.json"
            path.unlink(missing_ok=True)
            argv = [*cmd.argv, "--json", str(path)]
            during = []
            t0 = time.perf_counter()
            try:
                with speed.sampling(during), contextlib.redirect_stdout(sink):
                    rc = tywha.cli.main(argv)
            except Exception:  # a crash is one failed command, not a failed run
                traceback.print_exc()
                rc = "exception"
            times.append(time.perf_counter() - t0 - sum(during))
            after = speed.ticks()
            ticks.append(statistics.fmean(before + during + after))
            before = after
            problems.append(workloads.gate(cmd, rc, path, pins))
    return {"times": times, "tick": ticks, "problems": problems}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--passes", type=int, required=True)
    ap.add_argument("--out", required=True, help="directory for reports and spans")
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    cmds = workloads.WORKLOADS[args.workload](args.seed)
    pins = workloads.load_pins()
    tracer = tracing.Tracer() if args.trace else None
    if tracer:
        tracer.install()

    passes = [run_pass(cmds, out_dir, pins) for _ in range(args.passes)]
    result = {
        "commands": [c.name for c in cmds],
        "passes": passes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "env": {"python": sys.version.split()[0], "nproc": len(os.sched_getaffinity(0)), **blas_info()},
    }
    if tracer:
        tracer.save(out_dir / "spans.npz")
        result["layers"] = tracing.summarize(tracer.arrays(), tracer.counts, args.passes)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
