"""causalloop benchmark: one closed-loop caller, three workloads, one command.

    python3 perfbench/run.py --workload repair_break --seed 1 --seconds 30 --trace 0

Run it from the repository root; it imports the package from ``src/`` beside
this directory and refuses to run without it.  ``--trace 0`` prints the
end-to-end metrics, ``--trace 1`` one untraced and one traced pass and the
per-layer metrics.  The last line of standard output is a JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code is 0
only when every check passed.  Results, with the run environment, go to
``perfbench/out/``.  See README.md beside this file for what each workload
and metric is for.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

SPEC = os.path.join(ROOT, "BENCHMARK.json")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def load_spec() -> dict:
    """BENCHMARK.json: the workload names and the metrics to print, with units."""
    with open(SPEC) as fh:
        return json.load(fh)


def cap_blas_threads() -> int:
    """Cap BLAS threads at the CPUs this process may use; returns that count.

    Must run before numpy is imported.  Only this process's environment
    changes.
    """
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        try:
            wanted = int(os.environ.get(var, nproc))
        except ValueError:
            wanted = nproc
        os.environ[var] = str(max(1, min(wanted, nproc)))
    return nproc


def blas_threads() -> int | None:
    """Threads the loaded OpenBLAS reports, or None when it cannot be asked."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line and ".so" in line}
    except OSError:
        return None
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(nproc: int) -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": nproc,
        "blas_threads": blas_threads(),
        "blas_thread_env": {v: os.environ[v] for v in BLAS_THREAD_VARS},
        "platform": platform.platform(),
    }


def parse_args(argv: list[str] | None, workloads: list[str]) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="measured time per run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv: list[str] | None = None) -> int:
    spec = load_spec()
    args = parse_args(argv, [w["name"] for w in spec["workloads"]])
    nproc = cap_blas_threads()
    if not os.path.isfile(os.path.join(SRC, "causalloop", "__init__.py")):
        print(f"error: no causalloop package under {SRC}; run from a repository checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import_start = time.perf_counter()
    import causalloop

    if not os.path.abspath(causalloop.__file__).startswith(SRC + os.sep):
        print(f"error: imported causalloop from {causalloop.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import bench_runner

    import_s = time.perf_counter() - import_start
    os.makedirs(os.path.join(OUT, "tmp"), exist_ok=True)
    result = bench_runner.run(args.workload, args.seed, args.seconds, bool(args.trace), OUT)
    result.record["environment"] = environment(nproc)
    result.record["import_s"] = import_s
    if not args.trace:
        result.metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    for line in result.summary:
        print(line)
    metrics = {
        name: {"value": _finite(result.metrics[name]), "unit": unit} for name, unit in units.items()
    }
    for name, m in metrics.items():
        print(f"  {name:34s} {m['value']!r} {m['unit']}")
    line = {
        "correct": result.failed == 0 and all(m["value"] is not None for m in metrics.values()),
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": metrics,
    }
    result.record["result"] = line
    path = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(result.record, fh, indent=1, default=str)
    print(f"results -> {os.path.relpath(path, ROOT)}")
    print(json.dumps(line))
    return 0 if line["correct"] else 1


def _finite(v: float) -> float | None:
    return v if isinstance(v, int) or math.isfinite(v) else None


if __name__ == "__main__":
    sys.exit(main())
