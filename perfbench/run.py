#!/usr/bin/env python3
"""Benchmark entry point: one workload, one seed, one process.

    python3 perfbench/run.py --workload canonical_cnn --seed 0 --seconds 40 --trace 0

Run from the repository root. The package is imported from ``src/`` of the
same checkout, with BLAS pinned to one thread. The last line of standard
output is the result: ``{"correct", "attempted", "failed", "metrics"}``, with
the end-to-end metrics of BENCHMARK.json when ``--trace 0`` and its per-layer
metrics when ``--trace 1``. Earlier lines print the environment record, every
metric by name and unit, and where the run record was written
(``.bench_out/``). A traced run also writes its spans and self times there.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
import tempfile
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def _git_sha() -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown' outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    import numpy as np

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": int(os.environ["OPENBLAS_NUM_THREADS"])},
        "git_sha": _git_sha(),
        "src_wsp_lines": sum(len(p.read_text().splitlines()) for p in sorted((SRC / "wsp").glob("*.py"))),
    }


def main(argv=None) -> int:
    spec_path = ROOT / "BENCHMARK.json"
    spec = json.loads(spec_path.read_text())
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="shrink every workload (smoke test)")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "wsp" / "__init__.py").is_file():
        print(f"error: no wsp package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2

    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"  # before numpy is imported
    t0 = perf_counter()
    sys.path[:0] = [str(SRC), str(HERE)]
    import numpy  # noqa: F401
    import workloads
    import_s = perf_counter() - t0
    if not Path(workloads.ad.__file__).resolve().is_relative_to(SRC):
        print("error: wsp was not imported from this checkout", file=sys.stderr)
        return 2

    env = environment()
    print("ENV " + json.dumps(env, sort_keys=True))
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root)
    try:
        result, details, tracer = workloads.run(
            args.workload, args.seed, args.seconds, bool(args.trace), args.tiny, workdir, import_s
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    declared = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if set(result["metrics"]) != set(units):
        missing = sorted(set(units) - set(result["metrics"]))
        extra = sorted(set(result["metrics"]) - set(units))
        print(f"error: metrics differ from BENCHMARK.json: missing {missing}, undeclared {extra}", file=sys.stderr)
        return 1
    result["metrics"] = {name: {"value": result["metrics"][name], "unit": units[name]} for name in units}

    for name, row in result["metrics"].items():
        print(f"{name:<32} {row['value']!r:>24} {row['unit']}")
    for key, value in details.items():
        print(f"{key:<32} {value}")
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "tiny": args.tiny, "env": env, "details": details, "result": result}
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(f"record {out_dir / (stem + '.json')}")
    if tracer is not None:
        path = out_dir / f"{stem}.trace.json"
        tracer.write(path, {"workload": args.workload, "seed": args.seed, "env": env})
        print(f"trace {path}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
