"""Benchmark of the icasc engine: one workload per run, in one process.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload train_icasc --seed 1 --seconds 30 --trace 0

Workloads: ``train_icasc``, ``eval_attention``, ``attend`` (see
``workloads.py``).  With ``--trace 0`` the run reports the end-to-end
metrics; with ``--trace 1`` it wraps the public functions of the icasc
layers and reports per-layer metrics from the spans (see ``layers.py``).
The second-to-last line of standard output is a JSON object with the
run's provenance, checks and outcome; the last line is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Scratch files go to ``.bench_work/`` under the checkout and are removed at
exit, except the spans of a traced run (``.bench_work/spans-*.jsonl``).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("train_icasc", "eval_attention", "attend")


def _blas_info() -> dict:
    """BLAS name, version and thread count as NumPy's OpenBLAS reports them."""
    import ctypes
    import numpy as np

    info = {"name": "unknown", "version": "unknown", "threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info.update(name=blas.get("name"), version=blas.get("version"))
    except (TypeError, KeyError):
        pass
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = fn()
                return info
    return info


def _provenance(args, sizes) -> dict:
    import numpy as np

    commit = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = done.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "icasc").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return {
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas_info(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "sizes": {k: getattr(sizes, k) for k in sizes.__dataclass_fields__},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "icasc" / "__init__.py").is_file():
        print(f"perfbench: no icasc sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # One client, one thread: the overlap report's pool stays off and BLAS
    # runs single-threaded, which also keeps runs steady on shared cores.
    os.environ.pop("SHARPEN_FOCUS_THREADS", None)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    bench_dir = ROOT / ".bench_work"
    work = bench_dir / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    try:
        out = workloads.run(args.workload, args.seed, args.seconds,
                            bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if args.trace:
        spans_file = bench_dir / f"spans-{args.workload}-s{args.seed}.jsonl"
        with open(spans_file, "w", encoding="utf-8") as fh:
            for record in out["spans"]:
                fh.write(json.dumps(record) + "\n")
        out["info"]["spans_file"] = str(spans_file.relative_to(ROOT))

    out["info"]["provenance"] = _provenance(args, workloads.BENCH)
    print(json.dumps(out["info"]))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
