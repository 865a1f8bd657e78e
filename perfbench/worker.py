"""One benchmark pass in a fresh process: run a workload through the CLI.

    python3 -B perfbench/worker.py --root CHECKOUT --workload NAME --seed N \
        --report REPORT.json [--trace] [--setup-only]

The working directory is the pass directory; configs and outputs go
there.  dechist is imported from CHECKOUT/src and nowhere else.  The
report holds monotonic timestamps, so the parent can measure set-up from
the moment it started this process.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from workloads import WORKLOADS, fit_file  # noqa: E402


def _import_dechist(root: Path):
    src = (root / "src").resolve()
    if not (src / "dechist" / "__init__.py").is_file():
        raise SystemExit(f"error: no dechist sources under {src}")
    sys.path.insert(0, str(src))
    import dechist.cli  # noqa: F401 - loads every dechist module

    loaded = Path(sys.modules["dechist"].__file__).resolve()
    if src not in loaded.parents:
        raise SystemExit(f"error: dechist imported from {loaded}, not from {src}")
    return sys.modules["dechist.cli"]


def _commands(workload) -> list[tuple[str, list[str], str | None]]:
    """(kind, argv, file to rename fit.csv to) in run order."""
    sweeps = [
        ["sweep", "--config", f"configs/{s.name}.json", "--workers", "1"]
        for s in workload.sweeps
    ]
    cmds = [("sweep", argv, None) for argv in sweeps]
    cmds += [
        ("dynamics", ["dynamics", "--config", f"configs/{d.name}.json"], None)
        for d in workload.dynamics
    ]
    cmds += [("resume", argv, None) for argv in sweeps]
    cmds += [
        ("fit",
         ["fit", "--results", f"{s}/results.csv", "--metric", m, "--l", str(l)],
         fit_file(s, m, l))
        for s, m, l in workload.fits
    ]
    return cmds


def _environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")
    except TypeError:  # numpy < 1.26 has no mode argument
        blas = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numpy_config": blas,
        "thread_env": {
            k: os.environ.get(k)
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                      "DECHIST_WORKERS")
        },
        "nproc": len(os.sched_getaffinity(0)),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", required=True, type=Path)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--report", required=True, type=Path)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    cli = _import_dechist(args.root)
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    workload = WORKLOADS[args.workload]
    Path("configs").mkdir()
    for item in workload.sweeps + workload.dynamics:
        Path(f"configs/{item.name}.json").write_text(json.dumps(item.config(args.seed)))

    report: dict = {"first_command": time.monotonic(), "commands": []}
    if not args.setup_only:
        for kind, argv, rename in _commands(workload):
            start = time.monotonic()
            rc = cli.main(argv)
            end = time.monotonic()
            if rename and rc == 0:
                Path(argv[2]).with_name("fit.csv").rename(rename)
            report["commands"].append(
                {"kind": kind, "argv": argv, "rc": rc, "start": start, "end": end}
            )
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    report["environment"] = _environment()
    if tracer is not None:
        report["trace"] = {
            "missing": tracer.missing,
            "hook_errors": tracer.hook_errors,
            "counters": tracer.counter_values(),
            "spans": tracer.spans(),
        }
    args.report.write_text(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
