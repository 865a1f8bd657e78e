#!/usr/bin/env python3
"""Benchmark of dechist sweeps, run from the root of a checkout.

    python3 perfbench/run.py --workload gate_mini --seed 0 --seconds 20 --trace 0

Each pass runs one workload (see workloads.py) through `dechist.cli.main`
in a fresh process and a fresh directory under `.bench_runs/`, then
checks every CSV it wrote (check.py).  Passes repeat until `--seconds`
of passes have run.  `--trace 0` reports the end-to-end metrics named
in BENCHMARK.json; `--trace 1` adds one traced pass and reports the
per-layer metrics.  The last stdout line is one JSON object; a full
record with the environment goes to `.bench_results/`.

Before measuring, a self-test makes sure the checker rejects the D=5
reference results.csv with a perturbed epsilon_avg and accepts it with
only wall_time_s changed.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import check  # noqa: E402
from tracer import TRACED, summarize  # noqa: E402
from workloads import BENCH_WORKLOADS, WORKLOADS  # noqa: E402

ROOT = HERE.parent
REFERENCE = HERE / "reference"
RUNS_DIR = ROOT / ".bench_runs"
RESULTS_DIR = ROOT / ".bench_results"

RUN_BUDGET_S = 170.0  # whole invocation, under the 180 s limit
SETUP_PROBES = 9
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
DYNAMICS_SAMPLES = 201  # 0..20 tau in steps of 0.1 tau


@dataclass
class Pass:
    workload: str
    directory: Path
    spawned: float
    returncode: int | None
    report: dict | None
    log: str


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("DECHIST_WORKERS", None)
    env.pop("PYTHONPATH", None)
    threads = str(len(os.sched_getaffinity(0)))
    env.update({k: threads for k in THREAD_VARS})
    return env


def spawn(workload: str, seed: int, timeout: float, trace: bool = False,
          setup_only: bool = False) -> Pass:
    """Run worker.py once in a fresh directory; the caller removes it."""
    RUNS_DIR.mkdir(exist_ok=True)
    directory = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=RUNS_DIR))
    report = directory / "report.json"
    cmd = [sys.executable, "-B", str(HERE / "worker.py"), "--root", str(ROOT),
           "--workload", workload, "--seed", str(seed), "--report", str(report)]
    cmd += ["--trace"] * trace + ["--setup-only"] * setup_only
    log_path = directory / "worker.log"
    with log_path.open("w") as log:
        spawned = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=directory, env=_child_env(),
                                stdout=log, stderr=subprocess.STDOUT)
        try:
            returncode = proc.wait(timeout=max(timeout, 1.0))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            returncode = None
    data = json.loads(report.read_text()) if returncode == 0 and report.exists() else None
    return Pass(workload, directory, spawned, returncode, data, log_path.read_text())


def _check_files(p: Pass, seed: int) -> list[str]:
    """Problems per output file, as 'file: problem' strings."""
    workload = WORKLOADS[p.workload]
    problems = []
    for rel in workload.output_files():
        path = p.directory / rel
        if not path.is_file():
            problems.append(f"{rel}: missing")
            continue
        name = path.parent.name
        try:
            if path.name == "results.csv":
                sweep = workload.sweep(name)
                found = check.results_invariants(path, sweep.realizations * sweep.num_steps)
            elif path.name == "dynamics.csv":
                blocks = next(d for d in workload.dynamics if d.name == name).weights
                found = check.dynamics_invariants(path, len(blocks), DYNAMICS_SAMPLES)
            else:
                found = check.fit_invariants(path, len(workload.sweep(name).d_grid))
            if seed == 0 and not found:
                found = check.compare(path, REFERENCE / p.workload / rel)
        except Exception as exc:  # noqa: BLE001 - a malformed file is a failed check
            found = [f"unreadable: {type(exc).__name__}: {exc}"]
        if found:
            problems.append(f"{rel}: {found[0]} ({len(found)} problem(s))")
    return problems


def _records(path: Path) -> tuple[int, int]:
    """(records, records carrying an error) of a realizations.jsonl."""
    if not path.is_file():
        return 0, 0
    lines = [line for line in path.read_text().splitlines() if line.strip()]
    return len(lines), sum(1 for line in lines if "error" in json.loads(line))


def evaluate(p: Pass, seed: int) -> dict:
    """Metrics and failure counts of one finished pass."""
    workload = WORKLOADS[p.workload]
    expected = sum(s.realizations for s in workload.sweeps)
    files = workload.output_files()
    num_commands = 2 * len(workload.sweeps) + len(workload.dynamics) + len(workload.fits)
    attempted = expected + num_commands + len(files)
    if p.report is None:
        tail = p.log.strip().splitlines()[-5:]
        return {"attempted": attempted, "failed": attempted,
                "problems": [f"worker exited with {p.returncode}"] + tail}

    commands = p.report["commands"]
    problems = [f"{c['kind']} {' '.join(c['argv'])}: exit {c['rc']}"
                for c in commands if c["rc"] != 0]
    failed = len(problems)
    written = errors = 0
    jsonl_bytes = 0
    for sweep in workload.sweeps:
        path = p.directory / sweep.name / "realizations.jsonl"
        n, bad = _records(path)
        written, errors = written + n, errors + bad
        jsonl_bytes += path.stat().st_size if path.is_file() else 0
    lost = expected - (written - errors)
    if lost:
        problems.append(f"{lost} of {expected} realizations failed or missing")
    file_problems = _check_files(p, seed)
    problems += file_problems
    failed += lost + len(file_problems)

    def seconds(kind: str) -> float:
        return sum(c["end"] - c["start"] for c in commands if c["kind"] == kind)

    fresh_s = seconds("sweep")
    return {
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "environment": p.report["environment"],
        "wall_s": commands[-1]["end"] - commands[0]["start"],
        "setup_s": p.report["first_command"] - p.spawned,
        "realizations_per_s": (written - errors) / fresh_s if fresh_s > 0 else 0.0,
        "peak_rss_mb": p.report["peak_rss_mb"],
        "experiments.records_written": written,
        "experiments.jsonl_mb": jsonl_bytes / 1e6,
        "experiments.resume_s": seconds("resume"),
        "cli.csv_mb": sum(f.stat().st_size for f in p.directory.rglob("*.csv")) / 1e6,
    }


def layer_metrics(trace: dict) -> dict[str, float]:
    """Per-layer metrics of a traced pass, keyed as in BENCHMARK.json."""
    out: dict[str, float] = {}
    summary = summarize(trace["spans"])
    for name in TRACED:
        if name in trace["missing"]:
            continue
        for key, value in summary.get(name, {"calls": 0, "s": 0.0, "self_s": 0.0}).items():
            out[f"{name}.{key}"] = value
    counters = trace["counters"]
    eig = counters.get("spectral.eigendecompose", {})
    if "distinct" in eig:
        calls = out.get("spectral.eigendecompose.calls", 0)
        out["spectral.eigendecompose.distinct"] = eig["distinct"]
        out["spectral.eigendecompose.useful_ratio"] = eig["distinct"] / calls if calls else 0.0
    evolve = counters.get("spectral.evolve_batch", {})
    for key in ("rows", "gflop_computed"):
        if key in evolve:
            out[f"spectral.evolve_batch.{key}"] = evolve[key]
    leaves = counters.get("histories.compute_branch_states", {})
    if leaves.get("leaves"):
        out["histories.compute_branch_states.live_ratio"] = leaves["live"] / leaves["leaves"]
        out["histories.compute_branch_states.leaf_mb_computed"] = leaves["leaf_mb_computed"]
    return out


def selftest() -> list[str]:
    """Checker self-test on the D=5 reference; returns what went wrong."""
    reference = REFERENCE / "selftest" / "tiny" / "results.csv"
    lines = reference.read_text().splitlines(keepends=True)
    header = lines[1].rstrip("\n").split(",")
    eps, wall = header.index("epsilon_avg"), header.index("wall_time_s")
    RUNS_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="selftest-", dir=RUNS_DIR) as tmp:
        def variant(edit, first_row: int = 2) -> Path:
            rows = [line.rstrip("\n").split(",") for line in lines[first_row:]]
            for row in rows:
                edit(row)
            out = Path(tmp) / "results.csv"
            out.write_text("".join(lines[:first_row])
                           + "".join(",".join(r) + "\n" for r in rows))
            return out

        errors = []
        if check.compare(variant(lambda r: r.__setitem__(wall, "123.5")), reference):
            errors.append("self-test: a wall_time_s change was rejected")
        if check.compare(variant(lambda r: r.pop(wall), first_row=1), reference):
            errors.append("self-test: dropping the wall_time_s column was rejected")
        bumped = variant(lambda r: r.__setitem__(eps, repr(float(r[eps]) * (1 + 1e-5))))
        if not check.compare(bumped, reference):
            errors.append("self-test: an epsilon_avg change of 1e-5 was accepted")
    return errors


def _source_stamp() -> dict:
    """Git commit when the checkout is a repository, and a digest of src/."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    stamp = {"src_sha256": digest.hexdigest(), "git_sha": None}
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_path = ROOT / ".git" / ref[5:]
            ref = ref_path.read_text().strip() if ref_path.is_file() else None
        stamp["git_sha"] = ref
    return stamp


def main() -> int:
    parser = argparse.ArgumentParser(description="dechist sweep benchmark")
    parser.add_argument("--workload", required=True, choices=BENCH_WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    started = time.monotonic()
    deadline = started + RUN_BUDGET_S

    if not (ROOT / "src" / "dechist" / "__init__.py").is_file():
        print(f"error: no dechist sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    errors = selftest()
    if errors:
        print("\n".join(errors), file=sys.stderr)
        return 1

    setups = []
    for _ in range(SETUP_PROBES):
        probe = spawn(args.workload, args.seed, deadline - time.monotonic(), setup_only=True)
        shutil.rmtree(probe.directory, ignore_errors=True)
        if probe.report is None:
            print(f"error: set-up probe failed:\n{probe.log}", file=sys.stderr)
            return 1
        setups.append(probe.report["first_command"] - probe.spawned)

    passes: list[dict] = []
    measure_start = time.monotonic()
    longest = 0.0
    reserve = 1.5 if args.trace else 1.0  # a traced pass still has to fit
    while not passes or (
        time.monotonic() - measure_start < args.seconds
        and time.monotonic() + longest * (1.0 + reserve) < deadline
    ):
        t0 = time.monotonic()
        p = spawn(args.workload, args.seed, deadline - t0)
        passes.append(evaluate(p, args.seed))
        shutil.rmtree(p.directory, ignore_errors=True)
        longest = max(longest, time.monotonic() - t0)

    traced = None
    if args.trace:
        p = spawn(args.workload, args.seed, deadline - time.monotonic(), trace=True)
        traced = evaluate(p, args.seed)
        if p.report is not None:
            traced["trace"] = p.report["trace"]
        shutil.rmtree(p.directory, ignore_errors=True)

    runs = passes + ([traced] if traced else [])
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    timed = [r for r in passes if "wall_s" in r]
    values: dict[str, float] = {}
    if timed:
        for key in ("wall_s", "realizations_per_s", "peak_rss_mb"):
            values[key] = statistics.median(r[key] for r in timed)
        values["setup_s"] = statistics.median(setups + [r["setup_s"] for r in timed])
    if traced and "trace" in traced:
        values.update(layer_metrics(traced["trace"]))
        for key in ("experiments.records_written", "experiments.jsonl_mb",
                    "experiments.resume_s", "cli.csv_mb"):
            values[key] = traced[key]
        if "wall_s" in values:
            values["trace_overhead_s"] = traced["wall_s"] - values["wall_s"]

    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"missing metrics (reported as 0): {', '.join(missing)}", file=sys.stderr)
    metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]}
               for m in wanted}
    for r in runs:
        for problem in r["problems"]:
            print(f"check failed: {problem}", file=sys.stderr)

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "source": _source_stamp(),
        "environment": timed[0]["environment"] if timed else None,
        "setup_probes_s": setups, "passes": passes, "traced": traced,
        "metrics": metrics, "missing": missing,
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    out = RESULTS_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}.json"
    out.write_text(json.dumps(record, indent=1, default=str))
    for name, m in metrics.items():
        print(f"{name} = {m['value']} {m['unit']}")
    print(f"record: {out.relative_to(ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
