#!/usr/bin/env python3
"""Alternating parent/change perfbench runs, written as one BENCH JSON file.

Usage:
    python3 tools/bench_pairs.py PARENT_ROOT CHANGE_ROOT --out BENCH_W.json
        --pairs W:FIRST-LAST [--pairs W2:FIRST-LAST ...]
        [--traced-prefix PREFIX ...] [--parent LABEL] [--change LABEL]

Each root is a checkout holding `perfbench/` and `src/`.  For every seed
of every `--pairs` entry both roots run

    python3 perfbench/run.py --workload W --seed SEED --seconds 10 --trace 0

one after the other, the first of each pair alternating between parent
and change.  The result of a run is the JSON object on the last line of
its stdout.  The first `--pairs` workload is the claimed one: its pairs
and summary are the file's top level.  Later workloads go under
`no_regression`, each with its own summary and runs.  With
`--traced-prefix`, each root also makes one traced (`--trace 1`) seed-0
run of the claimed workload; `traced_seed0` keeps its per-layer metrics
whose names start with one of the prefixes.

Each run keeps perfbench's `correct`, `attempted` and `failed`; a run
that is not correct is reported on stderr, and its timings stay in the
file.  A summary gives, per end-to-end metric, the quartiles (inclusive
method) of the parent's and the change's runs, the number of pairs the
change won, and `worse_by`, how far the change's median is worse than
the parent's as a fraction of it (negative when better).
`beyond_bound` is true when that exceeds the metric's `bound` in
BENCHMARK.json.  In the claimed workload's summary, `claim_met` is the
gain rule: the change wins at least 9/10 of the pairs, its median is
better by more than the parent's interquartile range, and no more of
its runs are incorrect.  `incorrect_runs` counts, per side, the runs
whose outputs failed a check.  The file is rewritten after every run,
so a cut measurement keeps the pairs it finished.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

COMMAND = "python3 perfbench/run.py --workload {w} --seed {seed} --seconds 10 --trace {t}"


def run(root: Path, workload: str, seed: int, trace: int) -> dict:
    """One perfbench run in root; its JSON result line."""
    argv = COMMAND.format(w=workload, seed=seed, t=trace).split()
    argv[0] = sys.executable
    proc = subprocess.run(argv, cwd=root, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{root}: {' '.join(argv)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        print(f"{root}: {' '.join(argv)}: incorrect outputs, "
              f"{result['failed']} of {result['attempted']} operations failed",
              file=sys.stderr, flush=True)
    return result


def quartiles(values: list[float]) -> list[float]:
    return statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values


def summary(runs: list[dict], end_to_end: list[dict], claimed: bool) -> dict:
    """Per metric: both sides' quartiles, the change's wins, how much
    worse its median is against the bound, and for the claimed workload
    whether the gain rule holds.  Also the incorrect runs per side."""
    incorrect = {s: sum(not r[s]["correct"] for r in runs) for s in ("parent", "change")}
    out: dict = {"incorrect_runs": incorrect}
    for metric in end_to_end:
        name, sign = metric["name"], (1 if metric["better"] == "lower" else -1)
        sides = {s: [r[s]["metrics"][name]["value"] for r in runs] for s in ("parent", "change")}
        wins = sum(sign * (c - p) < 0 for p, c in zip(sides["parent"], sides["change"]))
        q = {s: quartiles(v) for s, v in sides.items()}
        parent_median, change_median = (statistics.median(sides[s]) for s in ("parent", "change"))
        worse_by = sign * (change_median - parent_median) / parent_median if parent_median else 0.0
        entry = {"parent_quartiles": q["parent"], "change_quartiles": q["change"],
                 "change_wins": wins, "pairs": len(runs), "worse_by": worse_by,
                 "beyond_bound": worse_by > metric["bound"]}
        if claimed:
            iqr = q["parent"][-1] - q["parent"][0]
            entry["claim_met"] = (wins >= 0.9 * len(runs)
                                  and sign * (parent_median - change_median) > iqr
                                  and incorrect["change"] <= incorrect["parent"])
        out[name] = entry
    return out


def seeds(text: str) -> tuple[str, range]:
    workload, span = text.split(":")
    first, last = (int(x) for x in span.split("-"))
    return workload, range(first, last + 1)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_root", type=Path)
    parser.add_argument("change_root", type=Path)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--pairs", type=seeds, action="append", required=True)
    parser.add_argument("--traced-prefix", action="append", default=[])
    parser.add_argument("--parent", default="")
    parser.add_argument("--change", default="")
    args = parser.parse_args()
    roots = {"parent": args.parent_root.resolve(), "change": args.change_root.resolve()}
    spec = json.loads((roots["parent"] / "BENCHMARK.json").read_text())
    end_to_end = spec["end_to_end"]

    claimed = args.pairs[0][0]
    cores = len(os.sched_getaffinity(0))  # perfbench's BLAS thread count
    record = {
        "workload": claimed,
        "command": COMMAND.format(w=claimed, seed="SEED", t=0),
        "parent": args.parent,
        "change": args.change,
        "machine": (f"{cores} vCPU, OpenBLAS threads = {cores}, "
                    f"Python {platform.python_version()}"),
        "summary": {},
        "traced_seed0": {},
        "runs": [],
        "no_regression": {},
    }

    def save() -> None:
        args.out.write_text(json.dumps(record, indent=1) + "\n")

    for workload, span in args.pairs:
        target = record if workload == claimed else (
            record["no_regression"].setdefault(workload, {"summary": {}, "runs": []}))
        runs = target["runs"]
        for seed in span:
            order = ("parent", "change") if len(runs) % 2 == 0 else ("change", "parent")
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                pair[side] = run(roots[side], workload, seed, 0)
                print(f"{workload} seed {seed} {side}: "
                      f"wall_s {pair[side]['metrics']['wall_s']['value']:.3f}", flush=True)
            runs.append(pair)
            target["summary"] = summary(runs, end_to_end, workload == claimed)
            save()

    if args.traced_prefix:
        for side, root in roots.items():
            metrics = run(root, claimed, 0, 1)["metrics"]
            record["traced_seed0"][side] = {
                name: m["value"] for name, m in metrics.items()
                if name.startswith(tuple(args.traced_prefix))
            }
            save()
    return 0


if __name__ == "__main__":
    sys.exit(main())
