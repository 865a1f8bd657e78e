#!/usr/bin/env python3
"""Write the seed-0 reference CSVs the correctness check compares with.

    python3 perfbench/make_reference.py

The committed references were written by the commit that added the
benchmark.  Regenerating them makes the check compare a program with
itself, so only do it for a deliberate change of the science outputs.
"""

from __future__ import annotations

import json
import shutil
import sys

from check import ABS_TOL, REL_TOL, read_sections
from run import REFERENCE, ROOT, spawn
from workloads import BENCH_WORKLOADS, WORKLOADS


def _argmax_ties(sweep, results_csv) -> dict[str, list[str]]:
    """Rows whose delta_max is reached, within tolerance, by several subsets.

    Recomputes each seed-0 realization in process and maps
    "<row>:argmax_subset_bitmask" to every tied subset bitmask.
    """
    sys.path.insert(0, str(ROOT / "src"))
    from dechist import (InitFamily, Regime, SweepSpec, build_hamiltonian,
                         compute_realization_df, delta_max, eigendecompose, marginalize)

    spec = SweepSpec(
        d_grid=sweep.d_grid, num_hamiltonian_seeds=sweep.num_hamiltonian_seeds,
        num_state_seeds=sweep.num_state_seeds, base_seed=0,
        regime=Regime(sweep.regime), init_family=InitFamily(sweep.family),
        num_steps=sweep.num_steps,
    )
    row_of = {
        (int(r["d"]), int(r["h_seed"]), int(r["s_seed"]), int(r["l"])): i
        for i, r in enumerate(read_sections(results_csv)[""])
    }
    ties = {}
    for d in spec.d_grid:
        for h in range(spec.num_hamiltonian_seeds):
            hamiltonian = build_hamiltonian(spec.model_config(d, h))
            sd = eigendecompose(hamiltonian)
            for s in range(spec.num_state_seeds):
                df, _, _ = compute_realization_df(spec, d, h, s, hamiltonian, sd)
                for length in range(2, spec.l_max + 1):
                    per_subset = delta_max(marginalize(df, range(length))).per_subset
                    best = max(per_subset.values())
                    tied = sorted(m for m, v in per_subset.items()
                                  if v >= best - (ABS_TOL + REL_TOL * best))
                    if len(tied) > 1:
                        key = (d, spec.hamiltonian_seed(h), spec.state_seed(h, s), length)
                        ties[f"{row_of[key]}:argmax_subset_bitmask"] = [str(m) for m in tied]
    return ties


def main() -> int:
    for name in BENCH_WORKLOADS + ("selftest",):
        p = spawn(name, 0, timeout=600.0)
        try:
            if p.report is None or any(c["rc"] for c in p.report["commands"]):
                print(f"{name}: pass failed\n{p.log}", file=sys.stderr)
                return 1
            for rel in WORKLOADS[name].output_files():
                target = REFERENCE / name / rel
                target.parent.mkdir(parents=True, exist_ok=True)
                shutil.copyfile(p.directory / rel, target)
                if target.name == "results.csv":
                    ties = _argmax_ties(WORKLOADS[name].sweep(target.parent.name), target)
                    alt = target.with_name("results.csv.alternatives.json")
                    alt.unlink(missing_ok=True)
                    if ties:
                        alt.write_text(json.dumps(ties, indent=0, sort_keys=True) + "\n")
            print(f"{name}: {len(WORKLOADS[name].output_files())} files")
        finally:
            shutil.rmtree(p.directory, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
