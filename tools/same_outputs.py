#!/usr/bin/env python3
"""Check that two source trees write the same dechist output files.

Usage: python tools/same_outputs.py OLD_ROOT NEW_ROOT

Each root is a checkout holding `src/dechist`.  A fixed list of dechist
commands runs against each tree's `src/`, every case in a fresh
temporary directory, sweeps with `--workers 1`.  The `wall_time_s`
field is removed from `results.csv` and `realizations.jsonl`; every
other file must match byte for byte.  One line per file reports `same`
or `DIFF`; the exit code is 1 on any difference and 2 when a command
fails.
"""

from __future__ import annotations

import csv
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

TIMING = "wall_time_s"

# (name, config, commands); each command is (argv, name to move fit.csv to).
CASES = [
    (
        "goe_weak_l6",
        {
            "model": {"d_grid": [5, 50, 500]},
            "grid": {"num_steps": 5},
            "sweep": {"num_hamiltonian_seeds": 3, "num_state_seeds": 10},
        },
        [(["sweep", "--workers", "1"], None)]
        + [
            (["fit", "--results", "out/results.csv", "--metric", m, "--l", l],
             f"fit_{m}_l{l}.csv")
            for m in ("epsilon", "delta")
            for l in ("2", "6")
        ],
    ),
    (
        "gue_strong_random_nonequilibrium_l5",
        {
            "model": {
                "d_grid": [5, 50, 250],
                "regime": "strong",
                "ensemble": "gue",
                "diagonal_spacing": "random",
            },
            "grid": {"num_steps": 4, "step_mode": {"random_uniform": [0.5, 1.5]}},
            "init": {"family": "haar_nonequilibrium"},
            "sweep": {"num_hamiltonian_seeds": 2, "num_state_seeds": 3},
        },
        [(["sweep", "--workers", "1"], None)],
    ),
    (
        "eigenstate_l6",
        {
            "model": {"d_grid": [5, 50, 250]},
            "grid": {"num_steps": 5},
            "init": {"family": "eigenstate"},
            "sweep": {"num_hamiltonian_seeds": 2, "num_state_seeds": 3},
        },
        [(["sweep", "--workers", "1"], None)],
    ),
    (
        "dynamics_two_starts",
        {
            "model": {"v_minus": 20},
            "init": {"weights": [[0.2, 0.6, 0.2], [0.6, 0.3, 0.1]]},
        },
        [(["dynamics"], None)],
    ),
    (
        "goe_all_minus_v40_l6",
        {
            "model": {"v_minus": 40},
            "grid": {"num_steps": 5},
            "init": {"family": "haar_nonequilibrium"},
        },
        [(["histogram"], None), (["distance"], None), (["dump-df"], None)],
    ),
    (
        "gue_eigenstate_v1_l4",
        {
            "model": {"v_minus": 1, "ensemble": "gue"},
            "grid": {"num_steps": 3},
            "init": {"family": "eigenstate"},
        },
        [(["histogram"], None), (["distance"], None), (["dump-df"], None)],
    ),
]


def run_case(root: Path, workdir: Path, config: dict, commands) -> None:
    """Run one case's commands against root/src with workdir as cwd."""
    workdir.mkdir()
    config = {**config, "output": {"directory": "out"}}
    (workdir / "config.json").write_text(json.dumps(config, indent=2) + "\n")
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    for argv, fit_name in commands:
        if argv[0] != "fit":
            argv = [argv[0], "--config", "config.json", *argv[1:]]
        proc = subprocess.run(
            [sys.executable, "-m", "dechist.cli", *argv],
            cwd=workdir, env=env, capture_output=True, text=True,
        )
        if proc.returncode != 0:
            raise RuntimeError(
                f"{root}: dechist {' '.join(argv)} exited {proc.returncode}: "
                f"{proc.stderr.strip()}"
            )
        if fit_name is not None:
            (workdir / "out" / "fit.csv").rename(workdir / "out" / fit_name)


def _strip_timing(path: Path) -> bytes:
    """File bytes, with the timing field removed where it is written."""
    data = path.read_bytes()
    if path.name == "results.csv":
        lines = data.decode().splitlines(keepends=True)
        header = next(i for i, line in enumerate(lines) if not line.startswith("#"))
        col = next(csv.reader([lines[header]])).index(TIMING)
        out = io.StringIO()
        for i, line in enumerate(lines):
            if i >= header:
                body = line.rstrip("\r\n")
                fields = next(csv.reader([body]))
                del fields[col]
                line = ",".join(fields) + line[len(body):]
            out.write(line)
        return out.getvalue().encode()
    if path.name == "realizations.jsonl":
        return re.sub(rb'(, )?"%s": [^,}]*' % TIMING.encode(), b"", data)
    return data


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    old_root, new_root = (Path(a).resolve() for a in argv)
    differ = False
    with tempfile.TemporaryDirectory() as old_tmp, tempfile.TemporaryDirectory() as new_tmp:
        for name, config, commands in CASES:
            old_dir, new_dir = Path(old_tmp) / name, Path(new_tmp) / name
            try:
                run_case(old_root, old_dir, config, commands)
                run_case(new_root, new_dir, config, commands)
            except RuntimeError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
            files = sorted(
                {p.relative_to(old_dir) for p in old_dir.rglob("*") if p.is_file()}
                | {p.relative_to(new_dir) for p in new_dir.rglob("*") if p.is_file()}
            )
            for rel in files:
                old, new = old_dir / rel, new_dir / rel
                same = old.is_file() and new.is_file() and (
                    _strip_timing(old) == _strip_timing(new)
                )
                differ |= not same
                print(f"{'same' if same else 'DIFF'} {name}/{rel}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
