#!/usr/bin/env python3
"""Check that two source trees write the same dechist output files.

Usage: python tools/same_outputs.py OLD_ROOT NEW_ROOT

Each root is a checkout holding `src/dechist`.  A fixed list of dechist
commands runs against each tree's `src/`, every case in a fresh
temporary directory.  Each command of CASES runs in its own process, so
every decomposition in it is fresh, and a sweep that repeats one before
it resumes from that one's records; the commands of a case in
ONE_PROCESS_CASES share one process, so later commands read the matrices
that earlier ones stored; its last sweep runs in forked `--workers 2`
workers, which read them too.  Every other sweep runs with `--workers 1`.
Every file must match byte for byte, so a tree older than schema 2, which
also wrote a `wall_time_s` timing field, differs from a later one.
One line per file reports `same` or `DIFF`.  A CSV or JSON file that differs
also reports the largest relative and absolute deviations of its floats
and names the first other cell (an integer, a string, a key or the
shape) that differs: `row N column C: old -> new` for a CSV file, N
being the file's line number and C the header's name for the column
(`row N` alone on a `#` comment line), or the key path for a JSON file, led by `line N` in a JSONL file.  The
exit code is 1 on any difference and 2 when a command fails.
"""

from __future__ import annotations

import csv
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

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
    # The second sweep, in a process of its own, finds every record on
    # disk and writes results.csv from the records it reads back.
    (
        "goe_weak_l6_resumed",
        {
            "model": {"d_grid": [5, 50, 250]},
            "grid": {"num_steps": 5},
            "sweep": {"num_hamiltonian_seeds": 2, "num_state_seeds": 4},
        },
        [(["sweep", "--workers", "1"], None)] * 2,
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
        "gue_dynamics_two_starts",
        {
            "model": {"v_minus": 20, "ensemble": "gue"},
            "init": {"weights": [[1.0, 0.0, 0.0], [0.3, 0.4, 0.3]]},
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
    # The sweeps below grow state seeds' trees in batches: 5 + 3 at GOE
    # D=500, 3 + 2 at GUE D=50 and 5 at D=500, 40 all-'-' seeds one by one
    # at GOE D=500 and in 13 batches of 3 and one of 1 at D=1000, and 6
    # seeds on an explicit step (about 0.6 tau) one by one at GOE D=50,
    # in 3 + 3 at D=100 and in one batch at D=500.
    (
        "goe_nonequilibrium_batched_l3",
        {
            "model": {"d_grid": [50, 500]},
            "grid": {"num_steps": 2},
            "init": {"family": "haar_nonequilibrium", "weights": [0.5, 0.25, 0.25]},
            "sweep": {"num_hamiltonian_seeds": 1, "num_state_seeds": 8},
        },
        [(["sweep", "--workers", "1"], None)],
    ),
    (
        "gue_eigenstate_batched_l2",
        {
            "model": {"d_grid": [50, 500], "ensemble": "gue"},
            "grid": {"num_steps": 1},
            "init": {"family": "eigenstate"},
            "sweep": {"num_hamiltonian_seeds": 1, "num_state_seeds": 5},
        },
        [(["sweep", "--workers", "1"], None)],
    ),
    *[
        (
            f"goe_all_minus_batches_l5{suffix}",
            {
                "model": {"d_grid": [d]},
                "grid": {"num_steps": 4},
                "init": {"family": "haar_nonequilibrium"},
                "sweep": {"num_hamiltonian_seeds": 1, "num_state_seeds": 40},
            },
            [(["sweep", "--workers", "1"], None)],
        )
        for d, suffix in ((500, ""), (1000, "_d1000"))
    ],
    # Every entry below LAPACK's rescale threshold (about 1e-146), so the
    # eigensolver scales each matrix up and its eigenvalues back down.
    *[
        (
            f"{ensemble}_tiny_delta_e_l4",
            {
                "model": {"d_grid": [5, 10, 50], "ensemble": ensemble, "delta_e": 1e-150},
                "grid": {"num_steps": 3},
            },
            [(["sweep", "--workers", "1"], None)],
        )
        for ensemble in ("goe", "gue")
    ],
    *[
        (
            f"goe_explicit_step_batched_l2{suffix}",
            {
                "model": {"d_grid": d_grid},
                "grid": {"num_steps": 1, "step_mode": 12.5},
                "sweep": {"num_hamiltonian_seeds": 1, "num_state_seeds": 6},
            },
            [(["sweep", "--workers", "1"], None)],
        )
        for d_grid, suffix in (([50, 500], ""), ([100], "_d100"))
    ],
]


def _sweep_and_eigenstate(name: str, model: dict) -> dict:
    """Configs of a weak sweep and an eigenstate sweep on the same matrices."""
    return {
        f"{name}_{family}.json": {
            "model": model,
            "grid": {"num_steps": 4},
            "init": {"family": family},
            "sweep": {"num_hamiltonian_seeds": 2, "num_state_seeds": 3},
            "output": {"directory": f"{name}_{family}"},
        }
        for family in ("haar_equilibrium", "eigenstate")
    }


_GOE = _sweep_and_eigenstate("goe", {"d_grid": [5, 50, 250]})

# (name, {config file: config}, argv of each command in run order).
ONE_PROCESS_CASES = [
    (
        "shared_matrices_one_process",
        {
            **_GOE,
            # The weak GOE sweep again, by forked workers that read the
            # matrices this process stored.
            "goe_workers2.json": {
                **_GOE["goe_haar_equilibrium.json"],
                "output": {"directory": "goe_workers2"},
            },
            **_sweep_and_eigenstate("gue", {"d_grid": [5, 50], "ensemble": "gue"}),
            # D=50 with base seed 0 is the sweeps' (D=50, h_index=0) matrix.
            "dynamics.json": {
                "model": {"v_minus": 10},
                "init": {"weights": [[1.0, 0.0, 0.0], [0.2, 0.6, 0.2]]},
                "output": {"directory": "dynamics"},
            },
        },
        [
            ["sweep", "--config", "goe_haar_equilibrium.json", "--workers", "1"],
            ["sweep", "--config", "goe_eigenstate.json", "--workers", "1"],
            ["dynamics", "--config", "dynamics.json"],
            ["sweep", "--config", "gue_haar_equilibrium.json", "--workers", "1"],
            ["sweep", "--config", "gue_eigenstate.json", "--workers", "1"],
            ["sweep", "--config", "goe_workers2.json", "--workers", "2"],
        ],
    ),
]

# Runs dechist.cli.main on each argv of a JSON list, in this one process.
_ONE_PROCESS = (
    "import json, sys\n"
    "from dechist.cli import main\n"
    "for argv in json.loads(sys.argv[1]):\n"
    "    if main(argv):\n"
    "        sys.exit(f'dechist {argv} failed')\n"
)


def _python(root: Path, workdir: Path, args: list[str], what: str) -> None:
    """Run python with root/src on the path and workdir as cwd."""
    proc = subprocess.run(
        [sys.executable, *args],
        cwd=workdir, env={**os.environ, "PYTHONPATH": str(root / "src")},
        capture_output=True, text=True,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"{root}: {what} exited {proc.returncode}: {proc.stderr.strip()}"
        )


def run_case(root: Path, workdir: Path, config: dict, commands) -> None:
    """Run one case's commands against root/src with workdir as cwd."""
    workdir.mkdir()
    config = {**config, "output": {"directory": "out"}}
    (workdir / "config.json").write_text(json.dumps(config, indent=2) + "\n")
    for argv, fit_name in commands:
        if argv[0] != "fit":
            argv = [argv[0], "--config", "config.json", *argv[1:]]
        _python(root, workdir, ["-m", "dechist.cli", *argv], f"dechist {' '.join(argv)}")
        if fit_name is not None:
            (workdir / "out" / "fit.csv").rename(workdir / "out" / fit_name)


def run_one_process_case(root: Path, workdir: Path, configs: dict, commands) -> None:
    """Run a ONE_PROCESS_CASES entry against root/src with workdir as cwd."""
    workdir.mkdir()
    for name, config in configs.items():
        (workdir / name).write_text(json.dumps(config, indent=2) + "\n")
    _python(root, workdir, ["-c", _ONE_PROCESS, json.dumps(commands)], "one process")


def _values(path: Path, data: bytes):
    """A CSV file's rows of cells, or a JSON or JSONL file's documents."""
    text = data.decode()
    if path.suffix == ".csv":
        return list(csv.reader(text.splitlines()))
    if path.suffix == ".jsonl":
        return [json.loads(line) for line in text.splitlines()]
    return json.loads(text)


def _cell(value):
    """A CSV cell as an int or a float where it reads as one."""
    for kind in (int, float):
        try:
            return kind(value)
        except ValueError:
            pass
    return value


def _deviation(old, new, path=()) -> tuple[float, float, tuple | None]:
    """(largest relative and absolute float deviations, the first other
    difference as (path, description) or None)."""
    if isinstance(old, str) and isinstance(new, str):
        old, new = _cell(old), _cell(new)
    if isinstance(old, float) and isinstance(new, float):
        if old == new or (math.isnan(old) and math.isnan(new)):
            return 0.0, 0.0, None
        return abs(old - new) / max(abs(old), abs(new)), abs(old - new), None
    if isinstance(old, dict) and isinstance(new, dict):
        pairs = [(k, old[k], new[k]) for k in old if k in new]
        only = sorted(old.keys() ^ new.keys())
        first = (path, f"keys in one tree only: {only}") if only else None
    elif isinstance(old, list) and isinstance(new, list):
        pairs = list(zip(range(len(old)), old, new))
        first = None if len(old) == len(new) else (path, f"length {len(old)} -> {len(new)}")
    else:
        differs = type(old) is not type(new) or old != new
        return 0.0, 0.0, (path, f"{old} -> {new}") if differs else None
    rel = absolute = 0.0
    for key, a, b in pairs:
        r, d, other = _deviation(a, b, path + (key,))
        rel, absolute, first = max(rel, r), max(absolute, d), first or other
    return rel, absolute, first


def _where(suffix: str, values, path: tuple) -> str:
    """A difference's path as `row N column C` or a dotted key path."""
    if suffix == ".jsonl" and path:
        return f"line {path[0] + 1} {_where('.json', values, path[1:])}"
    if suffix == ".csv" and path:
        header = next((row for row in values if row and not row[0].startswith("#")), [])
        row = values[path[0]] if path[0] < len(values) else []
        comment = bool(row) and row[0].startswith("#")  # a comment line has no columns
        column = header[path[1]] if len(path) > 1 and path[1] < len(header) else None
        return f"row {path[0] + 1}" + (f" column {column}" if column and not comment else "")
    return ".".join(map(str, path)) or "whole file"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    old_root, new_root = (Path(a).resolve() for a in argv)
    differ = False
    with tempfile.TemporaryDirectory() as old_tmp, tempfile.TemporaryDirectory() as new_tmp:
        runs = [(run_case, *case) for case in CASES]
        runs += [(run_one_process_case, *case) for case in ONE_PROCESS_CASES]
        for run, name, config, commands in runs:
            old_dir, new_dir = Path(old_tmp) / name, Path(new_tmp) / name
            try:
                run(old_root, old_dir, config, commands)
                run(new_root, new_dir, config, commands)
            except RuntimeError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
            files = sorted(
                {p.relative_to(old_dir) for p in old_dir.rglob("*") if p.is_file()}
                | {p.relative_to(new_dir) for p in new_dir.rglob("*") if p.is_file()}
            )
            for rel in files:
                old, new = old_dir / rel, new_dir / rel
                if not (old.is_file() and new.is_file()):
                    differ = True
                    print(f"DIFF {name}/{rel} (only in one tree)")
                    continue
                old_data, new_data = old.read_bytes(), new.read_bytes()
                if old_data == new_data:
                    print(f"same {name}/{rel}")
                    continue
                differ = True
                detail = ""
                if rel.suffix in (".csv", ".json", ".jsonl"):
                    old_values = _values(rel, old_data)
                    dev, absolute, first = _deviation(old_values, _values(rel, new_data))
                    detail = f"  max float deviation rel {dev:.1e} abs {absolute:.1e}, "
                    if first is None:
                        detail += "other cells equal"
                    else:
                        where = _where(rel.suffix, old_values, first[0])
                        detail += f"first other difference {where}: {first[1]}"
                print(f"DIFF {name}/{rel}{detail}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
