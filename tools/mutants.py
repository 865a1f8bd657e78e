#!/usr/bin/env python3
"""Run the tests outside the acceptance gate against source mutants.

Usage: python tools/mutants.py [NAME ...]

Each mutant is one (file, old, new) text edit.  It is applied alone to a
fresh copy of the checkout's `src/`, `tests/`, `tools/` and README in a
temporary directory, and there

    python -m pytest -q -x -p no:cacheprovider --ignore=tests/test_acceptance.py

runs against the copy's `src/` (about 20 s a run on 2 cores).  A mutant
is `killed` when the tests fail and `survived` when they pass.  Every
edit of MUTANTS changes an output or a rule that the tests must pin, so
each should be killed; EQUIVALENT holds edits that change no value in
exact arithmetic, each with the reason, so they are expected to
survive.  With names, only those mutants run.  One line per mutant
reports its name, the expectation and the verdict.  The exit code is 1
when a verdict differs from its expectation, and 2 for an unknown name
or an edit whose old text is not found exactly once in its file.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# name -> (file, old, new): edits the tests must kill.
MUTANTS = {
    "dynamics_header_zero_plus": (
        "src/dechist/cli.py",
        'DYNAMICS_HEADER = ["t", "p_minus", "p_zero", "p_plus"]',
        'DYNAMICS_HEADER = ["t", "p_minus", "p_plus", "p_zero"]',
    ),
    "results_forward_backward": (
        "src/dechist/cli.py",
        '"p_forward": ("p_forward", float),\n'
        '    "p_noarrow": ("p_noarrow", float),\n'
        '    "p_backward": ("p_backward", float),',
        '"p_forward": ("p_backward", float),\n'
        '    "p_noarrow": ("p_noarrow", float),\n'
        '    "p_backward": ("p_forward", float),',
    ),
    "fit_header_alpha_intercept": (
        "src/dechist/cli.py",
        '"metric", "alpha", "intercept",',
        '"metric", "intercept", "alpha",',
    ),
    "distance_header_mean_count": (
        "src/dechist/cli.py",
        '"hamming", "eps_mean", "pair_count"]',
        '"hamming", "pair_count", "eps_mean"]',
    ),
    # The stack's live bands taken from its first start only: a later
    # start's branches in the other bands would be dropped.
    "live_bands_first_start": (
        "src/dechist/histories.py",
        "np.any(starts[:, a:b])",
        "np.any(starts[0, a:b])",
    ),
    # The reflectors parked from numpy's lower triangle, which is
    # LAPACK's upper one: the back-transformation reads zeros.
    "park_numpy_lower_triangle": (
        "src/dechist/spectral.py",
        "return (row[j:] for j, row in enumerate(h))",
        "return (row[:j + 1] for j, row in enumerate(h))",
    ),
    # The reflectors parked through a buffered file: on a full disk the
    # rows a write left in the buffer fail again on close, and the
    # solve raises ENOSPC instead of keeping them in memory.
    "park_buffered_file": (
        "src/dechist/spectral.py",
        "lambda: TemporaryFile(buffering=0)",
        "TemporaryFile",
    ),
    # The store appended through a buffered file: after a failed append
    # on a full disk the rows left in the buffer fail again in the next
    # hit's seek, which raises ENOSPC instead of mapping the entry.
    "store_buffered_file": (
        "src/dechist/experiments.py",
        "tempfile.TemporaryFile(buffering=0)",
        "tempfile.TemporaryFile()",
    ),
    # A stored hit mapped outside the store's fault rule: a map that
    # raises fails every seed of the group instead of solving afresh.
    "store_map_outside_fault_rule": (
        "src/dechist/experiments.py",
        "        try:\n"
        "            evecs = np.memmap(fh, dtype, \"r\", offset, (evals.size, evals.size))\n",
        "        evecs = np.memmap(fh, dtype, \"r\", offset, (evals.size, evals.size))\n"
        "        try:\n",
    ),
    # Failed results written to the stream again: a rerun would skip
    # their keys, and results.csv would keep lacking their rows.
    "record_failed_results": (
        "src/dechist/experiments.py",
        "for r in batch if not r.failed]",
        "for r in batch]",
    ),
    # Failed records kept on load, as older releases wrote them: a rerun
    # of an older directory would never retry them.
    "load_failed_records": (
        "src/dechist/experiments.py",
        'if isinstance(data, dict) and "error" in data:',
        "if False:",
    ),
    # The last of several maximal subsets reported, not the first.
    "subset_max_last_tie": (
        "src/dechist/metrics.py",
        "best = masks[int(np.argmax(distances))]",
        "best = masks[-1 - int(np.argmax(distances[::-1]))]",
    ),
    # Batches sized to the whole eigenvector bytes: a group's trees
    # and eigenvectors pass the eigensolve's peak of 2 D x D arrays.
    "batch_whole_eigenvector_bytes": (
        "src/dechist/histories.py",
        "sd.eigenvectors.nbytes // (2 * working)",
        "sd.eigenvectors.nbytes // working",
    ),
    # No heap trim before a solve: the coupling blocks it dropped and the
    # heap top that earlier trees left stay under the solve's peak.
    "solve_without_malloc_trim": (
        "src/dechist/spectral.py",
        "    del hamiltonian\n"
        "    if _MALLOC_TRIM is not None:\n"
        "        _MALLOC_TRIM(0)\n",
        "    del hamiltonian\n",
    ),
    # No heap trim after a solve: the trees stack on the pages the solve
    # freed, and a group peaks above its eigensolve.
    "solve_leaves_heap_untrimmed": (
        "src/dechist/spectral.py",
        "    z = np.ascontiguousarray(z.T)\n"
        "    if _MALLOC_TRIM is not None:\n"
        "        _MALLOC_TRIM(0)\n",
        "    z = np.ascontiguousarray(z.T)\n",
    ),
    # The package root without the metrics module's public names.
    "root_drops_metrics_names": (
        "src/dechist/__init__.py",
        "from .metrics import *\n",
        "",
    ),
    # The shared weight-triple check loosened: a triple whose sum is off
    # by 1e-10 passes both the config and the state sampler.
    "weight_tolerance_1e9": (
        "src/dechist/spectral.py",
        "bad_sum = not abs(w.sum() - 1.0) <= 1e-12",
        "bad_sum = not abs(w.sum() - 1.0) <= 1e-9",
    ),
    # A stream record parsed outside the load's error rule: a complete
    # line that is JSON but not a record exits 1 and names no file.
    "stream_record_outside_error_rule": (
        "src/dechist/experiments.py",
        "                try:\n"
        "                    data.pop(\"wall_time_s\", None)  # schema-1 records carry a timing\n"
        "                    result = result_from_dict(data)\n",
        "                data.pop(\"wall_time_s\", None)  # schema-1 records carry a timing\n"
        "                result = result_from_dict(data)\n"
        "                try:\n"
        "                    pass\n",
    ),
}

# name -> (file, old, new, reason): edits that change no exact value.
EQUIVALENT = {
    "marginalize_untied_bra": (
        "src/dechist/histories.py",
        "if kept[-1] < n:",
        "if False:",
        "branches whose labels at the last kept time differ are orthogonal, "
        "so the sum over the later labels ties the bra digit in exact arithmetic",
    ),
    "equilibrium_weights_literal": (
        "src/dechist/experiments.py",
        "default = tuple(v / coarsening.dimension for v in coarsening.volumes)",
        "default = (0.2, 0.6, 0.2)",
        "the volumes are D/5, 3D/5 and D/5, and each quotient rounds to the "
        "same float as 0.2 or 0.6",
    ),
    "park_without_diagonal": (
        "src/dechist/spectral.py",
        "return (row[j:] for j, row in enumerate(h))",
        "return (row[j + 1:] for j, row in enumerate(h))",
        "?ormtr and ?unmtr read the reflectors below the subdiagonal only; the "
        "diagonal after the reduction is the tridiagonal's, never read again",
    ),
}


def run(file: str, old: str, new: str) -> str:
    """`killed` or `survived` for one edit applied to a fresh copy."""
    with tempfile.TemporaryDirectory(prefix="dechist-mutant-") as tmp:
        copy = Path(tmp)
        for part in ("src", "tests", "tools"):
            shutil.copytree(ROOT / part, copy / part,
                            ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "README.md", copy)  # the CLI tests run its commands
        target = copy / file
        text = target.read_text()
        if text.count(old) != 1:
            print(f"{file}: old text found {text.count(old)} times, not once",
                  file=sys.stderr)
            raise SystemExit(2)
        target.write_text(text.replace(old, new))
        env = {**os.environ, "PYTHONPATH": str(copy / "src")}
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
             "--ignore=tests/test_acceptance.py", "tests"],
            cwd=copy, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
    return "survived" if proc.returncode == 0 else "killed"


def main(names: list[str]) -> int:
    edits = {name: (*edit, "killed") for name, edit in MUTANTS.items()}
    edits |= {name: (*edit[:3], "survived") for name, edit in EQUIVALENT.items()}
    unknown = sorted(set(names) - set(edits))
    if unknown:
        print(f"unknown mutant(s): {', '.join(unknown)}", file=sys.stderr)
        return 2
    status = 0
    for name, (file, old, new, expected) in edits.items():
        if names and name not in names:
            continue
        verdict = run(file, old, new)
        status |= verdict != expected
        print(f"{name}: expected {expected}, {verdict}", flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
