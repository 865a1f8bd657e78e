"""Correctness checks for the CSV files a benchmark pass writes.

Seed 0 is compared with reference files committed in `reference/`.  A
CSV is read as sections: the part before any comment line, then one
section per comment line (`# points`, `# init 0.2,0.6,0.2`, ...), each
with its own header row.  The `# schema_version=N` line is skipped.
Columns match by name and `wall_time_s` is ignored, so the check
survives that column moving to a sidecar file.  Integers and labels
compare exactly, floats within REL_TOL/ABS_TOL.

Any seed is also checked against closed-form invariants:
pair_count = 3^(2L-1) - 3^L, p_forward + p_noarrow + p_backward = 1,
0 <= delta_max <= 1, and for dynamics p_- + p_0 + p_+ = 1.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

REL_TOL = 1e-7
ABS_TOL = 1e-12
SUM_TOL = 1e-9
IGNORED_COLUMNS = frozenset({"wall_time_s"})

Sections = dict[str, list[dict[str, str]]]


def read_sections(path: Path) -> Sections:
    sections: dict[str, list[str]] = {"": []}
    current = ""
    with path.open(newline="") as fh:
        for line in fh:
            if line.startswith("# schema_version="):
                continue
            if line.startswith("#"):
                current = line[1:].strip()
                sections[current] = []
            else:
                sections[current].append(line)
    out: Sections = {}
    header = None
    for name, lines in sections.items():
        rows = list(csv.reader(lines))
        # A section opens with its own header unless its first row holds
        # numbers (dynamics blocks reuse the header above them).
        if rows and not any(_is_number(cell) for cell in rows[0]):
            header, rows = rows[0], rows[1:]
        out[name] = [
            {k: v for k, v in zip(header, row) if k not in IGNORED_COLUMNS}
            for row in rows
        ]
    return out


def _is_number(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def _is_integer(text: str) -> bool:
    return text.lstrip("-").isdigit()


def _cell_matches(got: str, want: str) -> bool:
    if got == want:
        return True
    if want == "" or _is_integer(want) or _is_integer(got):
        return False
    try:
        g, w = float(got), float(want)
    except ValueError:
        return False
    if math.isnan(w):
        return math.isnan(g)
    return abs(g - w) <= ABS_TOL + REL_TOL * abs(w)


def compare(got_path: Path, want_path: Path) -> list[str]:
    """Differences between two CSV files; empty when they match.

    A reference may come with `<name>.alternatives.json`, mapping
    "<row>:<column>" of the first section to every value accepted there.
    make_reference.py writes it where a maximum is tied within the float
    tolerance, so that which of the tied subsets wins is not checked.
    """
    got, want = read_sections(got_path), read_sections(want_path)
    alt_path = want_path.with_name(want_path.name + ".alternatives.json")
    alternatives = json.loads(alt_path.read_text()) if alt_path.is_file() else {}
    problems = []
    if list(got) != list(want):
        return [f"sections {list(got)} != reference {list(want)}"]
    for name, want_rows in want.items():
        got_rows = got[name]
        if len(got_rows) != len(want_rows):
            problems.append(f"[{name}] {len(got_rows)} rows, reference has {len(want_rows)}")
            continue
        for i, (g, w) in enumerate(zip(got_rows, want_rows)):
            if set(g) != set(w):
                problems.append(f"[{name}] row {i}: columns {sorted(g)} != {sorted(w)}")
                break
            for column, value in w.items():
                accepted = alternatives.get(f"{i}:{column}", []) if name == "" else []
                if not _cell_matches(g[column], value) and g[column] not in accepted:
                    problems.append(
                        f"[{name}] row {i} {column}: {g[column]!r} != reference {value!r}"
                    )
    return problems


def _close(a: float, b: float, tol: float = SUM_TOL) -> bool:
    return abs(a - b) <= tol


def results_invariants(path: Path, expected_rows: int) -> list[str]:
    rows = read_sections(path)[""]
    problems = []
    if len(rows) != expected_rows:
        problems.append(f"{len(rows)} rows, expected {expected_rows}")
    for i, row in enumerate(rows):
        try:
            length = int(row["l"])
            pairs = int(row["pair_count"])
            delta = float(row["delta_max"])
            eps = float(row["epsilon_avg"])
            arrows = float(row["p_forward"]) + float(row["p_noarrow"]) + float(row["p_backward"])
        except (KeyError, ValueError) as exc:
            problems.append(f"row {i}: unreadable: {exc}")
            continue
        if pairs != 3 ** (2 * length - 1) - 3**length:
            problems.append(f"row {i}: pair_count {pairs} at L={length}")
        if not _close(arrows, 1.0):
            problems.append(f"row {i}: arrow probabilities sum to {arrows!r}")
        if not 0.0 <= delta <= 1.0:
            problems.append(f"row {i}: delta_max {delta!r} outside [0, 1]")
        if not (math.isfinite(eps) and eps >= 0.0):
            problems.append(f"row {i}: epsilon_avg {eps!r}")
    return problems


def fit_invariants(path: Path, num_dims: int) -> list[str]:
    sections = read_sections(path)
    fit_rows, points = sections.get("", []), sections.get("points", [])
    if len(fit_rows) != 1:
        return [f"{len(fit_rows)} fit rows, expected 1"]
    problems = []
    row = fit_rows[0]
    try:
        if int(row["n_points"]) != num_dims or len(points) != num_dims:
            problems.append(f"n_points {row['n_points']}, expected {num_dims}")
        if not all(math.isfinite(float(row[k])) for k in ("alpha", "intercept", "r_squared")):
            problems.append(f"non-finite fit {row}")
        if not all(float(p["mean"]) > 0.0 for p in points):
            problems.append("non-positive point mean")
    except (KeyError, ValueError) as exc:
        problems.append(f"unreadable: {exc}")
    return problems


def dynamics_invariants(path: Path, blocks: int, samples: int) -> list[str]:
    sections = {k: v for k, v in read_sections(path).items() if k.startswith("init ")}
    problems = []
    if len(sections) != blocks:
        problems.append(f"{len(sections)} trajectory blocks, expected {blocks}")
    for name, rows in sections.items():
        if len(rows) != samples:
            problems.append(f"[{name}] {len(rows)} samples, expected {samples}")
        for i, row in enumerate(rows):
            try:
                p = [float(row[k]) for k in ("p_minus", "p_zero", "p_plus")]
            except (KeyError, ValueError) as exc:
                problems.append(f"[{name}] row {i}: unreadable: {exc}")
                break
            if not _close(sum(p), 1.0) or min(p) < -SUM_TOL:
                problems.append(f"[{name}] row {i}: weights {p}")
                break
    return problems
