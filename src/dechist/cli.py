"""Command line front end and on-disk schemas.

Every command parses one JSON config (into a SweepSpec by
dechist.experiments: strictly validated, unknown keys rejected), calls
dechist.experiments for the numbers, and writes CSV/JSON files whose
float fields round-trip exactly via repr; the path of each file written
is printed.  Each CSV starts with a `# schema_version=N` comment line.
Exit codes: 0 success, 2 config or file problems, 1 anything else;
failures print a single `error: ...` line to stderr.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np

from .model import ModelConfig, derive_coupling
from .metrics import branch_histogram, epsilon_by_distance
from .experiments import (
    FIT_METRICS,
    ConfigError,
    SweepSpec,
    compute_realization_df,
    fit_points,
    parse_config,
    parse_config_dict,
    run_dynamics,
    run_sweep,
)

__all__ = ["main", "ConfigError", "parse_config", "parse_config_dict"]

SCHEMA_VERSION = 2

# results.csv layout, one row per realization and grid length: column ->
# (field the cell is written from, parser fit applies to it on every row).
# The fields are the RealizationResult's, its PerLengthMetrics' and "length".
RESULTS_COLUMNS = {
    "d": ("d", int),
    "l": ("length", int),
    "regime": ("regime", str),
    "init_family": ("init_family", str),
    "h_seed": ("hamiltonian_seed", int),
    "s_seed": ("state_seed", int),
    "eig_index": ("eigenstate_index", str),
    "epsilon_avg": ("epsilon_avg", float),
    "pair_count": ("pair_count", int),
    "skipped_pairs": ("skipped_pairs", int),
    "delta_max": ("delta_max", float),
    "argmax_subset_bitmask": ("argmax_subset", int),
    "p_forward": ("p_forward", float),
    "p_noarrow": ("p_noarrow", float),
    "p_backward": ("p_backward", float),
}
DYNAMICS_HEADER = ["t", "p_minus", "p_zero", "p_plus"]
FIT_HEADER = ["l", "metric", "alpha", "intercept", "r_squared", "n_points"]
HISTOGRAM_HEADER = ["history", "probability"]
DISTANCE_HEADER = ["d", "hamming", "eps_mean", "pair_count"]


def _require_v_minus(spec: SweepSpec, command: str) -> int:
    if spec.v_minus is None:
        raise ConfigError(f"model.v_minus: required by the {command} command")
    return spec.v_minus


def _require_one_triple(spec: SweepSpec) -> None:
    if spec.weights is not None and len(spec.weights) != 1:
        raise ConfigError(
            "init.weights: exactly one weight triple is required for this command"
        )


def _warn_interaction(config: ModelConfig) -> None:
    coupling = derive_coupling(config)
    if coupling.interaction_warning:
        print(
            f"warning: interaction strength {coupling.interaction_strength_right:.3g} "
            f"< 10 at D={config.dimension}; exchange dynamics may not thermalize",
            file=sys.stderr,
        )


def _fmt(value) -> str:
    """Round-trippable field formatting for CSV cells."""
    if value is None:
        return ""
    if isinstance(value, (np.floating, float)):
        return repr(float(value))
    return str(value)


def _write_csv(path: Path, header: list[str], rows) -> None:
    """Schema comment, header, then rows; a str row is a `# ...` comment line."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        fh.write(f"# schema_version={SCHEMA_VERSION}\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            if isinstance(row, str):
                fh.write(f"# {row}\n")
            else:
                writer.writerow(row)
    print(path)


def _write_df_json(path: Path, df) -> None:
    matrix = df.entries
    n = matrix.shape[0]
    entries = [[float(z.real), float(z.imag)] for z in matrix.ravel()]
    doc = {
        "schema_version": SCHEMA_VERSION,
        "grid": {"times": [float(t) for t in df.grid.times]},
        "length": df.length,
        "num_macrostates": 3,
        "histories": list(range(n)),
        "entries": entries,
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc) + "\n")
    print(path)


def _cmd_dynamics(args) -> int:
    spec = parse_config(args.config)
    _warn_interaction(spec.model_config(5 * _require_v_minus(spec, "dynamics"), 0))
    # One trajectory block per start, each introduced by an `# init` line.
    rows = []
    for weights, series in run_dynamics(spec):
        tag = "eigenstate" if weights is None else ",".join(_fmt(w) for w in weights)
        rows.append(f"init {tag}")
        rows += [[_fmt(v) for v in row] for row in series]
    _write_csv(Path(spec.output_dir) / "dynamics.csv", DYNAMICS_HEADER, rows)
    return 0


def _results_rows(results) -> list[list[str]]:
    rows = []
    for r in results:
        for length in sorted(r.per_length):
            values = {**vars(r), **vars(r.per_length[length]), "length": length}
            rows.append([_fmt(values[name]) for name, _ in RESULTS_COLUMNS.values()])
    return rows


def _cmd_sweep(args) -> int:
    spec = parse_config(args.config)
    if spec.d_grid is None:
        raise ConfigError("model.d_grid: required by the sweep command")
    _require_one_triple(spec)
    if args.workers < 1:
        raise ConfigError(f"worker count must be at least 1, got {args.workers}")
    _warn_interaction(spec.model_config(spec.d_grid[0], 0))
    out = Path(spec.output_dir)
    results = run_sweep(spec, output_dir=out, workers=args.workers)
    for r in (r for r in results if r.failed):
        print(f"warning: realization {r.key} failed: {r.error}; a rerun retries it",
              file=sys.stderr)
    _write_csv(out / "results.csv", list(RESULTS_COLUMNS), _results_rows(results))
    return 0


def _read_fit_points(path: Path, metric: str, length: int) -> list[tuple[int, float]]:
    """(d, value) points of one metric at one grid length, in file order."""
    if not path.exists():
        raise ConfigError(f"results file not found: {path}")
    with path.open(newline="") as fh:
        reader = csv.DictReader([line for line in fh if not line.startswith("#")])
    if reader.fieldnames != list(RESULTS_COLUMNS):
        raise ConfigError(f"{path}: unexpected results.csv header")
    column = FIT_METRICS[metric]
    points = []
    lengths: dict[tuple[int, int, int], set[int]] = {}
    for row in reader:
        try:
            cells = {name: read(row[name]) for name, (_, read) in RESULTS_COLUMNS.items()}
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"{path}: malformed row: {exc}") from None
        key = (cells["d"], cells["h_seed"], cells["s_seed"])
        lengths.setdefault(key, set()).add(cells["l"])
        if cells["l"] == length:
            points.append((cells["d"], cells[column]))
    for key, found in lengths.items():
        if length not in found:
            raise ConfigError(
                f"{path}: no grid length {length} for realization "
                f"(d, h_seed, s_seed) = {key}"
            )
    return points


def _cmd_fit(args) -> int:
    points = _read_fit_points(Path(args.results), args.metric, args.l)
    try:
        fit = fit_points(points, args.metric, args.l)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    rows = [
        [
            _fmt(fit.length), fit.metric, _fmt(fit.alpha), _fmt(fit.intercept),
            _fmt(fit.r_squared), _fmt(len(fit.points)),
        ],
        "points",
        ["d", "mean"],
        *([_fmt(d), _fmt(mean)] for d, mean in fit.points),
    ]
    _write_csv(Path(args.results).parent / "fit.csv", FIT_HEADER, rows)
    return 0


def _single_system_df(args, command: str):
    """(output directory, d, df) for one realization at D = 5 * v_minus;
    df.json is written when the command is dump-df or the config sets dump_df."""
    spec = parse_config(args.config)
    d = 5 * _require_v_minus(spec, command)
    _require_one_triple(spec)
    _warn_interaction(spec.model_config(d, 0))
    df, _, _ = compute_realization_df(spec, d, 0, 0)
    out = Path(spec.output_dir)
    if spec.dump_df or command == "dump-df":
        _write_df_json(out / "df.json", df)
    return out, d, df


def _cmd_histogram(args) -> int:
    out, _, df = _single_system_df(args, "histogram")
    rows = [[history, _fmt(p)] for history, p in branch_histogram(df).items()]
    _write_csv(out / "histogram.csv", HISTOGRAM_HEADER, rows)
    return 0


def _cmd_distance(args) -> int:
    out, d, df = _single_system_df(args, "distance")
    rows = [
        [_fmt(d), _fmt(hamming), _fmt(mean), _fmt(count)]
        for hamming, (mean, count) in sorted(epsilon_by_distance(df).items())
    ]
    _write_csv(out / "distance.csv", DISTANCE_HEADER, rows)
    return 0


def _cmd_dump_df(args) -> int:
    _single_system_df(args, "dump-df")
    return 0


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # noqa: D102 - single-line contract
        raise ConfigError(f"arguments: {message}")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="dechist",
        description="Decoherent-histories simulator for a random-matrix heat-exchange model",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dynamics", help="macrostate weights over time")
    p.add_argument("--config", required=True)
    p.set_defaults(func=_cmd_dynamics)

    p = sub.add_parser("sweep", help="scaling sweep over dimensions and seeds")
    p.add_argument("--config", required=True)
    p.add_argument("--workers", type=int, default=1,
                   help="parallel workers (default: 1)")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("fit", help="power-law fit of a sweep metric")
    p.add_argument("--results", required=True)
    p.add_argument("--metric", required=True, choices=list(FIT_METRICS))
    p.add_argument("--l", required=True, type=int, help="grid length to fit")
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("histogram", help="branch weight per history")
    p.add_argument("--config", required=True)
    p.set_defaults(func=_cmd_histogram)

    p = sub.add_parser("distance", help="violations binned by Hamming distance")
    p.add_argument("--config", required=True)
    p.set_defaults(func=_cmd_distance)

    p = sub.add_parser("dump-df", help="dump the decoherence functional as JSON")
    p.add_argument("--config", required=True)
    p.set_defaults(func=_cmd_dump_df)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except ConfigError as exc:
        print(f"error: config: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: io: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - single-line contract
        print(f"error: runtime: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
