"""Command line front end and on-disk schemas.

Every command reads one JSON config (parsed into a SweepSpec by
dechist.experiments: strictly validated, unknown keys rejected) and writes CSV/JSON files whose float fields round-trip
exactly via repr.  Each CSV starts with a `# schema_version=N` comment
line.  Exit codes: 0 success, 2 config or file problems, 1 anything
else; failures print a single `error: ...` line to stderr.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from pathlib import Path

import numpy as np

from .model import ModelConfig, build_coarsening, build_hamiltonian, derive_coupling
from .spectral import eigendecompose, sample_haar_state, select_eigenstate
from .metrics import macro_dynamics
from .experiments import (
    FIT_METRICS,
    ConfigError,
    InitFamily,
    PerLengthMetrics,
    RealizationResult,
    SweepSpec,
    compute_realization_df,
    fit_scaling,
    initial_weights,
    parse_config,
    parse_config_dict,
    run_realization,
    run_sweep,
)

__all__ = ["main", "ConfigError", "parse_config", "parse_config_dict", "WORKERS_ENV"]

SCHEMA_VERSION = 1
WORKERS_ENV = "DECHIST_WORKERS"

RESULTS_HEADER = [
    "d", "l", "regime", "init_family", "h_seed", "s_seed", "eig_index",
    "epsilon_avg", "pair_count", "skipped_pairs", "delta_max",
    "argmax_subset_bitmask", "p_forward", "p_noarrow", "p_backward",
    "wall_time_s",
]
DYNAMICS_HEADER = ["t", "p_minus", "p_zero", "p_plus"]
FIT_HEADER = ["l", "metric", "alpha", "intercept", "r_squared", "n_points"]
HISTOGRAM_HEADER = ["history", "probability"]
DISTANCE_HEADER = ["d", "hamming", "eps_mean", "pair_count"]

# Sampling window for the dynamics command, in units of tau.
DYNAMICS_T_MAX_TAU = 20.0
DYNAMICS_DT_TAU = 0.1


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


def _open_csv(path: Path):
    path.parent.mkdir(parents=True, exist_ok=True)
    fh = path.open("w", newline="")
    fh.write(f"# schema_version={SCHEMA_VERSION}\n")
    return fh, csv.writer(fh)


def _output_dir(spec: SweepSpec) -> Path:
    out = Path(spec.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_df_json(path: Path, df) -> None:
    n = df.entries.shape[0]
    entries = [
        [float(z.real), float(z.imag)] for z in df.entries.reshape(n * n)
    ]
    doc = {
        "schema_version": SCHEMA_VERSION,
        "grid": {"times": [float(t) for t in df.grid.times]},
        "length": df.length,
        "num_macrostates": 3,
        "histories": list(range(n)),
        "entries": entries,
    }
    path.write_text(json.dumps(doc) + "\n")


def _cmd_dynamics(args) -> int:
    spec = parse_config(args.config)
    v_minus = _require_v_minus(spec, "dynamics")
    config = spec.model_config(5 * v_minus, 0)
    _warn_interaction(config)
    coupling = derive_coupling(config)
    sd = eigendecompose(build_hamiltonian(config))
    coarsening = build_coarsening(config)
    state_seed = spec.state_seed(0, 0)

    if spec.init_family is InitFamily.EIGENSTATE:
        starts = [(None, select_eigenstate(sd, state_seed)[0])]
    else:
        # Several triples mean several trajectory blocks in one file.
        triples = spec.weights or (initial_weights(spec, config),)
        starts = [
            (w, sample_haar_state(coarsening, w, state_seed)) for w in triples
        ]

    out = _output_dir(spec) / "dynamics.csv"
    fh, writer = _open_csv(out)
    with fh:
        writer.writerow(DYNAMICS_HEADER)
        for weights, psi0 in starts:
            tag = "eigenstate" if weights is None else ",".join(_fmt(w) for w in weights)
            fh.write(f"# init {tag}\n")
            series = macro_dynamics(
                sd, coarsening, psi0,
                t_max=DYNAMICS_T_MAX_TAU * coupling.tau,
                dt=DYNAMICS_DT_TAU * coupling.tau,
            )
            for row in series:
                writer.writerow([_fmt(v) for v in row])
    print(out)
    return 0


def _resolve_workers(args) -> int:
    if getattr(args, "workers", None) is not None:
        workers = args.workers
    else:
        raw = os.environ.get(WORKERS_ENV, "1")
        try:
            workers = int(raw)
        except ValueError:
            raise ConfigError(f"{WORKERS_ENV}: expected an integer, got {raw!r}") from None
    if workers < 1:
        raise ConfigError(f"worker count must be at least 1, got {workers}")
    return workers


def _results_rows(results) -> list[list[str]]:
    rows = []
    for r in results:
        if r.failed:
            continue
        for length in sorted(r.per_length):
            m = r.per_length[length]
            rows.append([
                _fmt(r.d), _fmt(length), r.regime, r.init_family,
                _fmt(r.hamiltonian_seed), _fmt(r.state_seed),
                _fmt(r.eigenstate_index),
                _fmt(m.epsilon_avg), _fmt(m.pair_count), _fmt(m.skipped_pairs),
                _fmt(m.delta_max), _fmt(m.argmax_subset),
                _fmt(m.p_forward), _fmt(m.p_noarrow), _fmt(m.p_backward),
                _fmt(r.wall_time_s),
            ])
    return rows


def _cmd_sweep(args) -> int:
    spec = parse_config(args.config)
    if spec.d_grid is None:
        raise ConfigError("model.d_grid: required by the sweep command")
    _require_one_triple(spec)
    _warn_interaction(spec.model_config(spec.d_grid[0], 0))
    out = _output_dir(spec)
    results = run_sweep(spec, output_dir=out, workers=_resolve_workers(args))
    failed = [r for r in results if r.failed]
    for r in failed:
        print(f"warning: realization {r.key} failed: {r.error}", file=sys.stderr)
    path = out / "results.csv"
    fh, writer = _open_csv(path)
    with fh:
        writer.writerow(RESULTS_HEADER)
        writer.writerows(_results_rows(results))
    print(path)
    return 0


def _read_results_csv(path: Path) -> list[RealizationResult]:
    if not path.exists():
        raise ConfigError(f"results file not found: {path}")
    grouped: dict[tuple, dict[int, PerLengthMetrics]] = {}
    meta: dict[tuple, dict] = {}
    with path.open(newline="") as fh:
        lines = [line for line in fh if not line.startswith("#")]
    reader = csv.DictReader(lines)
    if reader.fieldnames != RESULTS_HEADER:
        raise ConfigError(f"{path}: unexpected results.csv header")
    for row in reader:
        try:
            key = (int(row["d"]), int(row["h_seed"]), int(row["s_seed"]))
            length = int(row["l"])
            metrics = PerLengthMetrics(
                epsilon_avg=float(row["epsilon_avg"]),
                pair_count=int(row["pair_count"]),
                skipped_pairs=int(row["skipped_pairs"]),
                delta_max=float(row["delta_max"]),
                argmax_subset=int(row["argmax_subset_bitmask"]),
                p_forward=float(row["p_forward"]),
                p_noarrow=float(row["p_noarrow"]),
                p_backward=float(row["p_backward"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"{path}: malformed row: {exc}") from None
        grouped.setdefault(key, {})[length] = metrics
        meta[key] = row
    results = []
    for key, per_length in grouped.items():
        row = meta[key]
        results.append(
            RealizationResult(
                d=key[0], h_index=0, s_index=0,
                hamiltonian_seed=key[1], state_seed=key[2],
                regime=row["regime"], init_family=row["init_family"],
                eigenstate_index=int(row["eig_index"]) if row["eig_index"] else None,
                per_length=per_length, distance_bins={},
                wall_time_s=float(row["wall_time_s"]),
            )
        )
    return results


def _cmd_fit(args) -> int:
    results = _read_results_csv(Path(args.results))
    try:
        fit = fit_scaling(results, metric=args.metric, length=args.l)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    path = Path(args.results).parent / "fit.csv"
    fh, writer = _open_csv(path)
    with fh:
        writer.writerow(FIT_HEADER)
        writer.writerow([
            _fmt(fit.length), fit.metric, _fmt(fit.alpha), _fmt(fit.intercept),
            _fmt(fit.r_squared), _fmt(len(fit.points)),
        ])
        fh.write("# points\n")
        writer.writerow(["d", "mean"])
        for d, mean in fit.points:
            writer.writerow([_fmt(d), _fmt(mean)])
    print(path)
    return 0


def _single_realization(args, command: str) -> tuple[SweepSpec, int]:
    spec = parse_config(args.config)
    d = 5 * _require_v_minus(spec, command)
    _require_one_triple(spec)
    _warn_interaction(spec.model_config(d, 0))
    return spec, d


def _maybe_dump_df(spec: SweepSpec, d: int) -> None:
    if not spec.dump_df:
        return
    df, _, _ = compute_realization_df(spec, d, 0, 0)
    _write_df_json(_output_dir(spec) / "df.json", df)


def _cmd_histogram(args) -> int:
    spec, d = _single_realization(args, "histogram")
    result = run_realization(spec, d, 0, 0)
    histogram = result.per_length[spec.l_max].histogram
    path = _output_dir(spec) / "histogram.csv"
    fh, writer = _open_csv(path)
    with fh:
        writer.writerow(HISTOGRAM_HEADER)
        for history, probability in histogram.items():
            writer.writerow([history, _fmt(probability)])
    _maybe_dump_df(spec, d)
    print(path)
    return 0


def _cmd_distance(args) -> int:
    spec, d = _single_realization(args, "distance")
    result = run_realization(spec, d, 0, 0)
    path = _output_dir(spec) / "distance.csv"
    fh, writer = _open_csv(path)
    with fh:
        writer.writerow(DISTANCE_HEADER)
        for hamming in sorted(result.distance_bins):
            mean, count = result.distance_bins[hamming]
            writer.writerow([_fmt(d), _fmt(hamming), _fmt(mean), _fmt(count)])
    _maybe_dump_df(spec, d)
    print(path)
    return 0


def _cmd_dump_df(args) -> int:
    spec, d = _single_realization(args, "dump-df")
    df, _, _ = compute_realization_df(spec, d, 0, 0)
    path = _output_dir(spec) / "df.json"
    _write_df_json(path, df)
    print(path)
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
    p.add_argument("--workers", type=int, default=None,
                   help=f"parallel workers (default: ${WORKERS_ENV} or 1)")
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
