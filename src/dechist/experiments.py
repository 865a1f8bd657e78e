"""Finite-size sweeps, their run config, and power-law scaling fits.

A sweep runs one realization per (dimension, hamiltonian seed, state
seed) triple, computes a single decoherence functional at the longest
grid, and derives every shorter-grid record from it by trailing
marginalization.  Records stream to a JSONL file as they finish, so an
interrupted sweep resumes without recomputing completed keys.

SweepSpec is the run config of every command.  Its config-file JSON is
laid out by CONFIG_FIELDS, which drives parsing, the unknown-key check
and SweepSpec.to_dict.
"""

from __future__ import annotations

import enum
import json
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Sequence

import numpy as np

from .model import (
    GRID_STREAM,
    HAMILTONIAN_STREAM,
    STATE_STREAM,
    BlockHamiltonian,
    Coarsening,
    Ensemble,
    ModelConfig,
    Regime,
    Spacing,
    build_coarsening,
    build_hamiltonian,
    derive_coupling,
    derive_seed,
)
from .spectral import (
    SpectralDecomposition,
    eigendecompose,
    sample_haar_state,
    select_eigenstate,
)
from .histories import HistoryGrid, MAX_LENGTH, compute_branch_states, compute_df
from .metrics import (
    arrow_classification,
    branch_histogram,
    delta_max,
    epsilon_average,
    epsilon_by_distance,
    marginalize,
)

__all__ = [
    "ConfigError",
    "InitFamily",
    "RandomSpacing",
    "SweepSpec",
    "CONFIG_FIELDS",
    "parse_config",
    "parse_config_dict",
    "PerLengthMetrics",
    "RealizationResult",
    "ScalingFit",
    "initial_weights",
    "compute_realization_df",
    "run_realization",
    "run_sweep",
    "fit_scaling",
    "FIT_METRICS",
]

FIT_METRICS = ("epsilon", "delta")

RECORDS_FILENAME = "realizations.jsonl"
SPEC_FILENAME = "sweep_spec.json"


class ConfigError(ValueError):
    """Malformed config or command arguments."""


class InitFamily(enum.Enum):
    HAAR_EQUILIBRIUM = "haar_equilibrium"
    HAAR_NONEQUILIBRIUM = "haar_nonequilibrium"
    EIGENSTATE = "eigenstate"


@dataclass(frozen=True)
class RandomSpacing:
    """Uniform random grid spacings, bounds in units of tau."""

    lo_tau: float
    hi_tau: float


@dataclass(frozen=True)
class SweepSpec:
    """Run config of every command, validated on construction.

    Exactly one of d_grid (sweeps) and v_minus (single-system commands,
    D = 5 * v_minus) is set.  step_mode is either the string 'tau' (grid
    step equal to the relaxation time), an explicit positive step in
    absolute time units, or a RandomSpacing instance.  weights holds
    initial band-weight triples: a sweep uses the first, the dynamics
    command runs one trajectory per triple.
    """

    d_grid: tuple[int, ...] | None = None
    v_minus: int | None = None
    num_hamiltonian_seeds: int = 3
    num_state_seeds: int = 3
    base_seed: int = 0
    regime: Regime = Regime.WEAK
    init_family: InitFamily = InitFamily.HAAR_EQUILIBRIUM
    weights: tuple[tuple[float, float, float], ...] | None = None
    num_steps: int = 4
    step_mode: object = "tau"
    ensemble: Ensemble = Ensemble.GOE
    diagonal_spacing: Spacing = Spacing.EQUAL
    delta_e: float = 1.0
    smallness_target: float = 0.01
    output_dir: str = "out"
    dump_df: bool = False

    def __post_init__(self) -> None:
        if (self.v_minus is None) == (self.d_grid is None):
            raise ValueError("exactly one of v_minus or d_grid is required")
        if self.d_grid is not None:
            if not self.d_grid:
                raise ValueError("d_grid must not be empty")
            for d in self.d_grid:
                if d < 5 or d % 5:
                    raise ValueError(
                        f"each dimension must be a positive multiple of 5, got {d}"
                    )
            if any(a >= b for a, b in zip(self.d_grid, self.d_grid[1:])):
                raise ValueError("d_grid must be strictly ascending")
        # ModelConfig checks v_minus, delta_e and smallness_target.
        ModelConfig(
            v_minus=self.v_minus if self.d_grid is None else self.d_grid[0] // 5,
            delta_e=self.delta_e,
            smallness_target=self.smallness_target,
        )
        if self.num_hamiltonian_seeds < 1 or self.num_state_seeds < 1:
            raise ValueError("seed counts must be at least 1")
        if self.base_seed < 0:
            raise ValueError("base_seed must be non-negative")
        if not 1 <= self.num_steps <= MAX_LENGTH - 1:
            raise ValueError(
                f"num_steps must lie in [1, {MAX_LENGTH - 1}], got {self.num_steps}"
            )
        if isinstance(self.step_mode, str):
            if self.step_mode != "tau":
                raise ValueError(f"unknown step mode {self.step_mode!r}")
        elif isinstance(self.step_mode, (int, float)):
            if self.step_mode <= 0:
                raise ValueError("explicit grid step must be positive")
        elif isinstance(self.step_mode, RandomSpacing):
            lo, hi = self.step_mode.lo_tau, self.step_mode.hi_tau
            if not 0 <= lo < hi:
                raise ValueError(f"random_uniform needs 0 <= lo < hi, got [{lo}, {hi}]")
        else:
            raise ValueError(f"unsupported step mode {self.step_mode!r}")
        if self.weights is not None:
            if self.init_family is InitFamily.EIGENSTATE:
                raise ValueError("weights do not apply to the eigenstate family")
            for w in self.weights:
                if len(w) != 3 or min(w) < 0 or abs(sum(w) - 1.0) > 1e-12:
                    raise ValueError(
                        f"weights must be three non-negatives summing to 1, got {w}"
                    )
        if not self.output_dir:
            raise ValueError("output_dir must not be empty")

    @property
    def l_max(self) -> int:
        return self.num_steps + 1

    def hamiltonian_seed(self, h_index: int) -> int:
        return derive_seed(self.base_seed, HAMILTONIAN_STREAM, h_index)

    def state_seed(self, h_index: int, s_index: int) -> int:
        return derive_seed(self.base_seed, STATE_STREAM, h_index, s_index)

    def grid_seed(self, h_index: int, s_index: int) -> int:
        return derive_seed(self.base_seed, GRID_STREAM, h_index, s_index)

    def model_config(self, d: int, h_index: int) -> ModelConfig:
        return ModelConfig(
            v_minus=d // 5,
            delta_e=self.delta_e,
            regime=self.regime,
            ensemble=self.ensemble,
            diagonal_spacing=self.diagonal_spacing,
            hamiltonian_seed=self.hamiltonian_seed(h_index),
            smallness_target=self.smallness_target,
        )

    def to_dict(self) -> dict:
        """Config JSON; parse_config_dict(spec.to_dict()) == spec."""
        doc: dict = {}
        for (section, key), (name, _) in CONFIG_FIELDS.items():
            value = getattr(self, name)
            if value is not None:
                doc.setdefault(section, {})[key] = _to_json(value)
        return doc


def _to_json(value):
    """JSON form of a SweepSpec field value."""
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, RandomSpacing):
        return {"random_uniform": [value.lo_tau, value.hi_tau]}
    if isinstance(value, tuple):
        return [_to_json(v) for v in value]
    return value


# Readers of config values: each checks the type and shape of one JSON
# value and converts it; SweepSpec checks ranges.
def _int(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{path}: expected an integer, got {value!r}")
    return value


def _number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}: expected a number, got {value!r}")
    return float(value)


def _int_list(value, path: str) -> tuple[int, ...]:
    if not isinstance(value, list):
        raise ConfigError(f"{path}: expected a list of integers, got {value!r}")
    return tuple(_int(v, path) for v in value)


def _enum(enum_cls):
    def read(value, path: str):
        try:
            return enum_cls(value)
        except ValueError:
            options = sorted(e.value for e in enum_cls)
            raise ConfigError(f"{path}: must be one of {options}, got {value!r}") from None

    return read


def _step_mode(value, path: str) -> object:
    if isinstance(value, str):
        return value
    if isinstance(value, dict):
        bounds = value.get("random_uniform")
        if list(value) != ["random_uniform"] or not (
            isinstance(bounds, list) and len(bounds) == 2
        ):
            raise ConfigError(f"{path}: expected {{'random_uniform': [lo_tau, hi_tau]}}")
        return RandomSpacing(*(_number(b, f"{path}.random_uniform") for b in bounds))
    return _number(value, path)


def _weights(value, path: str) -> tuple[tuple[float, ...], ...] | None:
    if value is None:
        return None
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{path}: expected a weight triple or a list of them")
    triples = value if all(isinstance(e, list) for e in value) else [value]
    for triple in triples:
        if len(triple) != 3:
            raise ConfigError(f"{path}: expected three weights, got {triple!r}")
    return tuple(tuple(_number(w, path) for w in triple) for triple in triples)


def _string(value, path: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{path}: expected a string, got {value!r}")
    return value


def _bool(value, path: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"{path}: expected true or false, got {value!r}")
    return value


# Config JSON layout: (section, key) -> (SweepSpec field, reader).
CONFIG_FIELDS = {
    ("model", "v_minus"): ("v_minus", _int),
    ("model", "d_grid"): ("d_grid", _int_list),
    ("model", "delta_e"): ("delta_e", _number),
    ("model", "regime"): ("regime", _enum(Regime)),
    ("model", "ensemble"): ("ensemble", _enum(Ensemble)),
    ("model", "diagonal_spacing"): ("diagonal_spacing", _enum(Spacing)),
    ("model", "smallness_target"): ("smallness_target", _number),
    ("grid", "num_steps"): ("num_steps", _int),
    ("grid", "step_mode"): ("step_mode", _step_mode),
    ("init", "family"): ("init_family", _enum(InitFamily)),
    ("init", "weights"): ("weights", _weights),
    ("sweep", "num_hamiltonian_seeds"): ("num_hamiltonian_seeds", _int),
    ("sweep", "num_state_seeds"): ("num_state_seeds", _int),
    ("sweep", "base_seed"): ("base_seed", _int),
    ("output", "directory"): ("output_dir", _string),
    ("output", "dump_df"): ("dump_df", _bool),
}


def parse_config_dict(doc: dict, source: str = "config") -> SweepSpec:
    """SweepSpec from config JSON; unknown keys and bad values raise ConfigError."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{source}: top level must be a JSON object")
    sections = {section for section, _ in CONFIG_FIELDS}
    kwargs = {}
    for name, section in doc.items():
        if name not in sections:
            raise ConfigError(f"{source}: unknown key {name!r}")
        if not isinstance(section, dict):
            raise ConfigError(f"{source}.{name}: must be a JSON object")
        for key, value in section.items():
            if (name, key) not in CONFIG_FIELDS:
                raise ConfigError(f"{name}: unknown key {key!r}")
            field_name, read = CONFIG_FIELDS[name, key]
            kwargs[field_name] = read(value, f"{name}.{key}")
    try:
        return SweepSpec(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"{source}: {exc}") from None


def parse_config(path: str | Path) -> SweepSpec:
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file not found: {p}")
    try:
        doc = json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{p}: invalid JSON: {exc}") from None
    return parse_config_dict(doc, source=str(p))


@dataclass(frozen=True)
class PerLengthMetrics:
    """Metrics of the marginalized functional at one grid length."""

    epsilon_avg: float
    pair_count: int
    skipped_pairs: int
    delta_max: float
    argmax_subset: int
    p_forward: float
    p_noarrow: float
    p_backward: float
    histogram: dict[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class RealizationResult:
    """Everything recorded for one (d, h_index, s_index) realization."""

    d: int
    h_index: int
    s_index: int
    hamiltonian_seed: int
    state_seed: int
    regime: str
    init_family: str
    eigenstate_index: int | None
    per_length: dict[int, PerLengthMetrics]
    distance_bins: dict[int, tuple[float, int]]
    wall_time_s: float
    error: str | None = None

    @property
    def key(self) -> tuple[int, int, int]:
        return (self.d, self.h_index, self.s_index)

    @property
    def failed(self) -> bool:
        return self.error is not None


@dataclass(frozen=True)
class ScalingFit:
    """Least-squares power law metric ~ D^(-alpha) in log10-log10 space."""

    length: int
    metric: str
    alpha: float
    intercept: float
    r_squared: float
    points: tuple[tuple[int, float], ...]


def initial_weights(spec: SweepSpec, config: ModelConfig) -> tuple[float, float, float]:
    """Band weights of a Haar start: the first configured triple, else
    equilibrium weights or, out of equilibrium, all weight on '-'."""
    if spec.weights is not None:
        return spec.weights[0]
    if spec.init_family is InitFamily.HAAR_EQUILIBRIUM:
        d = config.dimension
        return tuple(v / d for v in config.volumes)
    return (1.0, 0.0, 0.0)


def _make_grid(spec: SweepSpec, tau: float, h_index: int, s_index: int) -> HistoryGrid:
    if spec.step_mode == "tau":
        return HistoryGrid.constant(spec.num_steps, tau)
    if isinstance(spec.step_mode, RandomSpacing):
        return HistoryGrid.random_uniform(
            spec.num_steps,
            spec.step_mode.lo_tau * tau,
            spec.step_mode.hi_tau * tau,
            spec.grid_seed(h_index, s_index),
        )
    return HistoryGrid.constant(spec.num_steps, float(spec.step_mode))


def compute_realization_df(
    spec: SweepSpec,
    d: int,
    h_index: int,
    s_index: int,
    hamiltonian: BlockHamiltonian | None = None,
    sd: SpectralDecomposition | None = None,
):
    """Decoherence functional of one realization at the full grid.

    Returns (df, coarsening, eigenstate_index).  A prebuilt Hamiltonian
    or decomposition may be passed in when several state seeds share one
    matrix.
    """
    config = spec.model_config(d, h_index)
    coupling = derive_coupling(config)
    if hamiltonian is None:
        hamiltonian = build_hamiltonian(config)
    if sd is None:
        sd = eigendecompose(hamiltonian)
    coarsening = build_coarsening(config)

    state_seed = spec.state_seed(h_index, s_index)
    eigenstate_index: int | None = None
    if spec.init_family is InitFamily.EIGENSTATE:
        psi0, eigenstate_index = select_eigenstate(sd, state_seed)
    else:
        psi0 = sample_haar_state(coarsening, initial_weights(spec, config), state_seed)

    grid = _make_grid(spec, coupling.tau, h_index, s_index)
    branches = compute_branch_states(sd, coarsening, psi0, grid)
    return compute_df(branches), coarsening, eigenstate_index


def run_realization(
    spec: SweepSpec,
    d: int,
    h_index: int,
    s_index: int,
    hamiltonian: BlockHamiltonian | None = None,
    sd: SpectralDecomposition | None = None,
    shared_time: float = 0.0,
) -> RealizationResult:
    """Run one realization end to end.

    A prebuilt Hamiltonian/decomposition may be passed in when several
    state seeds share one matrix; `shared_time` is the amortized share
    of that setup charged to this realization's wall time.
    """
    start = time.perf_counter()
    df, coarsening, eigenstate_index = compute_realization_df(
        spec, d, h_index, s_index, hamiltonian=hamiltonian, sd=sd
    )

    per_length: dict[int, PerLengthMetrics] = {}
    for length in range(2, spec.l_max + 1):
        sub = marginalize(df, range(length))
        eps = epsilon_average(sub)
        dist = delta_max(sub)
        arrow = arrow_classification(sub, coarsening)
        per_length[length] = PerLengthMetrics(
            epsilon_avg=eps.epsilon_avg,
            pair_count=eps.pair_count,
            skipped_pairs=eps.skipped_pairs,
            delta_max=dist.delta_max,
            argmax_subset=dist.argmax_subset,
            p_forward=arrow.p_forward,
            p_noarrow=arrow.p_noarrow,
            p_backward=arrow.p_backward,
            histogram=branch_histogram(sub),
        )
    bins = {d_h: (mean, count) for d_h, (mean, count) in epsilon_by_distance(df).items()}
    wall = shared_time + (time.perf_counter() - start)
    return RealizationResult(
        d=d,
        h_index=h_index,
        s_index=s_index,
        hamiltonian_seed=spec.hamiltonian_seed(h_index),
        state_seed=spec.state_seed(h_index, s_index),
        regime=spec.regime.value,
        init_family=spec.init_family.value,
        eigenstate_index=eigenstate_index,
        per_length=per_length,
        distance_bins=bins,
        wall_time_s=wall,
    )


def _error_result(
    spec: SweepSpec, d: int, h_index: int, s_index: int, exc: Exception
) -> RealizationResult:
    return RealizationResult(
        d=d,
        h_index=h_index,
        s_index=s_index,
        hamiltonian_seed=spec.hamiltonian_seed(h_index),
        state_seed=spec.state_seed(h_index, s_index),
        regime=spec.regime.value,
        init_family=spec.init_family.value,
        eigenstate_index=None,
        per_length={},
        distance_bins={},
        wall_time_s=0.0,
        error=f"{type(exc).__name__}: {exc}",
    )


def _run_group(
    spec: SweepSpec, d: int, h_index: int, s_indices: tuple[int, ...]
) -> list[RealizationResult]:
    """All state seeds for one (d, h_index): one eigensolve, many states."""
    start = time.perf_counter()
    try:
        config = spec.model_config(d, h_index)
        hamiltonian = build_hamiltonian(config)
        sd = eigendecompose(hamiltonian)
    except Exception as exc:  # noqa: BLE001 - recorded, sweep continues
        return [_error_result(spec, d, h_index, s, exc) for s in s_indices]
    shared = (time.perf_counter() - start) / max(len(s_indices), 1)
    results = []
    for s_index in s_indices:
        try:
            results.append(
                run_realization(
                    spec, d, h_index, s_index,
                    hamiltonian=hamiltonian, sd=sd, shared_time=shared,
                )
            )
        except Exception as exc:  # noqa: BLE001 - recorded, sweep continues
            results.append(_error_result(spec, d, h_index, s_index, exc))
    return results


def result_to_dict(result: RealizationResult) -> dict:
    """JSON-ready record: the result's fields, with error only when set.

    A shallow copy: dataclasses.asdict would deep-copy every histogram.
    """
    data = dict(vars(result))
    data["per_length"] = {l: dict(vars(m)) for l, m in result.per_length.items()}
    if result.error is None:
        del data["error"]
    return data


def result_from_dict(data: dict) -> RealizationResult:
    """Inverse of result_to_dict, also for records read back from JSON."""
    data = dict(data)
    data["per_length"] = {
        int(l): PerLengthMetrics(**m) for l, m in data["per_length"].items()
    }
    data["distance_bins"] = {
        int(k): tuple(v) for k, v in data["distance_bins"].items()
    }
    return RealizationResult(**data)


# Fields a sweep's records do not depend on; sweep_spec.json leaves them out.
_UNRECORDED_FIELDS = ("v_minus", "output_dir", "dump_df")


def _spec_to_dict(spec: SweepSpec) -> dict:
    """Content of sweep_spec.json; the sweep's one weight triple is flat."""
    data = {f.name: getattr(spec, f.name) for f in fields(spec)}
    data["weights"] = spec.weights[0] if spec.weights is not None else None
    return {k: _to_json(v) for k, v in data.items() if k not in _UNRECORDED_FIELDS}


def _load_records(path: Path) -> dict[tuple[int, int, int], dict]:
    """Records of a JSONL stream, keyed by (d, h_index, s_index).

    Every complete record ends in a newline.  A last line without one was
    torn by an interrupted append: it is cut off the file, so its key is
    recomputed and the next append starts on a fresh line.
    """
    records: dict[tuple[int, int, int], dict] = {}
    if not path.exists():
        return records
    raw = path.read_bytes()
    complete = raw.rfind(b"\n") + 1
    if complete < len(raw):
        with path.open("r+b") as fh:
            fh.truncate(complete)
    for line in raw[:complete].splitlines():
        if line.strip():
            data = json.loads(line)
            records[(data["d"], data["h_index"], data["s_index"])] = data
    return records


def run_sweep(
    spec: SweepSpec,
    output_dir: str | Path | None = None,
    workers: int = 1,
) -> list[RealizationResult]:
    """Run (or resume) every realization of a sweep.

    With an output directory, finished realizations append to
    realizations.jsonl immediately and existing records are skipped on
    rerun, so a completed directory costs no recomputation.  Results
    come back sorted by (d, h_index, s_index) regardless of worker
    count or completion order.  A group lost to a crashed worker comes
    back as failed results that are not written, so a rerun retries it.
    """
    records: dict[tuple[int, int, int], dict] = {}
    records_path = None
    if output_dir is not None:
        out = Path(output_dir)
        out.mkdir(parents=True, exist_ok=True)
        spec_path = out / SPEC_FILENAME
        spec_dict = _spec_to_dict(spec)
        if spec_path.exists():
            stored = json.loads(spec_path.read_text())
            if stored != spec_dict:
                raise ValueError(
                    f"output directory {out} holds records for a different sweep spec"
                )
        else:
            spec_path.write_text(json.dumps(spec_dict, indent=2, sort_keys=True) + "\n")
        records_path = out / RECORDS_FILENAME
        records = _load_records(records_path)

    groups: list[tuple[int, int, tuple[int, ...]]] = []
    for d in spec.d_grid:
        for h_index in range(spec.num_hamiltonian_seeds):
            pending = tuple(
                s for s in range(spec.num_state_seeds) if (d, h_index, s) not in records
            )
            if pending:
                groups.append((d, h_index, pending))

    def _store(batch: list[RealizationResult]) -> None:
        for result in batch:
            data = result_to_dict(result)
            records[result.key] = data
            if records_path is not None:
                with records_path.open("a") as fh:
                    fh.write(json.dumps(data, sort_keys=True) + "\n")

    if workers > 1 and groups:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = {
                pool.submit(_run_group, spec, d, h_index, pending): (d, h_index, pending)
                for d, h_index, pending in groups
            }
            for future in as_completed(futures):
                try:
                    batch = future.result()
                except BrokenProcessPool as exc:
                    # A worker died: report the group as failed, but keep it
                    # out of the JSONL stream so a rerun retries it.
                    d, h_index, pending = futures[future]
                    for s in pending:
                        lost = _error_result(spec, d, h_index, s, exc)
                        records[lost.key] = result_to_dict(lost)
                else:
                    _store(batch)
    else:
        for d, h_index, pending in groups:
            _store(_run_group(spec, d, h_index, pending))

    results = [result_from_dict(records[key]) for key in sorted(records)]
    return results


def fit_scaling(
    results: Sequence[RealizationResult], metric: str, length: int
) -> ScalingFit:
    """Fit metric(D) ~ D^(-alpha) through per-dimension means.

    Raw metric values are averaged over the successful realizations of
    each dimension; the fit is ordinary least squares on (log10 D,
    log10 mean).  Requires at least three distinct dimensions and
    strictly positive means.
    """
    if metric not in FIT_METRICS:
        raise ValueError(f"metric must be one of {FIT_METRICS}, got {metric!r}")
    by_d: dict[int, list[float]] = {}
    for result in results:
        if result.failed:
            continue
        if length not in result.per_length:
            raise ValueError(
                f"realization {result.key} has no grid length {length}"
            )
        m = result.per_length[length]
        value = m.epsilon_avg if metric == "epsilon" else m.delta_max
        by_d.setdefault(result.d, []).append(value)
    if len(by_d) < 3:
        raise ValueError(
            f"need at least 3 distinct dimensions with successful realizations, "
            f"got {sorted(by_d)}"
        )
    points = tuple(
        (d, float(np.mean(values))) for d, values in sorted(by_d.items())
    )
    means = np.array([mean for _, mean in points])
    if np.any(means <= 0):
        raise ValueError("per-dimension means must be positive for a log-log fit")
    x = np.log10([d for d, _ in points])
    y = np.log10(means)
    xc = x - x.mean()
    yc = y - y.mean()
    slope = float((xc * yc).sum() / (xc * xc).sum())
    intercept = float(y.mean() - slope * x.mean())
    residual = y - (slope * x + intercept)
    ss_res = float((residual * residual).sum())
    ss_tot = float((yc * yc).sum())
    if ss_tot > 0.0:
        r_squared = 1.0 - ss_res / ss_tot
    else:
        r_squared = 1.0 if ss_res == 0.0 else 0.0
    return ScalingFit(
        length=length,
        metric=metric,
        # The +0.0 keeps a flat fit from reporting alpha as -0.0.
        alpha=-slope + 0.0,
        intercept=intercept,
        r_squared=r_squared,
        points=points,
    )
