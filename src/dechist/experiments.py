"""Realization setup, sweeps, dynamics, their run config, and power-law fits.

_matrix gives a matrix's decomposition, tau and coarsening once for all
its realizations, and _prepare chooses each one's initial states.  A
sweep runs one realization per (dimension, hamiltonian seed, state
seed) triple, computes a single decoherence functional at the longest
grid, and derives every shorter-grid record from it by trailing
marginalization.  _run_group takes all state seeds
of one matrix to their results: it prepares each seed once and passes
batches of them, sized by histories.batch_size, to one compute_df call
each; a single seed is a batch of one.  Records stream to a JSONL file
in group order as groups finish, so an interrupted sweep resumes
without recomputing completed keys.

Every decomposition goes through _decomposition, which keeps its
eigenvectors in an unlinked temporary file of the process, so a matrix
that the weak, eigenstate and dynamics runs share is decomposed once per
process.

SweepSpec is the run config of every command.  Its config-file JSON is
laid out by CONFIG_FIELDS, which drives parsing and the unknown-key check.
"""

from __future__ import annotations

import contextlib
import enum
import functools
import json
import math
import os
import shutil
import tempfile
from dataclasses import dataclass, fields
from pathlib import Path
from typing import BinaryIO, Iterable

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
    _write_rows,
    eigendecompose,
    sample_haar_state,
    select_eigenstate,
)
from .histories import (
    HistoryGrid,
    MAX_LENGTH,
    batch_size,
    compute_df,
    marginalize,
)
from .metrics import (
    BranchHistogram,
    arrow_classification,
    branch_histogram,
    delta_max,
    epsilon_average,
    epsilon_by_distance,
    macro_dynamics,
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
    "compute_realization_df",
    "run_sweep",
    "run_dynamics",
    "fit_points",
    "FIT_METRICS",
]

# Fit metric -> the PerLengthMetrics field (and results.csv column) it fits.
FIT_METRICS = {"epsilon": "epsilon_avg", "delta": "delta_max"}

# Sampling window of run_dynamics, in units of tau.
DYNAMICS_T_MAX_TAU = 20.0
DYNAMICS_DT_TAU = 0.1

RECORDS_FILENAME = "realizations.jsonl"
SPEC_FILENAME = "sweep_spec.json"

# Most bytes a process's decomposition store file holds; past it, or when a
# write would leave less free space than it takes, decompositions stay in
# memory only.
_STORE_BUDGET_BYTES = 4 << 30


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
        # ModelConfig checks v_minus, delta_e, smallness_target and their scales.
        for d in self.d_grid or (5 * self.v_minus,):
            for regime in Regime:
                ModelConfig(d // 5, self.delta_e, regime,
                            smallness_target=self.smallness_target)
        if self.num_hamiltonian_seeds < 1 or self.num_state_seeds < 1:
            raise ValueError("seed counts must be at least 1")
        if self.base_seed < 0:
            raise ValueError("base_seed must be non-negative")
        if not 1 <= self.num_steps <= MAX_LENGTH - 1:
            raise ValueError(
                f"num_steps must lie in [1, {MAX_LENGTH - 1}], got {self.num_steps}"
            )
        # The number checks below are written so that NaN fails them.
        if isinstance(self.step_mode, str):
            if self.step_mode != "tau":
                raise ValueError(f"unknown step mode {self.step_mode!r}")
        elif isinstance(self.step_mode, (int, float)):
            if not 0 < self.step_mode < math.inf:
                raise ValueError("explicit grid step must be positive and finite")
        elif isinstance(self.step_mode, RandomSpacing):
            lo, hi = self.step_mode.lo_tau, self.step_mode.hi_tau
            if not 0 <= lo < hi < math.inf:
                raise ValueError(f"random_uniform [{lo}, {hi}] needs 0 <= lo < hi < inf")
        else:
            raise ValueError(f"unsupported step mode {self.step_mode!r}")
        if self.weights is not None:
            if self.init_family is InitFamily.EIGENSTATE:
                raise ValueError("weights do not apply to the eigenstate family")
            for w in self.weights:
                if len(w) != 3 or min(w) < 0 or not abs(sum(w) - 1.0) <= 1e-12:
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
    histogram: BranchHistogram


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


# ModelConfig -> (eigenvalues, file, offset, dtype) of each stored
# decomposition, and (owner pid, file) of the file this process appends to.
_store: dict[ModelConfig, tuple[np.ndarray, BinaryIO, int, np.dtype]] = {}
_store_file: tuple[int, BinaryIO] | None = None


def _decomposition(config: ModelConfig) -> SpectralDecomposition:
    """Decomposition of config's matrix, computed once per process.

    Eigenvectors are appended to one unlinked temporary file per process,
    which never shows in the temporary directory and is freed however the
    process ends; a hit maps them read-only from it.  A forked worker
    reads the entries it inherited from its parent's file and appends to
    its own.  A miss is stored unless the file would pass
    _STORE_BUDGET_BYTES, the write would take more than half the free
    space, or a write fails; the file is unbuffered (see _write_rows), so
    a failed append leaves nothing pending for a later hit to write.  A
    hit that cannot be mapped drops its entry and is a miss, so no store
    fault reaches a caller.  Eigenvectors are read-only on both paths.
    """
    global _store_file
    if config in _store:
        evals, fh, offset, dtype = _store[config]
        try:
            evecs = np.memmap(fh, dtype, "r", offset, (evals.size, evals.size))
            return SpectralDecomposition(evals, np.asarray(evecs))
        except OSError:
            del _store[config]
    sd = eigendecompose(build_hamiltonian(config))
    sd.eigenvalues.flags.writeable = False
    sd.eigenvectors.flags.writeable = False
    try:
        if _store_file is None or _store_file[0] != os.getpid():
            _store_file = (os.getpid(), tempfile.TemporaryFile(buffering=0))
        fh = _store_file[1]
        offset = fh.seek(0, os.SEEK_END)
        size = sd.eigenvectors.nbytes
        if (offset + size <= _STORE_BUDGET_BYTES
                and 2 * size <= shutil.disk_usage(tempfile.gettempdir()).free):
            _write_rows(fh, sd.eigenvectors)
            _store[config] = (sd.eigenvalues, fh, offset, sd.eigenvectors.dtype)
    except OSError:
        pass
    return sd


def _matrix(spec: SweepSpec, d: int, h_index: int, sd: SpectralDecomposition | None = None):
    """(sd, tau, coarsening) of one matrix; `sd` defaults to _decomposition's."""
    config = spec.model_config(d, h_index)
    if sd is None:
        sd = _decomposition(config)
    return sd, derive_coupling(config).tau, build_coarsening(config)


def _prepare(spec: SweepSpec, h_index: int, s_index: int,
             sd: SpectralDecomposition, coarsening: Coarsening):
    """Starts of one realization on its matrix's decomposition.

    Each start is (weights, psi0, eigenstate_index): a seeded eigenstate
    (weights None), or one Haar state per weight triple (default:
    equilibrium weights, or all weight on '-' out of equilibrium), each
    drawn from the state seed.
    """
    state_seed = spec.state_seed(h_index, s_index)
    if spec.init_family is InitFamily.EIGENSTATE:
        psi0, eigenstate_index = select_eigenstate(sd, state_seed)
        return [(None, psi0, eigenstate_index)]
    default = (1.0, 0.0, 0.0)
    if spec.init_family is InitFamily.HAAR_EQUILIBRIUM:
        default = tuple(v / coarsening.dimension for v in coarsening.volumes)
    triples = spec.weights or (default,)
    return [(w, sample_haar_state(coarsening, w, state_seed), None) for w in triples]


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
    spec: SweepSpec, d: int, h_index: int, s_index: int,
    hamiltonian: BlockHamiltonian | None = None, sd: SpectralDecomposition | None = None,
):
    """(df, coarsening, eigenstate_index) of one realization at the full grid,
    from the first start of _prepare; `sd` defaults to _decomposition's,
    and `hamiltonian` is not read."""
    sd, tau, coarsening = _matrix(spec, d, h_index, sd)
    _, psi0, eigenstate_index = _prepare(spec, h_index, s_index, sd, coarsening)[0]
    grid = _make_grid(spec, tau, h_index, s_index)
    return compute_df(sd, coarsening, psi0[None], grid)[0], coarsening, eigenstate_index


def run_dynamics(spec: SweepSpec) -> list[tuple[tuple[float, ...] | None, np.ndarray]]:
    """Macrostate weights of one realization at D = 5 * v_minus.

    One (weights, series) block per start of _prepare, weights None for
    an eigenstate; each series holds (t, p_minus, p_zero, p_plus) rows
    over [0, 20 tau] every tau / 10.
    """
    if spec.v_minus is None:
        raise ConfigError("model.v_minus: required by the dynamics command")
    sd, tau, coarsening = _matrix(spec, 5 * spec.v_minus, 0)
    starts = _prepare(spec, 0, 0, sd, coarsening)
    t_max, dt = DYNAMICS_T_MAX_TAU * tau, DYNAMICS_DT_TAU * tau
    return [(w, macro_dynamics(sd, coarsening, psi0, t_max, dt)) for w, psi0, _ in starts]


def _realization_result(
    spec: SweepSpec, d: int, h_index: int, s_index: int,
    df, coarsening, eigenstate_index: int | None,
) -> RealizationResult:
    """Metrics of a realization's functional.

    Each shorter grid's functional is marginalized from the next longer
    one, so only the full one is read at full size.
    """
    per_length: dict[int, PerLengthMetrics] = {}
    sub = df
    for length in range(spec.l_max, 1, -1):
        sub = marginalize(sub, range(length))
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
    return RealizationResult(
        **_identity(spec, d, h_index, s_index),
        eigenstate_index=eigenstate_index,
        per_length=dict(reversed(per_length.items())),
        distance_bins=epsilon_by_distance(df),
    )


def _identity(spec: SweepSpec, d: int, h_index: int, s_index: int) -> dict:
    """The RealizationResult fields that name a realization."""
    return dict(
        d=d, h_index=h_index, s_index=s_index,
        hamiltonian_seed=spec.hamiltonian_seed(h_index),
        state_seed=spec.state_seed(h_index, s_index),
        regime=spec.regime.value, init_family=spec.init_family.value,
    )


def _error_result(
    spec: SweepSpec, d: int, h_index: int, s_index: int, exc: Exception
) -> RealizationResult:
    return RealizationResult(
        **_identity(spec, d, h_index, s_index),
        eigenstate_index=None,
        per_length={},
        distance_bins={},
        error=f"{type(exc).__name__}: {exc}",
    )


def _run_group(
    spec: SweepSpec, d: int, h_index: int, s_indices: tuple[int, ...]
) -> list[RealizationResult]:
    """Results of all state seeds for one (d, h_index), in seed order.

    One eigensolve; each seed is prepared once, and fails there if that
    raises.  The others grow their trees in consecutive batches of one
    compute_df call each, sized by histories.batch_size over all of them
    (one seed each for random spacings, which give every seed its own
    grid).  A batch that raises is rerun one seed at a time, and a seed
    whose metrics raise fails alone.
    """
    try:
        sd, tau, coarsening = _matrix(spec, d, h_index)
    except Exception as exc:  # noqa: BLE001 - recorded, sweep continues
        return [_error_result(spec, d, h_index, s, exc) for s in s_indices]
    results, psi0, eigenstate = {}, {}, {}
    for s in s_indices:
        try:
            _, psi0[s], eigenstate[s] = _prepare(spec, h_index, s, sd, coarsening)[0]
        except Exception as exc:  # noqa: BLE001 - recorded, sweep continues
            results[s] = _error_result(spec, d, h_index, s, exc)
    ready = tuple(psi0)
    size = 1
    if ready and not isinstance(spec.step_mode, RandomSpacing):
        stack = np.stack(list(psi0.values()))
        size = batch_size(sd, coarsening, stack, spec.l_max)
    batches = [ready[i:i + size] for i in range(0, len(ready), size)]
    while batches:
        batch = batches.pop(0)
        try:
            grid = _make_grid(spec, tau, h_index, batch[0])
            dfs = compute_df(sd, coarsening, np.stack([psi0[s] for s in batch]), grid)
        except Exception as exc:  # noqa: BLE001 - recorded, sweep continues
            if len(batch) > 1:
                batches[:0] = [(s,) for s in batch]
            else:
                results[batch[0]] = _error_result(spec, d, h_index, batch[0], exc)
            continue
        for s, df in zip(batch, dfs):
            try:
                results[s] = _realization_result(
                    spec, d, h_index, s, df, coarsening, eigenstate[s]
                )
            except Exception as exc:  # noqa: BLE001 - recorded, sweep continues
                results[s] = _error_result(spec, d, h_index, s, exc)
        del dfs, df  # no functional lives on while the next batch's tree grows
    return [results[s] for s in s_indices]


def result_to_dict(result: RealizationResult) -> dict:
    """JSON-ready record: the result's fields, with error only when set,
    and each histogram as a plain dict in code order."""
    data = dict(vars(result))
    data["per_length"] = {
        l: {**vars(m), "histogram": dict(zip(m.histogram, m.histogram.weights.tolist()))}
        for l, m in result.per_length.items()
    }
    if result.error is None:
        del data["error"]
    return data


def result_from_dict(data: dict) -> RealizationResult:
    """Inverse of result_to_dict, also for records read back from JSON."""
    data = dict(data)
    data["per_length"] = {
        int(l): PerLengthMetrics(
            **{**m, "histogram": BranchHistogram.from_dict(int(l), m["histogram"])}
        )
        for l, m in data["per_length"].items()
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


def _load_records(path: Path) -> dict[tuple[int, int, int], RealizationResult]:
    """Results of a JSONL stream, keyed by (d, h_index, s_index).

    Lines are read one at a time, and each becomes a result before the
    next is read.  Every complete record ends in a newline.  A last line
    without one was torn by an interrupted append: it is cut off the
    file, so its key is recomputed and the next append starts on a fresh
    line.  A failed record, which older releases wrote, is skipped, so
    its key is recomputed too; its line stays in the file.
    """
    records: dict[tuple[int, int, int], RealizationResult] = {}
    if not path.exists():
        return records
    complete = 0
    with path.open("rb") as fh:
        for line in fh:
            if not line.endswith(b"\n"):
                break
            complete += len(line)
            if line.strip():
                data = json.loads(line)
                if "error" in data:  # a failed record of an older release
                    continue
                data.pop("wall_time_s", None)  # schema-1 records carry a timing
                result = result_from_dict(data)
                records[result.key] = result
        torn = fh.tell() > complete
    if torn:
        with path.open("r+b") as fh:
            fh.truncate(complete)
    return records


def run_sweep(
    spec: SweepSpec,
    output_dir: str | Path | None = None,
    workers: int = 1,
) -> list[RealizationResult]:
    """Run (or resume) every realization of a sweep.

    With an output directory, each finished group appends its records to
    realizations.jsonl once every earlier group is done, so the file is
    in group order for any worker count, and existing records are
    skipped on rerun, so a completed directory costs no recomputation.
    Results come back sorted by (d, h_index, s_index) regardless of
    worker count or completion order.  A failed realization, whether
    its group raised or was lost to a crashed worker, comes back as a
    failed result but is never written, so the stream holds successes
    only and a rerun retries every failure.
    """
    if spec.d_grid is None:
        raise ConfigError("model.d_grid: required by the sweep command")
    records: dict[tuple[int, int, int], RealizationResult] = {}
    records_path = None
    if output_dir is not None:
        out = Path(output_dir)
        out.mkdir(parents=True, exist_ok=True)
        spec_path = out / SPEC_FILENAME
        spec_dict = _spec_to_dict(spec)
        if spec_path.exists():
            stored = json.loads(spec_path.read_text())
            if stored != spec_dict:
                raise ConfigError(
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

    # Forked workers read the parent's decomposition store.  Each group's
    # outcome is taken in group order, so the stream is in group order
    # whatever the completion order.  A serial sweep imports no pool.
    pool, broken = None, ()
    if workers > 1 and groups:
        import multiprocessing
        from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor

        fork = multiprocessing.get_context("fork")
        pool = ProcessPoolExecutor(max_workers=min(workers, len(groups)), mp_context=fork)
        broken = BrokenProcessPool
    with pool or contextlib.nullcontext():
        outcomes = [
            pool.submit(_run_group, spec, *group).result if pool
            else functools.partial(_run_group, spec, *group)
            for group in groups
        ]
        for (d, h_index, pending), outcome in zip(groups, outcomes):
            try:
                batch = outcome()
            except broken as exc:  # a worker died: the group's realizations fail
                batch = [_error_result(spec, d, h_index, s, exc) for s in pending]
            records.update((r.key, r) for r in batch)
            if records_path is not None:
                lines = [json.dumps(result_to_dict(r), sort_keys=True) + "\n"
                         for r in batch if not r.failed]
                with records_path.open("a") as fh:
                    fh.writelines(lines)

    return [records[key] for key in sorted(records)]


def fit_points(
    points: Iterable[tuple[int, float]], metric: str, length: int
) -> ScalingFit:
    """Fit metric(D) ~ D^(-alpha) through per-dimension means.

    Values are averaged per dimension in the order given; the fit is
    ordinary least squares on (log10 D, log10 mean).  Requires at least
    three distinct dimensions and positive, finite means.
    """
    by_d: dict[int, list[float]] = {}
    for d, value in points:
        by_d.setdefault(d, []).append(value)
    if len(by_d) < 3:
        raise ValueError(
            f"need at least 3 distinct dimensions with successful realizations, "
            f"got {sorted(by_d)}"
        )
    averaged = tuple(
        (d, float(np.mean(values))) for d, values in sorted(by_d.items())
    )
    means = np.array([mean for _, mean in averaged])
    if not np.all((means > 0) & (means < np.inf)):
        raise ValueError("per-dimension means must be positive and finite")
    x = np.log10([d for d, _ in averaged])
    y = np.log10(means)
    xc = x - x.mean()
    yc = y - y.mean()
    slope = float((xc * yc).sum() / (xc * xc).sum())
    intercept = float(y.mean() - slope * x.mean())
    residual = y - (slope * x + intercept)
    ss_res = float((residual * residual).sum())
    ss_tot = float((yc * yc).sum())
    r_squared = 1.0 - ss_res / ss_tot if ss_tot > 0.0 else float(ss_res == 0.0)
    return ScalingFit(
        length=length,
        metric=metric,
        # The +0.0 keeps a flat fit from reporting alpha as -0.0.
        alpha=-slope + 0.0,
        intercept=intercept,
        r_squared=r_squared,
        points=averaged,
    )
