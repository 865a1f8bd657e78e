"""Coherence and classicality metrics on a decoherence functional."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .model import Coarsening, NUM_MACROSTATES
from .spectral import SpectralDecomposition, _rows_times_matrix, apply_projector_batch
from .histories import (
    DecoherenceFunctional,
    _digit_matrix,
    _distance_bins,
    _history_labels,
    _sum_out,
)

__all__ = [
    "EpsilonReport",
    "TraceDistanceReport",
    "ArrowReport",
    "epsilon_average",
    "marginal_probabilities",
    "trace_distance",
    "delta_max",
    "epsilon_by_distance",
    "macro_dynamics",
    "branch_histogram",
    "arrow_score",
    "arrow_classification",
]

# Branch weights below this are treated as exactly dead branches.
DEGENERATE_WEIGHT = 1e-300

# Tolerance on the imaginary residue of any derived probability.
IMAG_TOLERANCE = 1e-10


@dataclass(frozen=True)
class EpsilonReport:
    """Average normalized off-diagonal violation over nontrivial pairs."""

    epsilon_avg: float
    pair_count: int
    skipped_pairs: int


@dataclass(frozen=True)
class TraceDistanceReport:
    """Born-vs-classical trace distances over time subsets.

    Subsets are bitmasks over grid positions (bit k set means t_k kept);
    every subset contains the final time.
    """

    per_subset: dict[int, float]
    delta_max: float
    argmax_subset: int


@dataclass(frozen=True)
class ArrowReport:
    """Probability mass of histories with a net macrostate-volume arrow."""

    p_forward: float
    p_noarrow: float
    p_backward: float


def _normalized_overlaps(
    df: DecoherenceFunctional,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(eps, eligible, dead) over the pairs sharing the final label.

    All three are (3, b, b) arrays with b = 3^(L-1), indexed like
    df.blocks.  eps is |entry(x, y)| / sqrt(w_x w_y), zero on dead
    pairs (either weight below 1e-300); eligible marks x != y.
    """
    blocks = df.blocks
    diag = df.diagonal().reshape(blocks.shape[:2])
    degenerate = diag < DEGENERATE_WEIGHT
    dead = degenerate[:, :, None] | degenerate[:, None, :]
    safe = np.where(degenerate, 1.0, diag)
    eps = np.abs(blocks) / np.sqrt(safe[:, :, None] * safe[:, None, :])
    eps[dead] = 0.0
    eligible = np.broadcast_to(~np.eye(blocks.shape[1], dtype=bool), eps.shape)
    return eps, eligible, dead


def epsilon_average(df: DecoherenceFunctional) -> EpsilonReport:
    """Mean violation over ordered pairs x != y sharing the final label.

    The divisor is the full pair count 3^(2L-1) - 3^L; dead pairs
    contribute zero and are tallied in skipped_pairs.
    """
    if df.length < 2:
        raise ValueError("epsilon_average needs at least two grid times")
    eps, eligible, dead = _normalized_overlaps(df)
    pair_count = int(eligible.sum())
    total = float(eps[eligible].sum())
    skipped = int((eligible & dead).sum())
    return EpsilonReport(
        epsilon_avg=total / pair_count,
        pair_count=pair_count,
        skipped_pairs=skipped,
    )


def _real_probabilities(values: np.ndarray, what: str) -> np.ndarray:
    residue = float(np.max(np.abs(values.imag))) if np.iscomplexobj(values) else 0.0
    if residue > IMAG_TOLERANCE:
        raise RuntimeError(
            f"imaginary residue {residue:.3e} in {what} exceeds {IMAG_TOLERANCE}"
        )
    return np.asarray(values.real if np.iscomplexobj(values) else values, dtype=float)


def marginal_probabilities(
    df: DecoherenceFunctional, t_subset: Iterable[int]
) -> tuple[np.ndarray, np.ndarray]:
    """Born and classical probabilities over histories on a time subset.

    Returns (p, p_cl) indexed by the reduced base-3 code.  The subset
    must contain the final grid time; only then is p guaranteed to be a
    true probability distribution.
    """
    kept = tuple(sorted(set(int(k) for k in t_subset)))
    if not kept or kept[-1] != df.length - 1:
        raise ValueError(f"t_subset {kept} must contain the final time index")
    born = _sum_out(df.blocks, df.length, kept, tie=True)
    p = _real_probabilities(born, "Born probabilities")
    # Classical: marginalize the diagonal weights alone.
    p_cl = _sum_out(df.diagonal(), df.length, kept)
    return p, p_cl


def trace_distance(p: np.ndarray, p_cl: np.ndarray) -> float:
    return 0.5 * float(np.abs(np.asarray(p) - np.asarray(p_cl)).sum())


def delta_max(df: DecoherenceFunctional) -> TraceDistanceReport:
    """Maximal Born-vs-classical trace distance over time subsets.

    All 2^n subsets containing the final time are enumerated; the
    report maps each subset bitmask to its distance.
    """
    n = df.length - 1
    per_subset: dict[int, float] = {}
    best = -1.0
    best_mask = 0
    for prefix_bits in range(2**n):
        mask = prefix_bits | (1 << n)
        kept = tuple(k for k in range(n + 1) if mask & (1 << k))
        p, p_cl = marginal_probabilities(df, kept)
        dist = trace_distance(p, p_cl)
        per_subset[mask] = dist
        if dist > best:
            best = dist
            best_mask = mask
    return TraceDistanceReport(
        per_subset=per_subset, delta_max=best, argmax_subset=best_mask
    )


def epsilon_by_distance(df: DecoherenceFunctional) -> dict[int, tuple[float, int]]:
    """Mean violation binned by Hamming distance.

    Only pairs sharing the final label enter, so distances run from 1
    to L - 1.  Returns {distance: (mean_epsilon, pair_count)} with the
    mean over all ordered pairs in the bin (dead pairs count as zero).
    """
    length = df.length
    if length < 2:
        raise ValueError("distance binning needs at least two grid times")
    eps = _normalized_overlaps(df)[0].reshape(NUM_MACROSTATES, -1)
    # Each bin in (block, row, column) order, as a boolean mask selects;
    # d >= 1 already excludes x == y, and no bin is empty.
    sels = [np.take(eps, pairs, axis=1).ravel() for pairs in _distance_bins(length)]
    return {d: (float(sel.mean()), sel.size) for d, sel in enumerate(sels, start=1)}


def macro_dynamics(
    sd: SpectralDecomposition,
    coarsening: Coarsening,
    psi0: np.ndarray,
    t_max: float,
    dt: float,
) -> np.ndarray:
    """Macrostate weights <psi(t)|Pi_x|psi(t)> on a sampling grid.

    Returns an (n_samples, 4) array with columns (t, p_-, p_0, p_+).
    All samples come from one spectral decomposition; the batched phase
    matrix keeps this a single BLAS call even for hundreds of samples.
    """
    if dt <= 0 or t_max < 0:
        raise ValueError("need dt > 0 and t_max >= 0")
    times = np.arange(0.0, t_max + 0.5 * dt, dt)
    psi0 = np.asarray(psi0, dtype=np.complex128)
    basis = sd.eigenvectors
    if np.iscomplexobj(basis):
        coeff0 = basis.conj().T @ psi0
    else:
        coeff0 = basis.T @ psi0
    phases = np.exp(-1j * (times[:, None] * sd.eigenvalues))
    states = _rows_times_matrix(phases * coeff0, basis.T)
    out = np.empty((times.size, 1 + NUM_MACROSTATES))
    out[:, 0] = times
    for label in range(NUM_MACROSTATES):
        projected = apply_projector_batch(coarsening, label, states)
        weights = np.einsum("ij,ij->i", states.conj(), projected)
        out[:, 1 + label] = _real_probabilities(weights, "macro weights")
    return out


def branch_histogram(df: DecoherenceFunctional) -> dict[str, float]:
    """Diagonal weights keyed by label string, oldest label first."""
    return dict(zip(_history_labels(df.length), df.diagonal().tolist()))


def arrow_score(labels: Sequence[int] | np.ndarray, volumes: tuple[int, ...]):
    """Net count of volume-increasing minus volume-decreasing steps.

    labels is one label sequence, which gives a NumPy integer, or an
    (n, L) label array, which gives one score per row.
    """
    steps = np.diff(np.asarray(volumes)[np.asarray(labels, dtype=np.intp)], axis=-1)
    return np.sign(steps).sum(axis=-1)


def arrow_classification(
    df: DecoherenceFunctional, coarsening: Coarsening
) -> ArrowReport:
    """Split the diagonal mass by the sign of the volume arrow."""
    if df.length < 2:
        raise ValueError("arrow classification needs at least two grid times")
    scores = arrow_score(_digit_matrix(df.length), coarsening.volumes)
    # Slot 0 forward, 1 none, 2 backward; bincount adds in code order.
    totals = np.bincount(1 - np.sign(scores), weights=df.diagonal(), minlength=3)
    return ArrowReport(*totals.tolist())
