"""Coherence and classicality metrics on a decoherence functional."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .model import Coarsening, NUM_MACROSTATES
from .spectral import SpectralDecomposition, _rows_times_matrix, apply_projector_batch
from .histories import (
    DecoherenceFunctional,
    M,
    _digit_matrix,
    _reduction_index,
    history_string,
    marginalize,
)

__all__ = [
    "EpsilonReport",
    "TraceDistanceReport",
    "ArrowReport",
    "epsilon_pair",
    "epsilon_average",
    "marginal_probabilities",
    "trace_distance",
    "delta_max",
    "epsilon_by_distance",
    "hamming_distance",
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
    per_pair: list[tuple[int, int, float]] | None = None


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
    """(eps, eligible, dead) over all ordered pairs of histories.

    eps is |entry(x, y)| / sqrt(w_x w_y), zero on dead pairs (either
    weight below 1e-300); eligible marks x != y sharing the final label.
    """
    n = df.entries.shape[0]
    block = M ** (df.length - 1)
    final = np.arange(n) // block
    same_final = final[:, None] == final[None, :]
    off_diag = ~np.eye(n, dtype=bool)
    diag = df.diagonal()
    degenerate = diag < DEGENERATE_WEIGHT
    dead = degenerate[:, None] | degenerate[None, :]
    safe = np.where(degenerate, 1.0, diag)
    eps = np.abs(df.entries) / np.sqrt(np.outer(safe, safe))
    eps[dead] = 0.0
    return eps, same_final & off_diag, dead


def epsilon_pair(df: DecoherenceFunctional, x: int, y: int) -> float:
    """|entry(x, y)| normalized by the geometric mean of the weights.

    Zero for dead branches (either diagonal below 1e-300) and exactly
    zero when the final labels differ.
    """
    if x == y:
        raise ValueError("epsilon is defined for distinct histories only")
    diag = df.diagonal()
    if diag[x] < DEGENERATE_WEIGHT or diag[y] < DEGENERATE_WEIGHT:
        return 0.0
    return float(np.abs(df.entries[x, y]) / np.sqrt(diag[x] * diag[y]))


def epsilon_average(
    df: DecoherenceFunctional, collect_pairs: bool = False
) -> EpsilonReport:
    """Mean violation over ordered pairs x != y sharing the final label.

    The divisor is the full pair count 3^(2L-1) - 3^L; dead pairs
    contribute zero and are tallied in skipped_pairs.
    """
    length = df.length
    if length < 2:
        raise ValueError("epsilon_average needs at least two grid times")
    eps, eligible, dead = _normalized_overlaps(df)
    pair_count = M ** (2 * length - 1) - M**length
    total = float(eps[eligible].sum())
    skipped = int((eligible & dead).sum())
    per_pair = None
    if collect_pairs:
        xs, ys = np.nonzero(eligible)
        per_pair = [(int(x), int(y), float(eps[x, y])) for x, y in zip(xs, ys)]
    return EpsilonReport(
        epsilon_avg=total / pair_count,
        pair_count=pair_count,
        skipped_pairs=skipped,
        per_pair=per_pair,
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
    reduced = marginalize(df, kept)
    p = _real_probabilities(reduced.entries.diagonal(), "Born probabilities")
    # Classical: marginalize the diagonal weights alone.
    ridx = _reduction_index(df.length, kept)
    p_cl = np.zeros(M ** len(kept))
    np.add.at(p_cl, ridx, df.diagonal())
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


def hamming_distance(x: tuple[int, ...], y: tuple[int, ...]) -> int:
    if len(x) != len(y):
        raise ValueError("histories must share a length")
    return sum(a != b for a, b in zip(x, y))


def epsilon_by_distance(df: DecoherenceFunctional) -> dict[int, tuple[float, int]]:
    """Mean violation binned by Hamming distance.

    Only pairs sharing the final label enter, so distances run from 1
    to L - 1.  Returns {distance: (mean_epsilon, pair_count)} with the
    mean over all ordered pairs in the bin (dead pairs count as zero).
    """
    length = df.length
    if length < 2:
        raise ValueError("distance binning needs at least two grid times")
    eps, eligible, _ = _normalized_overlaps(df)
    digits = _digit_matrix(length)
    dist = (digits[:, None, :] != digits[None, :, :]).sum(axis=2)
    out: dict[int, tuple[float, int]] = {}
    for d in range(1, length):
        sel = eligible & (dist == d)
        count = int(sel.sum())
        mean = float(eps[sel].sum() / count) if count else 0.0
        out[d] = (mean, count)
    return out


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
    phases = np.exp(-1j * np.outer(times, sd.eigenvalues))
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
    diag = df.diagonal()
    length = df.length
    return {history_string(h, length): float(diag[h]) for h in range(diag.size)}


def arrow_score(labels: tuple[int, ...], volumes: tuple[int, ...]) -> int:
    """Net count of volume-increasing minus volume-decreasing steps."""
    score = 0
    for a, b in zip(labels, labels[1:]):
        if volumes[b] > volumes[a]:
            score += 1
        elif volumes[b] < volumes[a]:
            score -= 1
    return score


def arrow_classification(
    df: DecoherenceFunctional, coarsening: Coarsening
) -> ArrowReport:
    """Split the diagonal mass by the sign of the volume arrow."""
    if df.length < 2:
        raise ValueError("arrow classification needs at least two grid times")
    volumes = coarsening.volumes
    diag = df.diagonal()
    totals = [0.0, 0.0, 0.0]  # forward, none, backward
    for h in range(diag.size):
        labels = tuple(
            (h // M**k) % M for k in range(df.length)
        )
        score = arrow_score(labels, volumes)
        slot = 0 if score > 0 else (2 if score < 0 else 1)
        totals[slot] += float(diag[h])
    return ArrowReport(
        p_forward=totals[0], p_noarrow=totals[1], p_backward=totals[2]
    )
