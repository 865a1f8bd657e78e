"""Coherence and classicality metrics on a decoherence functional."""

from __future__ import annotations

import functools
from collections.abc import Mapping
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .model import Coarsening, NUM_MACROSTATES
from .spectral import SpectralDecomposition, _rows_times_matrix, _to_eigenbasis
from .histories import (
    MAX_LENGTH,
    DecoherenceFunctional,
    _digit_matrix,
    _distance_bins,
    _history_labels,
)

__all__ = [
    "EpsilonReport",
    "TraceDistanceReport",
    "ArrowReport",
    "BranchHistogram",
    "epsilon_average",
    "delta_max",
    "epsilon_by_distance",
    "macro_dynamics",
    "branch_histogram",
    "arrow_score",
    "arrow_classification",
]

M = NUM_MACROSTATES

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


def _normalized_overlaps(df: DecoherenceFunctional) -> np.ndarray:
    """|entry(x, y)| / sqrt(w_x w_y) over the pairs sharing the final label.

    A (3, b, b) array with b = 3^(L-1), indexed like df.blocks.  Dead
    pairs (either weight below 1e-300) are exact zeros, and so is the
    diagonal, which no pair metric reads.
    """
    weights = df.diagonal().reshape(df.blocks.shape[:2])
    scale = np.zeros_like(weights)
    alive = weights >= DEGENERATE_WEIGHT
    scale[alive] = 1.0 / np.sqrt(weights[alive])
    eps = np.abs(df.blocks)
    eps *= scale[:, :, None]
    eps *= scale[:, None, :]
    np.einsum("cii->ci", eps)[...] = 0.0
    return eps


def epsilon_average(df: DecoherenceFunctional) -> EpsilonReport:
    """Mean violation over ordered pairs x != y sharing the final label.

    The divisor is the full pair count 3^(2L-1) - 3^L; dead pairs
    contribute zero and are tallied in skipped_pairs.
    """
    if df.length < 2:
        raise ValueError("epsilon_average needs at least two grid times")
    b = df.blocks.shape[1]
    pair_count = M * b * (b - 1)
    live = (df.diagonal().reshape(M, b) >= DEGENERATE_WEIGHT).sum(axis=1)
    return EpsilonReport(
        epsilon_avg=float(_normalized_overlaps(df).sum()) / pair_count,
        pair_count=pair_count,
        skipped_pairs=pair_count - int((live * (live - 1)).sum()),
    )


def _real_probabilities(values: np.ndarray, what: str) -> np.ndarray:
    residue = float(np.max(np.abs(values.imag)))
    if residue > IMAG_TOLERANCE:
        raise RuntimeError(f"imaginary residue {residue:.3e} in {what} exceeds {IMAG_TOLERANCE}")
    return values.real


def delta_max(df: DecoherenceFunctional) -> TraceDistanceReport:
    """Maximal Born-vs-classical trace distance over time subsets.

    All 2^n subsets containing the final time are enumerated; the
    report maps each subset bitmask to its distance.  One pass over the
    blocks gives every subset's Born probabilities: each non-final
    time's (ket, bra) label pair collapses to 4 slots, the three tied
    labels and then the sum over all nine pairs, and its classical
    weights to their 3 entries and their sum.  A subset reads slots
    0-2 at its kept times and slot 3 at its dropped ones.
    """
    n = df.length - 1
    born = df.blocks.reshape(M, 1, M**n, M**n)
    classical = df.diagonal().reshape(M, 1, M**n)
    for _ in range(n):
        # The latest uncollapsed time is the codes' top digit; its slot
        # digit goes below those of the later times, so time k ends up
        # as the base-4 digit of weight 4^k.
        b = born.shape[-1] // M
        born = born.reshape(M, -1, M, b, M, b)
        tied = [born[:, :, x, :, x] for x in range(M)]
        pair_sum = born.sum(axis=2).sum(axis=3)
        born = np.stack(tied + [pair_sum], axis=2).reshape(M, -1, b, b)
        classical = classical.reshape(M, -1, M, b)
        classical = np.concatenate([classical, classical.sum(axis=2, keepdims=True)], axis=2)
    p = _real_probabilities(born.reshape(M, -1), "Born probabilities")
    gap = np.abs(p - classical.reshape(M, -1))
    # Time by time again, latest first, into bit 0 (dropped: the sum
    # slot) or bit 1 (kept: the label slots' sum).
    for k in range(n):
        gap = gap.reshape(M, 2**k, M + 1, -1)
        gap = np.stack([gap[:, :, M], gap[:, :, :M].sum(axis=2)], axis=2)
    distances = 0.5 * gap.reshape(M, 2**n).sum(axis=0)
    masks = [prefix_bits | (1 << n) for prefix_bits in range(2**n)]
    per_subset = dict(zip(masks, distances.tolist()))
    best = masks[int(np.argmax(distances))]
    return TraceDistanceReport(
        per_subset=per_subset, delta_max=per_subset[best], argmax_subset=best
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
    eps = _normalized_overlaps(df).reshape(M, -1)
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
    coeff0 = _to_eigenbasis(psi0[None], sd.eigenvectors)[0]
    phases = np.exp(-1j * (times[:, None] * sd.eigenvalues))
    states = _rows_times_matrix(phases * coeff0, sd.eigenvectors.T)
    out = np.empty((times.size, 1 + NUM_MACROSTATES))
    out[:, 0] = times
    for label, (start, stop) in enumerate(coarsening.ranges):
        band = states[:, start:stop]
        weights = np.einsum("ij,ij->i", band.conj(), band)
        out[:, 1 + label] = _real_probabilities(weights, "macro weights")
    return out


@functools.lru_cache(maxsize=MAX_LENGTH + 1)
def _label_codes(length: int) -> dict[str, int]:
    """Code of every history label, memoised per length."""
    return {label: code for code, label in enumerate(_history_labels(length))}


class BranchHistogram(Mapping):
    """Read-only map from history label to branch weight.

    The 3^L weights are one read-only float64 array in code order, and
    the labels are the ones _history_labels(L) shares, so a histogram
    costs 8 bytes per history.  It iterates and lists items in code
    order; dict(h) gives a plain dict.
    """

    __slots__ = ("length", "weights")

    def __init__(self, length: int, weights: np.ndarray):
        weights.flags.writeable = False
        self.length = length
        self.weights = weights

    @classmethod
    def from_dict(cls, length: int, data: Mapping[str, float]) -> "BranchHistogram":
        """The histogram of a {label: weight} dict naming every history."""
        labels = _history_labels(length)
        return cls(length, np.fromiter(map(data.__getitem__, labels), float, len(labels)))

    def __getitem__(self, label: str) -> float:
        return float(self.weights[_label_codes(self.length)[label]])

    def __iter__(self):
        return iter(_history_labels(self.length))

    def __len__(self) -> int:
        return self.weights.size

    def __repr__(self) -> str:
        return f"BranchHistogram({dict(self)!r})"

    def __reduce__(self):
        # Unpickled in a sweep's parent, the weights are read-only again.
        return type(self), (self.length, self.weights)


def branch_histogram(df: DecoherenceFunctional) -> BranchHistogram:
    """Diagonal weights keyed by label string, oldest label first."""
    return BranchHistogram(df.length, df.diagonal())


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
