"""Branch trees over a time grid and the decoherence functional.

A history x = (x_0, ..., x_n) assigns one macrostate label per grid
time.  Its branch state is Pi_{x_n} U ... Pi_{x_1} U Pi_{x_0} |psi>,
where Pi_x is the index-range mask of energy band x, and the
decoherence functional collects all pairwise branch overlaps
<psi(y)|psi(x)>.  Histories are encoded as base-3 integers with x_0 as
the least significant digit.

compute_df goes from a stack of starts to their functionals in one
call; one start is a stack of one.  Histories whose final labels differ
have orthogonal branches, so each functional is stored as its three
final-label blocks, never as the two-thirds-zero 3^L x 3^L matrix.
The branch tree is grown for all starts together and kept before its
last projection: each block reads one band of the last level, so the
two-thirds-zero leaf array is never built either.  A branch whose first
label is a band where no start has weight is exactly zero, so the tree
never holds it: its levels keep the stack's live rows only (see
_live_rows).  batch_size says how many starts to stack in one call.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .model import MACROSTATE_LABELS, NUM_MACROSTATES, Coarsening
from .spectral import SpectralDecomposition, evolve_batch

__all__ = [
    "MAX_LENGTH",
    "HistoryGrid",
    "DecoherenceFunctional",
    "decode_history",
    "history_string",
    "batch_size",
    "compute_df",
    "marginalize",
]

M = NUM_MACROSTATES
MAX_LENGTH = 6

# Byte cap on the last level of a stack's trees: its live rows (see
# _live_rows) times D complex entries, for all S starts.
MEMORY_BUDGET = 2 << 30


def batch_size(
    sd: SpectralDecomposition, coarsening: Coarsening, starts: np.ndarray, length: int
) -> int:
    """How many starts of the (S, D) stack one compute_df call should take.

    A tree's working set, two last levels and the one before, is 7/3 of
    a last level: the stack's live rows (counted as for MEMORY_BUDGET)
    times D complex entries.  A batch's working sets take at most half
    the eigenvector bytes, so that they and the eigenvectors, about 1.5
    D x D arrays, stay under the eigensolve's own peak of 2.
    """
    working = 7 * 16 * _live_rows(coarsening, starts, length)[1].size * sd.dimension // 3
    return max(1, sd.eigenvectors.nbytes // (2 * working))


@dataclass(frozen=True)
class HistoryGrid:
    """Strictly increasing times t_0 < t_1 < ... < t_n, with n + 1 <= 6."""

    times: tuple[float, ...]

    def __post_init__(self) -> None:
        if not 1 <= len(self.times) <= MAX_LENGTH:
            raise ValueError(
                f"grid must hold between 1 and {MAX_LENGTH} times, got {len(self.times)}"
            )
        arr = np.asarray(self.times, dtype=float)
        if not np.all(np.isfinite(arr)):
            raise ValueError("grid times must be finite")
        if np.any(np.diff(arr) <= 0):
            raise ValueError(f"grid times must be strictly increasing, got {self.times}")

    @classmethod
    def constant(cls, num_steps: int, step: float) -> "HistoryGrid":
        """Equally spaced grid t_k = k * step for k = 0..num_steps."""
        if step <= 0:
            raise ValueError(f"step must be positive, got {step}")
        return cls(times=tuple(k * step for k in range(num_steps + 1)))

    @classmethod
    def random_uniform(
        cls, num_steps: int, lo: float, hi: float, seed: int
    ) -> "HistoryGrid":
        """Grid with i.i.d. uniform spacings from [lo, hi), starting at 0."""
        if not 0 <= lo < hi:
            raise ValueError(f"need 0 <= lo < hi, got ({lo}, {hi})")
        rng = np.random.default_rng(seed)
        gaps = rng.uniform(lo, hi, size=num_steps)
        return cls(times=tuple(np.concatenate([[0.0], np.cumsum(gaps)])))

    @classmethod
    def from_times(cls, times: Sequence[float]) -> "HistoryGrid":
        return cls(times=tuple(float(t) for t in times))

    @property
    def length(self) -> int:
        """Number of times L = n + 1."""
        return len(self.times)

    @property
    def num_steps(self) -> int:
        return len(self.times) - 1


def decode_history(h: int, length: int) -> tuple[int, ...]:
    if not 0 <= h < M**length:
        raise ValueError(f"history {h} out of range for length {length}")
    return tuple((h // M**k) % M for k in range(length))


def history_string(h: int, length: int) -> str:
    """Comma-joined labels, oldest first, e.g. '0,+,0'."""
    return ",".join(MACROSTATE_LABELS[x] for x in decode_history(h, length))


@functools.lru_cache(maxsize=MAX_LENGTH + 1)
def _history_labels(length: int) -> tuple[str, ...]:
    """history_string of every code in code order, memoised per length."""
    return tuple(history_string(h, length) for h in range(M**length))


@functools.lru_cache(maxsize=MAX_LENGTH + 1)
def _digit_matrix(length: int) -> np.ndarray:
    """Read-only (3^L, L) base-3 digits of every code, memoised per length."""
    digits = np.arange(M**length)[:, None] // M ** np.arange(length) % M
    digits.flags.writeable = False
    return digits


@functools.lru_cache(maxsize=MAX_LENGTH + 1)
def _distance_bins(length: int) -> tuple[np.ndarray, ...]:
    """Pair indices of one final-label block by Hamming distance, per length.

    Entry d-1 (d = 1..L-1) holds the read-only row-major flat indices
    into a (b, b) final-label block, b = 3^(L-1), of the code pairs
    whose first L-1 labels differ in d places.
    """
    digits = _digit_matrix(length - 1)
    dist = (digits[:, None, :] != digits[None, :, :]).sum(axis=2).ravel()
    bins = tuple(np.flatnonzero(dist == d) for d in range(1, length))
    for pairs in bins:
        pairs.flags.writeable = False
    return bins


def _live_rows(
    coarsening: Coarsening, starts: np.ndarray, length: int
) -> tuple[list[tuple[int, int]], np.ndarray]:
    """The live rows of an (S, D) stack's last level: the ranges of the
    bands where some start has weight, and the ascending codes h of
    (x_0, ..., x_{L-2}) whose x_0 names one of them.

    A branch whose first label names a band where no start has weight
    is exactly zero, so with L >= 2 a stack with weight in k bands has
    k * 3^(L-2) live rows.  At L = 1 the one row is the starts
    themselves.
    """
    live = np.array([np.any(starts[:, a:b]) for a, b in coarsening.ranges])
    codes = np.arange(M ** (length - 1))
    if length > 1:
        codes = codes[live[codes % M]]
    return [r for r, x in zip(coarsening.ranges, live) if x], codes


def _branch_tree(
    sd: SpectralDecomposition,
    coarsening: Coarsening,
    starts: np.ndarray,
    grid: HistoryGrid,
) -> tuple[np.ndarray, np.ndarray]:
    """Last level of the branch trees of (S, D) starts, live rows only,
    as (codes, level) with level shaped (n, S, D).

    Level 1 evolves only the stack's live bands (see _live_rows); every
    later level evolves all three band slices of each row it holds, so
    no split copy is built and each kept node is evolved once (at most
    sum_k 3^k propagations, not L * 3^L).  Rows are ordered
    [labels][start], so each level reads the eigenvector matrix once for
    all starts and the band chunks stay contiguous.

    The n rows are the stack's live codes h of (x_0, ..., x_{L-2}), in
    ascending order: all 3^(L-1) when the stack has weight in every
    band.  Entry [i, s] is start s's branch of codes[i] at t_{L-1}; its
    band-x slice is the leaf of the history h + x * 3^(L-1).
    """
    starts = np.array(starts, dtype=np.complex128)
    num_starts, d = starts.shape
    ranges, codes = _live_rows(coarsening, starts, grid.length)
    needed = 16 * d * codes.size * num_starts
    if needed > MEMORY_BUDGET:
        raise MemoryError(
            f"branch tree needs {needed} bytes for {num_starts} start(s) with "
            f"{codes.size} live x {d} branches each, budget is {MEMORY_BUDGET}"
        )
    level = starts
    for k in range(1, grid.length):
        dt = grid.times[k] - grid.times[k - 1]
        level = evolve_batch(sd, level, dt, ranges=ranges if k == 1 else coarsening.ranges)
    return codes, level.reshape(-1, num_starts, d)


@dataclass(frozen=True)
class DecoherenceFunctional:
    """Branch overlaps <psi(y)|psi(x)>, kept as three final-label blocks.

    With b = 3^(L-1), blocks[c, i, j] is entry(c*b + i, c*b + j) of the
    Hermitian (3^L, 3^L) functional; every entry whose final labels
    differ is zero and not stored.
    """

    blocks: np.ndarray
    grid: HistoryGrid

    @property
    def length(self) -> int:
        return self.grid.length

    @property
    def entries(self) -> np.ndarray:
        """The full (3^L, 3^L) matrix, zeros included, built on demand."""
        b = self.blocks.shape[1]
        full = np.zeros((M * b, M * b), dtype=self.blocks.dtype)
        np.einsum("ijik->ijk", full.reshape(M, b, M, b))[...] = self.blocks
        return full

    def diagonal(self) -> np.ndarray:
        """Branch weights as a real vector."""
        return np.einsum("cii->ci", self.blocks).real.ravel()


def compute_df(
    sd: SpectralDecomposition,
    coarsening: Coarsening,
    starts: np.ndarray,
    grid: HistoryGrid,
) -> list[DecoherenceFunctional]:
    """Decoherence functionals of (S, D) starts on one matrix and grid.

    The branch trees of all starts grow together (see _branch_tree).
    Block c of a functional needs the last level projected on c, which
    is band c's columns of that level, so no leaf array is built.  The
    products read the stack's live rows only; the rows and columns of
    the dead ones are exact zeros.
    """
    codes, level = _branch_tree(sd, coarsening, starts, grid)
    size = M ** (grid.length - 1)
    # With every row live, the blocks take the products by slice, not by scatter.
    ket, bra = (slice(None),) * 2 if codes.size == size else (codes[:, None], codes)
    functionals = []
    for final in level.transpose(1, 0, 2):
        blocks = np.zeros((M, size, size), dtype=np.complex128)
        for c, (a, b) in enumerate(coarsening.ranges):
            f = final[:, a:b]
            # entry(x, y) = <psi_y | psi_x> = sum_i psi_x[i] conj(psi_y[i]).
            blocks[c][ket, bra] = f @ f.conj().T
        functionals.append(DecoherenceFunctional(blocks=blocks, grid=grid))
    return functionals


def marginalize(
    df: DecoherenceFunctional, t_subset: Iterable[int]
) -> DecoherenceFunctional:
    """Decoherence functional over a subset of the grid times.

    Bra and ket labels at every dropped time are summed independently.
    Keeping a trailing prefix of times reproduces the functional of the
    shorter grid; dropping interior times is equivalent to never having
    projected there.  Entries whose last kept labels differ vanish, so
    only the reduced blocks are summed.
    """
    kept = tuple(sorted(set(int(k) for k in t_subset)))
    if kept == tuple(range(df.length)):
        return df
    if not kept or kept[0] < 0 or kept[-1] >= df.length:
        raise ValueError(f"t_subset {kept} must name grid times in 0..{df.length - 1}")
    # With n = L-1, axis 0 of the blocks holds the final digit, ket
    # digit k sits on axis n-k and bra digit k on axis 2n-k.  The bra
    # digit of the last kept time is tied to its ket digit.
    n = df.length - 1
    axes = list(range(2 * n + 1))
    if kept[-1] < n:
        axes[2 * n - kept[-1]] = n - kept[-1]
    out = [n - k for k in reversed(kept)] + [2 * n - k for k in reversed(kept[:-1])]
    reduced = np.einsum(df.blocks.reshape((M,) * len(axes)), axes, out)
    b = M ** (len(kept) - 1)
    grid = HistoryGrid.from_times([df.grid.times[k] for k in kept])
    return DecoherenceFunctional(blocks=reduced.reshape(M, b, b), grid=grid)
