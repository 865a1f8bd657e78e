"""Exact spectral time evolution and state preparation.

Each Hamiltonian is diagonalized once; evolution over any interval is a
phase multiplication in the eigenbasis, so no step-size error enters
anywhere downstream.  Evolution acts on states stacked as rows; one
state is passed as a batch of one, psi[None].
"""

from __future__ import annotations

import ctypes
from dataclasses import dataclass

import numpy as np

from .model import BlockHamiltonian, Coarsening, NUM_MACROSTATES

__all__ = [
    "SpectralDecomposition",
    "eigendecompose",
    "evolve_batch",
    "sample_haar_state",
    "select_eigenstate",
]


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues (ascending) and eigenvector columns of a Hamiltonian.

    Eigenvectors stay real for real symmetric input; evolution exploits
    that with real-valued BLAS calls.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def dimension(self) -> int:
        return self.eigenvalues.shape[0]


def _lapack(name: str):
    """The LAPACK routine `name` that numpy's linalg module binds to, or
    None where numpy's build exposes no such symbol."""
    try:
        routine = getattr(ctypes.CDLL(np.linalg._umath_linalg.__file__), name)
    except (OSError, AttributeError):
        return None
    routine.argtypes = [ctypes.c_char_p] * 2 + [ctypes.c_void_p] * (
        11 if name.startswith("scipy_z") else 9
    )
    routine.restype = None
    return routine


# Divide-and-conquer eigensolvers of numpy's bundled ILP64 OpenBLAS, the
# ones np.linalg.eigh calls, so both paths give the same bits.
_DSYEVD = _lapack("scipy_dsyevd_64_")
_ZHEEVD = _lapack("scipy_zheevd_64_")


def _evd(routine, h: np.ndarray, evals: np.ndarray, query: bool, *work: np.ndarray) -> None:
    """One ?syevd/?heevd call, jobz 'V' and uplo 'L', on the C-order
    buffer h; `work` is (work, iwork) or (work, rwork, iwork).  A query
    passes every length as -1 and fills only work[k][0]."""
    n, info = ctypes.c_int64(h.shape[0]), ctypes.c_int64()
    lengths = [ctypes.c_int64(-1 if query else w.size) for w in work]
    args = [ctypes.byref(n), h.ctypes.data, ctypes.byref(n), evals.ctypes.data]
    for w, length in zip(work, lengths):
        args += [w.ctypes.data, ctypes.byref(length)]
    routine(b"V", b"L", *args, ctypes.byref(info))
    if info.value != 0:
        raise RuntimeError(
            f"Hermitian eigensolver failed to converge at D={h.shape[0]} (info {info.value})"
        )


def eigendecompose(hamiltonian: BlockHamiltonian) -> SpectralDecomposition:
    """Dense Hermitian eigendecomposition, done once per realization.

    The fresh dense matrix is solved in place by numpy's own LAPACK
    routine, bit-identical to np.linalg.eigh but without its copies of
    the input and the output: the peak holds the matrix and the 2 D^2
    workspace, three D x D arrays instead of five.  Where numpy's LAPACK
    lacks the routine, np.linalg.eigh runs instead.
    """
    h = hamiltonian.matrix
    complex_ = np.iscomplexobj(h)
    routine = {np.dtype(np.float64): _DSYEVD, np.dtype(np.complex128): _ZHEEVD}.get(h.dtype)
    if routine is None:
        try:
            evals, evecs = np.linalg.eigh(h)
        except np.linalg.LinAlgError as exc:
            raise RuntimeError(
                f"Hermitian eigensolver failed to converge at D={hamiltonian.dimension}"
            ) from exc
        return SpectralDecomposition(eigenvalues=evals, eigenvectors=evecs)
    if complex_:
        # LAPACK reads the C-order buffer as h.T, which is conj(h) for
        # exactly Hermitian h; conjugating gives it numpy's lower triangle.
        np.conjugate(h, out=h)
    evals = np.empty(h.shape[0])
    sizes = [np.zeros(1, h.dtype), np.zeros(1, np.int64)]
    if complex_:
        sizes.insert(1, np.zeros(1))
    _evd(routine, h, evals, True, *sizes)
    work = [np.empty(int(q[0].real), q.dtype) for q in sizes]
    _evd(routine, h, evals, False, *work)
    del work
    # Eigenvectors come back as the rows of h; numpy's layout has them
    # as columns.  Copying after the workspace is freed keeps the peak.
    return SpectralDecomposition(eigenvalues=evals, eigenvectors=np.ascontiguousarray(h.T))


def _rows_times_matrix(rows: np.ndarray, mat: np.ndarray) -> np.ndarray:
    """rows @ mat, reading mat from memory once.

    Complex rows times a real matrix run as one real GEMM on the real
    and imaginary parts stacked as (2n, k).  At a few dozen rows the
    product is bound by streaming mat, so this halves the traffic of
    two real GEMMs, and unlike one complex GEMM it needs no complex
    copy of mat.  Rows passed as a temporary are freed once stacked,
    so the product holds two arrays of the output's size at a time.
    """
    if np.iscomplexobj(mat) or not np.iscomplexobj(rows):
        return rows @ mat
    n = rows.shape[0]
    stacked = np.concatenate([rows.real, rows.imag])
    del rows
    prod = stacked @ mat
    del stacked
    out = prod[:n].astype(np.complex128)
    out.imag = prod[n:]
    return out


def _coefficients(
    sd: SpectralDecomposition, states: np.ndarray, dt: float,
    ranges: tuple[tuple[int, int], ...],
) -> np.ndarray:
    """Eigenbasis coefficients of each row's slice on each range,
    label-major, advanced by dt; see evolve_batch."""
    n, d = states.shape
    basis = sd.eigenvectors
    coeff = np.empty((len(ranges) * n, d), dtype=np.complex128)
    for x, (a, b) in enumerate(ranges):
        sliced = states[:, a:b]
        if np.iscomplexobj(basis):
            # sliced @ conj(E) without materializing a conjugate copy of E.
            coeff[x * n : (x + 1) * n] = np.conj(np.conj(sliced) @ basis[a:b])
        else:
            coeff[x * n : (x + 1) * n] = _rows_times_matrix(sliced, basis[a:b])
    coeff *= np.exp(-1j * dt * sd.eigenvalues)
    return coeff


def evolve_batch(
    sd: SpectralDecomposition,
    states: np.ndarray,
    dt: float,
    ranges: tuple[tuple[int, int], ...] | None = None,
) -> np.ndarray:
    """Evolve stacked row states by exp(-i H dt), norms kept up to roundoff.

    One state is a batch of one: evolve_batch(sd, psi[None], dt)[0].

    With `ranges`, every row's slice on each range, zero elsewhere, is
    evolved, label-major: row x * n + r of the (len(ranges) * n, D)
    result evolves columns ranges[x] of row r (the children of a
    branch-tree level under the band masks).  Each forward transform
    then reads only that range's rows of the eigenvector matrix, and
    the backward transform runs once for all slices.  Every slice is
    evolved; one that is exactly zero comes out exactly zero.

    Parameters
    ----------
    states : ndarray, shape (n, D)
        One state per row.
    ranges : sequence of (start, stop), optional
        Column ranges to evolve every row on; None means all columns.
    """
    states = np.asarray(states, dtype=np.complex128)
    n, d = states.shape
    ranges = ((0, d),) if ranges is None else ranges
    if dt == 0.0:
        out = np.zeros((len(ranges) * n, d), dtype=np.complex128)
        for x, (a, b) in enumerate(ranges):
            out[x * n : (x + 1) * n, a:b] = states[:, a:b]
        return out
    # Passed as a temporary, the coefficient block is freed before the
    # backward product (see _rows_times_matrix).
    return _rows_times_matrix(_coefficients(sd, states, dt, ranges), sd.eigenvectors.T)


def sample_haar_state(
    coarsening: Coarsening, weights: tuple[float, float, float], state_seed: int
) -> np.ndarray:
    """Draw psi = sum_x sqrt(p_x) |psi_x> with |psi_x> Haar in macrostate x.

    Haar vectors come from normalized i.i.d. standard complex Gaussians.
    Weights must be non-negative and sum to one; a macrostate only
    consumes randomness when its weight is positive.
    """
    w = np.asarray(weights, dtype=float)
    bad_sum = not abs(w.sum() - 1.0) <= 1e-12  # written so that NaN fails
    if w.shape != (NUM_MACROSTATES,) or np.any(w < 0) or bad_sum:
        raise ValueError(f"weights must be three non-negatives summing to 1, got {weights}")
    rng = np.random.default_rng(state_seed)
    psi = np.zeros(coarsening.dimension, dtype=np.complex128)
    for label, p in enumerate(w):
        if p == 0.0:
            continue
        start, stop = coarsening.ranges[label]
        z = np.zeros(coarsening.dimension, dtype=np.complex128)
        z[start:stop] = rng.standard_normal(stop - start) + 1j * rng.standard_normal(
            stop - start
        )
        norm = np.linalg.norm(z)
        if norm == 0.0:
            raise ValueError(f"macrostate {label} has weight {p} but no support")
        psi += np.sqrt(p) * z / norm
    return psi


def select_eigenstate(sd: SpectralDecomposition, state_seed: int) -> tuple[np.ndarray, int]:
    """Pick a uniformly random energy eigenstate; returns (state, index)."""
    rng = np.random.default_rng(state_seed)
    index = int(rng.integers(0, sd.dimension))
    return np.array(sd.eigenvectors[:, index], dtype=np.complex128), index
