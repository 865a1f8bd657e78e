"""Exact spectral time evolution and state preparation.

Each Hamiltonian is diagonalized once; evolution over any interval is a
phase multiplication in the eigenbasis, so no step-size error enters
anywhere downstream.  Evolution acts on states stacked as rows; one
state is passed as a batch of one, psi[None].
"""

from __future__ import annotations

import ctypes
import errno
import io
import math
from dataclasses import dataclass
from tempfile import TemporaryFile
from typing import BinaryIO

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


def _routines(prefix: str, names: tuple[str, ...]):
    """numpy's LAPACK routines prefix + name, or None if any is missing."""
    try:
        lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
        routines = [getattr(lib, f"scipy_{prefix}{name}_64_") for name in names]
    except (OSError, AttributeError):
        return None
    for routine in routines:  # only the max-abs norm returns a value
        routine.restype = ctypes.c_double if routine is routines[1] else None
    return routines


# numpy's bundled ILP64 OpenBLAS: the divide-and-conquer driver
# np.linalg.eigh calls, ?syevd or ?heevd, and its stages: norm, rescale,
# tridiagonal reduction, divide and conquer, and back-transformation.
_DSTAGES = _routines("d", ("syevd", "lansy", "lascl", "sytrd", "stedc", "ormtr"))
_ZSTAGES = _routines("z", ("heevd", "lanhe", "lascl", "hetrd", "stedc", "unmtr"))

# glibc only: the musl, macOS and Windows allocators return large frees themselves.
try:
    _MALLOC_TRIM = ctypes.CDLL(None).malloc_trim
    _MALLOC_TRIM.argtypes, _MALLOC_TRIM.restype = (ctypes.c_size_t,), ctypes.c_int
except (OSError, AttributeError, TypeError):
    _MALLOC_TRIM = None

# The driver rescales a matrix whose largest entry lies outside
# [_RMIN, _RMAX]: the square roots of LAPACK's safe minimum over its
# precision, and of the inverse.
_RMIN = math.sqrt(np.finfo(float).tiny / np.finfo(float).eps)
_RMAX = 1.0 / _RMIN


def _refs(*args) -> list:
    """LAPACK's calling convention: bytes pass as characters, ints and
    floats by reference as int64 and double, and arrays as bare pointers
    to their data, so the caller holds every array for the whole call."""
    return [
        a if isinstance(a, bytes)
        else ctypes.c_void_p(a.ctypes.data) if isinstance(a, np.ndarray)
        else ctypes.byref((ctypes.c_double if isinstance(a, float) else ctypes.c_int64)(a))
        for a in args
    ]


def _run(routine, *args) -> None:
    """routine(*args, info), raising unless info comes back 0."""
    info = np.zeros(1, np.int64)
    routine(*_refs(*args, info))
    if info[0] != 0:
        raise RuntimeError(f"Hermitian eigensolver failed (LAPACK info {info[0]})")


def _query(routine, *args, work: tuple) -> list[int]:
    """Lengths routine(*args, ...) asks for of a workspace per dtype in `work`."""
    queries = [np.zeros(1, dtype) for dtype in work]
    _run(routine, *args, *[x for q in queries for x in (q, -1)])
    return [int(q[0].real) for q in queries]


def _call(routine, *args, work: tuple, fit=lambda length: length) -> None:
    """routine(*args, ...) with one workspace per dtype in `work`, each as
    long as the routine's query asks, the first one fit(that) long."""
    lengths = _query(routine, *args, work=work)
    lengths[0] = fit(lengths[0])
    spaces = [np.empty(k, dtype) for k, dtype in zip(lengths, work)]
    _run(routine, *args, *[x for w in spaces for x in (w, w.size)])


def _lower_rows(h: np.ndarray):
    """LAPACK's lower triangle of the C-order matrix h: row j from
    column j on, each contiguous."""
    return (row[j:] for j, row in enumerate(h))


def _write_rows(fh: BinaryIO, rows) -> None:
    """Write each array of `rows` in full to the unbuffered file fh, or
    raise OSError (ENOSPC for a short write).  Unbuffered, a row has
    reached the file, or failed, when its write returns, so a failed
    file holds nothing that a later seek or close would write again."""
    for row in rows:
        if fh.write(row) != row.nbytes:
            raise OSError(errno.ENOSPC, "short write to an unlinked temporary file")


def _park(h: np.ndarray) -> BinaryIO:
    """h's lower triangle (see _lower_rows) written to an unlinked
    temporary file, which never shows in the temporary directory and is
    freed however the process ends; where the file cannot be made or
    written (see _write_rows), written to memory instead."""
    for make in (lambda: TemporaryFile(buffering=0), io.BytesIO):
        try:
            parked = make()
        except OSError:
            continue
        try:
            _write_rows(parked, _lower_rows(h))
            return parked
        except OSError:
            parked.close()


def _unpark(parked: BinaryIO, h: np.ndarray) -> None:
    """Read what _park wrote back into h's lower triangle, and close it."""
    with parked:
        parked.seek(0)
        for row in _lower_rows(h):
            if parked.readinto(row.view(np.uint8)) != row.nbytes:
                raise RuntimeError("the parked Householder reflectors came back short")


def eigendecompose(hamiltonian: BlockHamiltonian) -> SpectralDecomposition:
    """Dense Hermitian eigendecomposition, done once per realization.

    Runs the stages of LAPACK's divide-and-conquer driver (?syevd for
    GOE, ?heevd for GUE, the one np.linalg.eigh calls) on the fresh
    dense matrix, as the driver does: the same rescale, and workspaces
    that give each stage the driver's block sizes.  So the results are
    bit-identical to np.linalg.eigh.  Free heap pages go back to the OS
    before the solve and after it, so none sit under a later peak.
    The Householder reflectors wait out divide and conquer in an unlinked
    temporary file (see _park), so the peak holds 2 D x D arrays (the
    eigenvectors and the divide-and-conquer scratch, then the eigenvectors
    and the reflectors) instead of eigh's five.
    Where the file cannot be made or written, the reflectors wait in
    memory, half a D x D array more.  Where numpy's LAPACK lacks a stage
    routine, or for another dtype, np.linalg.eigh runs instead.
    """
    h = hamiltonian.matrix
    del hamiltonian
    if _MALLOC_TRIM is not None:
        _MALLOC_TRIM(0)
    complex_ = np.iscomplexobj(h)
    stages = {np.dtype(np.float64): _DSTAGES, np.dtype(np.complex128): _ZSTAGES}.get(h.dtype)
    if stages is None:
        try:
            evals, evecs = np.linalg.eigh(h)
        except np.linalg.LinAlgError as exc:
            raise RuntimeError(
                f"Hermitian eigensolver failed to converge at D={h.shape[0]}"
            ) from exc
        return SpectralDecomposition(eigenvalues=evals, eigenvectors=evecs)
    driver, norm, rescale, reduce, divide, back = stages
    n, dtype = h.shape[0], h.dtype
    evals, offdiag, tau = np.empty(n), np.empty(n), np.empty(n, dtype)
    # The driver's and divide and conquer's workspaces: (work, iwork),
    # or (work, rwork, iwork).
    scratch = (dtype, np.float64, np.int64) if complex_ else (dtype, np.int64)
    # The driver back-transforms in what its work array holds past tau
    # (and, for real matrices, the off-diagonal) and the eigenvectors.
    driver_work = _query(driver, b"V", b"L", n, h, n, evals, work=scratch)[0]
    back_work = driver_work - (1 if complex_ else 2) * n - n * n
    if complex_:
        # LAPACK reads the C-order buffer as h.T, which is conj(h) for
        # exactly Hermitian h; conjugating gives it numpy's lower triangle.
        np.conjugate(h, out=h)
    unread = np.empty(1)  # the norm's work array, which the max-abs norm never reads
    anrm = norm(*_refs(b"M", b"L", n, h, n, unread))
    sigma = _RMIN / anrm if 0.0 < anrm < _RMIN else _RMAX / anrm if anrm > _RMAX else 1.0
    if sigma != 1.0:
        _run(rescale, b"L", 0, 0, 1.0, sigma, n, n, h, n)
    _call(reduce, b"L", n, h, n, evals, offdiag, tau, work=(dtype,))
    parked = _park(h)
    del h
    # The tridiagonal matrix's eigenvectors come back as the rows of z.
    z = np.empty((n, n), dtype)
    _call(divide, b"I", n, evals, offdiag, z, n, work=scratch)
    h = np.zeros((n, n), dtype)
    _unpark(parked, h)
    # ?ormtr's query leaves out ?ormqr's 65 x 64 T block, without which
    # ?ormqr shrinks its block size; so does a shorter driver's length.
    _call(back, b"L", b"L", b"N", n, n, h, n, tau, z, n, work=(dtype,),
          fit=lambda length: min(length + 65 * 64, back_work))
    del h
    if sigma != 1.0:
        evals *= 1.0 / sigma
    # numpy's layout has eigenvectors as columns.  Copying after the
    # reflectors are freed keeps the peak.
    z = np.ascontiguousarray(z.T)
    if _MALLOC_TRIM is not None:
        _MALLOC_TRIM(0)
    return SpectralDecomposition(eigenvalues=evals, eigenvectors=z)


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


def _to_eigenbasis(rows: np.ndarray, basis_rows: np.ndarray) -> np.ndarray:
    """rows @ conj(basis_rows): the rows' eigenbasis coefficients, from
    the matching rows of the eigenvector matrix, with no complex or
    conjugate copy of them."""
    if np.iscomplexobj(basis_rows):
        return np.conj(np.conj(rows) @ basis_rows)
    return _rows_times_matrix(rows, basis_rows)


def _coefficients(
    sd: SpectralDecomposition, states: np.ndarray, dt: float,
    ranges: tuple[tuple[int, int], ...],
) -> np.ndarray:
    """Eigenbasis coefficients of each row's slice on each range,
    label-major, advanced by dt; see evolve_batch."""
    n, d = states.shape
    coeff = np.empty((len(ranges) * n, d), dtype=np.complex128)
    for x, (a, b) in enumerate(ranges):
        coeff[x * n : (x + 1) * n] = _to_eigenbasis(states[:, a:b], sd.eigenvectors[a:b])
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


def _weight_triple(weights) -> np.ndarray:
    """weights as a float array, or ValueError unless they are three
    non-negatives summing to 1 within 1e-12 (written so that NaN fails)."""
    w = np.asarray(weights, dtype=float)
    bad_sum = not abs(w.sum() - 1.0) <= 1e-12
    if w.shape != (NUM_MACROSTATES,) or np.any(w < 0) or bad_sum:
        raise ValueError(f"weights must be three non-negatives summing to 1, got {weights}")
    return w


def sample_haar_state(
    coarsening: Coarsening, weights: tuple[float, float, float], state_seed: int
) -> np.ndarray:
    """Draw psi = sum_x sqrt(p_x) |psi_x> with |psi_x> Haar in macrostate x.

    Haar vectors come from normalized i.i.d. standard complex Gaussians.
    Weights must be non-negative and sum to one; a macrostate only
    consumes randomness when its weight is positive.
    """
    w = _weight_triple(weights)
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
