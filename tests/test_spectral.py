"""Spectral evolution against matrix-exponential and stationarity oracles."""

from __future__ import annotations

import ctypes
import errno
import gc
import io
import os
import signal
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from dechist import spectral
from dechist.model import (
    BlockHamiltonian,
    Ensemble,
    ModelConfig,
    build_coarsening,
    build_hamiltonian,
    derive_coupling,
)
from dechist.spectral import (
    eigendecompose,
    evolve_batch,
    sample_haar_state,
    select_eigenstate,
)

from oracles import leaves, propagator


def model_parts(v_minus=2, seed=0, **kwargs):
    config = ModelConfig(v_minus=v_minus, hamiltonian_seed=seed, **kwargs)
    ham = build_hamiltonian(config)
    return config, ham, eigendecompose(ham)


def random_state(dim, seed=0):
    rng = np.random.default_rng(seed)
    psi = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return psi / np.linalg.norm(psi)


def peak_matrices(config) -> float:
    """tracemalloc's peak over one eigendecompose of config's matrix, in
    D x D arrays of its dtype."""
    model_parts(v_minus=10, ensemble=config.ensemble)  # first-call allocations
    ham = build_hamiltonian(config)
    matrix_bytes = ham.matrix.nbytes
    tracemalloc.start()
    try:
        eigendecompose(ham)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / matrix_bytes


def full_disk(room):
    """A TemporaryFile stand-in on a disk with `room` bytes free in each
    file it makes.  The raw file fails as a full disk does: the write
    that reaches the limit stops short, and every later one, a buffered
    file's flush and close included, raises ENOSPC."""

    class Full(io.FileIO):
        left = room

        def write(self, data):
            if not self.left:
                raise OSError(errno.ENOSPC, "No space left on device")
            written = super().write(memoryview(data).cast("B")[: self.left])
            self.left -= written
            return written

    def make(buffering=-1):
        fd, path = tempfile.mkstemp()
        os.unlink(path)
        raw = Full(fd, "r+b")
        return raw if buffering == 0 else io.BufferedRandom(raw)

    return make


class TestEigendecompose:
    def test_diagonal_matrix(self):
        ham = BlockHamiltonian(
            np.array([3.0, 1.0, 2.0]), np.zeros((1, 1)), np.zeros((1, 1)),
            block_layout=((0, 1), (1, 2), (2, 3)),
        )
        sd = eigendecompose(ham)
        np.testing.assert_allclose(sd.eigenvalues, [1.0, 2.0, 3.0])
        np.testing.assert_allclose(np.abs(sd.eigenvectors), np.eye(3)[:, [1, 2, 0]])

    def test_two_level_flip(self):
        ham = BlockHamiltonian(
            np.zeros(2), np.ones((1, 1)), np.zeros((1, 0)), block_layout=((0, 1), (1, 2), (2, 2))
        )
        sd = eigendecompose(ham)
        np.testing.assert_allclose(sd.eigenvalues, [-1.0, 1.0], atol=1e-12)

    @pytest.mark.parametrize("ensemble", [Ensemble.GOE, Ensemble.GUE])
    def test_reconstruction(self, ensemble):
        _, ham, sd = model_parts(v_minus=4, seed=5, ensemble=ensemble)
        rebuilt = (sd.eigenvectors * sd.eigenvalues) @ sd.eigenvectors.conj().T
        scale = np.abs(ham.matrix).max()
        assert np.abs(rebuilt - ham.matrix).max() <= 1e-9 * max(scale, 1.0)
        gram = sd.eigenvectors.conj().T @ sd.eigenvectors
        assert np.abs(gram - np.eye(ham.dimension)).max() <= 1e-10

    # D = 5 and 10 take ?stedc's branch for at most 25 rows; D = 50 also
    # takes the driver's short back-transformation workspace.  Without
    # malloc_trim, as on C libraries other than glibc, nothing changes.
    @pytest.mark.parametrize("path", ["lapack", "eigh_fallback", "no_malloc_trim"])
    @pytest.mark.parametrize("v_minus", [1, 2, 10, 50, 100])
    @pytest.mark.parametrize("ensemble", [Ensemble.GOE, Ensemble.GUE])
    def test_bit_identical_to_numpy_eigh(self, ensemble, v_minus, path, monkeypatch):
        if path == "eigh_fallback":
            monkeypatch.setattr(spectral, "_DSTAGES", None)
            monkeypatch.setattr(spectral, "_ZSTAGES", None)
        elif spectral._DSTAGES is None or spectral._ZSTAGES is None:
            pytest.skip("numpy's LAPACK exposes no ILP64 eigensolver stage symbols")
        if path == "no_malloc_trim":
            monkeypatch.setattr(spectral, "_MALLOC_TRIM", None)
        ham = build_hamiltonian(
            ModelConfig(v_minus=v_minus, hamiltonian_seed=v_minus, ensemble=ensemble)
        )
        before = ham.matrix
        sd = eigendecompose(ham)
        evals, evecs = np.linalg.eigh(ham.matrix)
        assert np.array_equal(sd.eigenvalues, evals)
        assert np.array_equal(sd.eigenvectors, evecs)
        assert sd.eigenvectors.dtype == evecs.dtype and sd.eigenvectors.flags.c_contiguous
        np.testing.assert_array_equal(ham.matrix, before)

    @pytest.mark.parametrize("v_minus", [2, 10])
    @pytest.mark.parametrize("ensemble", [Ensemble.GOE, Ensemble.GUE])
    def test_rescaled_tiny_matrix_bit_identical_to_numpy_eigh(self, ensemble, v_minus):
        # Every entry below LAPACK's sqrt(safe minimum / precision): the
        # driver scales the matrix up before the solve and the
        # eigenvalues back down after it.
        ham = build_hamiltonian(
            ModelConfig(v_minus=v_minus, hamiltonian_seed=3, ensemble=ensemble)
        )
        tiny = BlockHamiltonian(
            ham.diagonal * 1e-150, ham.c_mz * 1e-150, ham.c_zp * 1e-150, ham.block_layout
        )
        assert 0 < np.abs(tiny.matrix).max() < spectral._RMIN
        sd = eigendecompose(tiny)
        evals, evecs = np.linalg.eigh(tiny.matrix)
        assert np.array_equal(sd.eigenvalues, evals)
        assert np.array_equal(sd.eigenvectors, evecs)

    @pytest.mark.parametrize("ensemble", [Ensemble.GOE, Ensemble.GUE])
    def test_peak_allocation_is_two_matrices(self, ensemble):
        # The eigenvectors and the divide-and-conquer scratch, then the
        # eigenvectors and the reflectors; the driver would hold three.
        config = ModelConfig(v_minus=200, hamiltonian_seed=1, ensemble=ensemble)
        assert peak_matrices(config) <= 2.1

    @pytest.mark.parametrize("failure", ["unopenable", "disk_full"])
    @pytest.mark.parametrize("ensemble", [Ensemble.GOE, Ensemble.GUE])
    def test_reflectors_wait_in_memory_where_the_file_fails(
        self, ensemble, failure, monkeypatch
    ):
        # Half a matrix more than with the file, and the same bits.
        if failure == "unopenable":
            def unopenable(**kwargs):
                raise OSError(errno.EMFILE, "Too many open files")

            monkeypatch.setattr(spectral, "TemporaryFile", unopenable)
        else:
            # Room for four fifths of the triangle at D=1000, where its rows
            # are shorter than a buffered file's 8 KiB; the write that
            # reaches it stops inside an entry.
            itemsize = 16 if ensemble is Ensemble.GUE else 8
            monkeypatch.setattr(spectral, "TemporaryFile", full_disk(400_400 * itemsize + 4))
        config = ModelConfig(v_minus=200, hamiltonian_seed=1, ensemble=ensemble)
        assert peak_matrices(config) <= 2.6
        ham = build_hamiltonian(config)
        sd = eigendecompose(ham)
        evals, evecs = np.linalg.eigh(ham.matrix)
        assert np.array_equal(sd.eigenvalues, evals)
        assert np.array_equal(sd.eigenvectors, evecs)

    def test_reflectors_read_back_short_raise(self):
        h = np.arange(16.0).reshape(4, 4)
        parked = spectral._park(h)
        parked.truncate(parked.seek(0, io.SEEK_END) - 4)  # half the last entry
        with pytest.raises(RuntimeError, match="came back short"):
            spectral._unpark(parked, np.zeros_like(h))

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="no /proc/self/fd")
    @pytest.mark.skipif(spectral._DSTAGES is None, reason="no LAPACK stage routines")
    def test_killed_solve_leaves_no_file(self, tmp_path):
        # SIGKILL in divide and conquer, with the reflectors parked in
        # TMPDIR: the file has no name there, and the kernel frees it.
        script = """
import os, signal
from dechist import spectral
from dechist.model import ModelConfig, build_hamiltonian

def dying(*args):
    links = []
    for fd in os.listdir("/proc/self/fd"):  # listdir's own descriptor is gone
        try:
            links.append(os.readlink(f"/proc/self/fd/{fd}"))
        except FileNotFoundError:
            pass
    print(sum(link.startswith(os.environ["TMPDIR"]) for link in links), flush=True)
    os.kill(os.getpid(), signal.SIGKILL)

spectral._DSTAGES[4] = dying  # ?stedc
spectral.eigendecompose(build_hamiltonian(ModelConfig(v_minus=10)))
"""
        env = {**os.environ, "TMPDIR": str(tmp_path),
               "PYTHONPATH": str(Path(spectral.__file__).parents[1])}
        killed = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                                capture_output=True, text=True)
        assert killed.returncode == -signal.SIGKILL
        assert int(killed.stdout) == 1
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("ensemble", [Ensemble.GOE, Ensemble.GUE])
    def test_solve_leaves_no_pointer_for_the_cyclic_collector(self, ensemble):
        # Arrays reach LAPACK as bare pointers, so a solve leaves no
        # ctypes objects that only gc.collect() would free.
        ham = build_hamiltonian(ModelConfig(v_minus=10, hamiltonian_seed=1, ensemble=ensemble))
        gc.collect()
        gc.disable()
        try:
            eigendecompose(ham)
            left = [o for o in gc.get_objects() if isinstance(o, ctypes.c_void_p)]
        finally:
            gc.enable()
        assert left == []

    def test_matrix_is_fresh_on_each_access(self):
        _, ham, _ = model_parts(v_minus=3, seed=4, ensemble=Ensemble.GUE)
        first, second = ham.matrix, ham.matrix
        assert not np.shares_memory(first, second)
        np.testing.assert_array_equal(first, second)
        first[0, 0] = 99.0
        assert ham.matrix[0, 0] != 99.0

    def test_eigenvalues_sorted(self):
        _, _, sd = model_parts(v_minus=6, seed=3)
        assert np.all(np.diff(sd.eigenvalues) >= 0)


class TestEvolve:
    def test_zero_time_is_identity(self):
        _, _, sd = model_parts()
        psi = random_state(sd.dimension, 1)
        np.testing.assert_array_equal(evolve_batch(sd, psi[None], 0.0)[0], psi)

    @pytest.mark.parametrize("ensemble", [Ensemble.GOE, Ensemble.GUE])
    @pytest.mark.parametrize("v_minus", [1, 2, 3, 4])
    def test_matches_matrix_exponential(self, v_minus, ensemble):
        # Independent oracle: scaling-and-squaring expm on D <= 20.
        config, ham, sd = model_parts(v_minus=v_minus, seed=v_minus, ensemble=ensemble)
        tau = derive_coupling(config).tau
        psi = random_state(config.dimension, 7)
        for dt in (0.1, 1.0, tau):
            expected = propagator(ham.matrix, dt) @ psi
            got = evolve_batch(sd, psi[None], dt)[0]
            assert np.abs(got - expected).max() <= 1e-8

    def test_eigenvector_stationary(self):
        _, _, sd = model_parts(v_minus=3, seed=11)
        psi = sd.eigenvectors[:, 4].astype(complex)
        out = evolve_batch(sd, psi[None], 2.7)[0]
        assert abs(np.vdot(out, psi)) == pytest.approx(1.0, abs=1e-10)

    def test_norm_preserved_over_many_steps(self):
        config, _, sd = model_parts(v_minus=3, seed=2)
        tau = derive_coupling(config).tau
        psi = random_state(config.dimension, 3)
        for _ in range(20):
            psi = evolve_batch(sd, psi[None], tau)[0]
        assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-10)

    def test_round_trip(self):
        _, _, sd = model_parts(v_minus=4, seed=6)
        psi = random_state(sd.dimension, 9)
        back = evolve_batch(sd, evolve_batch(sd, psi[None], 3.3), -3.3)[0]
        assert np.abs(back - psi).max() <= 1e-9

    def test_batch_matches_single(self):
        _, _, sd = model_parts(v_minus=3, seed=8)
        rng = np.random.default_rng(4)
        states = rng.standard_normal((5, sd.dimension)) + 1j * rng.standard_normal(
            (5, sd.dimension)
        )
        batch = evolve_batch(sd, states, 1.7)
        for i in range(5):
            single = evolve_batch(sd, states[i][None], 1.7)[0]
            assert np.abs(batch[i] - single).max() <= 1e-12

    @pytest.mark.parametrize("ensemble", [Ensemble.GOE, Ensemble.GUE])
    def test_band_ranges_match_full_rows(self, ensemble):
        # Each row's three band slices evolve label-major, as the split
        # rows would on all columns; rows 1 and 2 vanish on some bands,
        # so slices 0*3+1, 1*3+2 and 2*3+2 are exact zeros.
        config, _, sd = model_parts(v_minus=3, seed=4, ensemble=ensemble)
        coarsening = build_coarsening(config)
        rng = np.random.default_rng(6)
        states = rng.standard_normal((3, sd.dimension)) + 1j * rng.standard_normal(
            (3, sd.dimension)
        )
        a, b = config.block_layout[0]
        states[1, a:b] = 0.0
        states[2, config.block_layout[1][0]:] = 0.0
        split = leaves(states, coarsening.ranges)
        banded = evolve_batch(sd, states, 1.3, ranges=config.block_layout)
        full = evolve_batch(sd, split, 1.3)
        assert banded.shape == (9, sd.dimension)
        assert np.abs(banded - full).max() <= 1e-12
        assert np.all(banded[[1, 5, 8]] == 0)
        assert np.all(np.any(banded[[0, 2, 3, 4, 6, 7]] != 0, axis=1))
        zero_time = evolve_batch(sd, states, 0.0, ranges=config.block_layout)
        np.testing.assert_array_equal(zero_time, split)


class TestInitialStates:
    def test_nonequilibrium_all_in_minus(self):
        config, _, _ = model_parts(v_minus=1)
        coarsening = build_coarsening(config)
        psi = sample_haar_state(coarsening, (1.0, 0.0, 0.0), state_seed=3)
        assert abs(psi[0]) == pytest.approx(1.0, abs=1e-12)
        assert np.all(psi[1:] == 0)

    def test_block_weights_match(self):
        config, _, _ = model_parts(v_minus=20)
        coarsening = build_coarsening(config)
        weights = (0.2, 0.6, 0.2)
        psi = sample_haar_state(coarsening, weights, state_seed=8)
        assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-12)
        for label, (start, stop) in enumerate(coarsening.ranges):
            block_weight = float(np.sum(np.abs(psi[start:stop]) ** 2))
            assert block_weight == pytest.approx(weights[label], abs=1e-14)

    def test_coordinate_statistics(self):
        # Equilibrium weights make every coordinate's mean |amp|^2 equal
        # 1/D; check within 5 standard errors over 1000 draws at D=100.
        config, _, _ = model_parts(v_minus=20)
        coarsening = build_coarsening(config)
        weights = tuple(v / config.dimension for v in config.volumes)
        draws = np.stack([
            np.abs(sample_haar_state(coarsening, weights, state_seed=s)) ** 2
            for s in range(1000)
        ])
        means = draws.mean(axis=0)
        # var(|a|^2) within a block of size V at weight p is about p^2/V^2.
        for label, (start, stop) in enumerate(coarsening.ranges):
            v = stop - start
            se = (weights[label] / v) / np.sqrt(1000)
            assert np.abs(means[start:stop] - 1 / config.dimension).max() <= 5 * se

    def test_determinism(self):
        config, _, _ = model_parts(v_minus=4)
        coarsening = build_coarsening(config)
        w = (0.2, 0.6, 0.2)
        np.testing.assert_array_equal(
            sample_haar_state(coarsening, w, 5), sample_haar_state(coarsening, w, 5)
        )
        assert np.any(
            sample_haar_state(coarsening, w, 5) != sample_haar_state(coarsening, w, 6)
        )

    def test_rejects_bad_weights(self):
        config, _, _ = model_parts()
        coarsening = build_coarsening(config)
        with pytest.raises(ValueError):
            sample_haar_state(coarsening, (0.5, 0.5, 0.5), 0)
        with pytest.raises(ValueError):
            sample_haar_state(coarsening, (-0.2, 0.6, 0.6), 0)

    def test_select_eigenstate(self):
        _, _, sd = model_parts(v_minus=1, seed=5)
        psi, index = select_eigenstate(sd, state_seed=12)
        assert 0 <= index < sd.dimension
        assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_array_equal(psi, sd.eigenvectors[:, index].astype(complex))
        psi2, index2 = select_eigenstate(sd, state_seed=12)
        assert index2 == index
        np.testing.assert_array_equal(psi, psi2)
        # Stationarity: evolution only rotates the global phase.
        out = evolve_batch(sd, psi[None], 4.2)[0]
        assert abs(np.vdot(out, psi)) == pytest.approx(1.0, abs=1e-10)
