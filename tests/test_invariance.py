"""Exact invariances of the decoherence functional, checked at any D.

The functional does not change when H is shifted by a multiple of the
identity (every branch gains the same phase), when H and the start are
permuted by one permutation within each band (the band projectors
commute with it), or when H is doubled and every time halved.  These
identities exercise the eigensolver, the branch tree and the block
products together, and need no reference functional.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from dechist.histories import HistoryGrid, compute_df
from dechist.model import (
    Ensemble,
    ModelConfig,
    build_coarsening,
    build_hamiltonian,
    derive_coupling,
)
from dechist.spectral import eigendecompose, sample_haar_state


def shifted(ham, start, grid):
    """H + 0.7 I."""
    return dataclasses.replace(ham, diagonal=ham.diagonal + 0.7), start, grid


def permuted(ham, start, grid):
    """P H P^T and P psi for one seeded permutation P within each band."""
    rng = np.random.default_rng(3)
    pm, pz, pp = (rng.permutation(b - a) for a, b in ham.block_layout)
    perm = np.concatenate([a + p for (a, _), p in zip(ham.block_layout, (pm, pz, pp))])
    ham = dataclasses.replace(
        ham,
        diagonal=ham.diagonal[perm],
        c_mz=ham.c_mz[np.ix_(pm, pz)],
        c_zp=ham.c_zp[np.ix_(pz, pp)],
    )
    return ham, start[perm], grid


def rescaled(ham, start, grid):
    """2 H, with every grid time halved."""
    ham = dataclasses.replace(
        ham, diagonal=2 * ham.diagonal, c_mz=2 * ham.c_mz, c_zp=2 * ham.c_zp
    )
    return ham, start, HistoryGrid(times=tuple(t / 2 for t in grid.times))


@pytest.mark.parametrize("transform", [shifted, permuted, rescaled])
@pytest.mark.parametrize("v_minus", [1, 10, 100])
@pytest.mark.parametrize("ensemble", [Ensemble.GOE, Ensemble.GUE])
def test_functional_is_invariant(ensemble, v_minus, transform):
    config = ModelConfig(v_minus=v_minus, ensemble=ensemble, hamiltonian_seed=5)
    coarsening = build_coarsening(config)
    ham = build_hamiltonian(config)
    equilibrium = tuple(v / config.dimension for v in config.volumes)
    grid = HistoryGrid.constant(4, derive_coupling(config).tau)
    sd = eigendecompose(ham)
    for weights in (equilibrium, (1.0, 0.0, 0.0)):
        start = sample_haar_state(coarsening, weights, 7)
        new_ham, new_start, new_grid = transform(ham, start, grid)
        new_sd = eigendecompose(new_ham)
        for length in (3, 4, 5):
            head = HistoryGrid(times=grid.times[:length])
            new_head = HistoryGrid(times=new_grid.times[:length])
            (ref,) = compute_df(sd, coarsening, start[None], head)
            (new,) = compute_df(new_sd, coarsening, new_start[None], new_head)
            scale = np.abs(ref.blocks).max()
            assert np.abs(new.blocks - ref.blocks).max() <= 1e-12 * scale, (weights, length)
