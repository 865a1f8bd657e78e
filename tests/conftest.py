"""Fixtures shared by the history, metric, experiment and CLI tests."""

from __future__ import annotations

import pytest

from dechist import experiments
from dechist.histories import HistoryGrid, compute_df
from dechist.model import (
    Ensemble,
    ModelConfig,
    build_coarsening,
    build_hamiltonian,
)
from dechist.spectral import eigendecompose, sample_haar_state

from oracles import functional_by_chains, rotated_projectors


@pytest.fixture(params=["goe", "gue", "rotated"])
def functional_l4(request):
    """Four-time functional under GOE or GUE band masks, or rotated projectors.

    The rotated projectors commute with neither H nor the band masks, so
    no block of the functional is forced to zero; the package computes
    band masks only, so that functional comes from the chain oracle.
    """
    ensemble = Ensemble.GUE if request.param == "gue" else Ensemble.GOE
    config = ModelConfig(v_minus=2, ensemble=ensemble, hamiltonian_seed=3)
    coarsening = build_coarsening(config)
    ham = build_hamiltonian(config)
    psi0 = sample_haar_state(coarsening, (0.2, 0.6, 0.2), 6)
    grid = HistoryGrid.constant(3, 2.0)
    if request.param == "rotated":
        projs = rotated_projectors(config.block_layout, seed=11)
        return functional_by_chains(ham.matrix, projs, grid, psi0)
    return compute_df(eigendecompose(ham), coarsening, psi0[None], grid)[0]


@pytest.fixture
def empty_store(monkeypatch):
    """An empty decomposition store, with a file of its own, for one test.

    The process-wide store outlives single tests, so a test that counts
    eigensolves or needs a miss starts from this one instead.
    """
    monkeypatch.setattr(experiments, "_store", {})
    monkeypatch.setattr(experiments, "_store_file", None)
    yield
    if experiments._store_file is not None:
        experiments._store_file[1].close()
