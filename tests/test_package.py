"""The package root re-exports every module's public names."""

from __future__ import annotations

import importlib

import pytest

import dechist

MODULES = ("model", "spectral", "histories", "metrics", "experiments")

# The names the root exported while it kept its own list of them, stated
# here so that none of them is lost.
ROOT_NAMES = [
    "BlockHamiltonian", "Coarsening", "CouplingParameters", "Ensemble",
    "ModelConfig", "Regime", "Spacing", "build_coarsening", "build_hamiltonian",
    "derive_coupling", "derive_seed",
    "SpectralDecomposition", "eigendecompose", "sample_haar_state",
    "select_eigenstate",
    "DecoherenceFunctional", "HistoryGrid", "compute_df", "decode_history",
    "history_string", "marginalize",
    "ArrowReport", "EpsilonReport", "TraceDistanceReport", "arrow_classification",
    "branch_histogram", "delta_max", "epsilon_average", "epsilon_by_distance",
    "macro_dynamics",
    "InitFamily", "RandomSpacing", "RealizationResult", "ScalingFit", "SweepSpec",
    "compute_realization_df", "run_dynamics", "run_sweep",
]


@pytest.mark.parametrize("name", MODULES)
def test_root_exports_every_public_name_of(name):
    module = importlib.import_module(f"dechist.{name}")
    assert module.__all__
    for public in module.__all__:
        assert getattr(dechist, public) is getattr(module, public), public


def test_root_keeps_its_earlier_names():
    assert len(set(ROOT_NAMES)) == 38
    owners = [importlib.import_module(f"dechist.{name}") for name in MODULES]
    for name in ROOT_NAMES:
        (owner,) = [m for m in owners if name in m.__all__]
        assert getattr(dechist, name) is getattr(owner, name), name
