"""Model construction: coupling scales, block matrix, coarse-graining."""

from __future__ import annotations

import math

import numpy as np
import pytest

from dechist.model import (
    Coarsening,
    Ensemble,
    ModelConfig,
    Regime,
    Spacing,
    build_coarsening,
    build_hamiltonian,
    derive_coupling,
    derive_seed,
)


def make_config(v_minus=1, **kwargs) -> ModelConfig:
    return ModelConfig(v_minus=v_minus, **kwargs)


def smallness(config: ModelConfig) -> float:
    """The smallness parameter (pi lam V / (2 delta_e))^2 / V of a config."""
    v = config.v_minus
    return (math.pi * derive_coupling(config).lam * v / (2.0 * config.delta_e)) ** 2 / v


class TestCouplingParameters:
    def test_weak_lambda_at_v100(self):
        # Hand algebra: lam = (2 dE / pi) sqrt(0.01 / 100) = 0.02 / pi.
        coupling = derive_coupling(make_config(v_minus=100))
        assert coupling.lam == pytest.approx(0.006366197723675814, rel=1e-12)

    def test_tau_independent_of_volume(self):
        # tau = dE / (4 pi lam^2 V) collapses to pi / (16 dE target).
        expected = math.pi / 0.16
        for v in (1, 100, 1000):
            coupling = derive_coupling(make_config(v_minus=v))
            assert coupling.tau == pytest.approx(expected, rel=1e-12)

    def test_weak_smallness_equals_target(self):
        for target in (0.01, 0.05):
            config = make_config(v_minus=7, smallness_target=target)
            assert smallness(config) == pytest.approx(target, rel=1e-12)

    def test_strong_smallness_is_one(self):
        config = make_config(v_minus=40, regime=Regime.STRONG)
        assert smallness(config) == pytest.approx(1.0, rel=1e-12)

    def test_strong_lambda_is_tenfold(self):
        weak = derive_coupling(make_config(v_minus=11))
        strong = derive_coupling(make_config(v_minus=11, regime=Regime.STRONG))
        assert strong.lam == pytest.approx(10 * weak.lam, rel=1e-12)
        assert strong.tau == pytest.approx(weak.tau / 100, rel=1e-12)

    def test_interaction_warning_threshold(self):
        # strength = 32 * target * V, so V = 30 lands just under 10.
        assert derive_coupling(make_config(v_minus=30)).interaction_warning
        assert not derive_coupling(make_config(v_minus=100)).interaction_warning

    def test_dimensions(self):
        config = make_config(v_minus=4)
        assert config.volumes == (4, 12, 4)
        assert config.dimension == 20
        assert config.block_layout == ((0, 4), (4, 16), (16, 20))


class TestBuildHamiltonian:
    def test_smallest_instance_by_hand(self):
        # V_minus = 1: diagonal (0 | 0, 2/3, 4/3 | 0), couplings confined
        # to the (-,0) and (0,+) blocks (2 * V_- * V_0 = 6 entries in the
        # upper triangle), corners exactly zero.
        ham = build_hamiltonian(make_config(v_minus=1, hamiltonian_seed=3))
        h = ham.matrix
        assert h.shape == (5, 5)
        assert h.dtype == np.float64
        np.testing.assert_allclose(np.diag(h), [0.0, 0.0, 2 / 3, 4 / 3, 0.0])
        upper = [(i, j) for i in range(5) for j in range(i + 1, 5) if h[i, j] != 0]
        assert upper == [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)]
        assert h[0, 4] == 0 and h[4, 0] == 0
        np.testing.assert_array_equal(h, h.T)

    @pytest.mark.parametrize("ensemble", [Ensemble.GOE, Ensemble.GUE])
    def test_invariants(self, ensemble):
        config = make_config(v_minus=6, ensemble=ensemble, hamiltonian_seed=9)
        h = build_hamiltonian(config).matrix
        assert np.abs(h - h.conj().T).max() <= 1e-12
        (m0, m1), (z0, z1), (p0, p1) = config.block_layout
        assert np.all(h[m0:m1, p0:p1] == 0) and np.all(h[p0:p1, m0:m1] == 0)
        # Diagonal blocks hold nothing but their energy ladder.
        for a, b in config.block_layout:
            block = h[a:b, a:b]
            assert np.all(block[~np.eye(b - a, dtype=bool)] == 0)
        np.testing.assert_array_equal(h[m0:m1, m0:m1], h[p0:p1, p0:p1])

    def test_energies_inside_window(self):
        config = make_config(v_minus=8, delta_e=2.5, hamiltonian_seed=1)
        h = build_hamiltonian(config).matrix
        diag = np.diag(h).real
        assert np.all(diag >= 0) and np.all(diag < 5.0)

    def test_random_spacing_sorted_and_shared(self):
        config = make_config(
            v_minus=5, diagonal_spacing=Spacing.RANDOM, hamiltonian_seed=12
        )
        h = build_hamiltonian(config).matrix
        (m0, m1), (z0, z1), (p0, p1) = config.block_layout
        e_minus = np.diag(h)[m0:m1]
        e_zero = np.diag(h)[z0:z1]
        assert np.all(np.diff(e_minus) >= 0) and np.all(np.diff(e_zero) >= 0)
        assert np.all(e_minus >= 0) and np.all(e_minus < 2.0)
        np.testing.assert_array_equal(e_minus, np.diag(h)[p0:p1])

    def test_gue_blocks_complex(self):
        config = make_config(v_minus=3, ensemble=Ensemble.GUE, hamiltonian_seed=2)
        h = build_hamiltonian(config).matrix
        (m0, m1), (z0, z1), _ = config.block_layout
        assert np.abs(h[m0:m1, z0:z1].imag).max() > 0

    @pytest.mark.parametrize("ensemble", [Ensemble.GOE, Ensemble.GUE])
    def test_offdiagonal_scale(self, ensemble):
        # Frobenius norm over the two independent coupling blocks is
        # lam * sqrt(2 V_- V_0) up to sampling noise.
        config = make_config(v_minus=64, ensemble=ensemble, hamiltonian_seed=5)
        coupling = derive_coupling(config)
        h = build_hamiltonian(config).matrix
        (m0, m1), (z0, z1), (p0, p1) = config.block_layout
        norm = math.sqrt(
            np.linalg.norm(h[m0:m1, z0:z1]) ** 2 + np.linalg.norm(h[z0:z1, p0:p1]) ** 2
        )
        expected = coupling.lam * math.sqrt(2 * config.v_minus * config.v_zero)
        assert norm == pytest.approx(expected, rel=0.10)

    def test_determinism(self):
        config = make_config(v_minus=4, hamiltonian_seed=77)
        h1 = build_hamiltonian(config).matrix
        h2 = build_hamiltonian(config).matrix
        np.testing.assert_array_equal(h1, h2)
        other = build_hamiltonian(make_config(v_minus=4, hamiltonian_seed=78)).matrix
        assert np.any(h1 != other)

    def test_rejects_bad_config(self):
        with pytest.raises(ValueError):
            ModelConfig(v_minus=0)
        with pytest.raises(ValueError):
            ModelConfig(v_minus=2, delta_e=0.0)
        with pytest.raises(ValueError):
            ModelConfig(v_minus=2, smallness_target=0.0)
        with pytest.raises(ValueError):
            ModelConfig(v_minus=2, hamiltonian_seed=-1)
        # In range, but lambda**2 underflows, or 2 * delta_e overflows.
        for kwargs in ({"delta_e": 1e-320}, {"smallness_target": 1e-320}, {"delta_e": 1e308}):
            with pytest.raises(ValueError, match="no finite positive lambda"):
                ModelConfig(v_minus=2, **kwargs)


class TestCoarsening:
    def test_unperturbed_ranges(self):
        coarsening = build_coarsening(make_config(v_minus=1))
        assert coarsening.ranges == ((0, 1), (1, 4), (4, 5))
        assert coarsening.dimension == 5
        assert coarsening.volumes == (1, 3, 1)

    def test_coarsening_validation(self):
        with pytest.raises(ValueError):
            Coarsening(ranges=((0, 1), (1, 2)))


class TestSeedDerivation:
    def test_deterministic_and_distinct(self):
        a = derive_seed(7, 1, 0)
        assert a == derive_seed(7, 1, 0)
        assert a != derive_seed(7, 1, 1)
        assert a != derive_seed(7, 2, 0)
        assert derive_seed(0) != derive_seed(1)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            derive_seed(3, -1)
