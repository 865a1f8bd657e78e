"""Decoherence measures, marginal probabilities, and macro dynamics."""

from __future__ import annotations

import itertools
import tracemalloc

import numpy as np
import pytest

from dechist.model import (
    BlockHamiltonian,
    Ensemble,
    ModelConfig,
    build_coarsening,
    build_hamiltonian,
)
from dechist.spectral import (
    eigendecompose,
    evolve_batch,
    sample_haar_state,
    select_eigenstate,
)
from dechist.histories import (
    DecoherenceFunctional,
    HistoryGrid,
    _digit_matrix,
    _history_labels,
    compute_df,
    decode_history,
    marginalize,
)
from dechist.metrics import (
    BranchHistogram,
    arrow_classification,
    arrow_score,
    branch_histogram,
    delta_max,
    epsilon_average,
    epsilon_by_distance,
    macro_dynamics,
)

from oracles import (
    arrow_by_loops,
    born_probability_subset,
    delta_by_subsets,
    epsilon_by_distance_by_loops,
    epsilon_pair_by_definition,
    functional_by_chains,
    marginal_by_loops,
    range_projectors,
    rotated_projectors,
    subset_probabilities,
    trace_distance,
)


def make_df(v_minus=1, seed=0, state_seed=1, num_steps=2, step=3.0,
            weights=(0.2, 0.6, 0.2)):
    config = ModelConfig(v_minus=v_minus, hamiltonian_seed=seed)
    ham = build_hamiltonian(config)
    sd = eigendecompose(ham)
    coarsening = build_coarsening(config)
    psi0 = sample_haar_state(coarsening, weights, state_seed)
    grid = HistoryGrid.constant(num_steps, step)
    df = compute_df(sd, coarsening, psi0[None], grid)[0]
    return df, ham, coarsening, psi0


def conserved_df(weights, state_seed, num_steps=3, step=1.0):
    # Uncoupled bands: H is diagonal, so the band masks commute exactly
    # with the evolution and mixed-label branches vanish identically.
    config = ModelConfig(v_minus=2)
    diag = np.zeros(10)
    diag[:2] = [0.0, 2.0]
    diag[2:8] = np.linspace(0.0, 2.0, 6)
    diag[8:] = [0.0, 2.0]
    ham = BlockHamiltonian(diag, np.zeros((2, 6)), np.zeros((6, 2)), config.block_layout)
    sd = eigendecompose(ham)
    coarsening = build_coarsening(config)
    psi0 = sample_haar_state(coarsening, weights, state_seed)
    grid = HistoryGrid.constant(num_steps, step)
    df = compute_df(sd, coarsening, psi0[None], grid)[0]
    return df, coarsening


class TestEpsilon:
    def test_pair_count_l3(self):
        df, *_ = make_df(num_steps=2)
        report = epsilon_average(df)
        assert report.pair_count == 3**5 - 3**3  # 216
        assert report.skipped_pairs == 0

    def test_pair_count_l5(self):
        df, *_ = make_df(num_steps=4, step=1.0)
        report = epsilon_average(df)
        assert report.pair_count == 3**9 - 3**5  # 19440

    def test_pair_count_matches_enumeration(self):
        df, *_ = make_df(v_minus=1, seed=2, num_steps=2)
        report = epsilon_average(df)
        n = 3**3
        ordered = [
            (x, y)
            for x, y in itertools.product(range(n), range(n))
            if x != y and x // 9 == y // 9
        ]
        assert len(ordered) == report.pair_count
        entries = df.entries
        total = sum(epsilon_pair_by_definition(entries, x, y) for x, y in ordered)
        assert report.epsilon_avg == pytest.approx(total / len(ordered), rel=1e-12)

    def test_average_in_unit_interval(self):
        for seed in range(3):
            df, *_ = make_df(v_minus=2, seed=seed)
            report = epsilon_average(df)
            assert 0.0 <= report.epsilon_avg <= 1.0

    def test_requires_two_times(self):
        df, *_ = make_df(num_steps=0)
        with pytest.raises(ValueError):
            epsilon_average(df)

    def test_dead_branches_skipped(self):
        # Start concentrated in one band of an uncoupled model: every
        # mixed-label branch dies exactly and its pairs are skipped.
        df, _ = conserved_df((1.0, 0.0, 0.0), 3, num_steps=2, step=2.0)
        report = epsilon_average(df)
        assert report.skipped_pairs == report.pair_count
        assert report.epsilon_avg == 0.0

    def test_commuting_coarsening_fully_decoherent(self):
        df, _ = conserved_df((0.2, 0.6, 0.2), 6)
        report = epsilon_average(df)
        assert report.epsilon_avg <= 1e-12
        assert delta_max(df).delta_max <= 1e-12
        for mean, _ in epsilon_by_distance(df).values():
            assert mean <= 1e-12
        entries = df.entries
        n = entries.shape[0]
        for x in range(n):
            for y in range(x + 1, n):
                assert epsilon_pair_by_definition(entries, x, y) <= 1e-12

    def test_eigenvector_group_projectors_decohere_entrywise(self):
        # Projectors onto eigenvector groups leave only rounding noise
        # off the diagonal (branch norms themselves are noise, so the
        # normalized ratios are meaningless and not asserted).  They are
        # dense, so the functional comes from the chain oracle.
        config = ModelConfig(v_minus=2, hamiltonian_seed=4)
        ham = build_hamiltonian(config)
        sd = eigendecompose(ham)
        groups = ((0, 2), (2, 6), (6, 10))
        projs = tuple(
            sd.eigenvectors[:, a:b] @ sd.eigenvectors[:, a:b].conj().T
            for a, b in groups
        )
        psi0 = sample_haar_state(build_coarsening(config), (0.2, 0.6, 0.2), 6)
        grid = HistoryGrid.constant(3, 1.0)
        df = functional_by_chains(ham.matrix, projs, grid, psi0)
        off = df.entries.copy()
        np.fill_diagonal(off, 0.0)
        assert np.abs(off).max() <= 1e-12


class TestMarginals:
    # The per-subset definition lives in oracles.subset_probabilities;
    # these tests pin it to independent computations, and TestDeltaMax
    # pins delta_max's one-pass distances to it.
    def test_full_subset_is_diagonal(self):
        df, *_ = make_df(v_minus=2, seed=3)
        p, p_cl = subset_probabilities(df, (0, 1, 2))
        np.testing.assert_allclose(p, df.diagonal(), atol=1e-14)
        np.testing.assert_allclose(p, p_cl, atol=1e-14)
        assert p.sum() == pytest.approx(1.0, abs=1e-10)
        assert p_cl.sum() == pytest.approx(1.0, abs=1e-10)
        assert delta_max(df).per_subset[0b111] == 0.0

    def test_final_time_only(self):
        config = ModelConfig(v_minus=1, hamiltonian_seed=5)
        sd = eigendecompose(build_hamiltonian(config))
        coarsening = build_coarsening(config)
        psi0 = sample_haar_state(coarsening, (0.2, 0.6, 0.2), 1)
        grid = HistoryGrid.constant(2, 3.0)
        df = compute_df(sd, coarsening, psi0[None], grid)[0]
        p, p_cl = subset_probabilities(df, (2,))
        assert p.shape == (3,)
        psi_final = evolve_batch(sd, evolve_batch(sd, psi0[None], 3.0), 3.0)[0]
        for z, (a, b) in enumerate(coarsening.ranges):
            born = float(np.sum(np.abs(psi_final[a:b]) ** 2))
            assert p[z] == pytest.approx(born, abs=1e-10)
        assert p.sum() == pytest.approx(1.0, abs=1e-10)
        assert p_cl.sum() == pytest.approx(1.0, abs=1e-10)
        expected = trace_distance(p, p_cl)
        assert delta_max(df).per_subset[0b100] == pytest.approx(expected, abs=1e-12)

    def test_requires_final_time(self):
        df, *_ = make_df()
        with pytest.raises(ValueError):
            subset_probabilities(df, (0, 1))
        with pytest.raises(ValueError):
            subset_probabilities(df, (-1, df.length - 1))
        assert all(mask >> (df.length - 1) & 1 for mask in delta_max(df).per_subset)

    def test_against_projected_chain_oracle(self):
        # Born weights of a marginalized functional equal probabilities
        # computed with projectors inserted only at the kept times.
        df, ham, coarsening, psi0 = make_df(v_minus=1, seed=6, num_steps=3, step=2.0)
        projs = range_projectors(coarsening.ranges)
        kept = (1, 3)
        p, p_cl = subset_probabilities(df, kept)
        for labels in itertools.product((0, 1, 2), repeat=2):
            expected = born_probability_subset(
                ham.matrix, projs, df.grid.times, psi0, kept, labels
            )
            code = labels[0] + 3 * labels[1]
            assert p[code] == pytest.approx(expected, abs=1e-10)
        expected = trace_distance(p, p_cl)
        assert delta_max(df).per_subset[0b1010] == pytest.approx(expected, abs=1e-12)

    def test_matches_loop_oracle(self, functional_l4):
        # At every length the blocks that mix final labels are exact
        # zeros: a marginal keeps only the blocks of equal final labels.
        for length in (4, 3, 2):
            df = marginalize(functional_l4, range(length))
            b = 3 ** (length - 1)
            assert np.abs(df.entries[:b, b:]).max() == 0.0
            weights = np.diag(df.diagonal())
            n = length - 1
            per_subset = delta_max(df).per_subset
            for prefix_bits in range(2**n):
                kept = tuple(k for k in range(n) if prefix_bits >> k & 1) + (n,)
                p, p_cl = subset_probabilities(df, kept)
                born = marginal_by_loops(df.entries, length, kept).diagonal()
                classical = marginal_by_loops(weights, length, kept).diagonal()
                assert np.abs(p - born).max() <= 1e-12
                assert np.abs(p_cl - classical).max() <= 1e-12
                expected = trace_distance(born.real, classical.real)
                assert abs(per_subset[prefix_bits | 1 << n] - expected) <= 1e-12

    def test_classical_reduction(self):
        df, *_ = make_df(v_minus=2, seed=8, num_steps=2)
        _, p_cl = subset_probabilities(df, (0, 2))
        full = df.diagonal()
        for code in range(9):
            x0, x2 = decode_history(code, 2)
            expected = sum(full[x0 + 3 * mid + 9 * x2] for mid in range(3))
            assert p_cl[code] == pytest.approx(expected, abs=1e-12)


def _delta_case(case, length):
    """A functional of `length` times on D=10 for one oracle case.

    The rotated projectors are dense, so that case comes from the chain
    oracle.
    """
    ensemble = Ensemble.GUE if case == "gue" else Ensemble.GOE
    config = ModelConfig(v_minus=2, ensemble=ensemble, hamiltonian_seed=4)
    ham = build_hamiltonian(config)
    sd = eigendecompose(ham)
    coarsening = build_coarsening(config)
    if case == "eigenstate":
        psi0 = select_eigenstate(sd, 3)[0]
    else:
        weights = (1.0, 0.0, 0.0) if case == "all_minus" else (0.2, 0.6, 0.2)
        psi0 = sample_haar_state(coarsening, weights, 7)
    grid = HistoryGrid.constant(length - 1, 1.5)
    if case == "rotated":
        projs = rotated_projectors(config.block_layout, seed=5)
        return functional_by_chains(ham.matrix, projs, grid, psi0)
    return compute_df(sd, coarsening, psi0[None], grid)[0]


class TestTraceDistance:
    def test_hand_value(self):
        p = np.array([0.7, 0.3])
        q = np.array([0.5, 0.5])
        assert trace_distance(p, q) == pytest.approx(0.2, abs=1e-15)

    def test_zero_for_equal(self):
        p = np.array([0.25, 0.75])
        assert trace_distance(p, p) == 0.0

    def test_delta_max_subset_count(self):
        df, *_ = make_df(v_minus=1, seed=1, num_steps=4, step=2.0)
        report = delta_max(df)
        assert len(report.per_subset) == 2**4  # subsets of earlier times
        assert all(0.0 <= v <= 1.0 for v in report.per_subset.values())
        assert report.delta_max == max(report.per_subset.values())
        assert report.per_subset[report.argmax_subset] == report.delta_max
        # Every recorded subset includes the final time.
        for bits in report.per_subset:
            assert bits & (1 << 4)

    def test_single_time_distance_zero(self):
        df, *_ = make_df(num_steps=0)
        report = delta_max(df)
        assert report.delta_max == 0.0


class TestDeltaMax:
    @pytest.mark.parametrize("case", ["goe", "gue", "all_minus", "eigenstate", "rotated"])
    @pytest.mark.parametrize("length", range(1, 7))
    def test_every_subset_matches_definition(self, case, length):
        df = _delta_case(case, length)
        report = delta_max(df)
        expected = delta_by_subsets(df)
        assert list(report.per_subset) == list(expected)
        for mask, dist in expected.items():
            assert abs(report.per_subset[mask] - dist) <= 1e-12

    def test_imaginary_residue_raises(self):
        df = _delta_case("goe", 3)
        # An anti-Hermitian shift gives every Born value an imaginary part.
        shifted = DecoherenceFunctional(blocks=df.blocks + 1e-6j, grid=df.grid)
        with pytest.raises(RuntimeError):
            delta_max(shifted)

    def test_exact_tie_returns_first_mask(self):
        # An all-minus start has only label 0 at t_0, so keeping t_0 and
        # dropping it give exactly the same probabilities.
        for length in range(2, 7):
            report = delta_max(_delta_case("all_minus", length))
            for mask, dist in report.per_subset.items():
                assert report.per_subset[mask | 1] == dist
            tied = [m for m, v in report.per_subset.items() if v == report.delta_max]
            assert report.argmax_subset == min(tied)
            assert not report.argmax_subset & 1
        # A classical functional ties every subset at zero.
        df = _delta_case("goe", 4)
        classical = np.zeros_like(df.blocks)
        np.einsum("cii->ci", classical)[...] = np.einsum("cii->ci", df.blocks)
        report = delta_max(DecoherenceFunctional(blocks=classical, grid=df.grid))
        assert report.delta_max == 0.0
        assert report.argmax_subset == 1 << 3


def assert_matches_loop_oracle(df):
    expected = epsilon_by_distance_by_loops(df.entries, df.length)
    bins = epsilon_by_distance(df)
    assert bins.keys() == expected.keys()
    for d, (mean, count, _) in expected.items():
        assert bins[d][0] == pytest.approx(mean, rel=0, abs=1e-12)
        assert bins[d][1] == count
    report = epsilon_average(df)
    pairs = sum(count for _, count, _ in expected.values())
    total = sum(mean * count for mean, count, _ in expected.values())
    assert report.epsilon_avg == pytest.approx(total / pairs, rel=0, abs=1e-12)
    assert report.pair_count == pairs
    assert report.skipped_pairs == sum(dead for _, _, dead in expected.values())


class TestDistanceBins:
    def test_matches_loop_oracle(self, functional_l4):
        assert_matches_loop_oracle(functional_l4)

    def test_marginal_matches_loop_oracle(self, functional_l4):
        # Without the final time, the blocks that mix final labels are
        # still exact zeros: only the blocks of equal final labels are
        # summed.
        df = marginalize(functional_l4, range(3))
        assert np.abs(df.entries[:9, 9:]).max() == 0.0
        assert_matches_loop_oracle(df)

    def test_dead_branches_match_loop_oracle(self):
        df, _ = conserved_df((1.0, 0.0, 0.0), 3)
        assert_matches_loop_oracle(df)
        assert epsilon_average(df).skipped_pairs > 0

    def test_bins_cover_all_pairs(self):
        df, *_ = make_df(v_minus=1, seed=2, num_steps=2)
        report = epsilon_average(df)
        bins = epsilon_by_distance(df)
        assert set(bins) <= {1, 2}
        total = sum(count for _, count in bins.values())
        assert total == report.pair_count
        for mean, count in bins.values():
            assert count > 0
            assert 0.0 <= mean <= 1.0


class TestMacroDynamics:
    def test_initial_point_matches_weights(self):
        config = ModelConfig(v_minus=2, hamiltonian_seed=3)
        sd = eigendecompose(build_hamiltonian(config))
        coarsening = build_coarsening(config)
        psi0 = sample_haar_state(coarsening, (1.0, 0.0, 0.0), 2)
        traj = macro_dynamics(sd, coarsening, psi0, t_max=5.0, dt=1.0)
        assert traj.shape == (6, 4)
        np.testing.assert_allclose(traj[0, 1:], [1.0, 0.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(traj[:, 1:].sum(axis=1), 1.0, atol=1e-10)
        np.testing.assert_allclose(traj[:, 0], np.arange(6.0), atol=1e-12)

    def test_against_naive_loop(self):
        config = ModelConfig(v_minus=1, hamiltonian_seed=9)
        sd = eigendecompose(build_hamiltonian(config))
        coarsening = build_coarsening(config)
        psi0 = sample_haar_state(coarsening, (0.2, 0.6, 0.2), 4)
        traj = macro_dynamics(sd, coarsening, psi0, t_max=3.0, dt=1.5)
        for row in traj:
            t = row[0]
            psi_t = evolve_batch(sd, psi0[None], t)[0]
            for x, (a, b) in enumerate(coarsening.ranges):
                weight = float(np.sum(np.abs(psi_t[a:b]) ** 2))
                assert row[1 + x] == pytest.approx(weight, abs=1e-10)

    def test_goe_allocates_no_complex_copy_of_the_basis(self):
        config = ModelConfig(v_minus=200, hamiltonian_seed=2)
        sd = eigendecompose(build_hamiltonian(config))
        coarsening = build_coarsening(config)
        psi0 = sample_haar_state(coarsening, (0.2, 0.6, 0.2), 5)
        d = config.dimension
        tracemalloc.start()
        try:
            traj = macro_dynamics(sd, coarsening, psi0, t_max=2.0, dt=1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * d * d
        # The eigenbasis coefficients as a complex-cast product.
        coeff0 = sd.eigenvectors.T.astype(np.complex128) @ psi0
        phases = np.exp(-1j * np.outer(traj[:, 0], sd.eigenvalues))
        states = (phases * coeff0) @ sd.eigenvectors.T
        want = np.stack(
            [np.sum(np.abs(states[:, a:b]) ** 2, axis=1) for a, b in coarsening.ranges], axis=1
        )
        assert np.abs(traj[:, 1:] - want).max() <= 1e-14 * np.abs(want).max()

    def test_gue_allocates_no_complex_copy_of_the_basis(self):
        config = ModelConfig(v_minus=200, hamiltonian_seed=2, ensemble=Ensemble.GUE)
        sd = eigendecompose(build_hamiltonian(config))
        coarsening = build_coarsening(config)
        psi0 = sample_haar_state(coarsening, (0.2, 0.6, 0.2), 5)
        d = config.dimension
        tracemalloc.start()
        try:
            traj = macro_dynamics(sd, coarsening, psi0, t_max=2.0, dt=1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # The basis itself is 16 D^2 bytes; a conjugate copy of it would
        # take the peak past that.
        assert peak < 16 * d * d
        coeff0 = sd.eigenvectors.conj().T @ psi0
        phases = np.exp(-1j * np.outer(traj[:, 0], sd.eigenvalues))
        states = (phases * coeff0) @ sd.eigenvectors.T
        want = np.stack(
            [np.sum(np.abs(states[:, a:b]) ** 2, axis=1) for a, b in coarsening.ranges], axis=1
        )
        assert np.abs(traj[:, 1:] - want).max() <= 1e-14 * np.abs(want).max()


class TestHistogramAndArrow:
    def test_histogram_keys_and_sum(self):
        df, *_ = make_df(v_minus=1, seed=4, num_steps=2)
        hist = branch_histogram(df)
        assert len(hist) == 27
        assert list(hist)[:3] == ["-,-,-", "0,-,-", "+,-,-"]
        assert "0,+,0" in hist
        assert sum(hist.values()) == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("num_steps", [1, 3, 5])
    def test_histogram_is_the_diagonal_in_code_order(self, num_steps):
        df, *_ = make_df(v_minus=2, seed=3, num_steps=num_steps)
        hist = branch_histogram(df)
        plain = dict(zip(_history_labels(df.length), df.diagonal().tolist()))
        assert hist == plain and plain == hist
        assert dict(hist) == plain
        assert list(hist) == list(plain)
        assert list(hist.items()) == list(plain.items())
        assert hist.keys() == plain.keys()
        assert len(hist) == len(plain) == 3**df.length
        assert all(label in hist for label in plain)
        assert "x" not in hist and "-" * df.length not in hist
        with pytest.raises(KeyError):
            hist["-"]

    def test_histogram_is_read_only(self):
        df, *_ = make_df(num_steps=2)
        hist = branch_histogram(df)
        with pytest.raises(TypeError):
            hist["-,-,-"] = 0.5
        with pytest.raises(TypeError):
            del hist["-,-,-"]
        with pytest.raises(ValueError):
            hist.weights[0] = 0.5
        with pytest.raises(AttributeError):
            hist.extra = 1

    def test_histogram_dict_round_trips(self):
        df, *_ = make_df(v_minus=2, seed=5, num_steps=3)
        hist = branch_histogram(df)
        data = dict(hist)
        # In code order, and in the sorted order a record is read back in.
        for order in (data, dict(sorted(data.items()))):
            back = BranchHistogram.from_dict(df.length, order)
            assert back == hist
            assert np.array_equal(back.weights, hist.weights)
        with pytest.raises(KeyError):
            BranchHistogram.from_dict(df.length, {"-,-,-,-": 1.0})

    def test_arrow_score(self):
        volumes = (5, 15, 5)
        assert arrow_score((1, 2, 1), volumes) == 0  # (0,+,0): down then up
        assert arrow_score((0, 1, 1), volumes) > 0  # (-,0,0): one increase
        assert arrow_score((1, 1, 0), volumes) < 0  # (0,0,-): one decrease
        assert arrow_score((1, 1, 1), volumes) == 0
        # V_+ = V_-, so hopping between the small bands scores nothing.
        assert arrow_score((0, 2), volumes) == 0
        assert arrow_score((2,), volumes) == 0
        assert arrow_score((), volumes) == 0

    def test_score_rows_match_single_sequences(self):
        volumes = (5, 15, 5)
        table = _digit_matrix(4)
        scores = arrow_score(table, volumes)
        assert scores.shape == (81,)
        assert scores.tolist() == [arrow_score(row, volumes) for row in table.tolist()]

    def test_classification_matches_loop_oracle(self, functional_l4):
        # Rotated or not, the fixture's band volumes are those of v_minus=2.
        coarsening = build_coarsening(ModelConfig(v_minus=2))
        report = arrow_classification(functional_l4, coarsening)
        expected = arrow_by_loops(functional_l4.entries, 4, coarsening.volumes)
        # Both sides add the weights in code order, so they agree exactly.
        assert (report.p_forward, report.p_noarrow, report.p_backward) == expected

    def test_classification_matches_loop_oracle_l6(self):
        df, _, coarsening, _ = make_df(v_minus=2, seed=5, num_steps=5)
        report = arrow_classification(df, coarsening)
        expected = arrow_by_loops(df.entries, 6, coarsening.volumes)
        assert (report.p_forward, report.p_noarrow, report.p_backward) == expected

    def test_classification_sums_to_one(self):
        df, _, coarsening, _ = make_df(v_minus=2, seed=5, num_steps=3)
        report = arrow_classification(df, coarsening)
        total = report.p_forward + report.p_noarrow + report.p_backward
        assert total == pytest.approx(1.0, abs=1e-10)
        assert min(report.p_forward, report.p_noarrow, report.p_backward) >= 0.0

    def test_classification_requires_two_times(self):
        df, _, coarsening, _ = make_df(num_steps=0)
        with pytest.raises(ValueError):
            arrow_classification(df, coarsening)
