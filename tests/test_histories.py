"""Branch trees, the decoherence functional, and marginalization."""

from __future__ import annotations

import numpy as np
import pytest

from dechist import histories, spectral
from dechist.model import (
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
    HistoryGrid,
    compute_df,
    decode_history,
    history_string,
    marginalize,
)

from oracles import (
    branches_by_chains,
    df_by_chains,
    functional_by_chains,
    leaves,
    marginal_by_loops,
    range_projectors,
)


def realization(v_minus=1, seed=0, state_seed=1, weights=(0.2, 0.6, 0.2)):
    config = ModelConfig(v_minus=v_minus, hamiltonian_seed=seed)
    ham = build_hamiltonian(config)
    sd = eigendecompose(ham)
    coarsening = build_coarsening(config)
    psi0 = sample_haar_state(coarsening, weights, state_seed)
    return config, ham, sd, coarsening, psi0


class TestHistoryGrid:
    def test_constant_times(self):
        grid = HistoryGrid.constant(4, 2.5)
        assert grid.times == (0.0, 2.5, 5.0, 7.5, 10.0)
        assert grid.length == 5
        assert grid.num_steps == 4

    def test_single_time_allowed(self):
        assert HistoryGrid.constant(0, 1.0).length == 1

    def test_length_bounds(self):
        with pytest.raises(ValueError):
            HistoryGrid.constant(6, 1.0)  # L = 7
        with pytest.raises(ValueError):
            HistoryGrid(times=())

    def test_must_increase(self):
        with pytest.raises(ValueError):
            HistoryGrid(times=(0.0, 1.0, 1.0))
        with pytest.raises(ValueError):
            HistoryGrid.constant(2, -1.0)

    def test_random_uniform(self):
        grid = HistoryGrid.random_uniform(4, 2.0, 3.0, seed=5)
        gaps = np.diff(grid.times)
        assert grid.times[0] == 0.0
        assert np.all(gaps >= 2.0) and np.all(gaps < 3.0)
        again = HistoryGrid.random_uniform(4, 2.0, 3.0, seed=5)
        assert grid.times == again.times


class TestEncoding:
    def test_round_trip(self):
        for length in range(1, 6):
            for h in range(3**length):
                labels = decode_history(h, length)
                assert sum(x * 3**k for k, x in enumerate(labels)) == h

    def test_earliest_label_least_significant(self):
        assert decode_history(1, 3) == (1, 0, 0)
        assert decode_history(9, 3) == (0, 0, 1)

    def test_strings(self):
        assert history_string(1 + 2 * 3 + 1 * 9, 3) == "0,+,0"
        assert history_string(0, 4) == "-,-,-,-"

    def test_rejects_bad_labels(self):
        with pytest.raises(ValueError):
            decode_history(27, 3)
        with pytest.raises(ValueError):
            history_string(27, 3)

    def test_digit_table_is_shared_and_read_only(self):
        table = histories._digit_matrix(4)
        assert table is histories._digit_matrix(4)
        assert table.tolist() == [list(decode_history(h, 4)) for h in range(81)]
        with pytest.raises(ValueError):
            table[0, 0] = 1

    def test_label_and_distance_tables_are_shared_and_read_only(self):
        for length in range(1, histories.MAX_LENGTH + 1):
            labels = histories._history_labels(length)
            assert labels is histories._history_labels(length)
            assert list(labels) == [
                history_string(h, length) for h in range(3**length)
            ]
            with pytest.raises(TypeError):
                labels[0] = ""
            # Pairs of one final-label block, by Hamming distance of
            # their first L - 1 labels.
            bins = histories._distance_bins(length)
            assert bins is histories._distance_bins(length)
            codes = [decode_history(h, length - 1) for h in range(3 ** (length - 1))]
            expected = [[] for _ in range(1, length)]
            for i, x in enumerate(codes):
                for j, y in enumerate(codes):
                    d = sum(a != b for a, b in zip(x, y))
                    if d:
                        expected[d - 1].append(i * len(codes) + j)
            assert [pairs.tolist() for pairs in bins] == expected
            for pairs in bins:
                with pytest.raises(ValueError):
                    pairs[0] = 0


def last_level(sd, coarsening, psi0, grid):
    """The (3^(L-1), D) last level of one start's branch tree, the dead
    rows that the tree does not hold filled in as zeros.  In a stack of
    one, the tree's live codes are those of the start's own bands."""
    codes, tree = histories._branch_tree(sd, coarsening, psi0[None], grid)
    level = np.zeros((3 ** (grid.length - 1), len(psi0)), dtype=complex)
    level[codes] = tree[:, 0]
    return level


class TestBranchStates:
    def test_level_zero_weights(self):
        _, _, sd, coarsening, psi0 = realization(v_minus=2)
        grid = HistoryGrid.constant(0, 1.0)
        states = leaves(last_level(sd, coarsening, psi0, grid), coarsening.ranges)
        assert states.shape == (3, 10)
        for x in range(3):
            start, stop = coarsening.ranges[x]
            expected = float(np.sum(np.abs(psi0[start:stop]) ** 2))
            got = float(np.linalg.norm(states[x]) ** 2)
            assert got == pytest.approx(expected, abs=1e-12)

    def test_branch_sum_reconstructs_evolution(self):
        _, _, sd, coarsening, psi0 = realization(v_minus=2, seed=3)
        grid = HistoryGrid.constant(2, 4.0)
        states = leaves(last_level(sd, coarsening, psi0, grid), coarsening.ranges)
        total = states.sum(axis=0)
        expected = evolve_batch(sd, evolve_batch(sd, psi0[None], 4.0), 4.0)[0]
        assert np.abs(total - expected).max() <= 1e-9

    def test_memory_guard(self, monkeypatch):
        _, _, sd, coarsening, psi0 = realization()
        grid = HistoryGrid.constant(4, 1.0)
        monkeypatch.setattr(histories, "MEMORY_BUDGET", 1024)
        with pytest.raises(MemoryError):
            compute_df(sd, coarsening, psi0[None], grid)

    @pytest.mark.parametrize(
        "ensemble,start",
        [
            (Ensemble.GOE, "minus"),
            (Ensemble.GUE, "minus"),
            (Ensemble.GOE, "eigenstate"),
            (Ensemble.GUE, "eigenstate"),
        ],
    )
    def test_live_rows_and_band_slices_match_chain_oracle(self, ensemble, start):
        # An all-minus start leaves every history with x_0 != - exactly
        # dead, so the tree skips those rows; an eigenstate start has
        # no dead rows and exercises only the per-band slicing.
        config = ModelConfig(v_minus=2, ensemble=ensemble, hamiltonian_seed=5)
        ham = build_hamiltonian(config)
        sd = eigendecompose(ham)
        coarsening = build_coarsening(config)
        if start == "minus":
            psi0 = sample_haar_state(coarsening, (1.0, 0.0, 0.0), 2)
        else:
            psi0, _ = select_eigenstate(sd, 2)
        grid = HistoryGrid.constant(3, 2.0)
        states = leaves(last_level(sd, coarsening, psi0, grid), coarsening.ranges)
        oracle = df_by_chains(
            ham.matrix, range_projectors(coarsening.ranges), grid.times, psi0
        )
        df = compute_df(sd, coarsening, psi0[None], grid)[0]
        assert np.abs(df.entries - oracle).max() <= 1e-12
        first = np.arange(3**4) % 3
        dead = first != 0 if start == "minus" else np.zeros_like(first, dtype=bool)
        assert np.all(states[dead] == 0)
        assert np.all(np.any(states[~dead] != 0, axis=1))

    def test_dead_rows_skip_the_forward_transform(self, monkeypatch):
        # All-minus start at L=4: levels 1..3 hold 3 + 9 + 27 rows, of
        # which 1 + 3 + 9 are live.  Only live rows may reach the
        # products, each forward product on one band's eigenvector rows.
        _, _, sd, coarsening, psi0 = realization(v_minus=2, weights=(1.0, 0.0, 0.0))
        d = sd.dimension
        forward, backward = [], []
        product = spectral._rows_times_matrix

        def counting(rows, mat):
            (backward if mat.shape == (d, d) else forward).append(rows.shape[0])
            return product(rows, mat)

        monkeypatch.setattr(spectral, "_rows_times_matrix", counting)
        compute_df(sd, coarsening, psi0[None], HistoryGrid.constant(3, 2.0))
        assert sum(forward) == 13
        assert backward == [1, 3, 9]

    def test_leaves_match_chain_oracle(self):
        # The tree keeps only its last level; the leaves built from it
        # are the branches of the explicit operator chains.
        _, ham, sd, coarsening, _ = realization(v_minus=2, seed=3)
        projs = range_projectors(coarsening.ranges)
        psi0 = sample_haar_state(coarsening, (0.2, 0.6, 0.2), 6)
        grid = HistoryGrid.constant(3, 2.0)
        final = last_level(sd, coarsening, psi0, grid)
        assert final.shape == (27, 10)
        oracle = branches_by_chains(ham.matrix, projs, grid.times, psi0)
        assert np.abs(leaves(final, coarsening.ranges) - oracle).max() <= 1e-12


def _three_starts(sd, coarsening):
    """An all-minus, an equilibrium and an eigenstate start, stacked."""
    return np.stack([
        sample_haar_state(coarsening, (1.0, 0.0, 0.0), 2),
        sample_haar_state(coarsening, (0.2, 0.6, 0.2), 3),
        select_eigenstate(sd, 4)[0],
    ])


class TestStackedStarts:
    @pytest.mark.parametrize("length", [1, 2, 3, 4])
    @pytest.mark.parametrize("ensemble", [Ensemble.GOE, Ensemble.GUE])
    def test_stack_matches_single_starts(self, ensemble, length):
        config = ModelConfig(v_minus=2, ensemble=ensemble, hamiltonian_seed=5)
        sd = eigendecompose(build_hamiltonian(config))
        coarsening = build_coarsening(config)
        starts = _three_starts(sd, coarsening)
        grid = HistoryGrid.constant(length - 1, 2.0)
        _, stacked = histories._branch_tree(sd, coarsening, starts, grid)
        stacked_dfs = compute_df(sd, coarsening, starts, grid)
        assert len(stacked_dfs) == len(starts)
        for s, (psi0, df) in enumerate(zip(starts, stacked_dfs)):
            single = last_level(sd, coarsening, psi0, grid)
            assert stacked[:, s].shape == single.shape == (3 ** (length - 1), 10)
            assert np.abs(stacked[:, s] - single).max() <= 1e-12
            single_df = compute_df(sd, coarsening, psi0[None], grid)[0]
            assert np.abs(df.entries - single_df.entries).max() <= 1e-12
            if s == 0 and length > 1:
                # The all-minus start's branches with x_0 != - stay exact
                # zeros next to the starts whose every branch is live.
                dead = np.arange(3 ** (length - 1)) % 3 != 0
                assert np.all(df.blocks[:, dead] == 0)
                assert np.all(df.blocks[:, :, dead] == 0)

    def test_stack_reads_the_basis_once_per_level(self, monkeypatch):
        # S all-minus starts at L=4: each level's live rows of all S trees
        # go through one backward product.
        _, _, sd, coarsening, _ = realization(v_minus=2)
        starts = np.stack([
            sample_haar_state(coarsening, (1.0, 0.0, 0.0), seed) for seed in range(3)
        ])
        d = sd.dimension
        forward, backward = [], []
        product = spectral._rows_times_matrix

        def counting(rows, mat):
            (backward if mat.shape == (d, d) else forward).append(rows.shape[0])
            return product(rows, mat)

        monkeypatch.setattr(spectral, "_rows_times_matrix", counting)
        compute_df(sd, coarsening, starts, HistoryGrid.constant(3, 2.0))
        assert sum(forward) == 13 * 3
        assert backward == [3, 9, 27]

    def test_stack_memory_guard_counts_every_start(self, monkeypatch):
        _, _, sd, coarsening, psi0 = realization(v_minus=2)
        grid = HistoryGrid.constant(2, 1.0)
        # The last level of three starts (27 rows) fits; that of four (36 rows) does not.
        monkeypatch.setattr(histories, "MEMORY_BUDGET", 16 * 27 * 10)
        compute_df(sd, coarsening, psi0[None], grid)
        compute_df(sd, coarsening, np.stack([psi0] * 3), grid)
        with pytest.raises(MemoryError):
            compute_df(sd, coarsening, np.stack([psi0] * 4), grid)

    def test_memory_guard_counts_live_rows(self, monkeypatch):
        _, _, sd, coarsening, psi0 = realization(v_minus=2, weights=(1.0, 0.0, 0.0))
        grid = HistoryGrid.constant(2, 1.0)
        # An all-minus start holds 3 of the 9 rows of its last level at
        # L=3: nine starts (27 rows) fit where counting 9 rows each would
        # fit three; ten (30 rows) do not.
        monkeypatch.setattr(histories, "MEMORY_BUDGET", 16 * 27 * 10)
        compute_df(sd, coarsening, np.stack([psi0] * 9), grid)
        with pytest.raises(MemoryError, match="3 live x 10 branches each"):
            compute_df(sd, coarsening, np.stack([psi0] * 10), grid)


class TestCompactTree:
    # Each stack's bands with weight, k in all: one start takes every band
    # of the stack, a second only some, whose own dead branches are zero
    # rows of the stack's compact level.
    STACKS = {
        1: [(1.0, 0.0, 0.0), (1.0, 0.0, 0.0)],
        2: [(0.5, 0.0, 0.5), (0.0, 0.0, 1.0)],
        3: [(0.2, 0.6, 0.2), (0.0, 1.0, 0.0)],
    }

    @pytest.mark.parametrize("length", [3, 4, 5])
    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("ensemble", [Ensemble.GOE, Ensemble.GUE])
    def test_levels_hold_live_rows_only(self, monkeypatch, ensemble, k, length):
        # Level 1 evolves the stack's k bands of each of the S starts, and
        # every later level the three bands of each row it holds, so the
        # last level holds k * 3^(L-2) * S rows, not 3^(L-1) * S.
        config = ModelConfig(v_minus=2, ensemble=ensemble, hamiltonian_seed=5)
        ham = build_hamiltonian(config)
        sd = eigendecompose(ham)
        coarsening = build_coarsening(config)
        starts = np.stack([
            sample_haar_state(coarsening, w, seed)
            for seed, w in enumerate(self.STACKS[k], start=2)
        ])
        grid = HistoryGrid.constant(length - 1, 2.0)
        received, returned = [], []
        evolve = histories.evolve_batch

        def recording(sd, states, dt, ranges=None):
            received.append(len(states))
            out = evolve(sd, states, dt, ranges=ranges)
            returned.append(len(out))
            return out

        monkeypatch.setattr(histories, "evolve_batch", recording)
        dfs = compute_df(sd, coarsening, starts, grid)
        s = len(starts)
        assert received == [s] + [k * 3 ** (j - 1) * s for j in range(1, length - 1)]
        assert returned[-1] == k * 3 ** (length - 2) * s
        projs = range_projectors(coarsening.ranges)
        first = np.arange(3 ** (length - 1)) % 3
        for psi0, weights, df in zip(starts, self.STACKS[k], dfs):
            live = (np.array(weights) > 0)[first]  # x_0 in the start's own bands
            oracle = functional_by_chains(ham.matrix, projs, grid, psi0)
            assert np.abs(df.blocks - oracle.blocks).max() <= 1e-12
            assert np.all(df.blocks[:, ~live] == 0)
            assert np.all(df.blocks[:, :, ~live] == 0)


class TestDecoherenceFunctional:
    @pytest.mark.parametrize("v_minus,seed", [(1, 0), (1, 4), (2, 1)])
    def test_matches_operator_chain_oracle(self, v_minus, seed):
        config, ham, sd, coarsening, psi0 = realization(v_minus=v_minus, seed=seed)
        grid = HistoryGrid.constant(2, 3.0)
        df = compute_df(sd, coarsening, psi0[None], grid)[0]
        oracle = df_by_chains(
            ham.matrix, range_projectors(coarsening.ranges), grid.times, psi0
        )
        assert np.abs(df.entries - oracle).max() <= 1e-10

    def test_invariants(self):
        _, _, sd, coarsening, psi0 = realization(v_minus=2, seed=9)
        grid = HistoryGrid.constant(3, 5.0)
        df = compute_df(sd, coarsening, psi0[None], grid)[0]
        entries = df.entries
        assert np.abs(entries - entries.conj().T).max() <= 1e-12
        assert np.trace(entries).real == pytest.approx(1.0, abs=1e-10)
        assert np.abs(np.trace(entries).imag) <= 1e-12
        diag = df.diagonal()
        assert np.all(diag >= -1e-14)
        # Cauchy-Schwarz: |entry|^2 <= weight product.
        bound = np.outer(diag, diag)
        assert np.all(np.abs(entries) ** 2 <= bound + 1e-12)

    @pytest.mark.parametrize("band", [0, 1, 2])
    def test_one_band_start_leaves_dead_branches_exactly_zero(self, band):
        # Only the histories with x_0 = band are live: the rows and
        # columns of the others are exact zeros, and the live entries
        # are those of the operator chains.
        _, ham, sd, coarsening, _ = realization(v_minus=2, seed=5)
        weights = tuple(float(x == band) for x in range(3))
        psi0 = sample_haar_state(coarsening, weights, 2)
        grid = HistoryGrid.constant(3, 2.0)
        df = compute_df(sd, coarsening, psi0[None], grid)[0]
        oracle = functional_by_chains(
            ham.matrix, range_projectors(coarsening.ranges), grid, psi0
        )
        dead = np.arange(3**3) % 3 != band
        assert np.all(df.blocks[:, dead] == 0)
        assert np.all(df.blocks[:, :, dead] == 0)
        assert np.abs(df.blocks - oracle.blocks).max() <= 1e-12

    def test_final_time_blocks_exactly_zero(self):
        _, _, sd, coarsening, psi0 = realization(v_minus=1, seed=2)
        grid = HistoryGrid.constant(2, 2.0)
        df = compute_df(sd, coarsening, psi0[None], grid)[0]
        n = 3**3
        final = np.arange(n) // 9
        mask = final[:, None] != final[None, :]
        assert np.all(df.entries[mask] == 0)

    def test_single_time_df_is_diagonal(self):
        _, _, sd, coarsening, psi0 = realization(v_minus=2, seed=5)
        grid = HistoryGrid.constant(0, 1.0)
        df = compute_df(sd, coarsening, psi0[None], grid)[0]
        off = df.entries[~np.eye(3, dtype=bool)]
        assert np.all(off == 0)
        np.testing.assert_allclose(df.diagonal().sum(), 1.0, atol=1e-12)


class TestMarginalize:
    def test_identity_subset(self):
        _, _, sd, coarsening, psi0 = realization(v_minus=1, seed=3)
        grid = HistoryGrid.constant(2, 2.0)
        df = compute_df(sd, coarsening, psi0[None], grid)[0]
        same = marginalize(df, (0, 1, 2))
        np.testing.assert_array_equal(same.entries, df.entries)

    def test_trailing_containment(self):
        # Dropping the latest times reproduces the shorter-grid result.
        _, _, sd, coarsening, psi0 = realization(v_minus=2, seed=6)
        grid = HistoryGrid.constant(3, 2.5)
        df = compute_df(sd, coarsening, psi0[None], grid)[0]
        for keep in (1, 2, 3):
            reduced = marginalize(df, range(keep))
            short = compute_df(
                sd, coarsening, psi0[None], HistoryGrid.from_times(grid.times[:keep])
            )[0]
            assert np.abs(reduced.entries - short.entries).max() <= 1e-10
            assert reduced.grid.times == grid.times[:keep]

    def test_interior_removal_equals_no_projection(self):
        # Summing out an interior time equals never projecting there:
        # the oracle runs chains on the remaining times only.
        config, ham, sd, coarsening, psi0 = realization(v_minus=1, seed=8)
        grid = HistoryGrid.constant(2, 3.0)
        df = compute_df(sd, coarsening, psi0[None], grid)[0]
        reduced = marginalize(df, (0, 2))
        oracle = df_by_chains(
            ham.matrix,
            range_projectors(coarsening.ranges),
            (grid.times[0], grid.times[2]),
            psi0,
        )
        assert np.abs(reduced.entries - oracle).max() <= 1e-10

    def test_trace_preserved(self):
        _, _, sd, coarsening, psi0 = realization(v_minus=2, seed=4)
        grid = HistoryGrid.constant(3, 1.5)
        df = compute_df(sd, coarsening, psi0[None], grid)[0]
        for subset in [(3,), (0, 3), (1, 2), (0,)]:
            reduced = marginalize(df, subset)
            assert np.trace(reduced.entries).real == pytest.approx(1.0, abs=1e-10)

    def test_matches_loop_oracle(self, functional_l4):
        df = functional_l4
        for mask in range(1, 2**4):
            kept = tuple(k for k in range(4) if mask >> k & 1)
            expected = marginal_by_loops(df.entries, 4, kept)
            reduced = marginalize(df, kept)
            entries = reduced.entries
            assert np.abs(entries - expected).max() <= 1e-12
            b = 3 ** (len(kept) - 1)
            assert reduced.blocks.shape == (3, b, b)
            # Entries whose last kept labels differ are exact zeros.
            last = np.arange(3 * b) // b
            assert np.all(entries[last[:, None] != last[None, :]] == 0)
            np.testing.assert_array_equal(reduced.diagonal(), entries.diagonal().real)

    def test_rejects_bad_subsets(self):
        _, _, sd, coarsening, psi0 = realization()
        grid = HistoryGrid.constant(1, 1.0)
        df = compute_df(sd, coarsening, psi0[None], grid)[0]
        with pytest.raises(ValueError):
            marginalize(df, ())
        with pytest.raises(ValueError):
            marginalize(df, (2,))
