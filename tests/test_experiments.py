"""Sweep orchestration, persistence, and scaling fits."""

from __future__ import annotations

import functools
import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

import dechist.experiments as experiments
from dechist.experiments import (
    InitFamily,
    PerLengthMetrics,
    RandomSpacing,
    RealizationResult,
    SweepSpec,
    compute_realization_df,
    fit_scaling,
    run_realization,
    run_sweep,
)
from dechist.histories import HistoryGrid, compute_branch_states, compute_df
from dechist.metrics import delta_max, epsilon_average
from dechist.model import (
    Ensemble,
    Spacing,
    build_coarsening,
    build_hamiltonian,
    derive_coupling,
)
from dechist.spectral import eigendecompose, sample_haar_state

from oracles import df_by_chains, range_projectors

SPEC_V1 = Path(__file__).parent / "data" / "sweep_spec_v1.json"
_RUN_GROUP = experiments._run_group


def small_spec(**overrides):
    defaults = dict(
        d_grid=(5,),
        num_hamiltonian_seeds=1,
        num_state_seeds=1,
        base_seed=11,
        num_steps=2,
    )
    defaults.update(overrides)
    return SweepSpec(**defaults)


def strip_wall(result: RealizationResult) -> dict:
    data = experiments.result_to_dict(result)
    data.pop("wall_time_s")
    return data


def _die_after_others(records: Path, spec, d, h_index, s_indices):
    """Stand-in for _run_group in a forked worker: group (d=5, h=0) waits
    until the three other groups are on disk, then kills its process."""
    if (d, h_index) == (5, 0):
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            if records.exists() and len(records.read_text().splitlines()) >= 3:
                break
            time.sleep(0.05)
        os._exit(1)
    return _RUN_GROUP(spec, d, h_index, s_indices)


class TestSweepSpec:
    def test_rejects_bad_dimensions(self):
        with pytest.raises(ValueError):
            SweepSpec(d_grid=(7,))
        with pytest.raises(ValueError):
            SweepSpec(d_grid=())
        with pytest.raises(ValueError):
            SweepSpec(d_grid=(50, 5))
        with pytest.raises(ValueError):
            SweepSpec(d_grid=(5, 5))

    def test_rejects_bad_steps(self):
        with pytest.raises(ValueError):
            SweepSpec(d_grid=(5,), num_steps=0)
        with pytest.raises(ValueError):
            SweepSpec(d_grid=(5,), num_steps=6)
        with pytest.raises(ValueError):
            SweepSpec(d_grid=(5,), step_mode="weekly")
        with pytest.raises(ValueError):
            SweepSpec(d_grid=(5,), step_mode=-1.0)

    def test_seed_derivation_is_stable(self):
        spec = small_spec(base_seed=42)
        assert spec.hamiltonian_seed(0) == spec.hamiltonian_seed(0)
        assert spec.hamiltonian_seed(0) != spec.hamiltonian_seed(1)
        assert spec.state_seed(0, 0) != spec.state_seed(0, 1)
        assert spec.state_seed(0, 0) != spec.grid_seed(0, 0)

    def test_l_max(self):
        assert small_spec(num_steps=4).l_max == 5


class TestRunRealization:
    def test_deterministic(self):
        spec = small_spec()
        a = run_realization(spec, 5, 0, 0)
        b = run_realization(spec, 5, 0, 0)
        assert strip_wall(a) == strip_wall(b)

    def test_epsilon_matches_chain_oracle(self):
        spec = small_spec(num_steps=1)
        result = run_realization(spec, 5, 0, 0)

        config = spec.model_config(5, 0)
        ham = build_hamiltonian(config)
        coarsening = build_coarsening(config)
        psi0 = sample_haar_state(
            coarsening, (0.2, 0.6, 0.2), spec.state_seed(0, 0)
        )
        tau = derive_coupling(config).tau
        entries = df_by_chains(
            ham.matrix, range_projectors(coarsening.ranges), (0.0, tau), psi0
        )
        from dechist.histories import DecoherenceFunctional

        oracle = DecoherenceFunctional(
            entries=entries, grid=HistoryGrid.constant(1, tau)
        )
        expected = epsilon_average(oracle)
        got = result.per_length[2]
        assert got.epsilon_avg == pytest.approx(expected.epsilon_avg, abs=1e-9)
        assert got.pair_count == expected.pair_count

    def test_marginalized_metrics_match_short_grids(self):
        # Per-length records come from one functional; recomputing each
        # shorter grid from scratch must agree.
        spec = small_spec(d_grid=(10,), num_steps=3, base_seed=3)
        result = run_realization(spec, 10, 0, 0)

        config = spec.model_config(10, 0)
        sd = eigendecompose(build_hamiltonian(config))
        coarsening = build_coarsening(config)
        psi0 = sample_haar_state(
            coarsening, (0.2, 0.6, 0.2), spec.state_seed(0, 0)
        )
        tau = derive_coupling(config).tau
        full = HistoryGrid.constant(3, tau)
        for length in (2, 3, 4):
            short = HistoryGrid.from_times(full.times[:length])
            df = compute_df(compute_branch_states(sd, coarsening, psi0, short))
            eps = epsilon_average(df)
            dist = delta_max(df)
            got = result.per_length[length]
            assert got.epsilon_avg == pytest.approx(eps.epsilon_avg, abs=1e-10)
            assert got.delta_max == pytest.approx(dist.delta_max, abs=1e-10)
            assert got.argmax_subset == dist.argmax_subset

    def test_eigenstate_family_records_index(self):
        spec = small_spec(init_family=InitFamily.EIGENSTATE)
        result = run_realization(spec, 5, 0, 0)
        assert result.eigenstate_index is not None
        assert 0 <= result.eigenstate_index < 5
        assert result.init_family == "eigenstate"

    def test_haar_family_leaves_index_unset(self):
        result = run_realization(small_spec(), 5, 0, 0)
        assert result.eigenstate_index is None

    def test_random_spacing_deterministic(self):
        spec = small_spec(step_mode=RandomSpacing(0.5, 1.5))
        a = run_realization(spec, 5, 0, 0)
        b = run_realization(spec, 5, 0, 0)
        assert strip_wall(a) == strip_wall(b)


class TestRunSweep:
    def test_cardinality_and_order(self):
        spec = SweepSpec(
            d_grid=(5, 10), num_hamiltonian_seeds=2, num_state_seeds=2,
            base_seed=7, num_steps=2,
        )
        results = run_sweep(spec)
        assert len(results) == 8
        keys = [r.key for r in results]
        assert keys == sorted(keys)
        assert all(not r.failed for r in results)

    def test_worker_count_does_not_change_results(self):
        spec = SweepSpec(
            d_grid=(5, 10), num_hamiltonian_seeds=2, num_state_seeds=1,
            base_seed=5, num_steps=2,
        )
        serial = run_sweep(spec, workers=1)
        parallel = run_sweep(spec, workers=2)
        assert [strip_wall(r) for r in serial] == [strip_wall(r) for r in parallel]

    def test_resume_skips_completed_work(self, tmp_path, monkeypatch):
        spec = small_spec(d_grid=(5, 10), base_seed=9)
        out = tmp_path / "sweep"
        first = run_sweep(spec, output_dir=out)
        assert (out / "realizations.jsonl").exists()
        assert (out / "sweep_spec.json").exists()

        def explode(*args, **kwargs):
            raise AssertionError("resume must not recompute")

        monkeypatch.setattr(experiments, "_run_group", explode)
        second = run_sweep(spec, output_dir=out)
        assert [experiments.result_to_dict(r) for r in first] == [
            experiments.result_to_dict(r) for r in second
        ]

    def test_partial_resume_fills_missing_keys(self, tmp_path):
        spec = SweepSpec(
            d_grid=(5,), num_hamiltonian_seeds=1, num_state_seeds=2,
            base_seed=13, num_steps=2,
        )
        out = tmp_path / "sweep"
        full = run_sweep(spec, output_dir=out)

        # Drop one record from the stream and rerun: only that key is redone.
        lines = (out / "realizations.jsonl").read_text().splitlines()
        kept = [ln for ln in lines if json.loads(ln)["s_index"] != 1]
        assert len(kept) == 1
        (out / "realizations.jsonl").write_text("\n".join(kept) + "\n")
        again = run_sweep(spec, output_dir=out)
        assert [strip_wall(r) for r in again] == [strip_wall(r) for r in full]

    def test_torn_last_record_is_recomputed(self, tmp_path):
        spec = small_spec(d_grid=(5, 10), num_state_seeds=2, base_seed=17)
        out = tmp_path / "sweep"
        full = run_sweep(spec, output_dir=out)

        # An append interrupted halfway through the last record.
        path = out / "realizations.jsonl"
        raw = path.read_bytes()
        last = raw.rstrip(b"\n").rfind(b"\n") + 1
        path.write_bytes(raw[: last + (len(raw) - last) // 2])
        again = run_sweep(spec, output_dir=out)
        assert [strip_wall(r) for r in again] == [strip_wall(r) for r in full]
        lines = path.read_text().splitlines()
        assert len(lines) == 4
        assert all(json.loads(line) for line in lines)

        # A broken record with complete ones after it is not an interrupted
        # append; it stays an error.
        lines[1] = lines[1][:20]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(json.JSONDecodeError):
            run_sweep(spec, output_dir=out)

    def test_crashed_worker_keeps_finished_groups(self, tmp_path, monkeypatch):
        spec = small_spec(d_grid=(5, 10), num_hamiltonian_seeds=2, base_seed=19)
        out = tmp_path / "sweep"
        records = out / "realizations.jsonl"
        monkeypatch.setattr(
            experiments, "_run_group", functools.partial(_die_after_others, records)
        )
        crashed = run_sweep(spec, output_dir=out, workers=2)
        assert [r.key for r in crashed] == [(5, 0, 0), (5, 1, 0), (10, 0, 0), (10, 1, 0)]
        assert [r.failed for r in crashed] == [True, False, False, False]
        assert "BrokenProcessPool" in crashed[0].error
        # The lost group is not on disk, so the rerun retries it.
        assert len(records.read_text().splitlines()) == 3

        monkeypatch.undo()
        again = run_sweep(spec, output_dir=out, workers=2)
        assert not any(r.failed for r in again)
        assert [strip_wall(r) for r in again] == [strip_wall(r) for r in run_sweep(spec)]

    def test_spec_file_matches_v1(self, tmp_path, monkeypatch):
        # sweep_spec_v1.json was written by an earlier release; an unchanged
        # encoding keeps directories from older runs resumable.
        spec = SweepSpec(
            d_grid=(5, 10, 20), num_hamiltonian_seeds=2, num_state_seeds=2,
            base_seed=3, ensemble=Ensemble.GUE, diagonal_spacing=Spacing.RANDOM,
            delta_e=2.0, num_steps=3, step_mode=RandomSpacing(0.5, 1.5),
            init_family=InitFamily.HAAR_NONEQUILIBRIUM,
            weights=((0.5, 0.25, 0.25),),
        )
        monkeypatch.setattr(experiments, "_run_group", lambda *args: [])
        run_sweep(spec, output_dir=tmp_path)
        assert (tmp_path / "sweep_spec.json").read_text() == SPEC_V1.read_text()

    def test_spec_guard_rejects_mismatched_directory(self, tmp_path):
        out = tmp_path / "sweep"
        run_sweep(small_spec(base_seed=1), output_dir=out)
        with pytest.raises(ValueError):
            run_sweep(small_spec(base_seed=2), output_dir=out)

    def test_failed_realization_recorded_not_fatal(self, monkeypatch):
        spec = SweepSpec(
            d_grid=(5,), num_hamiltonian_seeds=1, num_state_seeds=2,
            base_seed=2, num_steps=2,
        )
        original = experiments.compute_realization_df

        def flaky(spec_, d, h_index, s_index, **kwargs):
            if s_index == 1:
                raise RuntimeError("synthetic failure")
            return original(spec_, d, h_index, s_index, **kwargs)

        monkeypatch.setattr(experiments, "compute_realization_df", flaky)
        results = run_sweep(spec)
        assert len(results) == 2
        good, bad = results
        assert not good.failed
        assert bad.failed
        assert "synthetic failure" in bad.error
        assert bad.per_length == {}

    def test_group_level_failure_marks_all_states(self, monkeypatch):
        spec = SweepSpec(
            d_grid=(5,), num_hamiltonian_seeds=1, num_state_seeds=2,
            base_seed=4, num_steps=2,
        )

        def explode(config):
            raise RuntimeError("no matrix today")

        monkeypatch.setattr(experiments, "build_hamiltonian", explode)
        results = run_sweep(spec)
        assert len(results) == 2
        assert all(r.failed for r in results)


def synth_result(d, epsilon, delta=None, s_index=0, error=None, length=3):
    per_length = {}
    if error is None:
        per_length[length] = PerLengthMetrics(
            epsilon_avg=epsilon,
            pair_count=216,
            skipped_pairs=0,
            delta_max=epsilon if delta is None else delta,
            argmax_subset=0,
            p_forward=0.3,
            p_noarrow=0.4,
            p_backward=0.3,
        )
    return RealizationResult(
        d=d,
        h_index=0,
        s_index=s_index,
        hamiltonian_seed=1,
        state_seed=2,
        regime="weak",
        init_family="haar_equilibrium",
        eigenstate_index=None,
        per_length=per_length,
        distance_bins={},
        wall_time_s=0.0,
        error=error,
    )


class TestFitScaling:
    def test_exact_power_law(self):
        results = [
            synth_result(100, 0.1),
            synth_result(10**4, 0.01),
            synth_result(10**6, 0.001),
        ]
        fit = fit_scaling(results, "epsilon", 3)
        assert fit.alpha == pytest.approx(0.5, abs=1e-12)
        assert fit.intercept == pytest.approx(0.0, abs=1e-12)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
        assert fit.points == ((100, 0.1), (10**4, 0.01), (10**6, 0.001))

    def test_constant_metric(self):
        results = [synth_result(d, 0.25) for d in (5, 50, 500)]
        fit = fit_scaling(results, "epsilon", 3)
        assert fit.alpha == pytest.approx(0.0, abs=1e-12)
        assert repr(fit.alpha) == "0.0"  # not -0.0
        assert fit.r_squared == 1.0

    def test_averages_over_realizations(self):
        results = [
            synth_result(100, 0.08, s_index=0),
            synth_result(100, 0.12, s_index=1),
            synth_result(10**4, 0.01),
            synth_result(10**6, 0.001),
        ]
        fit = fit_scaling(results, "epsilon", 3)
        assert fit.points[0] == (100, pytest.approx(0.1, abs=1e-15))

    def test_failed_results_skipped(self):
        results = [
            synth_result(100, 0.1),
            synth_result(100, 99.0, s_index=1, error="RuntimeError: boom"),
            synth_result(10**4, 0.01),
            synth_result(10**6, 0.001),
        ]
        fit = fit_scaling(results, "epsilon", 3)
        assert fit.alpha == pytest.approx(0.5, abs=1e-12)

    def test_delta_metric_selected(self):
        results = [
            synth_result(100, 0.5, delta=0.1),
            synth_result(10**4, 0.5, delta=0.01),
            synth_result(10**6, 0.5, delta=0.001),
        ]
        fit = fit_scaling(results, "delta", 3)
        assert fit.alpha == pytest.approx(0.5, abs=1e-12)

    def test_needs_three_dimensions(self):
        results = [synth_result(100, 0.1), synth_result(200, 0.05)]
        with pytest.raises(ValueError):
            fit_scaling(results, "epsilon", 3)

    def test_rejects_unknown_metric(self):
        results = [synth_result(d, 0.1) for d in (5, 50, 500)]
        with pytest.raises(ValueError):
            fit_scaling(results, "norm", 3)

    def test_rejects_missing_length(self):
        results = [synth_result(d, 0.1) for d in (5, 50, 500)]
        with pytest.raises(ValueError):
            fit_scaling(results, "epsilon", 4)

    def test_rejects_nonpositive_mean(self):
        results = [synth_result(d, 0.0) for d in (5, 50, 500)]
        with pytest.raises(ValueError):
            fit_scaling(results, "epsilon", 3)


class TestSerialization:
    def test_round_trip(self):
        result = run_realization(small_spec(base_seed=21), 5, 0, 0)
        data = experiments.result_to_dict(result)
        back = experiments.result_from_dict(json.loads(json.dumps(data)))
        assert experiments.result_to_dict(back) == data

    def test_error_round_trip(self):
        result = synth_result(100, 0.1, error="RuntimeError: boom")
        data = experiments.result_to_dict(result)
        back = experiments.result_from_dict(json.loads(json.dumps(data)))
        assert back.failed
        assert back.error == "RuntimeError: boom"
