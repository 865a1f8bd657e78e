"""Sweep orchestration, persistence, and scaling fits."""

from __future__ import annotations

import concurrent.futures.process
import dataclasses
import errno
import functools
import io
import json
import math
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import dechist.experiments as experiments
from dechist import spectral
from dechist.experiments import (
    InitFamily,
    RandomSpacing,
    RealizationResult,
    SweepSpec,
    fit_points,
    run_sweep,
)
from dechist.histories import HistoryGrid, compute_df, marginalize
from dechist.metrics import (
    BranchHistogram,
    arrow_classification,
    branch_histogram,
    delta_max,
    epsilon_average,
)
from dechist.model import (
    Ensemble,
    Spacing,
    build_coarsening,
    build_hamiltonian,
    derive_coupling,
)
from dechist.spectral import eigendecompose, sample_haar_state

from oracles import df_by_chains, epsilon_by_distance_by_loops, range_projectors

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


def _die_after_others(received: Path, spec, d, h_index, s_indices):
    """Stand-in for _run_group in a forked worker: group (d=5, h=0) waits
    until the parent has received the three other groups, then kills its
    process."""
    if (d, h_index) == (5, 0):
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline and len(list(received.iterdir())) < 3:
            time.sleep(0.05)
        os._exit(1)
    return _RUN_GROUP(spec, d, h_index, s_indices)


class _NotingPool(concurrent.futures.ProcessPoolExecutor):
    """Pool whose parent leaves a file named by (d, h_index) in `received`
    for each group result it receives, when it receives it."""

    def __init__(self, received: Path, **kwargs):
        super().__init__(**kwargs)
        self.received = received

    def submit(self, fn, spec, d, h_index, s_indices):
        def note(future):
            if not future.cancelled() and future.exception() is None:
                (self.received / f"{d}-{h_index}").touch()

        future = super().submit(fn, spec, d, h_index, s_indices)
        future.add_done_callback(note)
        return future


def _first_group_last(spec, d, h_index, s_indices):
    """Stand-in for _run_group: group (d=5, h=0) finishes after the others."""
    if (d, h_index) == (5, 0):
        time.sleep(1.0)
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

    def test_spec_and_sampler_check_weights_alike(self):
        coarsening = build_coarsening(small_spec().model_config(5, 0))
        bad = [(-0.1, 0.6, 0.5), (math.nan, 0.5, 0.5), (0.5, 0.5), (0.2, 0.6, 0.2 + 1e-10)]
        for weights in bad:
            with pytest.raises(ValueError) as spec_error:
                small_spec(weights=(weights,))
            with pytest.raises(ValueError) as sampler_error:
                sample_haar_state(coarsening, weights, 0)
            message = f"weights must be three non-negatives summing to 1, got {weights}"
            assert str(spec_error.value) == str(sampler_error.value) == message
        for weights in [(0.2, 0.6, 0.2), (1.0, 0.0, 0.0)]:
            assert small_spec(weights=(weights,)).weights == (weights,)
            assert sample_haar_state(coarsening, weights, 0).shape == (5,)


class TestRunRealization:
    def test_deterministic(self):
        spec = small_spec()
        a = experiments._run_group(spec, 5, 0, (0,))[0]
        b = experiments._run_group(spec, 5, 0, (0,))[0]
        assert a == b

    def test_epsilon_matches_chain_oracle(self):
        spec = small_spec(num_steps=1)
        result = experiments._run_group(spec, 5, 0, (0,))[0]

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
            blocks=np.einsum("ijik->ijk", entries.reshape(3, 3, 3, 3)),
            grid=HistoryGrid.constant(1, tau),
        )
        expected = epsilon_average(oracle)
        got = result.per_length[2]
        assert got.epsilon_avg == pytest.approx(expected.epsilon_avg, abs=1e-9)
        assert got.pair_count == expected.pair_count

    def test_marginalized_metrics_match_short_grids(self):
        # Per-length records come from one functional, each shorter grid
        # marginalized from the next longer one; recomputing each
        # shorter grid from scratch must agree.
        for num_steps in (3, 5):
            spec = small_spec(d_grid=(10,), num_steps=num_steps, base_seed=3)
            result = experiments._run_group(spec, 10, 0, (0,))[0]
            assert list(result.per_length) == list(range(2, num_steps + 2))

            config = spec.model_config(10, 0)
            sd = eigendecompose(build_hamiltonian(config))
            coarsening = build_coarsening(config)
            psi0 = sample_haar_state(
                coarsening, (0.2, 0.6, 0.2), spec.state_seed(0, 0)
            )
            tau = derive_coupling(config).tau
            full = HistoryGrid.constant(num_steps, tau)
            for length in range(2, num_steps + 2):
                short = HistoryGrid.from_times(full.times[:length])
                df = compute_df(sd, coarsening, psi0[None], short)[0]
                eps = epsilon_average(df)
                dist = delta_max(df)
                arrow = arrow_classification(df, coarsening)
                got = result.per_length[length]
                assert got.epsilon_avg == pytest.approx(eps.epsilon_avg, abs=1e-10)
                assert got.delta_max == pytest.approx(dist.delta_max, abs=1e-10)
                assert got.argmax_subset == dist.argmax_subset
                for name in ("p_forward", "p_noarrow", "p_backward"):
                    expected = getattr(arrow, name)
                    assert getattr(got, name) == pytest.approx(expected, abs=1e-10)
                histogram = branch_histogram(df)
                assert got.histogram.keys() == histogram.keys()
                for history, weight in histogram.items():
                    assert got.histogram[history] == pytest.approx(weight, abs=1e-10)
            expected = epsilon_by_distance_by_loops(df.entries, df.length)
            assert result.distance_bins.keys() == expected.keys()
            for d, (mean, count, _) in expected.items():
                assert result.distance_bins[d][0] == pytest.approx(mean, abs=1e-12)
                assert result.distance_bins[d][1] == count

    def test_eigenstate_family_records_index(self):
        spec = small_spec(init_family=InitFamily.EIGENSTATE)
        result = experiments._run_group(spec, 5, 0, (0,))[0]
        assert result.eigenstate_index is not None
        assert 0 <= result.eigenstate_index < 5
        assert result.init_family == "eigenstate"

    def test_haar_family_leaves_index_unset(self):
        result = experiments._run_group(small_spec(), 5, 0, (0,))[0]
        assert result.eigenstate_index is None

    def test_functional_uses_first_weight_triple(self):
        first = ((0.2, 0.6, 0.2),)
        df, _, _ = experiments.compute_realization_df(small_spec(weights=first), 5, 0, 0)
        both = small_spec(weights=first + ((1.0, 0.0, 0.0),))
        again, _, _ = experiments.compute_realization_df(both, 5, 0, 0)
        assert np.array_equal(again.entries, df.entries)

    def test_hamiltonian_and_decomposition_passed_positionally(self):
        # perfbench/make_reference.py calls it this way; the hamiltonian
        # is not read, and the functional equals the one from the store.
        spec = small_spec()
        config = spec.model_config(5, 0)
        hamiltonian = build_hamiltonian(config)
        sd = eigendecompose(hamiltonian)
        df, coarsening, index = experiments.compute_realization_df(
            spec, 5, 0, 0, hamiltonian, sd
        )
        stored, _, _ = experiments.compute_realization_df(spec, 5, 0, 0)
        assert np.array_equal(df.blocks, stored.blocks)
        assert coarsening == build_coarsening(config)
        assert index is None

    def test_random_spacing_deterministic(self):
        spec = small_spec(step_mode=RandomSpacing(0.5, 1.5))
        a = experiments._run_group(spec, 5, 0, (0,))[0]
        b = experiments._run_group(spec, 5, 0, (0,))[0]
        assert a == b


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
        assert serial == parallel

    def test_explicit_step_equal_to_tau_matches_tau_steps(self):
        # 3 matrices x 6 seeds at D=100, L=2, in batches of 3 and 3.
        spec = small_spec(
            d_grid=(100,), num_hamiltonian_seeds=3, num_state_seeds=6, num_steps=1
        )
        tau = derive_coupling(spec.model_config(100, 0)).tau
        explicit = run_sweep(dataclasses.replace(spec, step_mode=tau))
        assert len(explicit) == 18 and not any(r.failed for r in explicit)
        assert explicit == run_sweep(spec)

    def test_records_are_in_group_order_for_any_worker_count(
        self, tmp_path, monkeypatch
    ):
        # The first group finishes last, so records written in completion
        # order would put it at the end of the multi-worker stream.
        spec = small_spec(d_grid=(5, 10), num_hamiltonian_seeds=2, base_seed=23)

        def stream(workers):
            out = tmp_path / f"workers{workers}"
            run_sweep(spec, output_dir=out, workers=workers)
            lines = (out / "realizations.jsonl").read_text().splitlines()
            return [json.loads(line) for line in lines]

        serial = stream(1)
        monkeypatch.setattr(experiments, "_run_group", _first_group_last)
        assert stream(2) == serial
        assert [(r["d"], r["h_index"]) for r in serial] == [(5, 0), (5, 1), (10, 0), (10, 1)]

    def test_pool_never_exceeds_group_count(self, monkeypatch):
        # The stub pool runs each group in-process, so no worker starts.
        pool_sizes = []

        class InlinePool:
            def __init__(self, max_workers, mp_context):
                pool_sizes.append(max_workers)
                assert mp_context.get_start_method() == "fork"

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                return False

            def submit(self, fn, *args):
                future = concurrent.futures.Future()
                future.set_result(fn(*args))
                return future

        spec = small_spec(d_grid=(5, 10), base_seed=21)
        serial = run_sweep(spec)
        monkeypatch.setattr(concurrent.futures.process, "ProcessPoolExecutor", InlinePool)
        pooled = run_sweep(spec, workers=64)
        assert pool_sizes == [2]
        assert pooled == serial

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

    def test_records_are_written_with_sorted_keys(self, tmp_path):
        # Histograms reach json.dumps in code order ('-', '0', '+'), which
        # is not sorted order, so sort_keys alone sorts them.
        run_sweep(small_spec(d_grid=(5, 10), num_steps=3, base_seed=9), output_dir=tmp_path)
        lines = (tmp_path / "realizations.jsonl").read_text().splitlines()
        assert len(lines) == 2
        for line in lines:
            assert line == json.dumps(json.loads(line), sort_keys=True)

    def test_resumed_records_hold_compact_histograms(self, tmp_path):
        spec = small_spec(d_grid=(5, 10), num_steps=3, base_seed=9)
        out = tmp_path / "sweep"
        first = run_sweep(spec, output_dir=out)
        second = run_sweep(spec, output_dir=out)
        assert second == first
        for fresh, resumed in zip(first, second):
            for length, metrics in resumed.per_length.items():
                assert isinstance(metrics.histogram, BranchHistogram)
                want = fresh.per_length[length].histogram.weights
                assert np.array_equal(metrics.histogram.weights, want)

    def test_results_hold_8_bytes_of_histogram_per_history(self, tmp_path):
        # A fresh interpreter traces every allocation of the sweep; the
        # label tables that all histograms share stay when they are dropped.
        script = (
            "import gc, tracemalloc\n"
            "from dechist.experiments import SweepSpec, run_sweep\n"
            "spec = SweepSpec(d_grid=(5, 50), num_hamiltonian_seeds=3,\n"
            "                 num_state_seeds=5, num_steps=5, base_seed=2)\n"
            "tracemalloc.start()\n"
            "results = run_sweep(spec, output_dir='out')\n"
            "gc.collect()\n"
            "held = tracemalloc.get_traced_memory()[0]\n"
            "for r in results:\n"
            "    for m in r.per_length.values():\n"
            "        object.__setattr__(m, 'histogram', None)\n"
            "gc.collect()\n"
            "print(len(results), (held - tracemalloc.get_traced_memory()[0]) / len(results))\n"
        )
        count, per_record = run_python(tmp_path, script).stdout.split()
        assert int(count) == 30
        # 3^2 + ... + 3^6 = 1089 weights are 8.7 KB; dicts of floats took ~60 KB.
        assert float(per_record) <= 16 * 1024

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
        assert again == full

    def test_failed_record_of_an_older_stream_is_recomputed(self, tmp_path):
        # Older releases wrote failed records; such a key is retried, and
        # the stale line stays in the file.
        spec = small_spec(d_grid=(5, 10), num_state_seeds=2, base_seed=17)
        out = tmp_path / "sweep"
        full = run_sweep(spec, output_dir=out)
        path = out / "realizations.jsonl"
        lines = path.read_text().splitlines()
        failed = experiments._error_result(spec, 10, 0, 0, OSError(errno.ENOSPC, "full"))
        assert json.loads(lines[2])["d"] == 10 and json.loads(lines[2])["s_index"] == 0
        lines[2] = json.dumps(experiments.result_to_dict(failed), sort_keys=True)
        path.write_text("\n".join(lines) + "\n")
        assert run_sweep(spec, output_dir=out) == full
        assert len(path.read_text().splitlines()) == 5

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
        assert again == full
        lines = path.read_text().splitlines()
        assert len(lines) == 4
        assert all(json.loads(line) for line in lines)

        # A broken record with complete ones after it is not an interrupted
        # append; it stays an error, which names the file and line.
        lines[1] = lines[1][:20]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(experiments.ConfigError, match=f"{path}:2: invalid JSON"):
            run_sweep(spec, output_dir=out)

    def test_resume_after_truncation_at_every_line_boundary(self, tmp_path):
        # An interrupted append can cut the stream anywhere; cut it one
        # byte before, at and one byte after every record boundary.
        spec = SweepSpec(
            d_grid=(5, 10), num_hamiltonian_seeds=2, num_state_seeds=2,
            base_seed=27, num_steps=2,
        )
        full_dir = tmp_path / "full"
        full = run_sweep(spec, output_dir=full_dir)
        raw = (full_dir / "realizations.jsonl").read_bytes()

        def records(data: bytes) -> list[dict]:
            return [json.loads(line) for line in data.splitlines()]

        ends = [0] + [i + 1 for i, byte in enumerate(raw) if byte == ord("\n")]
        assert len(ends) == 9
        cuts = sorted({e + k for e in ends for k in (-1, 0, 1) if 0 <= e + k <= len(raw)})
        for cut in cuts:
            out = tmp_path / f"cut{cut}"
            shutil.copytree(full_dir, out)
            (out / "realizations.jsonl").write_bytes(raw[:cut])
            again = run_sweep(spec, output_dir=out)
            assert again == full, cut
            resumed = (out / "realizations.jsonl").read_bytes()
            assert resumed.endswith(b"\n"), cut
            assert records(resumed) == records(raw), cut

    def test_crashed_worker_keeps_finished_groups(self, tmp_path, monkeypatch):
        spec = small_spec(d_grid=(5, 10), num_hamiltonian_seeds=2, base_seed=19)
        out = tmp_path / "sweep"
        records = out / "realizations.jsonl"
        received = tmp_path / "received"
        received.mkdir()
        monkeypatch.setattr(
            experiments, "_run_group", functools.partial(_die_after_others, received)
        )
        monkeypatch.setattr(
            concurrent.futures.process, "ProcessPoolExecutor",
            functools.partial(_NotingPool, received),
        )
        crashed = run_sweep(spec, output_dir=out, workers=2)
        assert [r.key for r in crashed] == [(5, 0, 0), (5, 1, 0), (10, 0, 0), (10, 1, 0)]
        assert [r.failed for r in crashed] == [True, False, False, False]
        assert "BrokenProcessPool" in crashed[0].error
        # The lost group is not on disk, so the rerun retries it; the groups
        # after it are written once it is lost, in group order.
        assert len(records.read_text().splitlines()) == 3
        written = [json.loads(line) for line in records.read_text().splitlines()]
        assert [(r["d"], r["h_index"]) for r in written] == [(5, 1), (10, 0), (10, 1)]

        monkeypatch.undo()
        again = run_sweep(spec, output_dir=out, workers=2)
        assert not any(r.failed for r in again)
        assert again == run_sweep(spec)

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

    def test_spec_of_the_wrong_kind_is_rejected_before_any_write(self, tmp_path):
        out = tmp_path / "sweep"
        with pytest.raises(ValueError):
            run_sweep(SweepSpec(v_minus=2), output_dir=out)
        assert not (out / "sweep_spec.json").exists()
        with pytest.raises(ValueError):
            experiments.run_dynamics(small_spec())

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
        original = experiments._prepare

        def flaky(spec_, h_index, s_index, *args):
            if s_index == 1:
                raise RuntimeError("synthetic failure")
            return original(spec_, h_index, s_index, *args)

        monkeypatch.setattr(experiments, "_prepare", flaky)
        results = run_sweep(spec)
        assert len(results) == 2
        good, bad = results
        assert not good.failed
        assert bad.failed
        assert "synthetic failure" in bad.error
        assert bad.per_length == {}

    def test_group_level_failure_marks_all_states(self, monkeypatch, empty_store):
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


def count_eigensolves(monkeypatch) -> list[bytes]:
    """The matrices experiments decomposes from now on, in call order."""
    calls = []

    def counting(hamiltonian):
        calls.append(hamiltonian.matrix.tobytes())
        return spectral.eigendecompose(hamiltonian)

    monkeypatch.setattr(experiments, "eigendecompose", counting)
    return calls


def _tree_shapes(monkeypatch) -> list[tuple[int, ...]]:
    """Shape of the starts of every branch tree the sweep grows."""
    shapes = []
    grow = experiments.compute_df

    def recording(sd, coarsening, starts, grid):
        shapes.append(np.shape(starts))
        return grow(sd, coarsening, starts, grid)

    monkeypatch.setattr(experiments, "compute_df", recording)
    return shapes


def _assert_close_results(got: RealizationResult, want: RealizationResult) -> None:
    """Equal integer fields, float fields to 1e-12."""
    a, b = experiments.result_to_dict(got), experiments.result_to_dict(want)
    per_a, per_b = a.pop("per_length"), b.pop("per_length")
    bins_a, bins_b = a.pop("distance_bins"), b.pop("distance_bins")
    assert a == b
    assert per_a.keys() == per_b.keys()
    for length in per_a:
        hist_a, hist_b = per_a[length].pop("histogram"), per_b[length].pop("histogram")
        assert hist_a.keys() == hist_b.keys()
        assert all(abs(hist_a[k] - hist_b[k]) <= 1e-12 for k in hist_a)
        for name, value in per_a[length].items():
            if isinstance(value, int):
                assert value == per_b[length][name], name
            else:
                assert abs(value - per_b[length][name]) <= 1e-12, name
    assert bins_a.keys() == bins_b.keys()
    for k, (mean, count) in bins_a.items():
        assert count == bins_b[k][1]
        assert abs(mean - bins_b[k][0]) <= 1e-12


class TestStateSeedBatches:
    @pytest.mark.parametrize(
        "d,num_steps,ensemble,family,batch",
        [
            # rows 3, 7 * 16 * 3 * 100 // 3 = 11200; 80000 // 22400 = 3.
            (100, 1, Ensemble.GOE, InitFamily.HAAR_EQUILIBRIUM, 3),
            # rows 9, 7 * 16 * 9 * 250 // 3 = 84000; 500000 // 168000 = 2.
            (250, 2, Ensemble.GOE, InitFamily.EIGENSTATE, 2),
            # rows 3, 7 * 16 * 3 * 50 // 3 = 5600; 40000 // 11200 = 3.
            (50, 1, Ensemble.GUE, InitFamily.HAAR_EQUILIBRIUM, 3),
        ],
    )
    def test_batched_sweep_matches_single_seeds(
        self, monkeypatch, d, num_steps, ensemble, family, batch
    ):
        # A tree's working set is taken as 7/3 of its last level, rows * D
        # complex entries per seed, and a batch's working sets take at most
        # half the eigenvector bytes E (8 * D^2 for GOE, 16 * D^2 for GUE):
        # size = E // (2 * (7 * 16 * rows * D // 3)).  Every
        # start here has weight in all three bands, so every row of
        # 3^(L-1) is live; all-'-' starts are the next test's.
        spec = small_spec(
            d_grid=(d,), num_steps=num_steps, ensemble=ensemble, init_family=family,
            num_state_seeds=batch + 1, base_seed=29,
        )
        shapes = _tree_shapes(monkeypatch)
        swept = run_sweep(spec)
        assert shapes == [(batch, d), (1, d)]
        assert not any(r.failed for r in swept)
        for result in swept:
            single = experiments._run_group(spec, d, 0, (result.s_index,))[0]
            _assert_close_results(result, single)

    def test_all_minus_batch_counts_only_live_rows(self, monkeypatch):
        # An all-'-' start has weight in one band, so its tree holds 3 of
        # the 9 rows of its last level at L=3: GOE D=250 takes
        # 500000 // (2 * (7 * 16 * 3 * 250 // 3)) = 8 seeds, where counting
        # every row would take 500000 // 168000 = 2.
        spec = small_spec(
            d_grid=(250,), init_family=InitFamily.HAAR_NONEQUILIBRIUM,
            num_state_seeds=27, base_seed=29,
        )
        shapes = _tree_shapes(monkeypatch)
        swept = run_sweep(spec)
        assert shapes == [(8, 250)] * 3 + [(3, 250)]
        assert not any(r.failed for r in swept)
        for result in swept:
            single = experiments._run_group(spec, 250, 0, (result.s_index,))[0]
            df, _, _ = experiments.compute_realization_df(spec, 250, 0, result.s_index)
            # Subsets with and without t_0 tie exactly, since every branch
            # with x_0 != '-' is an exact zero; either is a right argmax.
            for length, metrics in result.per_length.items():
                want = single.per_length[length].argmax_subset
                per_subset = delta_max(marginalize(df, range(length))).per_subset
                assert per_subset[metrics.argmax_subset] == per_subset[want]
                result.per_length[length] = dataclasses.replace(metrics, argmax_subset=want)
            _assert_close_results(result, single)

    @pytest.mark.parametrize("d", [1000, 2000])
    def test_all_minus_group_stays_under_the_eigensolve_peak(self, tmp_path, d):
        # Batches are sized so that their trees fit in what the eigensolve
        # held at its peak: a 60-seed all-'-' group at L=5 may raise a
        # fresh process's peak at most 2% above the decomposition's alone.
        setup = f"""
import resource
from dechist import experiments
from dechist.experiments import InitFamily, SweepSpec
spec = SweepSpec(d_grid=({d},), num_state_seeds=60, num_steps=4,
                 init_family=InitFamily.HAAR_NONEQUILIBRIUM)
"""
        peak = "resource.getrusage(resource.RUSAGE_SELF).ru_maxrss"
        alone = run_python(tmp_path, setup + f"""
experiments._decomposition(spec.model_config({d}, 0))
print({peak})
""")
        group = run_python(tmp_path, setup + f"""
results = experiments._run_group(spec, {d}, 0, tuple(range(60)))
print({peak}, sum(r.failed for r in results))
""")
        grown, failed = map(int, group.stdout.split())
        assert failed == 0
        assert grown <= 1.02 * int(alone.stdout)

    @pytest.mark.parametrize("d", [1000, 2000])
    def test_all_minus_group_peaks_at_its_eigensolve(self, tmp_path, vmhwm, d):
        # The same 2% as above, read through each child's own VmHWM.  The
        # heap trimmed after the solve leaves the trees no freed pages to
        # stack on; untrimmed, they raised the group 2-3% above the solve.
        setup = vmhwm + f"""
from dechist import experiments
from dechist.experiments import InitFamily, SweepSpec
spec = SweepSpec(d_grid=({d},), num_state_seeds=60, num_steps=4,
                 init_family=InitFamily.HAAR_NONEQUILIBRIUM)
"""
        alone = run_python(tmp_path, setup + f"""
experiments._decomposition(spec.model_config({d}, 0))
print(vmhwm())
""")
        group = run_python(tmp_path, setup + f"""
results = experiments._run_group(spec, {d}, 0, tuple(range(60)))
print(vmhwm(), sum(r.failed for r in results))
""")
        grown, failed = map(int, group.stdout.split())
        assert failed == 0
        assert grown <= 1.02 * int(alone.stdout)

    def test_random_spacing_grows_one_tree_per_seed(self, monkeypatch):
        spec = small_spec(
            d_grid=(50,), num_steps=1, num_state_seeds=3, step_mode=RandomSpacing(0.5, 1.5)
        )
        shapes = _tree_shapes(monkeypatch)
        swept = run_sweep(spec)
        assert shapes == [(1, 50)] * 3
        assert swept == [experiments._run_group(spec, 50, 0, (s,))[0] for s in range(3)]

    def test_failed_batch_is_rerun_one_seed_at_a_time(self, monkeypatch):
        spec = small_spec(d_grid=(50,), num_steps=1, num_state_seeds=2)
        grow = experiments.compute_df

        def no_stacks(sd, coarsening, starts, grid):
            if len(starts) > 1:
                raise RuntimeError("synthetic batch failure")
            return grow(sd, coarsening, starts, grid)

        monkeypatch.setattr(experiments, "compute_df", no_stacks)
        swept = run_sweep(spec)
        assert not any(r.failed for r in swept)
        assert swept == [experiments._run_group(spec, 50, 0, (s,))[0] for s in range(2)]

    def test_failed_preparation_fails_alone_and_keeps_the_batch(self, monkeypatch):
        # The batch rule takes 3 seeds here (GOE D=100, L=2); seed 1's
        # preparation raises, so it fails on its own and seeds 0 and 2
        # grow one tree together.
        spec = small_spec(d_grid=(100,), num_steps=1, num_state_seeds=3)
        prepare = experiments._prepare

        def flaky(spec_, h_index, s_index, *args):
            if s_index == 1:
                raise RuntimeError("synthetic preparation failure")
            return prepare(spec_, h_index, s_index, *args)

        monkeypatch.setattr(experiments, "_prepare", flaky)
        shapes = _tree_shapes(monkeypatch)
        first, failed, last = run_sweep(spec)
        assert shapes == [(2, 100)]
        assert failed.failed and failed.s_index == 1
        assert failed.error == "RuntimeError: synthetic preparation failure"
        monkeypatch.undo()
        for result in (first, last):
            assert not result.failed
            single = experiments._run_group(spec, 100, 0, (result.s_index,))[0]
            _assert_close_results(result, single)

    def test_failed_metrics_fail_only_their_seed(self, monkeypatch):
        # GOE D=100 at L=2 batches up to 3 seeds, so both share one tree.
        spec = small_spec(d_grid=(100,), num_steps=1, num_state_seeds=2)
        bad, _, _ = experiments.compute_realization_df(spec, 100, 0, 1)
        distance = experiments.epsilon_by_distance

        def flaky(df):
            if np.allclose(df.entries, bad.entries, rtol=0, atol=1e-12):
                raise RuntimeError("synthetic metric failure")
            return distance(df)

        monkeypatch.setattr(experiments, "epsilon_by_distance", flaky)
        shapes = _tree_shapes(monkeypatch)
        good, failed = run_sweep(spec)
        assert shapes == [(2, 100)]
        assert not good.failed
        assert failed.failed and "synthetic metric failure" in failed.error
        monkeypatch.undo()
        single = experiments._run_group(spec, 100, 0, (0,))[0]
        assert good == single


class TestDecompositionStore:
    @pytest.mark.parametrize("ensemble", [Ensemble.GOE, Ensemble.GUE])
    def test_hit_equals_fresh_and_is_read_only(self, empty_store, monkeypatch, ensemble):
        config = small_spec(ensemble=ensemble).model_config(50, 0)
        calls = count_eigensolves(monkeypatch)
        miss = experiments._decomposition(config)
        hit = experiments._decomposition(config)
        assert len(calls) == 1
        fresh = eigendecompose(build_hamiltonian(config))
        for sd in (miss, hit):
            assert np.array_equal(sd.eigenvalues, fresh.eigenvalues)
            assert np.array_equal(sd.eigenvectors, fresh.eigenvectors)
            assert sd.eigenvectors.dtype == fresh.eigenvectors.dtype
            assert not sd.eigenvectors.flags.writeable

    def test_one_eigensolve_per_model_config(self, empty_store, monkeypatch):
        calls = count_eigensolves(monkeypatch)
        weak = SweepSpec(
            d_grid=(5, 10), num_hamiltonian_seeds=2, num_state_seeds=2,
            base_seed=23, num_steps=2,
        )
        run_sweep(weak)
        run_sweep(dataclasses.replace(weak, init_family=InitFamily.EIGENSTATE))
        experiments.run_dynamics(SweepSpec(v_minus=2, base_seed=23))
        # The dynamics matrix is the weak sweep's (D=10, h_index=0).
        assert len(calls) == len(set(calls)) == 4

    def test_decomposition_peak_memory(self, tmp_path, vmhwm):
        # The staged solve holds the eigenvectors and the divide-and-conquer
        # scratch, 2 D^2, while the reflectors wait in a temporary file;
        # np.linalg.eigh on a separate matrix holds about 5 D^2.
        d = 2000
        script = vmhwm + f"""
from dechist import experiments
from dechist.model import ModelConfig
experiments._decomposition(ModelConfig(v_minus=20))  # LAPACK's first-call buffers
before = vmhwm()
experiments._decomposition(ModelConfig(v_minus={d // 5}))
print(vmhwm() - before)
"""
        grown = int(run_python(tmp_path, script).stdout)
        assert grown <= 4 * d * d * 8

    @pytest.mark.parametrize("ensemble", [Ensemble.GOE, Ensemble.GUE])
    def test_later_solves_peak_at_the_first(self, tmp_path, vmhwm, ensemble):
        # Each solve hands the heap's free pages back to the OS.  Kept,
        # the freed coupling blocks (12 MB at D=2500 for GOE) and the
        # heap top that a group's trees leave would sit under the next
        # solve: the second group's peak grew 12 MiB for GOE, and then
        # 3.5 MiB for GUE while the blocks lived in mappings of their own.
        d = 2500
        script = vmhwm + f"""
from dechist import experiments
from dechist.experiments import SweepSpec
from dechist.model import Ensemble
spec = SweepSpec(d_grid=({d},), num_state_seeds=3, num_steps=4, ensemble=Ensemble.{ensemble.name})
for h_index in (0, 1):
    results = experiments._run_group(spec, {d}, h_index, (0, 1, 2))
    print(vmhwm(), sum(r.failed for r in results))
"""
        (first, failed_first), (second, failed_second) = (
            map(int, line.split()) for line in run_python(tmp_path, script).stdout.splitlines()
        )
        assert failed_first == failed_second == 0
        assert second - first <= 2.5 * 2**20

    @pytest.mark.parametrize(
        "store", ["zero_budget", "no_free_space", "missing_directory", "disk_full"]
    )
    def test_store_that_cannot_write_changes_nothing(
        self, tmp_path, monkeypatch, empty_store, store
    ):
        spec = small_spec(d_grid=(5, 10), num_state_seeds=2, base_seed=29)
        expected = run_sweep(spec)
        experiments._store_file[1].close()  # replaced by the broken store below
        monkeypatch.setattr(experiments, "_store", {})
        monkeypatch.setattr(experiments, "_store_file", None)
        if store == "zero_budget":
            monkeypatch.setattr(experiments, "_STORE_BUDGET_BYTES", 0)
        elif store == "no_free_space":
            monkeypatch.setattr(shutil, "disk_usage", lambda path: SimpleNamespace(free=0))
        elif store == "missing_directory":
            monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "missing"))
        elif store == "disk_full":
            half_writes(monkeypatch, failures=math.inf)
        calls = count_eigensolves(monkeypatch)
        for _ in range(2):
            assert run_sweep(spec) == expected
        assert len(calls) == 4
        assert experiments._store == {}

    def test_failed_append_leaves_later_entries_intact(self, empty_store, monkeypatch):
        half_writes(monkeypatch, failures=1)
        lost, kept = (small_spec().model_config(d, 0) for d in (10, 5))
        experiments._decomposition(lost)
        experiments._decomposition(kept)
        assert list(experiments._store) == [kept]
        assert experiments._store[kept][2] > 0
        hit = experiments._decomposition(kept)
        fresh = eigendecompose(build_hamiltonian(kept))
        assert np.array_equal(hit.eigenvalues, fresh.eigenvalues)
        assert np.array_equal(hit.eigenvectors, fresh.eigenvectors)

    def test_failed_append_leaves_nothing_for_a_later_hit(self, empty_store, monkeypatch):
        # A buffered store file would keep the failed rows in its buffer,
        # and the hit's seek would flush them and raise ENOSPC again.
        disk = half_writes(monkeypatch, failures=0)
        stored, lost = (small_spec().model_config(d, 0) for d in (10, 5))
        experiments._decomposition(stored)
        disk.left = math.inf  # the disk is full from here on
        experiments._decomposition(lost)
        assert list(experiments._store) == [stored]
        hit = experiments._decomposition(stored)
        fresh = eigendecompose(build_hamiltonian(stored))
        assert np.array_equal(hit.eigenvalues, fresh.eigenvalues)
        assert np.array_equal(hit.eigenvectors, fresh.eigenvectors)

    def test_hit_that_cannot_be_mapped_is_solved_afresh(self, empty_store, monkeypatch):
        config = small_spec().model_config(50, 0)
        experiments._decomposition(config)
        monkeypatch.setattr(np, "memmap", unmappable)
        calls = count_eigensolves(monkeypatch)
        sd = experiments._decomposition(config)
        assert len(calls) == 1
        assert config in experiments._store  # stored again
        fresh = eigendecompose(build_hamiltonian(config))
        assert np.array_equal(sd.eigenvalues, fresh.eigenvalues)
        assert np.array_equal(sd.eigenvectors, fresh.eigenvectors)
        assert not sd.eigenvalues.flags.writeable
        assert not sd.eigenvectors.flags.writeable

    def test_unmappable_store_fails_no_realization(self, empty_store, monkeypatch):
        # The eigenstate sweep hits every matrix that the weak one stored.
        weak = small_spec(d_grid=(5, 10), num_state_seeds=2, base_seed=31)
        pair = (weak, dataclasses.replace(weak, init_family=InitFamily.EIGENSTATE))
        fresh = []
        for spec in pair:
            experiments._store.clear()  # every matrix solved afresh
            fresh.append(run_sweep(spec))
        assert not any(r.failed for results in fresh for r in results)
        experiments._store.clear()
        monkeypatch.setattr(np, "memmap", unmappable)
        assert [run_sweep(spec) for spec in pair] == fresh

    def test_forked_workers_read_and_extend_the_store(self, empty_store):
        spec = small_spec(d_grid=(5, 10), num_hamiltonian_seeds=2, num_state_seeds=2)
        runs = [run_sweep(spec), run_sweep(spec, workers=2)]  # workers hit
        experiments._store.clear()
        runs.append(run_sweep(spec, workers=2))  # workers store in their own files
        assert experiments._store == {}
        runs += [run_sweep(spec), run_sweep(spec)]  # parent misses, then hits
        first, *rest = runs
        assert all(other == first for other in rest)

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="no /proc/self/fd")
    def test_one_descriptor_for_every_entry(self, empty_store):
        before = len(os.listdir("/proc/self/fd"))
        for d in (5, 10):
            for h_index in range(10):
                config = small_spec().model_config(d, h_index)
                experiments._decomposition(config)
                experiments._decomposition(config)
        assert len(experiments._store) == 20
        assert len(os.listdir("/proc/self/fd")) <= before + 1

    def test_no_directory_left_after_sweeps(self, tmp_path):
        write_store_configs(tmp_path)
        before = set(os.listdir(tmp_path))
        proc = run_python(tmp_path, (
            "from dechist import experiments\n"
            "from dechist.cli import main\n"
            "for w in ('2', '1'):\n"
            "    assert main(['sweep', '--config', f'w{w}.json', '--workers', w]) == 0\n"
            "print(len(experiments._store))\n"
        ))
        assert int(proc.stdout.splitlines()[-1]) == 4
        assert set(os.listdir(tmp_path)) == before | {"out1", "out2"}

    @pytest.mark.parametrize("signum", [signal.SIGTERM, signal.SIGKILL], ids=["term", "kill"])
    def test_killed_sweep_leaves_nothing(self, tmp_path, signum):
        """A sweep killed after two stores leaves no store behind."""
        write_store_configs(tmp_path)
        killed = run_python(tmp_path, (
            "import os\n"
            "from dechist import experiments, spectral\n"
            "from dechist.cli import main\n"
            "def dying(hamiltonian):\n"
            "    if len(experiments._store) == 2:\n"
            "        print(experiments._store_file[1].seek(0, os.SEEK_END), flush=True)\n"
            f"        os.kill(os.getpid(), {int(signum)})\n"
            "    return spectral.eigendecompose(hamiltonian)\n"
            "experiments.eigendecompose = dying\n"
            "main(['sweep', '--config', 'w1.json', '--workers', '1'])\n"
        ), check=False)
        assert killed.returncode == -signum
        assert int(killed.stdout) > 0
        assert sorted(os.listdir(tmp_path)) == ["out1", "w1.json", "w2.json"]


def half_writes(monkeypatch, failures):
    """Store files made from now on stop the first `failures` writes that
    reach the disk halfway and raise ENOSPC; returns the class whose
    `left` counts the failures still to come.  The failing file is the
    raw one, wrapped in BufferedRandom unless opened with buffering=0, as
    tempfile.TemporaryFile does."""

    class HalfWrites(io.FileIO):
        left = failures

        def write(self, data):
            if not HalfWrites.left:
                return super().write(data)
            HalfWrites.left -= 1
            data = memoryview(data).cast("B")
            super().write(data[: len(data) // 2])
            raise OSError(errno.ENOSPC, "No space left on device")

    def make(buffering=-1):
        fd, path = tempfile.mkstemp()
        os.unlink(path)
        raw = HalfWrites(fd, "r+b")
        return raw if buffering == 0 else io.BufferedRandom(raw)

    monkeypatch.setattr(tempfile, "TemporaryFile", make)
    return HalfWrites


def unmappable(*args, **kwargs):
    """Stands in for np.memmap on a store file that cannot be mapped."""
    raise OSError(errno.ENOMEM, "Cannot allocate memory")


def write_store_configs(directory):
    """w1.json and w2.json: small sweeps with two matrices per dimension."""
    config = {
        "model": {"d_grid": [5, 10]},
        "grid": {"num_steps": 2},
        "sweep": {"num_hamiltonian_seeds": 2, "num_state_seeds": 1},
    }
    for workers in (2, 1):
        config["output"] = {"directory": str(directory / f"out{workers}")}
        (directory / f"w{workers}.json").write_text(json.dumps(config))


def run_python(directory, script, check=True):
    """Run script in a fresh interpreter whose cwd and TMPDIR are directory."""
    env = {
        **os.environ,
        "TMPDIR": str(directory),
        "PYTHONPATH": str(Path(experiments.__file__).parents[1]),
    }
    return subprocess.run(
        [sys.executable, "-c", script], cwd=directory, env=env,
        capture_output=True, text=True, check=check,
    )


class TestFitScaling:
    """fit_points on the (d, value) points that `dechist fit` reads."""

    def test_exact_power_law(self):
        fit = fit_points([(100, 0.1), (10**4, 0.01), (10**6, 0.001)], "epsilon", 3)
        assert fit.alpha == pytest.approx(0.5, abs=1e-12)
        assert fit.intercept == pytest.approx(0.0, abs=1e-12)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
        assert fit.points == ((100, 0.1), (10**4, 0.01), (10**6, 0.001))

    def test_constant_metric(self):
        fit = fit_points([(d, 0.25) for d in (5, 50, 500)], "epsilon", 3)
        assert fit.alpha == pytest.approx(0.0, abs=1e-12)
        assert repr(fit.alpha) == "0.0"  # not -0.0
        assert fit.r_squared == 1.0

    def test_averages_over_realizations(self):
        points = [(100, 0.08), (100, 0.12), (10**4, 0.01), (10**6, 0.001)]
        fit = fit_points(points, "epsilon", 3)
        assert fit.points[0] == (100, pytest.approx(0.1, abs=1e-15))

    def test_delta_metric_selected(self):
        # The delta_max column is picked from results.csv by `dechist fit`
        # (TestFitCommand::test_delta_metric); the fit carries its name.
        fit = fit_points([(100, 0.1), (10**4, 0.01), (10**6, 0.001)], "delta", 3)
        assert fit.alpha == pytest.approx(0.5, abs=1e-12)
        assert fit.metric == "delta"

    def test_needs_three_dimensions(self):
        with pytest.raises(ValueError):
            fit_points([(100, 0.1), (200, 0.05)], "epsilon", 3)

    def test_rejects_nonpositive_mean(self):
        with pytest.raises(ValueError):
            fit_points([(d, 0.0) for d in (5, 50, 500)], "epsilon", 3)
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError):
                fit_points([(5, 0.1), (50, 0.1), (500, bad)], "epsilon", 3)


class TestSerialization:
    def test_round_trip(self):
        result = experiments._run_group(small_spec(base_seed=21), 5, 0, (0,))[0]
        data = experiments.result_to_dict(result)
        back = experiments.result_from_dict(json.loads(json.dumps(data)))
        assert experiments.result_to_dict(back) == data

    def test_error_round_trip(self):
        result = experiments._error_result(
            small_spec(), 100, 0, 0, RuntimeError("boom")
        )
        data = experiments.result_to_dict(result)
        back = experiments.result_from_dict(json.loads(json.dumps(data)))
        assert back.failed
        assert back.error == "RuntimeError: boom"
