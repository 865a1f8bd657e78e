"""Command line surface: config validation, schemas, exit codes."""

from __future__ import annotations

import csv
import dataclasses
import errno
import hashlib
import json
import math
import re
import shlex
import shutil
from pathlib import Path

import numpy as np
import pytest

from dechist import experiments, spectral
from dechist.cli import (
    ConfigError,
    main,
    parse_config,
    parse_config_dict,
)
from dechist.experiments import CONFIG_FIELDS, InitFamily, RandomSpacing, SweepSpec
from dechist.model import Ensemble, Regime, Spacing

FIXTURE = Path(__file__).parent / "data" / "synthetic_results.csv"
README = Path(__file__).parent.parent / "README.md"

# The written headers, stated here rather than read from the program's
# own tables, so a mislabelled column fails.
RESULTS_HEADER = [
    "d", "l", "regime", "init_family", "h_seed", "s_seed", "eig_index",
    "epsilon_avg", "pair_count", "skipped_pairs", "delta_max",
    "argmax_subset_bitmask", "p_forward", "p_noarrow", "p_backward",
]
DYNAMICS_HEADER = ["t", "p_minus", "p_zero", "p_plus"]
FIT_HEADER = ["l", "metric", "alpha", "intercept", "r_squared", "n_points"]
HISTOGRAM_HEADER = ["history", "probability"]
DISTANCE_HEADER = ["d", "hamming", "eps_mean", "pair_count"]


def write_config(tmp_path, **sections) -> Path:
    doc = {
        "model": {"v_minus": 1},
        "output": {"directory": str(tmp_path / "out")},
    }
    doc.update(sections)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return path


def read_csv(path: Path):
    """Returns (comment_lines, header, rows)."""
    comments, data = [], []
    for line in path.read_text().splitlines():
        (comments if line.startswith("#") else data).append(line)
    parsed = list(csv.reader(data))
    return comments, parsed[0], parsed[1:]


class TestConfigParsing:
    def test_defaults(self, tmp_path):
        path = write_config(tmp_path)
        cfg = parse_config(path)
        assert cfg.v_minus == 1
        assert cfg.d_grid is None
        assert cfg.delta_e == 1.0
        assert cfg.smallness_target == 0.01
        assert cfg.num_steps == 4
        assert cfg.step_mode == "tau"
        assert cfg.init_family.value == "haar_equilibrium"
        assert cfg.weights is None
        assert cfg.num_hamiltonian_seeds == 3
        assert cfg.num_state_seeds == 3
        assert cfg.base_seed == 0
        assert cfg.dump_df is False

    def test_round_trip(self, tmp_path):
        doc = {
            "model": {
                "d_grid": [5, 50],
                "regime": "strong",
                "ensemble": "gue",
                "diagonal_spacing": "random",
                "delta_e": 2.5,
                "smallness_target": 0.02,
            },
            "grid": {"num_steps": 3, "step_mode": {"random_uniform": [0.5, 1.5]}},
            "init": {"family": "haar_nonequilibrium", "weights": [0.5, 0.25, 0.25]},
            "sweep": {"num_hamiltonian_seeds": 2, "num_state_seeds": 4, "base_seed": 9},
            "output": {"directory": "results", "dump_df": True},
        }
        assert parse_config_dict(doc) == SweepSpec(
            d_grid=(5, 50),
            regime=Regime.STRONG,
            ensemble=Ensemble.GUE,
            diagonal_spacing=Spacing.RANDOM,
            delta_e=2.5,
            smallness_target=0.02,
            num_steps=3,
            step_mode=RandomSpacing(0.5, 1.5),
            init_family=InitFamily.HAAR_NONEQUILIBRIUM,
            weights=((0.5, 0.25, 0.25),),
            num_hamiltonian_seeds=2,
            num_state_seeds=4,
            base_seed=9,
            output_dir="results",
            dump_df=True,
        )

    @pytest.mark.parametrize(
        "section,key",
        [
            ("model", "volume"),
            ("grid", "steps"),
            ("init", "state"),
            ("sweep", "seeds"),
            ("output", "format"),
        ],
    )
    def test_unknown_keys_rejected_with_name(self, section, key):
        doc = {"model": {"v_minus": 1}}
        doc.setdefault(section, {})[key] = 1
        with pytest.raises(ConfigError) as err:
            parse_config_dict(doc)
        assert key in str(err.value)

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError):
            parse_config_dict({"model": {"v_minus": 1}, "plots": {}})

    def test_exactly_one_dimension_source(self):
        with pytest.raises(ConfigError):
            parse_config_dict({"model": {}})
        with pytest.raises(ConfigError):
            parse_config_dict({"model": {"v_minus": 1, "d_grid": [5]}})

    def test_rejects_bad_values(self):
        cases = [
            {"model": {"v_minus": 0}},
            {"model": {"v_minus": True}},
            {"model": {"d_grid": [7]}},
            {"model": {"d_grid": []}},
            {"model": {"d_grid": [50, 5]}},
            {"model": {"v_minus": 1, "delta_e": -1}},
            {"model": {"v_minus": 1, "regime": "medium"}},
            {"model": {"v_minus": 1, "smallness_target": 0}},
            {"model": {"v_minus": 1}, "grid": {"num_steps": 6}},
            {"model": {"v_minus": 1}, "grid": {"step_mode": "weekly"}},
            {"model": {"v_minus": 1}, "grid": {"step_mode": {"random_uniform": [2, 1]}}},
            {"model": {"v_minus": 1}, "init": {"family": "thermal"}},
            {"model": {"v_minus": 1}, "init": {"weights": [0.5, 0.5]}},
            {"model": {"v_minus": 1}, "init": {"weights": [0.5, 0.4, 0.2]}},
            {"model": {"v_minus": 1}, "init": {"family": "eigenstate", "weights": [0.2, 0.6, 0.2]}},
            {"model": {"v_minus": 1}, "sweep": {"base_seed": -1}},
            {"model": {"v_minus": 1}, "output": {"dump_df": "yes"}},
            {"model": {"d_grid": [5]}, "init": {"weights": [float("nan"), 0.5, 0.5]}},
            {"model": {"v_minus": 1}, "grid": {"step_mode": float("nan")}},
            {
                "model": {"v_minus": 1},
                "grid": {"step_mode": {"random_uniform": [0, float("inf")]}},
            },
        ]
        for doc in cases:
            with pytest.raises(ConfigError):
                parse_config_dict(doc)

    def test_weight_list_forms(self):
        single = parse_config_dict(
            {"model": {"v_minus": 1}, "init": {"weights": [0.2, 0.6, 0.2]}}
        )
        assert single.weights == ((0.2, 0.6, 0.2),)
        double = parse_config_dict(
            {
                "model": {"v_minus": 1},
                "init": {"weights": [[0.2, 0.6, 0.2], [1.0, 0.0, 0.0]]},
            }
        )
        assert double.weights == ((0.2, 0.6, 0.2), (1.0, 0.0, 0.0))

    def test_field_table_covers_spec(self):
        table = sorted(name for name, _ in CONFIG_FIELDS.values())
        assert table == sorted(f.name for f in dataclasses.fields(SweepSpec))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            parse_config(tmp_path / "absent.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            parse_config(path)


class TestDynamicsCommand:
    def test_golden_structure(self, tmp_path, capsys):
        config = write_config(
            tmp_path,
            model={"v_minus": 100},
            init={"weights": [[0.2, 0.6, 0.2], [1.0, 0.0, 0.0]]},
        )
        assert main(["dynamics", "--config", str(config)]) == 0
        out_path = Path(capsys.readouterr().out.strip())
        assert out_path == tmp_path / "out" / "dynamics.csv"
        comments, header, rows = read_csv(out_path)
        assert comments[0] == "# schema_version=2"
        assert "# init 0.2,0.6,0.2" in comments
        assert "# init 1.0,0.0,0.0" in comments
        assert header == DYNAMICS_HEADER
        assert len(rows) == 2 * 201  # two blocks, [0, 20 tau] at tau/10
        for row in rows:
            total = sum(float(v) for v in row[1:])
            assert total == pytest.approx(1.0, abs=1e-10)
        # Second block starts over at t = 0 fully in the minus band.
        block2 = dict(zip(header, rows[201]))
        assert float(block2["t"]) == 0.0
        assert float(block2["p_minus"]) == pytest.approx(1.0, abs=1e-12)
        # The equilibrium start stays near the band volumes: over the
        # late window [10, 20] tau, p_zero averages near 3/5 at D = 500.
        late = [float(dict(zip(header, row))["p_zero"]) for row in rows[100:201]]
        assert np.mean(late) == pytest.approx(0.6, abs=0.05)

    def test_floats_round_trip(self, tmp_path, capsys):
        config = write_config(tmp_path)
        main(["dynamics", "--config", str(config)])
        out_path = Path(capsys.readouterr().out.strip())
        _, _, rows = read_csv(out_path)
        for cell in rows[3]:
            assert repr(float(cell)) == cell

    def test_eigenstate_block(self, tmp_path, capsys):
        config = write_config(tmp_path, init={"family": "eigenstate"})
        assert main(["dynamics", "--config", str(config)]) == 0
        out_path = Path(capsys.readouterr().out.strip())
        comments, _, rows = read_csv(out_path)
        assert "# init eigenstate" in comments
        assert len(rows) == 201
        # Eigenstates are stationary: weights never move.
        first, last = rows[0], rows[-1]
        for a, b in zip(first[1:], last[1:]):
            assert float(a) == pytest.approx(float(b), abs=1e-9)

    def test_requires_v_minus(self, tmp_path, capsys):
        config = write_config(tmp_path, model={"d_grid": [5]})
        assert main(["dynamics", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: config:")
        assert err.count("\n") == 1


class TestSweepCommand:
    def test_minimal_sweep_row_count(self, tmp_path, capsys):
        config = write_config(
            tmp_path,
            model={"d_grid": [5]},
            sweep={"num_hamiltonian_seeds": 1, "num_state_seeds": 1},
        )
        assert main(["sweep", "--config", str(config)]) == 0
        out_path = Path(capsys.readouterr().out.strip())
        assert out_path == tmp_path / "out" / "results.csv"
        comments, header, rows = read_csv(out_path)
        assert comments == ["# schema_version=2"]
        assert header == RESULTS_HEADER
        assert len(rows) == 4  # L = 2..5
        assert [r[1] for r in rows] == ["2", "3", "4", "5"]
        assert all(r[0] == "5" for r in rows)
        assert all(r[2] == "weak" and r[3] == "haar_equilibrium" for r in rows)
        assert all(r[6] == "" for r in rows)  # no eigenstate index
        for row in rows:
            assert repr(float(row[7])) == row[7]

    def test_arrow_columns_match_the_results_in_memory(self, tmp_path, capsys):
        # From an all-'-' start the forward and backward arrow weights
        # differ, so each column, read by name, shows which it holds.
        config = write_config(
            tmp_path,
            model={"d_grid": [5]},
            grid={"num_steps": 2},
            init={"family": "haar_nonequilibrium"},
            sweep={"num_hamiltonian_seeds": 1, "num_state_seeds": 1},
        )
        assert main(["sweep", "--config", str(config)]) == 0
        _, header, rows = read_csv(Path(capsys.readouterr().out.strip()))
        assert header == RESULTS_HEADER
        (result,) = experiments.run_sweep(parse_config(config))
        for row in rows:
            cells = dict(zip(header, row))
            metrics = result.per_length[int(cells["l"])]
            assert metrics.p_forward != metrics.p_backward
            assert float(cells["p_forward"]) == metrics.p_forward
            assert float(cells["p_backward"]) == metrics.p_backward

    def test_rerun_is_byte_identical(self, tmp_path, capsys):
        config = write_config(
            tmp_path,
            model={"d_grid": [5, 10]},
            grid={"num_steps": 2},
            sweep={"num_hamiltonian_seeds": 1, "num_state_seeds": 1},
        )
        assert main(["sweep", "--config", str(config)]) == 0
        out_path = Path(capsys.readouterr().out.strip())
        first = out_path.read_bytes()
        assert main(["sweep", "--config", str(config)]) == 0
        capsys.readouterr()
        assert out_path.read_bytes() == first

    def test_workers_flag(self, tmp_path, capsys):
        config = write_config(
            tmp_path,
            model={"d_grid": [5]},
            grid={"num_steps": 2},
            sweep={"num_hamiltonian_seeds": 1, "num_state_seeds": 1},
        )
        assert main(["sweep", "--config", str(config), "--workers", "not-a-number"]) == 2
        assert "error: config:" in capsys.readouterr().err

        assert main(["sweep", "--config", str(config), "--workers", "2"]) == 0
        capsys.readouterr()

        assert main(["sweep", "--config", str(config), "--workers", "0"]) == 2
        capsys.readouterr()

    def test_zero_workers_prints_only_the_error_line(self, tmp_path, capsys):
        # D=5 warns of a weak interaction; a bad worker count is refused
        # before that warning, so stderr is the one `error:` line.
        config = write_config(tmp_path, model={"d_grid": [5]})
        assert main(["sweep", "--config", str(config), "--workers", "0"]) == 2
        err = capsys.readouterr().err
        assert err.splitlines() == [
            "error: config: worker count must be at least 1, got 0"
        ]

    def test_failed_realization_has_no_row(self, tmp_path, capsys, monkeypatch):
        # A failed realization writes no results.csv row, so `dechist fit`
        # never reads it: the fit at D=10 is the surviving seed's value.
        config = write_config(
            tmp_path,
            model={"d_grid": [5, 10, 15]},
            grid={"num_steps": 2},
            sweep={"num_hamiltonian_seeds": 1, "num_state_seeds": 2},
        )
        prepare = experiments._prepare

        def flaky(spec, h_index, s_index, sd, *args):
            if (sd.eigenvalues.size, s_index) == (10, 1):
                raise RuntimeError("synthetic failure")
            return prepare(spec, h_index, s_index, sd, *args)

        monkeypatch.setattr(experiments, "_prepare", flaky)
        assert main(["sweep", "--config", str(config)]) == 0
        captured = capsys.readouterr()
        assert "warning: realization (10, 0, 1) failed" in captured.err
        results = Path(captured.out.strip())
        _, _, rows = read_csv(results)
        seeds = {(r[0], r[5]) for r in rows}
        failed_seed = str(parse_config(config).state_seed(0, 1))
        assert ("10", failed_seed) not in seeds
        assert len(seeds) == 5 and len(rows) == 10  # L = 2, 3 per realization

        assert main(["fit", "--results", str(results), "--metric", "epsilon", "--l", "3"]) == 0
        _, _, fit_rows = read_csv(Path(capsys.readouterr().out.strip()))
        survivor = [r[7] for r in rows if r[0] == "10" and r[1] == "3"]
        assert fit_rows[0][5] == "3"
        assert [r[1] for r in fit_rows[2:] if r[0] == "10"] == survivor

    def test_failed_realization_is_retried_by_a_rerun(self, tmp_path, capsys, monkeypatch):
        # A full disk fails one seed's preparation; once it is gone, a
        # rerun into the same directory writes a clean sweep's results.
        clean, retried = tmp_path / "clean", tmp_path / "retried"
        sections = dict(
            model={"d_grid": [5, 10]},
            grid={"num_steps": 2},
            sweep={"num_hamiltonian_seeds": 1, "num_state_seeds": 2},
        )
        config = write_config(tmp_path, **sections, output={"directory": str(clean)})
        assert main(["sweep", "--config", str(config)]) == 0
        prepare = experiments._prepare

        def full_disk(spec, h_index, s_index, sd, *args):
            if (sd.eigenvalues.size, s_index) == (10, 1):
                raise OSError(errno.ENOSPC, "No space left on device")
            return prepare(spec, h_index, s_index, sd, *args)

        config = write_config(tmp_path, **sections, output={"directory": str(retried)})
        monkeypatch.setattr(experiments, "_prepare", full_disk)
        assert main(["sweep", "--config", str(config)]) == 0
        assert "warning: realization (10, 0, 1) failed" in capsys.readouterr().err
        monkeypatch.undo()
        assert main(["sweep", "--config", str(config)]) == 0
        assert "failed" not in capsys.readouterr().err
        assert (retried / "results.csv").read_bytes() == (clean / "results.csv").read_bytes()
        records = [json.loads(line) for line in (retried / "realizations.jsonl").open()]
        assert len(records) == 4
        assert not any("error" in record for record in records)

    def test_directory_of_another_sweep_is_a_config_error(self, tmp_path, capsys):
        # A second sweep with another base seed into the same directory is
        # refused before it writes anything.
        out = tmp_path / "out"
        sections = dict(model={"d_grid": [5, 10, 15]}, grid={"num_steps": 2})
        config = write_config(tmp_path, **sections, sweep={"num_state_seeds": 1})
        assert main(["sweep", "--config", str(config)]) == 0
        capsys.readouterr()
        files = ("sweep_spec.json", "realizations.jsonl")
        written = [(out / name).read_bytes() for name in files]
        config = write_config(
            tmp_path, **sections, sweep={"num_state_seeds": 1, "base_seed": 1}
        )
        assert main(["sweep", "--config", str(config)]) == 2
        errors = [l for l in capsys.readouterr().err.splitlines() if l.startswith("error:")]
        assert len(errors) == 1 and errors[0].startswith("error: config: output directory")
        assert [(out / name).read_bytes() for name in files] == written

    def test_outputs_identical_across_reruns_and_worker_counts(self, tmp_path, capsys):
        # Forked workers keep the parent's BLAS thread count.  The bits do
        # depend on that count, already at D=250, so every run here shares it.
        digests = []
        for run, workers in enumerate(["1", "1", "2"]):
            out = tmp_path / f"run{run}"
            config = write_config(
                tmp_path,
                model={"d_grid": [5, 50, 250]},
                sweep={"num_hamiltonian_seeds": 2, "num_state_seeds": 2},
                output={"directory": str(out)},
            )
            assert main(["sweep", "--config", str(config), "--workers", workers]) == 0
            digests.append([
                hashlib.md5((out / name).read_bytes()).hexdigest()
                for name in ("results.csv", "realizations.jsonl")
            ])
        capsys.readouterr()
        assert digests[0] == digests[1] == digests[2]

    def test_schema_1_directory_resumes(self, tmp_path, capsys):
        # Schema-1 records carry a wall_time_s key, which a resumed sweep
        # drops: it writes the results.csv of a fresh sweep.
        fresh, old = tmp_path / "fresh", tmp_path / "old"
        sections = dict(
            model={"d_grid": [5, 10]},
            grid={"num_steps": 2},
            sweep={"num_hamiltonian_seeds": 2, "num_state_seeds": 2},
        )
        config = write_config(tmp_path, **sections, output={"directory": str(fresh)})
        assert main(["sweep", "--config", str(config)]) == 0
        old.mkdir()
        shutil.copy(fresh / "sweep_spec.json", old)
        lines = [
            json.dumps({**json.loads(line), "wall_time_s": 0.25}, sort_keys=True) + "\n"
            for line in (fresh / "realizations.jsonl").read_text().splitlines()
        ]
        assert len(lines) == 8
        # Five complete records, then a sixth torn by an interrupted append.
        (old / "realizations.jsonl").write_text("".join(lines[:5]) + lines[5][:40])
        config = write_config(tmp_path, **sections, output={"directory": str(old)})
        assert main(["sweep", "--config", str(config)]) == 0
        capsys.readouterr()
        assert (old / "results.csv").read_bytes() == (fresh / "results.csv").read_bytes()

    def test_requires_d_grid(self, tmp_path, capsys):
        config = write_config(tmp_path)
        assert main(["sweep", "--config", str(config)]) == 2
        assert "d_grid" in capsys.readouterr().err


class TestFitCommand:
    def test_fixture_alpha_exact(self, tmp_path, capsys):
        results = tmp_path / "results.csv"
        shutil.copy(FIXTURE, results)
        assert main(["fit", "--results", str(results), "--metric", "epsilon", "--l", "3"]) == 0
        out_path = Path(capsys.readouterr().out.strip())
        assert out_path == tmp_path / "fit.csv"
        comments, header, rows = read_csv(out_path)
        assert comments[0] == "# schema_version=2"
        assert "# points" in comments
        assert header == FIT_HEADER
        fit_row = rows[0]
        # The fixture's means fall as D^(-1/2).
        assert dict(zip(header, fit_row))["alpha"] == "0.5"
        assert fit_row[0] == "3"
        assert fit_row[1] == "epsilon"
        assert fit_row[2] == "0.5"  # exact, not 0.4999...
        assert fit_row[3] == "0.0"
        assert fit_row[4] == "1.0"
        assert fit_row[5] == "3"
        point_rows = rows[1:]
        assert point_rows[0] == ["d", "mean"]
        assert [r[0] for r in point_rows[1:]] == ["100", "10000", "1000000"]

    def test_delta_metric(self, tmp_path, capsys):
        results = tmp_path / "results.csv"
        shutil.copy(FIXTURE, results)
        assert main(["fit", "--results", str(results), "--metric", "delta", "--l", "3"]) == 0
        out_path = Path(capsys.readouterr().out.strip())
        _, _, rows = read_csv(out_path)
        assert rows[0][2] == "0.5"

    def test_missing_results_file(self, tmp_path, capsys):
        missing = tmp_path / "nope.csv"
        assert main(["fit", "--results", str(missing), "--metric", "epsilon", "--l", "3"]) == 2
        assert "error: config:" in capsys.readouterr().err

    def test_bad_metric_rejected(self, tmp_path, capsys):
        results = tmp_path / "results.csv"
        shutil.copy(FIXTURE, results)
        assert main(["fit", "--results", str(results), "--metric", "norm", "--l", "3"]) == 2
        capsys.readouterr()

    def test_unknown_length_rejected(self, tmp_path, capsys):
        results = tmp_path / "results.csv"
        shutil.copy(FIXTURE, results)
        assert main(["fit", "--results", str(results), "--metric", "epsilon", "--l", "4"]) == 2
        err = capsys.readouterr().err
        # The first realization in file order, named by (d, h_seed, s_seed).
        assert "(d, h_seed, s_seed) = (100, 101, 201)" in err
        assert err.count("\n") == 1

        comment, header, *rows = FIXTURE.read_text().splitlines(keepends=True)
        results.write_text(comment + header + "".join(reversed(rows)))
        assert main(["fit", "--results", str(results), "--metric", "epsilon", "--l", "4"]) == 2
        assert "(d, h_seed, s_seed) = (1000000, 103, 203)" in capsys.readouterr().err

    def test_header_mismatch_rejected(self, tmp_path, capsys):
        results = tmp_path / "results.csv"
        for content in [
            "# schema_version=2\nwrong,header\n1,2\n",
            # Schema 1 had a wall_time_s column last.
            "# schema_version=1\n" + ",".join(RESULTS_HEADER) + ",wall_time_s\n"
            "100,3,weak,haar_equilibrium,101,201,,0.1,216,0,0.2,4,0.3,0.4,0.3,1.0\n",
        ]:
            results.write_text(content)
            args = ["fit", "--results", str(results), "--metric", "epsilon", "--l", "3"]
            assert main(args) == 2
            assert "unexpected results.csv header" in capsys.readouterr().err


class TestHistogramCommand:
    def test_l3_histogram(self, tmp_path, capsys):
        config = write_config(tmp_path, grid={"num_steps": 2})
        assert main(["histogram", "--config", str(config)]) == 0
        out_path = Path(capsys.readouterr().out.strip())
        comments, header, rows = read_csv(out_path)
        assert header == HISTOGRAM_HEADER
        assert len(rows) == 27
        assert rows[0][0] == "-,-,-"
        assert rows[13][0] == "0,0,0"  # code 13 = 1 + 3 + 9
        total = sum(float(r[1]) for r in rows)
        assert total == pytest.approx(1.0, abs=1e-10)
        # Raw file must quote the comma-bearing history labels.
        raw = out_path.read_text()
        assert '"-,-,-"' in raw


class TestDistanceCommand:
    def test_columns_and_counts(self, tmp_path, capsys):
        config = write_config(tmp_path, grid={"num_steps": 2})
        assert main(["distance", "--config", str(config)]) == 0
        out_path = Path(capsys.readouterr().out.strip())
        _, header, rows = read_csv(out_path)
        assert header == DISTANCE_HEADER
        assert [r[1] for r in rows] == ["1", "2"]
        assert all(r[0] == "5" for r in rows)
        assert sum(int(r[3]) for r in rows) == 3**5 - 3**3
        # Ordered pairs sharing the final label at L = 3: 3^L choices of
        # x, and C(L-1, h) 2^h of y differing from x in h of the first
        # L - 1 labels.
        for row in rows:
            cells = dict(zip(header, row))
            h = int(cells["hamming"])
            assert int(cells["pair_count"]) == 3**3 * math.comb(2, h) * 2**h


class TestDumpDfCommand:
    def test_schema_and_hermiticity(self, tmp_path, capsys):
        config = write_config(tmp_path, grid={"num_steps": 1})
        assert main(["dump-df", "--config", str(config)]) == 0
        out_path = Path(capsys.readouterr().out.strip())
        doc = json.loads(out_path.read_text())
        assert set(doc) == {
            "schema_version", "grid", "length", "num_macrostates",
            "histories", "entries",
        }
        assert doc["schema_version"] == 2
        assert doc["length"] == 2
        assert doc["num_macrostates"] == 3
        assert doc["histories"] == list(range(9))
        assert len(doc["grid"]["times"]) == 2
        entries = np.array([complex(re, im) for re, im in doc["entries"]])
        matrix = entries.reshape(9, 9)
        assert np.abs(matrix - matrix.conj().T).max() <= 1e-12
        assert np.trace(matrix).real == pytest.approx(1.0, abs=1e-10)

    def test_dump_df_flag_on_histogram(self, tmp_path, capsys):
        config = write_config(
            tmp_path,
            grid={"num_steps": 1},
            output={"directory": str(tmp_path / "out"), "dump_df": True},
        )
        assert main(["histogram", "--config", str(config)]) == 0
        capsys.readouterr()
        assert (tmp_path / "out" / "df.json").exists()

    def test_dump_df_flag_prints_every_path(self, tmp_path, capsys):
        out = tmp_path / "out"
        config = write_config(
            tmp_path,
            grid={"num_steps": 1},
            output={"directory": str(out), "dump_df": True},
        )
        assert main(["histogram", "--config", str(config)]) == 0
        printed = capsys.readouterr().out.splitlines()
        assert printed == [str(out / "df.json"), str(out / "histogram.csv")]


@pytest.mark.usefixtures("empty_store")
class TestSingleSystemFunctional:
    @pytest.mark.parametrize("command", ["histogram", "distance", "dump-df"])
    def test_one_eigensolve_and_same_df(self, tmp_path, capsys, monkeypatch, command):
        calls = []

        def counting(hamiltonian):
            calls.append(hamiltonian.dimension)
            return spectral.eigendecompose(hamiltonian)

        monkeypatch.setattr(experiments, "eigendecompose", counting)
        config = write_config(
            tmp_path,
            grid={"num_steps": 2},
            output={"directory": str(tmp_path / "out"), "dump_df": True},
        )
        assert main([command, "--config", str(config)]) == 0
        assert calls == [5]
        written = (tmp_path / "out" / "df.json").read_bytes()

        config = write_config(
            tmp_path,
            grid={"num_steps": 2},
            output={"directory": str(tmp_path / "reference")},
        )
        assert main(["dump-df", "--config", str(config)]) == 0
        capsys.readouterr()
        assert written == (tmp_path / "reference" / "df.json").read_bytes()


class TestErrorSurface:
    def test_malformed_config_single_line(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"model": {"v_minus": 1}, "plots": {}}))
        assert main(["dynamics", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: config:")
        assert err.count("\n") == 1
        assert "plots" in err

    @pytest.mark.parametrize(
        "model",
        [{"delta_e": 1e-320}, {"smallness_target": 1e-320}, {"delta_e": 1e308}],
        ids=["tiny-delta_e", "tiny-smallness_target", "huge-delta_e"],
    )
    def test_unusable_derived_scales_fail_validation(self, tmp_path, capsys, model):
        # Each value passes its own range check, but the coupling, the
        # relaxation time or the ladder top is zero or not finite.
        (key,) = model
        config = write_config(tmp_path, model={"v_minus": 1, **model})
        assert main(["histogram", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: config:")
        assert err.count("\n") == 1
        assert f"{key}=" in err
        assert not (tmp_path / "out").exists()

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["dynamics", "--config", str(tmp_path / "gone.json")]) == 2
        assert capsys.readouterr().err.startswith("error: config:")

    def test_bad_arguments(self, capsys):
        assert main(["fit", "--metric", "epsilon"]) == 2
        assert capsys.readouterr().err.startswith("error: config:")

    def test_unknown_subcommand(self, capsys):
        assert main(["plot"]) == 2
        capsys.readouterr()


class TestReadme:
    def test_documented_config_and_commands_run(self, tmp_path, capsys, monkeypatch):
        text = README.read_text()
        (config_block,) = re.findall(r"```json\n(.*?)```", text, re.S)
        doc = json.loads(config_block)
        parse_config_dict(doc)
        commands = [
            line
            for block in re.findall(r"```sh\n(.*?)```", text, re.S)
            for line in block.splitlines()
            if line.startswith("dechist ")
        ]
        assert len(commands) == 6

        # Smallest dimensions; the fit needs three of them.
        doc["model"]["d_grid"] = [5, 10, 15]
        single = json.loads(json.dumps(doc))
        del single["model"]["d_grid"]
        single["model"]["v_minus"] = 1
        monkeypatch.chdir(tmp_path)
        for line in commands:
            command, comment = line.split("#")
            argv = shlex.split(command)[1:]
            config = doc if argv[0] == "sweep" else single
            Path("config.json").write_text(json.dumps(config))
            assert main(argv) == 0, line
            written = Path(capsys.readouterr().out.strip())
            assert written.is_file()
            assert written.name == comment.split("->")[1].split()[0]
