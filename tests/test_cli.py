"""Command line surface: config validation, schemas, exit codes."""

from __future__ import annotations

import csv
import dataclasses
import json
import re
import shlex
import shutil
from pathlib import Path

import numpy as np
import pytest

from dechist.cli import (
    DISTANCE_HEADER,
    DYNAMICS_HEADER,
    FIT_HEADER,
    HISTOGRAM_HEADER,
    RESULTS_HEADER,
    WORKERS_ENV,
    ConfigError,
    main,
    parse_config,
    parse_config_dict,
)
from dechist.experiments import CONFIG_FIELDS, SweepSpec

FIXTURE = Path(__file__).parent / "data" / "synthetic_results.csv"
README = Path(__file__).parent.parent / "README.md"


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
        cfg = parse_config_dict(doc)
        again = parse_config_dict(cfg.to_dict())
        assert again == cfg

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
            init={"weights": [[0.2, 0.6, 0.2], [1.0, 0.0, 0.0]]},
        )
        assert main(["dynamics", "--config", str(config)]) == 0
        out_path = Path(capsys.readouterr().out.strip())
        assert out_path == tmp_path / "out" / "dynamics.csv"
        comments, header, rows = read_csv(out_path)
        assert comments[0] == "# schema_version=1"
        assert "# init 0.2,0.6,0.2" in comments
        assert "# init 1.0,0.0,0.0" in comments
        assert header == DYNAMICS_HEADER
        assert len(rows) == 2 * 201  # two blocks, [0, 20 tau] at tau/10
        for row in rows:
            total = sum(float(v) for v in row[1:])
            assert total == pytest.approx(1.0, abs=1e-10)
        # Second block starts over at t = 0 fully in the minus band.
        block2 = rows[201]
        assert float(block2[0]) == 0.0
        assert float(block2[1]) == pytest.approx(1.0, abs=1e-12)

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
        assert comments == ["# schema_version=1"]
        assert header == RESULTS_HEADER
        assert len(rows) == 4  # L = 2..5
        assert [r[1] for r in rows] == ["2", "3", "4", "5"]
        assert all(r[0] == "5" for r in rows)
        assert all(r[2] == "weak" and r[3] == "haar_equilibrium" for r in rows)
        assert all(r[6] == "" for r in rows)  # no eigenstate index
        for row in rows:
            assert repr(float(row[7])) == row[7]

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

    def test_workers_flag_and_env(self, tmp_path, capsys, monkeypatch):
        config = write_config(
            tmp_path,
            model={"d_grid": [5]},
            grid={"num_steps": 2},
            sweep={"num_hamiltonian_seeds": 1, "num_state_seeds": 1},
        )
        monkeypatch.setenv(WORKERS_ENV, "not-a-number")
        assert main(["sweep", "--config", str(config)]) == 2
        assert "error: config:" in capsys.readouterr().err

        monkeypatch.setenv(WORKERS_ENV, "2")
        assert main(["sweep", "--config", str(config)]) == 0
        capsys.readouterr()

        assert main(["sweep", "--config", str(config), "--workers", "0"]) == 2
        capsys.readouterr()

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
        assert comments[0] == "# schema_version=1"
        assert "# points" in comments
        assert header == FIT_HEADER
        fit_row = rows[0]
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
        capsys.readouterr()

    def test_header_mismatch_rejected(self, tmp_path, capsys):
        results = tmp_path / "results.csv"
        results.write_text("# schema_version=1\nwrong,header\n1,2\n")
        assert main(["fit", "--results", str(results), "--metric", "epsilon", "--l", "3"]) == 2
        capsys.readouterr()


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
        assert doc["schema_version"] == 1
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


class TestErrorSurface:
    def test_malformed_config_single_line(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"model": {"v_minus": 1}, "plots": {}}))
        assert main(["dynamics", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: config:")
        assert err.count("\n") == 1
        assert "plots" in err

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
