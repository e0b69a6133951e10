"""Command-line interface: exit codes, deterministic reports, plot
emission, and the shipped example configs."""

import csv
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

from korncert.cli import (
    CONFIG_SCHEMA,
    ConfigError,
    emit_plot_data,
    main,
    run_config,
    validate_config,
)
from korncert.diffop import builtin_operator
from korncert.geometry import StarDomain, grid_frame, sample_grid
from korncert.kernel import kernel_basis
from korncert.normtest import TraceKind, classify, trace_magnitudes

_CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
_SCHEMA_FILE = Path(__file__).resolve().parent.parent / "src" / "korncert" / "config-schema.json"


def _base_config(**overrides):
    cfg = {
        "operator": {"builtin": "sym_grad", "n": 2},
        "K": 1,
        "test": {
            "kind": "boundary",
            "trace": "normal",
            "domain": {"n": 2, "radial": {"family": "constant", "c": 1}},
            "coarse": {"counts": [6]},
        },
    }
    cfg.update(overrides)
    return cfg


def _write(tmp_path, cfg, name="run.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


class TestExitCodes:
    def test_success(self, tmp_path, capsys):
        code = main(["check", "--config", _write(tmp_path, _base_config(expected="A2"))])
        assert code == 0
        out = capsys.readouterr().out
        assert "verdict     : A2" in out

    def test_expectation_mismatch(self, tmp_path, capsys):
        code = main(["check", "--config", _write(tmp_path, _base_config()), "--expect", "A1"])
        assert code == 1
        assert "MISMATCH" in capsys.readouterr().out

    def test_schema_violation_names_field(self, tmp_path, capsys):
        cfg = _base_config()
        del cfg["K"]
        code = main(["check", "--config", _write(tmp_path, cfg)])
        assert code == 2
        err = capsys.readouterr().err
        assert "K" in err

    def test_bad_grid_counts_name_field(self, tmp_path, capsys):
        cfg = _base_config()
        cfg["test"]["coarse"]["counts"] = [6, 6]
        code = main(["check", "--config", _write(tmp_path, cfg)])
        # Grid arity mismatches surface as geometry-level failures of
        # the boundary test, reported as config errors.
        assert code in (2, 3)
        assert capsys.readouterr().err

    def test_low_degree_rejected_without_flag(self, tmp_path, capsys):
        cfg = _base_config()
        cfg["K"] = 0
        code = main(["check", "--config", _write(tmp_path, cfg)])
        assert code == 2
        assert "K" in capsys.readouterr().err

    def test_low_degree_allowed_with_flag(self):
        cfg = _base_config(K=0, allow_low_degree=True)
        report, code = run_config(cfg)
        assert code == 0
        assert report["kernel"]["dim"] == report["kernel"]["ambient_dim"]
        assert report["kernel"]["rank"] == 0

    @pytest.mark.parametrize(
        "field,value",
        [
            ("test.domain", "abc"),
            ("test.domain", "1/0"),
            ("test.domain", "1e999"),
            ("operator", "1/0"),
        ],
    )
    def test_unparseable_scalar_names_field(self, tmp_path, capsys, field, value):
        cfg = _base_config()
        if field == "operator":
            cfg["operator"] = {
                "terms": [
                    {"alpha": [1, 0], "matrix": [[value]]},
                    {"alpha": [0, 1], "matrix": [[1]]},
                ]
            }
            cfg["test"]["trace"] = "full"
        else:
            cfg["test"]["domain"]["radial"]["c"] = value
        code = main(["check", "--config", _write(tmp_path, cfg)])
        assert code == 2
        assert f"config field {field}:" in capsys.readouterr().err

    def test_degenerate_geometry(self, tmp_path, capsys):
        cfg = _base_config()
        cfg["test"]["domain"] = {"n": 2, "radial": {"family": "sine2d", "c": 1, "a": 2, "m": 2}}
        code = main(["check", "--config", _write(tmp_path, cfg)])
        assert code == 3
        assert "geometry" in capsys.readouterr().err

    def test_missing_config_file(self, capsys):
        code = main(["check", "--config", "/nonexistent/run.json"])
        assert code == 2

    def test_points_subcommand_rejects_boundary_config(self, tmp_path, capsys):
        code = main(["points", "--config", _write(tmp_path, _base_config())])
        assert code == 2
        assert "test.kind" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv,flag",
        [
            (["probe", "--op", "sym_grad", "--n", "2", "--trials", "0"], "--trials"),
            (["probe", "--op", "sym_grad", "--n", "2", "--trials", "x"], "--trials"),
            (["kernel", "--op", "sym_grad", "--n", "2", "--K", "-1"], "--K"),
            (["kernel", "--op", "sym_grad", "--n", "2", "--K", "1", "--profile", "-1"], "--profile"),
        ],
        ids=["trials-0", "trials-x", "K-negative", "profile-negative"],
    )
    def test_bad_flag_value_names_flag(self, capsys, argv, flag):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"argument {flag}:" in capsys.readouterr().err

    def test_domain_operator_dimension_mismatch(self, tmp_path, capsys):
        cfg = _base_config()
        cfg["operator"]["n"] = 3
        code = main(["check", "--config", _write(tmp_path, cfg)])
        assert code == 2
        assert "test.domain.n" in capsys.readouterr().err


class TestDeterminism:
    def test_reports_identical_modulo_timings(self):
        cfg = _base_config()
        r1, _ = run_config(dict(cfg))
        r2, _ = run_config(dict(cfg))
        r1.pop("timings")
        r2.pop("timings")
        assert r1 == r2

    def test_digest_excludes_timings(self):
        r1, _ = run_config(_base_config())
        assert "timings" in r1
        r2, _ = run_config(_base_config())
        assert r1["digest"] == r2["digest"]

    def test_env_seed_override(self, monkeypatch):
        base, _ = run_config(_base_config())
        monkeypatch.setenv("KORNCERT_SEED", "1234")
        seeded, _ = run_config(_base_config())
        assert base["ellipticity"]["seed"] == 0
        assert seeded["ellipticity"]["seed"] == 1234

    def test_bad_env_seed_rejected(self, monkeypatch):
        from korncert.cli import ConfigError

        monkeypatch.setenv("KORNCERT_SEED", "not-a-number")
        with pytest.raises(ConfigError):
            run_config(_base_config())


class TestReportContent:
    def test_report_fields(self, tmp_path):
        cfg = _base_config(expected="A2")
        cfg["output"] = {"report": str(tmp_path / "report.json")}
        report, code = run_config(cfg)
        assert code == 0
        on_disk = json.loads((tmp_path / "report.json").read_text())
        assert on_disk["schema"] == "korncert-report/1"
        assert on_disk["verdict"]["verdict"] == "A2"
        assert on_disk["expected_match"] is True
        assert on_disk["kernel"]["dim"] == 3
        assert on_disk["digest"] == report["digest"]
        cert = on_disk["verdict"]["certificates"][0]
        assert "pretty" in cert and "coeffs" in cert

    def test_points_report(self, tmp_path):
        cfg = {
            "operator": {"builtin": "sym_grad", "n": 3},
            "K": 2,
            "test": {
                "kind": "points",
                "lines": [{"p0": [0, 0, 0], "dir": [1, 0, 0], "count": 5, "extent": 1.0}],
            },
        }
        report, code = run_config(cfg)
        assert code == 0
        assert report["verdict"]["verdict"] == "A2"
        assert report["test"]["point_count"] == 5


class TestPlots:
    def test_residual_and_boundary_csv(self, tmp_path):
        cfg = _base_config()
        report, _ = run_config(cfg, emit_plots=str(tmp_path))
        boundary = list(csv.reader((tmp_path / "boundary.csv").open()))
        assert boundary[0] == ["theta1", "x1", "x2", "nu1", "nu2"]
        assert len(boundary) == 1 + 6
        residual = list(csv.reader((tmp_path / "residual.csv").open()))
        assert residual[0] == ["theta1", "res_1"]
        assert len(residual) == 1 + 48
        values = [float(row[1]) for row in residual[1:]]
        assert max(values) < 1e-8

    @pytest.mark.parametrize(
        "radial,counts",
        [
            ({"family": "constant", "c": "3/2"}, [7]),
            ({"family": "constant", "c": 1}, [4, 4]),
        ],
        ids=["2d", "3d"],
    )
    def test_csv_bytes_match_per_value_writer(self, tmp_path, radial, counts):
        n = len(counts) + 1
        dom = StarDomain.from_json({"n": n, "radial": radial})
        coarse = sample_grid(dom, counts)
        dense = sample_grid(dom, [8 * c for c in counts])
        kind = TraceKind.NORMAL
        verdict = classify(kernel_basis(builtin_operator("sym_grad", n), 1), dom, kind, coarse, dense)
        assert verdict.certificates
        emit_plot_data(dom, coarse, dense, kind, verdict, tmp_path)

        def reference(header, thetas, *columns):
            # csv.writer over one "%.17g" string per value.
            fh = io.StringIO(newline="")
            writer = csv.writer(fh)
            writer.writerow(header)
            for theta, *rest in zip(thetas, *columns):
                writer.writerow(["%.17g" % v for v in (*theta, *(x for r in rest for x in r))])
            return fh.getvalue().encode()

        thetas = ["theta1", "theta2"][: n - 1]
        xs, nus = grid_frame(dom, coarse)
        header = thetas + [f"x{i+1}" for i in range(n)] + [f"nu{i+1}" for i in range(n)]
        expected = reference(header, coarse.thetas, xs, nus)
        assert (tmp_path / "boundary.csv").read_bytes() == expected
        mags = trace_magnitudes(verdict.certificates, kind, *grid_frame(dom, dense))
        header = thetas + [f"res_{i+1}" for i in range(mags.shape[1])]
        expected = reference(header, dense.thetas, mags)
        assert (tmp_path / "residual.csv").read_bytes() == expected

    def test_no_residual_csv_for_a1(self, tmp_path):
        cfg = _base_config()
        cfg["operator"]["builtin"] = "dev_grad"
        report, _ = run_config(cfg, emit_plots=str(tmp_path))
        assert not (tmp_path / "residual.csv").exists()
        assert report["plots"]["residual"] is None
        assert "note" in report["plots"]

    def test_plot_subcommand(self, tmp_path, capsys):
        code = main([
            "plot",
            "--config", _write(tmp_path, _base_config()),
            "--out", str(tmp_path / "plots"),
        ])
        assert code == 0
        assert (tmp_path / "plots" / "boundary.csv").exists()


class TestSubcommands:
    def test_kernel_output(self, capsys):
        code = main(["kernel", "--op", "sym_grad", "--n", "2", "--K", "1", "--profile", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "dim 3" in out
        assert "[2, 3, 3, 3]" in out

    def test_kernel_json(self, tmp_path, capsys):
        out_file = tmp_path / "kernel.json"
        main(["kernel", "--op", "dev_grad", "--n", "3", "--K", "1", "--json", str(out_file)])
        obj = json.loads(out_file.read_text())
        assert obj["dim"] == 4

    def test_probe_output(self, capsys):
        code = main(["probe", "--op", "dev_sym_grad", "--n", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "C-elliptic evidence : False" in out
        assert "xi=['1', '1i']" in out

    def test_operator_args_validated(self, capsys):
        assert main(["kernel", "--op", "sym_grad", "--K", "1"]) == 2
        assert main(["kernel", "--K", "1"]) == 2

    def test_custom_operator_file(self, tmp_path, capsys):
        from korncert.diffop import builtin_operator

        spec = builtin_operator("sym_grad", 2).to_json()
        path = tmp_path / "op.json"
        path.write_text(json.dumps(spec))
        code = main(["kernel", "--op-file", str(path), "--K", "1"])
        assert code == 0
        assert "dim 3" in capsys.readouterr().out

    def test_console_script_wiring(self, tmp_path):
        cfg_path = _write(tmp_path, _base_config(expected="A2"))
        proc = subprocess.run(
            [sys.executable, "-m", "korncert.cli", "check", "--config", cfg_path],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "verdict     : A2" in proc.stdout


class TestShippedConfigs:
    @pytest.mark.parametrize(
        "config_path",
        sorted(_CONFIG_DIR.glob("*.json")),
        ids=lambda p: p.stem,
    )
    def test_config_reproduces_expected_verdict(self, config_path):
        report, code = run_config(str(config_path))
        assert code == 0, f"{config_path.stem}: verdict {report['verdict']['verdict']}"
        assert report["expected_match"] is True

    def test_schema_file_matches_embedded_schema(self):
        # The packaged schema file is the one CONFIG_SCHEMA loads, and it
        # constrains the test block itself, not only its kind.
        assert json.loads(_SCHEMA_FILE.read_text()) == CONFIG_SCHEMA
        cfg = _base_config()
        cfg["test"]["bogus"] = 1
        with pytest.raises(ConfigError, match=r"^config field test: .*'bogus'"):
            validate_config(cfg)
