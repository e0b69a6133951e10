"""Command-line interface: exit codes, deterministic reports, plot
emission, and the shipped example configs."""

import copy
import csv
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import korncert
from korncert.cli import (
    CONFIG_SCHEMA,
    ConfigError,
    build_operator,
    emit_plot_data,
    main,
    run_config,
    validate_config,
)
from korncert.diffop import builtin_operator, ellipticity_probe
from korncert.geometry import StarDomain, grid_frame, interior_points, line_points, sample_grid
from korncert.kernel import kernel_basis, kernel_to_json
from korncert.normtest import TraceKind, classify, point_measure_test, trace_magnitudes
from korncert.polyalg import PolyVec, monomial_basis
from polyfields import format_poly_reference

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


def _line_test(**line):
    """A points test on one line through the origin, with line's entries
    replacing the defaults."""
    return {"kind": "points", "lines": [{"p0": [0, 0], "dir": [1, 0], "count": 3, "extent": 1, **line}]}


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
        # sample_grid rejects the count list, and the run reports that as
        # an error in the grid's config field, with both counts.
        assert code == 2
        assert capsys.readouterr().err == "error: config field test.coarse: expected 1 counts for n = 2, got 2\n"

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

    @pytest.mark.parametrize(
        "cfg,message",
        [
            (
                _base_config(test={"kind": "points", "points": []}),
                "test: points test needs at least one of points, lines, interior",
            ),
            (
                _base_config(test={"kind": "points", "lines": []}),
                "test: points test needs at least one of points, lines, interior",
            ),
            (
                _base_config(
                    K=3,
                    test={**_base_config()["test"], "domain": {"n": 2, "radial": {"family": "constant", "c": 1e120}}},
                ),
                "test: non-finite constraint entries",
            ),
            (
                _base_config(tolerances={"tol_dense": 1e-300}),
                "test: certificate residual",
            ),
        ],
        ids=["empty-points", "empty-lines", "overflow", "tol-below-residual"],
    )
    def test_test_stage_error_names_test(self, tmp_path, capsys, cfg, message):
        code = main(["check", "--config", _write(tmp_path, cfg)])
        assert code == 2
        # An exception escaping main() would fail the test with its traceback.
        assert f"error: config field {message}" in capsys.readouterr().err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "c,K,code,message",
        [
            (1e155, 1, 3, "geometry error: degenerate tangent frame"),
            (1e200, 2, 3, "geometry error: degenerate tangent frame"),
            (1e120, 3, 2, "error: config field test: non-finite constraint entries"),
        ],
        ids=["frame-1e155", "frame-1e200", "trace-1e120"],
    )
    def test_overflow_stops_without_warnings(self, tmp_path, capsys, c, K, code, message):
        # At 1e155 the squared normal length overflows: every normal used
        # to become 0 and the run a wrong A2 with exit 0.  At 1e120 the
        # frame is finite and x^3 overflows.  No numpy RuntimeWarning
        # prints ahead of the error.
        cfg = _base_config(K=K)
        cfg["test"]["domain"]["radial"]["c"] = c
        assert main(["check", "--config", _write(tmp_path, cfg)]) == code
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "domain,message",
        [
            ({"n": 2, "radial": {"family": "sine2d", "c": 2}}, "'a' is a required property"),
            (
                {"n": 3, "radial": {"family": "sine3d", "c": 2, "a": "1/2", "m1": 1}},
                "'m2' is a required property",
            ),
        ],
        ids=["sine2d-without-a", "sine3d-without-m2"],
    )
    def test_wavy_domain_needs_its_parameters(self, tmp_path, capsys, domain, message):
        cfg = _base_config()
        cfg["test"]["domain"] = domain
        assert main(["check", "--config", _write(tmp_path, cfg)]) == 2
        assert f"error: config field test.domain.radial: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "spec,message",
        [
            ({"builtin": "sym_grad", "n": "3"}, "operator.n: '3' is not of type 'integer'"),
            ({"tensor4": 3}, "operator.tensor4: 3 is not of type 'array'"),
            ({"tensor4": [1]}, "operator.tensor4.0: 1 is not of type 'array'"),
            ({"tensor4": [[[[True]]]]}, "operator.tensor4.0.0.0.0: True is not of type 'number', 'string'"),
        ],
        ids=["n-string", "tensor4-type", "tensor4-row", "tensor4-entry"],
    )
    @pytest.mark.parametrize("command", ["kernel", "probe"])
    def test_operator_file_checked_against_schema(self, tmp_path, capsys, command, spec, message):
        argv = [command, "--op-file", _write(tmp_path, spec, "op.json")]
        assert main(argv + (["--K", "1"] if command == "kernel" else [])) == 2
        assert f"error: config field {message}" in capsys.readouterr().err

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

    @pytest.mark.parametrize(
        "mutate,message",
        [
            (lambda cfg: cfg.update(K=2.0), "K: 2.0 is not of type 'integer'"),
            (lambda cfg: cfg["operator"].update(n=2.0), "operator.n: 2.0 is not of type 'integer'"),
            (
                lambda cfg: cfg.update(operator={"builtin": "grad_k", "n": 2, "order": 1.0}),
                "operator.order: 1.0 is not of type 'integer'",
            ),
            (lambda cfg: cfg.update(probe={"trials": 2.0}), "probe.trials: 2.0 is not of type 'integer'"),
            (
                lambda cfg: cfg["test"]["coarse"].update(counts=[6.0]),
                "test.coarse.counts.0: 6.0 is not of type 'integer'",
            ),
        ],
        ids=["K", "operator.n", "operator.order", "probe.trials", "counts"],
    )
    def test_whole_number_float_in_integer_field(self, tmp_path, capsys, mutate, message):
        # JSON Schema counts 2.0 as an integer; the config validator does not.
        cfg = _base_config()
        mutate(cfg)
        code = main(["check", "--config", _write(tmp_path, cfg)])
        assert code == 2
        assert f"error: config field {message}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "operator,message",
        [
            ({"builtin": "sym_grad", "n": 0}, "operator.n: 0 is less than the minimum of 1"),
            ({"builtin": "bogus", "n": 2}, "operator.builtin: 'bogus' is not one of ["),
            ({"terms": []}, "operator.terms: [] should be non-empty"),
            ({"tensor4": 3}, "operator.tensor4: 3 is not of type 'array'"),
            # No key: the bare anyOf failure.  Keys of two forms: the first
            # form's branch names the other key.
            ({"bogus": 1}, "operator: {'bogus': 1} is not valid under any of the given schemas"),
            (
                {"builtin": "grad", "n": 2, "tensor4": []},
                "operator: Additional properties are not allowed ('tensor4' was unexpected)",
            ),
        ],
        ids=["n-0", "bad-builtin", "empty-terms", "tensor4-type", "no-key", "two-keys"],
    )
    def test_operator_branch_violation_names_field(self, tmp_path, capsys, operator, message):
        code = main(["check", "--config", _write(tmp_path, _base_config(operator=operator))])
        assert code == 2
        assert f"error: config field {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["check", "points"])
    def test_non_object_config_names_root(self, tmp_path, capsys, command):
        code = main([command, "--config", _write(tmp_path, [1, 2])])
        assert code == 2
        assert "config field <root>: [1, 2] is not of type 'object'" in capsys.readouterr().err
        with pytest.raises(ConfigError, match=r"^config field <root>: "):
            run_config([1, 2])

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "place,literal",
        [
            # A NaN sigma_rel would drop every direction: the rotation's A2
            # would read as an exit-0 A1.
            (lambda cfg: cfg.update(tolerances={"sigma_rel": "@"}, expected="A1"), "NaN"),
            # Infinite tolerances would certify both translations as well.
            (lambda cfg: cfg.update(tolerances={"sigma_rel": "@", "tol_dense": "@"}), "Infinity"),
            (lambda cfg: cfg.update(tolerances={"tol_dense": "@"}), "-Infinity"),
            # 1e999 parses as inf, which would stop in geometry (exit 3).
            (lambda cfg: cfg["test"]["domain"]["radial"].update(c="@"), "1e999"),
        ],
        ids=["nan-sigma_rel", "inf-tolerances", "minus-inf", "1e999-radius"],
    )
    def test_non_finite_json_number_exits_2(self, tmp_path, capsys, place, literal):
        cfg = _base_config()
        place(cfg)
        path = tmp_path / "run.json"
        path.write_text(json.dumps(cfg).replace('"@"', literal))
        assert main(["check", "--config", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {path}: {literal} is not a finite JSON number\n"

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "1e999"])
    @pytest.mark.parametrize("command", ["kernel", "probe"])
    def test_non_finite_number_in_operator_file_exits_2(self, tmp_path, capsys, command, literal):
        spec = {"terms": [{"alpha": [1, 0], "matrix": [["@"]]}, {"alpha": [0, 1], "matrix": [[1]]}]}
        path = tmp_path / "op.json"
        path.write_text(json.dumps(spec).replace('"@"', literal))
        argv = [command, "--op-file", str(path)]
        assert main(argv + (["--K", "1"] if command == "kernel" else [])) == 2
        assert capsys.readouterr().err == f"error: {path}: {literal} is not a finite JSON number\n"

    @pytest.mark.parametrize(
        "content,reason",
        [
            (b'{"K": \xff}', "'utf-8' codec can't decode byte 0xff in position 6: invalid start byte"),
            (b"[" * 100_000 + b"]" * 100_000, "maximum recursion depth exceeded"),
            (b"{", "Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"),
        ],
        ids=["not-utf8", "nested-100000-deep", "lone-brace"],
    )
    @pytest.mark.parametrize("command", ["check", "points", "kernel", "probe"])
    def test_unreadable_json_file_exits_2(self, tmp_path, capsys, command, content, reason):
        # Exit 1 means a verdict mismatch, so an unreadable file used to
        # pass for one, with a traceback.
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        source = "--config" if command in ("check", "points") else "--op-file"
        extra = ["--K", "1"] if command == "kernel" else []
        assert main([command, source, str(path), *extra]) == 2
        assert capsys.readouterr().err.startswith(f"error: {path}: unreadable JSON: {reason}")
        with pytest.raises(ConfigError, match=rf"^{re.escape(str(path))}: unreadable JSON: {re.escape(reason)}"):
            run_config(path)

    def test_non_finite_tolerance_in_a_dict_config(self):
        # A dict never passes the JSON reader; the norm test refuses it.
        cfg = _base_config(tolerances={"sigma_rel": float("nan")}, expected="A1")
        with pytest.raises(ConfigError, match=r"^config field test: sigma_rel must be finite and > 0, got nan$"):
            run_config(cfg)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("value", [float("inf"), float("nan")], ids=["inf", "nan"])
    @pytest.mark.parametrize(
        "place,field",
        [
            (lambda cfg, x: cfg["test"]["domain"]["radial"].update(c=x), "test.domain.radial.c"),
            (
                lambda cfg, x: cfg["test"]["domain"].update(
                    radial={"family": "sine2d", "c": 1, "a": x, "m": 3}
                ),
                "test.domain.radial.a",
            ),
            (lambda cfg, x: cfg.update(test=_line_test(extent=x)), "test.lines"),
            (lambda cfg, x: cfg.update(test=_line_test(p0=[0, x])), "test.lines"),
            (lambda cfg, x: cfg.update(test=_line_test(dir=[x, 1])), "test.lines"),
            (lambda cfg, x: cfg.update(test={"kind": "points", "points": [[0.5, 0], [x, 0]]}), "test.points"),
            (lambda cfg, x: cfg["test"]["coarse"].update(range=[[0, x]]), "test.coarse"),
        ],
        ids=["c", "a", "extent", "p0", "dir", "points", "coarse-range"],
    )
    def test_non_finite_number_in_a_dict_config_names_field(self, place, field, value):
        # A dict config never passes the JSON reader, so the number reaches
        # the library, which refuses it before any geometry or SVD sees it.
        cfg = _base_config()
        place(cfg, value)
        with pytest.raises(ConfigError, match=rf"^config field {field}: .*(inf|nan)"):
            run_config(cfg)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "test,field",
        [
            ({"kind": "points", "points": [[10**400, 0]]}, "test.points"),
            ({"kind": "points", "lines": [{"p0": [0, 0], "dir": [1, 0], "count": 3, "extent": 10**400}]},
             "test.lines"),
        ],
        ids=["point", "extent"],
    )
    def test_integer_beyond_float_range_exits_2(self, tmp_path, capsys, test, field):
        assert main(["points", "--config", _write(tmp_path, _base_config(test=test))]) == 2
        assert capsys.readouterr().err == f"error: config field {field}: int too large to convert to float\n"

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("direction, unit", [([1e-15, 0], [1, 0]), ([1e308, 1e308], [1, 1])])
    def test_line_direction_of_any_finite_length_gives_the_unit_direction_run(self, direction, unit):
        # Only the config block, which echoes dir, differs; the norm of
        # [1e308, 1e308] overflows, but dir is scaled by a power of two
        # before it is normalised.
        scaled, code = run_config(_base_config(test=_line_test(dir=direction)))
        ref, _ = run_config(_base_config(test=_line_test(dir=unit)))
        assert code == 0
        assert scaled["test"] == ref["test"] and scaled["verdict"] == ref["verdict"]

    def test_grad_k_order_zero_reaches_builtin_check(self, capsys):
        code = main(["kernel", "--op", "grad_k", "--n", "2", "--order", "0", "--K", "1"])
        assert code == 2
        assert capsys.readouterr().err == "error: config field operator: need order >= 1, got 0\n"

    @pytest.mark.parametrize(
        "stem,n,family_n",
        [("wavy2d_symgrad_normal", 3, 2), ("wavy3d_symgrad_normal", 2, 3)],
    )
    def test_domain_dimension_must_match_its_family(self, tmp_path, capsys, stem, n, family_n):
        # A sine2d domain with n = 3 used to run in 2D, exit 0 and report
        # test.domain.n 2 against a config saying 3.
        cfg = json.loads((_CONFIG_DIR / f"{stem}.json").read_text())
        cfg["test"]["domain"]["n"] = n
        assert main(["check", "--config", _write(tmp_path, cfg)]) == 2
        assert capsys.readouterr().err == f"error: config field test.domain.n: {family_n} was expected\n"

    def test_domain_operator_dimension_mismatch(self, tmp_path, capsys):
        cfg = _base_config()
        cfg["operator"]["n"] = 3
        code = main(["check", "--config", _write(tmp_path, cfg)])
        assert code == 2
        assert "test.domain.n" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "cfg,message",
        [
            (
                _base_config(
                    test={
                        **_base_config()["test"],
                        "coarse": {"counts": [6], "range": [[0, 3]]},
                        "dense": {"counts": [48], "range": [[0, 2]]},
                    }
                ),
                # The dense grid takes the coarse range; it has none of its own.
                "test.dense: Additional properties are not allowed ('range' was unexpected)",
            ),
            (
                _base_config(test={**_base_config()["test"], "dense": {"counts": [6]}}),
                # The sample set's own check, under the config field.
                "test.dense.counts: dense grid must be strictly finer than coarse in every coordinate",
            ),
            (
                # The gradient of a scalar: dimV = 1 on R^2.
                _base_config(
                    operator={
                        "terms": [{"alpha": [1, 0], "matrix": [[1], [0]]}, {"alpha": [0, 1], "matrix": [[0], [1]]}]
                    }
                ),
                "test.trace: normal trace needs dimV == n, operator has dimV=1",
            ),
            (_base_config(operator={"builtin": "grad_k", "n": 2}), "operator.order: grad_k needs an order"),
            (
                _base_config(operator={"builtin": "sym_grad", "n": 3}, test={"kind": "points", "points": [[0, 0]]}),
                "test.points: point [0, 0] is not in R^3",
            ),
            (
                _base_config(operator={"builtin": "sym_grad", "n": 3}, test=_line_test()),
                "test.lines: p0 and dir must be in R^3",
            ),
            (
                # Output paths come from the command line, not the config.
                _base_config(output={"report": "report.json", "plots": "plots"}),
                "<root>: Additional properties are not allowed ('output' was unexpected)",
            ),
            # The domain's dimension is an int, never truncated or parsed.
            (
                _base_config(test={**_base_config()["test"], "domain": {"n": 2.0, "radial": {"family": "constant"}}}),
                "test.domain.n: 2.0 is not of type 'integer'",
            ),
            (
                _base_config(test={**_base_config()["test"], "domain": {"n": 2.7, "radial": {"family": "constant"}}}),
                "test.domain.n: 2.7 is not of type 'integer'",
            ),
            (
                _base_config(test={**_base_config()["test"], "domain": {"n": "3", "radial": {"family": "constant"}}}),
                "test.domain.n: '3' is not of type 'integer'",
            ),
        ],
        ids=[
            "dense-range", "dense-counts", "trace-dimV", "grad_k-order", "point-dimension", "line-dimension",
            "output-block", "domain-n-whole-float", "domain-n-float", "domain-n-str",
        ],
    )
    def test_config_error_message_names_field(self, tmp_path, capsys, cfg, message):
        assert main(["check", "--config", _write(tmp_path, cfg)]) == 2
        assert capsys.readouterr().err == f"error: config field {message}\n"


class TestDeterminism:
    def test_reports_identical_modulo_timings(self):
        cfg = _base_config()
        r1, _ = run_config(dict(cfg))
        r2, _ = run_config(dict(cfg))
        r1.pop("timings")
        r2.pop("timings")
        assert r1 == r2

    def test_digest_excludes_timings(self, tmp_path):
        r1, _ = run_config(_base_config())
        assert "timings" in r1
        r2, _ = run_config(_base_config())
        assert r1["digest"] == r2["digest"]
        # Nor does the digest depend on where the plot data goes.
        for out in ("a", "b"):
            plotted, _ = run_config(_base_config(), emit_plots=str(tmp_path / out))
            assert "plots" in plotted
            assert plotted["digest"] == r1["digest"], out

    def test_one_digest_for_every_output_route(self, tmp_path, capsys):
        # Output paths come only from the caller, so where the report and
        # the plot data go cannot reach the digest.
        config = _CONFIG_DIR / "disk_symgrad_normal.json"
        cfg = json.loads(config.read_text())
        digests = {run_config(cfg)[0]["digest"]}
        for out in ("a", "b"):
            digests.add(run_config(cfg, emit_plots=str(tmp_path / out))[0]["digest"])
        report_path = tmp_path / "report.json"
        argv = ["check", "--config", str(config), "--report", str(report_path), "--emit-plots", str(tmp_path / "d")]
        assert main(argv) == 0
        stdout = capsys.readouterr().out
        printed = [line.split(":")[1].strip() for line in stdout.splitlines() if line.startswith("digest")]
        assert printed == [json.loads(report_path.read_text())["digest"]]
        digests.update(printed)
        assert len(digests) == 1
        for out in "abd":
            for name in ("boundary.csv", "residual.csv"):
                assert (tmp_path / out / name).stat().st_size > 0, (out, name)

    @pytest.mark.parametrize(
        "stem, coarse",
        [("ball3d_devsymgrad_normal", None), ("axis_line_points", None), ("wavy3d_devsymgrad_normal", [48, 48])],
        ids=["ball3d_devsymgrad_normal", "axis_line_points", "wavy3d_devsymgrad_normal-coarse-48"],
    )
    def test_digest_independent_of_blas_threads(self, tmp_path, stem, coarse):
        # The traces and SVDs go through BLAS, so each thread count runs
        # in its own process, where the setting takes effect.  The 48 x 48
        # coarse grid makes a 2304 x 10 matrix, which numeric_nullspace
        # reduces by block QR before its SVD.
        config = _CONFIG_DIR / f"{stem}.json"
        if coarse is not None:
            cfg = json.loads(config.read_text())
            cfg["test"]["coarse"]["counts"] = coarse
            config = Path(_write(tmp_path, cfg))
        src = str(Path(korncert.__file__).resolve().parent.parent)
        digests = set()
        for threads in ("1", "2"):
            env = {
                **os.environ,
                "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
                "OMP_NUM_THREADS": threads,
                "OPENBLAS_NUM_THREADS": threads,
            }
            proc = subprocess.run(
                [sys.executable, "-m", "korncert.cli", "check", "--config", str(config)],
                capture_output=True,
                text=True,
                env=env,
            )
            assert proc.returncode == 0, proc.stderr
            digests.update(line.split(":")[1].strip() for line in proc.stdout.splitlines() if line.startswith("digest"))
        assert len(digests) == 1

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
    def test_report_fields(self, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        code = main(["check", "--config", _write(tmp_path, _base_config(expected="A2")), "--report", str(report_path)])
        assert code == 0
        on_disk = json.loads(report_path.read_text())
        assert on_disk["schema"] == "korncert-report/1"
        assert on_disk["verdict"]["verdict"] == "A2"
        assert on_disk["expected_match"] is True
        assert on_disk["kernel"]["dim"] == 3
        assert on_disk["digest"] == run_config(_base_config(expected="A2"))[0]["digest"]
        assert f"digest      : {on_disk['digest']}" in capsys.readouterr().out
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
        "radial,counts,ranges",
        [
            ({"family": "constant", "c": "3/2"}, [7], None),
            ({"family": "constant", "c": 1}, [4, 4], None),
            ({"family": "constant", "c": 1}, [3], [[-1, 0.5]]),
            # Unequal counts on a patch pin the row order: last angle fastest.
            ({"family": "constant", "c": 1}, [3, 5], [[0.25, 2], [-1, 1.5]]),
            # Values below 1e-4 print in exponent form.
            ({"family": "constant", "c": "1/100000"}, [2, 3], None),
        ],
        ids=["2d", "3d", "2d-negative-range", "3d-patch", "3d-small-radius"],
    )
    def test_csv_bytes_match_per_value_writer(self, tmp_path, radial, counts, ranges):
        n = len(counts) + 1
        dom = StarDomain.from_json({"n": n, "radial": radial})
        coarse = sample_grid(dom, counts, ranges)
        dense = sample_grid(dom, [8 * c for c in counts], ranges)
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

    def test_plotted_run_builds_each_frame_once(self, tmp_path, monkeypatch):
        # certify builds the coarse and the dense frame, and the plot data
        # reuses both: every frame goes through geometry._frame.
        framed = []
        frame = korncert.geometry._frame

        def counting(dom, *angles):
            framed.append(np.broadcast(*angles).size)
            return frame(dom, *angles)

        monkeypatch.setattr(korncert.geometry, "_frame", counting)
        report, code = run_config(str(_CONFIG_DIR / "ball3d_devsymgrad_normal.json"), emit_plots=str(tmp_path))
        assert code == 0 and report["plots"]["residual"] is not None
        assert framed == [16, 1024]

    def test_a1_run_removes_an_earlier_residual_csv(self, tmp_path):
        report, _ = run_config(_base_config(), emit_plots=str(tmp_path))
        assert report["plots"]["residual"] is not None
        cfg = _base_config()
        cfg["operator"]["builtin"] = "dev_grad"
        report, _ = run_config(cfg, emit_plots=str(tmp_path))
        assert report["plots"]["residual"] is None
        assert not (tmp_path / "residual.csv").exists()
        assert (tmp_path / "boundary.csv").stat().st_size > 0

    def test_no_residual_csv_for_a1(self, tmp_path):
        cfg = _base_config()
        cfg["operator"]["builtin"] = "dev_grad"
        report, _ = run_config(cfg, emit_plots=str(tmp_path))
        assert not (tmp_path / "residual.csv").exists()
        assert report["plots"]["residual"] is None
        assert "note" in report["plots"]

    @pytest.mark.parametrize("route", ["check", "points", "run_config"])
    def test_plot_data_refused_for_points_test(self, tmp_path, monkeypatch, capsys, route):
        # Refused before the probe runs, and nothing is written.
        def probe(*args, **kwargs):
            raise AssertionError("the run started")

        monkeypatch.setattr(korncert.cli, "ellipticity_probe", probe)
        config = str(_CONFIG_DIR / "axis_line_points.json")
        outdir = tmp_path / "plots"
        message = "config field test.kind: plot data needs kind 'boundary', got 'points'"
        if route == "run_config":
            with pytest.raises(ConfigError) as exc:
                run_config(config, emit_plots=str(outdir))
            assert str(exc.value) == message
        else:
            assert main([route, "--config", config, "--emit-plots", str(outdir)]) == 2
            assert capsys.readouterr().err == f"error: {message}\n"
        assert list(tmp_path.iterdir()) == []

    def test_no_plot_subcommand(self, tmp_path, capsys):
        # check --emit-plots is the one command that writes plot data.
        with pytest.raises(SystemExit) as exc:
            main(["plot", "--config", _write(tmp_path, _base_config()), "--out", str(tmp_path / "plots")])
        assert exc.value.code == 2
        assert "invalid choice: 'plot'" in capsys.readouterr().err
        assert not (tmp_path / "plots").exists()


class TestSubcommands:
    def test_kernel_output(self, capsys):
        code = main(["kernel", "--op", "sym_grad", "--n", "2", "--K", "1", "--profile", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "dim 3" in out
        assert "[2, 3, 3, 3]" in out

    def test_kernel_json(self, tmp_path, capsys):
        out_file = tmp_path / "kernel.json"
        assert main(["kernel", "--op", "dev_grad", "--n", "3", "--K", "1", "--json", str(out_file)]) == 0
        obj = json.loads(out_file.read_text())
        assert obj == kernel_to_json(kernel_basis(builtin_operator("dev_grad", 3), 1))
        assert obj["dim"] == 4

    def test_probe_output(self, capsys):
        code = main(["probe", "--op", "dev_sym_grad", "--n", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "C-elliptic evidence : False" in out
        assert "xi=['1', '1i']" in out

    def test_probe_json(self, tmp_path, capsys):
        out_file = tmp_path / "probe.json"
        assert main(["probe", "--op", "dev_sym_grad", "--n", "2", "--json", str(out_file)]) == 0
        obj = json.loads(out_file.read_text())
        assert obj == ellipticity_probe(builtin_operator("dev_sym_grad", 2)).to_json()
        assert obj["witness"]["xi"] == ["1", "1i"]

    @pytest.mark.parametrize(
        "flags,kwargs",
        [([], {}), (["--trials", "3", "--seed", "5"], {"trials": 3, "seed": 5})],
        ids=["defaults", "flags"],
    )
    def test_probe_passes_only_given_flags(self, monkeypatch, capsys, flags, kwargs):
        # The probe's defaults are ellipticity_probe's own.
        seen = []
        probe = korncert.cli.ellipticity_probe

        def spy(op, **kw):
            seen.append(kw)
            return probe(op, **kw)

        monkeypatch.setattr(korncert.cli, "ellipticity_probe", spy)
        assert main(["probe", "--op", "sym_grad", "--n", "2", *flags]) == 0
        assert seen == [kwargs]

    @pytest.mark.parametrize("command", ["check", "points"])
    def test_config_validated_once_per_run(self, monkeypatch, capsys, command):
        calls = []
        validate = korncert.cli.validate_config

        def counting(cfg):
            calls.append(cfg)
            validate(cfg)

        monkeypatch.setattr(korncert.cli, "validate_config", counting)
        config = "axis_line_points.json" if command == "points" else "disk_symgrad_normal.json"
        assert main([command, "--config", str(_CONFIG_DIR / config)]) == 0
        assert len(calls) == 1

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

    @pytest.mark.parametrize("config_path", sorted(_CONFIG_DIR.glob("*.json")), ids=lambda p: p.stem)
    def test_run_verdict_is_the_library_verdict(self, config_path, monkeypatch):
        # The public wrappers, fed the domain, grids or points built here
        # from the library, decide as the run path does.
        monkeypatch.delenv("KORNCERT_SEED", raising=False)
        cfg = json.loads(config_path.read_text())
        report, _ = run_config(cfg)
        test, tolerances = cfg["test"], cfg.get("tolerances", {})
        kb = kernel_basis(build_operator(cfg["operator"]), cfg["K"])
        dom = StarDomain.from_json(test["domain"]) if "domain" in test else None
        if test["kind"] == "boundary":
            coarse = sample_grid(dom, test["coarse"]["counts"], test["coarse"].get("range"))
            dense_counts = test.get("dense", {"counts": [8 * c for c in coarse.counts]})["counts"]
            dense = sample_grid(dom, dense_counts, coarse.ranges)
            verdict = classify(kb, dom, test["trace"], coarse, dense, **tolerances)
        else:
            points = list(test.get("points", ()))
            for line in test.get("lines", ()):
                points += line_points(line["p0"], line["dir"], line["count"], line["extent"])
            if "interior" in test:
                seed = test["interior"].get("seed", cfg.get("seed", 0))
                points += interior_points(dom, test["interior"]["count"], seed)
            verdict = point_measure_test(kb, points, **tolerances)
        assert report["verdict"] == verdict.to_json()

    @pytest.mark.parametrize("config_path", sorted(_CONFIG_DIR.glob("*.json")), ids=lambda p: p.stem)
    def test_report_strings_are_the_term_by_term_join(self, config_path):
        # Certificates are adopted from floats, so their JSON coefficients
        # give back the exact PolyVec.
        cfg = json.loads(config_path.read_text())
        report, _ = run_config(cfg)
        kb = kernel_basis(build_operator(cfg["operator"]), cfg["K"])
        assert report["kernel"]["basis"] == [format_poly_reference(p) for p in kb.basis]
        for cert in report["verdict"]["certificates"]:
            p = PolyVec.from_floats(monomial_basis(kb.operator.n, cfg["K"]), kb.operator.dimV, cert["coeffs"])
            assert [float(c) for c in p.coeffs] == cert["coeffs"]
            assert cert["pretty"] == format_poly_reference(p)

    def test_one_process_gives_each_config_its_fresh_process_digest(self):
        # builtin operators are memoised per process.  Every shipped
        # config run forward, then in reverse, in one process gives the
        # digest that a fresh check process prints for it.
        src = str(Path(korncert.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        paths = [str(p) for p in sorted(_CONFIG_DIR.glob("*.json"))]
        script = (
            "import sys\n"
            "from korncert.cli import run_config\n"
            "for path in sys.argv[1:] + sys.argv[:0:-1]:\n"
            "    print(path, run_config(path)[0]['digest'])\n"
        )
        proc = subprocess.run([sys.executable, "-c", script, *paths], capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        one_process = [line.split() for line in proc.stdout.splitlines()]
        assert [path for path, _ in one_process] == paths + paths[::-1]
        for path in paths:
            fresh = subprocess.run(
                [sys.executable, "-m", "korncert.cli", "check", "--config", path],
                capture_output=True,
                text=True,
                env=env,
            )
            assert fresh.returncode == 0, fresh.stderr
            (digest,) = [line.split(":")[1].strip() for line in fresh.stdout.splitlines() if line.startswith("digest")]
            assert [d for p, d in one_process if p == path] == [digest, digest], path

    @pytest.mark.parametrize("radius", [0.01, "1/10000000"])
    @pytest.mark.parametrize("stem", sorted(p.stem for p in _CONFIG_DIR.glob("*.json") if p.stem.startswith(("disk", "ball"))))
    def test_scaled_ball_gives_the_unit_ball_verdict(self, stem, radius):
        # The frame's degeneracy test is relative to the radius: in R^3 the
        # unnormalised normal of a ball of radius 1e-7 is about 1e-14 long.
        cfg = json.loads((_CONFIG_DIR / f"{stem}.json").read_text())
        unit, _ = run_config(cfg)
        cfg["test"]["domain"]["radial"]["c"] = radius
        scaled, code = run_config(cfg)
        assert code == 0
        assert scaled["verdict"]["verdict"] == unit["verdict"]["verdict"]
        assert len(scaled["verdict"]["certificates"]) == len(unit["verdict"]["certificates"])

    def test_schema_file_matches_embedded_schema(self):
        # The packaged schema file is the one CONFIG_SCHEMA loads, and it
        # constrains the test block itself, not only its kind.
        assert json.loads(_SCHEMA_FILE.read_text()) == CONFIG_SCHEMA
        cfg = _base_config()
        cfg["test"]["bogus"] = 1
        with pytest.raises(ConfigError, match=r"^config field test: .*'bogus'"):
            validate_config(cfg)


# -- the config validator against jsonschema ----------------------------

_SHIPPED = [json.loads(p.read_text()) for p in sorted(_CONFIG_DIR.glob("*.json"))]
_STOCK_ORACLE = jsonschema.Draft202012Validator(CONFIG_SCHEMA)
_STRICT_ORACLE = jsonschema.validators.extend(
    jsonschema.Draft202012Validator,
    type_checker=jsonschema.Draft202012Validator.TYPE_CHECKER.redefine(
        "integer", lambda _, v: isinstance(v, int) and not isinstance(v, bool)
    ),
)(CONFIG_SCHEMA)
_SEMANTIC_ERRORS = {
    "config field test: points test needs at least one of points, lines, interior",
    "config field test.domain: interior sampling needs a domain",
}


def _schema_words(schema):
    """Every property name and string constant in the schema."""
    if isinstance(schema, dict):
        for key, value in schema.items():
            if key in ("properties", "$defs"):
                yield from value
            yield from _schema_words(value)
    elif isinstance(schema, list):
        for value in schema:
            yield from _schema_words(value)
    elif isinstance(schema, str):
        yield schema


def _subtrees(value):
    yield value
    children = value.values() if isinstance(value, dict) else value if isinstance(value, list) else ()
    for child in children:
        yield from _subtrees(child)


_WORDS = sorted(set(_schema_words(CONFIG_SCHEMA)) | {"bogus", ""})
_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(-3, 12)
    | st.sampled_from([0.0, 1.0, 2.0, 3.0, -1.0, 0.5, 1e-3, 1e300])
    | st.floats()
    | st.sampled_from(_WORDS)
    | st.text(max_size=4)
)
_VALUES = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.sampled_from(_WORDS), inner, max_size=3),
    max_leaves=6,
) | st.sampled_from([t for cfg in _SHIPPED for t in _subtrees(cfg)])


def _mutate(cfg, data):
    """Replace, delete or add one key or item anywhere in cfg, replace
    the root, or turn one int into a float (whole or not)."""
    nodes = [t for t in _subtrees(cfg) if isinstance(t, (dict, list))]
    node = data.draw(st.sampled_from([None, *nodes]), label="node")
    if node is None:
        return copy.deepcopy(data.draw(_VALUES, label="root"))
    ints = [(n, k) for n in nodes for k in (n if isinstance(n, dict) else range(len(n))) if type(n[k]) is int]
    op = data.draw(st.sampled_from(["replace", "delete", "add", "float"]), label="op")
    if op == "float" and ints:
        node, key = data.draw(st.sampled_from(ints), label="int")
        node[key] += data.draw(st.sampled_from([0.0, 0.5]), label="fraction")
    elif op in ("add", "float") or not node:
        value = copy.deepcopy(data.draw(_VALUES, label="value"))
        if isinstance(node, dict):
            node[data.draw(st.sampled_from(_WORDS), label="key")] = value
        else:
            node.append(value)
    else:
        key = data.draw(st.sampled_from(sorted(node) if isinstance(node, dict) else range(len(node))))
        if op == "delete":
            del node[key]
        else:
            node[key] = copy.deepcopy(data.draw(_VALUES, label="value"))
    return cfg


def _with_context(errors):
    """jsonschema errors together with the per-branch errors of each
    failed anyOf (ValidationError.context), recursively."""
    for e in errors:
        yield e
        yield from _with_context(e.context)


def _has_whole_number_float(value):
    return any(isinstance(t, float) and t.is_integer() for t in _subtrees(value))


class TestSchemaInterpreter:
    """validate_config walks config-schema.json itself; jsonschema is the
    oracle here and is not imported at run time."""

    def test_cli_import_does_not_load_jsonschema(self):
        src = str(Path(korncert.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        proc = subprocess.run(
            [sys.executable, "-c", "import korncert.cli, sys; assert 'jsonschema' not in sys.modules"],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0, proc.stderr

    @settings(max_examples=400, deadline=None)
    @given(data=st.data())
    def test_mutated_configs_agree_with_jsonschema(self, data):
        cfg = copy.deepcopy(data.draw(st.sampled_from(_SHIPPED), label="config"))
        for _ in range(data.draw(st.integers(1, 3), label="mutations")):
            cfg = _mutate(cfg, data)
        oracle = {
            (".".join(map(str, e.absolute_path)) or "<root>", e.message)
            for e in _with_context(_STRICT_ORACLE.iter_errors(cfg))
        }
        # The only intended difference from jsonschema: whole-number floats
        # are not integers.
        if _STOCK_ORACLE.is_valid(cfg) != (not oracle):
            assert _has_whole_number_float(cfg)
        try:
            validate_config(cfg)
            message = None
        except ConfigError as exc:
            message = str(exc)
        if oracle:
            assert message in {f"config field {field}: {text}" for field, text in oracle}, message
        else:
            assert message is None or message in _SEMANTIC_ERRORS, message
