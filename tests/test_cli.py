"""End-to-end tests of the command-line interface: output formats, exit
codes, grid sweeps, environment overrides, and stream separation."""

import argparse
import gc
import json
import math
import os
import random
import subprocess
import sys
import textwrap
import time
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest

import harmbohr
from harmbohr import cli
from harmbohr.cli import CSV_HEADER, main, parse_grid
from harmbohr.errors import DomainError


def run_cli(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


class TestParseGrid:
    def test_inclusive_endpoints(self):
        assert parse_grid("0:0.9:0.1") == pytest.approx(
            [0.1 * i for i in range(10)], abs=1e-12
        )
        # The point past hi overflows to inf here, and is dropped.
        assert parse_grid("1e307:1.7e308:1e307") == [1e307 + i * 1e307 for i in range(17)]

    def test_single_point(self):
        assert parse_grid("1:1:1") == [1.0]

    @pytest.mark.parametrize(
        "text, lo", [("0.5:0.5:1e-16", 0.5), ("1e17:1e17:1", 1e17), ("1.7e308:1.7e308:1", 1.7e308)]
    )
    def test_a_step_below_an_ulp_keeps_lo(self, text, lo):
        # hi + step/2 rounds to hi here, and lo = hi is still the grid.
        assert parse_grid(text) == [lo]

    def test_a_step_below_the_float_spacing_is_rejected(self, capsys):
        # Points 8 apart round onto floats 16 apart: some would repeat.
        text = "99999999999999936:1e17:8"
        with pytest.raises(DomainError, match=text):
            parse_grid(text)
        rc, out, err = run_cli(capsys, "scan", "--class", "gh-k-alpha", "--k", "1", "--alpha", text)
        assert (rc, out) == (2, "")
        assert err.startswith(f"error: grid {text!r} repeats points")

    def test_bad_shapes_rejected(self):
        for text in (
            "0:1",
            "0:1:0",
            "a:b:c",
            "1:0:0.1",
            "0:1:nan",
            "nan:1:0.1",
            "-inf:0:1",
            "0:1:1e-9",
        ):
            with pytest.raises(DomainError):
                parse_grid(text)


class TestRadiusCommand:
    def test_json_record(self, capsys):
        rc, out, err = run_cli(
            capsys, "radius", "--class", "ph-alpha", "--alpha", "0"
        )
        assert rc == 0
        assert err == ""
        lines = out.strip().splitlines()
        assert len(lines) == 1
        data = json.loads(lines[0])
        assert data["class"] == "ph-alpha"
        assert data["params"] == {"alpha": 0.0}
        assert data["radius"] == pytest.approx(0.28519408763722215, abs=1e-10)
        assert data["d_star"] == pytest.approx(2.0 * math.log(2.0) - 1.0, abs=1e-14)
        assert data["method"] == "BISECTION_NEWTON"
        assert data["residual"] <= 1e-10
        assert data["tol"] == 1e-12

    def test_alpha_next_to_one_solves(self, capsys):
        rc, out, err = run_cli(
            capsys, "radius", "--class", "ph-alpha", "--alpha", "0.999999999"
        )
        assert rc == 0
        assert err == ""
        assert json.loads(out)["radius"] == pytest.approx(0.9999999669366164, abs=1e-12)

    def test_json_round_trips_bit_identically(self, capsys):
        rc, out, _ = run_cli(capsys, "radius", "--class", "wh-alpha", "--alpha", "0.5")
        line = out.strip()
        assert tuple(json.loads(line)) == cli._JSON_KEYS
        assert json.dumps(json.loads(line)) == line

    def test_csv_record(self, capsys):
        rc, out, _ = run_cli(
            capsys, "radius", "--class", "tb-m", "--m", "1", "--format", "csv"
        )
        assert rc == 0
        header, row = out.strip().splitlines()
        assert header == CSV_HEADER
        fields = row.split(",")
        assert fields[0] == "tb-m"
        assert fields[1] == "m"
        assert float(fields[2]) == 1.0
        assert float(fields[3]) == pytest.approx(math.sqrt(2.0) - 1.0, abs=1e-10)
        assert fields[5] == "CLOSED_FORM"

    def test_lacunary_class_takes_two_parameters(self, capsys):
        rc, out, _ = run_cli(
            capsys, "radius", "--class", "gh-k-alpha", "--k", "2", "--alpha", "1"
        )
        assert rc == 0
        data = json.loads(out)
        assert data["params"] == {"k": 2, "alpha": 1.0}
        assert data["radius"] == pytest.approx(0.46557701777634225, abs=1e-9)

    def test_jacobian_variant(self, capsys):
        rc, out, _ = run_cli(capsys, "radius", "--class", "tb-m-jacobian", "--m", "1")
        assert rc == 0
        data = json.loads(out)
        assert data["class"] == "tb-m-jacobian"
        assert data["radius"] == pytest.approx(0.5 * (math.sqrt(2.0) - 1.0), abs=1e-14)
        assert data["d_star"] == 0.5
        assert data["method"] == "CLOSED_FORM"
        assert data["residual"] <= 1e-14

    def test_repeated_runs_are_byte_identical(self, capsys):
        argv = ("radius", "--class", "ph-m", "--m", "0.7")
        _, first, _ = run_cli(capsys, *argv)
        _, second, _ = run_cli(capsys, *argv)
        assert first == second

    @pytest.mark.parametrize("alpha", ["1e-300", "5e-324"])
    def test_degenerate_lacunary_record_is_iterative_with_d_star_zero(self, capsys, alpha):
        # d* sums to 0, inside its error bound: radius 0 with no step.
        # gh-k-alpha has no closed form, and a distance is never negative.
        rc, out, err = run_cli(capsys, "radius", "--class", "gh-k-alpha", "--k", "1", "--alpha", alpha)
        assert (rc, err) == (0, "")
        assert out == (
            f'{{"class": "gh-k-alpha", "params": {{"k": 1, "alpha": {float(alpha)!r}}}, '
            '"radius": 0.0, "residual": 0.0, "method": "BISECTION_NEWTON", '
            '"d_star": 0.0, "tol": 1e-12}\n'
        )

    def test_alpha_next_to_the_float_maximum_solves_without_a_warning(self, capsys):
        # s m in the Lerch head overflows to inf, and its terms are the limit 0.
        rc, out, err = run_cli(
            capsys, "radius", "--class", "gh-k-alpha", "--k", "1", "--alpha", "1.7e308"
        )
        assert (rc, err) == (0, "")
        assert json.loads(out)["radius"] == 0.999999999999998


class TestRadiusIsAOnePointScan:
    """``radius`` prints what ``scan`` prints over the one-point grid v:v:1
    of the same swept parameter, through the same writer."""

    SOLVED = [
        ("ph-alpha", ["--alpha", "0.5"]),
        ("gt-beta", ["--beta", "0.31"]),
        ("gt-beta", ["--beta", "0"]),
        ("wh-alpha", ["--alpha", "0.5"]),
        ("gh-k-alpha", ["--k", "1", "--alpha", "0.5"]),
        ("gh-k-alpha", ["--k", "3", "--alpha", "1"]),
        ("tb-m", ["--m", "1"]),
        ("ph-m", ["--m", "0.7"]),
        ("tb-m-jacobian", ["--m", "0.2"]),
    ]
    # One Newton step leaves wh-alpha's bracket open (exit 3); m = 2 lies
    # outside tb-m's domain (exit 2).
    FAILING = [("wh-alpha", ["--alpha", "0.5", "--max-iter", "1"], 3), ("tb-m", ["--m", "2"], 2)]

    def test_every_tag_is_covered(self):
        assert {tag for tag, _ in self.SOLVED} == set(cli.CLASS_TAGS)

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("tag,argv,code", [(*case, 0) for case in SOLVED] + FAILING)
    def test_radius_prints_the_one_point_scan(self, capsys, tag, argv, code, fmt):
        radius = run_cli(capsys, "radius", "--class", tag, *argv, "--format", fmt)
        at = argv.index(f"--{cli._EXPECTED_PARAMS[tag][-1]}") + 1
        one_point = [*argv[:at], f"{argv[at]}:{argv[at]}:1", *argv[at + 1 :]]
        assert radius == run_cli(capsys, "scan", "--class", tag, *one_point, "--format", fmt)
        rc, out, err = radius
        assert rc == code
        if code:
            assert out == "" and err
        else:
            assert err == ""
            assert len(out.splitlines()) == (2 if fmt == "csv" else 1)

    def test_radius_builds_no_output_record(self, capsys, monkeypatch):
        def gone(*args, **kwargs):
            raise AssertionError("radius went around the scan writer")

        monkeypatch.setattr(cli, "compute_record", gone)
        monkeypatch.setattr(cli, "_split_lanes", gone)
        for tag, argv in self.SOLVED:
            rc, out, err = run_cli(capsys, "radius", "--class", tag, *argv)
            assert (rc, err) == (0, "")
            assert json.loads(out)["class"] == tag


class TestExitCodes:
    def test_unknown_class_is_usage_error(self, capsys):
        rc, out, err = run_cli(capsys, "radius", "--class", "nope", "--alpha", "0")
        assert rc == 2
        assert out == ""

    def test_invalid_parameter_value(self, capsys):
        rc, out, err = run_cli(capsys, "radius", "--class", "gt-beta", "--beta", "0.5")
        assert rc == 2
        assert out == ""
        assert "1/2" in err

    def test_mass_above_supremum(self, capsys):
        rc, out, err = run_cli(capsys, "radius", "--class", "ph-m", "--m", "1.3")
        assert rc == 2
        assert "1.294350" in err
        assert "1.3" in err

    def test_missing_parameter(self, capsys):
        rc, _, err = run_cli(capsys, "radius", "--class", "wh-alpha")
        assert rc == 2
        assert "requires --alpha" in err

    def test_foreign_parameter(self, capsys):
        rc, _, err = run_cli(
            capsys, "radius", "--class", "ph-alpha", "--alpha", "0.2", "--m", "1"
        )
        assert rc == 2
        assert "not a parameter" in err

    def test_grid_rejected_outside_sweeps(self, capsys):
        rc, _, err = run_cli(
            capsys, "radius", "--class", "ph-alpha", "--alpha", "0:0.5:0.1"
        )
        assert rc == 2
        assert "single value" in err

    def test_iteration_budget_maps_to_convergence_exit(self, capsys):
        rc, out, err = run_cli(
            capsys,
            "radius", "--class", "ph-alpha", "--alpha", "0.3", "--max-iter", "1",
        )
        assert rc == 3
        assert out == ""
        assert "error:" in err

    def test_errors_never_touch_stdout(self, capsys):
        for argv in (
            ("radius", "--class", "tb-m", "--m", "2"),
            ("scan", "--class", "ph-alpha", "--alpha", "0.3"),
        ):
            rc, out, _ = run_cli(capsys, *argv)
            assert rc == 2
            assert out == ""

    def test_huge_k_is_solved_not_rejected(self, capsys):
        # d* rounds to 1 here; the floor below the root must still start
        # inside (0, 1), without numpy warnings, and the valid k never
        # gets the invalid-parameter code.
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rc, out, err = run_cli(
                capsys, "radius", "--class", "gh-k-alpha", "--k", str(10**17), "--alpha", "1"
            )
        assert rc in (0, 3), err
        if rc == 0:
            data = json.loads(out)
            assert data["params"]["k"] == 10**17
            assert 0.0 < data["radius"] < 1.0

    def test_k_beyond_float_range_is_invalid(self, capsys):
        rc, out, err = run_cli(
            capsys, "radius", "--class", "gh-k-alpha", "--k", str(10**400), "--alpha", "1e-300"
        )
        assert rc == 2
        assert out == ""
        assert err == "error: k must convert to a finite float, got an integer of 1329 bits\n"
        assert "Traceback" not in err

    def test_bracket_wider_than_tol_exits_3_naming_the_least_tol(self, capsys):
        # Newton stops where H is within its error bound, with a certified
        # bracket 3.33e-15 wide: that is no radius to tol 1e-16, and the
        # width named is the least --tol that passes.
        argv = ["radius", "--class", "ph-alpha", "--alpha", "0.3"]
        rc, out, err = run_cli(capsys, *argv, "--tol", "1e-16")
        assert (rc, out) == (3, "")
        assert err.startswith("error: root not certified to tol=1e-16: its certified bracket [")
        least = err.rstrip().rsplit(" ", 1)[1]
        assert "is 3.33e-15 wide, and the least tol that passes is " + least in err
        lo, hi = json.loads(err[err.index("["):err.index("]") + 1])
        assert hi - lo == float(least)
        rc, out, _ = run_cli(capsys, *argv, "--tol", least)
        record = json.loads(out)
        assert rc == 0 and record["tol"] == float(least)
        assert lo <= record["radius"] <= hi

    @pytest.mark.parametrize(
        "tag,params", [("wh-alpha", ["--alpha", "0.5"]), ("gh-k-alpha", ["--k", "2", "--alpha", "0.5"])]
    )
    def test_uncertified_distance_constant_names_both_tolerances(self, capsys, tag, params):
        # d* of the summed-majorant families takes no tolerance of its own,
        # so what --tol can fail to certify is the root against it: the
        # error names the requested tol and the least tol that passes, and
        # the rerun at that tol reports the same d*.
        argv = ["radius", "--class", tag, *params]
        rc, out, err = run_cli(capsys, *argv, "--tol", "1e-15")
        assert (rc, out) == (3, "")
        assert err.startswith("error: root not certified to tol=1e-15: its certified bracket [")
        least = err.rstrip().rsplit(" ", 1)[1]
        assert "and the least tol that passes is " + least in err
        lo, hi = json.loads(err[err.index("["):err.index("]") + 1])
        rc, out, _ = run_cli(capsys, *argv, "--tol", least)
        record = json.loads(out)
        assert rc == 0 and record["tol"] == float(least)
        assert lo <= record["radius"] <= hi
        rc, out, _ = run_cli(capsys, *argv, "--tol", "1e-14")
        assert rc == 0 and json.loads(out)["d_star"] == record["d_star"]

    def test_infinite_tol_flag_is_invalid(self, capsys):
        rc, out, err = run_cli(
            capsys, "radius", "--class", "ph-alpha", "--alpha", "0.1", "--tol", "inf"
        )
        assert rc == 2
        assert out == ""
        assert "tol must be finite" in err


class TestScanCommand:
    def test_ph_alpha_sweep_rows(self, capsys):
        rc, out, _ = run_cli(
            capsys, "scan", "--class", "ph-alpha", "--alpha", "0:0.9:0.1"
        )
        assert rc == 0
        rows = [json.loads(line) for line in out.strip().splitlines()]
        assert len(rows) == 10
        radii = [row["radius"] for row in rows]
        assert radii == sorted(radii)
        assert radii[0] == pytest.approx(0.28519408763722215, abs=1e-9)

    def test_tb_sweep_decreasing(self, capsys):
        rc, out, _ = run_cli(capsys, "scan", "--class", "tb-m", "--m", "0.1:1.9:0.2")
        rows = [json.loads(line) for line in out.strip().splitlines()]
        assert len(rows) == 10
        radii = [row["radius"] for row in rows]
        assert radii == sorted(radii, reverse=True)
        assert rows[0]["radius"] == pytest.approx(0.90871211463571441, abs=1e-10)

    def test_lacunary_single_point_matches_base_family(self, capsys):
        rc, out, _ = run_cli(
            capsys, "scan", "--class", "gh-k-alpha", "--k", "1", "--alpha", "1:1:1"
        )
        rows = [json.loads(line) for line in out.strip().splitlines()]
        assert len(rows) == 1
        assert rows[0]["radius"] == pytest.approx(0.28519408763722215, abs=1e-9)

    def test_csv_output_has_header(self, capsys):
        rc, out, _ = run_cli(
            capsys,
            "scan", "--class", "gt-beta", "--beta", "0:0.45:0.05", "--format", "csv",
        )
        lines = out.strip().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 11  # header + beta in {0, 0.05, ..., 0.45}
        assert all(line.startswith("gt-beta,beta,") for line in lines[1:])

    def test_range_flag_sweeps_canonical_parameter(self, capsys):
        rc, out, _ = run_cli(
            capsys, "scan", "--class", "ph-m", "--range", "0.1:0.5:0.2"
        )
        rows = [json.loads(line) for line in out.strip().splitlines()]
        assert [row["params"]["m"] for row in rows] == pytest.approx([0.1, 0.3, 0.5])

    def test_range_with_fixed_secondary_parameter(self, capsys):
        rc, out, _ = run_cli(
            capsys,
            "scan", "--class", "gh-k-alpha", "--k", "2", "--range", "0.5:1.5:0.5",
        )
        rows = [json.loads(line) for line in out.strip().splitlines()]
        assert len(rows) == 3  # alpha in {0.5, 1.0, 1.5}
        assert all(row["params"]["k"] == 2 for row in rows)

    def test_range_and_grid_together_rejected(self, capsys):
        rc, _, err = run_cli(
            capsys,
            "scan", "--class", "ph-alpha", "--range", "0:0.5:0.1", "--alpha", "0.3",
        )
        assert rc == 2

    def test_sweep_leaving_domain_fails_cleanly(self, capsys):
        rc, out, err = run_cli(
            capsys, "scan", "--class", "gt-beta", "--beta", "0.4:0.6:0.05"
        )
        assert rc == 2
        assert out == ""


    def test_a_one_point_grid_below_an_ulp_prints_its_record(self, capsys):
        rc, out, err = run_cli(capsys, "scan", "--class", "ph-alpha", "--alpha", "0.1:0.1:1e-300")
        assert (rc, err) == (0, "")
        rc, one, _ = run_cli(capsys, "radius", "--class", "ph-alpha", "--alpha", "0.1")
        assert out == one and len(out.splitlines()) == 1


class TestTableCommand:
    def test_header_and_row_count(self, capsys):
        rc, out, _ = run_cli(
            capsys, "table", "--class", "ph-alpha", "--range", "0:0.95:0.05"
        )
        assert rc == 0
        lines = out.strip().splitlines()
        assert lines[0] == "alpha,radius"
        assert len(lines) == 21  # header + alpha in {0, 0.05, ..., 0.95}

    def test_gt_curve_endpoints(self, capsys):
        rc, out, _ = run_cli(
            capsys, "table", "--class", "gt-beta", "--range", "0:0.46:0.05"
        )
        lines = out.strip().splitlines()
        assert lines[0] == "beta,radius"
        first = lines[1].split(",")
        last = lines[-1].split(",")
        assert float(first[0]) == 0.0 and float(first[1]) == 0.0
        assert float(last[0]) == 0.45
        assert float(last[1]) == pytest.approx(0.30397246486906385, abs=1e-10)


    def test_a_one_point_range_outside_the_domain_exits_2(self, capsys):
        rc, out, err = run_cli(capsys, "table", "--class", "tb-m", "--range", "1.7e308:1.7e308:1")
        assert (rc, out) == (2, "")
        assert err == "error: m must satisfy 0 < m < 2, got 1.7e+308\n"


class TestVerifyCommand:
    def test_filtered_run_passes(self, capsys):
        rc, out, err = run_cli(capsys, "verify", "--only", "sharpness")
        assert rc == 0
        lines = out.strip().splitlines()
        assert sum(1 for line in lines if line.startswith("PASS sharpness-")) == 6
        assert lines[-1] == "6/6 checks passed"

    def test_family_filter(self, capsys):
        rc, out, _ = run_cli(capsys, "verify", "--class", "gt-beta", "--only", "closed")
        assert rc == 0
        assert "closed-vs-bisection-gt-beta" in out

    def test_jacobian_tag_maps_to_quadratic_family(self, capsys):
        rc, out, _ = run_cli(
            capsys, "verify", "--class", "tb-m-jacobian", "--only", "jacobian"
        )
        assert rc == 0
        assert "jacobian-half-identity-tb-m" in out

    def test_empty_selection_exits_two(self, capsys):
        rc, out, err = run_cli(capsys, "verify", "--only", "zzz-no-such")
        assert rc == 2
        assert out == ""
        assert "no checks matched" in err

    def test_json_lines_name_the_same_checks(self, capsys):
        # Each record carries the name, verdict and detail of its text line.
        rc, text, _ = run_cli(capsys, "verify")
        assert rc == 0
        lines = text.splitlines()[:-1]
        rc, out, err = run_cli(capsys, "verify", "--json")
        assert rc == 0 and err == ""
        records = [json.loads(line) for line in out.splitlines()]
        assert len(records) == len(lines) == 51
        for r, line in zip(records, lines):
            assert set(r) == {"name", "passed", "detail", "seconds"}
            assert r["passed"] is True
            assert r["seconds"] >= 0.0
            status = "PASS" if r["passed"] else "FAIL"
            assert line == f"{status} {r['name']}: {r['detail']}"

    def test_json_failure_keeps_stderr_and_exit_code(self, capsys, monkeypatch):
        from harmbohr import verifier

        monkeypatch.setattr(verifier, "jacobian_radius", lambda m: float("nan"))
        rc, out, err = run_cli(capsys, "verify", "--json", "--only", "jacobian-half")
        assert rc == 1
        (record,) = [json.loads(line) for line in out.splitlines()]
        assert record["passed"] is False
        assert err == "failing checks: jacobian-half-identity-tb-m\n"


    def test_json_prints_a_numpy_verdict(self, capsys, monkeypatch):
        # A check may compute its verdict in numpy; the record still
        # prints a JSON boolean.
        import numpy as np

        from harmbohr import verifier

        check = verifier._Check(
            "numpy-verdict", lambda: (np.bool_(True), "ok"), fams=tuple(verifier.Family)
        )
        monkeypatch.setattr(verifier, "_build_registry", lambda: [check])
        rc, out, err = run_cli(capsys, "verify", "--json")
        assert rc == 0 and err == ""
        (record,) = [json.loads(line) for line in out.splitlines()]
        assert record["passed"] is True


class TestEnvironmentOverrides:
    def test_tol_from_environment(self, capsys, monkeypatch):
        monkeypatch.setenv("BOHR_TOL", "1e-6")
        _, out, _ = run_cli(capsys, "radius", "--class", "gt-beta", "--beta", "0.3")
        assert json.loads(out)["tol"] == 1e-6

    def test_flag_overrides_environment(self, capsys, monkeypatch):
        monkeypatch.setenv("BOHR_TOL", "1e-6")
        _, out, _ = run_cli(
            capsys, "radius", "--class", "gt-beta", "--beta", "0.3", "--tol", "1e-10"
        )
        assert json.loads(out)["tol"] == 1e-10

    def test_infinite_environment_tol_is_invalid(self, capsys, monkeypatch):
        monkeypatch.setenv("BOHR_TOL", "inf")
        rc, out, err = run_cli(capsys, "radius", "--class", "gt-beta", "--beta", "0.3")
        assert rc == 2
        assert out == ""
        assert "tol must be finite" in err

    def test_malformed_environment_value(self, capsys, monkeypatch):
        monkeypatch.setenv("BOHR_TOL", "not-a-number")
        rc, out, err = run_cli(capsys, "radius", "--class", "gt-beta", "--beta", "0.3")
        assert rc == 2
        assert "BOHR_TOL" in err


class TestEntrypoint:
    def test_raises_system_exit_with_cli_code(self, capsys, monkeypatch):
        from harmbohr.cli import entrypoint

        monkeypatch.setattr(
            sys, "argv", ["harmbohr", "radius", "--class", "tb-m", "--m", "1"]
        )
        before = gc.get_freeze_count(), gc.isenabled()
        with pytest.raises(SystemExit) as exc_info:
            entrypoint()
        assert exc_info.value.code == 0
        # The collector is frozen only once the interpreter exits.
        assert (gc.get_freeze_count(), gc.isenabled()) == before

    def test_main_leaves_the_collector_alone(self, capsys):
        before = gc.get_freeze_count(), gc.isenabled()
        for argv in (["radius", "--class", "wh-alpha", "--alpha", "0.5"], ["radius", "--bad"]):
            main(argv)
            assert (gc.get_freeze_count(), gc.isenabled()) == before


class TestParserBuiltOnce:
    """main builds its parser on the first call and reuses it; each call
    still parses its own argv, reads BOHR_TOL and formats help, usage and
    errors for its own streams and terminal width."""

    # (argv, environment) per call, over DEFAULT_ENV: None unsets a variable.
    DEFAULT_ENV = {"COLUMNS": "80", "BOHR_TOL": None}
    SEQUENCE = [
        (["radius", "--class", "wh-alpha", "--alpha", "0.5"], {}),
        (["radius", "--class", "gh-k-alpha", "--k", "2", "--alpha", "1", "--format", "csv"], {}),
        (["scan", "--class", "wh-alpha", "--alpha", "0:0.2:0.1", "--format", "csv"], {}),
        (["scan", "--class", "gh-k-alpha", "--k", "2", "--range", "1:1.5:0.25"], {}),
        (["table", "--class", "tb-m", "--range", "0.5:1:0.25"], {}),
        (["verify", "--only", "reduction"], {}),
        (["radius", "--class", "gt-beta", "--beta", "0.5"], {}),
        (["radius", "--class", "ph-alpha", "--alpha", "0.3", "--tol", "1e-16"], {}),
        (["radius", "--class", "nope", "--alpha", "0"], {}),
        (["radius", "--help"], {"COLUMNS": "200"}),
        (["radius", "--help"], {"COLUMNS": "60"}),
        (["radius", "--class", "gt-beta", "--beta", "0.3"], {"BOHR_TOL": "1e-6"}),
        (["radius", "--class", "gt-beta", "--beta", "0.3"], {"BOHR_TOL": None}),
    ]

    def run_sequence(self, capsys, monkeypatch):
        runs = []
        for argv, env in self.SEQUENCE:
            for name, value in {**self.DEFAULT_ENV, **env}.items():
                if value is None:
                    monkeypatch.delenv(name, raising=False)
                else:
                    monkeypatch.setenv(name, value)
            rc = main(argv)
            runs.append((rc, *capsys.readouterr()))
        return runs

    def test_calls_match_a_fresh_parser(self, capsys, monkeypatch):
        with monkeypatch.context() as fresh:
            fresh.setattr(cli, "_parser", cli.build_parser)
            expect = self.run_sequence(capsys, monkeypatch)
        assert [run[0] for run in expect] == [0, 0, 0, 0, 0, 0, 2, 3, 2, 0, 0, 0, 0]
        # The two help texts differ: the width is read when help is printed.
        assert expect[9] != expect[10]
        assert json.loads(expect[11][1])["tol"] == 1e-6
        assert json.loads(expect[12][1])["tol"] == 1e-12
        cli._parser.cache_clear()
        for _ in range(2):
            assert self.run_sequence(capsys, monkeypatch) == expect
        assert cli._parser() is cli._parser()

    def test_later_calls_construct_no_parser(self, capsys, monkeypatch):
        main(["radius", "--class", "tb-m", "--m", "1"])
        built = []
        init = argparse.ArgumentParser.__init__

        def counting(parser, *args, **kwargs):
            built.append(parser)
            init(parser, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        for argv in (
            ["radius", "--class", "tb-m", "--m", "1"],
            ["radius", "--class", "ph-alpha", "--alpha", "0.2", "--format", "csv"],
            ["scan", "--class", "gt-beta", "--beta", "0:0.2:0.1"],
            ["table", "--class", "ph-m", "--range", "0.1:0.3:0.1"],
            ["radius", "--class", "gt-beta", "--beta", "0.5"],
        ):
            main(argv)
        capsys.readouterr()
        assert built == []
        # The counter sees a parser being built.
        cli.build_parser()
        assert built

    def test_build_parser_returns_a_new_parser(self):
        first, second = cli.build_parser(), cli.build_parser()
        assert first is not second
        assert cli._parser() is not first and cli._parser() is not second


class TestScanLanes:
    """A scan solves its whole grid at once, one lane per point."""

    @pytest.mark.parametrize(
        "tag,fixed,grid",
        [
            ("wh-alpha", [], "0:1:0.05"),
            ("gh-k-alpha", ["--k", "2"], "0.5:2.5:0.1"),
            ("ph-alpha", [], "0:0.95:0.0475"),
            ("ph-m", [], "0.05:1.25:0.06"),
        ],
    )
    def test_rows_are_the_single_point_records(self, capsys, tag, fixed, grid):
        rc, out, _ = run_cli(capsys, "scan", "--class", tag, *fixed, "--range", grid)
        assert rc == 0
        rows = out.splitlines()
        assert len(rows) == 21
        for row in rows:
            params = json.loads(row)["params"]
            argv = [arg for name, value in params.items() for arg in (f"--{name}", repr(value))]
            rc, alone, _ = run_cli(capsys, "radius", "--class", tag, *argv)
            assert rc == 0
            assert alone == row + "\n"

    def test_first_failing_point_fails_the_scan(self, capsys):
        # With one step allowed, alpha = 1e-300 solves (d* is below its
        # error bound: radius 0, no step), while 1 and 2 are not localised.
        # The scan reports the first of them.
        argv = ("--class", "gh-k-alpha", "--k", "1", "--max-iter", "1")
        rc, out, err = run_cli(capsys, "scan", *argv, "--alpha", "1e-300:2:1")
        assert rc == 3
        assert out == ""
        single = [run_cli(capsys, "radius", *argv, "--alpha", a) for a in ("1e-300", "1", "2")]
        assert [code for code, _, _ in single] == [0, 3, 3]
        assert "root not localised" in err
        assert err == single[1][2] != single[2][2]

    def test_convergence_failure_before_invalid_point_wins(self, capsys):
        # Point by point, alpha = 0.9 fails to converge before 1.1 is reached.
        argv = ("scan", "--class", "wh-alpha", "--alpha", "0.9:1.1:0.1")
        assert run_cli(capsys, *argv, "--max-iter", "1")[0] == 3
        assert run_cli(capsys, *argv)[0] == 2

    @pytest.mark.parametrize("k,alpha", [(1, "1e7"), (1, "1e8"), (1, "1e9"), (2, "1e7")])
    def test_failing_solve_fails_fast(self, capsys, k, alpha):
        t0 = time.perf_counter()
        rc, out, err = run_cli(
            capsys, "radius", "--class", "gh-k-alpha", "--k", str(k), "--alpha", alpha,
            "--max-iter", "1",
        )
        assert rc == 3
        assert out == ""
        assert "root not localised to tol=1e-12 within 1 iterations" in err
        assert time.perf_counter() - t0 < 0.3

    # Roots of B = d* next to r = 1 by mpmath (see tests/test_solver.py),
    # where a power-series B would need more than 2^20 terms.
    @pytest.mark.parametrize(
        "k,alpha,root",
        [
            (1_000_000, "1", 0.99999002935826),
            (1, "1e7", 0.99999729713770),
            (1, "1e9", 0.99999996431655),
            (2, "1e7", 0.99999754704706),
        ],
    )
    def test_roots_next_to_one_are_solved(self, capsys, k, alpha, root):
        t0 = time.perf_counter()
        rc, out, err = run_cli(
            capsys, "radius", "--class", "gh-k-alpha", "--k", str(k), "--alpha", alpha
        )
        assert (rc, err) == (0, "")
        assert json.loads(out)["radius"] == pytest.approx(root, abs=1e-12)
        assert time.perf_counter() - t0 < 0.3


class TestChunkedScan:
    """compute_records solves a grid in chunks of _CHUNK_LANES lanes, in
    order.  Patched to 7 lanes, a grid that fails in a later chunk fails
    as it does in one chunk, with the error of its first failing point."""

    @pytest.mark.parametrize(
        "tag,name,grid,extra,first",
        [
            # From alpha = 0.35 on, ph-alpha takes 3 Newton steps: with 2
            # allowed, lane 14 is the first to fail, in the third chunk.
            ("ph-alpha", "alpha", "0:0.95:0.025", ["--max-iter", "2"], 14),
            # Lane 7 fails to converge, in the second chunk, before the grid
            # leaves the domain at alpha = 1, in the third.
            ("ph-alpha", "alpha", "0:1.1:0.05", ["--max-iter", "2"], 7),
            # The grid leaves the domain at m = 2 inside a later chunk, and
            # as the first lane of one.
            ("tb-m", "m", "1:2.5:0.1", [], 10),
            ("tb-m", "m", "1.3:2.5:0.1", [], 7),
            ("tb-m-jacobian", "m", "1:2.5:0.1", [], 10),
        ],
    )
    def test_first_failing_point_in_a_later_chunk(
        self, capsys, monkeypatch, tag, name, grid, extra, first
    ):
        def radius(value):
            return run_cli(capsys, "radius", "--class", tag, f"--{name}", repr(value), *extra)

        values = parse_grid(grid)
        assert all(radius(value)[0] == 0 for value in values[:first])
        alone = radius(values[first])
        assert alone[0] in (2, 3) and alone[1] == ""
        argv = ("scan", "--class", tag, f"--{name}", grid, *extra)
        assert run_cli(capsys, *argv) == alone
        monkeypatch.setattr(cli, "_CHUNK_LANES", 7)
        assert run_cli(capsys, *argv) == alone

    def test_chunks_solve_in_order_and_stop_at_the_failing_one(self, capsys, monkeypatch):
        # The chunks after the one holding the first failing point are
        # never solved.
        solved, solve_chunk = [], cli._solve_chunk

        def counted(tag, spec, cfg):
            solved.append(spec.alpha.tolist())
            return solve_chunk(tag, spec, cfg)

        monkeypatch.setattr(cli, "_CHUNK_LANES", 7)
        monkeypatch.setattr(cli, "_solve_chunk", counted)
        rc, _, _ = run_cli(capsys, "scan", "--class", "ph-alpha", "--alpha", "0:0.95:0.025",
                           "--max-iter", "2")
        assert rc == 3
        values = parse_grid("0:0.95:0.025")
        assert solved == [values[0:7], values[7:14], values[14:21]]


    @pytest.mark.parametrize("tag", ["wh-alpha", "tb-m-jacobian"])
    def test_chunks_are_copied_into_one_record_and_released(self, monkeypatch, tag):
        # A multi-chunk grid keeps at most the chunk being solved and the
        # one before it alive, and returns the lanes of every chunk in
        # order; a one-chunk grid returns its chunk's record as it is.
        from harmbohr.solver import SolverConfig

        name = cli._EXPECTED_PARAMS[tag][-1]
        values = parse_grid("0.05:0.95:0.03")
        chunks, solve_chunk = [], cli._solve_chunk

        def tracked(tag, spec, cfg):
            assert sum(ref() is not None for ref, _ in chunks) <= 1
            lanes = solve_chunk(tag, spec, cfg)
            chunks.append((weakref.ref(lanes.radius), lanes.d_star.value.copy()))
            return lanes

        monkeypatch.setattr(cli, "_solve_chunk", tracked)
        _, whole = cli.compute_records(tag, {}, name, values, SolverConfig())
        assert len(chunks) == 1 and chunks[0][0]() is whole.radius
        chunks.clear()
        monkeypatch.setattr(cli, "_CHUNK_LANES", 7)
        _, lanes = cli.compute_records(tag, {}, name, values, SolverConfig())
        assert len(chunks) == 5 and all(ref() is None for ref, _ in chunks)
        assert lanes.method is whole.method
        for field in ("radius", "residual", "bracket_lo", "bracket_hi", "iterations"):
            got, want = getattr(lanes, field), getattr(whole, field)
            assert got.dtype == want.dtype and np.array_equal(got, want)
        assert np.array_equal(lanes.d_star.value, np.concatenate([d for _, d in chunks]))
        assert np.array_equal(lanes.d_star.error_bound, whole.d_star.error_bound)


class TestScanFromLanes:
    """A scan is one lane spec end to end, and every row it prints is the
    record ``radius`` prints for that point alone."""

    GRIDS = {
        "ph-alpha": ([], "0:0.95:0.0475"),
        "gt-beta": ([], "0:0.49:0.0245"),
        "wh-alpha": ([], "0:1:0.05"),
        "gh-k-alpha": (["--k", "3"], "0.1:4.1:0.2"),
        "tb-m": ([], "0.05:1.95:0.095"),
        "ph-m": ([], "0.05:1.25:0.06"),
        "tb-m-jacobian": ([], "0.05:1.95:0.095"),
    }

    @pytest.mark.parametrize("tag", sorted(GRIDS))
    def test_csv_json_and_table_rows_are_the_radius_records(self, capsys, tag):
        fixed, grid = self.GRIDS[tag]
        sweep = [*fixed, "--range", grid]
        rc, json_out, _ = run_cli(capsys, "scan", "--class", tag, *sweep)
        assert rc == 0
        rc, csv_out, _ = run_cli(capsys, "scan", "--class", tag, *sweep, "--format", "csv")
        assert rc == 0
        rc, table_out, _ = run_cli(capsys, "table", "--class", tag, *sweep)
        assert rc == 0
        json_rows = json_out.splitlines()
        csv_header, *csv_rows = csv_out.splitlines()
        table_header, *table_rows = table_out.splitlines()
        swept = list(json.loads(json_rows[0])["params"])[-1]
        assert len(json_rows) == len(csv_rows) == len(table_rows) == 21
        assert csv_header == CSV_HEADER
        assert table_header == f"{swept},radius"
        for json_row, csv_row, table_row in zip(json_rows, csv_rows, table_rows):
            params = json.loads(json_row)["params"]
            argv = [arg for key, value in params.items() for arg in (f"--{key}", repr(value))]
            rc, alone, _ = run_cli(capsys, "radius", "--class", tag, *argv)
            assert rc == 0
            assert alone == json_row + "\n"
            rc, alone_csv, _ = run_cli(capsys, "radius", "--class", tag, *argv, "--format", "csv")
            assert rc == 0
            assert alone_csv == f"{CSV_HEADER}\n{csv_row}\n"
            assert table_row == ",".join(csv_row.split(",")[2:4])

    @pytest.mark.parametrize(
        "argv,point",
        [
            # The first point lies outside the domain.
            (("scan", "--class", "tb-m", "--m", "0:1:0.25"), ("--m", "0.0")),
            (("scan", "--class", "wh-alpha", "--alpha=-0.5:0.5:0.1"), ("--alpha=-0.5",)),
            (("scan", "--class", "tb-m-jacobian", "--m", "0:1:0.25"), ("--m", "0.0")),
            (("scan", "--class", "gh-k-alpha", "--k", "0", "--alpha", "1:2:0.5"),
             ("--k", "0", "--alpha", "1.0")),
            # The grid leaves the domain mid-way.
            (("scan", "--class", "wh-alpha", "--alpha", "0.5:1.2:0.1"),
             ("--alpha", repr(0.5 + 6 * 0.1))),
            (("scan", "--class", "ph-m", "--m", "1:1.4:0.1", "--format", "csv"),
             ("--m", repr(1.0 + 3 * 0.1))),
            (("scan", "--class", "tb-m-jacobian", "--m", "1.5:2.5:0.1"),
             ("--m", repr(1.5 + 5 * 0.1))),
            (("table", "--class", "wh-alpha", "--alpha", "0.5:1.2:0.1"),
             ("--alpha", repr(0.5 + 6 * 0.1))),
            (("table", "--class", "gt-beta", "--range", "0.4:0.6:0.05"),
             ("--beta", repr(0.4 + 2 * 0.05))),
        ],
    )
    def test_invalid_point_fails_as_radius_does(self, capsys, argv, point):
        rc, out, err = run_cli(capsys, *argv)
        single = run_cli(capsys, "radius", "--class", argv[2], *point)
        assert single[:2] == (2, "")
        assert (rc, out, err) == single
        assert err.startswith("error: ") and "must" in err

    @pytest.mark.parametrize(
        "tag,sweep",
        [("wh-alpha", ["--alpha", "0:1:0.001"]),
         ("gh-k-alpha", ["--k", "2", "--range", "0.5:2:0.0015"]),
         ("tb-m-jacobian", ["--m", "0.001:1.001:0.001"])],
    )
    def test_a_scan_builds_one_spec(self, capsys, monkeypatch, tag, sweep):
        from harmbohr import cli

        make_spec, calls = cli.make_spec, []

        def counted(*args, **kwargs):
            calls.append(kwargs)
            return make_spec(*args, **kwargs)

        monkeypatch.setattr(cli, "make_spec", counted)
        rc, out, _ = run_cli(capsys, "scan", "--class", tag, *sweep, "--format", "csv")
        assert rc == 0
        assert len(out.splitlines()) == 1 + 1001
        assert len(calls) <= 1

    def test_json_rows_with_non_finite_floats_print_as_json_dumps(self, capsys, monkeypatch):
        # A row's floats go through one %r template, which prints nan and
        # inf; a non-finite one must print as json.dumps does (NaN, Infinity).
        from harmbohr import cli

        compute_records = cli.compute_records

        def non_finite(*args):
            params, lanes = compute_records(*args)
            lanes.residual[1], lanes.d_star.value[2] = float("nan"), float("inf")
            return params, lanes

        argv = ("scan", "--class", "gh-k-alpha", "--k", "2", "--alpha", "0.5:1.5:0.25")
        rc, finite, _ = run_cli(capsys, *argv)
        assert rc == 0
        monkeypatch.setattr(cli, "compute_records", non_finite)
        rc, out, _ = run_cli(capsys, *argv)
        assert rc == 0
        rows, expected = out.splitlines(), finite.splitlines()
        assert '"residual": NaN' in rows[1] and '"d_star": Infinity' in rows[2]
        nan_row, inf_row = json.loads(expected[1]), json.loads(expected[2])
        nan_row["residual"], inf_row["d_star"] = float("nan"), float("inf")
        assert rows == [expected[0], json.dumps(nan_row), json.dumps(inf_row), *expected[3:]]

    def test_non_finite_rows_in_one_batch_leave_the_others_alone(self, capsys, monkeypatch):
        # Rows go out in batches; a batch with a non-finite float prints
        # through json.dumps, and every other batch through the template,
        # which agrees with json.dumps on finite floats.
        from harmbohr import cli

        compute_records = cli.compute_records

        def non_finite(*args):
            params, lanes = compute_records(*args)
            lanes.radius[3] = float("-inf")
            return params, lanes

        argv = ("scan", "--class", "wh-alpha", "--alpha", "0:1:0.125")
        rc, finite, _ = run_cli(capsys, *argv)
        monkeypatch.setattr(cli, "compute_records", non_finite)
        monkeypatch.setattr(cli, "_ROW_BATCH", 2)
        rc, out, _ = run_cli(capsys, *argv)
        assert rc == 0
        expected = finite.splitlines()
        row = json.loads(expected[3])
        row["radius"] = float("-inf")
        assert out.splitlines() == [*expected[:3], json.dumps(row), *expected[4:]]
        assert '"radius": -Infinity' in out.splitlines()[3]


def _edge_cases():
    below = lambda x: math.nextafter(x, 0.0)  # noqa: E731
    cases = [
        ("ph-alpha", {"alpha": 0.0}), ("ph-alpha", {"alpha": below(1.0)}),
        ("gt-beta", {"beta": 0.0}), ("gt-beta", {"beta": below(0.5)}),
        ("wh-alpha", {"alpha": 0.0}), ("wh-alpha", {"alpha": 1.0}),
        ("ph-m", {"m": 5e-324}), ("ph-m", {"m": below(harmbohr.PH_M_SUP)}),
    ]
    cases += [("gh-k-alpha", {"k": k, "alpha": a}) for k in (1, 10**17) for a in (1e-300, 1e300)]
    cases += [(t, {"m": m}) for t in ("tb-m", "tb-m-jacobian") for m in (5e-324, 1e-17, 2 - 2**-52)]
    return cases


class TestDomainEdges:
    """Each tag at the extremes of its valid parameters, warnings as errors:
    a radius in [0, 1), or exit 3 with a message."""

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "tag,params", _edge_cases(), ids=lambda v: v if isinstance(v, str) else repr(v)
    )
    def test_extreme_parameters_solve_or_fail_cleanly(self, capsys, tag, params):
        argv = [arg for name, value in params.items() for arg in (f"--{name}", repr(value))]
        rc, out, err = run_cli(capsys, "radius", "--class", tag, *argv)
        if rc == 0:
            assert err == ""
            assert 0.0 <= json.loads(out)["radius"] < 1.0
        else:
            assert (rc, out) == (3, "")
            assert err.startswith("error: ")

    @pytest.mark.parametrize("m", ["1e-17", "1e-300", "5e-324"])
    def test_tb_m_root_rounding_to_one_is_capped_below_it(self, capsys, m):
        # The closed form rounds to 1.0 for m below about 1.1e-16.
        rc, out, err = run_cli(capsys, "radius", "--class", "tb-m", "--m", m)
        assert (rc, err) == (0, "")
        assert 0.0 < json.loads(out)["radius"] < 1.0


class TestCommandLineFuzz:
    """Seeded random command lines through ``main``, warnings as errors:
    every one ends in a documented exit code, with no traceback, nothing on
    stdout when ``radius`` or ``scan`` fails, and only finite numbers on
    stdout when it succeeds."""

    FLOATS = ("5e-324", "1.7e308", "nan", "inf", "-inf", "-0.0", "0", "1e-320", "abc", "")
    KS = ("0", "1", "2", "3", "10", str(10**17), str(10**23), "-1", "1.5", "x")

    @classmethod
    def value(cls, rng, name):
        if name == "k":
            return rng.choice(cls.KS) if rng.random() < 0.7 else str(rng.randint(1, 10**23))
        return rng.choice(cls.FLOATS) if rng.random() < 0.4 else repr(rng.uniform(-0.1, 2.1))

    @classmethod
    def grid(cls, rng):
        """A lo:hi:step text of at most 10^3 points, or a malformed one."""
        shape = rng.random()
        lo = rng.uniform(0.0, 2.0) if rng.random() < 0.7 else float(rng.choice(cls.FLOATS[:6]))
        if shape < 0.2:
            # One point, the step below half an ulp of hi.
            return f"{lo!r}:{lo!r}:{rng.choice((1e-300, 5e-324, math.ulp(lo) / 4 or 5e-324))!r}"
        if shape < 0.3:
            return rng.choice(("a:b:c", "1:0:0.1", "0:1", "0:1:0", "nan:1:0.1", "0:inf:1", "0:1:-1"))
        step = rng.choice((1e-3, 0.01, 0.05, 0.3, 1.0, 5e-324, 1e300))
        hi = lo + rng.randint(0, 999) * step
        if math.isfinite(hi) and step > 0 and (hi - lo) / step + 1.0 > 1000:
            hi = lo
        return f"{lo!r}:{hi!r}:{step!r}"

    @classmethod
    def command_line(cls, rng):
        command = rng.choice(("radius", "scan", "table"))
        tag = rng.choice(cli.CLASS_TAGS)
        names = list(cli._EXPECTED_PARAMS[tag])
        if rng.random() < 0.1:
            names.append(rng.choice(("alpha", "beta", "m", "k")))
        values = {name: cls.value(rng, name) for name in names}
        argv = [command, "--class", tag]
        if command != "radius":
            swept = names[-1] if names[-1] != "k" else "alpha"
            if rng.random() < 0.5:
                values.pop(cli._EXPECTED_PARAMS[tag][-1], None)
                argv += ["--range", cls.grid(rng)]
            else:
                values[swept] = cls.grid(rng)
        for name, value in values.items():
            argv.append(f"--{name}={value}")
        if rng.random() < 0.3:
            argv.append(f"--max-iter={rng.randint(0, 3)}")
        if rng.random() < 0.2:
            argv.append(f"--tol={rng.choice(('1e-12', '1e-6', '0.9', '5e-324', '1e308', 'nan'))}")
        if command != "table" and rng.random() < 0.5:
            argv.append("--format=csv")
        return argv

    @staticmethod
    def numbers(out):
        """Every number of a JSON, CSV or table record on stdout."""
        for line in out.splitlines():
            if line.startswith("{"):
                record = json.loads(line)
                yield from (v for v in (*record.values(), *record["params"].values())
                            if isinstance(v, (int, float)) and not isinstance(v, bool))
                continue
            for field in line.split(","):
                try:
                    yield float(field)
                except ValueError:
                    pass

    def test_seeded_command_lines_end_cleanly(self, capsys):
        rng = random.Random(20261021)
        for _ in range(1000):
            argv = self.command_line(rng)
            try:
                rc, out, err = run_cli(capsys, *argv)
            except Exception as exc:  # noqa: BLE001 - any escape is the failure
                pytest.fail(f"{argv} raised {type(exc).__name__}: {exc}")
            assert rc in (0, 1, 2, 3), argv
            if rc:
                assert err, argv
                if argv[0] in ("radius", "scan"):
                    assert out == "", argv
            else:
                found = list(self.numbers(out))
                assert found and all(math.isfinite(v) for v in found), (argv, out)

    def test_a_grid_one_point_too_large_exits_2_before_any_solve(self, capsys, monkeypatch):
        def no_solve(*args):
            raise AssertionError("solved a grid past MAX_GRID_POINTS")

        monkeypatch.setattr(cli, "compute_records", no_solve)
        grid = f"0:{cli.MAX_GRID_POINTS}:1"
        rc, out, err = run_cli(capsys, "scan", "--class", "ph-alpha", "--alpha", grid)
        assert (rc, out) == (2, "")
        assert err == f"error: grid {grid!r} has more than {cli.MAX_GRID_POINTS} points\n"


class TestBenchmarkSurface:
    """The names the benchmark harness under ``perfbench/`` calls in
    ``harmbohr.cli``; that harness runs outside this suite."""

    def test_csv_header(self):
        from harmbohr import cli

        assert cli.CSV_HEADER == "class,param_name,param_value,radius,residual,method"

    def test_parse_grid_is_lo_plus_i_step(self):
        from harmbohr import cli

        lo, step = 0.00037, 0.000999
        values = cli.parse_grid(f"{lo!r}:{lo + 1000 * step!r}:{step!r}")
        assert values == [lo + i * step for i in range(1001)]

    def test_solver_and_classes_reexports(self):
        from harmbohr import classes, cli, solver

        assert cli.solve_radius is solver.solve_radius
        assert cli.distance_bound is classes.distance_bound

    @pytest.mark.parametrize(
        "tag,params,sweep",
        [("wh-alpha", {"alpha": 0.25}, ["--alpha", "0.2:0.3:0.05"]),
         ("gh-k-alpha", {"k": 2, "alpha": 1.25}, ["--k", "2", "--range", "1:1.5:0.25"]),
         ("gt-beta", {"beta": 0.25}, ["--beta", "0.2:0.3:0.05"]),
         ("tb-m-jacobian", {"m": 0.25}, ["--m", "0.2:0.3:0.05"])],
    )
    def test_compute_record_is_the_scan_row(self, capsys, tag, params, sweep):
        from harmbohr import cli
        from harmbohr.solver import SolverConfig

        record = cli.compute_record(tag, params, SolverConfig(), 1e-12)
        assert 0.0 < record.radius < 1.0
        rc, out, _ = run_cli(capsys, "scan", "--class", tag, *sweep, "--format", "csv")
        assert rc == 0
        assert out.splitlines()[2] == record.to_csv_row()


def run_python(*args):
    """A fresh interpreter with this package's sources on its path."""
    src = str(Path(harmbohr.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=120
    )


class TestModuleEntryPoints:
    @pytest.mark.parametrize("module", ["harmbohr", "harmbohr.cli"])
    def test_python_dash_m_prints_the_record(self, capsys, module):
        argv = ["radius", "--class", "tb-m", "--m", "1"]
        proc = run_python("-m", module, *argv)
        assert proc.returncode == 0
        # In process, the first call may build the parser and the second
        # reuses it; a cold process builds its own.
        assert proc.stdout == run_cli(capsys, *argv)[1] == run_cli(capsys, *argv)[1]
        assert json.loads(proc.stdout)["radius"] == pytest.approx(math.sqrt(2.0) - 1.0, abs=1e-15)

    # An atexit probe registered before harmbohr is imported runs after every
    # handler harmbohr registers (last in, first out), and prints whether
    # the collector was frozen by then.
    EXIT_PROBE = textwrap.dedent("""
        import atexit, gc, sys
        atexit.register(lambda: print("frozen at exit:", gc.get_freeze_count() > 0))
        from harmbohr import cli
        sys.argv[1:] = ["radius", "--class", "tb-m", "--m", "1"]
        {call}
    """)

    @pytest.mark.parametrize(
        "call,frozen",
        [("cli.entrypoint()", True), ("sys.exit(cli.main(sys.argv[1:]))", False)],
        ids=["entrypoint", "main"],
    )
    def test_only_the_entry_point_freezes_the_collector_at_exit(self, capsys, call, frozen):
        proc = run_python("-c", self.EXIT_PROBE.format(call=call))
        assert proc.returncode == 0, proc.stderr
        record = run_cli(capsys, "radius", "--class", "tb-m", "--m", "1")[1]
        assert proc.stdout == f"{record}frozen at exit: {frozen}\n"

    def test_fresh_interpreter_builds_one_parser_tree(self):
        # Importing the CLI builds no parser; main builds one tree on its
        # first call, as many parsers as one build_parser() makes, and no
        # more on later calls.
        proc = run_python("-c", textwrap.dedent("""
            import argparse, contextlib, io, json
            built = []
            init = argparse.ArgumentParser.__init__
            def counting(parser, *args, **kwargs):
                built.append(parser)
                init(parser, *args, **kwargs)
            argparse.ArgumentParser.__init__ = counting
            import harmbohr.cli as cli
            at_import = len(built)
            with contextlib.redirect_stdout(io.StringIO()):
                codes = [cli.main(["radius", "--class", "tb-m", "--m", "1"]) for _ in range(3)]
            after_main = len(built)
            cli.build_parser()
            print(json.dumps([at_import, after_main, len(built) - after_main, codes]))
        """))
        assert proc.returncode == 0, proc.stderr
        at_import, after_main, one_tree, codes = json.loads(proc.stdout)
        assert at_import == 0
        assert after_main == one_tree > 0
        assert codes == [0, 0, 0]
