import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from geonull import cli, splitting
from geonull.cli import main
from geonull.metricspace import catalog_conullity3
from geonull.splitting import evolve_along_nullity_geodesic

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_flat_space(capsys):
    code, out, err = run_cli(
        capsys, "analyze", "--metric", "euclidean", "--dim", "3", "--point", "0,0,0"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == "geonull/1"
    assert doc["command"] == "analyze"
    assert doc["nullity"]["nullity"] == 3
    assert doc["nullity"]["conullity"] == 0
    assert doc["curvature"]["scalar_trace"] == pytest.approx(0.0, abs=1e-12)
    assert doc["curvature"]["nonflat_plane_curvature"] is None
    assert doc["splitting"] is None
    assert "took" in err and "took" not in out


def test_analyze_conullity3_worked_example(capsys):
    code, out, _ = run_cli(
        capsys, "analyze", "--metric", "conullity3", "--point", "0,0,0,0"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["nullity"]["conullity"] == 3
    assert doc["curvature"]["scalar_trace"] == pytest.approx(0.8, abs=1e-9)
    matrix = doc["splitting"]["matrix"]
    assert matrix[0][1] == pytest.approx(math.sqrt(2.0) / 5.0, abs=1e-8)
    assert doc["splitting"]["classification"]["kind"] == "nilpotent"
    kernel = doc["nullity"]["kernel_basis"][0]
    assert kernel == pytest.approx([0.0, 0.0, 1.0, 0.0], abs=1e-10)


def test_analyze_conullity_two_family(capsys):
    code, out, _ = run_cli(
        capsys, "analyze", "--metric", "sekigawa", "--p", "exp(u)", "--point", "0,0,0"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["nullity"]["conullity"] == 2
    assert doc["curvature"]["scalar_trace"] == pytest.approx(-2.0, abs=1e-9)
    assert doc["curvature"]["half_trace"] == pytest.approx(-1.0, abs=1e-9)
    assert doc["curvature"]["nonflat_plane_curvature"] == pytest.approx(-1.0, abs=1e-8)


def test_analyze_nilpotent_tensor_on_a_sekigawa_warp(capsys):
    # a nearly degenerate nilpotent tensor: eigenvalues about 4e-10 against entries about 0.3
    code, out, _ = run_cli(
        capsys, "analyze", "--metric", "sekigawa", "--p", "3.671764+cos(0.522086*u)+cos(0.998341*x)",
        "--point=-2.0041042190169085,2.8281637094573053,0.48334047502308763",
    )
    assert code == 0
    classification = json.loads(out)["splitting"]["classification"]
    assert classification["kind"] == "nilpotent"
    assert classification["nilpotency_index"] == 2
    assert max(map(abs, classification["eigenvalues_re"] + classification["eigenvalues_im"])) < 1e-8


def test_analyze_sphere_sectional_range_is_exact(capsys):
    code, out, _ = run_cli(capsys, "analyze", "--metric", "sphere", "--point", "1,0")
    assert code == 0
    doc = json.loads(out)
    assert "seed" not in doc
    assert doc["curvature"]["sectional_min"] == pytest.approx(1.0, abs=1e-12)
    assert doc["curvature"]["sectional_max"] == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize(
    "argv",
    [
        ("analyze", "--metric", "sekigawa", "--point", "-0.3,0.5,1e-1"),
        ("flow", "--metric", "conullity3", "--point", "-0.1,0,0,0.2", "--direction", "-0,0,1,0", "--steps", "32"),
    ],
)
def test_negative_number_lists_are_option_values(capsys, argv):
    spaced = run_cli(capsys, *argv)
    joined = list(argv)
    for flag in ("--point", "--direction"):
        if flag in joined:
            i = joined.index(flag)
            joined[i : i + 2] = [f"{flag}={joined[i + 1]}"]
    code, out, _ = run_cli(capsys, *joined)
    assert spaced[0] == code == 0
    assert spaced[1] == out


@pytest.mark.parametrize(
    "argv, point",
    [
        (("analyze", "--metric", "sphere"), [math.pi / 2, 0.0]),
        (("analyze", "--metric", "polar"), [1.0, 0.0]),
        (("analyze", "--metric", "product"), [math.pi / 2, 0.0, 0.0, 0.0]),
        (("analyze", "--metric", "product", "--dim", "3"), [math.pi / 2, 0.0, 0.0]),
        (("analyze", "--metric", "euclidean", "--dim", "2"), [0.0, 0.0]),
        (("flow", "--metric", "product", "--steps", "4", "--tmax", "0.1"), [math.pi / 2, 0.0, 0.0, 0.0]),
    ],
)
def test_default_point_is_inside_the_chart(capsys, argv, point):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert json.loads(out)["point"] == point


def test_analyze_without_complement_has_no_splitting(capsys):
    code, out, _ = run_cli(capsys, "analyze", "--metric", "euclidean", "--dim", "1")
    assert code == 0
    doc = json.loads(out)
    assert (doc["nullity"]["nullity"], doc["nullity"]["conullity"]) == (1, 0)
    assert doc["splitting"] is None


def test_usage_errors_exit_one(capsys):
    assert run_cli(capsys)[0] == 1
    assert run_cli(capsys, "frobnicate")[0] == 1
    assert run_cli(capsys, "scan", "--metric", "euclidean")[0] == 1
    assert run_cli(capsys, "analyze", "--metric", "euclidean", "--point", "bogus")[0] == 1


def test_domain_errors_exit_two(capsys):
    code, out, err = run_cli(capsys, "analyze", "--metric", "sphere", "--point", "0,0")
    assert code == 2
    assert out == ""
    assert "error" in err


@pytest.mark.parametrize(
    "argv, expected",
    [
        (("flow", "--metric", "euclidean", "--dim", "1"), 2),
        (("flow", "--metric", "conullity3", "--direction", "0,0,0,0"), 2),
        (("flow", "--metric", "sphere", "--point", "1,0.5", "--direction", "1,0"), 2),
        (("flow", "--metric", "conullity3", "--steps", "0"), 1),
        (("analyze", "--metric", "conullity3", "--rel-tol", "2"), 1),
        (("analyze", "--metric", "conullity3", "--rel-tol", "nan"), 1),
        (("analyze", "--metric", "conullity3", "--fd-step", "0"), 1),
        (("flow", "--metric", "conullity3", "--tmax", "nan"), 1),
        (("analyze", "--metric", "euclidean", "--dim", "2", "--point", "inf,0"), 1),
        (("scan", "--metric", "euclidean", "--dim", "2", "--grid", "x0=0:nan:2"), 1),
        (("flow", "--metric", "conullity3", "--direction", "0,0,inf,0"), 1),
        (("verify", "--suite", "riccati", "--seed", "-5"), 1),
        (("flow", "--metric", "conullity3", "--tmax", "0", "--steps", "4"), 1),
        (("analyze", "--metric", "sekigawa", "--p", "exp(exp(exp(u)))", "--point", "0,2.9,0"), 2),
        (("scan", "--metric", "euclidean", "--dim", "2", "--grid", "x0=0:1:100000000"), 1),
        (("analyze", "--metric", "sekigawa", "--p", "2+sin(1e999*u)", "--point", "0,0.5,0"), 2),
        (("analyze", "--metric", "conullity3", "--json"), 1),
        (("scan", "--metric", "euclidean", "--dim", "2", "--grid", "x0=0:1:2", "--json"), 1),
        (("flow", "--metric", "conullity3", "--steps", "4", "--json"), 1),
        (("scan", "--metric", "euclidean", "--dim", "2", "--grid", "x0=0:1:2", "--seed", "3"), 1),
        (("flow", "--metric", "conullity3", "--steps", "4", "--seed", "3"), 1),
        (("analyze", "--metric", "sphere", "--radius", "1e300", "--point", "1,0"), 1),
        (("analyze", "--metric", "sekigawa", "--p", "1e10+u"), 2),
        (("analyze", "--metric", "sekigawa", "--p", "1e300*u*u+1"), 2),
        (("analyze", "--metric", "sekigawa", "--p", "2+u/1e-300"), 2),
        (("analyze", "--metric", "sphere", "--point", "1,0", "--seed", "7"), 1),
        (("scan", "--metric", "conullity3", "--grid", "u=0:1:2", "--fd-step", "1e-4"), 1),
    ],
)
def test_rejected_input_exit_codes(capsys, argv, expected):
    code, out, err = run_cli(capsys, *argv)
    assert code == expected
    assert out == ""
    assert "error" in err


@pytest.mark.parametrize(
    "argv, site",
    [
        (("analyze", "--metric", "sekigawa", "--p", "1e300*u*u+1", "--point", "0,1,0"),
         "analyze --point 0,1,0"),
        (("analyze", "--metric", "sekigawa", "--p", "1e300*u*u+1"), "analyze at the origin"),
        (("flow", "--metric", "sekigawa", "--p", "1e300*u*u+1", "--point", "0,0.5,0"),
         "flow --point 0,0.5,0"),
        (("flow", "--metric", "conullity3", "--p", "1e200*u*u+1", "--point", "0,1,0,0",
          "--direction", "0,1,0,0"), "flow --point 0,1,0,0"),
    ],
)
def test_float_fault_message_names_command_and_point(capsys, argv, site):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert re.fullmatch(
        rf"geonull: error: {re.escape(site)}: overflow encountered in \w+ \(in \w+(?:\.\w+)+\)\n", err
    )


def test_float_fault_message_names_the_function_that_faulted(capsys):
    code, out, err = run_cli(
        capsys, "flow", "--metric", "conullity3", "--p", "exp(400*u)", "--point=0,0.9,0,0"
    )
    assert code == 2 and out == ""
    # g = B^T B overflows; before 3.11 Python records no class in a code object
    function = "_CoframeJet.__call__" if sys.version_info >= (3, 11) else "__call__"
    assert err == (
        "geonull: error: flow --point 0,0.9,0,0: overflow encountered in matmul"
        f" (in metricspace.{function})\n"
    )


@pytest.mark.parametrize("axis", [0, 2])
def test_flow_direction_scale_does_not_matter(capsys, axis):
    # a huge or tiny direction is scaled before sqrt(v g v) can overflow or underflow
    results = []
    for size in ("1", "1e300", "1e-300"):
        direction = ["0"] * 4
        direction[axis] = size
        code, out, _ = run_cli(
            capsys, "flow", "--metric", "conullity3", "--direction", ",".join(direction),
            "--steps", "2",
        )
        assert code == 0
        doc = json.loads(out)
        results.append((doc["nullity_check"], doc["truncated"]))
    assert results[1] == results[0] and results[2] == results[0]


def test_version_flag(capsys):
    code, out, _ = run_cli(capsys, "--version")
    assert code == 0
    assert out.startswith("geonull ")


def test_scan_csv_layout(capsys):
    code, out, _ = run_cli(
        capsys,
        "scan",
        "--metric",
        "sekigawa",
        "--p",
        "2+u",
        "--grid",
        "u=-2.5:0.5:7,x=0:1:2",
    )
    assert code == 0
    lines = out.split("\r\n")
    assert lines[-1] == ""
    lines = lines[:-1]
    assert lines[0] == "x,u,v,scal,nullity,conullity,classification,status"
    assert len(lines) == 1 + 7 * 2
    # row-major over the grid axes, last axis fastest
    u_col = [line.split(",")[1] for line in lines[1:]]
    assert u_col[0] == u_col[1] == "-2.5"
    assert u_col[2] == u_col[3] == "-2"
    statuses = [line.split(",")[-1] for line in lines[1:]]
    # p = 2 + u crosses the positivity floor between u = -2 and u = -1.5
    assert statuses[:4] == ["domain"] * 4
    assert set(statuses[4:]) == {"ok"}
    domain_row = lines[1].split(",")
    assert domain_row[3] == "" and domain_row[4] == ""


def test_scan_without_complement_rows_are_ok(capsys):
    code, out, _ = run_cli(capsys, "scan", "--metric", "euclidean", "--dim", "1", "--grid", "x0=0:1:2")
    assert code == 0
    assert out.split("\r\n")[1:] == ["0,0,1,0,,ok", "1,0,1,0,,ok", ""]


def test_scan_rows_that_overflow_are_domain_rows(capsys):
    # p = 1e300 u^2 + 1: finite curvature at u = 0, an overflowing metric at u = 1
    code, out, _ = run_cli(capsys, "scan", "--metric", "sekigawa", "--p", "1e300*u*u+1", "--grid", "u=0:1:2")
    assert code == 0
    rows = out.split("\r\n")[1:]
    assert rows[0].endswith(",1,2,,ok") and rows[1:] == ["0,1,0,,,,,domain", ""]
    # p = 1e10 + u: g is too ill-conditioned to invert anywhere; p = 2 + u/1e-300:
    # the derivative of u/1e-300 divides by 1e-300^2, which underflows to zero
    for p in ("1e10+u", "2+u/1e-300"):
        code, out, _ = run_cli(capsys, "scan", "--metric", "sekigawa", "--p", p, "--grid", "u=0:1:2")
        assert code == 0
        assert out.split("\r\n")[1:] == ["0,0,0,,,,,domain", "0,1,0,,,,,domain", ""]


def test_scan_point_at_the_chart_edge_has_a_kind(capsys):
    # the box is |u|, |w| <= 3, and nabla R comes from each point's own
    # 3-jet, with no difference points to leave it
    code, out, _ = run_cli(capsys, "scan", "--metric", "conullity3", "--grid", "u=2.9999:3:2,w=0:3:2")
    assert code == 0
    rows = [row.split(",") for row in out.split("\r\n")[1:-1]]
    assert [(row[1], row[3]) for row in rows] == [
        ("2.9998999999999998", "0"), ("2.9998999999999998", "3"), ("3", "0"), ("3", "3")
    ]
    assert [row[5:] for row in rows] == [["1", "3", "nilpotent", "ok"]] * 4


def test_scan_rerun_gives_identical_bytes(capsys):
    argv = (
        "scan",
        "--metric",
        "conullity3",
        "--grid",
        "u=-1:1:3,w=-1:1:3",
    )
    _, first, _ = run_cli(capsys, *argv)
    _, second, _ = run_cli(capsys, *argv)
    assert first == second
    assert first.count("\r\n") == 10


def test_scan_out_file(tmp_path, capsys):
    target = tmp_path / "rows.csv"
    code, out, _ = run_cli(
        capsys,
        "scan",
        "--metric",
        "euclidean",
        "--dim",
        "2",
        "--grid",
        "x0=0:1:2",
        "--out",
        str(target),
    )
    assert code == 0
    assert out == ""
    raw = target.read_bytes()
    assert raw.count(b"\r\n") == 3
    assert raw.startswith(b"x0,x1,scal,")


def test_flow_nullity_mode(capsys):
    code, out, _ = run_cli(
        capsys, "flow", "--metric", "conullity3", "--point", "0,0,0,0", "--tmax", "1"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["mode"] == "nullity"
    assert doc["kernel_dimension"] == 1
    assert not doc["truncated"]
    assert doc["aborted"] is None
    assert doc["max_deviation"] < 1e-4
    assert doc["start_matrix"][0][1] == pytest.approx(math.sqrt(2.0) / 5.0, abs=1e-8)
    assert len(doc["samples"]) >= 5
    for sample in doc["samples"]:
        assert set(sample) == {"t", "C", "predicted", "deviation"}
        assert sample["deviation"] < 1e-4


def test_flow_samples_are_the_library_evolution_bitwise(capsys):
    point = [0.1, 0.2, -0.3, 0.4]
    code, out, _ = run_cli(
        capsys, "flow", "--metric", "conullity3", "--point", "0.1,0.2,-0.3,0.4",
        "--tmax", "0.5", "--steps", "64",
    )
    assert code == 0
    # "-0" must come back as a float for the signs of zeros to be compared
    doc = json.loads(out, parse_int=float)
    report = evolve_along_nullity_geodesic(catalog_conullity3("3+cos(u)+cos(w)"), point,
                                           tmax=0.5, steps=64)
    assert report.aborted is None
    assert len(doc["samples"]) == len(report.measured) == 9
    for sample, measured, t in zip(doc["samples"], report.measured, report.sample_times):
        assert np.array(sample["C"]).tobytes() == measured.tobytes()
        assert sample["t"] == t
    assert np.array(doc["start_matrix"]).tobytes() == report.start_matrix.tobytes()


def test_flow_reports_an_aborted_ride(capsys, monkeypatch):
    closed_form = splitting.riccati_closed_form

    def pole_past_quarter(c0, t):
        if t > 0.25:
            raise splitting.RiccatiBlowupError(t, "forced pole")
        return closed_form(c0, t)

    monkeypatch.setattr(splitting, "riccati_closed_form", pole_past_quarter)
    code, out, _ = run_cli(
        capsys, "flow", "--metric", "conullity3", "--tmax", "0.5", "--steps", "16"
    )
    assert code == 0
    doc = json.loads(out)
    assert "forced pole" in doc["aborted"]
    assert [s["t"] for s in doc["samples"]] == [0.0, 0.0625, 0.125, 0.1875, 0.25]


def test_verify_fails_an_aborted_ride(capsys, monkeypatch):
    closed_form = splitting.riccati_closed_form

    def pole_past_tenth(c0, t):
        if t > 0.1:
            raise splitting.RiccatiBlowupError(t, "forced pole")
        return closed_form(c0, t)

    monkeypatch.setattr(splitting, "riccati_closed_form", pole_past_tenth)
    code, out, _ = run_cli(capsys, "verify", "--suite", "conullity3", "--json")
    assert code == 3
    checks = {c["name"]: c for c in json.loads(out)["suites"][0]["checks"]}
    for name in ("riccati_evolution_matches", "divergence_is_minus_trace"):
        assert checks[name]["computed"] <= 1e-4
        assert not checks[name]["passed"]


def test_flow_leaves_the_divergence_check_uncomputed(capsys, monkeypatch):
    def no_stencil(*args):
        raise AssertionError("flow computed the divergence")

    monkeypatch.setattr(splitting, "_fd_divergence", no_stencil)
    code, _, _ = run_cli(capsys, "flow", "--metric", "conullity3", "--tmax", "0.5", "--steps", "16")
    assert code == 0
    report = evolve_along_nullity_geodesic(catalog_conullity3("3+cos(u)+cos(w)"), [0.0] * 4,
                                           tmax=0.5, steps=16)
    with pytest.raises(AssertionError):
        report.divergence_residual


def test_flow_custom_direction_reports_failure(capsys):
    code, out, _ = run_cli(
        capsys,
        "flow",
        "--metric",
        "conullity3",
        "--point",
        "0,0,0,0",
        "--direction",
        "0,1,0,0",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["mode"] == "custom"
    check = doc["nullity_check"]
    assert check["passed"] is False
    assert check["max_velocity_misalignment"] == pytest.approx(1.0, abs=1e-8)


def test_flow_kernel_direction_passes(capsys):
    code, out, _ = run_cli(
        capsys,
        "flow",
        "--metric",
        "conullity3",
        "--point",
        "0,0,0,0",
        "--direction",
        "0,0,1,0",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["nullity_check"]["passed"] is True
    assert doc["nullity_check"]["max_velocity_misalignment"] < 1e-8


def test_flow_names_the_first_stencil_point_outside_the_domain(capsys):
    # the start tensor's stencil along v reaches 2.99995 + 1e-4 first (+h, then
    # -h, +2h, -2h per axis), past the box edge at 3
    code, out, err = run_cli(
        capsys, "flow", "--metric", "conullity3", "--point=0.1,0.2,2.99995,0.4",
        "--tmax", "1", "--steps", "64",
    )
    assert code == 2 and out == ""
    assert err == (
        "geonull: error: point outside domain of conullity3(p=3+cos(u)+cos(w)): "
        "point [0.1     0.2     3.00005 0.4    ]\n"
    )


def test_verify_text_output(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "riccati")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "seed 1729"
    assert lines[1] == "suite riccati: PASS"
    assert lines[-1] == "overall: PASS"
    assert all("[pass]" in line for line in lines[2:-1])


def test_verify_custom_seed_recorded(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "euclidean", "--seed", "7")
    assert code == 0
    assert out.splitlines()[0] == "seed 7"


def test_verify_all_suites_json(capsys):
    code, out, _ = run_cli(capsys, "verify", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True
    assert [s["suite"] for s in doc["suites"]] == list(cli.SUITE_ORDER)
    for suite in doc["suites"]:
        assert suite["passed"] is True
        assert all(check["passed"] for check in suite["checks"])


def test_verify_json_is_byte_deterministic(capsys):
    _, first, _ = run_cli(capsys, "verify", "--suite", "conullity3", "--json")
    _, second, _ = run_cli(capsys, "verify", "--suite", "conullity3", "--json")
    assert first == second


def test_verify_failure_exit_code(capsys, monkeypatch):
    def fake_suite(name, seed=cli.DEFAULT_SEED):
        return {
            "suite": name,
            "checks": [
                {
                    "name": "forced",
                    "passed": False,
                    "computed": 1.0,
                    "expected": 0.0,
                    "tolerance": 1e-9,
                }
            ],
            "passed": False,
        }

    monkeypatch.setattr(cli, "run_suite", fake_suite)
    code, out, _ = run_cli(capsys, "verify", "--suite", "sphere")
    assert code == 3
    assert "FAIL" in out
    assert out.splitlines()[-1] == "overall: FAIL"


def test_a_fault_outside_the_warp_kernels_is_not_a_domain_error(monkeypatch):
    # exit 2 is for the listed domain errors; any other ZeroDivisionError is
    # a fault in geonull and must surface as a traceback
    def faulty_suite(name, seed=cli.DEFAULT_SEED):
        raise ZeroDivisionError("float division by zero")

    monkeypatch.setattr(cli, "run_suite", faulty_suite)
    with pytest.raises(ZeroDivisionError):
        main(["verify", "--suite", "sphere"])


def test_catalog_listing(capsys):
    code, out, _ = run_cli(capsys, "catalog")
    assert code == 0
    for name in ("euclidean", "sphere", "polar", "product", "sekigawa", "conullity3"):
        assert name + ":" in out

    code, out, _ = run_cli(capsys, "catalog", "--json")
    doc = json.loads(out)
    assert len(doc["entries"]) == 6
    for entry in doc["entries"]:
        assert entry["expectations"]


def test_json_out_matches_stdout(tmp_path, capsys):
    _, stdout_doc, _ = run_cli(capsys, "verify", "--suite", "product", "--json")
    target = tmp_path / "verify.json"
    code, out, _ = run_cli(
        capsys, "verify", "--suite", "product", "--json", "--out", str(target)
    )
    assert code == 0
    assert out == ""
    assert target.read_text() == stdout_doc


def _without_timings(err):
    return "".join(line for line in err.splitlines(True) if not re.match(r"geonull: .* took ", line))


def test_repeated_main_calls_match_fresh_processes(tmp_path, capsys):
    # the parser is built once per process; a call must not see what an
    # earlier one parsed, printed or failed on, nor the streams it was built under
    cli._build_parser.cache_clear()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        parser = cli._build_parser()
    assert cli._build_parser() is parser
    out_file = tmp_path / "sphere.json"
    sequence = [
        # the chart origin is the sphere's pole, outside its domain, hence --point
        ("analyze", "--metric", "sphere", "--point", "1,0", "--out", str(out_file)),
        ("analyze", "--metric", "sphere", "--point", "1,0"),  # --out does not leak into this call
        ("scan", "--metric", "conullity3"),  # usage error: no --grid
        ("--version",),
        ("analyze", "--metric", "conullity3", "--p", "1e10+u"),  # domain error
        ("verify", "--suite", "sphere", "--json"),
    ]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src") + os.pathsep + env.get("PYTHONPATH", "")
    results = []
    for argv in sequence:
        code, out, err = run_cli(capsys, *argv)
        written = out_file.read_text() if out_file.exists() else None
        out_file.unlink(missing_ok=True)
        proc = subprocess.run(
            [sys.executable, "-m", "geonull.cli", *argv],
            capture_output=True, text=True, env=env, timeout=120,
        )
        fresh_written = out_file.read_text() if out_file.exists() else None
        out_file.unlink(missing_ok=True)
        assert (code, out, _without_timings(err), written) == (
            proc.returncode, proc.stdout, _without_timings(proc.stderr), fresh_written
        ), argv
        results.append((code, out, written))
    assert [code for code, _, _ in results] == [0, 0, 1, 0, 2, 0]
    assert results[0][1] == "" and results[0][2].startswith('{"command":"analyze"')
    assert results[1] == (0, results[0][2], None)
