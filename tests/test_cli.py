import ast
import contextlib
import csv
import gc
import io
import itertools
import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from geonull import cli, curvature, splitting
from geonull.cli import main
from geonull.exprcalc import DomainError
from geonull.metricspace import CATALOG, MetricField, catalog_conullity3
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


def test_analyze_kind_where_g_is_ill_conditioned(capsys):
    # p = exp(u) near e^-2.5: the closed form is nilpotent; the kernel-field
    # stencil named complex_pair here (eigenvalues +/-0.0056i)
    code, out, _ = run_cli(
        capsys, "analyze", "--metric", "sekigawa", "--p", "exp(u)",
        "--point=-0.5129016867312783,-2.5422821854087916,1.0267175751331235",
    )
    assert code == 0
    assert json.loads(out)["splitting"]["classification"]["kind"] == "nilpotent"


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


@pytest.mark.parametrize(
    "argv",
    [
        ("--metric", "sekigawa", "--p", "exp(u)", "--point", "0.2,-0.3,0.1"),
        ("--metric", "sphere", "--point", "1.1,0.4"),
        ("--metric", "polar", "--point", "1.3,0.7"),
        ("--metric", "product", "--point", "1,0.5,0.2,-0.1"),
        ("--metric", "conullity3", "--point", "0.1,0.2,-0.3,0.4"),
        ("--metric", "euclidean", "--dim", "3", "--point", "0.1,-0.2,0.3"),
    ],
    ids=["sekigawa", "sphere", "polar", "product", "conullity3", "euclidean"],
)
def test_analyze_builds_the_kernels_complement_once(argv, capsys, monkeypatch):
    # the plane curvature, the sectional range and a built splitting frame all
    # read CurvatureData.complement (sekigawa's analyze built it three times,
    # sphere's and product's twice)
    builds = []
    complement = curvature._complement

    def counted(*args):
        builds.append(args)
        return complement(*args)

    monkeypatch.setattr(curvature, "_complement", counted)
    monkeypatch.setattr(splitting, "_complement", counted)
    assert run_cli(capsys, "analyze", *argv)[0] == 0
    assert len(builds) == 1


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
        (("analyze", "--metric", "sekigawa", "--p", "1e300*u+1"), 2),
        (("analyze", "--metric", "sekigawa", "--p", "2+u/1e-300"), 2),
        (("analyze", "--metric", "sphere", "--point", "1,0", "--seed", "7"), 1),
        (("scan", "--metric", "conullity3", "--grid", "u=0:1:2", "--fd-step", "1e-4"), 1),
        (("flow", "--metric", "conullity3", "--steps", "4", "--fd-step", "1e-4"), 1),
        (("scan", "--metric", "conullity3", "--grid", "u=0:1:2,u=0:1:2"), 1),
        (("flow", "--metric", "conullity3", "--steps", "1000001"), 1),
        (("analyze", "--metric", "product", "--dim", "2"), 1),
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
        (("analyze", "--metric", "sekigawa", "--p", "1e300*u+1"), "analyze at the origin"),
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


def test_a_huge_but_finite_solve_is_solved(capsys):
    # p = 1e300 u^2 + 1 at the origin: R and the solve's right-hand side reach
    # 2e300, whose squares overflow, but C = [[0, 0], [1, 0]] (|C| = 1 / p); the
    # solve sums its squares scaled by a power of two
    code, out, _ = run_cli(capsys, "analyze", "--metric", "sekigawa", "--p", "1e300*u*u+1")
    assert code == 0
    splitting = json.loads(out)["splitting"]
    assert splitting["classification"]["kind"] == "nilpotent"
    assert np.abs(np.array(splitting["matrix"]) - [[0.0, 0.0], [1.0, 0.0]]).max() < 1e-15
    assert splitting["solve_residual"] < 1e-15
    # flow measures the start tensor with its later samples, after the ride
    code, out, _ = run_cli(capsys, "flow", "--metric", "sekigawa", "--p", "1e300*u*u+1")
    assert code == 0
    report = json.loads(out)
    assert np.abs(np.array(report["samples"][0]["C"]) - [[0.0, 0.0], [1.0, 0.0]]).max() < 1e-15
    assert report["max_deviation"] < 1e-15


def test_benchmark_shaped_flow_counts(capsys, monkeypatch):
    # 522 points jetted (one 3-jet at x0, 513 for the ride, 8 samples), 4 SVDs
    # (x0's kernel, the samples' kernels, their one nabla R solve, the
    # predictions' pole test) and one nabla R solve, of the start and the 8 samples
    counts = {"jet": 0, "jets": 0, "svd": 0}
    solves = []
    jet, jets, svd, solve = MetricField.jet, MetricField.jets, np.linalg.svd, splitting._solve

    def counted_jet(self, x, order=2, check=True):
        counts["jet"] += 1
        return jet(self, x, order, check)

    def counted_jets(self, points, order=2, check=True):
        counts["jets"] += len(points)
        return jets(self, points, order, check)

    def counted_svd(*args, **kwargs):
        counts["svd"] += 1
        return svd(*args, **kwargs)

    def counted_solve(jet, parts, t_vecs, bases):
        solves.append(np.shape(t_vecs))
        return solve(jet, parts, t_vecs, bases)

    monkeypatch.setattr(MetricField, "jet", counted_jet)
    monkeypatch.setattr(MetricField, "jets", counted_jets)
    monkeypatch.setattr(np.linalg, "svd", counted_svd)
    monkeypatch.setattr(splitting, "_solve", counted_solve)
    code, out, _ = run_cli(capsys, "flow", "--metric", "conullity3", "--p", "3.1+cos(0.9*u)+cos(1.2*w)",
                           "--point=0.31,-0.42,0.17,0.38", "--tmax", "1", "--steps", "256")
    assert code == 0 and len(json.loads(out)["samples"]) == 9
    assert counts["jet"] + counts["jets"] == 522 and counts["svd"] == 4
    assert solves == [(9, 4)]


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
    # p = 1e300 u^2 + 1: finite curvature at u = 0, whose nilpotent C has a
    # right-hand side of 2e300, and an overflowing metric at u = 1
    code, out, _ = run_cli(capsys, "scan", "--metric", "sekigawa", "--p", "1e300*u*u+1", "--grid", "u=0:1:2")
    assert code == 0
    rows = out.split("\r\n")[1:]
    assert rows[0].endswith(",1,2,nilpotent,ok") and rows[1:] == ["0,1,0,,,,,domain", ""]
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


def _scan_points(metric, **axes):
    """The origin with the named coordinates over the product of their values, last fastest."""
    points = []
    for values in itertools.product(*axes.values()):
        pt = np.zeros(metric.dim)
        for name, value in zip(axes, values):
            pt[metric.coordinates.index(name)] = value
        points.append(pt)
    return points


def _bitwise(rows):
    return [None if row is None else (row[0].hex(),) + row[1:] for row in rows]


def _stacked_and_alone(metric, points):
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        return cli._scan_rows(metric, points, None), [cli._scan_rows(metric, [pt], None)[0] for pt in points]


def _unstacked(metric):
    """``metric`` behind a plain jet function, so that its jets are taken point by point."""
    return MetricField(
        metric.dim, metric.coordinates, lambda x, order: metric.jet(x, order=order, check=False),
        domain=metric.contains, name=metric.name, preferred_frame=metric.preferred_frame, max_order=3,
    )


_SIDE = np.linspace(-1.5, 1.5, 4)
_CHUNK_4D = cli.SCAN_CHUNK_BYTES // (8 * 4 ** 5)


@pytest.mark.parametrize(
    "metric, axes",
    [
        (catalog_conullity3("1+u*u*w"), {"u": np.linspace(-1, 1, 3), "w": np.linspace(-1, 1, 3)}),
        (CATALOG["euclidean"].build(), {"x0": _SIDE, "x2": _SIDE}),
        (CATALOG["sphere"].build(), {"theta": np.linspace(0.0, 3.0, 4), "phi": _SIDE}),
        (CATALOG["polar"].build(), {"r": np.linspace(0.0, 2.0, 4), "phi": _SIDE}),
        (CATALOG["product"].build(), {"theta": np.linspace(0.0, 3.0, 4), "x0": _SIDE}),
        (CATALOG["sekigawa"].build(p="exp(u)"), {"x": _SIDE, "u": np.linspace(-3.0, 1.5, 4)}),
        (CATALOG["conullity3"].build(p="4-u*u-w*w"), {"u": _SIDE, "w": _SIDE}),
        (CATALOG["conullity3"].build(), {"u": np.linspace(-3, 3, 9), "w": np.linspace(-3, 3, 9)}),
        # no stacked form: each point's jet alone, with nabla R from its 3-jet
        (_unstacked(catalog_conullity3("3+cos(u)+cos(w)")), {"u": _SIDE[1:], "w": _SIDE[1:]}),
    ],
    ids=[
        "mixed", "euclidean", "sphere", "polar", "product", "sekigawa", "conullity3", "three_chunks",
        "conullity3_unstacked",
    ],
)
def test_stacked_scan_rows_are_the_one_point_rows(metric, axes):
    points = _scan_points(metric, **axes)
    stacked, alone = _stacked_and_alone(metric, points)
    assert _bitwise(stacked) == _bitwise(alone)
    if len(points) == 81:
        assert len(points) > _CHUNK_4D
    if metric.name == "conullity3(p=1+u*u*w)":
        assert None in stacked and {row[1] for row in stacked if row} == {1, 2, 4}


def _faulty(metric, target, fault):
    """``metric`` with one fault at ``target``: its jet raises, its g cannot be inverted
    or its 3-jet makes nabla R overflow."""

    def jet(x, order):
        out = metric.jet(x, order=order, check=False)
        if not np.array_equal(x, target):
            return out
        if fault == "jet":
            raise DomainError("injected fault", "p", 0)
        g, dg, d2g, d3g = out
        if fault == "invert":
            return np.diag([1.0, 1.0, 1.0, 1e-13]), dg, d2g, d3g
        # -1.5e308, but +1.5e308 where g's two indices agree: a constant 3-jet cancels in (nabla R)(T, ...)
        d3g = np.full_like(d3g, -1.5e308)
        d3g[range(4), range(4)] = 1.5e308
        return g, dg, d2g, d3g

    return MetricField(
        metric.dim, metric.coordinates, jet, domain=metric.contains,
        preferred_frame=metric.preferred_frame, max_order=3,
    )


@pytest.mark.parametrize("fault", ["jet", "invert", "nabla_r"])
def test_a_fault_inside_a_scan_chunk_changes_only_its_own_row(fault):
    metric = catalog_conullity3("3+cos(u)+cos(w)")
    points = _scan_points(metric, u=_SIDE, w=_SIDE)
    target = 5
    clean = _stacked_and_alone(metric, points)[0]
    stacked, alone = _stacked_and_alone(_faulty(metric, points[target], fault), points)
    assert clean[target][3] == "nilpotent"
    # a jet or R that fails makes a domain row; a nabla R that fails, a row without a kind
    expected = list(clean)
    expected[target] = clean[target][:3] + ("",) if fault == "nabla_r" else None
    assert _bitwise(stacked) == _bitwise(alone) == _bitwise(expected)


def test_scan_redoes_stacked_the_points_whose_g_can_be_inverted(monkeypatch):
    # exp(7 u w) leaves g too ill-conditioned to invert at points of each of the three chunks
    metric = catalog_conullity3("exp(7*u*w)")
    points = _scan_points(metric, u=np.linspace(-2, 2, 9), w=np.linspace(-2, 2, 9))
    alone = [cli._scan_rows(metric, [pt], None)[0] for pt in points]
    sizes = []
    curvatures = splitting._curvatures

    def counted(g, *rest):
        sizes.append(len(g))
        return curvatures(g, *rest)

    monkeypatch.setattr(splitting, "_curvatures", counted)
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        stacked = cli._scan_rows(metric, points, None)
    assert _bitwise(stacked) == _bitwise(alone)
    # each chunk's points with a jet, then those whose g passes, and none alone
    assert sizes == [22, 16, 26, 25, 11, 6]
    assert stacked.count(None) == 81 - 16 - 25 - 6


@pytest.mark.parametrize(
    "argv",
    [
        ("--metric", "conullity3", "--grid", "u=-1.5:1.5:4,w=-1.5:1.5:4"),
        ("--metric", "sekigawa", "--p", "exp(u)", "--grid", "x=-1:1:4,u=-1:1:4"),
    ],
    ids=["conullity3", "sekigawa"],
)
def test_analyze_prints_the_tensor_and_kind_of_the_point_inside_a_scan_stack(capsys, argv):
    # the digest's two scans: at each line-kernel point, analyze's C is the pipeline's C
    # in the grid's stack, and its kind is scan's
    code, out, _ = run_cli(capsys, "scan", *argv)
    assert code == 0
    metric = cli._build_metric(cli._build_parser().parse_args(["scan", *argv]), None)
    rows = [row for row in csv.reader(io.StringIO(out))][1:]
    points = np.array([[float(c) for c in row[:metric.dim]] for row in rows])
    stack = splitting._pipeline(metric, points, *metric.jets(points, order=3), None)
    lines = [i for i, row in enumerate(rows) if row[-4] == "1"]
    assert len(lines) == 16
    for i in lines:
        point = ",".join(rows[i][:metric.dim])
        code, out, _ = run_cli(capsys, "analyze", *argv[:-2], f"--point={point}")
        assert code == 0
        splitting_doc = json.loads(out)["splitting"]
        assert np.array(splitting_doc["matrix"]).tobytes() == stack.tensors[i][0].tobytes()
        assert splitting_doc["classification"]["kind"] == rows[i][-2] == "nilpotent"


def test_cli_runs_no_stage_of_the_splitting_pipeline_itself():
    # every command measures C through splitting._pipeline: cli.py imports none of its stages
    with open(cli.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert not imported & {"_curvatures", "_invert_each", "_frames", "_kinds", "_solve_each"}
    numcore_uses = {
        node.attr for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "numcore"
    }
    assert not numcore_uses & {"_each_alone", "_put"}


@pytest.mark.parametrize("p, grid", [
    ("3+cos(u)+cos(w)", np.linspace(-1.5, 1.5, 4)),  # the benchmark's grid shape
    ("exp(7*u*w)", np.linspace(-2, 2, 9)),  # R's stage redone on the points whose g passes
])
def test_a_scan_leaves_no_cyclic_garbage(p, grid):
    # a chunk's stacked jets must be freed when it returns, not when the
    # cycle collector next runs: held until then, they raise peak memory
    metric = catalog_conullity3(p)
    points = _scan_points(metric, u=grid, w=grid)
    gc.collect()
    gc.disable()
    try:
        cli._scan_rows(metric, points, None)
        assert gc.collect() == 0
    finally:
        gc.enable()


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
    predictions = splitting._riccati_predictions

    def pole_past_quarter(c0, times):
        return [splitting.RiccatiBlowupError(t, "forced pole") if t > 0.25 else c
                for t, c in zip(times, predictions(c0, times))]

    monkeypatch.setattr(splitting, "_riccati_predictions", pole_past_quarter)
    code, out, _ = run_cli(
        capsys, "flow", "--metric", "conullity3", "--tmax", "0.5", "--steps", "16"
    )
    assert code == 0
    doc = json.loads(out)
    assert "forced pole" in doc["aborted"]
    assert [s["t"] for s in doc["samples"]] == [0.0, 0.0625, 0.125, 0.1875, 0.25]


def test_verify_fails_an_aborted_ride(capsys, monkeypatch):
    predictions = splitting._riccati_predictions

    def pole_past_tenth(c0, times):
        return [splitting.RiccatiBlowupError(t, "forced pole") if t > 0.1 else c
                for t, c in zip(times, predictions(c0, times))]

    monkeypatch.setattr(splitting, "_riccati_predictions", pole_past_tenth)
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


def test_flow_measures_its_start_tensor_at_the_chart_edge(capsys):
    # 5e-5 inside the box edge at v = 3: the start tensor needs only the
    # point's own jet, and the first RK4 step leaves the chart
    code, out, _ = run_cli(
        capsys, "flow", "--metric", "conullity3", "--point=0.1,0.2,2.99995,0.4",
        "--tmax", "1", "--steps", "64",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["truncated"] and doc["aborted"] is None
    assert [s["t"] for s in doc["samples"]] == [0.0]
    p = 3.0 + math.cos(0.2) + math.cos(0.4)
    assert doc["start_matrix"][0][1] == pytest.approx(math.sqrt(2.0) / p, abs=1e-12)


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


def test_flow_steps_are_capped_by_the_parser():
    # parsed only: a run of that many steps is never started
    parser = cli._build_parser()
    assert parser.parse_args(["flow", "--steps", str(cli.MAX_FLOW_STEPS)]).steps == cli.MAX_FLOW_STEPS
    with pytest.raises(SystemExit) as exc:
        parser.parse_args(["flow", "--steps", str(cli.MAX_FLOW_STEPS + 1)])
    assert exc.value.code == cli.EXIT_USAGE


@pytest.mark.parametrize("dim", ["0", "2", "7", "9"])
def test_product_dimension_error_names_the_products_range(capsys, dim):
    code, out, err = run_cli(capsys, "analyze", "--metric", "product", "--dim", dim)
    assert code == 1 and out == ""
    assert f"product dimension {dim} outside supported range 3..6" in err


def _reference_dumps(obj) -> str:
    """The serializer ``cli._dumps`` replaced: one recursive call per value."""
    if obj is None:
        return "null"
    if isinstance(obj, bool) or isinstance(obj, np.bool_):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        return "null" if math.isnan(x) or math.isinf(x) else "%.17g" % x
    if isinstance(obj, str):
        return json.encoder.encode_basestring(obj)
    if isinstance(obj, np.ndarray):
        return _reference_dumps(obj.tolist())
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(_reference_dumps(v) for v in obj) + "]"
    if isinstance(obj, dict):
        return "{" + ",".join(
            json.encoder.encode_basestring(str(key)) + ":" + _reference_dumps(obj[key]) for key in sorted(obj)
        ) + "}"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def test_dumps_writes_the_bytes_of_the_per_value_serializer():
    tiny = 5e-324
    floats = [math.nan, math.inf, -math.inf, -0.0, 0.0, tiny, -tiny, 2.2250738585072009e-308, 1e308, 0.1, 1 / 3]
    docs = [
        floats,
        tuple(floats),
        np.array(floats),
        np.array(floats).reshape(1, -1),
        np.array(floats[3:]).reshape(2, 4),
        np.array([[math.nan, 1.0], [2.0, -math.inf]]),
        np.empty(0),
        np.empty((0, 3)),
        np.empty((2, 0)),
        [],
        (),
        {},
        [[], [1.0], [math.nan]],
        [0, 1, -7, 2**63, True, False, None],
        [1.0, 1, True],  # a float list with an int and a bool in it
        [np.float64(-0.0), np.float64(math.nan), np.float64(tiny), 0.5],
        np.float64(0.1),
        np.float64(math.inf),
        np.float32(0.1),
        np.int64(-3),
        np.bool_(True),
        np.array(2.5),
        np.array([1, 2, 3]),
        np.array([True, False]),
        {"b": [1.0, math.nan], "a": {"z": None, "y": "xé\"\n"}, "c": (np.float64(1e-310), -0.0)},
        {4: [2.0], 3: np.zeros(2)},
        "text",
        -0.0,
        math.nan,
    ]
    for doc in docs:
        assert cli._dumps(doc) == _reference_dumps(doc), doc
    with pytest.raises(TypeError):
        cli._dumps({"a": object()})


def test_dumps_writes_flow_and_analyze_documents_as_the_per_value_serializer(monkeypatch):
    docs = []
    real = cli._dumps

    def spied(doc):
        if type(doc) is dict and "command" in doc:  # a whole document, not a value within one
            docs.append(doc)
        return real(doc)

    monkeypatch.setattr(cli, "_dumps", spied)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        main(["flow", "--metric", "conullity3", "--point", "0.1,0.2,0.3,0.4", "--steps", "32"])
        main(["analyze", "--metric", "sekigawa", "--point", "0.2,0.3,0.1"])
        main(["analyze", "--metric", "euclidean", "--dim", "2", "--point", "0,0"])
    assert len(docs) == 3
    for doc in docs:
        assert real(doc) == _reference_dumps(doc)
