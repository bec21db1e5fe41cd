"""Seeded request generators and per-operation output checks.

Each workload is an endless, seeded stream of :class:`Op` records.  An op
carries the argv handed to ``geonull.cli.main`` plus the parameters the
generator drew, so its output can be checked against the catalog's closed
forms evaluated directly from those parameters (never through the program's
own expression code, so a fault there cannot cancel out).

Points always go on the command line as ``--point=<csv>``: the CLI rejects
``--point -0.3,...`` because argparse reads the leading minus as a flag.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
from dataclasses import dataclass, field
from typing import Callable, Iterator

# |scalar curvature| above which the kernel is expected to be exactly the
# catalog's: nullity 1 and a nilpotent splitting tensor
CURVED = 1e-3
SCAL_REL_TOL = 1e-6
FLOW_MAX_DEVIATION = 1e-4
# splitting-tensor entries are Richardson-extrapolated differences with step 1e-4
SPLITTING_TOL = 1e-6

SCAN_AXIS = (-1.5, 1.5, 4)
SCAN_GRID = "u={0}:{1}:{2},w={0}:{1}:{2}".format(*SCAN_AXIS)
FLOW_STEPS = 256
QUERY_FAMILIES = ("conullity3", "sekigawa", "sphere", "product", "euclidean")


@dataclass
class Op:
    """One CLI request: its argv, how many work items it carries, its check."""

    argv: list
    family: str
    items: int
    check: Callable[[int, str], str] = field(repr=False)


def _num(x: float) -> str:
    return repr(float(x))


def _csv(values) -> str:
    return ",".join(_num(v) for v in values)


def _warp(rng: random.Random):
    """p = a + cos(b*s) + cos(c*t), bounded below by a - 2 >= 0.5."""
    return round(rng.uniform(2.5, 4.0), 6), round(rng.uniform(0.5, 1.5), 6), round(rng.uniform(0.5, 1.5), 6)


def _warp_source(a, b, c, s, t) -> str:
    return f"{_num(a)}+cos({_num(b)}*{s})+cos({_num(c)}*{t})"


def _conullity3_scal(a, b, c, u, w) -> float:
    """-(2/p)(p_uu + p_ww) for p = a + cos(b u) + cos(c w)."""
    p = a + math.cos(b * u) + math.cos(c * w)
    return 2.0 * (b * b * math.cos(b * u) + c * c * math.cos(c * w)) / p


def _sekigawa_half_trace(a, b, c, x, u) -> float:
    """-(1/p) p_uu for p = a + cos(b u) + cos(c x)."""
    p = a + math.cos(b * u) + math.cos(c * x)
    return b * b * math.cos(b * u) / p


def _close(got, want, rel=SCAL_REL_TOL) -> bool:
    return got is not None and abs(float(got) - want) <= rel * max(1.0, abs(want))


def _point(rng: random.Random, n: int, lo: float, hi: float) -> list:
    return [round(rng.uniform(lo, hi), 6) for _ in range(n)]


# ---------------------------------------------------------------------------
# scan


def _linspace(lo, hi, n):
    return [lo + (hi - lo) * i / (n - 1) for i in range(n)]


def scan_ops(seed: int) -> Iterator[Op]:
    rng = random.Random(f"scan:{seed}")
    axis = _linspace(*SCAN_AXIS)
    grid = [(u, w) for u in axis for w in axis]
    while True:
        a, b, c = _warp(rng)
        argv = ["scan", "--metric", "conullity3", "--p", _warp_source(a, b, c, "u", "w"),
                "--grid", SCAN_GRID]
        yield Op(argv, "conullity3", len(grid), _scan_check(a, b, c, grid))


def _scan_check(a, b, c, grid):
    def check(rc: int, out: str) -> str:
        if rc != 0:
            return f"exit code {rc}"
        rows = list(csv.reader(io.StringIO(out, newline="")))
        if rows[:1] != [["x", "u", "v", "w", "scal", "nullity", "conullity", "classification", "status"]]:
            return "bad header"
        if len(rows) - 1 != len(grid):
            return f"{len(rows) - 1} rows for {len(grid)} grid points"
        for row, (u, w) in zip(rows[1:], grid):
            x_, u_, v_, w_, scal, nul, conul, kind, status = row
            if status != "ok":
                return f"status {status!r} at u={u}, w={w}"
            if abs(float(u_) - u) > 1e-12 or abs(float(w_) - w) > 1e-12 or float(x_) or float(v_):
                return f"row order: got {row[:4]}, expected u={u}, w={w}"
            want = _conullity3_scal(a, b, c, u, w)
            if not _close(float(scal), want):
                return f"scal {scal} != {want!r} at u={u}, w={w}"
            if abs(want) > CURVED and (nul, conul, kind) != ("1", "3", "nilpotent"):
                return f"kernel ({nul}, {conul}, {kind!r}) at u={u}, w={w} where scal={want:.3g}"
        return ""

    return check


# ---------------------------------------------------------------------------
# flow


def flow_ops(seed: int) -> Iterator[Op]:
    rng = random.Random(f"flow:{seed}")
    while True:
        a, b, c = _warp(rng)
        # |u|, |w| <= 0.5 keeps b*u and c*w below pi/2, so the curvature is
        # nonzero and the kernel one-dimensional all along the v-line the
        # kernel geodesic follows; |v| <= 0.5 keeps that line inside the box
        pt = _point(rng, 4, -0.5, 0.5)
        argv = ["flow", "--metric", "conullity3", "--p", _warp_source(a, b, c, "u", "w"),
                f"--point={_csv(pt)}", "--tmax", "1", "--steps", str(FLOW_STEPS)]
        yield Op(argv, "conullity3", 1, _flow_check(a, b, c, pt))


def _flow_check(a, b, c, pt):
    p = a + math.cos(b * pt[1]) + math.cos(c * pt[3])

    def check(rc: int, out: str) -> str:
        if rc != 0:
            return f"exit code {rc}"
        doc = json.loads(out)
        if doc["aborted"] is not None:
            return f"aborted: {doc['aborted']}"
        if doc["truncated"]:
            return "path truncated"
        if doc["max_deviation"] is None or not doc["max_deviation"] <= FLOW_MAX_DEVIATION:
            return f"max_deviation {doc['max_deviation']}"
        if len(doc["samples"]) != 9:
            return f"{len(doc['samples'])} samples"
        # adapted-frame normal form: single entry sqrt(2)/p above the diagonal
        want = [[0.0, math.sqrt(2.0) / p, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]
        got = doc["start_matrix"]
        worst = max(abs(got[i][j] - want[i][j]) for i in range(3) for j in range(3))
        if worst > SPLITTING_TOL:
            return f"start matrix off sqrt(2)/p by {worst:.3g}"
        return ""

    return check


# ---------------------------------------------------------------------------
# query


def query_ops(seed: int) -> Iterator[Op]:
    rng = random.Random(f"query:{seed}")
    while True:
        for family in QUERY_FAMILIES:
            yield _QUERY_BUILDERS[family](rng)


def _analyze_doc(rc: int, out: str):
    if rc != 0:
        return None, f"exit code {rc}"
    return json.loads(out), ""


def _kernel_check(doc, nullity, conullity) -> str:
    got = (doc["nullity"]["nullity"], doc["nullity"]["conullity"])
    return "" if got == (nullity, conullity) else f"(nullity, conullity) {got}, expected {(nullity, conullity)}"


def _query_conullity3(rng):
    a, b, c = _warp(rng)
    pt = _point(rng, 4, -1.5, 1.5)
    want = _conullity3_scal(a, b, c, pt[1], pt[3])

    def check(rc, out):
        doc, err = _analyze_doc(rc, out)
        if err:
            return err
        if not _close(doc["curvature"]["scalar_trace"], want):
            return f"scalar_trace {doc['curvature']['scalar_trace']} != {want!r}"
        return _kernel_check(doc, 1, 3) if abs(want) > CURVED else ""

    argv = ["analyze", "--metric", "conullity3", "--p", _warp_source(a, b, c, "u", "w"),
            f"--point={_csv(pt)}"]
    return Op(argv, "conullity3", 1, check)


def _query_sekigawa(rng):
    a, b, c = _warp(rng)
    pt = _point(rng, 3, -1.5, 1.5)
    want = _sekigawa_half_trace(a, b, c, pt[0], pt[1])

    def check(rc, out):
        doc, err = _analyze_doc(rc, out)
        if err:
            return err
        if not _close(doc["curvature"]["half_trace"], want):
            return f"half_trace {doc['curvature']['half_trace']} != {want!r}"
        if abs(want) <= CURVED:
            return ""
        if not _close(doc["curvature"]["nonflat_plane_curvature"], want):
            return f"plane curvature {doc['curvature']['nonflat_plane_curvature']} != {want!r}"
        return _kernel_check(doc, 1, 2)

    argv = ["analyze", "--metric", "sekigawa", "--p", _warp_source(a, b, c, "u", "x"),
            f"--point={_csv(pt)}"]
    return Op(argv, "sekigawa", 1, check)


def _sphere_point(rng):
    return [round(rng.uniform(0.3, math.pi - 0.3), 6), round(rng.uniform(-3.0, 3.0), 6)]


def _constant_scal_check(scal, nullity, conullity):
    def check(rc, out):
        doc, err = _analyze_doc(rc, out)
        if err:
            return err
        got = doc["curvature"]["scalar_trace"]
        if abs(got - scal) > 1e-9 * max(1.0, abs(scal)):
            return f"scalar_trace {got} != {scal!r}"
        return _kernel_check(doc, nullity, conullity)

    return check


def _query_sphere(rng):
    r = round(rng.uniform(0.5, 2.0), 6)
    pt = _sphere_point(rng)
    argv = ["analyze", "--metric", "sphere", "--radius", _num(r), f"--point={_csv(pt)}"]
    return Op(argv, "sphere", 1, _constant_scal_check(2.0 / (r * r), 0, 2))


def _query_product(rng):
    r = round(rng.uniform(0.5, 2.0), 6)
    dim = rng.randint(3, 6)
    pt = _sphere_point(rng) + _point(rng, dim - 2, -2.0, 2.0)
    argv = ["analyze", "--metric", "product", "--radius", _num(r), "--dim", str(dim),
            f"--point={_csv(pt)}"]
    return Op(argv, "product", 1, _constant_scal_check(2.0 / (r * r), dim - 2, 2))


def _query_euclidean(rng):
    # dimension 1 is left out only because analyze crashes on it (see the
    # defects in NOTES.md); draw it again once that defect is fixed
    dim = rng.randint(2, 6)
    pt = _point(rng, dim, -2.0, 2.0)
    argv = ["analyze", "--metric", "euclidean", "--dim", str(dim), f"--point={_csv(pt)}"]
    return Op(argv, "euclidean", 1, _constant_scal_check(0.0, dim, 0))


_QUERY_BUILDERS = {
    "conullity3": _query_conullity3,
    "sekigawa": _query_sekigawa,
    "sphere": _query_sphere,
    "product": _query_product,
    "euclidean": _query_euclidean,
}

GENERATORS = {"scan": scan_ops, "flow": flow_ops, "query": query_ops}

# one small fixed request per workload, run once before timing starts
WARMUP = {
    "scan": ["scan", "--metric", "conullity3", "--grid", "u=0:0.5:2"],
    "flow": ["flow", "--metric", "conullity3", "--tmax", "1", "--steps", "16"],
    "query": ["analyze", "--metric", "conullity3"],
}
