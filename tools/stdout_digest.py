"""Print one ``sha256  argv`` line per command of the stdout-equivalence set.

The set is ``analyze`` on all six catalog families, on the concave
conullity3 warp (non-negative sectional curvature), at a nearly
degenerate nilpotent splitting tensor of a sekigawa warp and at an
ill-conditioned g of sekigawa ``exp(u)``; ``scan`` on conullity3, on
sekigawa (no preferred frame), on the concave warp (domain rows and points
near p -> 0), on a grid mixing domain rows with nullity 1, 2 and 4, on
sekigawa ``1e300*u*u+1`` (an overflowing domain row after an ok row whose
nabla R solve has a right-hand side of 2e300) and on a grid of three scan chunks where g cannot be
inverted at some points of each (the stacked stages redone point by
point); ``flow`` in both modes (kernel mode also on sekigawa, whose
transported frame starts from a built complement, having no preferred
frame) and ``verify --suite all --json``; then three straight rides that
``flows.geodesic`` takes in stacked blocks: a conullity3 kernel ride that
leaves the chart, one backward (``--tmax -1``) and polar's inward radial
ray in custom mode, which stops at the r > 0.05 cutoff; then two scans of
one warp shape, ``2+u^2.5`` (domain rows where u < 0) and ``2 + u ^ 2``
(an integer power, with other spans), so a warm run takes the second's
kernels from the first's shape plan; then a scan of product with a kernel of
dimension 3 at every point and one of euclidean, where R is zero (the
kernel stage's groups by kernel size); then two conullity3 kernel rides,
one of 300 steps (stacked blocks of 128, 128 and 44 steps, 9 samples) and
one of a single step (2 samples), each measuring its start tensor with its
later samples; then a scan of sekigawa ``exp(u)`` on a grid from the
ill-conditioned point of the ``analyze`` above (cond g = 1.2e4), where the
rounding of R shows most, toward p's larger values.  Argvs are only
ever appended, so every line of an earlier set stays.  Each argv runs in-process
through ``geonull.cli.main`` against the sources next to this script;
stderr (timings) is discarded.  A refactor that claims identical output
shows identical lines before and after; a line that moves names the
command whose bytes moved.

Run:  python3 tools/stdout_digest.py

Exits 1 if any command exits nonzero, since every argv here is expected to
succeed.

Field report:  python3 tools/stdout_digest.py --base DIR

runs each argv against ``DIR/src`` in a subprocess and against this tree,
and for every output that differs prints the fields that moved: each JSON
path (a scan row's CSV column) with list indices collapsed to ``[]``, how
many values moved there, the largest absolute change, the largest change
in ulps of the value itself and the largest in ulps of the largest |value|
at that path (on either side), which sizes a move on a near-zero entry of a
larger tensor at that tensor's rounding.  Exits 1 if any output differs or
any command exits nonzero.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import itertools
import json
import math
import os
import shlex
import struct
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

ARGVS = (
    ("analyze", "--metric", "euclidean", "--dim", "3", "--point", "0.1,-0.2,0.3"),
    ("analyze", "--metric", "sphere", "--point", "1.1,0.4"),
    ("analyze", "--metric", "polar", "--point", "1.3,0.7"),
    ("analyze", "--metric", "product", "--point", "1,0.5,0.2,-0.1"),
    ("analyze", "--metric", "sekigawa", "--p", "exp(u)", "--point", "0.2,-0.3,0.1"),
    ("analyze", "--metric", "conullity3", "--point", "0.1,0.2,-0.3,0.4"),
    ("analyze", "--metric", "conullity3", "--p", "4-u*u-w*w", "--point", "0.1,0.2,-0.3,0.4"),
    (
        "analyze", "--metric", "sekigawa", "--p", "3.671764+cos(0.522086*u)+cos(0.998341*x)",
        "--point=-2.0041042190169085,2.8281637094573053,0.48334047502308763",
    ),
    (
        "analyze", "--metric", "sekigawa", "--p", "exp(u)",
        "--point=-0.5129016867312783,-2.5422821854087916,1.0267175751331235",
    ),
    ("scan", "--metric", "conullity3", "--grid", "u=-1.5:1.5:4,w=-1.5:1.5:4"),
    ("scan", "--metric", "sekigawa", "--p", "exp(u)", "--grid", "x=-1:1:4,u=-1:1:4"),
    ("scan", "--metric", "conullity3", "--p", "4-u*u-w*w", "--grid", "u=-1.5:1.5:4,w=-1.5:1.5:4"),
    ("scan", "--metric", "conullity3", "--p", "1+u*u*w", "--grid", "u=-1:1:3,w=-1:1:3"),
    ("scan", "--metric", "sekigawa", "--p", "1e300*u*u+1", "--grid", "u=0:1:2"),
    ("scan", "--metric", "conullity3", "--p", "exp(7*u*w)", "--grid", "u=-2:2:9,w=-2:2:9"),
    ("flow", "--metric", "conullity3", "--point", "0.1,0.2,-0.3,0.4", "--tmax", "1"),
    ("flow", "--metric", "product", "--point", "1,0.5,0.2,-0.1", "--tmax", "0.5"),
    ("flow", "--metric", "conullity3", "--point", "0,0,0,0", "--direction", "0,1,0,0"),
    ("flow", "--metric", "sekigawa", "--p", "2+u*u", "--point", "0.2,0.3,0.1", "--tmax", "0.5"),
    ("verify", "--suite", "all", "--json"),
    ("flow", "--metric", "conullity3", "--point=0.1,0.2,2.9,0.4", "--tmax", "1"),
    ("flow", "--metric", "conullity3", "--point", "0.1,0.2,-0.3,0.4", "--tmax", "-1"),
    ("flow", "--metric", "polar", "--point", "1,0", "--direction", "-1,0", "--tmax", "2"),
    ("scan", "--metric", "conullity3", "--p", "2+u^2.5", "--grid", "u=-1:1:3,w=0:0:1"),
    ("scan", "--metric", "conullity3", "--p", "2 + u ^ 2", "--grid", "u=-1:1:3,w=0:0:1"),
    ("scan", "--metric", "product", "--dim", "5", "--grid", "theta=0.5:2.5:3,x1=-1:1:2"),
    ("scan", "--metric", "euclidean", "--dim", "3", "--grid", "x0=-1:1:3"),
    ("flow", "--metric", "conullity3", "--point", "0.1,0.2,-0.3,0.4", "--tmax", "1", "--steps", "300"),
    ("flow", "--metric", "conullity3", "--point", "0.1,0.2,-0.3,0.4", "--tmax", "1", "--steps", "1"),
    (
        "scan", "--metric", "sekigawa", "--p", "exp(u)",
        "--point=-0.5129016867312783,-2.5422821854087916,1.0267175751331235",
        "--grid", "u=-2.5422821854087916:-1.5422821854087916:3,v=1.0267175751331235:2.0267175751331235:3",
    ),
)


def run(argv) -> tuple:
    """(exit code, stdout text) of one in-process ``geonull`` call."""
    from geonull.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv))
    return code, out.getvalue()


# run in a subprocess against another tree's sources: DIR/src, then the argv
BASE_RUNNER = (
    "import sys; sys.path.insert(0, sys.argv[1]); from geonull.cli import main; "
    "sys.exit(main(sys.argv[2:]))"
)


def run_base(base: str, argv) -> tuple:
    """(exit code, stdout text) of one ``geonull`` call against ``base/src``."""
    cmd = [sys.executable, *(f"-W{w}" for w in sys.warnoptions), "-c", BASE_RUNNER]
    proc = subprocess.run(
        cmd + [os.path.join(base, "src"), *argv],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
    )
    return proc.returncode, proc.stdout.decode("utf-8")  # keep scan's \r\n


def _parse(text: str):
    """A JSON document (numbers as floats, so -0 keeps its sign), or a CSV table as a list of row dicts."""
    try:
        return json.loads(text, parse_int=float)
    except ValueError:
        return list(csv.DictReader(io.StringIO(text)))


def _leaves(obj, path: str = ""):
    """(path, value) for every scalar, list indices collapsed to ``[]``."""
    if isinstance(obj, dict):
        for key in obj:
            yield from _leaves(obj[key], f"{path}.{key}" if path else str(key))
    elif isinstance(obj, list):
        for item in obj:
            yield from _leaves(item, path + "[]")
    else:
        yield path, obj


def _by_path(obj) -> dict:
    """path -> the values of :func:`_leaves` at that path, in document order."""
    values = {}
    for path, value in _leaves(obj):
        values.setdefault(path, []).append(value)
    return values


def _number(value):
    """``value`` as a float when it reads as a number (not a bool), else None."""
    if isinstance(value, bool):
        return None
    try:
        return float(value)
    except (TypeError, ValueError):
        return None


def _ordinal(x: float) -> int:
    """Position of x in the ordered doubles, so ulps apart is a difference."""
    i = struct.unpack("<q", struct.pack("<d", x))[0]
    return i if i >= 0 else -(2**63) - i


_ABSENT = object()


def _largest(values) -> float:
    """The largest finite |number| among ``values``, 0.0 without one."""
    numbers = (_number(value) for value in values)
    return max((abs(x) for x in numbers if x is not None and math.isfinite(x)), default=0.0)


def moved_fields(old_text: str, new_text: str) -> dict:
    """path -> [values moved, max |change|, max ulps, max ulps of the largest |value|, that value] over the leaves that differ.

    The values at one path are paired in document order.  A value present
    on one side only counts as moved with no size; so does a non-numeric
    value that changed.  The largest |value| is taken over every value at
    the path, on both sides.
    """
    old = _by_path(_parse(old_text))
    new = _by_path(_parse(new_text))
    report = {}
    for path in sorted(old.keys() | new.keys()):
        largest = max(_largest(old.get(path, ())), _largest(new.get(path, ())))
        for a, b in itertools.zip_longest(old.get(path, ()), new.get(path, ()), fillvalue=_ABSENT):
            if repr(a) == repr(b):  # repr tells -0.0 from 0.0
                continue
            entry = report.setdefault(path, [0, None, None, None, largest])
            entry[0] += 1
            x, y = _number(a), _number(b)
            if x is not None and y is not None and math.isfinite(x) and math.isfinite(y):
                entry[1] = max(entry[1] or 0.0, abs(x - y))
                entry[2] = max(entry[2] or 0, abs(_ordinal(x) - _ordinal(y)))
                entry[3] = max(entry[3] or 0.0, abs(x - y) / math.ulp(largest))
    return report


def field_report(base: str) -> int:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    status = 0
    for argv in ARGVS:
        (code_old, old), (code_new, new) = run_base(base, argv), run(argv)
        if code_old or code_new:
            print(f"exit {code_old} -> {code_new}: geonull {shlex.join(argv)}")
            status = 1
        if old == new:
            continue
        status = 1
        print(f"moved: geonull {shlex.join(argv)}")
        for path, (count, change, ulps, scaled, largest) in sorted(moved_fields(old, new).items()):
            size = "" if change is None else (
                f", max |change| {change:.3g}, max {ulps} ulps"
                f", max {scaled:.3g} ulps of the largest |value| {largest:.3g}")
            print(f"  {path}: {count} value{'s' if count != 1 else ''}{size}")
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", metavar="DIR", help="report the fields that moved against DIR/src")
    args = parser.parse_args()
    if args.base is not None:
        return field_report(args.base)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    status = 0
    for argv in ARGVS:
        code, text = run(argv)
        if code != 0:
            print(f"stdout_digest: exit {code}: {shlex.join(argv)}", file=sys.stderr)
            status = 1
        print(f"{hashlib.sha256(text.encode('utf-8')).hexdigest()}  geonull {shlex.join(argv)}")
    return status


if __name__ == "__main__":
    sys.exit(main())
