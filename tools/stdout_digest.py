"""Print one ``sha256  argv`` line per command of the stdout-equivalence set.

The set is ``analyze`` on all six catalog families, on the concave
conullity3 warp (non-negative sectional curvature) and at a nearly
degenerate nilpotent splitting tensor of a sekigawa warp, ``scan`` on conullity3,
on sekigawa (no preferred frame) and on the concave warp (domain rows and
points near p -> 0), ``flow`` in both modes (kernel mode also on
sekigawa, whose splitting-tensor stencil builds its complement, having no
preferred frame) and ``verify --suite all --json``.  Each argv runs in-process through ``geonull.cli.main`` against
the sources next to this script; stderr (timings) is discarded.  A refactor
that claims identical output shows identical lines before and after; a line
that moves names the command whose bytes moved.

Run:  python3 tools/stdout_digest.py

Exits 1 if any command exits nonzero, since every argv here is expected to
succeed.

Field report:  python3 tools/stdout_digest.py --base DIR

runs each argv against ``DIR/src`` in a subprocess and against this tree,
and for every output that differs prints the fields that moved: each JSON
path (a scan row's CSV column) with list indices collapsed to ``[]``, how
many values moved there, the largest absolute change and the largest change
in ulps.  Exits 1 if any output differs or any command exits nonzero.
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
    ("scan", "--metric", "conullity3", "--grid", "u=-1.5:1.5:4,w=-1.5:1.5:4"),
    ("scan", "--metric", "sekigawa", "--p", "exp(u)", "--grid", "x=-1:1:4,u=-1:1:4"),
    ("scan", "--metric", "conullity3", "--p", "4-u*u-w*w", "--grid", "u=-1.5:1.5:4,w=-1.5:1.5:4"),
    ("flow", "--metric", "conullity3", "--point", "0.1,0.2,-0.3,0.4", "--tmax", "1"),
    ("flow", "--metric", "product", "--point", "1,0.5,0.2,-0.1", "--tmax", "0.5"),
    ("flow", "--metric", "conullity3", "--point", "0,0,0,0", "--direction", "0,1,0,0"),
    ("flow", "--metric", "sekigawa", "--p", "2+u*u", "--point", "0.2,0.3,0.1", "--tmax", "0.5"),
    ("verify", "--suite", "all", "--json"),
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
    """A JSON document, or a CSV table as a list of row dicts."""
    try:
        return json.loads(text)
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


def moved_fields(old_text: str, new_text: str) -> dict:
    """path -> [values moved, max |change|, max ulps] over the leaves that differ.

    A value present on one side only counts as moved with no size; so does a
    non-numeric value that changed.
    """
    old = _leaves(_parse(old_text))
    new = _leaves(_parse(new_text))
    report = {}
    for (po, a), (pn, b) in itertools.zip_longest(old, new, fillvalue=(None, None)):
        if po == pn and repr(a) == repr(b):  # repr tells -0.0 from 0.0 and 1 from 1.0
            continue
        for path in {po, pn} - {None}:
            entry = report.setdefault(path, [0, None, None])
            entry[0] += 1
            x, y = _number(a), _number(b)
            if po == pn and x is not None and y is not None and math.isfinite(x) and math.isfinite(y):
                entry[1] = max(entry[1] or 0.0, abs(x - y))
                entry[2] = max(entry[2] or 0, abs(_ordinal(x) - _ordinal(y)))
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
        for path, (count, change, ulps) in sorted(moved_fields(old, new).items()):
            size = "" if change is None else f", max |change| {change:.3g}, max {ulps} ulps"
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
