"""Print one ``sha256  argv`` line per command of the stdout-equivalence set.

The set is ``analyze`` on all six catalog families, on the concave
conullity3 warp (non-negative sectional curvature) and at a nearly
degenerate nilpotent splitting tensor of a sekigawa warp, ``scan`` on conullity3,
on sekigawa (no preferred frame) and on the concave warp (domain rows and
points near p -> 0), ``flow`` in both modes and ``verify --suite all
--json``.  Each argv runs in-process through ``geonull.cli.main`` against
the sources next to this script; stderr (timings) is discarded.  A refactor
that claims identical output shows identical lines before and after; a line
that moves names the command whose bytes moved.

Run:  python3 tools/stdout_digest.py

Exits 1 if any command exits nonzero, since every argv here is expected to
succeed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import shlex
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
    ("verify", "--suite", "all", "--json"),
)


def run(argv) -> tuple:
    """(exit code, stdout text) of one in-process ``geonull`` call."""
    from geonull.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv))
    return code, out.getvalue()


def main() -> int:
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
