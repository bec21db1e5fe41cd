"""Bounded property test of the command-line contract over the flag grammar.

Every argv drawn here, valid or not, must end with a documented exit code
(0 success, 1 usage error, 2 domain error, 3 verification failure) and
never raise.  Stdout is empty after exit 1 or 2.  Otherwise it is one
document that parses: JSON for ``analyze``, ``flow`` and ``--json`` on
``verify`` or ``catalog``, CSV for ``scan``, or the text report.  A JSON
document holds ``null`` only where the schema allows one, and a rerun
prints the same bytes.  Steps, grids and suites stay small, so each example
costs milliseconds.

The draw is derandomized, so every run checks the same argvs.  A wider
search is a manual run: draw from ``_argvs()`` under other seeds and more
examples, and call the test's ``hypothesis.inner_test`` on each draw.
"""

import contextlib
import csv
import io
import json
import math

from hypothesis import given, settings, strategies as st

from geonull.cli import main

# finite, zero, negative, huge, and values no flag should accept
NUMBERS = ("0.5", "2", "0", "-1", "-0.3", "1e300", "-1e300", "1e999", "nan", "inf", "-inf")
CONSTANTS = ("2", "0", "-1", "1e-300", "1e10", "1e300", "1e999", "nan")
P_TEMPLATES = (
    "{c}+u*u",
    "2+sin({c}*u)",
    "3+cos(u)+cos({c}*w)",
    "exp({c}*u)",
    "2+u/{c}",
    "{c}",
)
COORDINATES = {
    "euclidean": ("x0", "x1", "x2", "x3"),
    "sphere": ("theta", "phi"),
    "polar": ("r", "phi"),
    "product": ("theta", "phi", "x0", "x1"),
    "sekigawa": ("x", "u", "v"),
    "conullity3": ("x", "u", "v", "w"),
}
# the keys whose value may be null: an absent quantity, never a non-finite one
ALLOWED_NULLS = {
    "nonflat_plane_curvature",
    "sectional_min",
    "sectional_max",
    "splitting",
    "normal_form_entries",
    "nilpotency_index",
    "aborted",
    "tolerance",  # _check stores None when it is given ``passed``
}
# the verify suites that run in milliseconds, and one that does not exist
SUITES = ("euclidean", "product", "sekigawa", "bogus")
SEEDS = ("0", "7", "-5", "1e999", "nan", str(2**70))

numbers = st.sampled_from(NUMBERS)


def _number_list(size):
    return st.lists(numbers, min_size=size, max_size=size).map(",".join)


@st.composite
def _argvs(draw):
    command = draw(st.sampled_from(("analyze", "scan", "flow", "verify", "catalog")))
    if command in ("verify", "catalog"):
        argv = [command]
        if command == "verify":
            argv += ["--suite", draw(st.sampled_from(SUITES))]
            if draw(st.booleans()):
                argv += ["--seed", draw(st.sampled_from(SEEDS))]
        if draw(st.booleans()):
            argv.append("--json")
        return argv
    metric = draw(st.sampled_from(sorted(COORDINATES)))
    coords = COORDINATES[metric]
    argv = [command, "--metric", metric]
    if draw(st.booleans()):
        template = draw(st.sampled_from(P_TEMPLATES))
        argv += ["--p", template.format(c=draw(st.sampled_from(CONSTANTS)))]
    if draw(st.booleans()):
        argv += ["--radius", draw(numbers)]
    if metric in ("euclidean", "product") and draw(st.booleans()):
        argv += ["--dim", draw(st.sampled_from(("1", "2", "4", "0", "7", "nan")))]
    if draw(st.booleans()):
        size = draw(st.sampled_from((len(coords), len(coords), 1)))
        argv.append("--point=" + draw(_number_list(size)))
    if draw(st.booleans()):
        argv += ["--rel-tol", draw(numbers)]
    if command == "scan":
        axes = []
        for coord in draw(st.lists(st.sampled_from(coords + ("bogus",)), min_size=1, max_size=2)):
            lo, hi = draw(numbers), draw(numbers)
            count = draw(st.sampled_from(("1", "2", "0", "-2", "100000000")))
            axes.append(f"{coord}={lo}:{hi}:{count}")
        argv += ["--grid", ",".join(axes)]
    if command == "flow":
        if draw(st.booleans()):
            argv.append("--direction=" + draw(_number_list(len(coords))))
        if draw(st.booleans()):
            argv += ["--tmax", draw(numbers)]
        argv += ["--steps", draw(st.sampled_from(("1", "2", "3", "0", "-2", "nan")))]
    return argv


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv))
    return code, out.getvalue()


def _unexpected_nulls(node, key=None):
    """Paths of ``None`` values outside ``ALLOWED_NULLS``."""
    if node is None:
        return [] if key in ALLOWED_NULLS else [key]
    if isinstance(node, dict):
        return [p for k, v in node.items() for p in _unexpected_nulls(v, k)]
    if isinstance(node, list):  # a null entry of a list is a non-finite number
        return [p for v in node for p in _unexpected_nulls(v, f"{key}[]")]
    return []


def _check_csv(out):
    rows = list(csv.reader(io.StringIO(out, newline="")))
    header = rows[0]
    assert header[-5:] == ["scal", "nullity", "conullity", "classification", "status"]
    for row in rows[1:]:
        assert len(row) == len(header)
        assert row[-1] in ("ok", "domain")
        if row[-1] == "ok":
            assert math.isfinite(float(row[-5]))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_argvs())
def test_every_argv_keeps_the_output_contract(argv):
    code, out = _run(argv)
    assert code in (0, 1, 2, 3)
    if code in (1, 2):
        assert out == ""
    else:  # exit 3 is a verify report that names its failed checks
        assert code == 0 or argv[0] == "verify"
        assert out
        if argv[0] == "scan":
            _check_csv(out)
        elif argv[0] in ("analyze", "flow") or "--json" in argv:
            doc = json.loads(out)
            assert _unexpected_nulls(doc) == []
    assert _run(argv) == (code, out)
