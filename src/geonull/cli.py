"""Command-line front end: analyze, scan, flow, verify, catalog.

Output contracts:

* ``analyze`` and ``flow`` print one JSON document (schema ``geonull/1``,
  sorted keys, 17-significant-digit floats) to stdout or ``--out``.
* ``scan`` prints RFC-4180 CSV (CRLF line endings, header row) with one row
  per grid point in lexicographic grid order and a per-row status column.
* ``verify`` prints a human-readable report, or the JSON document under
  ``--json``; the sampling seed is always printed.
* Identical invocations produce byte-identical stdout; wall-clock timings
  go to stderr only.

``analyze``, ``scan`` and kernel-mode ``flow`` measure the splitting tensor
through one pipeline, ``splitting._pipeline``: R, the kernel, T, the solve
rows, the nabla R solve and its gate, each stage stacked over its points.
``analyze`` runs it on its point, from its one metric jet; ``scan`` on each
chunk of grid points, jetted in one call; ``flow`` on its 9 samples, the
start among them, after a kernel geodesic of m steps jetted and inverted in
one stacked call per block of steps (``flows.geodesic``): 2m+1 jets, one for
the start and one for each of the 8 later samples (522 at 256 steps).

Exit codes: 0 success, 1 usage error, 2 domain error (a float overflow or
a metric too ill-conditioned to invert included), 3 verification failure.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json as _json
import math
import os
import re
import sys
import time
import traceback

import numpy as np

from . import __version__
from .curvature import (
    curvature_data,
    nullity,
    scalar_curvature,
    sectional,
    sectional_range,
)
from .exprcalc import DomainError, ParseError
from .flows import (
    LaunchError,
    flatness_probe,
    geodesic,
    incompleteness_probe,
    nullity_geodesic_check,
)
from .metricspace import (
    CATALOG,
    ChartDomainError,
    catalog_conullity3,
    catalog_euclidean,
    catalog_product,
    catalog_sekigawa,
    catalog_sphere,
)
from .numcore import REL_TOL_ANALYTIC, SingularMatrixError
from .splitting import (
    SMOOTH_KERNEL_RESIDUAL,
    AlignmentError,
    KernelDimensionError,
    KernelFieldError,
    NonUnitFieldError,
    RiccatiBlowupError,
    _normal_form,
    _pipeline,
    classify,
    evolve_along_nullity_geodesic,
    kernel_section,
    riccati_closed_form,
    riccati_ode,
    splitting_tensor,
    trace_det_evolution,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DOMAIN = 2
EXIT_VERIFY = 3

SCHEMA = "geonull/1"
DEFAULT_SEED = 1729
# a tensor solved from nabla R carries noise up to the residual gate's;
# nilpotent spectra amplify a perturbation eps to eigenvalues of order sqrt(eps)
CLASSIFY_TOL = 2e-4

# a scan builds its whole grid before writing the first row
MAX_SCAN_POINTS = 10**6
# a flow keeps every node of its path, about 1.2 KB a step with the frame
MAX_FLOW_STEPS = 10**6
# a scan stacks as many points as keep nabla R, its largest stacked array at
# n^5 floats per point, within this many bytes
SCAN_CHUNK_BYTES = 1 << 18
# a scan point whose jet or R meets one of these is a domain row; one whose
# frame, nabla R or solve meets one is an ok row without a kind
_SCAN_FAULTS = (ChartDomainError, DomainError, SingularMatrixError, FloatingPointError)

SUITE_ORDER = ("euclidean", "sphere", "product", "sekigawa", "conullity3", "riccati")


# ---------------------------------------------------------------------------
# deterministic serialization


def _float_repr(x: float) -> str:
    if math.isnan(x) or math.isinf(x):
        return "null"
    return "%.17g" % x


def _float_array(values) -> str:
    """The JSON array of a list of floats: one format call for all, one a value where a nan or inf needs its ``null``."""
    text = ("%.17g," * len(values) % tuple(values))[:-1]
    if "n" in text:  # "nan" or "inf"
        text = ",".join(map(_float_repr, values))
    return "[" + text + "]"


# the types _dumps writes; anything else goes through _plain first
_PLAIN = frozenset({list, tuple, dict, float, str, int, bool, type(None)})
_encode = _json.encoder.encode_basestring  # json.dumps(obj, ensure_ascii=False), unwrapped


def _plain(obj):
    """``obj`` as one of the :data:`_PLAIN` types: numpy arrays and scalars, and subclasses of those types, converted."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return float(obj)
    for base in (str, list, tuple, dict):
        if isinstance(obj, base):
            return base(obj)
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _dumps(obj) -> str:
    """Deterministic JSON: sorted keys, fixed float formatting, no spaces."""
    kind = type(obj)
    if kind not in _PLAIN:
        obj = _plain(obj)
        kind = type(obj)
    if kind is list or kind is tuple:
        if all(type(v) is float for v in obj):
            return _float_array(obj)
        return "[" + ",".join(map(_dumps, obj)) + "]"
    if kind is dict:
        return "{" + ",".join(_encode(str(key)) + ":" + _dumps(obj[key]) for key in sorted(obj)) + "}"
    if kind is float:
        return _float_repr(obj)
    if kind is str:
        return _encode(obj)
    if kind is bool:
        return "true" if obj else "false"
    if kind is int:
        return str(obj)
    return "null"


def _emit(text: str, args) -> None:
    out = getattr(args, "out", None)
    if out:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _timing(label: str, started: float) -> None:
    print(f"geonull: {label} took {time.perf_counter() - started:.3f}s", file=sys.stderr)


# ---------------------------------------------------------------------------
# flag plumbing


# a comma-separated list of numbers whose first entry is negative; argparse
# alone takes "-0.3" as a value but "-0.3,0.5" as an unknown flag
_UNSIGNED = r"(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?"
_NEGATIVE_NUMBER_LIST = re.compile(rf"^-{_UNSIGNED}(?:,\s*[-+]?{_UNSIGNED})*$")


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_NUMBER_LIST

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _number(convert, ok, expected: str):
    """argparse type: ``convert`` the text, then require a finite value passing ``ok``."""

    def parse(raw: str):
        try:
            value = convert(raw)
            valid = math.isfinite(value) and ok(value)
        except ValueError:
            valid = False
        if not valid:
            raise argparse.ArgumentTypeError(f"expected {expected}, got {raw!r}")
        return value

    return parse


_finite = _number(float, lambda v: True, "a finite number")
_nonzero = _number(float, lambda v: v != 0.0, "a nonzero finite number")
_fraction = _number(float, lambda v: 0.0 < v < 1.0, "a number in (0, 1)")
_steps = _number(int, lambda v: 1 <= v <= MAX_FLOW_STEPS, f"an integer in 1..{MAX_FLOW_STEPS}")
_seed = _number(int, lambda v: v >= 0, "a non-negative integer")


def _floats(raw: str, flag: str, parser) -> list:
    """Comma-separated finite floats of a list-valued flag, or a usage error."""
    try:
        values = [float(tok) for tok in raw.split(",")]
    except ValueError:
        parser.error(f"could not parse {flag} {raw!r}")
    if not all(math.isfinite(v) for v in values):
        parser.error(f"{flag} values must be finite, got {raw!r}")
    return values


def _add_metric_flags(sp):
    sp.add_argument("--metric", choices=sorted(CATALOG), help="catalog metric name")
    sp.add_argument("--p", help="warp expression for sekigawa/conullity3")
    sp.add_argument("--radius", type=_finite, help="sphere radius")
    sp.add_argument("--dim", type=int, help="dimension for euclidean/product")
    sp.add_argument(
        "--point",
        help="comma-separated chart coordinates (default: the origin; theta = pi/2 on sphere "
        "and product, r = 1 on polar)",
    )
    sp.add_argument("--rel-tol", type=_fraction, default=None, help="rank tolerance override, in (0, 1)")
    sp.add_argument("--out", help="write output to a file instead of stdout")


@functools.lru_cache(maxsize=1)
def _build_parser() -> _Parser:
    """The ``geonull`` parser, built on the first call and shared by every later one.

    Sharing it keeps no state from one :func:`main` call to the next:
    ``_Parser.error``, ``--help`` and ``--version`` look up ``sys.stderr`` or
    ``sys.stdout`` when they write, not when the parser is built; the
    ``type=`` converters made by :func:`_number` are pure functions of their
    text; argparse copies each subcommand's defaults, ``func`` included, into
    a fresh ``Namespace`` on every parse, and every default is immutable; the
    ``choices`` come from ``CATALOG`` and ``SUITE_ORDER``, module constants
    that nothing changes at runtime.
    """
    parser = _Parser(prog="geonull", description="curvature-kernel geometry toolkit")
    parser.add_argument("--version", action="version", version=f"geonull {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    sp = sub.add_parser("analyze", help="curvature, nullity, and splitting tensor at a point")
    _add_metric_flags(sp)
    sp.set_defaults(func=cmd_analyze)

    sp = sub.add_parser("scan", help="grid scan to CSV")
    _add_metric_flags(sp)
    sp.add_argument("--grid", required=True, help='grid spec "var=lo:hi:n,..."')
    sp.set_defaults(func=cmd_scan)

    sp = sub.add_parser("flow", help="splitting tensor along a kernel geodesic")
    _add_metric_flags(sp)
    sp.add_argument("--direction", help="custom launch direction (comma-separated components)")
    sp.add_argument("--tmax", type=_nonzero, default=1.0, help="geodesic parameter length (nonzero)")
    sp.add_argument("--steps", type=_steps, default=256, help=f"integration steps, at most {MAX_FLOW_STEPS}")
    sp.set_defaults(func=cmd_flow)

    sp = sub.add_parser("verify", help="run a named verification suite")
    sp.add_argument("--suite", choices=SUITE_ORDER + ("all",), default="all")
    sp.add_argument("--seed", type=_seed, default=None)
    sp.add_argument("--json", action="store_true")
    sp.add_argument("--out", help="write output to a file instead of stdout")
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("catalog", help="list catalog metrics and their checkable facts")
    sp.add_argument("--json", action="store_true")
    sp.add_argument("--out", help="write output to a file instead of stdout")
    sp.set_defaults(func=cmd_catalog)
    return parser


def _build_metric(args, parser):
    if not getattr(args, "metric", None):
        parser.error("--metric is required")
    entry = CATALOG[args.metric]
    kwargs = {}
    if args.p is not None:
        kwargs["p"] = args.p
    if args.radius is not None:
        kwargs["radius"] = args.radius
    if args.dim is not None:
        kwargs["dim"] = args.dim
    try:
        return entry.build(**kwargs)
    except ParseError as exc:
        parser.error(f"invalid --p expression: {exc}")
    except (TypeError, ValueError) as exc:
        parser.error(str(exc))


def _parse_point(args, metric, parser) -> np.ndarray:
    raw = getattr(args, "point", None)
    if raw is None:
        point = np.zeros(metric.dim)
        lead = CATALOG[args.metric].default_point
        point[: len(lead)] = lead
        return point
    values = _floats(raw, "--point", parser)
    if len(values) != metric.dim:
        parser.error(f"--point has {len(values)} components, chart needs {metric.dim}")
    return np.asarray(values, dtype=float)


def _metric_doc(metric) -> dict:
    return {
        "name": metric.name,
        "dim": metric.dim,
        "coordinates": list(metric.coordinates),
        "provenance": "analytic",
    }


# ---------------------------------------------------------------------------
# analyze


def cmd_analyze(args, parser) -> int:
    started = time.perf_counter()
    metric = _build_metric(args, parser)
    point = _parse_point(args, metric, parser)
    stack = _pipeline(metric, point[None], [a[None] for a in metric.jet(point, order=3)], {}, args.rel_tol)
    if stack.errors[0] is not None:
        raise stack.errors[0]
    data = stack.data(0)
    smin, smax = sectional_range(data)
    splitting, solve = None, stack.tensors[0]
    if isinstance(solve, Exception):
        raise solve
    if solve is not None:
        matrix, residual, _ = solve
        if isinstance(matrix, KernelFieldError):
            splitting = {"error": str(matrix)}
        else:
            inv = classify(matrix, tol=CLASSIFY_TOL)
            # the gate bounds the solve's error: smaller entries on or below the diagonal are noise
            triangular_residual, normal_form = _normal_form(matrix, SMOOTH_KERNEL_RESIDUAL)
            splitting = {
                "matrix": matrix,
                "normal_form_entries": None if normal_form is None else list(normal_form),
                "triangular_residual": triangular_residual,
                "solve_residual": residual,
                "classification": {
                    "kind": inv.kind,
                    "trace": inv.trace,
                    "det_block": inv.det_block,
                    "eigenvalues_re": inv.eigenvalues.real,
                    "eigenvalues_im": inv.eigenvalues.imag,
                    "nilpotency_index": inv.nilpotency_index,
                },
            }
    doc = {
        "schema": SCHEMA,
        "command": "analyze",
        "metric": _metric_doc(metric),
        "point": point,
        "curvature": {
            "scalar_trace": data.scalar_trace,
            "half_trace": data.half_trace,
            "nonflat_plane_curvature": data.nonflat_plane_curvature,
            "sectional_min": smin,
            "sectional_max": smax,
        },
        "nullity": {
            "nullity": data.nullity.nullity,
            "conullity": data.nullity.conullity,
            "kernel_basis": data.nullity.basis,
            "residuals": data.nullity.residuals,
            "singular_values": data.nullity.singular_values,
            "tolerance_used": data.nullity.tolerance_used,
        },
        "splitting": splitting,
        "tolerances": {
            "rel_tol": args.rel_tol if args.rel_tol is not None else REL_TOL_ANALYTIC,
            "classify_tol": CLASSIFY_TOL,
        },
    }
    _emit(_dumps(doc) + "\n", args)
    _timing("analyze", started)
    return EXIT_OK


# ---------------------------------------------------------------------------
# scan


def _parse_grid(spec, metric, parser):
    ranges = []
    for part in spec.split(","):
        if "=" not in part:
            parser.error(f"bad grid axis {part!r} (expected var=lo:hi:n)")
        name, rng = part.split("=", 1)
        name = name.strip()
        if name not in metric.coordinates:
            parser.error(f"unknown grid coordinate {name!r} for {metric.name}")
        if any(metric.coordinates[coord] == name for coord, *_ in ranges):
            parser.error(f"grid coordinate {name!r} given twice")
        pieces = rng.split(":")
        if len(pieces) != 3:
            parser.error(f"bad grid range {rng!r} (expected lo:hi:n)")
        try:
            lo, hi, count = float(pieces[0]), float(pieces[1]), int(pieces[2])
        except ValueError:
            parser.error(f"bad grid range {rng!r}")
        if not (math.isfinite(lo) and math.isfinite(hi)):
            parser.error(f"grid range {rng!r} must be finite")
        if count < 1:
            parser.error("grid axis needs at least one sample")
        ranges.append((metric.coordinates.index(name), lo, hi, count))
    if math.prod(count for *_, count in ranges) > MAX_SCAN_POINTS:
        parser.error(f"grid {spec!r} has more than {MAX_SCAN_POINTS} points")
    return [(coord, np.linspace(lo, hi, count)) for coord, lo, hi, count in ranges]


def _scan_rows(metric, points, rel_tol) -> list:
    """``(scal, nullity, conullity, kind)`` at each point, or None for a domain row.

    The points go through :func:`_scan_chunk` in chunks whose 3-jet, the
    largest stacked array at n^5 floats per point, fits
    :data:`SCAN_CHUNK_BYTES`.
    """
    size = max(1, SCAN_CHUNK_BYTES // (8 * metric.dim ** 5))
    return [
        row for start in range(0, len(points), size)
        for row in _scan_chunk(metric, points[start:start + size], rel_tol)
    ]


def _scan_chunk(metric, points, rel_tol) -> list:
    """:func:`_scan_rows` for one chunk: its 3-jets from one ``MetricField.jets`` call, then ``splitting._pipeline`` over them.

    A point whose jet, R or kernel fails is a domain row; one whose nabla R
    solve fails, or whose residual fails the gate, an ok row without a kind.
    An error outside :data:`_SCAN_FAULTS` is raised.
    """
    points = np.asarray(points, dtype=float)
    stack = _pipeline(metric, points, *metric.jets(points, order=3), rel_tol)
    for exc in stack.errors + stack.tensors:
        if isinstance(exc, Exception) and not isinstance(exc, _SCAN_FAULTS):
            raise exc
    kinds = stack.kinds(CLASSIFY_TOL)
    rows = [None] * len(points)
    for i, exc in enumerate(stack.errors):
        if exc is None:
            size = int(stack.kernels.sizes[i])
            rows[i] = (float(stack.scal[i]), size, metric.dim - size, kinds[i])
    return rows


def cmd_scan(args, parser) -> int:
    started = time.perf_counter()
    metric = _build_metric(args, parser)
    base = _parse_point(args, metric, parser)
    axes = _parse_grid(args.grid, metric, parser)
    # decompose the flat index with the last axis least significant, giving
    # lexicographic (row-major) order in the axes as written in --grid
    points = []
    counts = [values.size for _, values in axes]
    total = int(np.prod(counts))
    for flat in range(total):
        rem = flat
        pt = base.copy()
        for axis in range(len(axes) - 1, -1, -1):
            coord, values = axes[axis]
            pt[coord] = values[rem % values.size]
            rem //= values.size
        points.append(pt)
    results = _scan_rows(metric, points, args.rel_tol)

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")
    writer.writerow(list(metric.coordinates) + ["scal", "nullity", "conullity", "classification", "status"])
    for pt, res in zip(points, results):
        coords = ["%.17g" % c for c in pt]
        if res is None:
            writer.writerow(coords + ["", "", "", "", "domain"])
        else:
            scal, nul, conul, kind = res
            writer.writerow(coords + ["%.17g" % scal, str(nul), str(conul), kind, "ok"])
    _emit(buf.getvalue(), args)
    _timing("scan", started)
    return EXIT_OK


# ---------------------------------------------------------------------------
# flow


def cmd_flow(args, parser) -> int:
    started = time.perf_counter()
    metric = _build_metric(args, parser)
    point = _parse_point(args, metric, parser)
    doc = {
        "schema": SCHEMA,
        "command": "flow",
        "metric": _metric_doc(metric),
        "point": point,
        "tmax": args.tmax,
        "steps": args.steps,
    }
    if args.direction is not None:
        direction = _floats(args.direction, "--direction", parser)
        if len(direction) != metric.dim:
            parser.error(f"--direction has {len(direction)} components, chart needs {metric.dim}")
        report = nullity_geodesic_check(
            metric, point, direction=direction, tmax=args.tmax, steps=args.steps,
            rel_tol=args.rel_tol,
        )
        doc.update({
            "mode": "custom",
            "direction": direction,
            "nullity_check": {
                "passed": report.constant_nullity and report.max_velocity_misalignment < 1e-6,
                "constant_nullity": report.constant_nullity,
                "nullity_values": list(report.nullity_values),
                "max_velocity_misalignment": report.max_velocity_misalignment,
            },
            "truncated": report.path.truncated,
        })
    else:
        report = evolve_along_nullity_geodesic(
            metric, point, tmax=args.tmax, steps=args.steps, rel_tol=args.rel_tol,
        )
        doc.update({
            "mode": "nullity",
            "kernel_dimension": report.kernel_dimension,
            "start_matrix": report.start_matrix,
            "samples": [
                {"t": t, "C": c, "predicted": p, "deviation": d}
                for t, c, p, d in zip(
                    report.sample_times, report.measured, report.predicted, report.deviations
                )
            ],
            "max_deviation": report.max_error,
            "aborted": report.aborted,
            "truncated": report.path.truncated,
            "basis_gram_drift": report.basis_gram_drift,
        })
    _emit(_dumps(doc) + "\n", args)
    _timing("flow", started)
    return EXIT_OK


# ---------------------------------------------------------------------------
# verification suites


def _check(name, expected, computed, tolerance=None, passed=None):
    if passed is None:
        passed = abs(float(computed) - float(expected)) <= float(tolerance)
    return {
        "name": name,
        "expected": expected,
        "computed": computed,
        "tolerance": tolerance,
        "passed": bool(passed),
    }


def _suite_rng(seed: int, suite: str) -> np.random.Generator:
    return np.random.default_rng((int(seed), SUITE_ORDER.index(suite)))


def _suite_euclidean(seed: int) -> list:
    rng = _suite_rng(seed, "euclidean")
    metric = catalog_euclidean(4)
    pts = rng.uniform(-2.0, 2.0, (5, 4))
    checks = []
    worst_r = 0.0
    worst_nullity = 4
    for pt in pts:
        data = curvature_data(metric, pt)
        worst_r = max(worst_r, float(np.max(np.abs(data.rdown))))
        worst_nullity = min(worst_nullity, data.nullity.nullity)
    checks.append(_check("riemann_vanishes", 0.0, worst_r, 1e-12))
    checks.append(_check("nullity_full", 4, worst_nullity, passed=worst_nullity == 4))
    try:
        splitting_tensor(metric, pts[0])
        outcome = "no error"
    except KernelDimensionError:
        outcome = "KernelDimensionError"
    checks.append(
        _check("splitting_undefined_precondition", "KernelDimensionError", outcome,
               passed=outcome == "KernelDimensionError")
    )
    v = rng.standard_normal(4)
    path = geodesic(metric, pts[0], v, 1.0, steps=64)
    err = float(np.max(np.abs(path.endpoint - (pts[0] + v))))
    checks.append(_check("geodesics_are_straight", 0.0, err, 1e-10))
    return checks


def _suite_sphere(seed: int) -> list:
    rng = _suite_rng(seed, "sphere")
    metric = catalog_sphere(1.0)
    checks = []
    worst_sec = 0.0
    worst_scal = 0.0
    for _ in range(6):
        pt = np.array([rng.uniform(0.3, math.pi - 0.3), rng.uniform(-3.0, 3.0)])
        X = rng.standard_normal(2)
        Y = rng.standard_normal(2)
        worst_sec = max(worst_sec, abs(sectional(metric, pt, X, Y) - 1.0))
        worst_scal = max(worst_scal, abs(scalar_curvature(metric, pt) - 2.0))
    checks.append(_check("sectional_equals_inverse_radius_sq", 1.0, 1.0 + worst_sec, 1e-9))
    checks.append(_check("scalar_trace_equals_two", 2.0, 2.0 + worst_scal, 1e-9))
    start = np.array([math.pi / 2, 0.0])
    v0 = np.array([0.3, 1.0])
    v0 = v0 / math.sqrt(float(v0 @ metric.g(start) @ v0))
    path = geodesic(metric, start, v0, 2.0, steps=256, frame=np.eye(2))
    checks.append(_check("transport_preserves_gram", 0.0, path.gram_drift, 1e-8))
    return checks


def _suite_product(seed: int) -> list:
    rng = _suite_rng(seed, "product")
    metric = catalog_product(catalog_sphere(1.0), catalog_euclidean(2))
    checks = []
    worst_conullity = 2
    kernel_leak = 0.0
    worst_c = 0.0
    ref = np.array([0.0, 0.0, 1.0, 0.0])
    for _ in range(8):
        pt = np.array([
            rng.uniform(0.3, math.pi - 0.3),
            rng.uniform(-3.0, 3.0),
            rng.uniform(-2.0, 2.0),
            rng.uniform(-2.0, 2.0),
        ])
        res = nullity(metric, pt)
        if res.conullity != 2:
            worst_conullity = res.conullity
        kernel_leak = max(kernel_leak, float(np.max(np.abs(res.basis[:, :2]))))
        st = splitting_tensor(metric, pt, field=lambda q: kernel_section(metric, q, reference=ref)[0])
        worst_c = max(worst_c, float(np.max(np.abs(st.matrix))))
    checks.append(_check("conullity_two", 2, worst_conullity, passed=worst_conullity == 2))
    checks.append(_check("kernel_equals_flat_factor", 0.0, kernel_leak, 1e-8))
    checks.append(_check("splitting_tensor_vanishes", 0.0, worst_c, 1e-6))
    return checks


_SEKIGAWA_PS = ("exp(u)", "2+u*u", "cos(u)+2")


def _suite_sekigawa(seed: int) -> list:
    rng = _suite_rng(seed, "sekigawa")
    checks = []
    for p_src in _SEKIGAWA_PS:
        metric = catalog_sekigawa(p_src)
        formula = metric.annotations["scal_formula"]
        worst_rel = 0.0
        worst_plane_rel = 0.0
        conullity_ok = True
        for _ in range(5):
            pt = rng.uniform(-1.5, 1.5, 3)
            data = curvature_data(metric, pt)
            target = formula(pt)
            scale = max(1.0, abs(target))
            worst_rel = max(worst_rel, abs(data.half_trace - target) / scale)
            if abs(target) > 1e-6:
                if data.nullity.conullity != 2:
                    conullity_ok = False
                if data.nonflat_plane_curvature is not None:
                    worst_plane_rel = max(
                        worst_plane_rel,
                        abs(data.nonflat_plane_curvature - target) / scale,
                    )
                else:
                    worst_plane_rel = math.inf
        checks.append(_check(f"half_trace_matches_formula[{p_src}]", 0.0, worst_rel, 1e-6))
        checks.append(
            _check(f"conullity_two_where_curved[{p_src}]", True, conullity_ok, passed=conullity_ok)
        )
        checks.append(
            _check(f"plane_sectional_matches_formula[{p_src}]", 0.0, worst_plane_rel, 1e-6)
        )
    metric = catalog_sekigawa(_SEKIGAWA_PS[0])
    probe = flatness_probe(metric, np.zeros(3), ("u", "v"), samples=3, extent=0.8)
    checks.append(_check("uv_slice_flat", 0.0, probe.max_leaf_curvature, 1e-8))
    checks.append(
        _check("uv_slice_totally_geodesic", 0.0, probe.max_second_fundamental_form, 1e-8)
    )
    return checks


def _suite_conullity3(seed: int) -> list:
    rng = _suite_rng(seed, "conullity3")
    metric = catalog_conullity3("3+cos(u)+cos(w)")
    formula = metric.annotations["scal_formula"]
    checks = []

    worst_align = 0.0
    worst_rel = 0.0
    conullity_ok = True
    e_v = np.array([0.0, 0.0, 1.0, 0.0])
    used = 0
    while used < 6:
        pt = rng.uniform(-1.2, 1.2, 4)
        target = formula(pt)
        data = curvature_data(metric, pt)
        scale = max(1.0, abs(target))
        worst_rel = max(worst_rel, abs(data.scalar_trace - target) / scale)
        if abs(target) <= 1e-4:
            continue
        used += 1
        if data.nullity.nullity != 1:
            conullity_ok = False
            continue
        t_vec = data.nullity.basis[0]
        worst_align = max(worst_align, min(
            float(np.max(np.abs(t_vec - e_v))), float(np.max(np.abs(t_vec + e_v)))
        ))
    checks.append(_check("scalar_matches_formula", 0.0, worst_rel, 1e-6))
    checks.append(_check("kernel_is_dv", 0.0, worst_align, 1e-8))
    checks.append(_check("nullity_one_where_curved", True, conullity_ok, passed=conullity_ok))

    origin = np.zeros(4)
    st = splitting_tensor(metric, origin)
    expected = np.zeros((3, 3))
    expected[0, 1] = math.sqrt(2.0) / 5.0
    checks.append(
        _check("splitting_matrix_at_origin", 0.0,
               float(np.max(np.abs(st.matrix - expected))), 1e-4)
    )
    inv = classify(st.matrix, tol=CLASSIFY_TOL)
    checks.append(
        _check("splitting_nilpotent_at_origin", "nilpotent", inv.kind,
               passed=inv.kind == "nilpotent")
    )

    probe = flatness_probe(metric, origin, ("u", "v", "w"), samples=3, extent=0.8)
    checks.append(_check("hyperplane_flat", 0.0, probe.max_leaf_curvature, 1e-7))
    checks.append(
        _check("hyperplane_totally_geodesic", 0.0, probe.max_second_fundamental_form, 1e-6)
    )

    report = evolve_along_nullity_geodesic(metric, origin, tmax=0.4, steps=128, samples=9)
    # an aborted ride measured only its first samples, so its figures prove nothing
    rode = report.aborted is None
    checks.append(_check("riccati_evolution_matches", 0.0, report.max_error, 1e-4,
                         passed=rode and report.max_error <= 1e-4))
    checks.append(_check("divergence_is_minus_trace", 0.0, report.divergence_residual, 1e-4,
                         passed=rode and report.divergence_residual <= 1e-4))

    incomplete = catalog_conullity3("4-u*u-w*w")
    probe2 = incompleteness_probe(incomplete, origin, np.array([0.0, 1.0, 0.0, 0.0]))
    checks.append(_check("degeneracy_parameter", 2.0, probe2.exit_parameter, 1e-3))

    # the paper's hypothesis: the concave warp has non-negative sectional curvature
    worst_min = 0.0
    nullity_one = True
    for pt in rng.uniform(-1.2, 1.2, (6, 4)):  # p = 4 - u^2 - w^2 >= 1.12 here
        data = curvature_data(incomplete, pt)
        if data.nullity.nullity != 1:
            nullity_one = False
            continue
        worst_min = min(worst_min, sectional_range(data)[0])
    checks.append(_check("sectional_nonnegative[4-u*u-w*w]", 0.0, worst_min, 1e-12,
                         passed=nullity_one and worst_min >= -1e-12))

    wide = catalog_conullity3("3+cos(u)+cos(w)", box=4.0)
    flat_iff = True
    for s in np.linspace(0.0, math.pi, 33):
        pt = np.array([0.0, s, 0.0, s])
        data = curvature_data(wide, pt)
        rmax = float(np.max(np.abs(data.rdown)))
        if abs(data.scalar_trace) < 1e-6 and rmax >= 1e-5:
            flat_iff = False
        if abs(data.scalar_trace) > 1e-2 and rmax <= 1e-3:
            flat_iff = False
    checks.append(_check("curvature_vanishes_iff_scal_zero", True, flat_iff, passed=flat_iff))
    return checks


def _suite_riccati(seed: int) -> list:
    rng = _suite_rng(seed, "riccati")
    checks = []
    worst_ode = 0.0
    for _ in range(100):
        a = rng.uniform(-1.0, 1.0, (3, 3))
        norm = float(np.linalg.norm(a, 2))
        c0 = a if norm <= 1.0 else a / norm
        t = float(rng.uniform(0.0, 0.5))
        diff = riccati_ode(c0, t, steps=200) - riccati_closed_form(c0, t)
        worst_ode = max(worst_ode, float(np.max(np.abs(diff))))
    checks.append(_check("ode_matches_closed_form", 0.0, worst_ode, 1e-7))

    tr1, det1 = trace_det_evolution(0.0, 1.0, 1.0)
    err = max(abs(tr1 - (-1.0)), abs(det1 - 0.5))
    checks.append(_check("trace_det_instance", 0.0, err, 1e-12))
    c0 = np.array([[0.0, 1.0], [-1.0, 0.0]])
    c1 = riccati_closed_form(c0, 1.0)
    err = max(abs(float(np.trace(c1)) - (-1.0)), abs(float(np.linalg.det(c1)) - 0.5))
    checks.append(_check("trace_det_instance_matrix", 0.0, err, 1e-12))

    worst_law = 0.0
    for _ in range(100):
        c0 = rng.uniform(-1.0, 1.0, (2, 2))
        t = float(rng.uniform(0.0, 0.5))
        try:
            ct = riccati_closed_form(c0, t)
            tr_t, det_t = trace_det_evolution(float(np.trace(c0)), float(np.linalg.det(c0)), t)
        except RiccatiBlowupError:
            continue
        worst_law = max(
            worst_law,
            abs(float(np.trace(ct)) - tr_t),
            abs(float(np.linalg.det(ct)) - det_t),
        )
    checks.append(_check("trace_det_law_random", 0.0, worst_law, 1e-9))

    worst_cocycle = 0.0
    for _ in range(50):
        a = rng.uniform(-1.0, 1.0, (3, 3))
        norm = float(np.linalg.norm(a, 2))
        c0 = a if norm <= 1.0 else a / norm
        t = float(rng.uniform(0.0, 0.25))
        s = float(rng.uniform(0.0, 0.25))
        direct = riccati_closed_form(c0, t + s)
        staged = riccati_closed_form(riccati_closed_form(c0, t), s)
        worst_cocycle = max(worst_cocycle, float(np.max(np.abs(direct - staged))))
    checks.append(_check("cocycle_property", 0.0, worst_cocycle, 1e-9))
    return checks


_SUITES = {
    "euclidean": _suite_euclidean,
    "sphere": _suite_sphere,
    "product": _suite_product,
    "sekigawa": _suite_sekigawa,
    "conullity3": _suite_conullity3,
    "riccati": _suite_riccati,
}


def run_suite(name: str, seed: int = DEFAULT_SEED) -> dict:
    """Run one named verification suite; returns {suite, checks, passed}."""
    if name not in _SUITES:
        raise ValueError(f"unknown suite {name!r}")
    checks = _SUITES[name](seed)
    return {
        "suite": name,
        "checks": checks,
        "passed": all(c["passed"] for c in checks),
    }


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return "%.6g" % value
    return str(value)


def cmd_verify(args, parser) -> int:
    started = time.perf_counter()
    seed = args.seed if args.seed is not None else DEFAULT_SEED
    names = SUITE_ORDER if args.suite == "all" else (args.suite,)
    results = [run_suite(name, seed) for name in names]
    overall = all(r["passed"] for r in results)
    if args.json:
        doc = {
            "schema": SCHEMA,
            "command": "verify",
            "seed": seed,
            "suites": results,
            "passed": overall,
        }
        _emit(_dumps(doc) + "\n", args)
    else:
        lines = [f"seed {seed}"]
        for res in results:
            lines.append(f"suite {res['suite']}: {'PASS' if res['passed'] else 'FAIL'}")
            for c in res["checks"]:
                tol = "" if c["tolerance"] is None else f" tol={_format_value(c['tolerance'])}"
                lines.append(
                    f"  [{'pass' if c['passed'] else 'FAIL'}] {c['name']}:"
                    f" computed={_format_value(c['computed'])}"
                    f" expected={_format_value(c['expected'])}{tol}"
                )
        lines.append(f"overall: {'PASS' if overall else 'FAIL'}")
        _emit("\n".join(lines) + "\n", args)
    _timing("verify", started)
    return EXIT_OK if overall else EXIT_VERIFY


def cmd_catalog(args, parser) -> int:
    entries = []
    for name in sorted(CATALOG):
        entry = CATALOG[name]
        entries.append({
            "name": entry.name,
            "summary": entry.summary,
            "parameters": list(entry.parameters),
            "expectations": [
                {"fact": fact, "checked_by": checker} for fact, checker in entry.expectations
            ],
        })
    if args.json:
        _emit(_dumps({"schema": SCHEMA, "command": "catalog", "entries": entries}) + "\n", args)
    else:
        lines = []
        for e in entries:
            params = f" (parameters: {', '.join(e['parameters'])})" if e["parameters"] else ""
            lines.append(f"{e['name']}: {e['summary']}{params}")
            for exp in e["expectations"]:
                lines.append(f"  - {exp['fact']}  [{exp['checked_by']}]")
        _emit("\n".join(lines) + "\n", args)
    return EXIT_OK


def _fault_site(args) -> str:
    """The command and the grid or point it was evaluating, as given on the command line."""
    words = [args.command]
    if getattr(args, "grid", None) is not None:
        words.append(f"--grid {args.grid}")
    if getattr(args, "point", None) is not None:
        words.append(f"--point {args.point}")
    elif args.command in ("analyze", "flow"):
        words.append("at the default point" if CATALOG[args.metric].default_point else "at the origin")
    return " ".join(words)


def _fault_function(exc: BaseException) -> str:
    """``module.function`` of the innermost geonull frame that ``exc`` passed through.

    A method is named with its class where Python records it (3.11 on).
    """
    package = os.path.dirname(os.path.abspath(__file__))
    codes = [
        frame.f_code
        for frame, _ in traceback.walk_tb(exc.__traceback__)
        if os.path.dirname(frame.f_code.co_filename) == package
    ]
    code = codes[-1]  # main's own frame is always there
    module = os.path.splitext(os.path.basename(code.co_filename))[0]
    return f"{module}.{getattr(code, 'co_qualname', code.co_name)}"


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        # a float overflow or an invalid value (inf - inf) raises, not warns
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            return args.func(args, parser)
    except SystemExit as exc:
        return int(exc.code or 0)
    except FloatingPointError as exc:
        # a float fault under the errstate above; numpy's text says only what
        # overflowed, so name the function it overflowed in
        print(f"geonull: error: {_fault_site(args)}: {exc} (in {_fault_function(exc)})", file=sys.stderr)
        return EXIT_DOMAIN
    except (ChartDomainError, DomainError, KernelDimensionError, AlignmentError, KernelFieldError,
            NonUnitFieldError, RiccatiBlowupError, LaunchError, SingularMatrixError) as exc:
        print(f"geonull: error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
