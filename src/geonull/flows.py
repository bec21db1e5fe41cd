"""Geodesics, parallel transport, and geometric probes along flows.

All integration is classical fixed-step RK4.  Geodesics integrate the
first-order system (x, v) with v'^k = -Gamma^k_ij v^i v^j; rows W to be
parallel transported ride in the same system, W'^k = -Gamma^k_ij v^i W^j,
so each RK4 stage takes Gamma once, from one order-1 jet, for both.  A stage
at the bit-identical point of the stage before it reuses that jet's g and
Gamma: on a kernel geodesic the acceleration is exactly zero, stage 3 lands
on stage 2's point and the next step's stage 1 on stage 4's, so an m-step
path costs 2m+1 jets where it costs 4m+1 in general (with a frame).

Paths truncate cleanly at the chart boundary instead of raising: the
returned :class:`GeodesicPath` carries a ``truncated`` flag and the last
parameter value that stayed inside; so does an RK4 stage whose numbers
overflow while float errors raise (as the command line sets them).  Each
geodesic is integrated once, at the requested step count; no error estimate
is stored with the path.  Evenly spaced sample nodes of a path are picked by
one rule, shared by :func:`sampled_path` and the splitting tensor's Riccati
evolution.

One metric jet serves all that a routine needs at a point: the gram-drift
check of a transported frame takes g at a node from the jet of that node's
first RK4 stage (at the last node, the last stage's jet when it is there),
and the nullity check takes the kernel and g at a sample from one order-2
jet.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .curvature import _christoffel_from_jet, _nullity_at, _riemann_from_jet
from .exprcalc import DomainError
from .metricspace import ChartDomainError, MetricField
from .numcore import SingularMatrixError, _g_gram_schmidt, invert

__all__ = [
    "LaunchError",
    "GeodesicPath",
    "NullityGeodesicReport",
    "FlatnessReport",
    "IncompletenessReport",
    "geodesic",
    "sampled_path",
    "nullity_geodesic_check",
    "flatness_probe",
    "incompleteness_probe",
]


class LaunchError(ValueError):
    """No launch velocity: a trivial curvature kernel or a zero direction."""


@dataclass(frozen=True)
class GeodesicPath:
    """RK4 geodesic record: times (m+1,), points and velocities (m+1, n).

    ``frame`` (m+1, k, n) holds the k rows transported along the path (k = 0
    without a frame); ``gram_drift`` is the max-abs deviation of their metric
    Gram matrix from its value at the start, a quality measure since parallel
    transport is an isometry (0.0 without a frame).  ``exit_parameter`` is
    the last in-domain time when ``truncated``.
    """

    times: np.ndarray
    points: np.ndarray
    velocities: np.ndarray
    frame: np.ndarray
    gram_drift: float
    truncated: bool
    exit_parameter: Optional[float]

    @property
    def endpoint(self) -> np.ndarray:
        return self.points[-1]


def geodesic(
    metric: MetricField,
    x0,
    v0,
    tmax: float,
    steps: int = 256,
    frame=None,
) -> GeodesicPath:
    """Integrate the geodesic equation from (x0, v0) for parameter tmax.

    The rows of ``frame`` (k, n) are transported along the path in the same
    RK4 steps, W' = -Gamma(x)(v, W), each stage taking Gamma from the jet
    that gives the acceleration there.
    """
    if steps < 1:
        raise ValueError("steps must be positive")
    if tmax == 0:
        raise ValueError("tmax must be nonzero")
    n = metric.dim
    x = np.asarray(x0, dtype=float).copy()
    v = np.asarray(v0, dtype=float).copy()
    if x.shape != (n,) or v.shape != (n,):
        raise ValueError("x0 and v0 must match the chart dimension")
    W = np.empty((0, n)) if frame is None else np.array(frame, dtype=float)
    if W.ndim != 2 or W.shape[1] != n:
        raise ValueError("frame must be rows of chart-dimension vectors")
    if not metric.contains(x):
        raise ChartDomainError(f"geodesic start outside domain of {metric.name}", x)

    held = [None, None, None]  # bytes, g and Gamma of the last point jetted

    def rates(y, w, vecs):
        """(g, acceleration, frame rate) at y from one order-1 jet, reused while y repeats."""
        key = y.tobytes()
        if key != held[0]:
            g, dg = metric.jet(y, order=1, check=False)
            held[:] = key, g, _christoffel_from_jet(invert(g), dg)
        _, g, gamma = held
        frame_rate = -np.einsum("kij,i,aj->ak", gamma, w, vecs) if len(vecs) else vecs
        return g, -np.einsum("kij,i,j->k", gamma, w, w), frame_rate

    h = tmax / steps
    times = [0.0]
    xs = [x]
    vs = [v]
    ws = [W]
    gs = []  # g at each node, from the stage-1 jet of the step leaving it
    truncated = False
    for i in range(steps):
        try:
            g1, ax1, k1 = rates(x, v, W)
            gs.append(g1)
            x2 = x + 0.5 * h * v
            v2 = v + 0.5 * h * ax1
            _, ax2, k2 = rates(x2, v2, W + 0.5 * h * k1)
            x3 = x + 0.5 * h * v2
            v3 = v + 0.5 * h * ax2
            _, ax3, k3 = rates(x3, v3, W + 0.5 * h * k2)
            x4 = x + h * v3
            v4 = v + h * ax3
            _, ax4, k4 = rates(x4, v4, W + h * k3)
            xn = x + (h / 6.0) * (v + 2.0 * v2 + 2.0 * v3 + v4)
            vn = v + (h / 6.0) * (ax1 + 2.0 * ax2 + 2.0 * ax3 + ax4)
            Wn = W + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        except (ChartDomainError, DomainError, SingularMatrixError, FloatingPointError):
            truncated = True
            break
        if not (np.all(np.isfinite(xn)) and np.all(np.isfinite(vn)) and metric.contains(xn)):
            truncated = True
            break
        x, v, W = xn, vn, Wn
        times.append((i + 1) * h)
        xs.append(x)
        vs.append(v)
        ws.append(W)
    frames = np.array(ws)
    drift = 0.0
    if len(W):
        if len(gs) < len(xs):
            gs.append(held[1] if x.tobytes() == held[0] else metric.jet(x, order=1, check=False)[0])
        grams = frames @ np.array(gs) @ frames.transpose(0, 2, 1)
        drift = float(np.max(np.abs(grams - grams[0])))
    return GeodesicPath(
        times=np.array(times),
        points=np.array(xs),
        velocities=np.array(vs),
        frame=frames,
        gram_drift=drift,
        truncated=truncated,
        exit_parameter=times[-1] if truncated else None,
    )


def _sample_indices(nodes: int, samples: int) -> np.ndarray:
    """Indices of up to ``samples`` evenly spaced nodes, first and last included."""
    if samples < 2 or nodes < 2:
        return np.array([0, nodes - 1] if nodes > 1 else [0])
    return np.unique(np.linspace(0, nodes - 1, samples).round().astype(int))


def sampled_path(path: GeodesicPath, samples: int):
    """Evenly spaced (times, points, velocities) along a stored path."""
    idx = _sample_indices(path.times.size, samples)
    return path.times[idx], path.points[idx], path.velocities[idx]


@dataclass(frozen=True)
class NullityGeodesicReport:
    """Check that a geodesic launched into the curvature kernel stays there."""

    path: GeodesicPath
    sample_times: np.ndarray
    nullity_values: tuple
    max_velocity_misalignment: float
    constant_nullity: bool


def nullity_geodesic_check(
    metric: MetricField,
    x0,
    direction=None,
    tmax: float = 1.0,
    steps: int = 256,
    samples: int = 9,
    rel_tol: Optional[float] = None,
) -> NullityGeodesicReport:
    """Launch a geodesic tangent to the curvature kernel and track alignment.

    By default the initial velocity is the first kernel basis vector; a
    custom ``direction`` is g-normalized and used as given, so a direction
    outside the kernel yields a failing (not erroring) report.  At evenly
    spaced samples the report records the kernel dimension and the sine of
    the angle between the velocity and the kernel subspace.  Raises
    :class:`LaunchError` for a trivial kernel at x0 or a zero direction.
    """
    pt = np.asarray(x0, dtype=float)
    res0, g0, _ = _nullity_at(metric, pt, rel_tol)
    if res0.nullity == 0:
        raise LaunchError(f"curvature kernel is trivial at the start point for {metric.name}")
    if direction is None:
        v0 = res0.basis[0]
    else:
        v0 = np.asarray(direction, dtype=float)
        # scale by max|v| first, so sqrt(v g v) neither overflows nor underflows
        scale = float(np.max(np.abs(v0)))
        if scale > 0.0:
            v0 = v0 / scale
        nrm = float(np.sqrt(v0 @ g0 @ v0))
        if nrm < 1e-10:
            raise LaunchError("direction must be a nonzero tangent vector")
        v0 = v0 / nrm
    path = geodesic(metric, pt, v0, tmax, steps=steps)
    times, points, vels = sampled_path(path, samples)
    dims = []
    worst = 0.0
    for q, w in zip(points, vels):
        res, gq, _ = _nullity_at(metric, q, rel_tol)
        dims.append(res.nullity)
        wn = float(np.sqrt(w @ gq @ w))
        if res.nullity > 0 and wn > 0:
            proj = sum(float(b @ gq @ w) * b for b in res.basis)
            ortho = w - proj
            worst = max(worst, float(np.sqrt(max(ortho @ gq @ ortho, 0.0))) / wn)
        else:
            worst = max(worst, 1.0)
    return NullityGeodesicReport(
        path=path,
        sample_times=times,
        nullity_values=tuple(dims),
        max_velocity_misalignment=worst,
        constant_nullity=len(set(dims)) == 1 and dims[0] == res0.nullity,
    )


@dataclass(frozen=True)
class FlatnessReport:
    """Flat + totally geodesic check for a coordinate slice distribution.

    ``max_leaf_curvature`` is the largest lowered curvature entry of the
    induced metric on the slice across the sampled grid;
    ``max_second_fundamental_form`` is the largest metric norm of the normal
    part of nabla_{d_i} d_j for slice coordinates i, j.
    """

    coordinates: tuple
    points_checked: int
    max_leaf_curvature: float
    max_second_fundamental_form: float

    def is_flat(self, tol: float = 1e-8) -> bool:
        return self.max_leaf_curvature < tol

    def is_totally_geodesic(self, tol: float = 1e-8) -> bool:
        return self.max_second_fundamental_form < tol


def flatness_probe(
    metric: MetricField,
    x0,
    directions,
    samples: int = 3,
    extent: float = 0.5,
) -> FlatnessReport:
    """Probe the coordinate slice through x0 spanned by the named coordinates."""
    pt = np.asarray(x0, dtype=float)
    idx = []
    for d in directions:
        if isinstance(d, str):
            if d not in metric.coordinates:
                raise ValueError(f"unknown coordinate {d!r} for {metric.name}")
            idx.append(metric.coordinates.index(d))
        else:
            idx.append(int(d))
    idx = sorted(set(idx))
    if not 1 <= len(idx) < metric.dim:
        raise ValueError("slice must use at least one and fewer than all coordinates")
    sel = np.ix_(idx, idx)

    axes = [np.linspace(-extent, extent, samples)] * len(idx)
    offsets = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(idx))
    max_curv = 0.0
    max_ii = 0.0
    checked = 0
    for off in offsets:
        q = pt.copy()
        q[idx] += off
        if not metric.contains(q):
            continue
        checked += 1
        g, dg, d2g = metric.jet(q, check=False)
        gamma = _christoffel_from_jet(invert(g), dg)
        # induced metric jets are plain restrictions for a coordinate slice
        gs = g[sel]
        dgs = dg[np.ix_(idx, idx, idx)]
        d2gs = d2g[np.ix_(idx, idx, idx, idx)]
        gi_leaf, gamma_leaf, rup_leaf, rleaf = _riemann_from_jet(gs, dgs, d2gs)
        max_curv = max(max_curv, float(np.max(np.abs(rleaf))))
        tangent = _g_gram_schmidt(np.eye(metric.dim)[idx], g)
        for a in idx:
            for b in idx:
                vec = gamma[:, a, b]
                for t in tangent:
                    vec = vec - float(t @ g @ vec) * t
                max_ii = max(max_ii, float(np.sqrt(max(vec @ g @ vec, 0.0))))
    coords = tuple(metric.coordinates[i] for i in idx)
    return FlatnessReport(coords, checked, max_curv, max_ii)


@dataclass(frozen=True)
class IncompletenessReport:
    """Where a coordinate ray leaves the chart and how the metric looks there.

    ``exit_parameter`` is the boundary crossing t* of x0 + t * direction
    located by bisection; ``arc_length`` is the metric length of the ray up
    to t*; ``smallest_metric_eigenvalue`` is taken just inside the boundary,
    making metric degeneration visible; ``p_at_exit`` evaluates the chart's
    warp function there when the chart has one (None otherwise).
    """

    exit_parameter: float
    exit_point: np.ndarray
    arc_length: float
    smallest_metric_eigenvalue: float
    p_at_exit: Optional[float]


def incompleteness_probe(
    metric: MetricField,
    x0,
    direction,
    tmax: float = 16.0,
    tol: float = 1e-9,
) -> IncompletenessReport:
    """Bisect for the domain exit of the coordinate ray x0 + t * direction."""
    pt = np.asarray(x0, dtype=float)
    d = np.asarray(direction, dtype=float)
    if not metric.contains(pt):
        raise ChartDomainError(f"probe start outside domain of {metric.name}", pt)
    lo, hi = 0.0, None
    t = 1.0
    while t <= tmax:
        if metric.contains(pt + t * d):
            lo = t
        else:
            hi = t
            break
        t *= 2.0
    if hi is None:
        raise ValueError(f"ray stayed inside the domain of {metric.name} up to t={tmax}")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if metric.contains(pt + mid * d):
            lo = mid
        else:
            hi = mid
    t_exit = 0.5 * (lo + hi)
    inside = pt + lo * d

    # composite Simpson for the g-length of the ray up to the boundary
    m = 64
    ts = np.linspace(0.0, lo, 2 * m + 1)
    speeds = np.empty(ts.size)
    for i, ti in enumerate(ts):
        gq = metric.jet(pt + ti * d, order=1, check=False)[0]
        speeds[i] = math.sqrt(max(float(d @ gq @ d), 0.0))
    hstep = lo / (2 * m)
    arc = (hstep / 3.0) * (
        speeds[0]
        + speeds[-1]
        + 4.0 * speeds[1:-1:2].sum()
        + 2.0 * speeds[2:-1:2].sum()
    )
    p_val = None
    expr = metric.annotations.get("p_expression")
    if expr is not None:
        sub = np.asarray(metric.annotations["p_chart_indices"], dtype=int)
        p_val = float(expr.value((pt + t_exit * d)[sub]))
    return IncompletenessReport(
        exit_parameter=float(t_exit),
        exit_point=pt + t_exit * d,
        arc_length=float(arc),
        smallest_metric_eigenvalue=metric.smallest_metric_eigenvalue(inside, check=False),
        p_at_exit=p_val,
    )
