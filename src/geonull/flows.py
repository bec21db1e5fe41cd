"""Geodesics, parallel transport, and geometric probes along flows.

All integration is classical fixed-step RK4.  Geodesics integrate the
first-order system (x, v) with v'^k = -Gamma^k_ij v^i v^j; parallel
transport integrates w'^k = -Gamma^k_ij gamma'^i w^j along a stored path,
using cubic Hermite interpolation of the path for the midpoint stages.

Paths truncate cleanly at the chart boundary instead of raising: the
returned :class:`GeodesicPath` carries a ``truncated`` flag and the last
parameter value that stayed inside; so does an RK4 stage whose numbers
overflow while float errors raise (as the command line sets them).  Each
geodesic is integrated once, at the requested step count; no error estimate
is stored with the path.  Evenly spaced sample nodes of a path are picked by
one rule, shared by :func:`sampled_path` and the splitting tensor's Riccati
evolution.

One metric jet serves all that a routine needs at a point: parallel
transport takes g and Gamma at a path node from one order-1 jet, which also
serves the gram-drift check, and the nullity check takes the kernel and g at
a sample from one order-2 jet.
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
    "ParallelFrame",
    "NullityGeodesicReport",
    "FlatnessReport",
    "IncompletenessReport",
    "geodesic",
    "sampled_path",
    "parallel_transport",
    "nullity_geodesic_check",
    "flatness_probe",
    "incompleteness_probe",
]


class LaunchError(ValueError):
    """No launch velocity: a trivial curvature kernel or a zero direction."""


@dataclass(frozen=True)
class GeodesicPath:
    """RK4 geodesic record: times (m+1,), points and velocities (m+1, n).

    ``exit_parameter`` is the last in-domain time when ``truncated``.
    """

    times: np.ndarray
    points: np.ndarray
    velocities: np.ndarray
    truncated: bool
    exit_parameter: Optional[float]

    @property
    def endpoint(self) -> np.ndarray:
        return self.points[-1]


def _gamma_at(metric: MetricField, x: np.ndarray) -> tuple:
    """``(g, Gamma)`` at x from one order-1 metric jet."""
    g, dg = metric.jet(x, order=1, check=False)
    return g, _christoffel_from_jet(invert(g), dg)


def _accel(metric: MetricField, x: np.ndarray, v: np.ndarray) -> np.ndarray:
    return -np.einsum("kij,i,j->k", _gamma_at(metric, x)[1], v, v)


def geodesic(
    metric: MetricField,
    x0,
    v0,
    tmax: float,
    steps: int = 256,
) -> GeodesicPath:
    """Integrate the geodesic equation from (x0, v0) for parameter tmax."""
    if steps < 1:
        raise ValueError("steps must be positive")
    if tmax == 0:
        raise ValueError("tmax must be nonzero")
    x = np.asarray(x0, dtype=float).copy()
    v = np.asarray(v0, dtype=float).copy()
    if x.shape != (metric.dim,) or v.shape != (metric.dim,):
        raise ValueError("x0 and v0 must match the chart dimension")
    if not metric.contains(x):
        raise ChartDomainError(f"geodesic start outside domain of {metric.name}", x)
    h = tmax / steps
    times = [0.0]
    xs = [x.copy()]
    vs = [v.copy()]
    truncated = False
    for i in range(steps):
        try:
            ax1 = _accel(metric, x, v)
            x2 = x + 0.5 * h * v
            v2 = v + 0.5 * h * ax1
            ax2 = _accel(metric, x2, v2)
            x3 = x + 0.5 * h * v2
            v3 = v + 0.5 * h * ax2
            ax3 = _accel(metric, x3, v3)
            x4 = x + h * v3
            v4 = v + h * ax3
            ax4 = _accel(metric, x4, v4)
            xn = x + (h / 6.0) * (v + 2.0 * v2 + 2.0 * v3 + v4)
            vn = v + (h / 6.0) * (ax1 + 2.0 * ax2 + 2.0 * ax3 + ax4)
        except (ChartDomainError, DomainError, SingularMatrixError, FloatingPointError):
            truncated = True
            break
        if not (np.all(np.isfinite(xn)) and np.all(np.isfinite(vn))):
            truncated = True
            break
        if not metric.contains(xn):
            truncated = True
            break
        x, v = xn, vn
        times.append((i + 1) * h)
        xs.append(x.copy())
        vs.append(v.copy())
    return GeodesicPath(
        times=np.array(times),
        points=np.array(xs),
        velocities=np.array(vs),
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
class ParallelFrame:
    """Parallel-transported vectors along a path.

    ``vectors`` has shape (m+1, n) for a single transported vector or
    (m+1, k, n) for a stack; ``gram_drift`` is the max-abs deviation of the
    metric Gram matrix of the transported vectors from its initial value, a
    direct quality measure since parallel transport is a metric isometry.
    """

    times: np.ndarray
    vectors: np.ndarray
    gram_drift: float

    @property
    def final(self) -> np.ndarray:
        return self.vectors[-1]


def parallel_transport(metric: MetricField, path: GeodesicPath, v0) -> ParallelFrame:
    """Transport v0 (one vector or a stack of row vectors) along the path."""
    V = np.asarray(v0, dtype=float)
    single = V.ndim == 1
    V = np.atleast_2d(V).copy()
    if V.shape[1] != metric.dim:
        raise ValueError("vector length must match the chart dimension")
    times, xs, vs = path.times, path.points, path.velocities
    m = times.size - 1
    out = np.empty((m + 1,) + V.shape)
    out[0] = V
    # one jet per node serves both its Gamma and the gram-drift check
    g_nodes = np.empty((m + 1, metric.dim, metric.dim))
    g_nodes[0], gamma_right = _gamma_at(metric, xs[0])

    def rhs(gamma, w, vecs):
        return -np.einsum("kij,i,aj->ak", gamma, w, vecs)

    for i in range(m):
        h = times[i + 1] - times[i]
        x0c, x1c = xs[i], xs[i + 1]
        w0, w1 = vs[i], vs[i + 1]
        gamma0 = gamma_right
        g_nodes[i + 1], gamma_right = _gamma_at(metric, x1c)
        xm = 0.5 * (x0c + x1c) + (h / 8.0) * (w0 - w1)
        wm = 1.5 * (x1c - x0c) / h - 0.25 * (w0 + w1)
        gamma_mid = _gamma_at(metric, xm)[1]
        Vi = out[i]
        k1 = rhs(gamma0, w0, Vi)
        k2 = rhs(gamma_mid, wm, Vi + 0.5 * h * k1)
        k3 = rhs(gamma_mid, wm, Vi + 0.5 * h * k2)
        k4 = rhs(gamma_right, w1, Vi + h * k3)
        out[i + 1] = Vi + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    gram0 = out[0] @ g_nodes[0] @ out[0].T
    drift = 0.0
    for i in range(m + 1):
        drift = max(drift, float(np.max(np.abs(out[i] @ g_nodes[i] @ out[i].T - gram0))))
    vectors = out[:, 0, :] if single else out
    return ParallelFrame(times=times.copy(), vectors=vectors, gram_drift=drift)


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
