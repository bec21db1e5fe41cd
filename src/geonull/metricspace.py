"""Metric charts with 2-jet and 3-jet access, plus the example-metric catalog.

A :class:`MetricField` is a single coordinate chart: a map from points to
symmetric positive-definite matrices, together with derivative access (the
2-jet of g, and the 3-jet where ``max_order`` is 3) and a domain predicate
that also rejects non-finite points.  Charts are immutable after
construction and evaluation is pure, so fields can be shared freely across
threads.  Every catalog family has closed-form 3-jets; a user field has
2-jets only unless it is built with ``max_order=3``.
:meth:`MetricField.jets` jets a stack of points, each bitwise as
:meth:`MetricField.jet` jets it or with the error it raises there.  The two
warped families have a stacked form, which calls the warp's compiled jet
kernel once per point and assembles each array of the jet once per stack;
every other field loops over ``jet``.

The catalog contains flat space, the round sphere, a polar-coordinate flat
plane, block products, and two warped families driven by a user-supplied
positive function p:

* ``catalog_sekigawa``: 3-dim chart (x,u,v) with coframe
  p dx,  du - v dx,  dv + u dx.
* ``catalog_conullity3``: 4-dim chart (x,u,v,w) with coframe
  p dx,  du - (v+w) dx,  dv + (u+w) dx,  dw - (v-u) dx.

For both families the coframe 1-forms are the ground truth: the metric, its
jets, and any orthonormal frame are derived from them rather than hard-coded,
and the jets of g are assembled exactly from the jets of p by the product
rule (no finite differences).  The coframe matrix is
affine in the coordinates except for its warp entry p, so a jet of g costs
one expression jet of p plus a few dense contractions.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .exprcalc import Expression, parse

__all__ = [
    "ChartDomainError",
    "MetricField",
    "CatalogEntry",
    "CATALOG",
    "catalog_euclidean",
    "catalog_sphere",
    "catalog_polar",
    "catalog_product",
    "catalog_sekigawa",
    "catalog_conullity3",
    "DEFAULT_BOX",
    "P_FLOOR",
]

DEFAULT_BOX = 3.0
# warped charts keep clear of the p -> 0 metric degeneracy except when the
# incompleteness probe deliberately drives toward it
P_FLOOR = 1e-3
# a stacked coframe jet of at least this many points contracts dB with B on
# dB's nonzero columns only (_CoframeJet._half); on fewer, as on a scan
# chunk of 16 or flow's 9 samples, the einsum over every column is faster
_COLUMN_POINTS = 32


class ChartDomainError(ValueError):
    def __init__(self, message: str, point):
        pt = np.asarray(point, dtype=float)
        super().__init__(f"{message}: point {np.array2string(pt, precision=6)}")
        self.point = pt


class MetricField:
    """A Riemannian metric on one coordinate chart with 2-jet (or 3-jet) access.

    :meth:`jet` jets one point and :meth:`jets` a stack of them;
    :meth:`contains` and :meth:`contains_each` are the domain tests likewise.
    The stacked calls have a stacked form on the two warped catalog charts,
    whose ``jet`` is a coframe jet and ``domain`` its own chart test, and
    loop over the points on every other field.

    Parameters
    ----------
    dim : int
        Chart dimension n (at most 6).
    coordinates : sequence of str
        Ordered coordinate names; fixes the meaning of point components.
    jet : callable
        ``jet(x, order)`` returning ``(g, dg)`` for order 1,
        ``(g, dg, d2g)`` for order 2 and ``(g, dg, d2g, d3g)`` for order 3,
        with ``dg[i, j, k] = d g_ij / d x^k``, ``d2g[i, j, k, l] = d^2 g_ij /
        d x^k d x^l`` and ``d3g`` adding ``d / d x^m`` as a fifth axis.  Each
        order's leading outputs are bitwise those of the lower orders.
    domain : callable, optional
        Predicate on finite points; defaults to all of R^n.  A point with a
        non-finite coordinate is outside every chart.
    annotations : dict, optional
        Machine-checkable expected facts used by the verify suites.
    preferred_frame : callable, optional
        ``x -> (k, n)`` array of g-orthonormal rows spanning the complement
        of the expected kernel, used as the default splitting-tensor basis;
        on a stack of points (m, n) it returns each point's rows (m, k, n).
    max_order : int
        The highest order ``jet`` supports, 2 or 3 (read-only).  nabla R
        and the splitting tensor need 3; asking a field of 2 for a 3-jet
        raises ``ValueError``.
    """

    def __init__(
        self,
        dim: int,
        coordinates: Sequence[str],
        jet: Callable,
        domain: Optional[Callable] = None,
        name: str = "",
        annotations: Optional[dict] = None,
        preferred_frame: Optional[Callable] = None,
        max_order: int = 2,
    ):
        if not 1 <= dim <= 6:
            raise ValueError(f"dimension {dim} outside supported range 1..6")
        if len(coordinates) != dim:
            raise ValueError(f"{len(coordinates)} coordinate names for dimension {dim}")
        if max_order not in (2, 3):
            raise ValueError(f"max_order must be 2 or 3, got {max_order}")
        self.dim = dim
        self.coordinates = tuple(coordinates)
        self._jet = jet
        self._domain = domain if domain is not None else (lambda x: True)
        self.name = name or "metric"
        self.annotations = dict(annotations or {})
        self.preferred_frame = preferred_frame
        self._max_order = max_order
        # the stacked form of jet and domain, where both are a coframe jet's
        coframe = isinstance(jet, _CoframeJet) and domain == jet.inside
        self._stacked = jet if coframe else None

    @property
    def max_order(self) -> int:
        return self._max_order

    def __repr__(self) -> str:
        return f"MetricField({self.name!r}, dim={self.dim}, coords={self.coordinates})"

    @property
    def stacked(self) -> bool:
        """Whether :meth:`jets` has a stacked form; without one it loops over :meth:`jet`."""
        return self._stacked is not None

    def _point(self, x) -> np.ndarray:
        pt = np.asarray(x, dtype=float)
        if pt.shape != (self.dim,):
            raise ValueError(f"point shape {pt.shape} does not match dimension {self.dim}")
        return pt

    def _points(self, points) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != self.dim:
            raise ValueError(f"points shape {pts.shape} is not (m, {self.dim})")
        return pts

    def _order(self, order: int) -> None:
        if not 1 <= order <= self._max_order:
            raise ValueError(f"order must be 1..{self._max_order} for {self.name}, got {order}")

    def _outside(self, pt: np.ndarray) -> ChartDomainError:
        return ChartDomainError(f"point outside domain of {self.name}", pt)

    def _inside(self, pt: np.ndarray) -> bool:
        return all(map(math.isfinite, pt.tolist())) and bool(self._domain(pt))

    def contains(self, x) -> bool:
        return self._inside(self._point(x))

    def contains_each(self, points) -> np.ndarray:
        """:meth:`contains` at each row of ``points`` (m, n), as a bool array; raises where it raises."""
        pts = self._points(points)
        if self._stacked is None:
            return np.array([self._inside(pt) for pt in pts], dtype=bool)
        inside = np.isfinite(pts).all(axis=1)
        if inside.any():
            inside[inside] = self._stacked.insides(pts[inside])
        return inside

    def g(self, x, check: bool = True) -> np.ndarray:
        pt = self._point(x)
        if check and not self._inside(pt):
            raise self._outside(pt)
        return self._jet(pt, 1)[0]

    def jet(self, x, order: int = 2, check: bool = True):
        """Jet of g at x: ``(g, dg, d2g)``; ``order=1`` skips d2g, ``order=3`` adds d3g."""
        self._order(order)
        pt = self._point(x)
        if check and not self._inside(pt):
            raise self._outside(pt)
        return self._jet(pt, order)

    def jets(self, points, order: int = 2, check: bool = True):
        """Jets of g at each row of ``points`` (m, n): ``(arrays, faults)``.

        ``arrays`` is :meth:`jet`'s tuple with each array stacked over the
        points, each point's rows bitwise its own :meth:`jet`.  ``faults``
        maps the index of each point where :meth:`jet` raises, in index
        order, to the error it raises there; that point's rows are NaN.  A
        point outside the chart is not jetted under ``check``.  The stacked
        form, where the field has one, assembles each array once per stack;
        a float fault there redoes the stack point by point, so the fault
        stays with its point and is raised from where :meth:`jet` raises it.
        """
        self._order(order)
        pts = self._points(points)
        if self._stacked is None:
            return self._each_jet(pts, order, check)
        try:
            arrays, outside, alone = self._stacked.jets(pts, order, check)
        except (FloatingPointError, RuntimeWarning):
            return self._each_jet(pts, order, check)
        faults = {}
        for i in np.flatnonzero(outside | alone).tolist():
            if outside[i]:
                faults[i] = self._outside(pts[i])
                continue
            try:  # jet raises the kernel's error again, from where it raises it
                jet = self.jet(pts[i], order, check)
            except Exception as exc:
                faults[i] = exc
                continue
            for a, part in zip(arrays, jet):  # a coordinate p does not read may only warn
                a[i] = part
        return arrays, faults

    def _each_jet(self, pts: np.ndarray, order: int, check: bool):
        """:meth:`jets` by one :meth:`jet` call per point."""
        arrays = tuple(np.full((len(pts),) + (self.dim,) * (k + 2), np.nan) for k in range(order + 1))
        faults = {}
        for i, pt in enumerate(pts):
            try:
                jet = self.jet(pt, order, check)
            except Exception as exc:
                faults[i] = exc
                continue
            for a, part in zip(arrays, jet):
                a[i] = part
        return arrays, faults

    def smallest_metric_eigenvalue(self, x, check: bool = True) -> float:
        return float(np.linalg.eigvalsh(self.g(x, check=check))[0])


# ---------------------------------------------------------------------------
# coframe-driven analytic jets


class _CoframeJet:
    """Assemble the jet of g = B^T B from the jet of the coframe matrix B.

    B is the affine matrix ``I + affine @ x`` except for the warp entry
    ``B[0, 0] = p(x[warp])``, whose derivatives come from one expression jet
    (:meth:`Expression.jet2`, or :meth:`Expression.jet3` at order 3, whose
    lower orders are the same bits); every other entry has a constant
    gradient and no higher derivative.  So d3g is the symmetrized products
    of d3B, d2B and dB with B and dB in row 0 only.  The chart is the box
    ``|x^i| <= box`` where ``p > P_FLOOR``.

    :meth:`jets` is the stacked form: one raw kernel call per distinct warp
    argument ``x[warp]`` (by its bits), looked up once per run of points
    that repeat it, its row repeated over the points that share the
    argument, and each array assembled once for the stack, so each point's
    arrays are bitwise :meth:`__call__`'s.  A kernel ride moves v, which p
    does not read, and mostly keeps the bits of its warp argument, so its
    stack is mostly one run and one kernel call.  A stack of at least
    :data:`_COLUMN_POINTS` points, as a kernel ride's block, contracts dB
    with B only on the coframe columns where dB has a nonzero entry
    (``columns``, fixed by ``affine`` and the warp entry: column 0, ``dx``,
    in both warped families), each entry summed as ``0.0 + sum_a`` in the
    order of a, as :meth:`__call__`'s einsum sums it (:meth:`_half`).
    """

    def __init__(self, affine: np.ndarray, expr: Expression, warp: Sequence[int], box: float):
        self.n = affine.shape[0]
        self.identity = np.eye(self.n)
        self.affine = affine
        self.expr = expr
        self.warp = np.asarray(warp, dtype=int)
        self.warp_block = np.ix_(self.warp, self.warp)
        self.box = box
        self.nonzero = affine.any(axis=(0, 2))  # the coframe columns where dB has a nonzero entry
        self.nonzero[0] = True  # the warp entry B[0, 0]
        self.columns = np.flatnonzero(self.nonzero)

    def __call__(self, x: np.ndarray, order: int):
        n = self.n
        if order == 3:
            value, gradient, hessian, third = self.expr.jet3(x[self.warp])
        else:
            p = self.expr.jet2(x[self.warp])
            value, gradient, hessian = p.value, p.gradient, p.hessian
        B = self.identity + self.affine @ x
        B[0, 0] = value
        dB = self.affine.copy()
        dB[0, 0, self.warp] = gradient
        g = B.T @ B
        half = np.einsum("aik,aj->ijk", dB, B)
        dg = half + half.transpose(1, 0, 2)
        if order == 1:
            return g, dg
        d2B = np.zeros((n, n, n, n))
        d2B[0, 0][self.warp_block] = hessian
        s = np.einsum("aikl,aj->ijkl", d2B, B)
        d2g = s + s.transpose(1, 0, 2, 3)
        cross = np.einsum("aik,ajl->ijkl", dB, dB)
        d2g = d2g + cross + cross.transpose(0, 1, 3, 2)
        if order == 2:
            return g, dg, d2g
        d2p = d2B[0, 0]
        d3p = np.zeros((n, n, n))
        d3p[np.ix_(self.warp, self.warp, self.warp)] = third
        b, db = B[0], dB[0]
        # row[j, k, l, m]: the terms of d_klm g_0j with the derivatives of B[0, 0] on the left
        row = (
            b[:, None, None, None] * d3p
            + d2p[None, :, :, None] * db[:, None, None, :]
            + d2p[None, :, None, :] * db[:, None, :, None]
            + d2p[None, None, :, :] * db[:, :, None, None]
        )
        d3g = np.zeros((n,) * 5)
        d3g[0] = row
        d3g[:, 0] += row
        return g, dg, d2g, d3g

    def inside(self, x: np.ndarray) -> bool:
        """The chart's domain at a finite point."""
        return bool(self.insides(x[None])[0])

    def insides(self, pts: np.ndarray) -> np.ndarray:
        """The chart's domain at each finite row of ``pts``: the box test stacked, then p's floor.

        p's value kernel runs once per distinct warp argument, in the order
        of the points, so the first point whose kernel raises raises.
        """
        inside = (np.abs(pts) <= self.box).all(axis=1)
        at = np.flatnonzero(inside)
        value, above = self.expr._value_kernel, {}
        for start, stop, coords, key in self._runs(pts[inside]):
            if key not in above:
                above[key] = value(*coords) > P_FLOOR
            inside[at[start:stop]] = above[key]
        return inside

    def _runs(self, pts: np.ndarray):
        """``(start, stop, coords, key)`` of each run of rows of ``pts`` whose p arguments share their bits.

        ``coords`` are the run's argument floats and ``key`` their bits.
        Keyed on the bits, +0.0 and -0.0 stay apart, as p's derivatives may
        take their sign.
        """
        args = pts[:, self.warp]
        if len(args) == 1:  # one row is one run
            return [(0, 1, args[0].tolist(), tuple(args[0].view(np.uint64).tolist()))]
        bits = args.view(np.uint64)
        new = np.ones(len(args), dtype=bool)
        new[1:] = (bits[1:] != bits[:-1]).any(axis=1)
        first, starts = args[new], np.flatnonzero(new).tolist()
        return zip(starts, starts[1:] + [len(args)], first.tolist(), map(tuple, first.view(np.uint64).tolist()))

    def jets(self, pts: np.ndarray, order: int, check: bool):
        """``(arrays, outside, alone)`` at the rows of ``pts``, the stacked form :class:`MetricField` takes.

        With ``check`` a point outside the box is not jetted, and p's floor
        is applied to the value its jet kernel returns (bitwise the value
        kernel's).  A point with a non-finite coordinate, or whose kernel
        raises, is left NaN and marked in ``alone``, for
        :meth:`MetricField.jets` to jet alone.
        """
        m = len(pts)
        finite = np.isfinite(pts).all(axis=1)
        outside = np.zeros(m, dtype=bool)
        if check:
            outside[finite] = ~(np.abs(pts[finite]) <= self.box).all(axis=1)
            outside[~finite] = True
        alone = ~(finite | outside)
        jetted = finite & ~outside
        kernel = self.expr._jet3_kernel if order == 3 else self.expr._jet_kernel
        at = np.flatnonzero(jetted)
        rows, counts, known = [], [], {}
        for start, stop, coords, key in self._runs(pts[jetted]):
            if key not in known:
                try:
                    known[key] = kernel(*coords)
                except Exception:  # MetricField.jets has jet raise it again, in each point's own slot
                    known[key] = None
            row, run = known[key], at[start:stop]
            if row is None:
                jetted[run], alone[run] = False, True
            elif check and not row[0] > P_FLOOR:
                jetted[run], outside[run] = False, True
            else:
                rows.append(row)
                counts.append(stop - start)
        arrays = self._assemble(pts[jetted], rows, counts, order)
        if not jetted.all():
            full = tuple(np.full((m,) + a.shape[1:], np.nan) for a in arrays)
            for f, a in zip(full, arrays):
                f[jetted] = a
            arrays = full
        return arrays, outside, alone

    def _assemble(self, x: np.ndarray, rows: list, counts: list, order: int) -> tuple:
        """:meth:`__call__`'s arrays at the rows of ``x``, stacked, from their kernel rows.

        Each kernel row serves the next ``counts`` rows of ``x`` in turn.
        """
        n, m, w = self.n, len(x), self.warp
        columns = [np.repeat(np.asarray(c, dtype=float), counts, axis=0) for c in zip(*rows)]
        columns = columns or [()] * (order + 1)
        B = self.identity + (self.affine @ x[:, None, :, None])[..., 0]
        B[:, 0, 0] = columns[0]
        grad = np.reshape(columns[1], (m, w.size))
        g = B.transpose(0, 2, 1) @ B
        if m < _COLUMN_POINTS or order > 1:  # the einsum and the higher orders read dB whole
            dB = np.repeat(self.affine[None], m, axis=0)
            dB[:, 0, 0, w] = grad
        half = self._half(B, grad) if m >= _COLUMN_POINTS else np.einsum("maik,maj->mijk", dB, B)
        dg = half + half.transpose(0, 2, 1, 3)
        if order == 1:
            return g, dg
        d2B = np.zeros((m, n, n, n, n))
        d2B[:, 0, 0, w[:, None], w] = np.reshape(columns[2], (m, w.size, w.size))
        s = np.einsum("maikl,maj->mijkl", d2B, B)
        d2g = s + s.transpose(0, 2, 1, 3, 4)
        cross = np.einsum("maik,majl->mijkl", dB, dB)
        d2g = d2g + cross + cross.transpose(0, 1, 2, 4, 3)
        if order == 2:
            return g, dg, d2g
        d2p = d2B[:, 0, 0]
        d3p = np.zeros((m, n, n, n))
        d3p[:, w[:, None, None], w[:, None], w] = np.reshape(columns[3], (m,) + (w.size,) * 3)
        b, db = B[:, 0], dB[:, 0]
        row = (
            b[:, :, None, None, None] * d3p[:, None]
            + d2p[:, None, :, :, None] * db[:, :, None, None, :]
            + d2p[:, None, :, None, :] * db[:, :, None, :, None]
            + d2p[:, None, None, :, :] * db[:, :, :, None, None]
        )
        d3g = np.zeros((m,) + (n,) * 5)
        d3g[:, 0] = row
        d3g[:, :, 0] += row
        return g, dg, d2g, d3g

    def _half(self, B: np.ndarray, grad: np.ndarray) -> np.ndarray:
        """``einsum("maik,maj->mijk", dB, B)`` over a stack, bitwise, contracted on :attr:`columns` only.

        Only those columns of dB are built, from ``affine`` and ``grad``,
        the warp entry's gradient at each point.  Each entry is ``0.0 +
        sum_a dB[a, i, k] B[a, j]``, summed in the order of a with the
        points on the innermost axis.  An entry of a zero column is the sum
        of 0 * B[a, j], +0.0 unless some B[a, j] is not finite.  No float
        error is raised, as the einsum raises none.
        """
        m, n = len(B), self.n
        half = np.zeros((m, n, n, n))
        with np.errstate(all="ignore"):
            b = np.ascontiguousarray(B.transpose(1, 2, 0))  # b[a, j, point]
            # d[column, a, k, point]; column 0 is the warp entry's
            d = np.repeat(self.affine[:, self.columns].transpose(1, 0, 2)[..., None], m, axis=-1)
            d[0, 0, self.warp] = grad.T
            acc = 0.0 + b[0, None, :, None] * d[:, 0, None]
            for a in range(1, n):
                acc += b[a, None, :, None] * d[:, a, None]
            half[:, self.columns] = acc.transpose(3, 0, 1, 2)
            if self.columns.size < n and not np.isfinite(b).all():
                zero = 0.0 + 0.0 * b[0]
                for a in range(1, n):
                    zero += 0.0 * b[a]
                half[:, ~self.nonzero] = zero.T[:, None, :, None]
        return half


# ---------------------------------------------------------------------------
# catalog


def catalog_euclidean(n: int) -> MetricField:
    """Flat R^n with the identity metric; the zero-curvature baseline."""
    if not 1 <= n <= 6:
        raise ValueError(f"dimension {n} outside supported range 1..6")
    zeros = (np.eye(n), np.zeros((n,) * 3), np.zeros((n,) * 4), np.zeros((n,) * 5))

    def jet(x, order):
        return zeros[: order + 1]

    coords = tuple(f"x{i}" for i in range(n))
    return MetricField(n, coords, jet, name=f"euclidean({n})", max_order=3,
                       annotations={"expected_nullity": n, "expected_conullity": 0})


def catalog_sphere(radius: float) -> MetricField:
    """Round 2-sphere of the given radius in polar-angle coordinates.

    Chart (theta, phi) with g = diag(r^2, r^2 sin^2 theta); theta is kept in
    (0.1, pi - 0.1) away from the coordinate degeneracy at the poles.
    """
    r2 = radius * radius
    if not (radius > 0 and 0.0 < r2 < math.inf and 1.0 / r2 < math.inf):
        raise ValueError(f"radius must be positive with a finite, nonzero square, got {radius}")

    def jet(x, order):
        theta = x[0]
        g = np.diag([r2, r2 * math.sin(theta) ** 2])
        dg = np.zeros((2, 2, 2))
        dg[1, 1, 0] = r2 * math.sin(2.0 * theta)
        if order == 1:
            return g, dg
        d2g = np.zeros((2, 2, 2, 2))
        d2g[1, 1, 0, 0] = 2.0 * r2 * math.cos(2.0 * theta)
        if order == 2:
            return g, dg, d2g
        d3g = np.zeros((2,) * 5)
        d3g[1, 1, 0, 0, 0] = -4.0 * r2 * math.sin(2.0 * theta)
        return g, dg, d2g, d3g

    def domain(x):
        return 0.1 < x[0] < math.pi - 0.1

    return MetricField(
        2,
        ("theta", "phi"),
        jet,
        domain=domain,
        name=f"sphere({radius:g})",
        max_order=3,
        annotations={"expected_sectional": 1.0 / r2, "expected_scalar_trace": 2.0 / r2},
    )


def catalog_polar() -> MetricField:
    """Flat plane in polar coordinates (r, phi): g = diag(1, r^2).

    A curvature-free chart with nonzero Christoffel symbols, used as an
    integration and connection oracle.
    """

    def jet(x, order):
        r = x[0]
        g = np.diag([1.0, r * r])
        dg = np.zeros((2, 2, 2))
        dg[1, 1, 0] = 2.0 * r
        if order == 1:
            return g, dg
        d2g = np.zeros((2, 2, 2, 2))
        d2g[1, 1, 0, 0] = 2.0
        return (g, dg, d2g) if order == 2 else (g, dg, d2g, np.zeros((2,) * 5))

    def domain(x):
        return x[0] > 0.05

    return MetricField(2, ("r", "phi"), jet, domain=domain, name="polar", max_order=3,
                       annotations={"expected_scalar_trace": 0.0})


def catalog_product(a: MetricField, b: MetricField) -> MetricField:
    """Block-diagonal product metric; jets assembled blockwise, to the lower factor order."""
    n = a.dim + b.dim
    if n > 6:
        raise ValueError(f"product dimension {n} exceeds 6")
    na = a.dim
    coords_b = tuple(c if c not in a.coordinates else c + "_b" for c in b.coordinates)

    def jet(x, order):
        ja = a.jet(x[:na], order=order, check=False)
        jb = b.jet(x[na:], order=order, check=False)
        g = np.zeros((n, n))
        g[:na, :na] = ja[0]
        g[na:, na:] = jb[0]
        dg = np.zeros((n, n, n))
        dg[:na, :na, :na] = ja[1]
        dg[na:, na:, na:] = jb[1]
        if order == 1:
            return g, dg
        d2g = np.zeros((n, n, n, n))
        d2g[:na, :na, :na, :na] = ja[2]
        d2g[na:, na:, na:, na:] = jb[2]
        if order == 2:
            return g, dg, d2g
        d3g = np.zeros((n,) * 5)
        d3g[:na, :na, :na, :na, :na] = ja[3]
        d3g[na:, na:, na:, na:, na:] = jb[3]
        return g, dg, d2g, d3g

    def domain(x):
        return a.contains(x[:na]) and b.contains(x[na:])

    return MetricField(
        n,
        a.coordinates + coords_b,
        jet,
        domain=domain,
        name=f"product({a.name}, {b.name})",
        annotations={"factor_dims": (a.dim, b.dim)},
        max_order=min(a.max_order, b.max_order),
    )


def _as_expression(p, variables: tuple) -> Expression:
    if isinstance(p, Expression):
        if tuple(p.variables) != variables:
            raise ValueError(f"expression variables {p.variables} must be {variables}")
        return p
    return parse(str(p), variables)


def catalog_sekigawa(p, box: float = DEFAULT_BOX) -> MetricField:
    """Warped 3-dim family on chart (x,u,v) driven by p(x,u) > 0.

    Coframe: p dx, du - v dx, dv + u dx.  Expanding the sum of squares,
    g_xx = p^2 + u^2 + v^2, g_xu = -v, g_xv = u, and the (u,v) block is the
    identity.  Wherever its scalar curvature is nonzero the family has a
    2-dim curved plane and a 1-dim curvature kernel; the curved plane's
    sectional curvature is -(1/p) d^2p/du^2 (equal to half the double-trace
    scalar curvature).
    """
    expr = _as_expression(p, ("x", "u"))
    n = 3
    affine = np.zeros((n, n, n))  # affine[row, col, k]: coefficient of x^k
    affine[1, 0, 2] = -1.0  # du - v dx
    affine[2, 0, 1] = 1.0  # dv + u dx
    jet = _CoframeJet(affine, expr, (0, 1), box)  # p dx

    def plane_scal(x):
        j = expr.jet2(np.asarray(x, dtype=float)[:2])
        return -j.hessian[1, 1] / j.value

    annotations = {
        "p_expression": expr,
        "p_chart_indices": (0, 1),
        "expected_conullity": 2,
        "scal_formula": plane_scal,
        "scal_formula_convention": "half_trace",
    }
    return MetricField(
        n,
        ("x", "u", "v"),
        jet,
        domain=jet.inside,
        name=f"sekigawa(p={expr.source})",
        annotations=annotations,
        max_order=3,
    )


def catalog_conullity3(p, box: float = DEFAULT_BOX) -> MetricField:
    """Warped 4-dim family on chart (x,u,v,w) driven by p(x,u,w) > 0.

    Coframe: p dx, du - (v+w) dx, dv + (u+w) dx, dw - (v-u) dx.  Wherever
    the scalar curvature is nonzero the curvature kernel is the single
    direction d/dv and the conullity is 3.  The double-trace scalar
    curvature equals -(2/p)(d^2p/du^2 + d^2p/dw^2).

    The chart's preferred orthonormal frame for the kernel complement is
    derived as the dual frame of the coframe (no frame components are
    hard-coded): with F_a the dual of the a-th coframe form, the rows are
    (F_1 + F_3)/sqrt(2), F_0, (F_1 - F_3)/sqrt(2).  It takes a point or a
    stack of them, calls p's value once per run of points sharing their
    p arguments and builds the rows elementwise, each point's bitwise its
    own.
    """
    expr = _as_expression(p, ("x", "u", "w"))
    n = 4
    affine = np.zeros((n, n, n))  # affine[row, col, k]: coefficient of x^k
    affine[1, 0, [2, 3]] = -1.0  # du - (v+w) dx
    affine[2, 0, [1, 3]] = 1.0  # dv + (u+w) dx
    affine[3, 0, [1, 2]] = [1.0, -1.0]  # dw - (v-u) dx
    jet = _CoframeJet(affine, expr, (0, 1, 3), box)  # p dx

    def trace_scal(x):
        j = expr.jet2(np.asarray(x, dtype=float)[[0, 1, 3]])
        return -2.0 * (j.hessian[1, 1] + j.hessian[2, 2]) / j.value

    s = 1.0 / math.sqrt(2.0)
    fixed_rows = np.array([[0.0, s, 0.0, s], [0.0] * n, [0.0, s, 0.0, -s]])  # F_0's row is filled per point

    def preferred_frame(x):
        pts = np.asarray(x, dtype=float)
        stack = pts.reshape(-1, n)
        runs = list(jet._runs(stack))
        pval = np.repeat([expr.value(coords) for _, _, coords, _ in runs], [stop - start for start, stop, _, _ in runs])
        u, v, w = stack.T[1:]
        frames = np.repeat(fixed_rows[None], len(stack), axis=0)
        frames[:, 1] = np.array([np.ones(len(stack)), v + w, -(u + w), v - u]).T / pval[:, None]
        return frames.reshape(pts.shape[:-1] + (3, n))

    annotations = {
        "p_expression": expr,
        "p_chart_indices": (0, 1, 3),
        "expected_conullity": 3,
        "kernel_coordinate": "v",
        "scal_formula": trace_scal,
        "scal_formula_convention": "scalar_trace",
    }
    return MetricField(
        n,
        ("x", "u", "v", "w"),
        jet,
        domain=jet.inside,
        name=f"conullity3(p={expr.source})",
        annotations=annotations,
        preferred_frame=preferred_frame,
        max_order=3,
    )


# ---------------------------------------------------------------------------
# registry for the CLI


def _catalog_product_entry(radius: float, dim: int) -> MetricField:
    """sphere(radius) x euclidean(dim - 2), the catalog's product; ``dim`` is the product's own, 3..6."""
    sphere = catalog_sphere(radius)
    if not 3 <= dim <= 6:
        raise ValueError(f"product dimension {dim} outside supported range 3..6")
    return catalog_product(sphere, catalog_euclidean(dim - 2))


class CatalogEntry(NamedTuple):
    """A named metric family with its checkable expected facts."""

    name: str
    summary: str
    parameters: tuple
    build: Callable
    expectations: tuple  # (fact, operation that checks it) pairs
    default_point: tuple = ()  # leading coordinates of a point inside the chart; the rest are 0


CATALOG = {
    "euclidean": CatalogEntry(
        "euclidean",
        "flat R^n, identity metric",
        ("dim",),
        lambda dim=4, **_: catalog_euclidean(int(dim)),
        (
            ("Riemann tensor vanishes identically", "curvature.riemann"),
            ("nullity n, conullity 0", "curvature.nullity"),
        ),
    ),
    "sphere": CatalogEntry(
        "sphere",
        "round 2-sphere of radius r, chart (theta, phi)",
        ("radius",),
        lambda radius=1.0, **_: catalog_sphere(float(radius)),
        (
            ("sectional curvature 1/r^2", "curvature.sectional"),
            ("double-trace scalar curvature 2/r^2", "curvature.scalar_curvature"),
        ),
        (math.pi / 2,),  # the origin is the pole theta = 0, outside the chart
    ),
    "polar": CatalogEntry(
        "polar",
        "flat plane in polar coordinates (r, phi)",
        (),
        lambda **_: catalog_polar(),
        (
            ("curvature vanishes; straight lines solve the geodesic equation", "flows.geodesic"),
        ),
        (1.0,),  # the origin is r = 0, outside the chart
    ),
    "product": CatalogEntry(
        "product",
        "sphere(radius) x euclidean(dim-2), block-diagonal",
        ("radius", "dim"),
        lambda radius=1.0, dim=4, **_: _catalog_product_entry(float(radius), int(dim)),
        (
            ("kernel of curvature = flat factor, conullity 2", "curvature.nullity"),
            ("splitting tensor vanishes", "verify product: splitting_tensor_vanishes"),
        ),
        (math.pi / 2,),
    ),
    "sekigawa": CatalogEntry(
        "sekigawa",
        "warped 3-dim family on (x,u,v) driven by p(x,u)",
        ("p",),
        lambda p="2+u*u", box=DEFAULT_BOX, **_: catalog_sekigawa(p, box=float(box)),
        (
            ("conullity 2 wherever scalar curvature is nonzero", "curvature.nullity"),
            ("curved-plane curvature equals -(1/p) d2p/du2", "curvature.scalar_curvature (half_trace)"),
        ),
    ),
    "conullity3": CatalogEntry(
        "conullity3",
        "warped 4-dim family on (x,u,v,w) driven by p(x,u,w)",
        ("p",),
        lambda p="3+cos(u)+cos(w)", box=DEFAULT_BOX, **_: catalog_conullity3(p, box=float(box)),
        (
            ("kernel of curvature = span{d/dv}, conullity 3", "curvature.nullity"),
            ("double-trace scalar curvature equals -(2/p)(d2p/du2 + d2p/dw2)", "curvature.scalar_curvature"),
            ("splitting tensor strictly upper triangular with entry sqrt(2)/p",
             "verify conullity3: splitting_matrix_at_origin, splitting_nilpotent_at_origin"),
            ("span{du,dv,dw} flat and totally geodesic", "flows.flatness_probe"),
        ),
    ),
}
