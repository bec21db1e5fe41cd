"""Metric charts with 2-jet and 3-jet access, plus the example-metric catalog.

A :class:`MetricField` is a single coordinate chart: a map from points to
symmetric positive-definite matrices, together with derivative access (the
2-jet of g, and the 3-jet where ``max_order`` is 3) and a domain predicate
that also rejects non-finite points.  Charts are immutable after
construction and evaluation is pure, so fields can be shared freely across
threads.  Every catalog family has closed-form 3-jets; a field built from
finite differences, and a user field by default, has 2-jets only.

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
rule (analytic provenance, no finite differences).  The coframe matrix is
affine in the coordinates except for its warp entry p, so a jet of g costs
one expression jet of p plus a few dense contractions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .exprcalc import Expression, parse

__all__ = [
    "ChartDomainError",
    "Provenance",
    "MetricField",
    "CatalogEntry",
    "CATALOG",
    "catalog_euclidean",
    "catalog_sphere",
    "catalog_polar",
    "catalog_product",
    "catalog_sekigawa",
    "catalog_conullity3",
    "fd_jet",
    "finite_difference_field",
    "DEFAULT_BOX",
    "P_FLOOR",
]

DEFAULT_BOX = 3.0
# warped charts keep clear of the p -> 0 metric degeneracy except when the
# incompleteness probe deliberately drives toward it
P_FLOOR = 1e-3


class ChartDomainError(ValueError):
    def __init__(self, message: str, point):
        pt = np.asarray(point, dtype=float)
        super().__init__(f"{message}: point {np.array2string(pt, precision=6)}")
        self.point = pt


@dataclass(frozen=True)
class Provenance:
    kind: str  # "analytic" or "finite-difference"
    step: Optional[float] = None


class MetricField:
    """A Riemannian metric on one coordinate chart with 2-jet (or 3-jet) access.

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
    provenance : Provenance
        Whether derivatives are analytic or finite-difference; downstream
        rank tolerances key off this.
    annotations : dict, optional
        Machine-checkable expected facts used by the verify suites.
    preferred_frame : callable, optional
        ``x -> (k, n)`` array of g-orthonormal rows spanning the complement
        of the expected kernel, used as the default splitting-tensor basis.
    max_order : int
        The highest order ``jet`` supports, 2 or 3 (read-only).
    """

    def __init__(
        self,
        dim: int,
        coordinates: Sequence[str],
        jet: Callable,
        domain: Optional[Callable] = None,
        provenance: Provenance = Provenance("analytic"),
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
        self.provenance = provenance
        self.name = name or "metric"
        self.annotations = dict(annotations or {})
        self.preferred_frame = preferred_frame
        self._max_order = max_order

    @property
    def max_order(self) -> int:
        return self._max_order

    def __repr__(self) -> str:
        return f"MetricField({self.name!r}, dim={self.dim}, coords={self.coordinates})"

    def _point(self, x) -> np.ndarray:
        pt = np.asarray(x, dtype=float)
        if pt.shape != (self.dim,):
            raise ValueError(f"point shape {pt.shape} does not match dimension {self.dim}")
        return pt

    def _inside(self, pt: np.ndarray) -> bool:
        return all(map(math.isfinite, pt.tolist())) and bool(self._domain(pt))

    def contains(self, x) -> bool:
        return self._inside(self._point(x))

    def g(self, x, check: bool = True) -> np.ndarray:
        pt = self._point(x)
        if check and not self._inside(pt):
            raise ChartDomainError(f"point outside domain of {self.name}", pt)
        return self._jet(pt, 1)[0]

    def jet(self, x, order: int = 2, check: bool = True):
        """Jet of g at x: ``(g, dg, d2g)``; ``order=1`` skips d2g, ``order=3`` adds d3g."""
        if not 1 <= order <= self._max_order:
            raise ValueError(f"order must be 1..{self._max_order} for {self.name}, got {order}")
        pt = self._point(x)
        if check and not self._inside(pt):
            raise ChartDomainError(f"point outside domain of {self.name}", pt)
        return self._jet(pt, order)

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
    of d3B, d2B and dB with B and dB in row 0 only.
    """

    def __init__(self, affine: np.ndarray, expr: Expression, warp: Sequence[int]):
        self.n = affine.shape[0]
        self.identity = np.eye(self.n)
        self.affine = affine
        self.expr = expr
        self.warp = np.asarray(warp, dtype=int)
        self.warp_block = np.ix_(self.warp, self.warp)

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


def _box_domain(box: float, extra: Optional[Callable] = None) -> Callable:
    def inside(x: np.ndarray) -> bool:
        if not (np.abs(x) <= box).all():
            return False
        return True if extra is None else bool(extra(x))

    return inside


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

    kinds = {a.provenance.kind, b.provenance.kind}
    steps = [p.step for p in (a.provenance, b.provenance) if p.step is not None]
    provenance = (
        Provenance("analytic")
        if kinds == {"analytic"}
        else Provenance("finite-difference", max(steps) if steps else None)
    )
    return MetricField(
        n,
        a.coordinates + coords_b,
        jet,
        domain=domain,
        provenance=provenance,
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
    jet = _CoframeJet(affine, expr, (0, 1))  # p dx

    def p_positive(x):
        return expr.value(x[:2]) > P_FLOOR

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
        domain=_box_domain(box, p_positive),
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
    (F_1 + F_3)/sqrt(2), F_0, (F_1 - F_3)/sqrt(2).
    """
    expr = _as_expression(p, ("x", "u", "w"))
    n = 4
    affine = np.zeros((n, n, n))  # affine[row, col, k]: coefficient of x^k
    affine[1, 0, [2, 3]] = -1.0  # du - (v+w) dx
    affine[2, 0, [1, 3]] = 1.0  # dv + (u+w) dx
    affine[3, 0, [1, 2]] = [1.0, -1.0]  # dw - (v-u) dx
    jet = _CoframeJet(affine, expr, (0, 1, 3))  # p dx

    def p_positive(x):
        return expr.value(x[[0, 1, 3]]) > P_FLOOR

    def trace_scal(x):
        j = expr.jet2(np.asarray(x, dtype=float)[[0, 1, 3]])
        return -2.0 * (j.hessian[1, 1] + j.hessian[2, 2]) / j.value

    def preferred_frame(x):
        pt = np.asarray(x, dtype=float)
        pval = expr.value(pt[[0, 1, 3]])
        u, v, w = pt[1], pt[2], pt[3]
        f0 = np.array([1.0, v + w, -(u + w), v - u]) / pval
        s = 1.0 / math.sqrt(2.0)
        e1 = np.array([0.0, s, 0.0, s])
        e3 = np.array([0.0, s, 0.0, -s])
        return np.vstack([e1, f0, e3])

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
        domain=_box_domain(box, p_positive),
        name=f"conullity3(p={expr.source})",
        annotations=annotations,
        preferred_frame=preferred_frame,
        max_order=3,
    )


# ---------------------------------------------------------------------------
# finite-difference jets


def fd_jet(field: MetricField, x, h: float = 2e-4):
    """Second-order central-difference 2-jet of g; fallback derivative provider.

    Raises :class:`ChartDomainError` if a stencil point leaves the domain,
    so the base point should be interior by a margin of 2h.
    """
    pt = np.asarray(x, dtype=float)
    n = field.dim
    g0 = field.g(pt)
    eye = np.eye(n)
    gp = [field.g(pt + h * eye[k]) for k in range(n)]
    gm = [field.g(pt - h * eye[k]) for k in range(n)]
    dg = np.stack([(gp[k] - gm[k]) / (2.0 * h) for k in range(n)], axis=2)
    d2g = np.zeros((n, n, n, n))
    for k in range(n):
        d2g[:, :, k, k] = (gp[k] - 2.0 * g0 + gm[k]) / (h * h)
        for l in range(k + 1, n):
            gpp = field.g(pt + h * eye[k] + h * eye[l])
            gpm = field.g(pt + h * eye[k] - h * eye[l])
            gmp = field.g(pt - h * eye[k] + h * eye[l])
            gmm = field.g(pt - h * eye[k] - h * eye[l])
            mixed = (gpp - gpm - gmp + gmm) / (4.0 * h * h)
            d2g[:, :, k, l] = mixed
            d2g[:, :, l, k] = mixed
    return g0, dg, d2g


def finite_difference_field(field: MetricField, h: float = 2e-4) -> MetricField:
    """Wrap ``field`` so its jets come from :func:`fd_jet` (value access only)."""

    def jet(x, order):
        g, dg, d2g = fd_jet(field, x, h)
        return (g, dg) if order == 1 else (g, dg, d2g)

    return MetricField(
        field.dim,
        field.coordinates,
        jet,
        domain=field._domain,
        provenance=Provenance("finite-difference", h),
        name=f"fd({field.name})",
        annotations=field.annotations,
        preferred_frame=field.preferred_frame,
    )


# ---------------------------------------------------------------------------
# registry for the CLI


@dataclass(frozen=True)
class CatalogEntry:
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
        lambda radius=1.0, dim=4, **_: catalog_product(
            catalog_sphere(float(radius)), catalog_euclidean(int(dim) - 2)
        ),
        (
            ("kernel of curvature = flat factor, conullity 2", "curvature.nullity"),
            ("splitting tensor vanishes", "splitting.splitting_tensor"),
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
            ("splitting tensor strictly upper triangular with entry sqrt(2)/p", "splitting.splitting_tensor"),
            ("span{du,dv,dw} flat and totally geodesic", "flows.flatness_probe"),
        ),
    ),
}
