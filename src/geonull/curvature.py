"""Curvature tensors and the kernel of the curvature operator.

Conventions (all index placement follows these throughout the package):

* ``dg[i, j, k] = d g_ij / d x^k``, ``d2g[i, j, k, l]`` adds ``d/d x^l`` and
  ``d3g[i, j, k, l, m]`` adds ``d/d x^m``.
* Christoffel symbols ``Gamma[l, j, k]`` mean Gamma^l_jk with
  Gamma^l_jk = 1/2 g^{lm} (d_j g_km + d_k g_jm - d_m g_jk).
* ``rup[l, i, j, k]`` is R^l_ijk = d_i Gamma^l_jk - d_j Gamma^l_ik
  + Gamma^l_im Gamma^m_jk - Gamma^l_jm Gamma^m_ik.
* ``rdown[i, j, k, l]`` is R_ijkl = g_lm R^m_ijk, so the sectional curvature
  of span{X, Y} has numerator R_ijkl X^i Y^j Y^k X^l and the unit round
  sphere comes out at +1.
* R is built lowered, from the lowered Christoffel symbols Gamma_{m,jk} =
  s_jkm / 2 (``_riemann``): every command reads that one ``rdown``, and
  ``rup`` is raised from it by g^-1 only where a public name returns it
  (``riemann``, ``CurvatureData.rup``).
* The scalar curvature is the double trace g^{il} g^{jk} R_ijkl, which is
  +2 on the unit sphere.
* ``cov[m, i, j, k, l]`` is (nabla_m R)_ijkl.

``nullity`` takes the kernel of v -> R(v, ., ., .) from an SVD of the lowered
tensor flattened to n^3 x n (rank cutoff ``REL_TOL_ANALYTIC`` relative to the
largest singular value unless a ``rel_tol`` is given) and g-orthonormalizes
it; ``sectional_range`` reads the exact sectional range off the curvature
operator on its complement.  nabla R comes in closed form from a metric
3-jet: the derivative of R's lowered formula follows from the jet by the
product rule, and four Christoffel corrections make it covariant.  So a
point needs one jet.  ``covariant_riemann``, ``bianchi2_residual`` and
``curvature_data(..., nabla_r=True)`` ask the metric for that 3-jet, so a
metric with 2-jets only raises ``ValueError`` there.  The splitting
tensor's solve needs nabla R only with the kernel vector T in its first
slot: ``_solve_rhs`` builds -(nabla R)(T, ., ., .), T contracted into every
product-rule term before an n^5 product is formed, so no command builds the
n^5 entries of nabla R (``_nabla_riemann`` does, one coordinate vector T at
a time, for ``covariant_riemann`` and ``CurvatureData.nabla_r``).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field as dataclass_field
from functools import cached_property
from typing import Optional

import numpy as np

from . import numcore
from .metricspace import MetricField
from .numcore import (
    REL_TOL_ANALYTIC,
    _canonical_sign,
    _g_gram_schmidt,
    invert,
    kernel,
)

__all__ = [
    "DegeneratePlaneError",
    "NullityResult",
    "Nullities",
    "CurvatureData",
    "christoffel",
    "riemann",
    "sectional",
    "scalar_curvature",
    "nullity",
    "curvature_data",
    "sectional_range",
    "covariant_riemann",
    "bianchi2_residual",
]


class DegeneratePlaneError(ValueError):
    def __init__(self, gram_det: float):
        super().__init__(
            f"plane spanned by the given vectors is degenerate (Gram determinant {gram_det:.3e})"
        )
        self.gram_det = gram_det


def _t(a: np.ndarray, *axes: int) -> np.ndarray:
    """``a`` with its trailing axes permuted as ``axes`` (negative), leading batch axes kept."""
    return a.transpose(*range(a.ndim - len(axes)), *axes)


def _bracket(dg: np.ndarray) -> np.ndarray:
    """``s[..., j, k, m]`` = d_j g_km + d_k g_jm - d_m g_jk, twice the lowered Christoffel symbol Gamma_{m,jk}."""
    return _t(dg, -1, -3, -2) + _t(dg, -3, -1, -2) - dg


def _christoffel_from_jet(gi: np.ndarray, dg: np.ndarray) -> np.ndarray:
    """Gamma[..., l, j, k] from the inverse metric and first metric derivatives."""
    return 0.5 * np.einsum("...lm,...jkm->...ljk", gi, _bracket(dg))


def christoffel(metric: MetricField, x) -> np.ndarray:
    """Christoffel symbols Gamma[l, j, k] = Gamma^l_jk at x."""
    g, dg = metric.jet(x, order=1)
    return _christoffel_from_jet(invert(g), dg)


def _riemann(g, dg, d2g):
    """``(gi, gamma, s, ds, rdown)``: R_ijkl from a 2-jet, and the tensors it is built on.

    ``s`` is :func:`_bracket`'s s_jkm, twice the lowered Christoffel symbol
    Gamma_{m,jk}, ``ds[..., j, k, m, i]`` = d_i s_jkm, ``gamma`` is
    Gamma^l_jk = g^lm s_jkm / 2 (:func:`_christoffel_from_jet`'s bits) and
    ``gi`` = g^-1.  R is built lowered,

        R_ijkl = (d_i s_jkl - d_j s_ikl) / 2 - Gamma_{p,il} Gamma^p_jk
                 + Gamma_{p,jl} Gamma^p_ik,

    so g^-1 enters only through Gamma^p_jk, and no term is raised by g^-1
    and lowered again by g: on an ill-conditioned g this R is the closer to
    the jet's own.  Leading axes of the jet are a batch of points; each
    point's tensors are bitwise those of the point alone.
    """
    *b, n = g.shape[:-1]
    gi = invert(g)
    s = _bracket(dg)
    gamma = 0.5 * np.einsum("...lm,...jkm->...ljk", gi, s)
    ds = _t(d2g, -2, -4, -3, -1) + _t(d2g, -4, -2, -3, -1) - d2g
    # w[i, j, k, l] = d_i s_jkl / 2 - Gamma_{p,il} Gamma^p_jk, from sg[i, l, j, k] = s_ilp Gamma^p_jk
    sg = (s.reshape(*b, n * n, n) @ gamma.reshape(*b, n, n * n)).reshape(*b, n, n, n, n)
    w = 0.5 * (_t(ds, -1, -4, -3, -2) - _t(sg, -4, -2, -1, -3))
    return gi, gamma, s, ds, w - w.swapaxes(-3, -4)


def _raised(gi, rdown):
    """``rup[..., l, i, j, k]`` = R^l_ijk = g^lm R_ijkm, raised from the lowered R."""
    return np.einsum("...lm,...ijkm->...lijk", gi, rdown)


def _solve_rhs(dg, d3g, parts, t):
    """``rhs[..., m, j, k, l]`` = -(nabla_m R)(T, j, k, l), the right-hand side of the splitting solve.

    From a 3-jet's ``dg`` and ``d3g``, :func:`_riemann` of its 2-jet and T
    = ``t``, with Gamma lowered, Gamma_{p,il} = s_ilp / 2, as R is:

        d_n (Gamma_{p,il} Gamma^p_jk) = d_n Gamma_{p,il} Gamma^p_jk
                 + Gamma^p_il d_n Gamma_{p,jk} - Gamma^a_il d_n g_ab Gamma^b_jk,

    so no term is raised by g^-1 and lowered again by g, and the solve's
    two sides share their rounding.  T goes into every term of nabla R
    before a product is formed, so each costs n^5, not n^6: the 3-jet with
    T in a derivative slot (``dt``) and in a metric slot (``mt``),
    Gamma^p_mi T^i (``gt``), d_n s_ilp T^i and R(T, ., ., .) (``rt``).  The
    terms pair up under the antisymmetry in k, l, as do the last two of the
    four Christoffel corrections.  Leading axes are a batch of points, each
    bitwise the point alone.
    """
    gamma, ds, rdown = parts[1], parts[3], parts[4]
    *b, n = t.shape
    # halving is exact, so the formulas' factors 1/2 go on T where they can
    col, row, half = t[..., :, None], t[..., None, :], 0.5 * t[..., None, :]
    # dt[a, b, c, d] = d_c d_d d_T g_ab / 2 and mt[a, c, d, e] = d_c d_d d_e (T^i g_ia) / 2
    dt = (d3g.reshape(*b, n ** 4, n) @ half[..., 0, :, None]).reshape(*b, n, n, n, n)
    mt = (half @ d3g.reshape(*b, n, n ** 4)).reshape(*b, n, n, n, n)
    gt = (gamma.reshape(*b, n * n, n) @ col).reshape(*b, n, n)
    rt = (row @ rdown.reshape(*b, n, n ** 3)).reshape(*b, n, n, n)
    # p[l, b, n] = Gamma^a_il T^i d_n g_ab - d_n Gamma_{b,il} T^i
    p = (
        gt.swapaxes(-1, -2) @ dg.reshape(*b, n, n * n) - (half @ ds.reshape(*b, n, n ** 3)).reshape(*b, n, n * n)
    ).reshape(*b, n, n, n)
    # v[n, j, k, l]: the terms that the antisymmetry in k, l pairs up
    v = (
        _t(mt, -1, -2, -4, -3) - _t(dt, -1, -4, -3, -2)
        + (gamma.reshape(*b, 1, n, n * n).swapaxes(-1, -2) @ _t(p, -1, -2, -3)).reshape(*b, n, n, n, n)
        - _t(ds, -1, -4, -3, -2) @ (0.5 * gt)[..., None, None, :, :]
        - _t(gamma, -2, -1, -3)[..., :, None, :, :] @ rt[..., None, :, :, :]
    )
    corrections = (gt.swapaxes(-1, -2) @ rdown.reshape(*b, n, n ** 3)).reshape(*b, n, n, n, n) + (
        gamma.reshape(*b, n, n * n).swapaxes(-1, -2) @ rt.reshape(*b, n, n * n)
    ).reshape(*b, n, n, n, n)
    return v.swapaxes(-1, -2) - v + corrections


def _nabla_riemann(dg, d3g, parts):
    """nabla R, ``cov[..., m, i, j, k, l]`` = (nabla_m R)_ijkl, from a 3-jet and :func:`_riemann` of its 2-jet.

    :func:`_solve_rhs` with T each coordinate vector in turn, so the full
    tensor comes from the formulas the splitting solve uses.  No command
    builds it.
    """
    n = dg.shape[-1]
    eye = np.broadcast_to(np.eye(n), (*dg.shape[:-3], n, n))
    return -np.stack([_solve_rhs(dg, d3g, parts, eye[..., i, :]) for i in range(n)], axis=-4)


def riemann(metric: MetricField, x):
    """Curvature tensors ``(rup, rdown)`` at x (see module conventions)."""
    gi, gamma, s, ds, rdown = _riemann(*metric.jet(x))
    return _raised(gi, rdown), rdown


def _plane_curvature(rdown: np.ndarray, g: np.ndarray, X, Y):
    """Sectional quotient R(X, Y, Y, X) / gram of span{X, Y}, with Gram data.

    Returns ``(quotient, gram, gxx * gyy)`` where gram = gxx gyy - gxy^2.
    The quotient is NaN when gram is not positive; each caller judges
    degeneracy against its own threshold on the last two values.
    """
    gxx = float(X @ g @ X)
    gyy = float(Y @ g @ Y)
    gxy = float(X @ g @ Y)
    gram = gxx * gyy - gxy * gxy
    if gram <= 0.0:
        return math.nan, gram, gxx * gyy
    num = float(np.einsum("ijkl,i,j,k,l->", rdown, X, Y, Y, X))
    return num / gram, gram, gxx * gyy


def sectional(metric: MetricField, x, X, Y) -> float:
    """Sectional curvature of span{X, Y} at x.

    Raises :class:`DegeneratePlaneError` when the plane's Gram determinant is
    below 1e-12 relative to the product of the squared lengths.
    """
    g, dg, d2g = metric.jet(x)
    value, gram, scale = _plane_curvature(
        _riemann(g, dg, d2g)[4], g, np.asarray(X, dtype=float), np.asarray(Y, dtype=float)
    )
    if scale <= 0.0 or gram <= 1e-12 * scale:
        raise DegeneratePlaneError(gram)
    return value


def scalar_curvature(metric: MetricField, x) -> float:
    """Double-trace scalar curvature g^{il} g^{jk} R_ijkl (unit sphere: +2)."""
    gi, gamma, s, ds, rdown = _riemann(*metric.jet(x))
    return float(np.einsum("il,jk,ijkl->", gi, gi, rdown))


@dataclass(frozen=True)
class NullityResult:
    """Kernel of the curvature operator at one point.

    ``basis`` has the kernel vectors as rows, orthonormal in the metric inner
    product; ``residuals[i]`` is max |R(basis[i], ., ., .)| and should sit at
    numerical-noise level; ``singular_values`` are those of the flattened
    n^3 x n curvature map, ``tolerance_used`` the absolute rank cutoff.
    """

    nullity: int
    conullity: int
    basis: np.ndarray
    residuals: np.ndarray
    singular_values: np.ndarray
    tolerance_used: float


@dataclass(frozen=True)
class Nullities:
    """:class:`NullityResult` of each point of a stack, stacked.

    ``sizes[i]`` is point i's nullity, and the first ``sizes[i]`` rows of
    ``basis[i]`` (n, n) and entries of ``residuals[i]`` (n,) are its
    kernel rows and their residuals (the rest are 0).  Indexing (and so
    iterating) gives point i's :class:`NullityResult`.
    """

    sizes: np.ndarray
    basis: np.ndarray
    residuals: np.ndarray
    singular_values: np.ndarray
    tolerances: np.ndarray

    def __getitem__(self, i: int) -> NullityResult:
        n, k = self.basis.shape[-1], int(self.sizes[i])
        return NullityResult(
            nullity=k,
            conullity=n - k,
            basis=self.basis[i, :k],
            residuals=self.residuals[i, :k],
            singular_values=self.singular_values[i],
            tolerance_used=float(self.tolerances[i]),
        )


def _nullities_from(rdown: np.ndarray, g: np.ndarray, rel_tol: float) -> Nullities:
    """Kernels of v -> R(v, ., ., .) at a stack of points (leading axes, flattened), stacked.

    One SVD decides every point's kernel.  The points of each kernel size
    take one stacked g-Gram-Schmidt of their kernel rows, with canonical
    signs (dropping a row whose g-norm is below 1e-10), then canonical
    signs again and the residuals max |R(v, ., ., .)|, so each point's
    result is bitwise that of the point alone.
    """
    n = g.shape[-1]
    g = g.reshape(-1, n, n)
    r = rdown.reshape(-1, n, n, n, n)
    kernels = kernel(r.reshape(-1, n, n ** 3).swapaxes(1, 2), rel_tol=rel_tol)
    sizes = kernels.sizes.copy()
    basis, residuals = np.zeros(g.shape), np.zeros(g.shape[:2])
    for k, at in numcore._groups(sizes):
        if not k:
            continue
        rows, kept = _g_gram_schmidt(_canonical_sign(kernels.rows[at, n - k:]), g[at], drop_tol=1e-10)
        if not all(kept.ravel().tolist()):  # the accepted rows first, in order
            rows = np.take_along_axis(rows, np.argsort(~kept, axis=1, kind="stable")[..., None], axis=1)
            sizes[at] = kept.sum(axis=1)
        rows = _canonical_sign(rows)
        basis[at, :k] = rows
        # a dropped row is zero, its residual too
        rk = np.einsum("pijkl,pi->pjkl", r[at] if k == 1 else np.repeat(r[at], k, axis=0), rows.reshape(-1, n))
        residuals[at, :k] = np.abs(rk.reshape(len(rk), -1)).max(axis=1).reshape(-1, k)
    return Nullities(sizes, basis, residuals, kernels.singular_values, kernels.tolerances)


def _curvatures(g, dg, d2g, rel_tol: float):
    """``(parts, scalar traces, nullities)`` from 2-jets whose leading axes are a stack of points.

    ``parts`` are :func:`_riemann`'s tensors.  One inversion of g, one
    scalar-trace contraction and one kernel SVD serve the whole stack; each
    point's results are bitwise those of the point alone.
    """
    parts = _riemann(g, dg, d2g)
    gi, rdown = parts[0], parts[4]
    scal = np.einsum("...il,...jk,...ijkl->...", gi, gi, rdown)
    return parts, scal, _nullities_from(rdown, g, rel_tol)


def _nullity_from(rdown: np.ndarray, g: np.ndarray, rel_tol: float) -> NullityResult:
    """Kernel of v -> R(v, ., ., .) from a lowered curvature tensor already in hand."""
    return _nullities_from(rdown, g, rel_tol)[0]


def _nullity_at(metric: MetricField, x, rel_tol: Optional[float] = None):
    """``(nullity, g, dg)`` at x: the kernel and the one metric jet it came from."""
    if rel_tol is None:
        rel_tol = REL_TOL_ANALYTIC
    g, dg, d2g = metric.jet(x)
    return _nullity_from(_riemann(g, dg, d2g)[4], g, rel_tol), g, dg


def nullity(metric: MetricField, x, rel_tol: Optional[float] = None) -> NullityResult:
    """Kernel of v -> R(v, ., ., .) at x via SVD of the flattened tensor."""
    return _nullity_at(metric, x, rel_tol)[0]


@dataclass(frozen=True)
class CurvatureData:
    """One-stop curvature summary at a point.

    ``scalar_trace`` is the double-trace scalar curvature, ``half_trace``
    half of it.  ``complement`` is the g-orthonormal complement H of the
    kernel, built from coordinate directions once, on first access (or by
    the splitting pipeline, as its solve rows), for every reader.  At
    conullity 2 H is one plane and ``nonflat_plane_curvature`` is its
    sectional curvature (else None); :func:`sectional_range` gives the
    range over all planes.  ``rdown`` is
    R built lowered (:func:`_riemann`); ``rup`` is raised from it by g^-1
    on first access, as no command reads it.  The jet the summary came from
    (of order 3 when nabla R was asked for) and :func:`_riemann` of it feed
    the splitting solve.  ``nabla_r`` is the full nabla R from them,
    computed on first access, or None when nabla R was not asked for; no
    command reads it.
    """

    point: np.ndarray
    g: np.ndarray
    christoffel: np.ndarray
    rdown: np.ndarray
    scalar_trace: float
    half_trace: float
    nullity: NullityResult
    _jet: tuple = dataclass_field(repr=False, compare=False)
    _parts: tuple = dataclass_field(repr=False, compare=False)

    @cached_property
    def complement(self) -> np.ndarray:
        rows, kept = _complement(self.g, self.nullity.basis)
        return rows[kept]

    @cached_property
    def rup(self) -> np.ndarray:
        return _raised(self._parts[0], self.rdown)

    @cached_property
    def nonflat_plane_curvature(self) -> Optional[float]:
        if self.nullity.conullity != 2 or self.complement.shape[0] != 2:
            return None
        return _plane_curvature(self.rdown, self.g, *self.complement)[0]

    @cached_property
    def nabla_r(self) -> Optional[np.ndarray]:
        return _nabla_riemann(self._jet[1], self._jet[3], self._parts) if len(self._jet) == 4 else None


def _complement(g: np.ndarray, kernel_basis: np.ndarray):
    """``(rows, kept)``: the g-orthonormal complement of the rows of ``kernel_basis`` at each point of a stack.

    :func:`~geonull.numcore._g_gram_schmidt` of the coordinate directions
    off the kernel; 1e-6 drops those (nearly) inside it, so it stops once
    every point has its n - k rows, and a kernel that fills the space has
    none.
    """
    n, k = g.shape[-1], kernel_basis.shape[-2]
    if k == n:
        return np.zeros(g.shape[:-2] + (n, n)), np.zeros(g.shape[:-2] + (n,), dtype=bool)
    return _g_gram_schmidt(np.eye(n), g, prior=kernel_basis, drop_tol=1e-6, rank=n - k)


def curvature_data(
    metric: MetricField, x, rel_tol: Optional[float] = None, nabla_r: bool = False
) -> CurvatureData:
    """The curvature summary at x from one metric jet.

    With ``nabla_r`` set that jet is of order 3, which the splitting solve
    takes nabla R from (a metric with 2-jets only raises ``ValueError``);
    the summary's fields are bitwise those of the order-2 jet.
    """
    if rel_tol is None:
        rel_tol = REL_TOL_ANALYTIC
    pt = np.asarray(x, dtype=float)
    jet = metric.jet(pt, order=3 if nabla_r else 2)
    parts, scal, kernels = _curvatures(*jet[:3], rel_tol)
    return _summary(pt, jet, parts, float(scal), kernels[0])


def _summary(point, jet, parts, scal: float, nullity: NullityResult) -> CurvatureData:
    """The :class:`CurvatureData` at ``point`` of its ``jet``, :func:`_riemann`'s ``parts`` of it, its scalar trace and its kernel."""
    return CurvatureData(point, jet[0], parts[1], parts[4], scal, 0.5 * scal, nullity, tuple(jet), tuple(parts))


# np.triu_indices(k, 1) for k < 4, the index pairs a < b of the 2-vectors e_a ^ e_b
# of a complement of dimension k (that call takes 18 µs, and its first 256 KB)
_PAIRS = [
    tuple(np.array([ab[i] for ab in itertools.combinations(range(k), 2)], dtype=np.intp) for i in (0, 1))
    for k in range(4)
]


def sectional_range(data: CurvatureData):
    """Exact ``(min, max)`` of the sectional curvature at ``data.point``.

    R vanishes on the kernel: the range spans the curvature operator's
    eigenvalues on the 2-vectors of its complement H, and 0 if it is nonzero.
    ``(None, None)`` when n < 2, or dim H >= 4 where 2-vectors need not be planes.
    """
    frame = data.complement
    n, k = data.g.shape[0], frame.shape[0]
    if n < 2 or k >= 4:
        return None, None
    lam = list(np.linalg.eigvalsh(_plane_operator(data.rdown, frame))) + [0.0] * (k < n)
    return float(min(lam)), float(max(lam))


def _plane_operator(rdown: np.ndarray, frame: np.ndarray) -> np.ndarray:
    """The curvature operator on the 2-vectors e_a ^ e_b (a < b) of the rows of ``frame`` (k, n), k < 4.

    Entry (p, q) is R(e_a, e_b, e_b', e_a') for the p-th pair (a, b) and the
    q-th (a', b'): bitwise that entry of ``einsum("ijkl,ai,bj,ck,dl->abcd",
    rdown, frame, frame, frame, frame)`` on a C-ordered R, as :func:`_riemann`
    builds it, without the other k^4 entries.  As the einsum does, each
    product R_ijkl f_ai f_bj f_ck f_dl is multiplied left to right and the
    products are added to 0.0 one at a time, in C order, whatever the layout
    of ``rdown``.
    """
    n = rdown.shape[-1]
    a, b = _PAIRS[frame.shape[0]]
    if not len(a):  # k < 2: no 2-vectors
        return np.zeros((0, 0))
    rows = (a[:, None], b[:, None], b[None, :], a[None, :])  # the frame row each of R's axes takes, at entry (p, q)
    terms = rdown
    for axis, at in enumerate(rows):
        shape = [1, 1, 1, 1]
        shape[axis] = n
        terms = terms * frame[at].reshape(at.shape + tuple(shape))
    sums = np.add.accumulate(terms.reshape(len(a), len(a), n**4), axis=-1)[..., -1]
    return 0.0 + sums  # a sum from 0.0 differs from one that starts at its first term only at -0.0


def covariant_riemann(metric: MetricField, x) -> np.ndarray:
    """nabla R at x in closed form from one metric 3-jet."""
    jet = metric.jet(np.asarray(x, dtype=float), order=3)
    return _nabla_riemann(jet[1], jet[3], _riemann(*jet[:3]))


def bianchi2_residual(metric: MetricField, x) -> float:
    """Max-abs residual of the differential Bianchi identity at x.

    nabla R (:func:`covariant_riemann`) is summed cyclically over its first
    three slots; the result is rounding noise.
    """
    cov = covariant_riemann(metric, x)
    cyc = cov + cov.transpose(1, 2, 0, 3, 4) + cov.transpose(2, 0, 1, 3, 4)
    return float(np.max(np.abs(cyc)))
