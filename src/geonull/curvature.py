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
* The scalar curvature is the double trace g^{il} g^{jk} R_ijkl, which is
  +2 on the unit sphere.
* ``cov[m, i, j, k, l]`` is (nabla_m R)_ijkl.

``nullity`` takes the kernel of v -> R(v, ., ., .) from an SVD of the lowered
tensor flattened to n^3 x n (a tighter rank cutoff for analytic than for
finite-difference jets) and g-orthonormalizes it; ``sectional_range`` reads
the exact sectional range off the curvature operator on its complement.
nabla R comes in closed form from a metric 3-jet: the derivatives of
Gamma (d Gamma, d^2 Gamma) and of R (d R) follow from the jet by the product
rule, and four Christoffel corrections make d R covariant.  So a point needs
one jet.  For a metric without a 3-jet (``finite_difference_field``, a user
field) ``_covariant_dr`` takes d R from central differences of R at
x +/- h e_m instead, 2n more jets.  ``bianchi2_residual``,
``covariant_riemann`` and the splitting tensor of ``geonull scan`` use
whichever the metric supports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .metricspace import MetricField
from .numcore import (
    REL_TOL_ANALYTIC,
    REL_TOL_FINITE_DIFFERENCE,
    _canonical_sign,
    _g_gram_schmidt,
    invert,
    kernel,
)

__all__ = [
    "DegeneratePlaneError",
    "NullityResult",
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


def _christoffel_from_jet(gi: np.ndarray, dg: np.ndarray) -> np.ndarray:
    """Gamma[..., l, j, k] from the inverse metric and first metric derivatives."""
    s = _t(dg, -1, -3, -2) + _t(dg, -3, -1, -2) - dg
    return 0.5 * np.einsum("...lm,...jkm->...ljk", gi, s)


def christoffel(metric: MetricField, x) -> np.ndarray:
    """Christoffel symbols Gamma[l, j, k] = Gamma^l_jk at x."""
    g, dg = metric.jet(x, order=1)
    return _christoffel_from_jet(invert(g), dg)


def _riemann_from_jet(g, dg, d2g):
    """``(gi, gamma, rup, rdown)``: the inverse metric and the tensors built on it.

    Leading axes of the jet are a batch of points; each point's tensors are
    bitwise those of the point alone.
    """
    return _riemann_parts(g, dg, d2g)[:4]


def _riemann_parts(g, dg, d2g):
    """:func:`_riemann_from_jet`'s tensors, then ``ds``, ``dgi`` and ``dgamma``.

    ``ds[..., j, k, m, i]`` is d_i of the bracket s_jkm = d_j g_km + d_k g_jm
    - d_m g_jk, ``dgi[..., a, b, i]`` = d_i g^ab and ``dgamma[..., i, l, j, k]``
    = d_i Gamma^l_jk.
    """
    gi = invert(g)
    gamma = _christoffel_from_jet(gi, dg)
    s = _t(dg, -1, -3, -2) + _t(dg, -3, -1, -2) - dg
    # ds[..., j, k, m, i] = d_i s[..., j, k, m]
    ds = _t(d2g, -2, -4, -3, -1) + _t(d2g, -4, -2, -3, -1) - d2g
    dgi = -np.einsum("...ap,...pqd,...qb->...abd", gi, dg, gi)
    dgamma = 0.5 * (
        np.einsum("...lmi,...jkm->...iljk", dgi, s) + np.einsum("...lm,...jkmi->...iljk", gi, ds)
    )
    rup = (
        _t(dgamma, -3, -4, -2, -1)
        - _t(dgamma, -3, -2, -4, -1)
        + np.einsum("...lim,...mjk->...lijk", gamma, gamma)
        - np.einsum("...ljm,...mik->...lijk", gamma, gamma)
    )
    rdown = np.einsum("...lm,...mijk->...ijkl", g, rup)
    return gi, gamma, rup, rdown, ds, dgi, dgamma


def _nabla_riemann_from_jet(g, dg, d2g, d3g):
    """``(gi, gamma, rup, rdown, cov)``: :func:`_riemann_from_jet`'s tensors and nabla R.

    From a 3-jet, by the product rule: with X[a, j, k, i] = s_jka,i / 2 -
    d_i g_ab Gamma^b_jk, d_i Gamma^l_jk = g^la X[a, j, k, i], so d_n d_i
    Gamma^l_jk = d_n g^la X[a, j, k, i] + g^la d_n X[a, j, k, i].  The
    derivative of R^l_ijk is then that of its defining sum, d R_ijkl lowers
    it, and the Christoffel corrections make it covariant.  Leading axes of
    the jet are a batch of points.
    """
    gi, gamma, rup, rdown, ds, dgi, dgamma = _riemann_parts(g, dg, d2g)
    # d2s[..., j, k, m, i, n] = d_n d_i s[..., j, k, m]
    d2s = _t(d3g, -3, -5, -4, -2, -1) + _t(d3g, -5, -3, -4, -2, -1) - d3g
    x = 0.5 * _t(ds, -2, -4, -3, -1) - np.einsum("...abi,...bjk->...ajki", dg, gamma)
    dx = (
        0.5 * _t(d2s, -3, -5, -4, -2, -1)
        - np.einsum("...abin,...bjk->...ajkin", d2g, gamma)
        - np.einsum("...abi,...nbjk->...ajkin", dg, dgamma)
    )
    # d2gamma[..., n, i, l, j, k] = d_n d_i Gamma^l_jk
    d2gamma = np.einsum("...lan,...ajki->...niljk", dgi, x) + np.einsum("...la,...ajkin->...niljk", gi, dx)
    # w[..., n, l, i, j, k]: d_n of the terms of R^l_ijk that the antisymmetry in i, j pairs up
    w = (
        _t(d2gamma, -5, -3, -4, -2, -1)
        + np.einsum("...nlim,...mjk->...nlijk", dgamma, gamma)
        + np.einsum("...lim,...nmjk->...nlijk", gamma, dgamma)
    )
    drup = w - _t(w, -5, -4, -2, -3, -1)
    drdown = np.einsum("...lmn,...mijk->...nijkl", dg, rup) + np.einsum("...lm,...nmijk->...nijkl", g, drup)
    return gi, gamma, rup, rdown, _christoffel_corrected(drdown, gamma, rdown)


def _christoffel_corrected(dr, gamma, rdown):
    """nabla R from the partial derivatives ``dr[..., m, i, j, k, l]`` = d_m R_ijkl."""
    return (
        dr
        - np.einsum("...pmi,...pjkl->...mijkl", gamma, rdown)
        - np.einsum("...pmj,...ipkl->...mijkl", gamma, rdown)
        - np.einsum("...pmk,...ijpl->...mijkl", gamma, rdown)
        - np.einsum("...pml,...ijkp->...mijkl", gamma, rdown)
    )


def riemann(metric: MetricField, x):
    """Curvature tensors ``(rup, rdown)`` at x (see module conventions)."""
    g, dg, d2g = metric.jet(x)
    gi, gamma, rup, rdown = _riemann_from_jet(g, dg, d2g)
    return rup, rdown


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
    gi, gamma, rup, rdown = _riemann_from_jet(g, dg, d2g)
    value, gram, scale = _plane_curvature(
        rdown, g, np.asarray(X, dtype=float), np.asarray(Y, dtype=float)
    )
    if scale <= 0.0 or gram <= 1e-12 * scale:
        raise DegeneratePlaneError(gram)
    return value


def scalar_curvature(metric: MetricField, x) -> float:
    """Double-trace scalar curvature g^{il} g^{jk} R_ijkl (unit sphere: +2)."""
    g, dg, d2g = metric.jet(x)
    gi, gamma, rup, rdown = _riemann_from_jet(g, dg, d2g)
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


def _default_rel_tol(metric: MetricField) -> float:
    if metric.provenance.kind == "finite-difference":
        return REL_TOL_FINITE_DIFFERENCE
    return REL_TOL_ANALYTIC


def _nullities_from(rdown: np.ndarray, g: np.ndarray, rel_tol: float) -> list:
    """Kernels of v -> R(v, ., ., .) at a stack of points (leading axes), one SVD for all."""
    n = g.shape[-1]
    flat = rdown.reshape(-1, n, n ** 3).swapaxes(1, 2)
    kernels = kernel(flat, rel_tol=rel_tol)
    results = []
    for kr, gq, rq in zip(kernels, g.reshape(-1, n, n), rdown.reshape(-1, n, n, n, n)):
        rows = _g_gram_schmidt(kr.basis.T, gq, drop_tol=1e-10)
        basis = np.array([_canonical_sign(v) for v in rows]).reshape(-1, n)
        residuals = np.array(
            [float(np.max(np.abs(np.einsum("ijkl,i->jkl", rq, v)))) for v in basis]
        )
        results.append(NullityResult(
            nullity=basis.shape[0],
            conullity=n - basis.shape[0],
            basis=basis,
            residuals=residuals,
            singular_values=kr.singular_values,
            tolerance_used=kr.tolerance_used,
        ))
    return results


def _nullity_from(rdown: np.ndarray, g: np.ndarray, rel_tol: float) -> NullityResult:
    """Kernel of v -> R(v, ., ., .) from a lowered curvature tensor already in hand."""
    return _nullities_from(rdown, g, rel_tol)[0]


def _nullity_at(metric: MetricField, x, rel_tol: Optional[float] = None):
    """``(nullity, g, dg)`` at x: the kernel and the one metric jet it came from."""
    if rel_tol is None:
        rel_tol = _default_rel_tol(metric)
    g, dg, d2g = metric.jet(x)
    gi, gamma, rup, rdown = _riemann_from_jet(g, dg, d2g)
    return _nullity_from(rdown, g, rel_tol), g, dg


def nullity(metric: MetricField, x, rel_tol: Optional[float] = None) -> NullityResult:
    """Kernel of v -> R(v, ., ., .) at x via SVD of the flattened tensor."""
    return _nullity_at(metric, x, rel_tol)[0]


@dataclass(frozen=True)
class CurvatureData:
    """One-stop curvature summary at a point.

    ``scalar_trace`` is the double-trace scalar curvature, ``half_trace``
    half of it.  At conullity 2 the kernel's complement is one plane and
    ``nonflat_plane_curvature`` is its sectional curvature (else None);
    :func:`sectional_range` gives the range over all planes.  ``nabla_r`` is
    nabla R from the same jet when it was asked for and the metric has a
    3-jet, else None.
    """

    point: np.ndarray
    g: np.ndarray
    christoffel: np.ndarray
    rup: np.ndarray
    rdown: np.ndarray
    scalar_trace: float
    half_trace: float
    nullity: NullityResult
    nonflat_plane_curvature: Optional[float]
    nabla_r: Optional[np.ndarray] = None


def _complement(g: np.ndarray, kernel_basis: np.ndarray) -> np.ndarray:
    # coordinate directions off the kernel; 1e-6 drops those (nearly) inside it
    return _g_gram_schmidt(np.eye(g.shape[0]), g, prior=kernel_basis, drop_tol=1e-6)


def curvature_data(
    metric: MetricField, x, rel_tol: Optional[float] = None, nabla_r: bool = False
) -> CurvatureData:
    """The curvature summary at x from one metric jet.

    With ``nabla_r`` set and a metric that has 3-jets that jet is of order
    3 and the summary carries nabla R too; its other fields are bitwise
    those of the order-2 jet.
    """
    if rel_tol is None:
        rel_tol = _default_rel_tol(metric)
    pt = np.asarray(x, dtype=float)
    cov = None
    if nabla_r and metric.max_order >= 3:
        g, dg, d2g, d3g = metric.jet(pt, order=3)
        gi, gamma, rup, rdown, cov = _nabla_riemann_from_jet(g, dg, d2g, d3g)
    else:
        g, dg, d2g = metric.jet(pt)
        gi, gamma, rup, rdown = _riemann_from_jet(g, dg, d2g)
    scal = float(np.einsum("il,jk,ijkl->", gi, gi, rdown))
    nres = _nullity_from(rdown, g, rel_tol)
    plane_curv = None
    if nres.conullity == 2:
        comp = _complement(g, nres.basis)
        if comp.shape[0] == 2:
            plane_curv = _plane_curvature(rdown, g, comp[0], comp[1])[0]
    return CurvatureData(
        point=pt,
        g=g,
        christoffel=gamma,
        rup=rup,
        rdown=rdown,
        scalar_trace=scal,
        half_trace=0.5 * scal,
        nullity=nres,
        nonflat_plane_curvature=plane_curv,
        nabla_r=cov,
    )


def sectional_range(data: CurvatureData):
    """Exact ``(min, max)`` of the sectional curvature at ``data.point``.

    R vanishes on the kernel: the range spans the curvature operator's
    eigenvalues on the 2-vectors of its complement H, and 0 if it is nonzero.
    ``(None, None)`` when n < 2, or dim H >= 4 where 2-vectors need not be planes.
    """
    frame = _complement(data.g, data.nullity.basis)
    n, k = data.g.shape[0], frame.shape[0]
    if n < 2 or k >= 4:
        return None, None
    a, b = np.triu_indices(k, 1)  # the 2-vectors e_a ^ e_b of H, a < b
    rh = np.einsum("ijkl,ai,bj,ck,dl->abcd", data.rdown, frame, frame, frame, frame)
    lam = list(np.linalg.eigvalsh(rh[a[:, None], b[:, None], b, a])) + [0.0] * (k < n)
    return float(min(lam)), float(max(lam))


def _covariant_dr(metric: MetricField, pt: np.ndarray, gamma, r0, h: float, check: bool):
    """``cov[m, i, j, k, l]`` = (nabla_m R)_ijkl at pt from ``gamma`` and ``r0`` there.

    The fallback for a metric without a 3-jet, and the test oracle of the
    closed form: the partial term is a central difference of the lowered
    tensor at pt +/- h e_m (2n metric jets, domain-checked when ``check`` is
    set), accurate to O(h^2); the four Christoffel corrections make it
    covariant.
    """
    n = metric.dim

    def rdown_at(q):
        return _riemann_from_jet(*metric.jet(q, check=check))[3]

    dr = np.empty((n, n, n, n, n))
    eye = np.eye(n)
    for m in range(n):
        dr[m] = (rdown_at(pt + h * eye[m]) - rdown_at(pt - h * eye[m])) / (2.0 * h)
    return _christoffel_corrected(dr, gamma, r0)


def covariant_riemann(metric: MetricField, x, h: float = 1e-4) -> np.ndarray:
    """nabla R at x: closed form from one 3-jet, else the stencil of step h (points unchecked)."""
    pt = np.asarray(x, dtype=float)
    if metric.max_order >= 3:
        return _nabla_riemann_from_jet(*metric.jet(pt, order=3))[4]
    gi, gamma, rup, r0 = _riemann_from_jet(*metric.jet(pt))
    return _covariant_dr(metric, pt, gamma, r0, h, check=False)


def bianchi2_residual(metric: MetricField, x, h: float = 1e-4) -> float:
    """Max-abs residual of the differential Bianchi identity at x.

    nabla R (:func:`covariant_riemann`) is summed cyclically over its first
    three slots.  From a 3-jet the result is rounding noise; from the
    stencil of a metric without one it is O(h^2) plus rounding noise.
    """
    cov = covariant_riemann(metric, x, h)
    cyc = cov + cov.transpose(1, 2, 0, 3, 4) + cov.transpose(2, 0, 1, 3, 4)
    return float(np.max(np.abs(cyc)))
