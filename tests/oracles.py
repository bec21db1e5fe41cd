"""Finite-difference and other references for the closed forms of ``geonull``.

The package takes metric jets, R, nabla R and the splitting tensor's solve
in closed form.  These are the forms that the tests and
``tools/scan_kind_agreement.py`` compare them with; nothing in the package
calls them.

* :func:`splitting_tensor`: C from Richardson-extrapolated central
  differences of the kernel field T (the package's ``kernel_section``) on
  4n stencil points, one metric jet each, the reference for the nabla R
  solve; :class:`SplittingTensor` is its record.

* :func:`fd_jet` and :func:`finite_difference_field`: a metric 2-jet from
  central differences of g (a field of 2-jets only).
* :func:`nabla_r_stencil`: nabla R from central differences of R at
  x +/- h e_m (2n metric jets), made covariant by the four Christoffel
  corrections; accurate to O(h^2).
* :func:`stencil_splitting_tensor`: the splitting tensor's least-squares
  solve with that nabla R contracted with T.
* :func:`stack_of_one` and :func:`tensor_alone`: the package's splitting
  pipeline at one point alone, the reference for each point of a stack.
* :func:`raised_riemann`: R by way of R^l_ijk, raised through g^-1 and
  lowered again by g, whose rounding the lowered R is held against, and
  :func:`raised_nabla_riemann`, nabla R by the product rule on R^l_ijk,
  which the solve's right-hand side is held against.
* :func:`longdouble_riemann`: R lowered in ``np.longdouble`` from a float64
  jet, the reference for the rounding of both.

The package keeps the stencil points and the Richardson step
(``splitting._stencil``, ``splitting._richardson``) and the one-point kernel
field (``splitting._kernel_field``) for its divergence check only.
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Optional

import numpy as np

from geonull.curvature import _bracket, _christoffel_from_jet, _nullity_at, _riemann, _t
from geonull.metricspace import MetricField
from geonull.numcore import invert
from geonull.splitting import (
    KernelDimensionError,
    _frames,
    _kernel_field,
    _least_squares,
    _normal_form,
    _pipeline,
    _project,
    _richardson,
    _stencil,
)


def fd_jet(field: MetricField, x, h: float = 2e-4):
    """Second-order central-difference 2-jet of g.

    Raises :class:`~geonull.metricspace.ChartDomainError` if a stencil point
    leaves the domain, so the base point should be interior by a margin of 2h.
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
    """``field`` with its jets from :func:`fd_jet` (value access only): 2-jets only."""

    def jet(x, order):
        g, dg, d2g = fd_jet(field, x, h)
        return (g, dg) if order == 1 else (g, dg, d2g)

    return MetricField(
        field.dim,
        field.coordinates,
        jet,
        domain=field._domain,
        name=f"fd({field.name})",
        annotations=field.annotations,
        preferred_frame=field.preferred_frame,
    )


def _christoffel_corrected(dr, gamma, rdown):
    """nabla R from the partial derivatives ``dr[..., m, i, j, k, l]`` = d_m R_ijkl."""
    return (
        dr
        - np.einsum("...pmi,...pjkl->...mijkl", gamma, rdown)
        - np.einsum("...pmj,...ipkl->...mijkl", gamma, rdown)
        - np.einsum("...pmk,...ijpl->...mijkl", gamma, rdown)
        - np.einsum("...pml,...ijkp->...mijkl", gamma, rdown)
    )


def nabla_r_stencil(metric: MetricField, x, h: float = 1e-4, check: bool = False) -> np.ndarray:
    """``cov[m, i, j, k, l]`` = (nabla_m R)_ijkl at x from central differences of R.

    The partial term is the central difference of the lowered tensor at
    x +/- h e_m (2n metric 2-jets, domain-checked when ``check`` is set);
    Gamma and R at x come from x's own 2-jet.
    """
    pt = np.asarray(x, dtype=float)
    n = metric.dim
    gi, gamma, s, ds, r0 = _riemann(*metric.jet(pt))

    def rdown_at(q):
        return _riemann(*metric.jet(q, check=check))[4]

    dr = np.empty((n, n, n, n, n))
    eye = np.eye(n)
    for m in range(n):
        dr[m] = (rdown_at(pt + h * eye[m]) - rdown_at(pt - h * eye[m])) / (2.0 * h)
    return _christoffel_corrected(dr, gamma, r0)


def stencil_splitting_tensor(metric: MetricField, data, h: float = 1e-4):
    """``(matrix, residual)`` of the package's nabla R solve at ``data``'s point, nabla R from :func:`nabla_r_stencil`.

    The same least-squares solve over the same rows as the package's
    pipeline at ``data``'s jet, against ``data.rdown``, with the right-hand
    side -(nabla R)(T, ...) from the stencil of step h, its jets
    domain-checked.
    """
    solve = stack_of_one(metric, data.point, jet=data._jet).tensors[0]
    if isinstance(solve, Exception):
        raise solve
    basis = solve[2]
    cov = nabla_r_stencil(metric, data.point, h, check=True)
    rhs = -np.einsum("mijkl,i->mjkl", cov, data.nullity.basis[0])
    (coef, residual), = _least_squares(data.rdown, rhs, basis)
    return -coef @ basis.T, residual


def stack_of_one(metric: MetricField, point, reference=None, frame=None, dimension: int = 1, jet=None):
    """``splitting._pipeline`` at ``point`` alone, from ``jet`` or the point's own 3-jet.

    With ``reference``, T is its projection onto a kernel of ``dimension``
    and C is taken in the rows of ``frame``, as ``flow`` measures a sample.
    """
    pt = np.asarray(point, dtype=float)
    jet = metric.jet(pt, order=3) if jet is None else jet
    along = () if reference is None else (np.asarray(reference, dtype=float)[None], np.asarray(frame)[None], dimension)
    return _pipeline(metric, pt[None], [a[None] for a in jet], {}, None, *along)


def tensor_alone(metric: MetricField, point, reference=None, frame=None, dimension: int = 1, jet=None):
    """C of :func:`stack_of_one` at ``point``, or the error raised there, its gate's included.

    Given ``reference``, C is in the rows of ``frame``; without one, as
    ``analyze`` measures it, and None where the kernel is no line.
    """
    outcome = stack_of_one(metric, point, reference, frame, dimension, jet).outcomes()[0]
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


class NonUnitFieldError(ValueError):
    def __init__(self, norm: float):
        super().__init__(
            f"field is not unit length (|T|_g = {norm:.6g}); "
            "pass allow_non_unit=True to accept it"
        )
        self.norm = norm


def _pointwise(field: Callable) -> Callable:
    """A field of one point as a field of stacked points."""
    return lambda points: np.array([np.asarray(field(q), dtype=float) for q in points])


class SplittingTensor(NamedTuple):
    """Splitting tensor at a point.

    ``matrix[i, j] = -<nabla_{basis[j]} T, basis[i]>_g`` for the
    g-orthonormal complement ``basis`` (rows); ``normal_form_entries`` holds
    (a, b, c) = (C[0,1], C[1,2], C[0,2]) when the matrix is 3x3 and strictly
    upper triangular to within ``triangular_residual`` (None otherwise).
    """

    point: np.ndarray
    matrix: np.ndarray
    basis: np.ndarray
    field_value: np.ndarray
    step: float
    triangular_residual: float
    normal_form_entries: Optional[tuple]

    @property
    def trace(self) -> float:
        return float(np.trace(self.matrix))

    @property
    def det_block(self) -> float:
        m = self.matrix
        return 0.5 * (np.trace(m) ** 2 - np.trace(m @ m))


def splitting_tensor(
    metric: MetricField,
    x,
    basis=None,
    field: Optional[Callable] = None,
    h: float = 1e-4,
    rel_tol: Optional[float] = None,
    allow_non_unit: bool = False,
) -> SplittingTensor:
    """Measure C_T at x by Richardson-extrapolated central differences of T.

    ``field`` maps points to kernel vectors (default: the
    ``kernel_section`` of a 1-dimensional curvature kernel, aligned to
    its value at x; any other kernel dimension raises
    ``KernelDimensionError``); ``basis`` gives the complement
    rows (default: the chart's preferred frame, else a coordinate-built
    complement).  A non-unit field raises :class:`NonUnitFieldError` unless
    ``allow_non_unit`` is set, since the splitting tensor is defined through
    a unit T.  One jet at x gives g, dg and, for the default field, the
    kernel and T there (an order-1 jet, for a given field); the field is
    then called once per stencil point, in order, so the first stencil
    point that fails raises.
    """
    pt = np.asarray(x, dtype=float)
    n = metric.dim
    if field is None:
        res, g, dg = _nullity_at(metric, pt, rel_tol)
        if res.nullity != 1:
            raise KernelDimensionError(1, res.nullity, pt)
        t0 = _project(res.basis, g, res.basis[0], pt)  # the section referenced to itself
        sections = _pointwise(_kernel_field(metric, res.basis[0], 1, rel_tol))
    else:
        g, dg = metric.jet(pt, order=1)
        sections = _pointwise(field)
        t0 = sections(pt[None])[0]
    t_norm = float(np.sqrt(t0 @ g @ t0))
    if abs(t_norm - 1.0) > 1e-6 and not allow_non_unit:
        raise NonUnitFieldError(t_norm)
    if basis is None:
        rows, kept = _frames(metric, pt, g, t0 / t_norm)
        basis = rows[kept]
    basis = np.asarray(basis, dtype=float)
    if basis.ndim != 2 or basis.shape[1] != n:
        raise ValueError("basis must be rows of chart-dimension vectors")

    # dT[k, j] ~ d T^k / d x^j
    values = sections(_stencil(pt, h)).reshape(n, 4, n)
    dT = np.empty((n, n))
    for j in range(n):
        dT[:, j] = _richardson(values[j], h)
    gamma = _christoffel_from_jet(invert(g), dg)
    # nabla_{e_j} T = e_j^m (dT[., m] + Gamma[., m, a] T^a)
    full = dT + np.einsum("kma,a->km", gamma, t0)
    cov = np.einsum("km,jm->kj", full, basis)  # column j: nabla_{basis[j]} T
    matrix = -np.einsum("ik,kj->ij", basis @ g, cov)
    residual, normal_form = _normal_form(matrix, 50.0 * h * h + 1e-8)
    return SplittingTensor(
        point=pt,
        matrix=matrix,
        basis=basis,
        field_value=t0,
        step=h,
        triangular_residual=residual,
        normal_form_entries=normal_form,
    )


def _raised_parts(g, dg, d2g):
    """``(gi, gamma, ds, dgi, dgamma, rup)``: R^l_ijk = d_i Gamma^l_jk - d_j Gamma^l_ik + Gamma^l_im Gamma^m_jk - Gamma^l_jm Gamma^m_ik.

    ``ds[..., j, k, m, i]`` = d_i s_jkm, ``dgi[..., a, b, i]`` = d_i g^ab
    from d g^-1 = -g^-1 dg g^-1 and ``dgamma[..., i, l, j, k]`` = d_i
    Gamma^l_jk.  Leading axes are a batch of points.
    """
    gi = np.linalg.inv(g)
    s = _bracket(dg)
    gamma = 0.5 * np.einsum("...lm,...jkm->...ljk", gi, s)
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
    return gi, gamma, ds, dgi, dgamma, rup


def raised_riemann(g, dg, d2g):
    """R_ijkl = g_lm R^m_ijk: R raised through g^-1 (:func:`_raised_parts`) and lowered again by g."""
    return np.einsum("...lm,...mijk->...ijkl", g, _raised_parts(g, dg, d2g)[-1])


def raised_nabla_riemann(g, dg, d2g, d3g):
    """``cov[..., m, i, j, k, l]`` = (nabla_m R)_ijkl by the product rule on R^l_ijk, from a 3-jet.

    With X[a, j, k, i] = s_jka,i / 2 - d_i g_ab Gamma^b_jk, d_i Gamma^l_jk
    = g^la X[a, j, k, i], so d_n d_i Gamma^l_jk = d_n g^la X[a, j, k, i] +
    g^la d_n X[a, j, k, i].  The derivative of R^l_ijk is then that of its
    defining sum, d R_ijkl lowers it, and the Christoffel corrections make
    it covariant: the full nabla R of other formulas than the package's,
    which the splitting solve's right-hand side is held against.
    """
    gi, gamma, ds, dgi, dgamma, rup = _raised_parts(g, dg, d2g)
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
    return _christoffel_corrected(drdown, gamma, np.einsum("...lm,...mijk->...ijkl", g, rup))


def longdouble_riemann(g, dg, d2g):
    """R_ijkl of one point's float64 2-jet, lowered as the package builds it, in ``np.longdouble``.

    g^-1 comes from Gauss-Jordan elimination with partial pivoting in
    ``np.longdouble``, as ``np.linalg.inv`` takes no such type.
    """
    g, dg, d2g = (np.asarray(a, dtype=np.longdouble) for a in (g, dg, d2g))
    n = g.shape[0]
    work = np.concatenate([g, np.eye(n, dtype=np.longdouble)], axis=1)
    for col in range(n):
        pivot = col + int(np.argmax(np.abs(work[col:, col])))
        work[[col, pivot]] = work[[pivot, col]]
        work[col] /= work[col, col]
        for row in range(n):
            if row != col:
                work[row] -= work[row, col] * work[col]
    gi = work[:, n:]
    s = _bracket(dg)
    gamma = np.einsum("lm,jkm->ljk", gi, s) / 2
    ds = _t(d2g, -2, -4, -3, -1) + _t(d2g, -4, -2, -3, -1) - d2g
    w = (_t(ds, -1, -4, -3, -2) - np.einsum("ilp,pjk->ijkl", s, gamma)) / 2
    return w - w.swapaxes(0, 1)
