"""Finite-difference references for the closed forms of ``geonull``.

The package takes metric jets, nabla R and the splitting tensor's solve in
closed form.  These are the finite-difference forms that the tests and
``tools/scan_kind_agreement.py`` compare them with; nothing in the package
calls them.

* :func:`fd_jet` and :func:`finite_difference_field`: a metric 2-jet from
  central differences of g (a field of 2-jets only).
* :func:`nabla_r_stencil`: nabla R from central differences of R at
  x +/- h e_m (2n metric jets), made covariant by the four Christoffel
  corrections; accurate to O(h^2).
* :func:`stencil_splitting_tensor`: the splitting tensor's least-squares
  solve with that nabla R contracted with T.

The Richardson kernel-field stencil (``splitting.splitting_tensor``) stays in
the package, since ``verify`` runs it.
"""

from __future__ import annotations

import numpy as np

from geonull.curvature import _christoffel_corrected, _riemann_from_jet
from geonull.metricspace import MetricField
from geonull.splitting import _kernel_frame, _least_squares


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


def nabla_r_stencil(metric: MetricField, x, h: float = 1e-4, check: bool = False) -> np.ndarray:
    """``cov[m, i, j, k, l]`` = (nabla_m R)_ijkl at x from central differences of R.

    The partial term is the central difference of the lowered tensor at
    x +/- h e_m (2n metric 2-jets, domain-checked when ``check`` is set);
    Gamma and R at x come from x's own 2-jet.
    """
    pt = np.asarray(x, dtype=float)
    n = metric.dim
    gi, gamma, rup, r0 = _riemann_from_jet(*metric.jet(pt))

    def rdown_at(q):
        return _riemann_from_jet(*metric.jet(q, check=check))[3]

    dr = np.empty((n, n, n, n, n))
    eye = np.eye(n)
    for m in range(n):
        dr[m] = (rdown_at(pt + h * eye[m]) - rdown_at(pt - h * eye[m])) / (2.0 * h)
    return _christoffel_corrected(dr, gamma, r0)


def stencil_splitting_tensor(metric: MetricField, data, h: float = 1e-4):
    """``(matrix, residual)`` of ``splitting_tensor_from_curvature`` with nabla R from :func:`nabla_r_stencil`.

    The same least-squares solve over the same complement basis, against
    ``data.rdown``, with the right-hand side -(nabla R)(T, ...) from the
    stencil of step h, its jets domain-checked.
    """
    basis = _kernel_frame(metric, data)
    cov = nabla_r_stencil(metric, data.point, h, check=True)
    rhs = -np.einsum("mijkl,i->mjkl", cov, data.nullity.basis[0])
    (coef, residual), = _least_squares(data.rdown, rhs, basis)
    return -coef @ basis.T, residual
