"""The splitting tensor of the curvature kernel and its Riccati evolution.

For a unit vector field T spanning (a line inside) the curvature kernel, the
splitting tensor is the endomorphism of the orthogonal complement

    C_T(X) = -(nabla_X T)^perp.

Matrices here always act on columns: entry ``C[i, j]`` is the metric inner
product of C_T(e_j) with e_i for the chosen g-orthonormal complement basis
(e_1, ..., e_k).  Along a geodesic with velocity T the tensor, expressed in
a parallel frame, satisfies the matrix Riccati equation C' = C^2, whose
solution through C0 is C(t) = C0 (I - t C0)^{-1}.  ``riccati_closed_form``,
``riccati_ode`` and ``trace_det_evolution`` implement that law three ways,
and ``evolve_along_nullity_geodesic`` checks the freshly measured tensor
against it at sample points; ``geonull flow`` prints its report.  A kernel
that changes dimension, a reference orthogonal to the kernel or a Riccati
pole at a sample ends that ride early: the report keeps the samples measured
so far and the message in ``aborted``.  The divergence check
|div T + tr C| costs a further finite-difference stencil per sample, so
``EvolutionReport.divergence_residual`` computes it on first access only.

One function picks T from the kernel: ``kernel_section`` projects a
reference vector onto the kernel and normalizes it, from one metric jet per
point.  ``splitting_tensor``'s default field is that section of a
1-dimensional kernel, referenced to its value at x, and one jet at x gives
it g, dg, the kernel and T there; the evolution references the section to
the geodesic's velocity.  The derivative of T is taken by finite
differences of these pointwise sections, so classification tolerances must
absorb FD noise: a nilpotent matrix perturbed by eps shows spurious
eigenvalues of size about eps^(1/2), which is why ``classify`` takes an
explicit tolerance.

``splitting_tensor_from_curvature`` gets C without a kernel field: R(T, ...)
vanishes along the kernel line, so R(nabla_X T, ...) = -(nabla_X R)(T, ...),
solved by least squares over the complement with nabla R from central
differences of R (no kernel at the difference points).  ``geonull scan``
classifies that tensor; ``splitting_tensor`` is its test oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from .curvature import (
    CurvatureData,
    _christoffel_from_jet,
    _complement,
    _covariant_dr,
    _nullity_at,
)
from .flows import GeodesicPath, _sample_indices, geodesic
from .metricspace import MetricField
from .numcore import _g_gram_schmidt, eigenvalues, invert

__all__ = [
    "AlignmentError",
    "KernelDimensionError",
    "NonUnitFieldError",
    "RiccatiBlowupError",
    "SplittingTensor",
    "BlockInvariants",
    "EvolutionReport",
    "kernel_section",
    "splitting_tensor",
    "splitting_tensor_from_curvature",
    "classify",
    "riccati_closed_form",
    "riccati_ode",
    "trace_det_evolution",
    "evolve_along_nullity_geodesic",
]

BLOWUP_LIMIT = 1e8
# relative residual of the nabla R solve above which the kernel is not
# taken to be a smooth line field near the point
SMOOTH_KERNEL_RESIDUAL = 1e-5


class KernelDimensionError(ValueError):
    def __init__(self, expected: int, found: int, point):
        super().__init__(
            f"curvature kernel has dimension {found}, expected {expected}, "
            f"at point {np.array2string(np.asarray(point, dtype=float), precision=6)}"
        )
        self.expected = expected
        self.found = found


class AlignmentError(ValueError):
    pass


class NonUnitFieldError(ValueError):
    def __init__(self, norm: float):
        super().__init__(
            f"field is not unit length (|T|_g = {norm:.6g}); "
            "pass allow_non_unit=True to accept it"
        )
        self.norm = norm


class RiccatiBlowupError(ArithmeticError):
    def __init__(self, t: float, detail: str):
        super().__init__(f"Riccati evolution blew up at t = {t:.6g}: {detail}")
        self.t = t


def kernel_section(
    metric: MetricField,
    x,
    reference=None,
    rel_tol: Optional[float] = None,
):
    """Kernel basis plus a unit section of it chosen by a reference vector.

    Returns ``(section, basis)`` where ``basis`` rows are the g-orthonormal
    kernel vectors and ``section`` is the normalized projection of
    ``reference`` onto the kernel (the first basis vector, with its canonical
    sign, when no reference is given).  One metric jet at x feeds both the
    kernel and the projection.  Raises :class:`KernelDimensionError` for a
    trivial kernel and :class:`AlignmentError` for a reference orthogonal to
    the kernel.
    """
    pt = np.asarray(x, dtype=float)
    res, g, _ = _nullity_at(metric, pt, rel_tol)
    if res.nullity == 0:
        raise KernelDimensionError(1, 0, pt)
    if reference is None:
        return res.basis[0], res.basis
    return _project(res.basis, g, reference, pt), res.basis


def _project(basis: np.ndarray, g: np.ndarray, reference, pt: np.ndarray) -> np.ndarray:
    """The g-projection of ``reference`` onto the rows of ``basis``, normalized."""
    ref = np.asarray(reference, dtype=float)
    terms = [float(b @ g @ ref) * b for b in basis]
    section = sum(terms[1:], terms[0])  # not 0 + ..., which turns -0.0 into +0.0
    nrm = float(np.sqrt(section @ g @ section))
    if nrm < 1e-8:
        raise AlignmentError(
            "reference vector is orthogonal to the curvature kernel at "
            + np.array2string(pt, precision=6)
        )
    return section / nrm


def _kernel_field(metric: MetricField, reference, dimension: int, rel_tol) -> Callable:
    """``q -> kernel_section(metric, q, reference, rel_tol)[0]`` on kernels of ``dimension``.

    A kernel of any other dimension at q raises :class:`KernelDimensionError`.
    """

    def field(q):
        section, basis = kernel_section(metric, q, reference=reference, rel_tol=rel_tol)
        if basis.shape[0] != dimension:
            raise KernelDimensionError(dimension, basis.shape[0], q)
        return section

    return field


@dataclass(frozen=True)
class SplittingTensor:
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


def _complement_basis(g: np.ndarray, x: np.ndarray, t_vec: np.ndarray) -> np.ndarray:
    """g-orthonormal complement of T from coordinate directions.

    Dropping the coordinate carrying T's largest component keeps the
    remaining directions independent of T; candidates are tried in order of
    decreasing component size in case the leading choice degenerates.
    """
    n = g.shape[0]
    if n == 1:
        raise AlignmentError(
            f"T spans the tangent space at {np.array2string(x, precision=6)}: "
            "the splitting tensor has no complement to act on"
        )
    tn = t_vec / float(np.sqrt(t_vec @ g @ t_vec))
    eye = np.eye(n)
    for drop in np.argsort(-np.abs(tn)):
        comp = _g_gram_schmidt(np.delete(eye, drop, axis=0), g, prior=[tn], drop_tol=1e-8)
        if comp.shape[0] == n - 1:
            return comp
    raise AlignmentError(
        f"could not build a complement basis at {np.array2string(x, precision=6)}"
    )


def _richardson(f: Callable, x: np.ndarray, e: np.ndarray, h: float) -> np.ndarray:
    """d f(x + s e)/ds at 0 as (4 D_h - D_2h) / 3, D_s the central difference of step s."""

    def central(step):
        fp = np.asarray(f(x + step * e), dtype=float)
        fm = np.asarray(f(x - step * e), dtype=float)
        return (fp - fm) / (2.0 * step)

    return (4.0 * central(h) - central(2.0 * h)) / 3.0


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
    :func:`kernel_section` of a 1-dimensional curvature kernel, aligned to
    its value at x; any other kernel dimension raises
    :class:`KernelDimensionError`); ``basis`` gives the complement
    rows (default: the chart's preferred frame, else a coordinate-built
    complement).  A non-unit field raises :class:`NonUnitFieldError` unless
    ``allow_non_unit`` is set, since the splitting tensor is defined through
    a unit T.
    """
    pt = np.asarray(x, dtype=float)
    n = metric.dim
    if field is None:
        # one jet at x gives g, dg and T: the section referenced to itself
        res, g, dg = _nullity_at(metric, pt, rel_tol)
        if res.nullity != 1:
            raise KernelDimensionError(1, res.nullity, pt)
        field = _kernel_field(metric, res.basis[0], 1, rel_tol)
        t0 = _project(res.basis, g, res.basis[0], pt)
    else:
        g, dg = metric.jet(pt, order=1)
        t0 = np.asarray(field(pt), dtype=float)
    t_norm = float(np.sqrt(t0 @ g @ t0))
    if abs(t_norm - 1.0) > 1e-6 and not allow_non_unit:
        raise NonUnitFieldError(t_norm)
    if basis is None:
        if metric.preferred_frame is not None:
            basis = metric.preferred_frame(pt)
        else:
            basis = _complement_basis(g, pt, t0)
    basis = np.asarray(basis, dtype=float)
    if basis.ndim != 2 or basis.shape[1] != n:
        raise ValueError("basis must be rows of chart-dimension vectors")

    # dT[k, j] ~ d T^k / d x^j
    eye = np.eye(n)
    dT = np.empty((n, n))
    for j in range(n):
        dT[:, j] = _richardson(field, pt, eye[j], h)
    gamma = _christoffel_from_jet(invert(g), dg)
    # nabla_{e_j} T = e_j^m (dT[., m] + Gamma[., m, a] T^a)
    full = dT + np.einsum("kma,a->km", gamma, t0)
    cov = np.einsum("km,jm->kj", full, basis)  # column j: nabla_{basis[j]} T
    matrix = -np.einsum("ik,kj->ij", basis @ g, cov)
    k = basis.shape[0]
    strict_upper = np.triu(matrix, k=1)
    residual = float(np.max(np.abs(matrix - strict_upper)))
    normal_form = None
    if k == 3 and residual < 50.0 * h * h + 1e-8:
        normal_form = (
            float(strict_upper[0, 1]),
            float(strict_upper[1, 2]),
            float(strict_upper[0, 2]),
        )
    return SplittingTensor(
        point=pt,
        matrix=matrix,
        basis=basis,
        field_value=t0,
        step=h,
        triangular_residual=residual,
        normal_form_entries=normal_form,
    )


def splitting_tensor_from_curvature(metric: MetricField, data: CurvatureData, h: float = 1e-4):
    """``(matrix, residual)``: C_T at ``data.point`` from nabla R, T the first kernel vector.

    Differentiating R(T, ., ., .) = 0 along X gives R(nabla_X T, ., ., .) =
    -(nabla_X R)(T, ., ., .), and the flattened R is injective on the
    kernel's complement.  One least-squares solve over the complement basis
    (the chart's preferred frame, else the g-orthonormal complement of the
    kernel) gives <nabla_{d_m} T, e_a> for every m; nabla R comes from
    central differences of R at x +/- h e_m, whose jets are domain-checked.
    ``residual`` is the solve's residual relative to the right-hand side: above
    :data:`SMOOTH_KERNEL_RESIDUAL` the kernel does not extend as a smooth line
    field and the matrix means nothing.  The caller checks that the kernel
    at x is a line.
    """
    n = metric.dim
    t_vec = data.nullity.basis[0]
    if metric.preferred_frame is not None:
        basis = np.asarray(metric.preferred_frame(data.point), dtype=float)
    else:
        basis = _complement(data.g, data.nullity.basis)
    cov = _covariant_dr(metric, data.point, data.christoffel, data.rdown, h, check=True)
    lhs = np.einsum("ijkl,ai->jkla", data.rdown, basis).reshape(n ** 3, -1)
    rhs = -np.einsum("mijkl,i->jklm", cov, t_vec).reshape(n ** 3, n)
    coef = np.linalg.lstsq(lhs, rhs, rcond=None)[0]  # coef[a, m] = <nabla_{d_m} T, e_a>
    scale = float(np.linalg.norm(rhs))
    residual = float(np.linalg.norm(lhs @ coef - rhs)) / scale if scale > 0.0 else 0.0
    return -coef @ basis.T, residual


@dataclass(frozen=True)
class BlockInvariants:
    """Spectral classification of a splitting-tensor matrix.

    ``kind`` is one of ``zero``, ``nilpotent``, ``real``, ``complex_pair``;
    ``det_block`` is the second elementary symmetric function of the
    eigenvalues, i.e. the determinant of the nontrivial 2x2 block when the
    matrix is a plane rotation-dilation plus a zero block.
    """

    kind: str
    eigenvalues: np.ndarray
    trace: float
    det_block: float
    nilpotency_index: Optional[int]


def classify(matrix, tol: float = 1e-8) -> BlockInvariants:
    """Classify a square matrix by its spectrum at the given tolerance."""
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"matrix must be square, got shape {m.shape}")
    eig = eigenvalues(m)
    tr = float(np.trace(m))
    det_block = 0.5 * (tr * tr - float(np.trace(m @ m)))
    scale = max(1.0, float(np.max(np.abs(m))))
    if float(np.max(np.abs(m))) <= tol:
        return BlockInvariants("zero", eig, tr, det_block, 1)
    if np.max(np.abs(eig.imag)) > tol * scale:
        return BlockInvariants("complex_pair", eig, tr, det_block, None)
    if np.max(np.abs(eig)) <= tol * scale:
        power = m.copy()
        index = 1
        while np.max(np.abs(power)) > tol * scale and index <= m.shape[0]:
            power = power @ m
            index += 1
        return BlockInvariants("nilpotent", eig, tr, det_block, index)
    return BlockInvariants("real", eig, tr, det_block, None)


def riccati_closed_form(c0, t: float) -> np.ndarray:
    """C(t) = C0 (I - t C0)^{-1}; raises :class:`RiccatiBlowupError` at poles."""
    c0 = np.asarray(c0, dtype=float)
    k = c0.shape[0]
    denom = np.eye(k) - t * c0
    sv = np.linalg.svd(denom, compute_uv=False)
    if sv[-1] < 1e-12 * max(sv[0], 1.0):
        raise RiccatiBlowupError(t, f"I - t C0 is singular (sigma_min = {sv[-1]:.3e})")
    return c0 @ invert(denom)


def riccati_ode(c0, tmax: float, steps: int = 200) -> np.ndarray:
    """RK4 integration of C' = C^2 from C(0) = c0 up to tmax."""
    c = np.asarray(c0, dtype=float).copy()
    if steps < 1:
        raise ValueError("steps must be positive")
    h = tmax / steps
    for i in range(steps):
        k1 = c @ c
        c2 = c + 0.5 * h * k1
        k2 = c2 @ c2
        c3 = c + 0.5 * h * k2
        k3 = c3 @ c3
        c4 = c + h * k3
        k4 = c4 @ c4
        c = c + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.all(np.isfinite(c)) or np.max(np.abs(c)) > BLOWUP_LIMIT:
            raise RiccatiBlowupError((i + 1) * h, "matrix norm exceeded the blowup limit")
    return c


def trace_det_evolution(trace0: float, det0: float, t: float):
    """Evolved (trace, det) of a 2x2 block under the Riccati flow.

    For a 2x2 C0 the characteristic data evolve rationally:
    denom = 1 - t tr0 + t^2 det0, tr(t) = (tr0 - 2 t det0)/denom,
    det(t) = det0/denom.  The denominator vanishing is the blowup time.
    """
    denom = 1.0 - t * trace0 + t * t * det0
    if abs(denom) < 1e-12:
        raise RiccatiBlowupError(t, "det(I - t C0) vanished")
    return (trace0 - 2.0 * t * det0) / denom, det0 / denom


@dataclass(frozen=True)
class EvolutionReport:
    """Measured-versus-predicted splitting tensor along a kernel geodesic.

    The geodesic starts with velocity T; the complement basis is parallel
    transported; at each sample time the tensor is re-measured in the
    transported basis and compared with the closed-form Riccati solution
    through ``start_matrix`` at t = 0.  ``measured``, ``predicted`` and
    ``deviations`` (max-abs entry gaps) cover the samples reached: when
    ``aborted`` holds a message, the ride stopped at the sample it names.
    ``divergence_residual`` is the worst over those samples of
    |div T + tr C|, with div T from an independent finite-difference
    divergence of the kernel field, computed on first access.
    """

    path: GeodesicPath
    kernel_dimension: int
    start_matrix: np.ndarray
    sample_times: np.ndarray
    measured: tuple
    predicted: tuple
    deviations: tuple
    max_error: float
    basis_gram_drift: float
    aborted: Optional[str]
    _divergence: Callable[[], float] = dataclass_field(repr=False, compare=False)

    @cached_property
    def divergence_residual(self) -> float:
        return self._divergence()


def _fd_divergence(metric: MetricField, x: np.ndarray, field: Callable, h: float) -> float:
    """(1/sqrt(det g)) d_k (sqrt(det g) T^k) by central differences."""
    n = metric.dim
    eye = np.eye(n)

    def weighted(q):
        g = metric.jet(q, order=1, check=False)[0]
        return math.sqrt(float(np.linalg.det(g))) * np.asarray(field(q), dtype=float)

    total = 0.0
    for k in range(n):
        total += _richardson(weighted, x, eye[k], h)[k]
    g0 = metric.jet(x, order=1, check=False)[0]
    return total / math.sqrt(float(np.linalg.det(g0)))


def evolve_along_nullity_geodesic(
    metric: MetricField,
    x0,
    tmax: float = 0.4,
    steps: int = 256,
    samples: int = 9,
    h: float = 1e-4,
    rel_tol: Optional[float] = None,
) -> EvolutionReport:
    """Ride a kernel geodesic and compare C against the Riccati closed form.

    T is the unit section of the curvature kernel along a reference vector
    (:func:`kernel_section`): at x0 the first kernel basis vector, which is
    also the launch velocity, and at each sample the geodesic's velocity
    there.  The kernel must keep its dimension at x0 wherever T is taken.
    Errors while measuring the start tensor or integrating propagate; a
    :class:`KernelDimensionError`, :class:`AlignmentError` or
    :class:`RiccatiBlowupError` at a sample ends the ride with a partial
    report whose ``aborted`` holds the message.
    """
    pt = np.asarray(x0, dtype=float)
    section, basis0 = kernel_section(metric, pt, rel_tol=rel_tol)
    k0 = basis0.shape[0]
    start = splitting_tensor(
        metric, pt, field=_kernel_field(metric, section, k0, rel_tol), h=h, rel_tol=rel_tol
    )
    path = geodesic(metric, pt, section, tmax, steps=steps, frame=start.basis)
    reached = []
    measured = []
    predicted = []
    deviations = []
    max_err = 0.0
    aborted = None
    for i in _sample_indices(path.times.size, samples):
        try:
            st = splitting_tensor(
                metric, path.points[i], basis=path.frame[i],
                field=_kernel_field(metric, path.velocities[i], k0, rel_tol), h=h, rel_tol=rel_tol,
            )
            pred = riccati_closed_form(start.matrix, float(path.times[i]))
        except (KernelDimensionError, AlignmentError, RiccatiBlowupError) as exc:
            aborted = str(exc)
            break
        dev = float(np.max(np.abs(st.matrix - pred)))
        reached.append(i)
        measured.append(st.matrix)
        predicted.append(pred)
        deviations.append(dev)
        max_err = max(max_err, dev)

    def divergence_residual() -> float:
        worst = 0.0
        for i, c in zip(reached, measured):
            field = _kernel_field(metric, path.velocities[i], k0, rel_tol)
            div_fd = _fd_divergence(metric, path.points[i], field, h)
            worst = max(worst, abs(div_fd + float(np.trace(c))))
        return worst

    return EvolutionReport(
        path=path,
        kernel_dimension=k0,
        start_matrix=start.matrix,
        sample_times=path.times[reached],
        measured=tuple(measured),
        predicted=tuple(predicted),
        deviations=tuple(deviations),
        max_error=max_err,
        basis_gram_drift=path.gram_drift,
        aborted=aborted,
        _divergence=divergence_residual,
    )
