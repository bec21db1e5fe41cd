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
that changes dimension or is no smooth field, a reference orthogonal to the
kernel or a Riccati pole at a sample ends that ride early: the report keeps
the samples measured so far and the message in ``aborted``.

Every command takes C from nabla R: R(T, ...) vanishes along the kernel, so
R(nabla_X T, ...) = -(nabla_X R)(T, ...), solved by least squares over the
kernel's complement or the chart's preferred frame.  ``scan`` on each chunk
of grid points, ``analyze`` on its one point and a kernel-mode ``geonull
flow`` on its 9 samples measure C through one pipeline (``_pipeline``), each
stage stacked over the points, each point's outcome bitwise its own alone:
R and the kernel from each point's one 3-jet, T, the solve rows, -(nabla
R)(T, ...) in closed form, T contracted in before any n^5 product, one SVD
of all the systems (``_solve``), and the gate: a solve residual above
``SMOOTH_KERNEL_RESIDUAL`` means the kernel is no smooth line field there.
A 256-step flow makes 521 metric jets: one of order 3 per tensor, the
start's, which found the kernel and the frame, serving sample 0 and the
kernel geodesic's first stage (its g, dg and Gamma are bitwise an order-1
jet's), and 2m of order 1 for the rest of the geodesic.  The 8 later
samples are jetted in one call after the ride (``_sample_tensors``), so a
ride that aborts at a sample has jetted the samples past it too.  The 9 closed-form predictions share
one stacked pole test and one stacked inverse (``_riccati_predictions``),
also bitwise each time's own.

``verify`` measures C through the same pipeline, and div T for its check
|div T + tr C| (``_divergence_residual``) by Richardson central differences
of the unit kernel section (``kernel_section``) on 4n stencil points, which
no command runs; the tests' reference C is a stencil of T too
(``tests/oracles.py``).  A nilpotent matrix perturbed by eps shows spurious
eigenvalues of size about eps^(1/2), which is why ``classify`` takes an
explicit tolerance.
"""

from __future__ import annotations

import math
from functools import partial
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import numcore
from .curvature import (
    CurvatureData,
    Nullities,
    _complement,
    _curvatures,
    _nullity_at,
    _solve_rhs,
    _summary,
    curvature_data,
)
from .flows import GeodesicPath, _geodesic, _sample_indices
from .metricspace import MetricField
from .numcore import REL_TOL_ANALYTIC, SingularMatrixError, eigenvalues, invert

__all__ = [
    "AlignmentError",
    "KernelDimensionError",
    "KernelFieldError",
    "RiccatiBlowupError",
    "BlockInvariants",
    "EvolutionReport",
    "kernel_section",
    "classify",
    "riccati_closed_form",
    "riccati_ode",
    "trace_det_evolution",
    "evolve_along_nullity_geodesic",
]

BLOWUP_LIMIT = 1e8
# classify's kinds, indexed by the code _kinds computes
_KINDS = np.array(["real", "nilpotent", "complex_pair", "zero"])
# relative residual of the nabla R solve above which the kernel is not
# taken to be a smooth line field near the point
SMOOTH_KERNEL_RESIDUAL = 1e-5
_EPS = np.finfo(float).eps


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


class KernelFieldError(ValueError):
    def __init__(self, residual: float, point):
        super().__init__(
            "curvature kernel is not a smooth line field near point "
            f"{np.array2string(np.asarray(point, dtype=float), precision=6)}: nabla R solve "
            f"residual {residual:.3e} exceeds {SMOOTH_KERNEL_RESIDUAL:g}"
        )
        self.residual = residual


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
    return _section(res, g, reference, pt), res.basis


def _section(res, g: np.ndarray, reference, pt: np.ndarray) -> np.ndarray:
    """:func:`kernel_section`'s section from the kernel ``res`` and g at pt."""
    if res.nullity == 0:
        raise KernelDimensionError(1, 0, pt)
    if reference is None:
        return res.basis[0]
    return _project(res.basis, g, reference, pt)


def _project(basis: np.ndarray, g: np.ndarray, reference, pt: np.ndarray) -> np.ndarray:
    """The g-projection of ``reference`` onto the rows of ``basis``, normalized, at a point or each of a stack.

    Leading axes of ``g``, ``basis`` (..., k, n), ``reference`` and ``pt``
    are a stack of points, each bitwise the point alone.  Raises
    :class:`AlignmentError` at the first point where the projection's
    g-norm is below 1e-8.
    """
    ref = np.asarray(reference, dtype=float)[..., :, None]
    rows = np.moveaxis(basis, -2, 0)
    section = ((rows[0][..., None, :] @ g) @ ref)[..., 0] * rows[0]
    for b in rows[1:]:  # summed in order from the first term, not 0 + ..., which turns -0.0 into +0.0
        section = section + ((b[..., None, :] @ g) @ ref)[..., 0] * b
    nrm = np.sqrt(section[..., None, :] @ g @ section[..., :, None])[..., 0]
    low = nrm < 1e-8
    if low.any():
        raise AlignmentError(
            "reference vector is orthogonal to the curvature kernel at "
            + np.array2string(np.reshape(pt, (-1, g.shape[-1]))[np.argmax(low)], precision=6)
        )
    return section / nrm


def _kernel_field(metric: MetricField, reference, dimension: int, rel_tol) -> Callable:
    """``q -> kernel_section(metric, q, reference, rel_tol)[0]``, bitwise.

    A kernel of any other ``dimension`` at q raises :class:`KernelDimensionError`.
    """

    def section(q):
        res, g, _ = _nullity_at(metric, q, rel_tol)
        t = _section(res, g, reference, q)
        if res.nullity != dimension:
            raise KernelDimensionError(dimension, res.nullity, q)
        return t

    return section


def _frames(metric: MetricField, points: np.ndarray, g: np.ndarray, t_vecs: np.ndarray):
    """``(rows, kept)``: rows spanning the complement of the unit T = ``t_vecs`` at each point of a stack.

    Leading axes are the stack (none for one point).  The chart's preferred
    frame, every row kept, else the g-orthonormal complement of T built
    from coordinate directions (:func:`~geonull.curvature._complement`),
    which keeps the rows ``kept`` marks.
    """
    if metric.preferred_frame is not None:
        rows = np.asarray(metric.preferred_frame(points), dtype=float)
        return rows, np.ones(rows.shape[:-1], dtype=bool)
    if g.shape[-1] == 1:
        raise AlignmentError(
            f"T spans the tangent space at {np.array2string(np.reshape(points, (-1, 1))[0], precision=6)}: "
            "the splitting tensor has no complement to act on"
        )
    return _complement(g, t_vecs[..., None, :])


def _stencil(x: np.ndarray, h: float) -> np.ndarray:
    """The 4n stencil points, per axis e: x + h e, x - h e, x + 2h e, x - 2h e."""
    points = []
    for e in np.eye(x.size):
        for step in (h, 2.0 * h):
            points += [x + step * e, x - step * e]
    return np.array(points)


def _richardson(values: np.ndarray, h: float) -> np.ndarray:
    """d f(x + s e)/ds at 0 as (4 D_h - D_2h) / 3 from f on the 4 stencil points of e.

    D_s is the central difference of step s.
    """
    fp, fm, fp2, fm2 = values
    return (4.0 * ((fp - fm) / (2.0 * h)) - (fp2 - fm2) / (2.0 * (2.0 * h))) / 3.0


def _normal_form(matrix: np.ndarray, tol: float):
    """``(triangular_residual, normal_form_entries)`` of a splitting-tensor ``matrix`` C.

    The residual is C's largest entry on or below the diagonal; the entries are
    (C[0,1], C[1,2], C[0,2]) when C is 3x3 and the residual is below ``tol``, else None.
    """
    strict_upper = np.triu(matrix, k=1)
    residual = float(np.max(np.abs(matrix - strict_upper)))
    if matrix.shape[0] == 3 and residual < tol:
        return residual, (float(strict_upper[0, 1]), float(strict_upper[1, 2]), float(strict_upper[0, 2]))
    return residual, None


def _solve(jet, parts, t_vecs, bases) -> list:
    """``[(coef, residual)]``: the nabla R solve for C_T at each point of a stack.

    R(nabla_X T, ...) = -(nabla_X R)(T, ...), R injective on the kernel's
    complement: from the points' 3-``jet`` (leading axes a stack, or none
    for one point) and :func:`~geonull.curvature._riemann` of it, T =
    ``t_vecs`` and the complement rows ``bases``, ``coef[a, m]`` =
    <nabla_{d_m} T, e_a> for the rows e_a of a point's basis.  Both sides
    come from the lowered Christoffel symbols, T contracted in before any
    n^5 product (``_solve_rhs``).  A 2-jet raises ``ValueError``.
    """
    if len(jet) != 4:
        raise ValueError("the nabla R solve needs the point's 3-jet: curvature_data(..., nabla_r=True)")
    return _least_squares(parts[4], _solve_rhs(jet[1], jet[3], parts, t_vecs), bases)


def _least_squares(rdown, rhs, bases) -> list:
    """``[(coef, residual)]``: :func:`_solve`'s least-squares step at each point of a stack (leading axes).

    Each point's system is R(e_a, j, k, l) coef[a, m] = ``rhs[m, j, k, l]``
    over the rows e_a of its basis.  One SVD of all the systems gives
    ``np.linalg.lstsq``'s minimum-norm solution, singular values at or below
    eps max(rows, columns) sigma_max dropped as with its ``rcond=None``;
    ``residual`` is |R coef - rhs| / |rhs| (Frobenius norms), 0.0 for a zero
    right-hand side.  Each point's result is bitwise the point alone.  A
    non-finite right-hand side raises ``FloatingPointError``.
    """
    n, shape = rdown.shape[-1], rdown.shape[:-4]
    b = rhs.reshape(*shape, 1, n ** 4)
    # both norms' squares are summed at the scale 2^-e of the largest |rhs entry|:
    # exact, so the residual has the unscaled bits, and no finite system overflows
    e = np.frexp(np.abs(b).max(axis=-1, keepdims=True))[1]
    scaled = np.ldexp(b, -e)
    scale = np.sqrt(scaled @ scaled.swapaxes(-1, -2))[..., 0, 0]
    if not math.isfinite(scale.sum()):
        raise FloatingPointError("nabla R solve with a non-finite right-hand side")
    b = b.reshape(*shape, n, n ** 3)
    lhs_t = bases @ rdown.reshape(*shape, n, n ** 3)  # lhs_t[a, jkl] = R(e_a, j, k, l)
    u, s, vh = np.linalg.svd(lhs_t.swapaxes(-1, -2), full_matrices=False)
    keep = s > s[..., :1] * (_EPS * max(lhs_t.shape[-2:]))
    # 1 / sigma for the singular values kept, 0 for those dropped
    coef_t = ((b @ u) * (keep / np.where(keep, s, 1.0))[..., None, :]) @ vh
    r = np.ldexp((coef_t @ lhs_t - b).reshape(*shape, 1, n ** 4), -e)
    residual = np.sqrt(r @ r.swapaxes(-1, -2))[..., 0, 0] / np.where(scale > 0.0, scale, 1.0)
    return list(zip(coef_t.swapaxes(-1, -2).reshape(math.prod(shape), -1, n), residual.ravel().tolist()))


class _Stack(NamedTuple):
    """:func:`_pipeline`'s outcome at each point of a stack.

    ``errors[i]`` is the error point i's jet, R or kernel raised, else None,
    and row i of ``jets``, ``parts`` (:func:`~geonull.curvature._riemann`'s
    tensors), ``scal`` and ``kernels`` is the point's.  ``tensors[i]`` is
    then ``(C, residual, rows)``, C a :class:`KernelFieldError` past the
    gate, or the error its T, rows or solve raised, or None (no tensor asked).
    """

    points: np.ndarray
    jets: list
    parts: list
    scal: np.ndarray
    kernels: Nullities
    errors: list
    tensors: list
    on_complement: bool

    def data(self, i: int) -> CurvatureData:
        """Point i's curvature summary; where its solve rows are the kernel's complement, they are its ``complement`` too."""
        data = _summary(self.points[i], [a[i] for a in self.jets], [p[i] for p in self.parts],
                        float(self.scal[i]), self.kernels[i])
        if self.on_complement and isinstance(self.tensors[i], tuple):
            vars(data)["complement"] = self.tensors[i][2]  # where the cached_property keeps its value
        return data

    def kinds(self, tol: float) -> list:
        """:func:`classify`'s kind of each point's C at ``tol``, from one stacked eigenvalue call, or "" where it has none."""
        kinds = [""] * len(self.tensors)
        gated = [i for i, t in enumerate(self.tensors) if isinstance(t, tuple) and isinstance(t[0], np.ndarray)]
        if gated:
            matrices = np.stack([self.tensors[i][0] for i in gated])
            for i, kind in zip(gated, _kinds(matrices, eigenvalues(matrices), tol).tolist()):
                kinds[i] = kind
        return kinds

    def outcomes(self) -> list:
        """Each point's C, or the first error met there, the gate's included; None where no tensor was asked."""
        return [exc or (t[0] if isinstance(t, tuple) else t) for exc, t in zip(self.errors, self.tensors)]


def _curved(jets, rel_tol: float, store: list, idx) -> list:
    """:func:`_pipeline`'s curvature stage at the points ``idx`` of ``jets``: None at each, or the error raised there.

    R's tensors, the scalar traces and the kernels go into ``store``
    (``numcore._put``).  Where some g fails ``invert``'s condition test,
    those points get ``invert``'s error and the rest are stacked again.
    """
    size = len(jets[0])
    at = slice(None) if len(idx) == size else idx  # a full slice copies nothing
    try:
        parts, scal, kernels = _curvatures(jets[0][at], jets[1][at], jets[2][at], rel_tol)
    except SingularMatrixError:
        _, passed, smallest = numcore._invert_each(jets[0][idx])
        passed = passed.tolist()
        if all(passed):
            raise
        stage = partial(_curved, jets, rel_tol, store)
        kept = iter(numcore._each_alone(stage, [i for i, ok in zip(idx, passed) if ok]))
        return [next(kept) if ok else numcore._singular(s) for ok, s in zip(passed, smallest.tolist())]
    numcore._put(store, size, idx, (*parts, scal, kernels.sizes, kernels.basis, kernels.residuals,
                                    kernels.singular_values, kernels.tolerances))
    return [None] * len(idx)


def _pipeline(metric: MetricField, points, jets, faults, rel_tol, references=None, frames=None, dimension=1) -> _Stack:
    """The splitting tensor's chain at each point of a stack: R, the kernel, T, the solve rows, the solve and its gate.

    ``jets`` are the points' 3-jets, stacked as ``MetricField.jets`` gives
    them, and ``faults`` maps each point whose jet raised to its error.
    Each stage runs once, stacked over the points that reach it: R, the
    scalar trace and the kernel (:func:`_curved`); T, the first vector of a
    line kernel with a complement, or, given ``references``, the unit
    g-projection of each point's reference onto its kernel, which must have
    ``dimension``; the solve rows, the chart's preferred frame or else
    (always, given ``references``) the kernel's complement; the solves
    (:func:`_solve`) and the gate, C in the solve rows or in the rows of
    each point's ``frames``.  A stacked stage that raises is redone one
    point at a time, so each error stays with its own point.
    """
    if rel_tol is None:
        rel_tol = REL_TOL_ANALYTIC
    points = np.asarray(points, dtype=float)
    size, store = len(points), []
    errors = [faults.get(i) for i in range(size)]
    live = [i for i in range(size) if errors[i] is None]
    for i, exc in zip(live, numcore._each_alone(partial(_curved, jets, rel_tol, store), live)):
        errors[i] = exc
    tensors = [None] * size
    if not store:
        return _Stack(points, jets, None, None, None, errors, tensors, False)
    parts, scal, kernels = store[:5], store[5], Nullities(*store[6:])
    sizes, asked = kernels.sizes.tolist(), []
    for i in range(size):
        if errors[i] is not None or references is None and (sizes[i] != 1 or metric.dim == 1):
            continue  # without references, only a line kernel with a complement is asked for a tensor
        if sizes[i] == dimension:
            asked.append(i)
        else:
            tensors[i] = KernelDimensionError(dimension, sizes[i], points[i])

    def solved(idx):
        at = slice(None) if len(idx) == size else idx
        g, basis = jets[0][at], kernels.basis[at, :dimension]
        if references is None:
            t_vecs = basis[:, 0]
            rows, kept = _frames(metric, points[at], g, t_vecs)
        else:
            t_vecs = _project(basis, g, references[at], points[at])
            rows, kept = _complement(g, basis)
        # each point keeps as many rows, or the reshape raises and each point is solved alone
        bases = rows[kept].reshape(len(idx), -1, rows.shape[-1])
        jet, prt = (jets, parts) if len(idx) == size else ([a[at] for a in jets], [p[at] for p in parts])
        out = []
        for i, (coef, residual), h in zip(idx, _solve(jet, prt, t_vecs, bases), bases):
            if residual > SMOOTH_KERNEL_RESIDUAL:
                matrix = KernelFieldError(residual, points[i])
            elif frames is None:
                matrix = -coef @ h.T
            else:
                matrix = -(frames[i] @ jets[0][i] @ h.T) @ coef @ frames[i].T
            out.append((matrix, residual, h))
        return out

    for i, tensor in zip(asked, numcore._each_alone(solved, asked)):
        tensors[i] = tensor
    on_complement = references is not None or metric.preferred_frame is None
    return _Stack(points, jets, parts, scal, kernels, errors, tensors, on_complement)


def _sample_tensors(metric: MetricField, path: GeodesicPath, indices, dimension: int, rel_tol, start_jet) -> list:
    """:func:`_pipeline`'s C at each path node of ``indices``, T along its velocity, in its frame, or the error raised there.

    The first node is the path's start, whose 3-jet is ``start_jet``; the
    others' 3-jets come from one :meth:`MetricField.jets` call.
    """
    points = path.points[indices]
    later, faults = metric.jets(points[1:], order=3)
    jets = [np.concatenate([a[None], b]) for a, b in zip(start_jet, later)]
    return _pipeline(metric, points, jets, {j + 1: exc for j, exc in faults.items()}, rel_tol,
                     path.velocities[indices], path.frame[indices], dimension).outcomes()


class BlockInvariants(NamedTuple):
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
    kind = str(_kinds(m, eig, tol))
    tr = float(np.trace(m))
    det_block = 0.5 * (tr * tr - float(np.trace(m @ m)))
    index = 1 if kind == "zero" else None
    if kind == "nilpotent":
        scale = max(1.0, float(np.max(np.abs(m))))
        power = m.copy()
        index = 1
        while np.max(np.abs(power)) > tol * scale and index <= m.shape[0]:
            power = power @ m
            index += 1
    return BlockInvariants(kind, eig, tr, det_block, index)


def _kinds(m: np.ndarray, eig: np.ndarray, tol: float) -> np.ndarray:
    """:func:`classify`'s kind of a square matrix, or of each in a stack (..., k, k), from its eigenvalues.

    ``zero`` when every entry is within ``tol``; otherwise, relative to the
    largest entry (at least 1), ``complex_pair`` for an imaginary part above
    ``tol``, ``nilpotent`` when every eigenvalue is within ``tol``, else
    ``real``.
    """
    size = np.max(np.abs(m), axis=(-2, -1))
    bound = tol * np.maximum(1.0, size)
    pair = np.max(np.abs(eig.imag), axis=-1) > bound
    nilpotent = np.max(np.abs(eig), axis=-1) <= bound
    return _KINDS[np.where(size <= tol, 3, np.where(pair, 2, nilpotent.astype(int)))]


def riccati_closed_form(c0, t: float) -> np.ndarray:
    """C(t) = C0 (I - t C0)^{-1}; raises :class:`RiccatiBlowupError` at poles."""
    c0 = np.asarray(c0, dtype=float)
    k = c0.shape[0]
    denom = np.eye(k) - t * c0
    sv = np.linalg.svd(denom, compute_uv=False)
    if sv[-1] < 1e-12 * max(sv[0], 1.0):
        raise RiccatiBlowupError(t, f"I - t C0 is singular (sigma_min = {sv[-1]:.3e})")
    return c0 @ invert(denom)


def _riccati_predictions(c0, times) -> list:
    """:func:`riccati_closed_form` at each of ``times``: C(t), or the error it raises there.

    One stacked pole test and one stacked inverse serve every time, each
    prediction bitwise the time's own.  A time that fails either test, or
    every time when a stacked call raises, is redone alone.
    """
    c0 = np.asarray(c0, dtype=float)
    times = np.asarray(times, dtype=float)

    def alone(t):
        try:
            return riccati_closed_form(c0, float(t))
        except Exception as exc:  # raised when its sample is reached
            return exc

    try:
        denom = np.eye(c0.shape[0]) - times[:, None, None] * c0
        sv = np.linalg.svd(denom, compute_uv=False)
        inverse, passed, _ = numcore._invert_each(denom)
        predictions = c0 @ inverse
    except Exception:
        return [alone(t) for t in times]
    passed &= sv[:, -1] >= 1e-12 * np.maximum(sv[:, 0], 1.0)
    return [c if ok else alone(t) for t, c, ok in zip(times, predictions, passed)]


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


class EvolutionReport(NamedTuple):
    """Measured-versus-predicted splitting tensor along a kernel geodesic.

    The geodesic starts with velocity T; the complement basis is parallel
    transported; at each sample time the tensor is re-measured in the
    transported basis and compared with the closed-form Riccati solution
    through ``start_matrix`` at t = 0.  ``measured``, ``predicted`` and
    ``deviations`` (max-abs entry gaps) cover the samples reached: when
    ``aborted`` holds a message, the ride stopped at the sample it names.
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


def _fd_divergence(metric: MetricField, x: np.ndarray, field: Callable, h: float) -> float:
    """(1/sqrt(det g)) d_k (sqrt(det g) T^k) by Richardson central differences, T = ``field(q)``."""
    n = metric.dim

    def weighted(q):
        g = metric.jet(q, order=1, check=False)[0]
        return math.sqrt(float(np.linalg.det(g))) * field(q)

    values = np.array([weighted(q) for q in _stencil(x, h)]).reshape(n, 4, n)
    total = 0.0
    for k in range(n):
        total += _richardson(values[k], h)[k]
    g0 = metric.jet(x, order=1, check=False)[0]
    return total / math.sqrt(float(np.linalg.det(g0)))


def _divergence_residual(metric: MetricField, report: EvolutionReport) -> float:
    """The worst over ``report``'s samples of |div T + tr C|, div T from a stencil of step 1e-4.

    T is the kernel's unit section along the geodesic's velocity at each
    sample, at the default rank tolerance: a measure of -tr C independent
    of the nabla R solve.
    """
    path, worst = report.path, 0.0
    for t, c in zip(report.sample_times, report.measured):
        i = int(np.flatnonzero(path.times == t)[0])
        field = _kernel_field(metric, path.velocities[i], report.kernel_dimension, None)
        div_fd = _fd_divergence(metric, path.points[i], field, 1e-4)
        worst = max(worst, abs(div_fd + float(np.trace(c))))
    return worst


def evolve_along_nullity_geodesic(
    metric: MetricField,
    x0,
    tmax: float = 0.4,
    steps: int = 256,
    samples: int = 9,
    rel_tol: Optional[float] = None,
) -> EvolutionReport:
    """Ride a kernel geodesic and compare C against the Riccati closed form.

    T is the unit section of the curvature kernel along a reference vector
    (:func:`kernel_section`): at x0 the first kernel basis vector, which is
    also the launch velocity, and at each sample the geodesic's velocity
    there.  Each tensor comes from the nabla R solve of one metric 3-jet
    (:func:`_pipeline`), in the transported frame.  Sample 0 is x0 with its
    velocity and frame, so its tensor is the start tensor: after the ride it
    is measured with the others (:func:`_sample_tensors`), from the 3-jet
    that gave the kernel at x0, bitwise each sample's own, and the
    closed-form predictions are built from it (:func:`_riccati_predictions`),
    also together.  Errors while integrating or measuring the start tensor
    propagate.  The samples are taken in order: a :class:`KernelDimensionError`,
    :class:`AlignmentError`, :class:`KernelFieldError` or
    :class:`RiccatiBlowupError` at a sample ends the ride with a partial
    report whose ``aborted`` holds the message, and any other error at a
    sample propagates once that sample is reached.
    """
    pt = np.asarray(x0, dtype=float)
    data = curvature_data(metric, pt, rel_tol, nabla_r=True)
    section = _section(data.nullity, data.g, None, pt)
    k0 = data.nullity.nullity
    rows, kept = _frames(metric, pt, data.g, section)
    # the ride holds the start's jet as its first stage's: g, dg and Gamma of the 3-jet
    path = _geodesic(metric, pt, section, tmax, steps, rows[kept], (data.g, data._jet[1], data.christoffel))
    indices = _sample_indices(path.times.size, samples)  # node 0 first
    tensors = _sample_tensors(metric, path, indices, k0, rel_tol, data._jet)
    start = tensors[0]
    if isinstance(start, Exception):
        raise start
    predictions = _riccati_predictions(start, path.times[indices])
    reached, measured, predicted, deviations = [], [], [], []
    aborted = None
    for i, c, pred in zip(indices, tensors, predictions):
        try:
            if isinstance(c, Exception):
                raise c
            if isinstance(pred, Exception):
                raise pred
        except (KernelDimensionError, AlignmentError, KernelFieldError, RiccatiBlowupError) as exc:
            aborted = str(exc)
            break
        reached.append(i)
        measured.append(c)
        predicted.append(pred)
        deviations.append(float(np.max(np.abs(c - pred))))

    return EvolutionReport(
        path=path,
        kernel_dimension=k0,
        start_matrix=start,
        sample_times=path.times[reached],
        measured=tuple(measured),
        predicted=tuple(predicted),
        deviations=tuple(deviations),
        max_error=max([0.0, *deviations]),
        basis_gram_drift=path.gram_drift,
        aborted=aborted,
    )
