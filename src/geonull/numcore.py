"""Small dense linear algebra: inverses, rank-revealing kernels, eigenvalues.

Everything here targets the tiny matrices this package produces (metric
blocks up to 8x8, splitting tensors up to 4x4, flattened curvature maps with
at most 8 columns).  Eigenvalues are computed by closed-form characteristic
polynomial solvers, polished with two Newton steps, so that the structural
complex-pair / nilpotent distinction downstream does not depend on an
iterative solver's stopping rule.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SingularMatrixError",
    "KernelResult",
    "invert",
    "kernel",
    "eigenvalues",
    "REL_TOL_ANALYTIC",
    "REL_TOL_FINITE_DIFFERENCE",
]

MAX_DIM = 8
COND_LIMIT = 1e12
KERNEL_ABS_FLOOR = 1e-12
# default rank tolerances, keyed to how metric derivatives were obtained
REL_TOL_ANALYTIC = 1e-7
REL_TOL_FINITE_DIFFERENCE = 1e-4


class SingularMatrixError(ValueError):
    def __init__(self, message: str, smallest_singular_value: float):
        super().__init__(f"{message} (smallest singular value {smallest_singular_value:.3e})")
        self.smallest_singular_value = smallest_singular_value


def _as_matrix(m, max_rows: int = MAX_DIM, max_cols: int = MAX_DIM) -> np.ndarray:
    a = np.asarray(m, dtype=float)
    if a.ndim != 2:
        raise ValueError(f"expected a matrix, got shape {a.shape}")
    if a.shape[0] > max_rows or a.shape[1] > max_cols:
        raise ValueError(f"matrix shape {a.shape} exceeds ({max_rows}, {max_cols})")
    return a


def invert(m) -> np.ndarray:
    """Inverse of a small well-conditioned square matrix.

    Raises :class:`SingularMatrixError` (carrying the smallest singular
    value) when the condition number exceeds 1e12.
    """
    a = _as_matrix(m)
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"cannot invert non-square matrix of shape {a.shape}")
    s = np.linalg.svd(a, compute_uv=False)
    smin = float(s[-1])
    smax = float(s[0])
    if smin <= 0.0 or smax / smin > COND_LIMIT:
        raise SingularMatrixError("matrix is singular or ill-conditioned", smin)
    return np.linalg.solve(a, np.eye(a.shape[0]))


@dataclass(frozen=True)
class KernelResult:
    """Orthonormal kernel basis from an SVD rank decision.

    ``basis`` has one column per kernel vector; ``rank + basis.shape[1]``
    equals the number of columns of the input.
    """

    basis: np.ndarray
    rank: int
    singular_values: np.ndarray
    tolerance_used: float


def _canonical_sign(v: np.ndarray) -> np.ndarray:
    lead = int(np.argmax(np.abs(v)))
    return -v if v[lead] < 0 else v


def _g_gram_schmidt(candidates, g: np.ndarray, prior=(), drop_tol: float = 0.0) -> np.ndarray:
    """Modified Gram-Schmidt in the inner product ``g``; rows in, rows out.

    Each candidate row is projected off the g-orthonormal rows of ``prior``
    and off the rows accepted before it, then normalized.  A candidate whose
    remaining g-norm is below ``drop_tol`` is dropped as dependent.  Returns
    the accepted rows only, shape (k, n).  No sign is fixed.  Negating a row
    leaves every projection off it bit for bit unchanged, so a caller may fix
    the signs of the returned rows afterwards.
    """
    rows = [np.asarray(u, dtype=float) for u in prior]
    out = []
    for v in np.array(candidates, dtype=float):
        for u in rows:
            v = v - float(u @ g @ v) * u
        nrm = float(np.sqrt(max(v @ g @ v, 0.0)))
        if nrm < drop_tol:
            continue
        v = v / nrm
        rows.append(v)
        out.append(v)
    return np.array(out) if out else np.zeros((0, g.shape[0]))


def kernel(m, rel_tol: float = REL_TOL_ANALYTIC) -> KernelResult:
    """Kernel of ``m`` with singular values below ``rel_tol * sigma_max``.

    When sigma_max is below the absolute floor 1e-12 the whole column space
    is returned (kernel of a numerically zero map).  Rows are unrestricted;
    columns are capped at 8 since kernels here live in tangent spaces.
    """
    if not 0.0 < rel_tol < 1.0:
        raise ValueError(f"rel_tol must be in (0, 1), got {rel_tol}")
    a = _as_matrix(m, max_rows=MAX_DIM**3, max_cols=MAX_DIM)
    rows, cols = a.shape
    if rows == 0 or cols == 0:
        raise ValueError(f"degenerate matrix shape {a.shape}")
    # reduced SVD already carries all right singular vectors unless the
    # matrix is wide, in which case the padded V supplies the extra kernel
    _, s, vt = np.linalg.svd(a, full_matrices=rows < cols)
    smax = float(s[0])
    if smax <= KERNEL_ABS_FLOOR:
        return KernelResult(np.eye(cols), 0, s, KERNEL_ABS_FLOOR)
    tol = rel_tol * smax
    small = [i for i in range(cols) if i >= s.size or s[i] < tol]
    basis = np.column_stack([_canonical_sign(vt[i]) for i in small]) if small else np.zeros((cols, 0))
    return KernelResult(basis, cols - len(small), s, tol)


# ---------------------------------------------------------------------------
# Closed-form eigenvalues (sizes 1..4)


def _char_coeffs(a: np.ndarray) -> list:
    """Monic characteristic polynomial coefficients [c1, ..., cn] with
    p(x) = x^n + c1 x^(n-1) + ... + cn, from traces of powers and det."""
    n = a.shape[0]
    if n == 1:
        return [-float(a[0, 0])]
    t1 = float(np.trace(a))
    if n == 2:
        return [-t1, float(np.linalg.det(a))]
    a2 = a @ a
    t2 = float(np.trace(a2))
    e2 = (t1 * t1 - t2) / 2.0
    if n == 3:
        return [-t1, e2, -float(np.linalg.det(a))]
    t3 = float(np.trace(a2 @ a))
    e3 = (t1**3 - 3.0 * t1 * t2 + 2.0 * t3) / 6.0
    return [-t1, e2, -e3, float(np.linalg.det(a))]


def _poly_eval(coeffs: list, x: complex) -> tuple:
    """Horner evaluation of the monic polynomial and its derivative."""
    p = complex(1.0)
    dp = complex(0.0)
    for c in coeffs:
        dp = dp * x + p
        p = p * x + c
    return p, dp


def _roots_quadratic(b: complex, c: complex) -> list:
    # x^2 + b x + c
    d = cmath.sqrt(b * b - 4.0 * c)
    if (b.conjugate() * d).real > 0.0:
        d = -d
    q = (-b + d) / 2.0
    if q == 0:
        return [(-b + d) / 2.0, (-b - d) / 2.0]
    return [q, c / q]


def _roots_cubic(a: complex, b: complex, c: complex) -> list:
    # x^3 + a x^2 + b x + c, Cardano in complex arithmetic
    shift = a / 3.0
    p = b - a * a / 3.0
    q = 2.0 * a**3 / 27.0 - a * b / 3.0 + c
    if abs(p) < 1e-300 and abs(q) < 1e-300:
        return [-shift] * 3
    d = cmath.sqrt((q / 2.0) ** 2 + (p / 3.0) ** 3)
    u3 = -q / 2.0 + d
    if abs(u3) < 1e-30 * max(abs(q), abs(p)):
        u3 = -q / 2.0 - d
    if u3 == 0:
        # q == 0 exactly: roots of t(t^2 + p)
        sq = cmath.sqrt(-p)
        return [-shift, sq - shift, -sq - shift]
    u = u3 ** (1.0 / 3.0)
    v = -p / (3.0 * u)
    w = complex(-0.5, math_sqrt3_over_2)
    ts = [u + v, u * w + v * w.conjugate(), u * w.conjugate() + v * w]
    return [t - shift for t in ts]


math_sqrt3_over_2 = 3.0**0.5 / 2.0


def _roots_quartic(a: complex, b: complex, c: complex, d: complex) -> list:
    # x^4 + a x^3 + b x^2 + c x + d via a resolvent cubic and two quadratics
    shift = a / 4.0
    p = b - 3.0 * a * a / 8.0
    q = c - a * b / 2.0 + a**3 / 8.0
    r = d - a * c / 4.0 + a * a * b / 16.0 - 3.0 * a**4 / 256.0
    scale = max(abs(p), abs(q), abs(r), 1.0)
    if abs(q) < 1e-14 * scale:
        zs = _roots_quadratic(p, r)
        ys = []
        for z in zs:
            s = cmath.sqrt(z)
            ys.extend([s, -s])
    else:
        ts = _roots_cubic(2.0 * p, p * p - 4.0 * r, -q * q)
        t1 = max(ts, key=abs)
        s = cmath.sqrt(t1)
        c1 = (p + t1 - q / s) / 2.0
        c2 = (p + t1 + q / s) / 2.0
        ys = _roots_quadratic(s, c1) + _roots_quadratic(-s, c2)
    return [y - shift for y in ys]


def eigenvalues(m) -> np.ndarray:
    """Eigenvalues (with multiplicity) of a matrix of size at most 4x4.

    Closed-form characteristic polynomial roots, each polished with two
    Newton steps; returned sorted by (real part, imaginary part).
    """
    a = _as_matrix(m, max_rows=4, max_cols=4)
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"eigenvalues need a square matrix, got shape {a.shape}")
    n = a.shape[0]
    scale = float(np.max(np.abs(a)))
    if scale == 0.0:
        return np.zeros(n, dtype=complex)
    b = a / scale
    cb = _char_coeffs(b)
    if n == 1:
        roots = [complex(-cb[0])]
    elif n == 2:
        roots = _roots_quadratic(cb[0], cb[1])
    elif n == 3:
        roots = _roots_cubic(cb[0], cb[1], cb[2])
    else:
        roots = _roots_quartic(cb[0], cb[1], cb[2], cb[3])
    ca = _char_coeffs(a)
    polished = []
    for root in roots:
        lam = complex(root) * scale
        for _ in range(2):
            p, dp = _poly_eval(ca, lam)
            if abs(dp) < 1e-300:
                break
            lam = lam - p / dp
        polished.append(lam)
    out = np.array(sorted(polished, key=lambda z: (z.real, z.imag)), dtype=complex)
    return out
