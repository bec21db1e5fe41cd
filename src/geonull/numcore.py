"""Small dense linear algebra: inverses, rank-revealing kernels, eigenvalues.

Everything here targets the tiny matrices this package produces (metric
blocks, splitting tensors and curvature operators up to 8x8, flattened
curvature maps with at most 8 columns).  Eigenvalues come from LAPACK's
Hessenberg QR; the complex-pair / nilpotent decision on them is
``splitting.classify``'s, at an explicit tolerance.
"""

from __future__ import annotations

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


def _as_matrix(m, max_rows: int = MAX_DIM, max_cols: int = MAX_DIM, stack: bool = False):
    """``m`` as a float matrix, or with ``stack`` as matrices (..., rows, cols)."""
    a = np.asarray(m, dtype=float)
    if a.ndim != 2 and not (stack and a.ndim > 2):
        raise ValueError(f"expected a matrix, got shape {a.shape}")
    if a.shape[-2] > max_rows or a.shape[-1] > max_cols:
        raise ValueError(f"matrix shape {a.shape[-2:]} exceeds ({max_rows}, {max_cols})")
    return a


def invert(m) -> np.ndarray:
    """Inverse of a small well-conditioned square matrix, or of each in a stack (..., n, n).

    Raises :class:`SingularMatrixError` (carrying the smallest singular
    value) when the condition number exceeds 1e12; in a stack, the first
    such matrix in C order raises.
    """
    a = _as_matrix(m, stack=True)
    if a.shape[-2] != a.shape[-1]:
        raise ValueError(f"cannot invert non-square matrix of shape {a.shape[-2:]}")
    s = np.linalg.svd(a, compute_uv=False)
    for smin, smax in zip(s[..., -1].ravel().tolist(), s[..., 0].ravel().tolist()):
        if smin <= 0.0 or smax / smin > COND_LIMIT:
            raise SingularMatrixError("matrix is singular or ill-conditioned", smin)
    return np.linalg.inv(a)


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


def kernel(m, rel_tol: float = REL_TOL_ANALYTIC):
    """Kernel of ``m`` with singular values below ``rel_tol * sigma_max``.

    When sigma_max is below the absolute floor 1e-12 the whole column space
    is returned (kernel of a numerically zero map).  Rows are unrestricted;
    columns are capped at 8 since kernels here live in tangent spaces.
    A stack (..., rows, cols) takes one SVD call and gives a list of
    results in C order.  Raises ``FloatingPointError`` for a non-finite
    entry.
    """
    if not 0.0 < rel_tol < 1.0:
        raise ValueError(f"rel_tol must be in (0, 1), got {rel_tol}")
    a = _as_matrix(m, max_rows=MAX_DIM**3, max_cols=MAX_DIM, stack=True)
    rows, cols = a.shape[-2:]
    if rows == 0 or cols == 0:
        raise ValueError(f"degenerate matrix shape {a.shape[-2:]}")
    if not np.all(np.isfinite(a)):
        # the SVD would return NaN singular values without an error
        raise FloatingPointError("kernel of a matrix with a non-finite entry")
    # reduced SVD already carries all right singular vectors unless the
    # matrix is wide, in which case the padded V supplies the extra kernel
    _, sv, vts = np.linalg.svd(a, full_matrices=rows < cols)
    results = []
    for s, vt in zip(sv.reshape(-1, sv.shape[-1]), vts.reshape(-1, cols, cols)):
        smax = float(s[0])
        if smax <= KERNEL_ABS_FLOOR:
            results.append(KernelResult(np.eye(cols), 0, s, KERNEL_ABS_FLOOR))
            continue
        tol = rel_tol * smax
        small = [i for i in range(cols) if i >= s.size or s[i] < tol]
        basis = np.column_stack([_canonical_sign(vt[i]) for i in small]) if small else np.zeros((cols, 0))
        results.append(KernelResult(basis, cols - len(small), s, tol))
    return results[0] if a.ndim == 2 else results


def eigenvalues(m) -> np.ndarray:
    """Eigenvalues (with multiplicity) of a square matrix of size at most 8x8.

    One LAPACK call (``np.linalg.eigvals``); returned as complex numbers
    sorted by (real part, imaginary part).  A real matrix gets exactly
    conjugate pairs and exactly zero imaginary parts elsewhere.
    """
    a = _as_matrix(m)
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"eigenvalues need a square matrix, got shape {a.shape}")
    return np.sort_complex(np.linalg.eigvals(a))
