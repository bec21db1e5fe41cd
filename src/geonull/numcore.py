"""Small dense linear algebra: inverses, rank-revealing kernels, eigenvalues.

Everything here targets the tiny matrices this package produces (metric
blocks, splitting tensors and curvature operators up to 8x8, flattened
curvature maps with at most 8 columns).  Eigenvalues come from LAPACK's
Hessenberg QR; the complex-pair / nilpotent decision on them is
``splitting.classify``'s, at an explicit tolerance.  An inverse's condition
test takes an SVD only where the bound |A|_F |A^-1|_F cannot decide it.
The stacked stages of the package share one fallback, ``_each_alone``: a
stage over a stack that raises is redone one item at a time, so each fault
stays with its own item.  It is control flow inside a layer, not a call
into this one, so other modules reach it through the module
(``numcore._each_alone``): a tracer that takes every helper imported by name
for a layer boundary leaves it be.  The kernel stage is stacked too:
``kernel`` decides every rank of a stack from one SVD call, and
``_g_gram_schmidt`` orthonormalizes a stack candidate by candidate.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

__all__ = [
    "SingularMatrixError",
    "KernelResult",
    "KernelStack",
    "invert",
    "kernel",
    "eigenvalues",
    "REL_TOL_ANALYTIC",
]

MAX_DIM = 8
COND_LIMIT = 1e12
KERNEL_ABS_FLOOR = 1e-12
# default rank tolerance, for curvature from analytic metric jets
REL_TOL_ANALYTIC = 1e-7


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
    inverse, passed, smallest = _invert_each(m)
    if not passed.all():
        raise _singular(float(smallest.ravel()[np.argmin(passed.ravel())]))
    return inverse


def _singular(smallest: float) -> SingularMatrixError:
    """The error :func:`invert` raises for a matrix whose smallest singular value is ``smallest``."""
    return SingularMatrixError("matrix is singular or ill-conditioned", smallest)


def _invert_each(m):
    """``(inverse, passed, smallest)``: :func:`invert` for each matrix that passes its condition test.

    ``passed`` marks, over the leading axes, the matrices whose condition
    number is at most 1e12.  A passing matrix's inverse is bitwise what
    :func:`invert` gives it alone; a failing one's is left zero.

    The bound ``|A|_F |A^-1|_F`` lies between cond_2 and n cond_2, so a
    matrix whose bound is at most half the limit passes without an SVD (the
    factor 2 covers the rounding of the bound and of the SVD).  The rest,
    and the whole stack when ``inv`` finds a matrix singular, take one SVD
    for the test; ``smallest`` holds their smallest singular values, NaN
    where the bound decided.
    """
    a = _as_matrix(m, stack=True)
    if a.shape[-2] != a.shape[-1]:
        raise ValueError(f"cannot invert non-square matrix of shape {a.shape[-2:]}")
    try:
        inverse = np.linalg.inv(a)
    except np.linalg.LinAlgError:
        inverse = None
        doubt = np.ones(a.shape[:-2], dtype=bool)
    else:
        with np.errstate(all="ignore"):  # an overflow only sends its matrix to the SVD
            bound = (a * a).sum(axis=(-2, -1)) * (inverse * inverse).sum(axis=(-2, -1))
        doubt = ~(bound <= (0.5 * COND_LIMIT) ** 2)
    passed = np.array(~doubt)
    smallest = np.full(a.shape[:-2], np.nan)
    if doubt.any():
        s = np.linalg.svd(a[doubt], compute_uv=False)
        smallest[doubt] = s[:, -1]
        # a NaN singular value passes, as it passes Python's comparisons
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            passed[doubt] = ~((s[:, -1] <= 0.0) | (s[:, 0] / s[:, -1] > COND_LIMIT))
    if inverse is None:
        inverse = np.zeros_like(a)
        inverse[passed] = np.linalg.inv(a[passed])
    elif not passed.all():
        inverse[~passed] = 0.0
    return inverse, passed, smallest


def _each_alone(stage, items, faults=Exception, failed=lambda exc: exc) -> list:
    """``stage(items)``, one result per item; if that raises one of ``faults``, each item on its own.

    ``items`` is a list or an array of rows.  An item that raises one of
    ``faults`` on its own gets ``failed(error)``, by default the error
    itself, so a fault changes only its own result.
    """
    if not len(items):
        return []
    try:
        return stage(items)
    except faults as exc:
        if len(items) == 1:
            return [failed(exc)]
    return [_each_alone(stage, items[i: i + 1], faults, failed)[0] for i in range(len(items))]


def _groups(keys: np.ndarray) -> list:
    """``(key, at)`` for each distinct value of the int array ``keys``, in increasing order.

    ``at`` indexes the items with that key: a full slice, which copies
    nothing, where all items share one key.
    """
    distinct = sorted(set(keys.tolist()))
    if len(distinct) == 1:
        return [(distinct[0], slice(None))]
    return [(key, np.flatnonzero(keys == key)) for key in distinct]


def _put(store: list, size: int, idx, arrays) -> None:
    """Put ``arrays``, each stacked over the items ``idx`` of ``size``, at those rows of ``store``'s arrays.

    A stage under :func:`_each_alone` keeps its stacked results this way,
    whether it ran once over all the items or again over some of them.  The
    first call makes ``store``'s arrays; one over all the items makes them
    the given arrays, uncopied, as no other call follows it.
    """
    if not store:
        if len(idx) == size:
            store.extend(arrays)
            return
        store.extend(np.empty((size,) + a.shape[1:], a.dtype) for a in arrays)
    for into, a in zip(store, arrays):
        into[idx] = a


class KernelResult(NamedTuple):
    """Orthonormal kernel basis from an SVD rank decision.

    ``basis`` has one column per kernel vector; ``rank + basis.shape[1]``
    equals the number of columns of the input.
    """

    basis: np.ndarray
    rank: int
    singular_values: np.ndarray
    tolerance_used: float


def _canonical_sign(v: np.ndarray) -> np.ndarray:
    """``v`` with each row (last axis) negated where its first largest-magnitude entry is negative."""
    flat = v.reshape(-1, v.shape[-1])
    lead = flat[np.arange(len(flat)), np.abs(flat).argmax(axis=1)]
    return np.negative(v, out=v.copy(), where=(lead < 0).reshape(v.shape[:-1] + (1,)))


def _g_gram_schmidt(candidates, g: np.ndarray, prior=None, drop_tol: float = 0.0, rank=None):
    """Modified Gram-Schmidt in the inner product ``g``, over a stack: ``(rows, kept)``.

    Leading axes of ``g`` (..., n, n) are a stack of points; ``candidates``
    (k, n) or (..., k, n) and ``prior`` (..., p, n) broadcast against
    them.  At each point each candidate row is projected off the
    g-orthonormal rows of ``prior`` and off the rows accepted before it,
    then normalized; one whose remaining g-norm is below ``drop_tol`` is
    dropped as dependent.  ``rows`` (..., k, n) holds the accepted rows,
    zero where ``kept`` (..., k) is False.  Each row is projected off all
    the candidates still waiting at once, so each candidate meets the same
    operations in the same order as alone, and each point's rows are
    bitwise those of the point alone.  No sign is fixed.  Negating a row
    leaves every projection off it bit for bit unchanged, so a caller may
    fix the signs of the returned rows afterwards.  With ``rank`` set, the
    candidates left once every point has ``rank`` rows are dropped
    untested: the caller knows they would fall below ``drop_tol``.
    """
    g = np.asarray(g, dtype=float)
    candidates = np.asarray(candidates, dtype=float)
    k, n = candidates.shape[-2:]
    waiting = candidates[..., :, None, :]  # (..., k, 1, n): the candidates not yet normalized, as rows
    accepted = []  # (c, row (..., 1, n), where it is kept or None for everywhere)
    have = 0  # rows kept at each point, an int while no row was dropped anywhere

    def off(u, on):
        """``waiting`` projected off the row u (..., 1, n), where ``on`` (or everywhere for None)."""
        ug, u = (u @ g)[..., None, :, :], u[..., None, :, :]
        projected = waiting - (ug @ waiting.swapaxes(-1, -2)) * u
        return projected if on is None else np.where(on[..., None, None, None], projected, waiting)

    if prior is not None:
        prior = np.asarray(prior, dtype=float)
        for j in range(prior.shape[-2]):
            waiting = off(prior[..., j: j + 1, :], None)
    for c in range(k):
        if rank is not None and (have if type(have) is int else have.min()) >= rank:
            break
        v, waiting = waiting[..., 0, :, :], waiting[..., 1:, :, :]
        sq = v @ g @ v.swapaxes(-1, -2)
        sq[sq < 0.0] = 0.0  # max(sq, 0.0): -0.0 and NaN stay
        nrm = np.sqrt(sq)
        low = nrm < drop_tol
        if not any(low.ravel().tolist()):
            v, on = v / nrm, None
            have += 1
        elif all(low.ravel().tolist()):
            continue
        else:
            on = ~low[..., 0, 0]
            v = np.divide(v, nrm, out=np.zeros(v.shape), where=~low)
            have = have + on
        accepted.append((c, v, on))
        if c + 1 < k:
            waiting = off(v, on)
    batch = g.shape[:-2]
    if accepted and len(accepted) == k and all(on is None for _, _, on in accepted):
        return np.concatenate([v for _, v, _ in accepted], axis=-2), np.ones(batch + (k,), dtype=bool)
    rows, kept = np.zeros(batch + (k, n)), np.zeros(batch + (k,), dtype=bool)
    for c, v, on in accepted:
        rows[..., c: c + 1, :] = v
        kept[..., c] = True if on is None else on
    return rows, kept


class KernelStack:
    """:func:`kernel` of each matrix of a stack, stacked.

    ``rows[i]`` (cols, cols) holds matrix i's right singular vectors, and
    its kernel basis is their last ``sizes[i]`` rows: those whose singular
    value is below ``tolerances[i]``, or, for a numerically zero map, the
    identity's rows.  Indexing (and so iterating) gives matrix i's
    :class:`KernelResult`, whose basis columns have canonical signs.
    Immutable.
    """

    __slots__ = ("rows", "sizes", "singular_values", "tolerances")

    def __init__(self, rows: np.ndarray, sizes: np.ndarray, singular_values: np.ndarray, tolerances: np.ndarray):
        for name, value in zip(self.__slots__, (rows, sizes, singular_values, tolerances)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"field {name!r} is read-only")

    __delattr__ = __setattr__

    def __getitem__(self, i: int) -> KernelResult:
        cols, k = self.rows.shape[-1], int(self.sizes[i])
        basis = np.ascontiguousarray(_canonical_sign(self.rows[i, cols - k:]).T)
        return KernelResult(basis, cols - k, self.singular_values[i], float(self.tolerances[i]))


def kernel(m, rel_tol: float = REL_TOL_ANALYTIC):
    """Kernel of ``m`` with singular values below ``rel_tol * sigma_max``.

    When sigma_max is below the absolute floor 1e-12 the whole column space
    is returned (kernel of a numerically zero map).  Rows are unrestricted;
    columns are capped at 8 since kernels here live in tangent spaces.
    A stack (..., rows, cols) takes one SVD call and gives a
    :class:`KernelStack` over its matrices in C order.  Raises
    ``FloatingPointError`` for a non-finite entry.
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
    _, sv, vts = np.linalg.svd(a.reshape(-1, rows, cols), full_matrices=rows < cols)
    tol = rel_tol * sv[:, 0]
    sizes = cols - (sv >= tol[:, None]).sum(axis=1)
    zero = sv[:, 0] <= KERNEL_ABS_FLOOR
    if any(zero.tolist()):
        tol[zero], sizes[zero], vts[zero] = KERNEL_ABS_FLOOR, cols, np.eye(cols)
    stack = KernelStack(vts, sizes, sv, tol)
    return stack[0] if a.ndim == 2 else stack


def eigenvalues(m) -> np.ndarray:
    """Eigenvalues (with multiplicity) of a square matrix of size at most 8x8, or of each in a stack.

    One LAPACK call (``np.linalg.eigvals``) for the matrix or the whole
    stack (..., n, n); returned as complex numbers sorted by (real part,
    imaginary part) along the last axis.  A real matrix gets exactly
    conjugate pairs and exactly zero imaginary parts elsewhere.
    """
    a = _as_matrix(m, stack=True)
    if a.shape[-2] != a.shape[-1]:
        raise ValueError(f"eigenvalues need a square matrix, got shape {a.shape[-2:]}")
    return np.sort_complex(np.linalg.eigvals(a))
