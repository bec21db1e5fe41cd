"""The stacked kernel stage against the per-point loops it replaced.

Between the kernel SVD and the splitting solve, each stage runs stacked
over a chunk's points: the kernel's g-Gram-Schmidt, its signs and residuals
(``curvature._nullities_from``), the complement (``curvature._complement``),
the projection of T (``splitting._project``) and conullity3's preferred
frames.  The oracles below are copies of the per-point loops those stages
had before: every stacked result must be bitwise each point's own.
"""

import math

import numpy as np
import pytest

from geonull.curvature import _complement, _nullities_from, _riemann_parts
from geonull.numcore import _g_gram_schmidt
from geonull.metricspace import catalog_conullity3, catalog_euclidean, catalog_product, catalog_sphere
from geonull.splitting import AlignmentError, _project

REL_TOL = 1e-7


def _sign(v):
    lead = int(np.argmax(np.abs(v)))
    return -v if v[lead] < 0 else v


def _gram_schmidt(candidates, g, prior=(), drop_tol=0.0):
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


def _nullity(rdown, g):
    """``(basis, residuals, singular values, tolerance)`` of one point, by the per-point loop."""
    n = g.shape[0]
    _, s, vt = np.linalg.svd(rdown.reshape(n, n ** 3).T, full_matrices=False)
    if float(s[0]) <= 1e-12:
        columns, tol = np.eye(n), 1e-12
    else:
        tol = REL_TOL * float(s[0])
        small = [i for i in range(n) if s[i] < tol]
        columns = np.column_stack([_sign(vt[i]) for i in small]) if small else np.zeros((n, 0))
    rows = _gram_schmidt(columns.T, g, drop_tol=1e-10)
    basis = np.array([_sign(v) for v in rows]).reshape(-1, n)
    residuals = np.array([float(np.max(np.abs(np.einsum("ijkl,i->jkl", rdown, v)))) for v in basis])
    return basis, residuals, s, tol


def _projected(basis, g, reference):
    terms = [float(b @ g @ reference) * b for b in basis]
    section = sum(terms[1:], terms[0])
    nrm = float(np.sqrt(section @ g @ section))
    if nrm < 1e-8:
        raise AlignmentError("orthogonal")
    return section / nrm


def _frame(expr, pt):
    pval = expr.value(pt[[0, 1, 3]])
    u, v, w = pt[1], pt[2], pt[3]
    f0 = np.array([1.0, v + w, -(u + w), v - u]) / pval
    s = 1.0 / math.sqrt(2.0)
    return np.vstack([np.array([0.0, s, 0.0, s]), f0, np.array([0.0, s, 0.0, -s])])


def _points(seed):
    """``(rdown, g)`` of 4-dim points whose kernels have dimension 0, 1, 2, 3 and 4.

    Dimension 1 is conullity3's, 2 S^2 x R^2's and 0 S^2 x S^2's.  R is
    zero on R^4 (the whole tangent space), on a flat chart whose g makes
    the second Gram-Schmidt row (-2, 1, 0, 0), which the sign flips, and on
    a flat chart whose g is nearly singular, where Gram-Schmidt drops the
    coordinate direction of norm 1e-12 (dimension 3).
    """
    rng = np.random.default_rng(seed)
    out = []
    charts = [
        (catalog_conullity3("3+cos(u)+cos(w)"), 3),
        (catalog_product(catalog_sphere(1.0), catalog_euclidean(2)), 2),
        (catalog_product(catalog_sphere(1.0), catalog_sphere(1.5)), 2),
        (catalog_euclidean(4), 1),
    ]
    for metric, count in charts:
        for pt in rng.uniform(0.3, 1.2, (count, 4)):  # inside every chart here
            g, dg, d2g = metric.jet(pt)
            out.append((_riemann_parts(g, dg, d2g)[3], g))
    flips = np.eye(4)
    flips[:2, :2] = [[1.0, 2.0], [2.0, 5.0]]
    out += [(np.zeros((4,) * 4), flips), (np.zeros((4,) * 4), np.diag([1.0, 1.0, 1.0, 1e-24]))]
    order = rng.permutation(len(out))
    return [out[i] for i in order]


def _as_riemann_parts_lays_out(rdown):
    """``rdown`` with the strides of :func:`_riemann_parts`' R, whose last axis varies slowest."""
    return np.ascontiguousarray(np.moveaxis(rdown, -1, -4)).transpose(0, 2, 3, 4, 1)


@pytest.mark.parametrize("layout", ["contiguous", "riemann_parts"])
@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_stacked_kernels_are_each_points_loop_bitwise(seed, layout):
    points = _points(seed)
    rdown, g = np.stack([r for r, _ in points]), np.stack([q for _, q in points])
    if layout == "riemann_parts":
        rdown = _as_riemann_parts_lays_out(rdown)
        assert not rdown.flags.c_contiguous and rdown.strides[-1] > rdown.strides[-2]
    stacked = _nullities_from(rdown, g, REL_TOL)
    assert {int(k) for k in stacked.sizes} == {0, 1, 2, 3, 4}
    for i, (r, q) in enumerate(points):
        basis, residuals, s, tol = _nullity(r, q)
        res = stacked[i]
        assert (res.nullity, res.conullity) == (basis.shape[0], 4 - basis.shape[0])
        assert res.basis.tobytes() == basis.tobytes() and res.basis.shape == basis.shape
        assert res.residuals.tobytes() == residuals.tobytes()
        assert res.singular_values.tobytes() == s.tobytes()
        assert res.tolerance_used == tol
        alone = _nullities_from(r, q, REL_TOL)[0]
        assert (alone.basis.tobytes(), alone.residuals.tobytes()) == (basis.tobytes(), residuals.tobytes())


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_stacked_complements_and_projections_are_each_points_loop_bitwise(seed):
    points = _points(seed)
    rdown, g = np.stack([r for r, _ in points]), np.stack([q for _, q in points])
    kernels = _nullities_from(rdown, g, REL_TOL)
    references = np.random.default_rng(seed).normal(size=(len(points), 4))
    dropped = set()
    for k in range(5):
        at = np.flatnonzero(kernels.sizes == k)
        basis = kernels.basis[at, :k]
        rows, kept = _complement(g[at], basis)
        dropped.add(tuple(map(tuple, kept.tolist())))
        for j, i in enumerate(at):
            assert rows[j][kept[j]].tobytes() == _gram_schmidt(np.eye(4), g[i], basis[j], 1e-6).tobytes()
        if k:
            t = _project(basis, g[at], references[at], np.zeros((len(at), 4)))
            for j, i in enumerate(at):
                assert t[j].tobytes() == _projected(basis[j], g[i], references[i]).tobytes()
    # the points drop different coordinate directions, so the stacked masks differ
    assert len(dropped) > 3


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_a_complement_that_stops_at_its_rank_is_the_full_gram_schmidt_bitwise(seed):
    # _complement stops once every point has its 4 - k rows, and a kernel of
    # dimension 4 has none: the rows and the kept mask are those of every
    # candidate taken, over the stack and for a stack of one
    points = _points(seed)
    rdown, g = np.stack([r for r, _ in points]), np.stack([q for _, q in points])
    kernels = _nullities_from(rdown, g, REL_TOL)
    for k in range(5):
        at = np.flatnonzero(kernels.sizes == k)
        basis = kernels.basis[at, :k]
        for stack in [slice(None)] + [slice(j, j + 1) for j in range(len(at))]:
            rows, kept = _complement(g[at][stack], basis[stack])
            full_rows, full_kept = _g_gram_schmidt(np.eye(4), g[at][stack], prior=basis[stack], drop_tol=1e-6)
            assert rows.tobytes() == full_rows.tobytes() and rows.shape == full_rows.shape
            assert kept.tobytes() == full_kept.tobytes() and kept.shape == full_kept.shape
            assert np.all(kept.sum(axis=-1) <= 4 - k)  # fewer where g is nearly singular
    for dim in range(1, 7):  # euclidean's zero R: the kernel is the whole space
        g = np.eye(dim)[None]
        rows, kept = _complement(g, np.eye(dim)[None])
        full_rows, full_kept = _g_gram_schmidt(np.eye(dim), g, prior=np.eye(dim)[None], drop_tol=1e-6)
        assert (rows.tobytes(), kept.tobytes()) == (full_rows.tobytes(), full_kept.tobytes())


def test_a_projection_orthogonal_to_one_points_kernel_raises_for_the_stack():
    g = np.stack([np.eye(3)] * 2)
    basis = np.array([[[1.0, 0.0, 0.0]], [[0.0, 1.0, 0.0]]])
    with pytest.raises(AlignmentError, match=r"\[0\. 1\. 0\.\]"):
        _project(basis, g, np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]]), np.array([[0.0, 0.0, 0.0], [0.0, 1.0, 0.0]]))


def test_a_non_finite_entry_raises_for_the_stack_as_alone():
    points = _points(5)
    bad = points[2][0].copy()
    bad[1, 2, 3, 0] = np.nan
    rdown = np.stack([r for r, _ in points[:2]] + [bad])
    g = np.stack([q for _, q in points[:3]])
    with pytest.raises(FloatingPointError, match="non-finite"):
        _nullities_from(rdown, g, REL_TOL)
    with pytest.raises(FloatingPointError, match="non-finite"):
        _nullities_from(bad, points[2][1], REL_TOL)


def test_stacked_preferred_frames_are_each_points_own_bitwise():
    metric = catalog_conullity3("3.2+cos(0.7*u)+cos(1.1*w)")
    expr = metric.annotations["p_expression"]
    rng = np.random.default_rng(9)
    pts = rng.uniform(-1.5, 1.5, (12, 4))
    pts[2:7, [0, 1, 3]] = pts[2, [0, 1, 3]]  # a run of points that share their p argument
    frames = metric.preferred_frame(pts)
    assert frames.shape == (12, 3, 4)
    for pt, frame in zip(pts, frames):
        assert frame.tobytes() == _frame(expr, pt).tobytes()
        assert metric.preferred_frame(pt).tobytes() == frame.tobytes()
