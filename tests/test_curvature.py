import math

import numpy as np
import pytest

from geonull.curvature import (
    DegeneratePlaneError,
    _nabla_riemann,
    _PAIRS,
    _nullity_from,
    _plane_operator,
    _riemann_from_jet,
    _riemann_parts,
    _solve_sides,
    bianchi2_residual,
    covariant_riemann,
    christoffel,
    curvature_data,
    nullity,
    riemann,
    scalar_curvature,
    sectional,
    sectional_range,
)
from geonull.metricspace import (
    catalog_conullity3,
    catalog_euclidean,
    catalog_polar,
    catalog_product,
    catalog_sekigawa,
    catalog_sphere,
)
from oracles import finite_difference_field, nabla_r_stencil


def test_polar_christoffel_closed_form():
    metric = catalog_polar()
    for r in (0.5, 1.0, 2.3):
        gamma = christoffel(metric, [r, 0.7])
        expected = np.zeros((2, 2, 2))
        expected[0, 1, 1] = -r          # Gamma^r_{phi phi}
        expected[1, 0, 1] = expected[1, 1, 0] = 1.0 / r
        assert np.allclose(gamma, expected, atol=1e-12)


def test_polar_is_flat():
    metric = catalog_polar()
    rup, rdown = riemann(metric, [1.3, -0.4])
    assert np.allclose(rdown, 0.0, atol=1e-12)
    assert abs(scalar_curvature(metric, [1.3, -0.4])) < 1e-12
    res = nullity(metric, [1.3, -0.4])
    assert res.nullity == 2
    assert res.conullity == 0


def test_sphere_constant_curvature():
    radius = 2.0
    metric = catalog_sphere(radius)
    for pt in ([1.0, 0.3], [2.0, -1.1], [0.5, 2.0]):
        k = sectional(metric, pt, [1.0, 0.0], [0.0, 1.0])
        assert abs(k - 1.0 / radius**2) < 1e-12
        scal = scalar_curvature(metric, pt)
        assert abs(scal - 2.0 / radius**2) < 1e-12


def test_sectional_is_plane_invariant():
    metric = catalog_sekigawa("exp(u)")
    pt = [0.2, 0.4, -0.6]
    x = np.array([1.0, 0.2, 0.0])
    y = np.array([0.0, 1.0, 0.5])
    k = sectional(metric, pt, x, y)
    # GL(2) reparametrizations of the span leave the value unchanged
    k2 = sectional(metric, pt, 2.0 * x + y, x - 3.0 * y)
    assert abs(k - k2) < 1e-10


def test_sectional_rejects_degenerate_plane():
    metric = catalog_euclidean(3)
    with pytest.raises(DegeneratePlaneError):
        sectional(metric, [0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [2.0, 0.0, 0.0])


def test_riemann_symmetries_at_random_points():
    rng = np.random.default_rng(11)
    for build, sampler in (
        (catalog_sekigawa("2+sin(x)+u*u"), lambda: rng.uniform(-1.0, 1.0, 3)),
        (catalog_conullity3("3+cos(u)+cos(w)"), lambda: rng.uniform(-1.0, 1.0, 4)),
        (catalog_sphere(1.3), lambda: np.array([rng.uniform(0.4, 2.6), rng.uniform(-2.0, 2.0)])),
    ):
        for _ in range(4):
            pt = sampler()
            _, rdown = riemann(build, pt)
            scale = np.abs(rdown).max() + 1.0
            assert np.allclose(rdown, -rdown.transpose(1, 0, 2, 3), atol=1e-12 * scale)
            assert np.allclose(rdown, -rdown.transpose(0, 1, 3, 2), atol=1e-12 * scale)
            assert np.allclose(rdown, rdown.transpose(2, 3, 0, 1), atol=1e-12 * scale)
            cyclic = rdown + rdown.transpose(1, 2, 0, 3) + rdown.transpose(2, 0, 1, 3)
            assert np.allclose(cyclic, 0.0, atol=1e-12 * scale)


CATALOG_POINTS = [
    (catalog_euclidean(3), [0.1, -0.2, 0.3]),
    (catalog_sphere(1.3), [1.1, 0.4]),
    (catalog_polar(), [1.3, 0.7]),
    (catalog_product(catalog_sphere(1.0), catalog_euclidean(2)), [1.0, 0.5, 0.2, -0.1]),
    (catalog_sekigawa("exp(u)"), [0.3, -0.2, 0.5]),
    (catalog_conullity3("3+cos(u)+cos(w)"), [0.1, 0.4, -0.3, 0.2]),
    (catalog_conullity3("3+cos(u)+cos(w)+0.3*x*u*w"), [0.1, 0.2, -0.3, 0.4]),
]


def test_second_bianchi_residual_is_small():
    # nabla R from the 3-jet satisfies the identity to rounding
    for metric, pt in CATALOG_POINTS:
        scale = max(1.0, float(np.abs(covariant_riemann(metric, pt)).max()))
        assert bianchi2_residual(metric, pt) <= 1e-12 * scale, metric.name
    # the stencil of R of finite-difference jets only to O(h^2)
    cov = nabla_r_stencil(finite_difference_field(catalog_sekigawa("exp(u)"), h=1e-3), [0.3, -0.2, 0.5])
    cyc = cov + cov.transpose(1, 2, 0, 3, 4) + cov.transpose(2, 0, 1, 3, 4)
    assert np.abs(cyc).max() < 1e-3


@pytest.mark.parametrize("metric, pt", CATALOG_POINTS, ids=[m.name for m, _ in CATALOG_POINTS])
def test_analytic_nabla_r_matches_the_stencil_to_second_order(metric, pt):
    pt = np.asarray(pt, dtype=float)
    cov = covariant_riemann(metric, pt)
    errors = [np.abs(nabla_r_stencil(metric, pt, h) - cov).max() for h in (2e-4, 1e-4)]
    scale = max(1.0, float(np.abs(cov).max()))
    assert errors[1] <= 1e-7 * scale
    if errors[0] > 1e-9 * scale:  # above the rounding floor, halving h quarters the error
        assert 3.0 < errors[0] / errors[1] < 5.0


# every catalog family with a 3-jet, and whether its nabla R vanishes
_THREE_JET_FAMILIES = [
    (catalog_conullity3("3+cos(u)+cos(w)+0.3*sin(x)"), False),
    (catalog_sekigawa("2+u*u"), False),
    (catalog_polar(), True),
    (catalog_sphere(1.3), True),
    *[(catalog_product(catalog_sphere(1.0), catalog_euclidean(k)), True) for k in (1, 2, 3, 4)],
    (catalog_euclidean(3), True),
]


def _seeded_points(metric, count, seed):
    """``count`` seeded points of ``metric``'s chart, the first coordinate kept off polar's r = 0 and the poles."""
    rng = np.random.default_rng(seed)
    points = rng.uniform(-0.9, 0.9, (count, metric.dim))
    points[:, 0] = 0.3 + np.abs(points[:, 0])
    return points


@pytest.mark.parametrize("metric, vanishes", _THREE_JET_FAMILIES, ids=[m.name for m, _ in _THREE_JET_FAMILIES])
def test_solve_sides_match_the_full_nabla_r_contracted(metric, vanishes):
    # R and -(nabla R)(T, ...) from the lowered symbols against _riemann_parts' R and the full nabla R
    # contracted with T, for the kernel's T (where there is a kernel) and a random T
    rng = np.random.default_rng(7)
    for pt in _seeded_points(metric, 5, 11):
        jet = metric.jet(pt, order=3)
        parts = _riemann_parts(*jet[:3])
        kernel = _nullity_from(parts[3], jet[0], 1e-7).basis
        cov = _nabla_riemann(*jet, parts)
        gamma = np.abs(parts[1]).max()
        for t in [*kernel[:1], rng.normal(size=metric.dim)]:
            rdown, rhs = _solve_sides(*jet, parts, t)
            oracle = -np.einsum("mijkl,i->mjkl", cov, t)
            scale = np.abs(oracle).max()
            if vanishes:  # both sides are rounding: size it by the product-rule terms
                scale = np.abs(t).max() * max(np.abs(jet[3]).max(), gamma * np.abs(parts[4]).max())
            assert np.abs(rhs - oracle).max() <= 64 * np.spacing(scale), metric.name
            assert np.abs(rdown - parts[3]).max() <= 64 * np.spacing(max(np.abs(parts[3]).max(), gamma * gamma))


@pytest.mark.parametrize(
    "metric", [catalog_conullity3("3+cos(u)+cos(w)"), catalog_sekigawa("2+u*u")], ids=["conullity3", "sekigawa"]
)
def test_solve_sides_of_a_stack_are_each_points_own_bitwise(metric):
    points = _seeded_points(metric, 16, 3)
    jets, faults = metric.jets(points, order=3)
    assert not faults
    parts = _riemann_parts(*jets[:3])
    t = np.random.default_rng(5).normal(size=(16, metric.dim))
    stacked = _solve_sides(*jets, parts, t)
    for i in range(16):
        alone = _solve_sides(*(a[i] for a in jets), [p[i] for p in parts], t[i])
        assert [a.tobytes() for a in alone] == [a[i].tobytes() for a in stacked]


def test_curvature_data_with_nabla_r_shares_the_point_jet():
    metric = catalog_conullity3("3+cos(u)+cos(w)")
    pt = [0.1, 0.2, -0.3, 0.4]
    plain = curvature_data(metric, pt)
    full = curvature_data(metric, pt, nabla_r=True)
    assert plain.nabla_r is None
    assert np.array_equal(full.nabla_r, covariant_riemann(metric, pt))
    for name in ("g", "christoffel", "rup", "rdown"):
        assert getattr(full, name).tobytes() == getattr(plain, name).tobytes()
    assert (full.scalar_trace, full.nullity.basis.tobytes()) == (plain.scalar_trace, plain.nullity.basis.tobytes())


def test_nullity_of_model_families():
    sek = catalog_sekigawa("exp(u)")
    res = nullity(sek, [0.0, 0.0, 0.0])
    assert (res.nullity, res.conullity) == (1, 2)
    assert np.allclose(np.abs(res.basis[0]), [0.0, 0.0, 1.0], atol=1e-12)

    con = catalog_conullity3("3+cos(u)+cos(w)")
    res = nullity(con, [0.0, 0.0, 0.0, 0.0])
    assert (res.nullity, res.conullity) == (1, 3)
    assert np.allclose(np.abs(res.basis[0]), [0.0, 0.0, 1.0, 0.0], atol=1e-12)
    assert res.residuals.max() < res.tolerance_used

    prod = catalog_product(catalog_sphere(1.0), catalog_euclidean(2))
    res = nullity(prod, [1.0, 0.5, 0.0, 0.0])
    assert (res.nullity, res.conullity) == (2, 2)
    # kernel basis spans exactly the flat factor
    assert np.allclose(res.basis[:, :2], 0.0, atol=1e-12)


def test_nullity_basis_is_g_orthonormal():
    metric = catalog_product(catalog_sphere(1.0), catalog_euclidean(2))
    pt = [1.0, 0.5, 0.2, -0.3]
    res = nullity(metric, pt)
    g = metric.g(pt)
    gram = res.basis @ g @ res.basis.T
    assert np.allclose(gram, np.eye(res.nullity), atol=1e-12)


def test_curvature_data_nullity_is_nullity_bitwise():
    rng = np.random.default_rng(31)
    cases = [
        (catalog_euclidean(3), lambda: rng.uniform(-1.0, 1.0, 3), None),
        (catalog_sphere(1.0), lambda: np.array([rng.uniform(0.3, 2.8), rng.uniform(-3.0, 3.0)]), None),
        (catalog_polar(), lambda: np.array([rng.uniform(0.5, 2.0), rng.uniform(-3.0, 3.0)]), None),
        (catalog_product(catalog_sphere(1.0), catalog_euclidean(2)),
         lambda: np.array([rng.uniform(0.3, 2.8), *rng.uniform(-1.0, 1.0, 3)]), None),
        (catalog_sekigawa("exp(u)"), lambda: rng.uniform(-1.0, 1.0, 3), None),
        (catalog_conullity3("3+cos(u)+cos(w)"), lambda: rng.uniform(-1.0, 1.0, 4), None),
        # finite-difference jets, read at the looser rank cutoff that suits truncation error
        (finite_difference_field(catalog_sekigawa("2+u*u")), lambda: rng.uniform(-1.0, 1.0, 3), 1e-4),
    ]
    for metric, draw, rel_tol in cases:
        for _ in range(4):
            pt = draw()
            via_data = curvature_data(metric, pt, rel_tol).nullity
            direct = nullity(metric, pt, rel_tol)
            assert (via_data.nullity, via_data.conullity) == (direct.nullity, direct.conullity)
            for name in ("basis", "residuals", "singular_values"):
                a, b = getattr(via_data, name), getattr(direct, name)
                assert a.shape == b.shape and a.tobytes() == b.tobytes(), name
            assert np.float64(via_data.tolerance_used).tobytes() == np.float64(
                direct.tolerance_used
            ).tobytes()


def test_nullity_basis_has_canonical_signs():
    # flat tensor, so the kernel is everything; in this g the second
    # Gram-Schmidt row comes out as (-2, 1)/1 and must be flipped
    g = np.array([[1.0, 2.0], [2.0, 5.0]])
    res = _nullity_from(np.zeros((2, 2, 2, 2)), g, 1e-7)
    assert np.allclose(res.basis @ g @ res.basis.T, np.eye(2), atol=1e-12)
    assert res.basis.tolist() == [[1.0, 0.0], [2.0, -1.0]]


def test_nullity_of_finite_difference_jets_at_a_looser_tolerance():
    # finite-difference jets read at the looser rank cutoff that suits truncation error: the analytic kernel
    analytic = catalog_sekigawa("exp(u)")
    fd = finite_difference_field(analytic)
    res_fd = nullity(fd, [0.1, 0.2, -0.3], rel_tol=1e-4)
    res_an = nullity(analytic, [0.1, 0.2, -0.3])
    assert (res_fd.nullity, res_fd.conullity) == (res_an.nullity, res_an.conullity)
    assert res_fd.tolerance_used > res_an.tolerance_used


def test_curvature_data_trace_conventions():
    metric = catalog_sekigawa("exp(u)")
    pt = [0.4, -0.3, 0.7]
    data = curvature_data(metric, pt)
    assert abs(data.scalar_trace - scalar_curvature(metric, pt)) < 1e-12
    assert abs(data.half_trace - 0.5 * data.scalar_trace) < 1e-14
    # conullity-two family: the single nonflat plane carries all the curvature
    assert data.nullity.conullity == 2
    assert data.nonflat_plane_curvature is not None
    assert abs(data.nonflat_plane_curvature - data.half_trace) < 1e-10


def test_curvature_data_flat_space():
    data = curvature_data(catalog_euclidean(3), [0.0, 0.0, 0.0])
    assert data.nullity.conullity == 0
    assert data.nonflat_plane_curvature is None
    assert np.allclose(data.rdown, 0.0, atol=1e-14)
    assert np.array_equal(data.christoffel, np.zeros((3, 3, 3)))


def test_pointwise_scalar_formula_sekigawa():
    # closed form: -p_uu / p is the nonflat plane curvature, i.e. half the
    # scalar trace for this family
    metric = catalog_sekigawa("2+u*u+u*u*u")
    rng = np.random.default_rng(5)
    for _ in range(5):
        pt = rng.uniform(-0.8, 0.8, 3)
        u = pt[1]
        p = 2 + u**2 + u**3
        p_uu = 2 + 6 * u
        data = curvature_data(metric, pt)
        assert abs(data.half_trace - (-p_uu / p)) < 1e-10
        assert abs(data.scalar_trace - (-2.0 * p_uu / p)) < 1e-10


def test_pointwise_scalar_formula_conullity3():
    metric = catalog_conullity3("3+cos(u)+cos(w)")
    rng = np.random.default_rng(6)
    for _ in range(5):
        pt = rng.uniform(-0.8, 0.8, 4)
        u, w = pt[1], pt[3]
        p = 3 + math.cos(u) + math.cos(w)
        p_uu = -math.cos(u)
        p_ww = -math.cos(w)
        expected = -2.0 * (p_uu + p_ww) / p
        assert abs(scalar_curvature(metric, pt) - expected) < 1e-10


def _range_cases():
    """(label, metric, point) at the stdout-digest points, plus two more charts."""
    return (
        ("euclidean", catalog_euclidean(3), [0.1, -0.2, 0.3]),
        ("sphere", catalog_sphere(2.0), [1.1, 0.4]),
        ("polar", catalog_polar(), [1.3, 0.7]),
        ("product", catalog_product(catalog_sphere(1.0), catalog_euclidean(2)), [1.0, 0.5, 0.2, -0.1]),
        ("sekigawa", catalog_sekigawa("exp(u)"), [0.2, -0.3, 0.1]),
        ("conullity3", catalog_conullity3("3+cos(u)+cos(w)"), [0.1, 0.2, -0.3, 0.4]),
        ("concave", catalog_conullity3("4-u*u-w*w"), [0.1, 0.2, -0.3, 0.4]),
        ("euclidean1", catalog_euclidean(1), [0.3]),
        ("sphere2", catalog_product(catalog_sphere(1.0), catalog_sphere(1.0)), [1.0, 0.5, 1.2, -0.1]),
    )


def test_sectional_range_closed_forms():
    # the curved planes of the warped families have curvature -p_uu/p and
    # -p_ww/p; a kernel adds the planes through it, at curvature 0
    p3 = 3.0 + math.cos(0.2) + math.cos(0.4)
    expected = {
        "euclidean": (0.0, 0.0),
        "sphere": (0.25, 0.25),
        "polar": (0.0, 0.0),
        "product": (0.0, 1.0),
        "sekigawa": (-1.0, 0.0),
        "conullity3": (0.0, math.cos(0.2) / p3),
        "concave": (0.0, 2.0 / (4.0 - 0.2**2 - 0.4**2)),
    }
    for label, metric, pt in _range_cases():
        lo, hi = sectional_range(curvature_data(metric, pt))
        if label in ("euclidean1", "sphere2"):  # no planes; a 4-dim complement
            assert (lo, hi) == (None, None), label
            continue
        assert abs(lo - expected[label][0]) <= 1e-12, label
        assert abs(hi - expected[label][1]) <= 1e-12, label
    lo, _ = sectional_range(curvature_data(catalog_conullity3("3+cos(u)+cos(w)"), [0.1, 0.2, -0.3, 0.4]))
    assert abs(lo) <= 1e-15


def test_sectional_range_bounds_random_planes():
    rng = np.random.default_rng(41)
    for label, metric, pt in _range_cases():
        lo, hi = sectional_range(curvature_data(metric, pt))
        if lo is None:
            continue
        tol = 1e-9 * max(1.0, abs(lo), abs(hi))
        g = metric.g(pt)
        checked = 0
        while checked < 200:
            X, Y = rng.standard_normal((2, metric.dim))
            gxx, gyy, gxy = X @ g @ X, Y @ g @ Y, X @ g @ Y
            if gxx * gyy - gxy * gxy <= 1e-6 * gxx * gyy:
                continue
            checked += 1
            k = sectional(metric, pt, X, Y)
            assert lo - tol <= k <= hi + tol, (label, k, lo, hi)


def _eigen_planes(rdown, frame):
    """(eigenvalue, X, Y): one spanning pair per curvature-operator eigenvector."""
    rh = np.einsum("ijkl,ai,bj,ck,dl->abcd", rdown, frame, frame, frame, frame)
    pairs = [(a, b) for a in range(len(frame)) for b in range(a + 1, len(frame))]
    op = np.array([[rh[a, b, d, c] for c, d in pairs] for a, b in pairs])
    values, vectors = np.linalg.eigh(op)
    planes = []
    for lam, w in zip(values, vectors.T):
        if frame.shape[0] == 2:
            coeffs = np.eye(2)
        else:
            # w on e0^e1, e0^e2, e1^e2; its plane is orthogonal to the Hodge dual
            dual = np.array([w[2], -w[1], w[0]])
            coeffs = np.linalg.svd(dual[None, :])[2][1:]
        planes.append((lam, coeffs[0] @ frame, coeffs[1] @ frame))
    return planes


def test_sectional_range_ends_are_reached():
    for label, metric, pt in _range_cases():
        data = curvature_data(metric, pt)
        lo, hi = sectional_range(data)
        frame = data.complement
        if lo is None or frame.shape[0] < 2:
            continue
        reached = []
        for lam, X, Y in _eigen_planes(data.rdown, frame):
            k = sectional(metric, pt, X, Y)
            assert abs(k - lam) <= 1e-12, label
            reached.append(k)
        if data.nullity.nullity:
            reached.append(sectional(metric, pt, data.nullity.basis[0], frame[0]))
        assert abs(min(reached) - lo) <= 1e-12, label
        assert abs(max(reached) - hi) <= 1e-12, label


@pytest.mark.parametrize(
    "metric, low, high",
    [
        (catalog_conullity3("3.2+cos(0.7*u)+cos(1.1*w)"), [-0.9] * 4, [0.9] * 4),
        (catalog_sekigawa("2+sin(x)+u*u"), [-0.9] * 3, [0.9] * 3),
        (catalog_sphere(1.7), [0.3, -3.0], [2.8, 3.0]),
        (catalog_product(catalog_sphere(1.0), catalog_euclidean(4)), [0.3] + [-0.9] * 5, [2.8] + [0.9] * 5),
    ],
    ids=["conullity3", "sekigawa", "sphere", "product6"],
)
def test_plane_operator_is_the_einsums_entries_bitwise(metric, low, high):
    # sectional_range's operator: only the pair entries of the five-operand
    # einsum, each summed in R's memory order, which _riemann_parts leaves
    # other than C order; a C-ordered copy of R sums in its own order
    pts = np.random.default_rng(47).uniform(low, high, (100, metric.dim))
    checked = 0
    for pt in pts:
        data = curvature_data(metric, pt)
        frame = data.complement
        if frame.shape[0] >= 4:
            continue
        assert not data.rdown.flags.c_contiguous
        a, b = _PAIRS[frame.shape[0]]
        for rdown in (data.rdown, np.ascontiguousarray(data.rdown)):
            rh = np.einsum("ijkl,ai,bj,ck,dl->abcd", rdown, frame, frame, frame, frame)
            assert _plane_operator(rdown, frame).tobytes() == rh[a[:, None], b[:, None], b, a].tobytes()
        checked += 1
    assert checked == len(pts)


@pytest.mark.parametrize(
    "metric, low",
    [
        (catalog_conullity3("3+cos(u)+cos(w)"), [-0.9] * 4),
        (catalog_sekigawa("exp(u)"), [-0.9] * 3),
        (catalog_product(catalog_sphere(1.0), catalog_euclidean(2)), [0.3, -0.9, -0.9, -0.9]),
    ],
    ids=["conullity3", "sekigawa", "product"],
)
def test_riemann_of_a_stack_is_each_point_bitwise(metric, low):
    # leading axes of the jet are a batch; a single point is the batch of no axes
    pts = np.random.default_rng(31).uniform(low, 0.9, (200, metric.dim))
    jets = [metric.jet(p) for p in pts]
    stacked = _riemann_from_jet(*(np.array(a) for a in zip(*jets)))
    for i, jet in enumerate(jets):
        for many, one in zip(stacked, _riemann_from_jet(*jet)):
            assert many[i].tobytes() == one.tobytes()
