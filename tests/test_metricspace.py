import math

import numpy as np
import pytest

from geonull.exprcalc import parse
from geonull.metricspace import (
    CATALOG,
    ChartDomainError,
    MetricField,
    Provenance,
    catalog_conullity3,
    catalog_euclidean,
    catalog_polar,
    catalog_product,
    catalog_sekigawa,
    catalog_sphere,
    fd_jet,
    finite_difference_field,
)


def sekigawa_metric_by_hand(p_fn, x, u, v):
    # expanding (p dx)^2 + (du - v dx)^2 + (dv + u dx)^2 by hand
    p = p_fn(x, u)
    g = np.eye(3)
    g[0, 0] = p * p + v * v + u * u
    g[0, 1] = g[1, 0] = -v
    g[0, 2] = g[2, 0] = u
    return g


def conullity3_metric_by_hand(p_fn, x, u, v, w):
    p = p_fn(x, u, w)
    g = np.eye(4)
    g[0, 0] = p * p + (v + w) ** 2 + (u + w) ** 2 + (v - u) ** 2
    g[0, 1] = g[1, 0] = -(v + w)
    g[0, 2] = g[2, 0] = u + w
    g[0, 3] = g[3, 0] = -(v - u)
    return g


def test_sekigawa_matches_hand_expansion():
    metric = catalog_sekigawa("2+u*u")
    rng = np.random.default_rng(3)
    for _ in range(10):
        x, u, v = rng.uniform(-1.5, 1.5, 3)
        expected = sekigawa_metric_by_hand(lambda a, b: 2 + b * b, x, u, v)
        assert np.allclose(metric.g([x, u, v]), expected, atol=1e-14)


def test_conullity3_matches_hand_expansion():
    metric = catalog_conullity3("3+cos(u)+cos(w)")
    rng = np.random.default_rng(4)
    for _ in range(10):
        x, u, v, w = rng.uniform(-1.5, 1.5, 4)
        expected = conullity3_metric_by_hand(
            lambda a, b, c: 3 + math.cos(b) + math.cos(c), x, u, v, w
        )
        assert np.allclose(metric.g([x, u, v, w]), expected, atol=1e-14)


@pytest.mark.parametrize(
    "build",
    [
        lambda: catalog_sekigawa("exp(u)"),
        lambda: catalog_conullity3("3+cos(u)+cos(w)"),
        lambda: catalog_sphere(1.5),
        lambda: catalog_polar(),
    ],
)
def test_analytic_jets_match_finite_differences(build):
    metric = build()
    rng = np.random.default_rng(17)
    for _ in range(4):
        if metric.name.startswith("sphere"):
            pt = np.array([rng.uniform(0.5, math.pi - 0.5), rng.uniform(-1.0, 1.0)])
        elif metric.name == "polar":
            pt = np.array([rng.uniform(0.5, 2.0), rng.uniform(-1.0, 1.0)])
        else:
            pt = rng.uniform(-1.0, 1.0, metric.dim)
        g, dg, d2g = metric.jet(pt)
        g_fd, dg_fd, d2g_fd = fd_jet(metric, pt)
        assert np.allclose(g, g_fd, atol=1e-14)
        assert np.allclose(dg, dg_fd, atol=1e-6)
        assert np.allclose(d2g, d2g_fd, atol=5e-4)


def test_jet_symmetries_are_exact():
    metric = catalog_conullity3("3+cos(u)+cos(w)")
    pt = np.array([0.3, -0.7, 0.2, 0.9])
    g, dg, d2g = metric.jet(pt)
    assert np.array_equal(g, g.T)
    assert np.array_equal(dg, dg.transpose(1, 0, 2))
    assert np.array_equal(d2g, d2g.transpose(1, 0, 2, 3))
    assert np.array_equal(d2g, d2g.transpose(0, 1, 3, 2))


def test_jet_order_one_matches_order_two_prefix():
    metric = catalog_sekigawa("exp(u)")
    pt = np.array([0.1, 0.2, -0.3])
    g1, dg1 = metric.jet(pt, order=1)
    g2, dg2, _ = metric.jet(pt, order=2)
    assert np.array_equal(g1, g2)
    assert np.array_equal(dg1, dg2)
    with pytest.raises(ValueError):
        metric.jet(pt, order=4)
    with pytest.raises(ValueError):  # a finite-difference field has 2-jets only
        finite_difference_field(metric).jet(pt, order=3)


# the six families, each at a point inside its chart
FAMILIES = [
    (catalog_euclidean(3), [0.1, -0.2, 0.3]),
    (catalog_sphere(1.3), [1.1, 0.4]),
    (catalog_polar(), [1.3, 0.7]),
    (catalog_product(catalog_sphere(1.0), catalog_euclidean(2)), [1.0, 0.5, 0.2, -0.1]),
    (catalog_sekigawa("exp(u)*(2+sin(x*u))"), [0.2, -0.3, 0.1]),
    (catalog_conullity3("3+cos(u)+cos(w)+0.3*x*u*w"), [0.1, 0.2, -0.3, 0.4]),
]
FAMILY_IDS = ["euclidean", "sphere", "polar", "product", "sekigawa", "conullity3"]


@pytest.mark.parametrize("metric, point", FAMILIES, ids=FAMILY_IDS)
def test_third_order_jet_prefix_is_the_second_order_jet_bitwise(metric, point):
    assert metric.max_order == 3
    jet3 = metric.jet(point, order=3)
    jet2 = metric.jet(point)
    assert len(jet3) == 4 and jet3[3].shape == (metric.dim,) * 5
    for a, b in zip(jet3[:3], jet2):
        assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("metric, point", FAMILIES, ids=FAMILY_IDS)
def test_third_order_jets_match_differences_of_the_hessian(metric, point):
    d3g = metric.jet(point, order=3)[3]
    h = 1e-5
    for m in range(metric.dim):
        step = h * np.eye(metric.dim)[m]
        fd = (metric.jet(np.add(point, step))[2] - metric.jet(np.subtract(point, step))[2]) / (2 * h)
        assert np.allclose(d3g[..., m], fd, atol=1e-8 * max(1.0, np.abs(d3g).max()))
    # symmetric in the pair (i, j) exactly and in the derivative slots to rounding
    assert np.array_equal(d3g, d3g.transpose(1, 0, 2, 3, 4))
    for axes in ((0, 1, 3, 2, 4), (0, 1, 2, 4, 3), (0, 1, 4, 3, 2)):
        assert np.allclose(d3g, d3g.transpose(axes), rtol=0, atol=1e-13 * max(1.0, np.abs(d3g).max()))


def test_max_order_records_third_order_support():
    sek = catalog_sekigawa("exp(u)")
    user = MetricField(2, ("a", "b"), lambda x, order: (np.eye(2), np.zeros((2, 2, 2)), np.zeros((2,) * 4))[: order + 1])
    assert (sek.max_order, finite_difference_field(sek).max_order, user.max_order) == (3, 2, 2)
    assert catalog_product(catalog_sphere(1.0), finite_difference_field(catalog_euclidean(2))).max_order == 2
    with pytest.raises(AttributeError):
        sek.max_order = 2
    with pytest.raises(ValueError):
        MetricField(2, ("a", "b"), user._jet, max_order=4)


@pytest.mark.parametrize("metric, point", FAMILIES, ids=FAMILY_IDS)
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_every_chart_rejects_non_finite_points(metric, point, bad):
    assert metric.contains(point)
    for axis in range(metric.dim):
        pt = list(point)
        pt[axis] = bad
        assert not metric.contains(pt)
        with pytest.raises(ChartDomainError):
            metric.jet(pt, order=3)
        with pytest.raises(ChartDomainError):
            metric.g(pt)


def test_domain_enforcement():
    metric = catalog_sphere(1.0)
    with pytest.raises(ChartDomainError):
        metric.g([0.0, 0.0])
    metric = catalog_sekigawa("u")  # p <= 0 on half the chart
    with pytest.raises(ChartDomainError):
        metric.g([0.0, -0.5, 0.0])
    assert metric.contains([0.0, 0.5, 0.0])
    box = catalog_conullity3("3+cos(u)+cos(w)")
    assert not box.contains([3.5, 0.0, 0.0, 0.0])


@pytest.mark.parametrize(
    "metric, axis",
    [
        (catalog_conullity3("3+cos(u)+cos(w)"), 2),  # v, the kernel coordinate p does not read
        (catalog_conullity3("3+cos(u)+cos(w)"), 1),
        (catalog_sekigawa("2+u*u"), 2),  # v, which p does not read
        (catalog_sekigawa("2+u*u"), 0),
    ],
)
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_warped_charts_reject_non_finite_points(metric, axis, bad):
    point = [0.0] * metric.dim
    point[axis] = bad
    assert not metric.contains(point)
    with pytest.raises(ChartDomainError):
        metric.jet(point)
    with pytest.raises(ChartDomainError):
        metric.g(point)


def test_point_shape_validation():
    metric = catalog_euclidean(3)
    with pytest.raises(ValueError):
        metric.g([0.0, 0.0])


def test_product_blocks_and_coordinates():
    a = catalog_sphere(1.0)
    b = catalog_euclidean(2)
    prod = catalog_product(a, b)
    assert prod.dim == 4
    assert prod.coordinates == ("theta", "phi", "x0", "x1")
    pt = np.array([1.2, 0.4, 0.5, -0.5])
    g, dg, d2g = prod.jet(pt)
    assert np.allclose(g[:2, 2:], 0.0)
    assert np.allclose(g[2:, 2:], np.eye(2))
    assert np.allclose(dg[2:, 2:, :], 0.0)
    ga, dga, d2ga = a.jet(pt[:2])
    assert np.array_equal(g[:2, :2], ga)
    assert np.array_equal(dg[:2, :2, :2], dga)
    assert np.array_equal(d2g[:2, :2, :2, :2], d2ga)


def test_product_renames_colliding_coordinates():
    prod = catalog_product(catalog_euclidean(1), catalog_euclidean(1))
    assert prod.coordinates == ("x0", "x0_b")
    assert np.array_equal(prod.g([0.3, -0.4]), np.eye(2))


def test_product_dimension_cap():
    with pytest.raises(ValueError):
        catalog_product(catalog_euclidean(4), catalog_euclidean(3))


def test_finite_difference_field_wrapper():
    base = catalog_sekigawa("exp(u)")
    fd = finite_difference_field(base, h=2e-4)
    assert fd.provenance == Provenance("finite-difference", 2e-4)
    pt = np.array([0.2, -0.1, 0.4])
    g, dg, d2g = fd.jet(pt)
    gb, dgb, d2gb = base.jet(pt)
    assert np.allclose(g, gb, atol=1e-14)
    assert np.allclose(dg, dgb, atol=1e-6)
    assert np.allclose(d2g, d2gb, atol=5e-4)


def test_fd_jet_near_boundary_raises():
    metric = catalog_sphere(1.0)
    with pytest.raises(ChartDomainError):
        fd_jet(metric, [0.10005, 0.0], h=2e-4)


def test_preferred_frame_is_g_orthonormal_and_kernel_orthogonal():
    metric = catalog_conullity3("3+cos(u)+cos(w)")
    rng = np.random.default_rng(8)
    for _ in range(6):
        pt = rng.uniform(-1.2, 1.2, 4)
        frame = metric.preferred_frame(pt)
        g = metric.g(pt)
        gram = frame @ g @ frame.T
        assert np.allclose(gram, np.eye(3), atol=1e-12)
        e_v = np.array([0.0, 0.0, 1.0, 0.0])
        assert np.allclose(frame @ g @ e_v, 0.0, atol=1e-12)


def test_preferred_frame_middle_row_is_coframe_dual():
    # the second frame vector must be dual to the first coframe form:
    # its p dx component is 1 and the other three forms vanish on it
    metric = catalog_conullity3("1+u*u+w*w")
    pt = np.array([0.5, -0.3, 0.8, 0.4])
    u, v, w = pt[1], pt[2], pt[3]
    p = 1 + u * u + w * w
    coframe = np.array([
        [p, 0.0, 0.0, 0.0],
        [-(v + w), 1.0, 0.0, 0.0],
        [u + w, 0.0, 1.0, 0.0],
        [-(v - u), 0.0, 0.0, 1.0],
    ])
    frame = metric.preferred_frame(pt)
    assert np.allclose(coframe @ frame[1], [1.0, 0.0, 0.0, 0.0], atol=1e-12)


def test_expression_variable_contract():
    with pytest.raises(ValueError):
        catalog_sekigawa(parse("x+y", ("x", "y")))
    expr = parse("2+u*u", ("x", "u"))
    metric = catalog_sekigawa(expr)
    assert metric.annotations["p_expression"] is expr


def test_catalog_registry_is_complete():
    assert set(CATALOG) == {"euclidean", "sphere", "polar", "product", "sekigawa", "conullity3"}
    for entry in CATALOG.values():
        metric = entry.build()
        assert metric.dim >= 1
        assert entry.expectations


def test_catalog_default_points_are_inside_their_charts():
    for entry in CATALOG.values():
        metric = entry.build()
        point = np.zeros(metric.dim)
        point[: len(entry.default_point)] = entry.default_point
        assert metric.contains(point), entry.name
    # the origin is outside these three: the sphere's pole, polar's r = 0
    assert [name for name, e in CATALOG.items() if not e.build().contains(np.zeros(e.build().dim))] == [
        "sphere", "polar", "product"
    ]
