import itertools
import math
import traceback
import warnings

import numpy as np
import pytest

from geonull.exprcalc import DomainError, parse
from geonull.metricspace import (
    CATALOG,
    ChartDomainError,
    MetricField,
    catalog_conullity3,
    catalog_euclidean,
    catalog_polar,
    catalog_product,
    catalog_sekigawa,
    catalog_sphere,
)
from oracles import fd_jet, finite_difference_field


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
    assert (fd.name, fd.max_order) == ("fd(sekigawa(p=exp(u)))", 2)
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


# ---------------------------------------------------------------------------
# stacked jets


def _user_field() -> MetricField:
    """A user chart, r > 0.2 in (r, s), with g = diag(1 + s^2, r^2); no stacked form."""

    def jet(x, order):
        r, s = x
        dg = np.zeros((2, 2, 2))
        dg[0, 0, 1], dg[1, 1, 0] = 2.0 * s, 2.0 * r
        d2g = np.zeros((2,) * 4)
        d2g[0, 0, 1, 1], d2g[1, 1, 0, 0] = 2.0, 2.0
        return (np.diag([1.0 + s * s, r * r]), dg, d2g)[: order + 1]

    return MetricField(2, ("r", "s"), jet, domain=lambda x: x[0] > 0.2, name="user")


STACKED_FIELDS = FAMILIES + [
    (finite_difference_field(catalog_sekigawa("exp(u)")), [0.2, -0.1, 0.4]),
    (_user_field(), [0.7, 0.3]),
]
STACKED_IDS = FAMILY_IDS + ["finite_difference", "user"]


def _assert_jets_are_jet(metric, points, order, check=True):
    """``metric.jets`` is ``metric.jet`` at each point: the same bits, or the same error."""
    arrays, faults = metric.jets(points, order=order, check=check)
    assert len(arrays) == order + 1
    assert list(faults) == sorted(faults)
    for i, pt in enumerate(points):
        try:
            jet = metric.jet(pt, order=order, check=check)
        except Exception as exc:
            assert (type(faults.get(i)), str(faults.get(i))) == (type(exc), str(exc)), i
            assert all(np.isnan(a[i]).all() for a in arrays)
            continue
        assert i not in faults, (i, faults.get(i))
        for a, b in zip(arrays, jet):
            assert a[i].tobytes() == b.tobytes(), i
    return faults


@pytest.mark.parametrize("metric, point", STACKED_FIELDS, ids=STACKED_IDS)
def test_jets_are_each_points_jet_bitwise(metric, point):
    rng = np.random.default_rng(metric.dim)
    # near the family's point, with signed zeros, a repeat and one point off the chart
    points = point + rng.uniform(-0.3, 0.3, size=(12, metric.dim))
    points[3] = point
    points[4] = points[2]
    points[5, -1] = -0.0
    points[6, 0] = 0.0
    points[7] = -1e3
    assert metric.stacked == metric.name.startswith(("sekigawa", "conullity3"))
    for order in range(1, metric.max_order + 1):
        for check in (True, False):
            if metric.name == "user" and not check:
                continue  # a user field's jet is not defined off its chart
            _assert_jets_are_jet(metric, points, order, check)
    assert metric.contains_each(points).tolist() == [metric.contains(pt) for pt in points]


def test_jets_keep_each_fault_with_its_point():
    nan, inf = math.nan, math.inf
    metric = catalog_sekigawa("2+log(u)")
    points = np.array([
        [0.1, 0.5, 0.2],  # inside
        [0.1, -0.5, 0.2],  # log of a negative: the kernel raises
        [0.1, 0.0, 0.2],  # log(0)
        [0.1, 1e-200, 0.2],  # p far below the floor; d2/du2 log(u) divides by an underflowed zero
        [0.1, 2.0, 5.0],  # outside the box
        [nan, 0.5, 0.2],  # non-finite, where p reads it
        [0.1, 0.5, inf],  # non-finite, where p does not read it
        [-0.2, 2.5, -0.1],  # inside
    ])
    for order in (1, 2, 3):
        for check in (True, False):
            faults = _assert_jets_are_jet(metric, points, order, check)
            # unchecked, the infinite v raises RuntimeWarning (an error under this suite) in I + affine @ x
            assert list(faults) == ([1, 2, 3, 4, 5, 6] if check else [1, 2, 3, 5, 6])
            if not check:
                assert "non-finite coordinate x" in str(faults[5])
    assert metric.contains_each(points[[0, 3, 4, 5, 6, 7]]).tolist() == [True, False, False, False, False, True]
    with pytest.raises(DomainError):  # contains raises there, so contains_each does too
        metric.contains_each(points[:2])


def test_jets_call_the_warp_kernel_once_per_distinct_argument(monkeypatch):
    # p's argument is (x, u); a point that differs only in v repeats it.  At
    # x = +-0.0 the kernel's gradient differs in sign, so the two share no row
    metric = catalog_sekigawa("sqrt(cos(x))")
    expr = metric.annotations["p_expression"]
    points = np.array([
        [0.0, 1.5, 0.1],
        [0.0, 1.5, -0.2],  # repeats point 0's argument
        [-0.0, 1.5, 0.1],  # point 0's argument but for the sign of x
        [2.0, -0.5, 0.1],  # sqrt of a negative: the kernel raises
        [2.0, -0.5, 0.7],  # the same argument raises again
        [1.5707963, 0.2, 0.1],  # p = 1.6e-4 is below the floor
        [1.5707963, 0.2, -0.4],
        [-0.0, 1.5, 2.0],
        [0.3, 1.5, 5.0],  # outside the box, an argument no other point has so far
        [0.3, 1.5, 0.0],
    ])
    distinct = [(0.0, 1.5), (-0.0, 1.5), (2.0, -0.5), (1.5707963, 0.2), (0.3, 1.5)]
    assert expr.jet2(points[0][:2]).gradient.tobytes() != expr.jet2(points[2][:2]).gradient.tobytes()
    calls = []
    for name in ("_jet_kernel", "_jet3_kernel", "_value_kernel"):
        kernel = getattr(expr, name)
        monkeypatch.setitem(vars(expr), name, lambda *x, kernel=kernel: calls.append(x) or kernel(*x))
    for order in (1, 2, 3):
        for check in (True, False):
            calls.clear()
            metric._stacked.jets(points, order, check)
            assert [np.array(x).tobytes() for x in calls] == [np.array(x).tobytes() for x in distinct]
            faults = _assert_jets_are_jet(metric, points, order, check)
            assert list(faults) == ([3, 4, 5, 6, 8] if check else [3, 4])
    calls.clear()
    assert metric.contains_each(points[[0, 1, 2, 5, 6, 7, 8, 9]]).tolist() == [1, 1, 1, 0, 0, 1, 0, 1]
    assert [np.array(x).tobytes() for x in calls] == [np.array(x).tobytes() for x in [distinct[i] for i in (0, 1, 3, 4)]]
    with pytest.raises(DomainError, match="sqrt of non-positive value"):  # the first argument that raises
        metric.contains_each(points)


def test_jets_look_up_the_warp_kernel_once_per_run_of_repeated_arguments(monkeypatch):
    # p's argument is (x, u), with runs A A | B B | A | A- | B | A: A- is A
    # but for the sign of x, kept apart; the kernel raises at B
    metric = catalog_sekigawa("sqrt(cos(x))")
    expr = metric.annotations["p_expression"]
    a, a_minus, b = (0.0, 1.5), (-0.0, 1.5), (2.0, -0.5)
    args = [a, a, b, b, a, a_minus, b, a]
    points = np.array([[*arg, 0.1 * i] for i, arg in enumerate(args)])
    calls = []
    for name in ("_jet_kernel", "_jet3_kernel", "_value_kernel"):
        kernel = getattr(expr, name)
        monkeypatch.setitem(vars(expr), name, lambda *x, kernel=kernel: calls.append(x) or kernel(*x))
    for order in (1, 2, 3):
        for check in (True, False):
            calls.clear()
            _, outside, alone = metric._stacked.jets(points, order, check)
            assert [np.array(x).tobytes() for x in calls] == [np.array(x).tobytes() for x in (a, b, a_minus)]
            assert alone.tolist() == [arg == b for arg in args] and not outside.any()
            assert list(_assert_jets_are_jet(metric, points, order, check)) == [2, 3, 6]
    # a scan-shaped stack: every argument distinct, one kernel call each, in order
    grid = np.array([[x, u, 0.2] for x in (-0.6, -0.2, 0.2, 0.6) for u in (-1.0, -0.3, 0.3, 1.0)])
    for order in (1, 2, 3):
        calls.clear()
        _, outside, alone = metric._stacked.jets(grid, order, True)
        assert [np.array(x).tobytes() for x in calls] == [row[:2].tobytes() for row in grid]
        assert not (outside.any() or alone.any())
        assert not _assert_jets_are_jet(metric, grid, order)


def test_jets_keep_the_jet_of_a_coordinate_that_only_warns():
    # p does not read v, so an infinite v only warns in I + affine @ x: jet returns NaN-laden arrays
    metric = catalog_sekigawa("2+u*u")
    points = np.array([[0.1, 0.5, math.inf], [0.1, 0.5, 0.2], [math.nan, 0.5, 0.2]])
    with warnings.catch_warnings(), np.errstate(all="warn"):
        warnings.simplefilter("ignore", RuntimeWarning)
        for order in (1, 2, 3):
            faults = _assert_jets_are_jet(metric, points, order, check=False)
            assert list(faults) == [2]  # p reads x, so the NaN x raises
        # 0 * inf leaves g, dg and d2g NaN, but not all of d3g
        assert not np.isnan(metric.jets(points, order=3, check=False)[0][3][0]).all()


def test_only_a_coframe_jet_on_its_own_domain_is_stacked():
    metric = catalog_conullity3("3+cos(u)+cos(w)")
    coframe = metric._jet
    assert MetricField(4, metric.coordinates, coframe, domain=coframe.inside, max_order=3).stacked
    # a narrower domain than the coframe's own chart must be tested, and jetted, point by point
    narrow = MetricField(4, metric.coordinates, coframe, domain=lambda x: x[1] > 0.0, max_order=3)
    assert not narrow.stacked
    points = np.array([[0.1, 0.2, 0.3, 0.4], [0.1, -0.2, 0.3, 0.4]])
    for order in (1, 2, 3):
        assert list(_assert_jets_are_jet(narrow, points, order)) == [1]
    assert narrow.contains_each(points).tolist() == [True, False]


def test_jets_fault_only_where_the_third_derivative_underflows():
    # d^3/du^3 sqrt(u) = 0.375 u^-5/2 divides by an underflowed zero at u = 1e-200
    metric = catalog_sekigawa("sqrt(u)")
    points = np.array([[0.0, 1e-200, 0.0], [0.0, 0.5, 0.0], [0.0, 2.0, 1.0]])
    for order in (1, 2, 3):
        faults = _assert_jets_are_jet(metric, points, order, check=False)
        assert list(faults) == ([0] if order == 3 else [])
        assert list(_assert_jets_are_jet(metric, points, order)) == [0]  # p = 1e-100 is below the floor
    with pytest.raises(DomainError, match="division by an underflowed zero"):
        metric.jet(points[0], order=3, check=False)


def test_jets_redo_a_float_fault_point_by_point():
    metric = catalog_sekigawa("1e300*u*u+1")
    points = np.array([[0.1, 0.0, 0.2], [0.1, 1.0, 0.2], [0.3, -0.0, -0.5]])  # p^2 overflows at u = 1
    calls = []
    real = metric._stacked.jets

    def counted(pts, order, check):
        calls.append(len(pts))
        return real(pts, order, check)

    metric._stacked.jets = counted
    with np.errstate(all="raise"):
        for order in (1, 2, 3):
            faults = _assert_jets_are_jet(metric, points, order)
            assert list(faults) == [1] and isinstance(faults[1], FloatingPointError)
            # the fault is raised where jet raises it
            assert traceback.extract_tb(faults[1].__traceback__)[-1].name == "__call__"
    assert calls == [3, 3, 3]
    # without the float errors raised, the same stack is one stacked call and no fault
    with np.errstate(all="ignore"):
        assert not metric.jets(points, order=1)[1]


def test_jets_validate_order_and_shape():
    metric = catalog_conullity3("3+cos(u)+cos(w)")
    with pytest.raises(ValueError):
        metric.jets(np.zeros((2, 4)), order=4)
    with pytest.raises(ValueError):
        metric.jets(np.zeros(4))
    with pytest.raises(ValueError):
        metric.jets(np.zeros((2, 3)))
    arrays, faults = metric.jets(np.zeros((0, 4)), order=3)
    assert [a.shape for a in arrays] == [(0, 4, 4), (0,) + (4,) * 3, (0,) + (4,) * 4, (0,) + (4,) * 5]
    assert faults == {}


# a benchmark-shaped warp, and exp(cos(x)), whose x-derivative at x = +0.0 is
# -0.0: there the dx-derivative entries of half sum four -0.0 products, which
# only the leading 0.0 + turns into +0.0, as the einsum does
COFRAME_WARPS = [
    (catalog_conullity3, "3.1+cos(0.9*u)+cos(1.2*w)", [0.0, -1.0, 0.0, 0.5]),
    (catalog_conullity3, "exp(cos(x))", [0.0, -1.0, 0.0, 0.5]),
    (catalog_sekigawa, "3.1+cos(0.9*u)+cos(1.2*x)", [0.0, -1.0, 0.5]),
    (catalog_sekigawa, "exp(cos(x))", [0.0, -1.0, 0.5]),
]
COFRAME_IDS = ["conullity3", "conullity3_signed_sum", "sekigawa", "sekigawa_signed_sum"]


def _coframe_stacks(n: int, warp, special, m: int):
    """Stacks of m points: signed zeros on a grid, and random points with distinct and with repeated warp arguments."""
    rng = np.random.default_rng(m)
    grid = np.array(list(itertools.product([0.0, -0.0, 0.5, -1.0], repeat=n)))
    signed = np.concatenate([[special], grid, rng.uniform(-1.5, 1.5, (m, n))])[:m]
    distinct = rng.uniform(-1.5, 1.5, (m, n))
    repeated = distinct.copy()
    repeated[:, warp] = signed[0, warp]  # one warp argument, the points apart in v
    return {"signed": signed, "distinct": distinct, "repeated": repeated}


@pytest.mark.parametrize("m", [1, 8, 16, 257])
@pytest.mark.parametrize("family, warp, special", COFRAME_WARPS, ids=COFRAME_IDS)
def test_stacked_coframe_jets_contract_only_the_nonzero_column_to_the_points_bits(family, warp, special, m):
    coframe = family(warp)._stacked
    assert coframe.columns.tolist() == [0]  # dx, the warp entry's column
    for kind, pts in _coframe_stacks(coframe.n, coframe.warp, special, m).items():
        for order in (1, 2, 3):
            arrays, outside, alone = coframe.jets(pts, order, check=False)
            assert not (outside.any() or alone.any())
            for i, pt in enumerate(pts):
                for a, want in zip(arrays, coframe(pt, order)):
                    assert a[i].tobytes() == want.tobytes(), (kind, order, pt)


@pytest.mark.parametrize("family", [catalog_conullity3, catalog_sekigawa])
def test_coframe_half_keeps_the_einsums_nan_pattern_and_raises_nothing(family):
    coframe = family("2+u*u")._stacked
    n, rng = coframe.n, np.random.default_rng(19)
    for m in (1, 8, 16, 257):
        B = np.eye(n) + (coframe.affine @ rng.uniform(-1.5, 1.5, (m, 1, n, 1)))[..., 0]
        B[:, 0, 0] = rng.uniform(1.0, 3.0, m)
        dB = np.repeat(coframe.affine[None], m, axis=0)
        dB[:, 0, 0, coframe.warp] = rng.uniform(-1.0, 1.0, (m, coframe.warp.size))
        for value in (np.inf, -np.inf, np.nan):
            point, a, j = rng.integers(m), rng.integers(n), rng.integers(n)
            entries = [(B, (point, a, j)), (B, (point, 0, 0)), (dB, (point, 0, 0, coframe.warp[-1]))]
            for array, at in entries:
                b, db = B.copy(), dB.copy()
                (b if array is B else db)[at] = value
                with np.errstate(all="raise"):  # as the command line sets it
                    got = coframe._half(b, db[:, 0, 0, coframe.warp])  # the warp entry's gradient
                with np.errstate(all="ignore"):
                    want = np.einsum("maik,maj->mijk", db, b)
                assert np.isnan(want).any()
                assert got.tobytes() == want.tobytes(), (m, value, at)
