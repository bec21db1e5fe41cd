import math

import numpy as np
import pytest

from geonull.flows import (
    LaunchError,
    flatness_probe,
    geodesic,
    incompleteness_probe,
    nullity_geodesic_check,
    sampled_path,
)
from geonull.metricspace import (
    ChartDomainError,
    catalog_conullity3,
    catalog_euclidean,
    catalog_polar,
    catalog_sekigawa,
    catalog_sphere,
)


def test_polar_geodesic_matches_straight_line():
    # the plane in polar coordinates: geodesics are straight lines, so the
    # unit-speed ray from (r, phi) = (1, 0) with v = (0, 1) is the vertical
    # Cartesian line (1, t)
    metric = catalog_polar()
    path = geodesic(metric, [1.0, 0.0], [0.0, 1.0], tmax=1.0, steps=256)
    assert not path.truncated
    assert np.allclose(path.endpoint, [math.sqrt(2.0), math.pi / 4.0], atol=1e-9)
    for t, pt in zip(path.times[::32], path.points[::32]):
        r_exact = math.hypot(1.0, t)
        phi_exact = math.atan2(t, 1.0)
        assert abs(pt[0] - r_exact) < 1e-9
        assert abs(pt[1] - phi_exact) < 1e-9


def test_sphere_equator_is_a_geodesic():
    metric = catalog_sphere(1.0)
    path = geodesic(metric, [math.pi / 2.0, 0.0], [0.0, 1.0], tmax=1.3, steps=128)
    assert not path.truncated
    assert np.allclose(path.points[:, 0], math.pi / 2.0, atol=1e-12)
    assert np.allclose(path.points[:, 1], path.times, atol=1e-12)


def test_geodesic_conserves_speed():
    metric = catalog_sekigawa("2+sin(x)+u*u")
    path = geodesic(metric, [0.1, 0.2, -0.3], [0.4, 0.5, 0.6], tmax=2.0, steps=512)
    assert not path.truncated
    speeds = [
        v @ metric.g(x) @ v for x, v in zip(path.points[::64], path.velocities[::64])
    ]
    assert np.allclose(speeds, speeds[0], atol=1e-9)


def test_rk4_convergence_order():
    metric = catalog_sekigawa("2+sin(x)+u*u")
    x0, v0 = [0.1, 0.2, -0.3], [0.4, 0.5, 0.6]
    ends = {
        n: geodesic(metric, x0, v0, tmax=2.0, steps=n).endpoint
        for n in (16, 32, 64)
    }
    d1 = np.abs(ends[16] - ends[32]).max()
    d2 = np.abs(ends[32] - ends[64]).max()
    assert 12.0 < d1 / d2 < 20.0


def test_truncation_at_chart_boundary():
    # inward radial ray in the punctured plane hits the r > 0.05 cutoff at
    # t = 0.95
    metric = catalog_polar()
    path = geodesic(metric, [1.0, 0.0], [-1.0, 0.0], tmax=2.0, steps=400)
    assert path.truncated
    assert path.exit_parameter is not None
    assert abs(path.exit_parameter - 0.95) < 0.01
    assert path.times[-1] == path.exit_parameter
    assert metric.contains(path.endpoint)


def test_geodesic_start_outside_domain():
    metric = catalog_polar()
    with pytest.raises(ChartDomainError):
        geodesic(metric, [0.01, 0.0], [1.0, 0.0], tmax=1.0)


def test_geodesic_rejects_empty_parameter_range():
    metric = catalog_euclidean(2)
    with pytest.raises(ValueError, match="tmax"):
        geodesic(metric, [0.0, 0.0], [1.0, 0.0], tmax=0.0)
    with pytest.raises(ValueError, match="steps"):
        geodesic(metric, [0.0, 0.0], [1.0, 0.0], tmax=1.0, steps=0)


def test_geodesic_truncates_at_a_float_overflow():
    # with overflow raising (as the command line sets it) an RK4 stage that
    # overflows ends the path like a step that leaves the chart
    with np.errstate(over="raise", invalid="raise"):
        path = geodesic(catalog_polar(), [1.0, 0.0], [0.0, 1.0], tmax=1e300, steps=2)
    assert path.truncated and path.times.size == 1


def test_sampled_path_endpoints_and_count():
    metric = catalog_euclidean(2)
    path = geodesic(metric, [0.0, 0.0], [1.0, 0.5], tmax=1.0, steps=128)
    times, pts, vels = sampled_path(path, 9)
    assert times.size == 9
    assert times[0] == 0.0 and times[-1] == 1.0
    assert np.array_equal(pts[-1], path.endpoint)
    assert vels.shape == (9, 2)


def test_parallel_transport_matches_velocity_along_geodesic():
    # the velocity of a geodesic is itself parallel: a frame row started at
    # v0 tracks it, and another row keeps its metric pairing with it
    metric = catalog_sekigawa("exp(u)")
    v0 = np.array([0.3, 0.4, 0.5])
    path = geodesic(metric, [0.1, 0.2, -0.3], v0, tmax=1.5, steps=512, frame=[v0, [1.0, -0.5, 0.2]])
    assert not path.truncated
    assert np.allclose(path.frame[-1, 0], path.velocities[-1], atol=1e-8)
    pairing = [w[1] @ metric.g(x) @ v for x, v, w in zip(path.points, path.velocities, path.frame)]
    assert np.allclose(pairing, pairing[0], atol=1e-10)
    assert path.gram_drift < 1e-10


def test_parallel_transport_stack_preserves_gram():
    metric = catalog_conullity3("3+cos(u)+cos(w)")
    path = geodesic(
        metric, [0.1, 0.2, 0.3, -0.1], [0.2, 0.1, 0.8, 0.1], tmax=1.0, steps=256, frame=np.eye(4)
    )
    assert path.frame.shape == (path.times.size, 4, 4)
    assert path.gram_drift < 1e-10
    g0 = metric.g(path.points[0])
    g1 = metric.g(path.endpoint)
    gram0 = path.frame[0] @ g0 @ path.frame[0].T
    gram1 = path.frame[-1] @ g1 @ path.frame[-1].T
    assert np.allclose(gram0, gram1, atol=1e-10)


def test_geodesic_without_frame_carries_an_empty_one():
    path = geodesic(catalog_polar(), [1.0, 0.0], [0.0, 1.0], tmax=1.0, steps=8)
    assert path.frame.shape == (9, 0, 2)
    assert path.gram_drift == 0.0


def test_geodesic_rejects_a_frame_of_the_wrong_width():
    metric = catalog_sphere(1.0)
    with pytest.raises(ValueError, match="frame"):
        geodesic(metric, [1.0, 0.0], [0.0, 1.0], tmax=1.0, frame=[[1.0, 0.0, 0.0]])
    with pytest.raises(ValueError, match="frame"):
        geodesic(metric, [1.0, 0.0], [0.0, 1.0], tmax=1.0, frame=[1.0, 0.0])


@pytest.mark.parametrize("alpha", [0.3, 0.6, 1.0])
def test_sphere_lune_holonomy(alpha):
    # from A = (pi/2, 0) the equator and the great circle tilted north by
    # alpha meet again at the antipode A' = (pi/2, pi) after t = pi; the
    # lune between them has area 2 alpha, so by Gauss-Bonnet the vectors
    # transported along the two sides differ there by a rotation of 2 alpha
    metric = catalog_sphere(1.0)
    start = [math.pi / 2.0, 0.0]
    ends = []
    for v0 in ([0.0, 1.0], [-math.sin(alpha), math.cos(alpha)]):
        path = geodesic(metric, start, v0, tmax=math.pi, steps=512, frame=[[1.0, 0.0]])
        assert not path.truncated
        assert np.max(np.abs(path.endpoint - [math.pi / 2.0, math.pi])) < 1e-9
        ends.append(path.frame[-1, 0])
    # g is the identity at A', so the coordinate angle is the metric angle
    (a0, a1), (b0, b1) = ends
    assert abs(math.atan2(a0 * b1 - a1 * b0, a0 * b0 + a1 * b1) + 2.0 * alpha) < 1e-10


def test_nullity_geodesic_stays_in_kernel():
    metric = catalog_conullity3("3+cos(u)+cos(w)")
    report = nullity_geodesic_check(metric, [0.0, 0.0, 0.0, 0.0], tmax=1.5)
    assert report.constant_nullity
    assert set(report.nullity_values) == {1}
    assert report.max_velocity_misalignment < 1e-8
    assert not report.path.truncated


def test_nullity_geodesic_custom_direction_can_fail():
    metric = catalog_conullity3("3+cos(u)+cos(w)")
    report = nullity_geodesic_check(
        metric, [0.0, 0.0, 0.0, 0.0], direction=[0.0, 1.0, 0.0, 0.0], tmax=1.0
    )
    assert report.max_velocity_misalignment > 0.5


def test_nullity_geodesic_without_launch_velocity():
    metric = catalog_conullity3("3+cos(u)+cos(w)")
    with pytest.raises(LaunchError, match="nonzero"):
        nullity_geodesic_check(metric, [0.0] * 4, direction=[0.0] * 4)
    # a tiny direction is nonzero: it is scaled up before its g-norm underflows
    tiny = nullity_geodesic_check(metric, [0.0] * 4, direction=[0.0, 0.0, 1e-300, 0.0], steps=4)
    unit = nullity_geodesic_check(metric, [0.0] * 4, direction=[0.0, 0.0, 1.0, 0.0], steps=4)
    assert tiny.path.points.tobytes() == unit.path.points.tobytes()
    with pytest.raises(LaunchError, match="trivial"):
        nullity_geodesic_check(catalog_sphere(1.0), [1.0, 0.5], direction=[1.0, 0.0])


def test_flatness_of_model_leaves():
    sek = catalog_sekigawa("exp(u)")
    rep = flatness_probe(sek, [0.2, -0.1, 0.3], ["u", "v"], samples=3, extent=0.4)
    assert rep.coordinates == ("u", "v")
    assert rep.points_checked == 9
    assert rep.max_leaf_curvature == 0.0
    assert rep.max_second_fundamental_form == 0.0

    con = catalog_conullity3("3+cos(u)+cos(w)")
    rep = flatness_probe(con, [0.1, 0.0, 0.0, 0.0], ["u", "v", "w"], samples=3, extent=0.4)
    assert rep.is_flat() and rep.is_totally_geodesic()


def test_flatness_negative_control():
    # a latitude circle off the equator is flat as a 1-dimensional leaf but
    # not totally geodesic; the closed form of its normal curvature is
    # sin(theta) * cos(theta)
    metric = catalog_sphere(1.0)
    rep = flatness_probe(metric, [math.pi / 3.0, 0.0], ["phi"], samples=3, extent=0.5)
    assert rep.is_flat()
    assert not rep.is_totally_geodesic()
    expected = math.sin(math.pi / 3.0) * math.cos(math.pi / 3.0)
    assert abs(rep.max_second_fundamental_form - expected) < 1e-10


def test_flatness_probe_rejects_unknown_coordinate():
    with pytest.raises(ValueError):
        flatness_probe(catalog_euclidean(2), [0.0, 0.0], ["z"])


def test_incompleteness_of_degenerating_chart():
    # p = 2 + u collapses along -u; the chart stops at the positivity floor
    metric = catalog_sekigawa("2+u")
    rep = incompleteness_probe(metric, [0.0, 0.0, 0.0], [0.0, -1.0, 0.0])
    assert abs(rep.exit_parameter - 1.999) < 1e-6
    assert abs(rep.arc_length - rep.exit_parameter) < 1e-6
    assert rep.p_at_exit == pytest.approx(1e-3, rel=1e-3)
    assert rep.smallest_metric_eigenvalue < 1e-5
    assert metric.contains(rep.exit_point - 1e-6 * np.array([0.0, -1.0, 0.0]))


def test_incompleteness_requires_an_exit():
    metric = catalog_euclidean(2)
    with pytest.raises(ValueError):
        incompleteness_probe(metric, [0.0, 0.0], [1.0, 0.0], tmax=4.0)
