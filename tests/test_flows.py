import math

import numpy as np
import pytest

from geonull import flows, metricspace
from geonull.curvature import _christoffel_from_jet, curvature_data
from geonull.exprcalc import DomainError
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
    MetricField,
    catalog_conullity3,
    catalog_euclidean,
    catalog_polar,
    catalog_sekigawa,
    catalog_sphere,
)
from geonull.numcore import SingularMatrixError, invert
from geonull.splitting import kernel_section


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


def test_sample_indices_are_the_sorted_distinct_rounded_linspace():
    # np.unique is the reference; the flows code avoids it, as it loads numpy.ma
    for nodes in range(2, 70):
        for samples in range(2, 90):
            got = flows._sample_indices(nodes, samples)
            want = np.unique(np.linspace(0, nodes - 1, samples).round().astype(int))
            assert got.dtype == want.dtype and np.array_equal(got, want), (nodes, samples)


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


_STAGE_FAULTS = (ChartDomainError, DomainError, SingularMatrixError, FloatingPointError)


def _step_matrix_step(W, gammas, velocities, h):
    """The documented frame step: W P^T, P = I + h/6 (S1 + 2 S2 + 2 S3 + S4) from B = -Gamma(v, .) at the four stages."""
    eye = np.eye(W.shape[1])
    b1, b2, b3, b4 = (-np.einsum("kij,i->kj", g, v) for g, v in zip(gammas, velocities))
    s1 = b1
    s2 = b2 @ (eye + 0.5 * h * s1)
    s3 = b3 @ (eye + 0.5 * h * s2)
    s4 = b4 @ (eye + h * s3)
    return W @ (eye + (h / 6.0) * (s1 + 2.0 * s2 + 2.0 * s3 + s4)).T


def _four_einsum_step(W, gammas, velocities, h):
    """The frame step before the step matrix: the rates k = -Gamma(v, W) at the four stages, summed as RK4 writes them."""
    (g1, g2, g3, g4), (v1, v2, v3, v4) = gammas, velocities
    k1 = -np.einsum("kij,i,aj->ak", g1, v1, W)
    k2 = -np.einsum("kij,i,aj->ak", g2, v2, W + 0.5 * h * k1)
    k3 = -np.einsum("kij,i,aj->ak", g3, v3, W + 0.5 * h * k2)
    k4 = -np.einsum("kij,i,aj->ak", g4, v4, W + h * k3)
    return W + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _reference_geodesic(metric, x, v, frame, tmax, steps, frame_step=_step_matrix_step):
    """RK4 with a fresh jet at every stage, truncating where ``geodesic`` does.

    The frame moves by ``frame_step`` on the four stages' Gamma and v.
    Returns (points, velocities, frames, gram drift, exit parameter or None,
    jets).  ``jets`` counts the jets of the documented reuse rule: a stage
    jets unless its point repeats the last point whose Gamma was built, and
    with a frame, g at the last node, when no step left it, comes from that
    point's jet or from one more.
    """
    built = [None]  # bytes of the last point whose Gamma was built
    jets = [0]

    def rates(y, w):
        jets[0] += y.tobytes() != built[0]
        g, dg = metric.jet(y, order=1, check=False)
        gamma = _christoffel_from_jet(invert(g), dg)
        built[0] = y.tobytes()
        return g, -np.einsum("kij,i,j->k", gamma, w, w), gamma

    h = tmax / steps
    x, v, W = (np.array(a, dtype=float) for a in (x, v, frame))
    times, xs, vs, ws, gs = [0.0], [x], [v], [W], []
    truncated = False
    for i in range(steps):
        try:
            g1, ax1, gamma1 = rates(x, v)
            gs.append(g1)
            x2, v2 = x + 0.5 * h * v, v + 0.5 * h * ax1
            _, ax2, gamma2 = rates(x2, v2)
            x3, v3 = x + 0.5 * h * v2, v + 0.5 * h * ax2
            _, ax3, gamma3 = rates(x3, v3)
            x4, v4 = x + h * v3, v + h * ax3
            _, ax4, gamma4 = rates(x4, v4)
            xn = x + (h / 6.0) * (v + 2.0 * v2 + 2.0 * v3 + v4)
            vn = v + (h / 6.0) * (ax1 + 2.0 * ax2 + 2.0 * ax3 + ax4)
            Wn = frame_step(W, (gamma1, gamma2, gamma3, gamma4), (v, v2, v3, v4), h)
        except _STAGE_FAULTS:
            truncated = True
            break
        if not (np.all(np.isfinite(xn)) and np.all(np.isfinite(vn)) and metric.contains(xn)):
            truncated = True
            break
        x, v, W = xn, vn, Wn
        times.append((i + 1) * h)
        xs.append(x)
        vs.append(v)
        ws.append(W)
    frames = np.array(ws)
    drift = 0.0
    if len(W):
        if len(gs) < len(xs):
            jets[0] += x.tobytes() != built[0]
            gs.append(metric.jet(x, order=1, check=False)[0])
        grams = frames @ np.array(gs) @ frames.transpose(0, 2, 1)
        drift = float(np.max(np.abs(grams - grams[0])))
    return np.array(xs), np.array(vs), frames, drift, times[-1] if truncated else None, jets[0]


def _counted(metric):
    """``metric`` with each jet call appended (its order) to the returned list."""
    calls = []

    def jet(x, order):
        calls.append(order)
        return metric.jet(x, order=order, check=False)

    return MetricField(metric.dim, metric.coordinates, jet, domain=metric.contains), calls


@pytest.mark.parametrize(
    "metric, x0, v0, jets",
    [
        # nonzero acceleration: no two stages share a point, so 4 jets per
        # step (m = 32) and, with a frame, one more for g at the last node
        (catalog_sphere(1.0), [1.1, 0.4], [0.3, 0.8], (4 * 32 + 1, 4 * 32)),
        (catalog_polar(), [1.0, 0.3], [0.2, 1.0], (4 * 32 + 1, 4 * 32)),
        # a kernel geodesic: zero acceleration, so stage 3 lands on stage 2's
        # point and stage 4 on the next node, and both reuse the jet there
        (catalog_conullity3("3+cos(u)+cos(w)"), [0.1, 0.2, -0.3, 0.4], [0.0, 0.0, 1.0, 0.0],
         (2 * 32 + 1, 2 * 32 + 1)),
    ],
    ids=["sphere", "polar", "conullity3_kernel"],
)
def test_geodesic_reuses_only_repeated_stage_points(metric, x0, v0, jets):
    counted, calls = _counted(metric)
    m, frame = 32, np.eye(metric.dim)
    path = geodesic(counted, x0, v0, tmax=0.5, steps=m, frame=frame)
    assert not path.truncated and len(calls) == jets[0]
    points, velocities, frames, drift, _, reference_jets = _reference_geodesic(metric, x0, v0, frame, 0.5, m)
    assert reference_jets == jets[0]
    assert path.points.tobytes() == points.tobytes()
    assert path.velocities.tobytes() == velocities.tobytes()
    assert path.frame.tobytes() == frames.tobytes()
    assert path.gram_drift == drift
    calls.clear()
    bare = geodesic(counted, x0, v0, tmax=0.5, steps=m)
    assert bare.points.tobytes() == points.tobytes()
    assert len(calls) == jets[1]


def _bending_field(a: float) -> MetricField:
    """The (x, y) plane with g_xx = 1 + y c^2, c = max(x - a, 0), the rest Euclidean.

    Along y = 0 with velocity (1, 0) the acceleration -Gamma^y_xx = c^2 / 2
    is exactly zero up to x = a and nonzero past it, where the path bends.
    """

    def jet(p, order):
        x, y = p
        c = max(x - a, 0.0)
        dg = np.zeros((2, 2, 2))
        dg[0, 0] = [2.0 * y * c, c * c]
        return np.array([[1.0 + y * c * c, 0.0], [0.0, 1.0]]), dg

    return MetricField(2, ("x", "y"), jet, name="bending")


def _pinched_field() -> MetricField:
    """The (x, y) plane with g = diag(1, (1 - x)^2): lines along x are straight, g is singular at x = 1."""

    def jet(p, order):
        dg = np.zeros((2, 2, 2))
        dg[1, 1, 0] = -2.0 * (1.0 - p[0])
        return np.diag([1.0, (1.0 - p[0]) ** 2]), dg

    return MetricField(2, ("x", "y"), jet, name="pinched")


# rides geodesic takes in stacked blocks, for as long as the acceleration
# stays exactly zero: (metric, x0, v0, tmax, steps, truncated)
STRAIGHT_RIDES = {
    "conullity3_kernel": (catalog_conullity3("3+cos(u)+cos(w)"), [0.1, 0.2, -0.3, 0.4],
                          [0.0, 0.0, 1.0, 0.0], 1.0, 64, False),
    # the first kernel basis vector: tiny entries off the v axis, one a -0.0
    "conullity3_section": (catalog_conullity3("3.2+cos(0.7*u)+cos(1.1*w)"), [0.1, 0.2, -0.3, 0.4],
                           [-0.0, -2.58975342e-17, 1.0, 1.32501136e-17], 1.0, 64, False),
    "euclidean": (catalog_euclidean(3), [0.1, -0.2, 0.3], [0.5, 0.0, -1.0], 1.0, 48, False),
    # h < 0 turns the -0.0 entries of v into +0.0 after one step, and moves
    # the zero coordinates of x by signed zeros: stage 3 no longer lands on
    # stage 2's bytes in the first step
    "backward": (catalog_conullity3("3+cos(u)+cos(w)"), [0.1, 0.0, -0.3, -0.0],
                 [-0.0, 0.0, 1.0, -0.0], -1.0, 40, False),
    # polar's inward radial ray is straight and leaves the chart at r = 0.05
    "polar_inward": (catalog_polar(), [1.0, 0.0], [-1.0, 0.0], 2.0, 400, True),
    # straight up to x = 0.37, then bent: the ride hands over mid-path
    "bends_midway": (_bending_field(0.37), [0.0, 0.0], [1.0, 0.0], 1.0, 50, False),
    "conullity3_leaves_chart": (catalog_conullity3("3+cos(u)+cos(w)"), [0.1, 0.2, 2.9, 0.4],
                                [0.0, 0.0, 1.0, 0.0], 1.0, 64, True),
}


@pytest.mark.parametrize("name", sorted(STRAIGHT_RIDES))
@pytest.mark.parametrize("with_frame", [True, False], ids=["frame", "bare"])
def test_stacked_ride_matches_the_reference(name, with_frame):
    metric, x0, v0, tmax, steps, truncated = STRAIGHT_RIDES[name]
    frame = np.eye(metric.dim) if with_frame else np.empty((0, metric.dim))
    points, velocities, frames, drift, exit_parameter, jets = _reference_geodesic(
        metric, x0, v0, frame, tmax, steps
    )
    counted, calls = _counted(metric)
    path = geodesic(counted, x0, v0, tmax, steps=steps, frame=frame if with_frame else None)
    assert path.truncated == truncated
    assert path.exit_parameter == exit_parameter
    assert path.points.tobytes() == points.tobytes()
    assert path.velocities.tobytes() == velocities.tobytes()
    assert path.frame.tobytes() == frames.tobytes()
    assert path.gram_drift == drift
    assert len(calls) == jets


def test_stacked_ride_bends_where_the_reference_bends():
    # the reference path leaves y = 0 past x = 0.37; the stacked one must too
    metric, x0, v0, tmax, steps, _ = STRAIGHT_RIDES["bends_midway"]
    path = geodesic(metric, x0, v0, tmax, steps=steps)
    bent = path.points[:, 1] != 0.0
    assert bent.any() and not bent[path.points[:, 0] <= 0.37].any()


def test_polar_inward_ride_truncates_at_the_cutoff():
    metric, x0, v0, tmax, steps, _ = STRAIGHT_RIDES["polar_inward"]
    path = geodesic(metric, x0, v0, tmax, steps=steps)
    assert path.truncated and abs(path.exit_parameter - 0.95) < 0.01
    assert metric.contains(path.endpoint)


@pytest.mark.parametrize("with_frame", [True, False], ids=["frame", "bare"])
def test_stacked_ride_truncates_at_a_singular_g_like_the_reference(with_frame, monkeypatch):
    # g is singular at x = 1, which stage 2 of step 7 lands on exactly (h =
    # 1/8 from x = 1/16): the path ends at node 7 either way
    metric, steps = _pinched_field(), 16
    frame = np.eye(2) if with_frame else np.empty((0, 2))
    points, velocities, frames, drift, exit_parameter, jets = _reference_geodesic(
        metric, [0.0625, 0.3], [1.0, 0.0], frame, 2.0, steps
    )
    assert exit_parameter == 7 / 8 and jets == 1 + 2 * 7 + 1
    for budget, block_steps in ((flows.RIDE_BLOCK_BYTES, steps), (1, 1)):
        monkeypatch.setattr(flows, "RIDE_BLOCK_BYTES", budget)
        counted, calls = _counted(metric)
        path = geodesic(counted, [0.0625, 0.3], [1.0, 0.0], 2.0, steps=steps,
                        frame=frame if with_frame else None)
        assert path.truncated and path.exit_parameter == exit_parameter
        assert path.points.tobytes() == points.tobytes()
        assert path.velocities.tobytes() == velocities.tobytes()
        assert path.frame.tobytes() == frames.tobytes()
        assert path.gram_drift == drift
        # the stacked inverse that raises has jetted its whole block: here
        # the rest of the ride, or with one step a block, stage 4 of step 7
        assert len(calls) == (2 * steps + 1 if block_steps == steps else jets + 1)


@pytest.mark.parametrize("name", ["conullity3_section", "backward", "polar_inward", "bends_midway"])
def test_ride_in_small_blocks_gives_the_bits_of_one_block(name, monkeypatch):
    metric, x0, v0, tmax, steps, _ = STRAIGHT_RIDES[name]
    frame = np.eye(metric.dim)
    counted, calls = _counted(metric)
    whole = geodesic(counted, x0, v0, tmax, steps=steps, frame=frame)
    jets = len(calls)
    # one step a block, then three
    for block_steps in (1, 3):
        monkeypatch.setattr(flows, "_block_steps", lambda n: block_steps)
        calls.clear()
        path = geodesic(counted, x0, v0, tmax, steps=steps, frame=frame)
        assert len(calls) == jets
        for field in ("times", "points", "velocities", "frame"):
            assert getattr(path, field).tobytes() == getattr(whole, field).tobytes()
        assert (path.gram_drift, path.truncated, path.exit_parameter) == (
            whole.gram_drift, whole.truncated, whole.exit_parameter)


@pytest.mark.parametrize(
    "name, stacks",
    [
        # a block of 2**18 bytes of Gamma holds 256 steps at n = 4, more than
        # the whole ride: it inverts its 2 * 64 + 1 points
        ("conullity3_kernel", [(2 * 64 + 1, 4, 4)]),
        # 2048 steps a block at n = 2; the stacked pass stops at step 189,
        # whose next node is past the cutoff, and the point-by-point loop
        # redoes that step from its two jets already made
        ("polar_inward", [(2 * 189 + 1, 2, 2), (2, 2), (2, 2)]),
        # the sphere bends from the first stage: all point by point
        ("sphere", [(2, 2)] * (4 * 8)),
    ],
)
def test_ride_inverts_g_once_per_block(name, stacks, monkeypatch):
    seen = []
    real = flows.invert

    def counted_invert(m):
        seen.append(np.shape(m))
        return real(m)

    monkeypatch.setattr(flows, "invert", counted_invert)
    if name == "sphere":
        geodesic(catalog_sphere(1.0), [1.1, 0.4], [0.3, 0.8], 0.5, steps=8)
    else:
        metric, x0, v0, tmax, steps, _ = STRAIGHT_RIDES[name]
        geodesic(metric, x0, v0, tmax, steps=steps)
    assert seen == stacks


@pytest.mark.parametrize("n", [2, 3, 4, 6])
def test_stacked_ride_primitives_match_each_point(n):
    # the stacked ride's bytes rest on these: a stacked invert, Christoffel
    # pass and acceleration einsum (on Gamma gathered per distinct entry and
    # velocity) give each matrix's own result bit for bit
    rng = np.random.default_rng(n)
    a = rng.normal(size=(24, n, n))
    g = a @ a.transpose(0, 2, 1) + n * np.eye(n)
    dg = rng.normal(size=(24, n, n, n))
    dg = dg + dg.transpose(0, 2, 1, 3)
    v = rng.normal(size=(24, n))
    v[:, 0] = -0.0
    gi = invert(g)
    gamma = _christoffel_from_jet(gi, dg)
    index = rng.integers(0, 24, size=96)
    accel = -np.einsum("...kij,...i,...j->...k", gamma[index], v[index], v[index])
    for i in range(24):
        assert invert(g[i]).tobytes() == gi[i].tobytes()
        assert _christoffel_from_jet(gi[i], dg[i]).tobytes() == gamma[i].tobytes()
    for stage, i in enumerate(index):
        assert (-np.einsum("kij,i,j->k", gamma[i], v[i], v[i])).tobytes() == accel[stage].tobytes()


def _random_stages(rng, n, m=None):
    """Sparse random Gamma (4, n, n, n) and v (4, n) at a step's stages, or at each of ``m`` steps'."""
    shape = (4,) if m is None else (m, 4)
    gammas = rng.normal(size=shape + (n, n, n)) * (rng.random(shape + (n, n, n)) < 0.6)
    velocities = rng.normal(size=shape + (n,)) * (rng.random(shape + (n,)) < 0.7)
    return gammas, velocities


@pytest.mark.parametrize("n", [2, 3, 4])
def test_stacked_frame_propagators_are_each_steps_own(n):
    rng = np.random.default_rng(40 + n)
    eye = np.eye(n)
    for m in (1, 5, 32):
        gammas, velocities = _random_stages(rng, n, m)
        h = rng.choice([1.0, -1.0]) * rng.uniform(1e-3, 1.0)
        b = flows._frame_rates(gammas, velocities)
        # B built once per entry and gathered to the stages that share it, as
        # a block does, is bitwise B built per stage, per step and alone
        index = np.sort(rng.integers(0, 4 * m, size=4 * m))
        flat_gammas, flat_velocities = gammas.reshape(-1, n, n, n), velocities.reshape(-1, n)
        per_entry = flows._frame_rates(flat_gammas, flat_velocities)[index]
        assert per_entry.tobytes() == flows._frame_rates(flat_gammas[index], flat_velocities[index]).tobytes()
        for stage, i in enumerate(index):
            assert per_entry[stage].tobytes() == (-np.einsum("kij,i->kj", flat_gammas[i], flat_velocities[i])).tobytes()
        assert b.tobytes() == flows._frame_rates(flat_gammas, flat_velocities).tobytes()
        stacked = flows._frame_propagators(b, h)
        assert stacked.shape == (m, n, n)
        for i in range(m):
            alone = flows._frame_propagators(flows._frame_rates(gammas[i: i + 1], velocities[i: i + 1]), h)[0]
            assert stacked[i].tobytes() == alone.tobytes()
            # the step matrix is the one the documented step applies
            assert stacked[i].tobytes() == _step_matrix_step(eye, gammas[i], velocities[i], h).T.tobytes()


@pytest.mark.parametrize("n", [2, 3, 4])
def test_frame_step_is_the_step_matrix_bitwise(n):
    rng = np.random.default_rng(70 + n)
    for trial in range(200):
        gammas, velocities = _random_stages(rng, n)
        W = rng.normal(size=(rng.integers(1, n + 1), n)) * (rng.random(n) < 0.6)
        W[rng.random(W.shape) < 0.3] = -0.0
        if trial % 4 == 0:
            # stages 2 and 3 without Gamma and stage 4 undoing stage 1: the
            # stage matrices' sum cancels to exact zeros
            gammas[1:3] = 0.0
            gammas[3], velocities[3] = gammas[0], -velocities[0]
        h = rng.choice([1.0, -1.0]) * rng.uniform(1e-3, 1.0)
        P = flows._frame_propagators(flows._frame_rates(gammas, velocities)[None], h)[0]
        got = flows._frame_step(W, gammas, velocities, h)
        assert got.tobytes() == (W @ P.T).tobytes()
        assert got.tobytes() == _step_matrix_step(W, gammas, velocities, h).tobytes()
    # a -0.0 entry of W whose step cancels exactly comes out as the written-out step's zero
    W = np.array([[-0.0, 1.0]])
    gammas = np.zeros((4, 2, 2, 2))
    gammas[0, 0, 0, 1] = gammas[3, 0, 0, 1] = 1.0
    velocities = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [-1.0, 0.0]])
    assert flows._frame_step(W, gammas, velocities, 0.5).tobytes() == _step_matrix_step(
        W, gammas, velocities, 0.5).tobytes()


# 256-step rides, kernel rides (stacked) and curved ones (point by point):
# (metric, x0, v0 or None for the kernel section, tmax)
FRAME_RIDES = {
    "conullity3_kernel": (catalog_conullity3("3+cos(u)+cos(w)"), [0.1, 0.2, -0.3, 0.4], None, 1.0),
    "conullity3_curved": (catalog_conullity3("3+cos(u)+cos(w)"), [0.1, 0.2, -0.3, 0.4],
                          [0.6, -0.3, 0.5, 0.2], 1.0),
    "sekigawa_kernel": (catalog_sekigawa("2+u*u"), [0.2, 0.3, 0.1], None, 0.5),
    "sekigawa_curved": (catalog_sekigawa("2+sin(x)+u*u"), [0.1, 0.2, -0.3], [0.4, 0.5, 0.6], 1.0),
    "sphere": (catalog_sphere(1.0), [1.1, 0.4], [0.3, 0.8], 1.0),
}


@pytest.mark.parametrize("name", sorted(FRAME_RIDES))
def test_frame_stays_near_the_four_einsum_step(name):
    # the step matrix sums the frame's products in another order than the
    # four per-stage rates did: the frame moves by rounding, nothing else does
    metric, x0, v0, tmax = FRAME_RIDES[name]
    x0 = np.array(x0)
    v0 = kernel_section(metric, x0)[0] if v0 is None else np.array(v0)
    frame = np.eye(metric.dim)
    path = geodesic(metric, x0, v0, tmax, steps=256, frame=frame)
    points, velocities, frames, drift, exit_parameter, _ = _reference_geodesic(
        metric, x0, v0, frame, tmax, 256, frame_step=_four_einsum_step
    )
    assert not path.truncated and exit_parameter is None
    assert path.points.tobytes() == points.tobytes()
    assert path.velocities.tobytes() == velocities.tobytes()
    scale = np.spacing(np.max(np.abs(frames), axis=(1, 2)))
    assert np.all(np.max(np.abs(path.frame - frames), axis=(1, 2)) <= 64 * scale)
    assert path.gram_drift == pytest.approx(drift, rel=1e-2, abs=1e-15)


def _overflowing_transport_field(a: float) -> MetricField:
    """The (x, y) plane with g = I and Gamma^x_xy = c past x = a, a c so large that a frame step's sum overflows.

    The jet is no metric's: d_y g_xx = 2c and d_x g_xy = c keep the
    acceleration along y = 0 with velocity (1, 0) exactly zero and the
    Christoffel bracket on it zero, so the ride is stacked, while
    S1 + 2 S2 + 2 S3 + S4 of a step matrix reaches 6c.
    """
    c = 0.5e308

    def jet(p, order):
        dg = np.zeros((2, 2, 2))
        if p[0] > a:
            dg[0, 0, 1] = 2.0 * c
            dg[0, 1, 0] = dg[1, 0, 0] = c
        return np.eye(2), dg

    return MetricField(2, ("x", "y"), jet, name="overflowing transport")


def test_a_fault_in_a_blocks_step_matrices_truncates_where_integrate_does(monkeypatch):
    metric, steps = _overflowing_transport_field(0.37), 50
    x0, v0, frame = [0.0, 0.0], [1.0, 0.0], np.eye(2)
    built = []
    real = flows._frame_propagators

    def spied(b, h):
        try:
            return real(b, h)
        except FloatingPointError:
            built.append(len(b))
            raise

    monkeypatch.setattr(flows, "_frame_propagators", spied)
    with np.errstate(over="raise", invalid="raise"):
        path = geodesic(metric, x0, v0, 1.0, steps=steps, frame=frame)
        ride = flows._Ride(metric, 1.0 / steps, np.array(x0), np.array(v0), frame)
        ride.integrate(steps)
        alone = ride.path()
        reference = _reference_geodesic(metric, x0, v0, frame, 1.0, steps)
    # the block's stacked build raised, then the faulting step alone
    assert built[0] == steps and 1 in built[1:]
    assert path.truncated and alone.truncated
    assert path.exit_parameter == alone.exit_parameter == reference[4]
    assert 0.3 < path.exit_parameter < 0.37
    for field in ("times", "points", "velocities", "frame"):
        assert getattr(path, field).tobytes() == getattr(alone, field).tobytes()
    assert path.frame.tobytes() == reference[2].tobytes()


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


# ---------------------------------------------------------------------------
# rides on a chart with stacked jets


class _Jetted:
    """Points the coframe jets: ``alone`` by its per-point form, ``stacked`` through its stacked form."""

    def __init__(self, monkeypatch):
        self.alone = self.stacked = 0
        call, stack = metricspace._CoframeJet.__call__, metricspace._CoframeJet.jets
        spies = self

        def counted_call(self, x, order):
            spies.alone += 1
            return call(self, x, order)

        def counted_stack(self, pts, order, check):
            arrays, outside, alone = stack(self, pts, order, check)
            # a point left alone is jetted by the per-point form, and counted there
            spies.stacked += len(pts) - int(np.count_nonzero(alone))
            return arrays, outside, alone

        monkeypatch.setattr(metricspace._CoframeJet, "__call__", counted_call)
        monkeypatch.setattr(metricspace._CoframeJet, "jets", counted_stack)

    @property
    def points(self) -> int:
        return self.alone + self.stacked


def _ride_against_the_reference(metric, x0, v0, tmax, steps, frame, jetted):
    """``geodesic``'s path in the reference's bytes: ``(points it jetted, the reference's)``."""
    points, velocities, frames, drift, exit_parameter, jets = _reference_geodesic(
        metric, x0, v0, frame, tmax, steps
    )
    jetted.alone = jetted.stacked = 0
    path = geodesic(metric, x0, v0, tmax, steps=steps, frame=frame)
    assert path.points.tobytes() == points.tobytes()
    assert path.velocities.tobytes() == velocities.tobytes()
    assert path.frame.tobytes() == frames.tobytes()
    assert (path.gram_drift, path.exit_parameter) == (drift, exit_parameter)
    return jetted.points, jets


def test_benchmark_shaped_kernel_ride_jets_its_path_once(monkeypatch):
    metric = catalog_conullity3("3.1+cos(0.9*u)+cos(1.2*w)")
    x0 = np.array([0.31, -0.42, 0.17, 0.38])
    v0 = kernel_section(metric, x0)[0]
    jetted = _Jetted(monkeypatch)
    points, reference = _ride_against_the_reference(metric, x0, v0, 1.0, 256, np.eye(4)[[0, 1, 3]], jetted)
    # the first stage alone, screened before the rest of the path is jetted stacked
    assert points == reference == 2 * 256 + 1
    assert (jetted.alone, jetted.stacked) == (1, 512)


def test_benchmark_shaped_kernel_ride_calls_the_warp_kernel_once_a_stack(monkeypatch):
    # the kernel geodesic moves v alone, so p's argument (x, u, w) keeps its bits
    metric = catalog_conullity3("3.1+cos(0.9*u)+cos(1.2*w)")
    expr = metric._jet.expr
    kernel, calls = expr._jet_kernel, []
    monkeypatch.setitem(vars(expr), "_jet_kernel", lambda *x: calls.append(x) or kernel(*x))
    stack, stacks = metricspace._CoframeJet.jets, []

    def counted_stack(self, pts, order, check):
        before = len(calls)
        arrays = stack(self, pts, order, check)
        stacks.append(len(calls) - before)
        return arrays

    monkeypatch.setattr(metricspace._CoframeJet, "jets", counted_stack)
    x0 = np.array([0.31, -0.42, 0.17, 0.38])
    v0 = kernel_section(metric, x0)[0]
    calls.clear()
    geodesic(metric, x0, v0, 1.0, steps=256, frame=np.eye(4)[[0, 1, 3]])
    assert stacks and all(n <= 1 for n in stacks)
    assert len(calls) == 1 + len(stacks)  # the first stage alone, then one call a stack


@pytest.mark.parametrize("name", ["conullity3_leaves_chart", "conullity3_kernel", "backward"])
def test_stacked_ride_jets_what_the_reference_jets(name, monkeypatch):
    metric, x0, v0, tmax, steps, truncated = STRAIGHT_RIDES[name]
    jetted = _Jetted(monkeypatch)
    points, reference = _ride_against_the_reference(metric, x0, v0, tmax, steps, np.eye(4), jetted)
    assert points == reference and jetted.stacked > 0


def test_ride_curved_from_its_first_stage_jets_what_the_reference_jets(monkeypatch):
    # flow --direction off the kernel: the first step's first jet fails the bracket screen
    metric = catalog_conullity3("3+cos(u)+cos(w)")
    jetted = _Jetted(monkeypatch)
    points, reference = _ride_against_the_reference(
        metric, [0.1, 0.2, -0.3, 0.4], [0.6, -0.3, 0.5, 0.2], 1.0, 64, np.eye(4), jetted
    )
    assert points == reference and jetted.stacked == 0


def test_ride_bending_mid_block_jets_at_most_the_rest_of_that_block(monkeypatch):
    # exp(-1/x^2) and its derivatives are exactly zero for |x| < 0.0366, so
    # the ride along x is straight up to there; past it the acceleration
    # grows until it moves the velocity's bits, within the first block, which
    # holds the whole 64-step ride (x up to 0.47)
    metric = catalog_conullity3("3+cos(u)+cos(w)+exp(-1/(x*x))")
    jetted = _Jetted(monkeypatch)
    points, reference = _ride_against_the_reference(
        metric, [-0.0301, 0.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0], 0.5, 64, np.eye(4), jetted
    )
    block = flows._block_steps(4)
    assert 0 < points - reference <= 4 * block


# rides longer than a stacked block at n = 4: (metric, x0, v0, tmax, steps)
BLOCK_RIDES = {
    # h < 0 turns v's -0.0 entries into +0.0 at stage 2: the coasting table
    # has two velocity rows, and the first step's stages two velocities
    "two_velocity_rows": (catalog_conullity3("3+cos(u)+cos(w)"), [0.1, 0.0, -0.3, -0.0],
                          [-0.0, 0.0, 1.0, -0.0], -1.0, 300),
    # straight for one whole block, then bent (x past 0.0366) at step 266,
    # mid-way through the second
    "bends_mid_block": (catalog_conullity3("3+cos(u)+cos(w)+exp(-1/(x*x))"), [-0.0301, 0.0, 0.0, 0.0],
                        [1.0, 0.0, 0.0, 0.0], 0.1, 400),
}


@pytest.mark.parametrize("name", sorted(BLOCK_RIDES))
@pytest.mark.parametrize("one_step", [False, True], ids=["block", "one_step"])
def test_ride_in_blocks_matches_the_reference(name, one_step, monkeypatch):
    metric, x0, v0, tmax, steps = BLOCK_RIDES[name]
    h = tmax / steps
    assert len(flows._coasting(np.array(v0), h, steps)[0]) == (2 if name == "two_velocity_rows" else 1)
    assert flows._block_steps(4) == 256
    if one_step:
        monkeypatch.setattr(flows, "_block_steps", lambda n: 1)
    jetted = _Jetted(monkeypatch)
    points, reference = _ride_against_the_reference(metric, x0, v0, tmax, steps, np.eye(4), jetted)
    ride = flows._Ride(metric, h, np.array(x0, dtype=float), np.array(v0, dtype=float), np.eye(4))
    ride.coast(steps)
    assert ride.reached == (steps if name == "two_velocity_rows" else 266)
    assert jetted.stacked > 0 and 0 <= points - reference <= 4 * flows._block_steps(4)


@pytest.mark.parametrize("with_frame", [True, False], ids=["frame", "bare"])
def test_ride_meeting_a_raising_jet_mid_block_truncates_like_the_reference(with_frame, monkeypatch):
    # 0*sqrt(0.308-x) keeps p flat in x, so the ride along x is straight, but
    # its jet raises past x = 0.308: first at node 20 (x = 0.3125), stage 4
    # of step 19, whose stage 2 (x = 0.3047) still has a jet.  The stacked
    # call jets up to that node and keeps its error for the point-by-point
    # loop, which truncates there without jetting it again
    metric = catalog_conullity3("3+cos(u)+cos(w)+0*sqrt(0.308-x)")
    jetted = _Jetted(monkeypatch)
    frame = np.eye(4) if with_frame else np.empty((0, 4))
    points, reference = _ride_against_the_reference(
        metric, [0.0, 0.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0], 1.0, 64, frame, jetted
    )
    path = geodesic(metric, [0.0, 0.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0], 1.0, steps=64, frame=frame)
    assert path.truncated and path.exit_parameter == 19 / 64
    assert points == reference and jetted.stacked > 0


def test_a_raising_domain_test_is_bisected_to_its_first_raising_node(monkeypatch):
    # the block's 64-node domain test raises (p's sqrt past x = 0.308); only the
    # first node that raises decides where the block stops, so the test is
    # bisected to it instead of redone node by node (65 calls)
    metric = catalog_conullity3("3+cos(u)+cos(w)+0*sqrt(0.308-x)")
    calls = []
    contains_each = MetricField.contains_each

    def counted(self, pts):
        calls.append(len(pts))
        return contains_each(self, pts)

    monkeypatch.setattr(MetricField, "contains_each", counted)
    jetted = _Jetted(monkeypatch)
    points, reference = _ride_against_the_reference(
        metric, [0.0, 0.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0], 1.0, 64, np.eye(4), jetted
    )
    assert points == reference
    calls.clear()
    geodesic(metric, [0.0, 0.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0], 1.0, steps=64, frame=np.eye(4))
    assert 64 in calls and len(calls) <= 1 + 2 * math.ceil(math.log2(64))


# (metric, x0, v0 or None for the kernel's, tmax, steps): rides whose path
# takes every route into the node, velocity, frame and g arrays
PATH_RIDES = {
    # two blocks of 256 and 44 steps
    "straight_300": (catalog_conullity3("3+cos(u)+cos(w)"), [0.1, 0.2, -0.3, 0.4], None, 1.0, 300),
    "bends_mid_block": BLOCK_RIDES["bends_mid_block"],
    "leaves_the_chart": (catalog_conullity3("3+cos(u)+cos(w)"), [0.1, 0.2, 2.9, 0.4], None, 1.0, 256),
    "backward": (catalog_conullity3("3+cos(u)+cos(w)"), [0.1, 0.2, -0.3, 0.4], None, -1.0, 300),
    # a launch velocity with a -1.77e-20 entry in x bends the first stage: handed over at step 0
    "sekigawa_first_step": (catalog_sekigawa("2+u*u"), [0.2, 0.3, 0.1],
                            [-float.fromhex("0x1.4f104219d2d0fp-66"), -0.0, 1.0], 0.5, 256),
    # the kernel's own launch velocity, [0, 1.5e-18, 1], rides straight in one stacked block
    "sekigawa_kernel": (catalog_sekigawa("2+u*u"), [0.2, 0.3, 0.1], None, 0.5, 256),
}


@pytest.mark.parametrize("name", list(PATH_RIDES))
def test_every_path_field_is_the_references(name):
    metric, x0, v0, tmax, steps = PATH_RIDES[name]
    if v0 is None:
        v0 = kernel_section(metric, x0)[0]
    frame = np.eye(metric.dim)[1:]
    points, velocities, frames, drift, exit_parameter, _ = _reference_geodesic(metric, x0, v0, frame, tmax, steps)
    h = tmax / steps
    times = np.array([0.0] + [(i + 1) * h for i in range(len(points) - 1)])
    path = geodesic(metric, x0, v0, tmax, steps=steps, frame=frame)
    assert path.times.tobytes() == times.tobytes()
    assert path.points.tobytes() == points.tobytes()
    assert path.velocities.tobytes() == velocities.tobytes()
    assert path.frame.tobytes() == frames.tobytes()
    assert (path.gram_drift, path.truncated, path.exit_parameter) == (drift, exit_parameter is not None, exit_parameter)
    assert path.truncated == (name == "leaves_the_chart")
    ride = flows._Ride(metric, h, np.array(x0, dtype=float), np.array(v0, dtype=float), frame)
    ride.coast(steps)
    assert ride.reached == {"bends_mid_block": 266, "leaves_the_chart": len(points) - 1,
                            "sekigawa_first_step": 0}.get(name, steps)


# kernel starts as flow rides them, from the start's 3-jet: (metric, x0, v0
# or None for the kernel's, tmax)
SEEDED_STARTS = {
    "conullity3": (catalog_conullity3("3+cos(u)+cos(w)"), [0.1, 0.2, -0.3, 0.4], None, 1.0),
    "sekigawa_2+u*u": (catalog_sekigawa("2+u*u"), [0.2, 0.3, 0.1], None, 0.5),
    # an ill-conditioned g (cond 1.2e4)
    "sekigawa_exp": (catalog_sekigawa("exp(u)"), [-0.5129016867312783, -2.5422821854087916, 1.0267175751331235],
                     None, 0.5),
    # curved at stage 1: the seeded jet fails the screen, and the loop holds it
    "sekigawa_curved_at_stage_1": PATH_RIDES["sekigawa_first_step"][:4],
}


@pytest.mark.parametrize("name", list(SEEDED_STARTS))
def test_a_seeded_ride_is_the_unseeded_geodesic_bitwise(name, monkeypatch):
    metric, x0, v0, tmax = SEEDED_STARTS[name]
    x0 = np.array(x0)
    data = curvature_data(metric, x0, nabla_r=True)
    v0 = kernel_section(metric, x0)[0] if v0 is None else np.array(v0)
    frame = np.eye(metric.dim)[1:]
    jetted = _Jetted(monkeypatch)
    whole = geodesic(metric, x0, v0, tmax, steps=256, frame=frame)
    unseeded = jetted.points
    stacks, alone = [], []  # the stacked jet calls, and the points jetted alone
    jets, call = MetricField.jets, metricspace._CoframeJet.__call__

    def counted_jets(self, points, order=2, check=True):
        stacks.append(len(points))
        return jets(self, points, order, check)

    def counted_call(self, x, order):
        alone.append(x.tobytes())
        return call(self, x, order)

    monkeypatch.setattr(MetricField, "jets", counted_jets)
    monkeypatch.setattr(metricspace._CoframeJet, "__call__", counted_call)
    jetted.alone = jetted.stacked = 0
    path = flows._geodesic(metric, x0, v0, tmax, 256, frame, (data.g, data._jet[1], data.christoffel))
    for field in ("times", "points", "velocities", "frame"):
        assert getattr(path, field).tobytes() == getattr(whole, field).tobytes()
    assert (path.gram_drift, path.truncated, path.exit_parameter) == (
        whole.gram_drift, whole.truncated, whole.exit_parameter)
    # the start's jet serves the first stage: one point fewer, never x0 again
    assert jetted.points == unseeded - 1 and x0.tobytes() not in alone
    if name == "sekigawa_curved_at_stage_1":
        # handed over at the screen of the held jet, before any stacked call
        assert not stacks and len(alone) == unseeded - 1
    else:
        assert len(stacks) == 1 and not alone
