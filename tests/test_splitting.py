import json
import math

import numpy as np
import pytest

from geonull import cli, curvature, exprcalc, flows, splitting
from geonull.curvature import _complement, bianchi2_residual, covariant_riemann, curvature_data, nullity
from geonull.flows import geodesic, nullity_geodesic_check
from geonull.metricspace import (
    ChartDomainError,
    MetricField,
    catalog_conullity3,
    catalog_euclidean,
    catalog_product,
    catalog_sekigawa,
    catalog_sphere,
)
from geonull.numcore import SingularMatrixError
from geonull.splitting import (
    AlignmentError,
    KernelDimensionError,
    NonUnitFieldError,
    RiccatiBlowupError,
    classify,
    evolve_along_nullity_geodesic,
    kernel_section,
    riccati_closed_form,
    riccati_ode,
    splitting_tensor,
    splitting_tensor_from_curvature,
    trace_det_evolution,
)
from oracles import stencil_splitting_tensor, tensor_alone

ORIGIN4 = [0.0, 0.0, 0.0, 0.0]


def conullity3():
    return catalog_conullity3("3+cos(u)+cos(w)")


def test_kernel_section_canonical_sign():
    metric = conullity3()
    t, basis = kernel_section(metric, ORIGIN4)
    assert basis.shape == (1, 4)
    assert np.allclose(t, [0.0, 0.0, 1.0, 0.0], atol=1e-12)
    flipped, _ = kernel_section(metric, ORIGIN4, reference=[0.0, 0.0, -1.0, 0.0])
    assert np.allclose(flipped, [0.0, 0.0, -1.0, 0.0], atol=1e-12)


def test_kernel_section_rejects_orthogonal_reference():
    with pytest.raises(AlignmentError):
        kernel_section(conullity3(), ORIGIN4, reference=[0.0, 1.0, 0.0, 0.0])


def test_splitting_tensor_requires_line_kernel():
    with pytest.raises(KernelDimensionError) as exc:
        splitting_tensor(catalog_euclidean(3), [0.0, 0.0, 0.0])
    assert exc.value.expected == 1
    assert exc.value.found == 3


def _sign_flip_field(metric, x):
    """The unit kernel vector at each point, its sign set by the metric inner
    product with the kernel vector at x: the default field before it became
    a :func:`kernel_section` of the kernel."""
    t0 = nullity(metric, x).basis[0]

    def field(q):
        res = nullity(metric, q)
        assert res.nullity == 1
        t = res.basis[0]
        g = metric.jet(q, order=1, check=False)[0]
        return t if float(t0 @ g @ t) > 0 else -t

    return field


@pytest.mark.parametrize(
    "metric, dim",
    [
        (catalog_conullity3("3+cos(0.9*u)+cos(1.2*w)+0.3*sin(x)"), 4),
        (catalog_sekigawa("2+sin(u)+0.4*cos(x*u)"), 3),
    ],
    ids=["conullity3", "sekigawa"],
)
def test_default_field_is_the_sign_flip_field_bitwise(metric, dim):
    rng = np.random.default_rng(41)
    for _ in range(12):
        pt = rng.uniform(-0.9, 0.9, dim)
        got = splitting_tensor(metric, pt)
        want = splitting_tensor(metric, pt, field=_sign_flip_field(metric, pt))
        assert got.matrix.tobytes() == want.matrix.tobytes()
        assert got.basis.tobytes() == want.basis.tobytes()
        assert got.field_value.tobytes() == want.field_value.tobytes()
        assert got.triangular_residual == want.triangular_residual
        assert got.normal_form_entries == want.normal_form_entries


def _counting(metric, max_order=3):
    """``metric`` behind a jet that records the order of every call."""
    orders = []

    def jet(x, order):
        orders.append(order)
        return metric.jet(x, order=order, check=False)

    counted = MetricField(
        metric.dim, metric.coordinates, jet, preferred_frame=metric.preferred_frame, max_order=max_order,
    )
    return counted, orders


@pytest.mark.parametrize(
    "metric, point",
    [(conullity3(), [0.1, 0.2, -0.3, 0.4]), (catalog_sekigawa("exp(u)"), [0.2, -0.3, 0.1])],
    ids=["preferred_frame", "built_complement"],
)
def test_jets_per_kernel_section_and_splitting_tensor(metric, point):
    counted, orders = _counting(metric)
    kernel_section(counted, point)
    assert orders == [2]
    orders.clear()
    kernel_section(counted, point, reference=np.ones(metric.dim))
    assert orders == [2]
    orders.clear()
    splitting_tensor(counted, point)
    # one jet at x for g, dg, the kernel and T, and 4 stencil points per axis
    assert orders == [2] * (4 * metric.dim + 1)


def test_jets_per_transport_and_nullity_geodesic_check():
    metric, orders = _counting(conullity3())
    start, m, s = [0.1, 0.2, -0.3, 0.4], 16, 5
    path = geodesic(metric, start, [0.0, 0.0, 1.0, 0.0], tmax=0.5, steps=m)
    # along the kernel line the acceleration is exactly zero, so RK4 stage 3
    # lands on stage 2's point and the next step's stage 1 on stage 4's, and
    # each reuses the jet taken there: 3 jets in the first step, 2 in each
    # later one, 2m + 1 in all
    assert not path.truncated and orders == [1] * (2 * m + 1)
    orders.clear()
    path = geodesic(metric, start, [0.0, 0.0, 1.0, 0.0], tmax=0.5, steps=m, frame=np.eye(4))
    # each stage's jet serves the frame too; the gram drift takes g at a node
    # from its stage-1 jet, and at the last node from the last stage 4 there
    assert not path.truncated and orders == [1] * (2 * m + 1)
    orders.clear()
    report = nullity_geodesic_check(metric, start, tmax=0.5, steps=m, samples=s)
    assert report.sample_times.size == s
    # one jet at the start and per sample gives the kernel and g; 2m + 1 for the path
    assert sorted(orders) == [1] * (2 * m + 1) + [2] * (s + 1)
    assert orders[0] == 2


@pytest.mark.parametrize("m, s", [(16, 5), (256, 9)])
def test_jets_per_evolution(m, s):
    metric, orders = _counting(conullity3())
    report = evolve_along_nullity_geodesic(metric, [0.1, 0.2, -0.3, 0.4], tmax=0.5, steps=m, samples=s)
    assert report.aborted is None and report.sample_times.size == s
    # per tensor one order-3 jet gives the kernel, T and nabla R: the start's,
    # which also measures sample 0 (x0 itself), and one per later sample; 2m + 1 for
    # the kernel geodesic with its frame (stage repeats reuse their jet, see
    # above): 522 at m = 256, s = 9, as in a kernel-mode flow request
    assert sorted(orders) == [1] * (2 * m + 1) + [3] * s
    assert orders[0] == 3


def test_kernel_section_on_product():
    metric = catalog_product(catalog_sphere(1.0), catalog_euclidean(2))
    pt = [1.0, 0.5, 0.0, 0.0]
    section, basis = kernel_section(metric, pt, reference=[0.0, 0.0, 3.0, 4.0])
    assert basis.shape == (2, 4)
    assert np.allclose(basis[:, :2], 0.0, atol=1e-12)
    assert np.allclose(section, [0.0, 0.0, 0.6, 0.8], atol=1e-12)
    with pytest.raises(AlignmentError):
        kernel_section(metric, pt, reference=[1.0, 0.0, 0.0, 0.0])
    with pytest.raises(KernelDimensionError):
        kernel_section(catalog_sphere(1.0), [1.0, 0.5])


def test_splitting_tensor_at_model_origin():
    st = splitting_tensor(conullity3(), ORIGIN4)
    expected = np.zeros((3, 3))
    expected[0, 1] = math.sqrt(2.0) / 5.0
    assert np.allclose(st.matrix, expected, atol=1e-10)
    assert np.allclose(st.field_value, [0.0, 0.0, 1.0, 0.0], atol=1e-12)
    assert st.triangular_residual < 1e-12
    assert st.normal_form_entries == pytest.approx(
        (math.sqrt(2.0) / 5.0, 0.0, 0.0), abs=1e-10
    )
    assert abs(st.trace) < 1e-10
    assert abs(st.det_block) < 1e-10
    inv = classify(st.matrix, tol=2e-4)
    assert inv.kind == "nilpotent"
    assert inv.nilpotency_index == 2


def test_splitting_tensor_closed_form_across_chart():
    # in the adapted frame the only entry of C is sqrt(2)/p for this family
    metric = conullity3()
    rng = np.random.default_rng(2)
    for _ in range(5):
        pt = rng.uniform(-0.9, 0.9, 4)
        st = splitting_tensor(metric, pt)
        p = 3.0 + math.cos(pt[1]) + math.cos(pt[3])
        assert abs(st.matrix[0, 1] - math.sqrt(2.0) / p) < 1e-9
        assert st.triangular_residual < 1e-9


def test_splitting_tensor_conullity_two_is_nilpotent():
    metric = catalog_sekigawa("exp(u)")
    st = splitting_tensor(metric, [0.0, 0.0, 0.0])
    assert st.matrix.shape == (2, 2)
    assert np.allclose(st.matrix, [[0.0, 0.0], [1.0, 0.0]], atol=1e-9)
    assert st.normal_form_entries is None
    rng = np.random.default_rng(7)
    for _ in range(4):
        pt = rng.uniform(-0.9, 0.9, 3)
        st = splitting_tensor(metric, pt)
        assert abs(st.trace) < 1e-6
        assert abs(st.det_block) < 1e-6
        assert classify(st.matrix, tol=2e-4).kind in ("nilpotent", "zero")


def test_splitting_tensor_field_scaling():
    metric = conullity3()

    def doubled(q):
        return 2.0 * kernel_section(metric, q)[0]

    with pytest.raises(NonUnitFieldError) as exc:
        splitting_tensor(metric, ORIGIN4, field=doubled)
    assert exc.value.norm == pytest.approx(2.0, abs=1e-9)
    unit = splitting_tensor(metric, ORIGIN4)
    scaled = splitting_tensor(metric, ORIGIN4, field=doubled, allow_non_unit=True)
    assert np.allclose(scaled.matrix, 2.0 * unit.matrix, atol=1e-9)


def test_splitting_tensor_custom_basis_transforms_covariantly():
    metric = conullity3()
    st = splitting_tensor(metric, ORIGIN4)
    q = np.array([[0.8, 0.6, 0.0], [-0.6, 0.8, 0.0], [0.0, 0.0, 1.0]])
    rotated = splitting_tensor(metric, ORIGIN4, basis=q @ st.basis)
    assert np.allclose(rotated.matrix, q @ st.matrix @ q.T, atol=1e-9)


def _both_tensors(metric, point):
    """(nabla R matrix, its residual, stencil matrix) in the same complement basis."""
    data = curvature_data(metric, point, nabla_r=True)
    matrix, residual = splitting_tensor_from_curvature(metric, data)
    basis = None
    if metric.preferred_frame is None:
        basis = data.complement
    return matrix, residual, splitting_tensor(metric, point, basis=basis).matrix


@pytest.mark.parametrize(
    "metric, point",
    [
        (conullity3(), [0.1, 0.2, -0.3, 0.4]),
        (catalog_conullity3("4-u*u-w*w"), [0.1, 0.2, -0.3, 0.4]),
        (catalog_sekigawa("exp(u)"), [0.2, -0.3, 0.1]),
        (catalog_product(catalog_sphere(1.0), catalog_euclidean(1)), [1.0, 0.5, 0.2]),
    ],
    ids=["conullity3", "concave_warp", "sekigawa", "product3"],
)
def test_nabla_r_tensor_matches_stencil(metric, point):
    matrix, residual, stencil = _both_tensors(metric, point)
    assert matrix.shape == stencil.shape == (metric.dim - 1,) * 2
    assert np.max(np.abs(matrix - stencil)) < 1e-9
    # the solve is consistent to rounding on a smooth kernel line field
    assert residual < 1e-10
    if "product" in metric.name:  # T = d/dz makes both sides of the solve exactly 0
        assert not matrix.any() and residual == 0.0


def test_nabla_r_tensor_closed_form_in_preferred_frame():
    rng = np.random.default_rng(23)
    for p_src in ("3+cos(u)+cos(w)", "4-u*u-w*w"):
        metric = catalog_conullity3(p_src)
        p_expr = metric.annotations["p_expression"]
        for pt in rng.uniform(-1.2, 1.2, (4, 4)):
            matrix, residual = splitting_tensor_from_curvature(metric, curvature_data(metric, pt, nabla_r=True))
            expected = np.zeros((3, 3))
            expected[0, 1] = math.sqrt(2.0) / p_expr.value(pt[[0, 1, 3]])
            assert np.max(np.abs(matrix - expected)) < 1e-8
            assert residual < 1e-9


def _warp(rng, x, y):
    a, b, c = rng.uniform(2.5, 4.0), rng.uniform(0.5, 1.5), rng.uniform(0.5, 1.5)
    return f"{a:.6f}+cos({b:.6f}*{x})+cos({c:.6f}*{y})"


@pytest.mark.parametrize("family", ["conullity3", "sekigawa"])
def test_nabla_r_kind_matches_stencil_kind(family):
    # benchmark-style warps on the scan workload's square; tools/scan_kind_agreement.py
    # runs the same comparison on 10^3 points per family over the whole chart
    rng = np.random.default_rng(29)
    for _ in range(3):
        if family == "conullity3":
            metric = catalog_conullity3(_warp(rng, "u", "w"))
        else:
            metric = catalog_sekigawa(_warp(rng, "u", "x"))
        for pt in rng.uniform(-1.5, 1.5, (4, metric.dim)):
            matrix, residual, stencil = _both_tensors(metric, pt)
            kinds = {classify(m, tol=cli.CLASSIFY_TOL).kind for m in (matrix, stencil)}
            assert kinds == {"nilpotent"}
            assert cli._scan_rows(metric, [pt], None)[0][3] == "nilpotent"
            assert residual <= 1e-7


def test_nabla_r_kind_near_the_warp_floor_is_nilpotent_or_none():
    # p = exp(u) near e^-2 and |x|, |v| up to 3: g is ill-conditioned (cond up to 2.8e4), yet
    # R built lowered keeps the kernel's singular value below 5e-11 of the largest (R raised
    # through g^-1 and lowered again let it reach 1.8e-7, above the rank cutoff), so every
    # point has its line kernel and the residual gate passes each nilpotent tensor
    metric = catalog_sekigawa("exp(u)")
    rng = np.random.default_rng(31)
    rows = []
    for _ in range(40):
        pt = np.array([rng.uniform(-3.0, 3.0), rng.uniform(-2.5, -1.5), rng.uniform(-3.0, 3.0)])
        rows.append(cli._scan_rows(metric, [pt], None)[0])
    assert [(row[1], row[3]) for row in rows] == [(1, "nilpotent")] * 40


def _hessian_line_warp():
    """g = dx^2 + dy^2 + f^2 dz^2 with f = 1 + x^2/2 + y^3/6, so Hess f = diag(1, y, 0).

    R lives on the planes X ^ dz through Hess f, so the kernel is the line of
    dy on y = 0 and trivial elsewhere: a line that is no smooth field.
    """

    def jet(pt, order):
        x, y, _ = pt
        f = 1.0 + x * x / 2.0 + y ** 3 / 6.0
        df = np.array([x, y * y / 2.0, 0.0])
        g = np.diag([1.0, 1.0, f * f])
        dg = np.zeros((3, 3, 3))
        dg[2, 2] = 2.0 * f * df
        if order == 1:
            return g, dg
        hess = np.diag([1.0, y, 0.0])
        d2g = np.zeros((3, 3, 3, 3))
        d2g[2, 2] = 2.0 * (np.outer(df, df) + f * hess)
        if order == 2:
            return g, dg, d2g
        dhess = np.zeros((3, 3, 3))
        dhess[1, 1, 1] = 1.0  # d_y H_yy, the one nonzero derivative of Hess f
        d3g = np.zeros((3,) * 5)
        # d_klm (f^2) = 2 (H_kl f_m + f_k H_lm + f_l H_km + f d_m H_kl)
        d3g[2, 2] = 2.0 * (
            hess[:, :, None] * df + df[:, None, None] * hess[None] + df[None, :, None] * hess[:, None] + f * dhess
        )
        return g, dg, d2g, d3g

    return MetricField(3, ("x", "y", "z"), jet, name="hessian_line_warp", max_order=3)


def test_residual_gate_rejects_a_kernel_line_that_is_no_field(monkeypatch, capsys):
    metric = _hessian_line_warp()
    pt = np.array([0.3, 0.0, 0.1])
    data = curvature_data(metric, pt, nabla_r=True)
    assert data.nullity.nullity == 1
    assert np.allclose(np.abs(data.nullity.basis[0]), [0.0, 1.0, 0.0], atol=1e-12)
    _, residual = splitting_tensor_from_curvature(metric, data)
    assert residual > 0.5 > splitting.SMOOTH_KERNEL_RESIDUAL
    assert cli._scan_rows(metric, [pt], None)[0][3] == ""
    monkeypatch.setattr(cli, "_build_metric", lambda args, parser: metric)
    assert cli.main(["analyze", "--metric", "euclidean", "--point", "0.3,0,0.1"]) == 0
    error = json.loads(capsys.readouterr().out)["splitting"]["error"]
    assert error.startswith("curvature kernel is not a smooth line field near point [0.3 0.  0.1]")
    with pytest.raises(KernelDimensionError):  # the stencil meets the trivial kernel at y = h
        splitting_tensor(metric, pt)


@pytest.mark.parametrize(
    "metric, point",
    [(conullity3(), [0.1, 0.2, -0.3, 0.4]), (catalog_sekigawa("exp(u)"), [0.2, -0.3, 0.1])],
    ids=["preferred_frame", "built_complement"],
)
def test_a_solve_from_curvature_data_without_its_3_jet_says_so(metric, point):
    # curvature_data without nabla_r keeps the point's 2-jet, which gives no nabla R
    data = curvature_data(metric, point)
    message = r"needs the point's 3-jet: .*curvature_data\(\.\.\., nabla_r=True\)"
    with pytest.raises(ValueError, match=message):
        splitting_tensor_from_curvature(metric, data)
    with pytest.raises(ValueError, match=message):
        tensor_alone(metric, point, data.nullity.basis[0], data.complement[:2], jet=data._jet)


@pytest.mark.parametrize(
    "metric, point",
    [(conullity3(), [0.1, 0.2, -0.3, 0.4]), (catalog_sekigawa("exp(u)"), [0.2, -0.3, 0.1])],
    ids=["preferred_frame", "built_complement"],
)
def test_jets_per_nabla_r_tensor(metric, point):
    # the point's 3-jet gives g, Gamma, R, the kernel and nabla R, and the tensor no jet
    counted, orders = _counting(metric)
    data = curvature_data(counted, point, nabla_r=True)
    assert orders == [3]
    splitting_tensor_from_curvature(counted, data)
    assert orders == [3]


@pytest.mark.parametrize(
    "needs_nabla_r",
    [
        lambda metric, pt: curvature_data(metric, pt, nabla_r=True),
        covariant_riemann,
        bianchi2_residual,
        lambda metric, pt: cli._scan_rows(metric, [pt], None),
        evolve_along_nullity_geodesic,
    ],
    ids=["curvature_data", "covariant_riemann", "bianchi2_residual", "scan_rows", "evolve"],
)
def test_a_field_of_2_jets_raises_wherever_nabla_r_is_needed(needs_nabla_r):
    # nabla R takes a 3-jet: a field of 2-jets raises where one is asked for, before any point is jetted
    metric, orders = _counting(conullity3(), max_order=2)
    with pytest.raises(ValueError, match=r"^order must be 1\.\.2 for metric, got 3$"):
        needs_nabla_r(metric, [0.1, 0.2, -0.3, 0.4])
    assert orders == []


def test_a_field_of_2_jets_gives_curvature_and_its_kernel():
    metric, orders = _counting(conullity3(), max_order=2)
    assert curvature_data(metric, [0.1, 0.2, -0.3, 0.4]).nullity.nullity == 1 and orders == [2]


def test_nabla_r_tensor_from_the_3_jet_matches_the_stencil_of_r():
    metric = conullity3()
    pt = [0.1, 0.2, -0.3, 0.4]
    data = curvature_data(metric, pt, nabla_r=True)
    analytic = splitting_tensor_from_curvature(metric, data)
    stencil = stencil_splitting_tensor(metric, data)
    assert np.max(np.abs(analytic[0] - stencil[0])) < 1e-8
    assert analytic[1] < 1e-13  # no step noise in the right-hand side


def test_scan_request_makes_one_third_order_jet_per_point(monkeypatch, capsys):
    orders, compiled = [], []
    jet, jets, compile_jet = MetricField.jet, MetricField.jets, exprcalc._compile_jet

    def counted(self, x, order=2, check=True):
        orders.append(order)
        return jet(self, x, order=order, check=check)

    def counted_stack(self, points, order=2, check=True):
        orders.extend([order] * len(points))
        return jets(self, points, order=order, check=check)

    def counted_compile(root, n, source, order):
        compiled.append(order)
        return compile_jet(root, n, source, order)

    monkeypatch.setattr(MetricField, "jet", counted)
    monkeypatch.setattr(MetricField, "jets", counted_stack)
    monkeypatch.setattr(exprcalc, "_compile_jet", counted_compile)
    assert cli.main(["scan", "--metric", "conullity3", "--grid", "u=-1.5:1.5:4,w=-1.5:1.5:4"]) == 0
    assert capsys.readouterr().out.count("nilpotent") == 16
    assert orders == [3] * 16
    assert compiled == [3]  # the warp's jet3 kernel, never its jet2 kernel


def test_scan_domain_test_takes_p_from_the_jet(monkeypatch, capsys):
    values = []
    value = exprcalc.Expression.value

    def counted(self, point):
        values.append(tuple(point))
        return value(self, point)

    monkeypatch.setattr(exprcalc.Expression, "value", counted)
    assert cli.main(["scan", "--metric", "conullity3", "--grid", "u=-1.5:1.5:4,w=-1.5:1.5:4"]) == 0
    assert capsys.readouterr().out.count("nilpotent") == 16
    # only the preferred frame evaluates p apart from the jet, once per point
    assert len(values) == len(set(values)) == 16


def test_same_shape_warps_compile_their_kernel_code_once(monkeypatch, capsys):
    plans = exprcalc._kernel_plan  # one emission and compile() per kernel shape
    compiled = []

    def spying(build, kind):
        def spy(*args):
            misses = plans.cache_info().misses
            kernel = build(*args)
            compiled.extend([kind(*args)] * (plans.cache_info().misses - misses))
            return kernel
        return spy

    monkeypatch.setattr(exprcalc, "_compile_jet", spying(exprcalc._compile_jet, lambda *args: f"jet{args[-1]}"))
    monkeypatch.setattr(exprcalc, "_compile_value", spying(exprcalc._compile_value, lambda *args: "value"))
    warps = [f"{a}+cos({b}*u)+cos({c}*w)" for a, b, c in [(3.1, 0.9, 1.2), (2.7, 1.3, 0.6), (3.6, 0.7, 1.4)]]
    point = ["--point", "0.1,0.2,-0.3,0.4"]
    commands = [
        ["scan", "--grid", "u=-1.5:1.5:4,w=-1.5:1.5:4"],
        ["analyze", *point],
        ["flow", *point, "--tmax", "0.5", "--steps", "16"],
    ]

    def run(command, warp):
        assert cli.main([command[0], "--metric", "conullity3", "--p", warp, *command[1:]]) == 0
        return capsys.readouterr().out

    plans.cache_clear()
    warm = []
    for command in commands:
        warm.append(run(command, warps[0]))
        before = list(compiled)
        for warp in warps[1:]:
            assert run(command, warp)
        assert compiled == before  # a new warp of the same shape compiles nothing
    assert sorted(compiled) == ["jet2", "jet3", "value"]  # flow's path jets take jet2
    # an evicted shape is emitted and compiled again, to the same output bytes
    plans.cache_clear()
    assert [run(command, warps[0]) for command in commands] == warm
    assert sorted(compiled) == ["jet2", "jet2", "jet3", "jet3", "value", "value"]


@pytest.mark.parametrize(
    "argv",
    [
        ("--metric", "conullity3", "--point", "0.1,0.2,-0.3,0.4"),
        ("--metric", "sekigawa", "--p", "exp(u)", "--point", "0.2,-0.3,0.1"),
        ("--metric", "sphere", "--point", "1.1,0.4"),
        ("--metric", "product", "--point", "1,0.5,0.2,-0.1"),
        ("--metric", "euclidean", "--dim", "3"),
    ],
    ids=["conullity3", "sekigawa", "sphere", "product", "euclidean"],
)
def test_analyze_request_makes_one_metric_jet(monkeypatch, capsys, argv):
    calls = []
    jet = MetricField.jet

    def counted(self, x, order=2, check=True):
        calls.append((self, order))
        return jet(self, x, order=order, check=check)

    monkeypatch.setattr(MetricField, "jet", counted)
    assert cli.main(["analyze", *argv]) == 0
    requested = calls[0][0]  # a product's jet takes its factors' jets too
    assert [order for metric, order in calls if metric is requested] == [3]


@pytest.mark.parametrize(
    "argv, contractions",
    [
        (("--metric", "sphere", "--point", "1.1,0.4"), 0),
        (("--metric", "product", "--point", "1,0.5,0.2,-0.1"), 0),
        (("--metric", "euclidean", "--dim", "3"), 0),
        (("--metric", "conullity3", "--point", "0.1,0.2,-0.3,0.4"), 1),
    ],
    ids=["sphere", "product", "euclidean", "conullity3"],
)
def test_analyze_contracts_nabla_r_only_for_a_splitting_tensor(monkeypatch, capsys, argv, contractions):
    # counts the solve's right-hand side, the contracted (nabla R)(T, ...); the full nabla R is never built
    calls = []
    solve_rhs = splitting._solve_rhs

    def counted(*args):
        calls.append(1)
        return solve_rhs(*args)

    def full(*args):
        raise AssertionError("analyze built the full nabla R")

    monkeypatch.setattr(splitting, "_solve_rhs", counted)
    monkeypatch.setattr(curvature, "_nabla_riemann", full)
    assert cli.main(["analyze", *argv]) == 0
    assert len(calls) == contractions


def _stacked_systems(metric, count, seed):
    """``(rdown, rhs, bases)`` of the nabla R solve at ``count`` seeded points near the origin, stacked."""
    points = np.random.default_rng(seed).uniform(-0.5, 0.5, (count, metric.dim))
    jets, faults = metric.jets(points, order=3)
    assert not faults
    parts, _, kernels = curvature._curvatures(*jets[:3], 1e-7)
    t_vecs = kernels.basis[:, 0]
    rows, kept = _complement(jets[0], kernels.basis[:, :1])
    bases = rows[kept].reshape(count, -1, metric.dim)
    return parts[4], curvature._solve_rhs(jets[1], jets[3], parts, t_vecs), bases


def _lstsq(rdown, rhs, basis):
    """``(coef, residual)`` of one point's system by ``np.linalg.lstsq``, the residual as the solve defines it."""
    n = rdown.shape[-1]
    a = np.einsum("ijkl,ai->jkla", rdown, basis).reshape(n ** 3, -1)
    b = rhs.reshape(n, n ** 3).T
    coef = np.linalg.lstsq(a, b, rcond=None)[0]
    scale = np.linalg.norm(b)
    return coef, np.linalg.norm(a @ coef - b) / scale if scale > 0.0 else 0.0


@pytest.mark.parametrize(
    "metric", [catalog_conullity3("3+cos(u)+cos(w)"), catalog_sekigawa("2+u*u")], ids=["conullity3", "sekigawa"]
)
def test_stacked_solve_is_each_points_own_bitwise_and_lstsqs(metric):
    rdown, rhs, bases = _stacked_systems(metric, 16, 3)
    stacked = splitting._least_squares(rdown, rhs, bases)
    for i, (coef, residual) in enumerate(stacked):
        (alone, alone_residual), = splitting._least_squares(rdown[i], rhs[i], bases[i])
        assert (coef.tobytes(), residual) == (alone.tobytes(), alone_residual)
        want, want_residual = _lstsq(rdown[i], rhs[i], bases[i])
        assert np.abs(coef - want).max() <= 64 * np.spacing(np.abs(want).max())
        assert residual < 1e-14 and want_residual < 1e-14


def test_stacked_solve_matches_lstsq_off_the_range_on_zero_and_rank_deficient_systems():
    rng = np.random.default_rng(9)
    rdown, rhs, bases = rng.normal(size=(5, 4, 4, 4, 4)), rng.normal(size=(5, 4, 4, 4, 4)), rng.normal(size=(5, 3, 4))
    rhs[1] = 0.0
    bases[2, 2] = bases[2, 0]  # a repeated frame row: rank 2, lstsq's minimum-norm solution
    bases[3, 1:] = 0.0  # rank 1
    for i, (coef, residual) in enumerate(splitting._least_squares(rdown, rhs, bases)):
        want, want_residual = _lstsq(rdown[i], rhs[i], bases[i])
        assert np.abs(coef - want).max() <= 1e-13 * max(np.abs(want).max(), 1.0), i
        assert abs(residual - want_residual) <= 1e-13, i
    assert splitting._least_squares(rdown[1], rhs[1], bases[1])[0][1] == 0.0
    assert 0.5 < splitting._least_squares(rdown[0], rhs[0], bases[0])[0][1] < 1.0  # off the range of R


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_stacked_solve_of_a_non_finite_right_hand_side_raises(bad):
    rdown, rhs, bases = _stacked_systems(conullity3(), 4, 3)
    rhs[2, 1, 0, 2, 3] = bad
    with pytest.raises(FloatingPointError, match="non-finite right-hand side"):
        splitting._least_squares(rdown, rhs, bases)
    # alone, the other points solve
    assert splitting._least_squares(rdown[1], rhs[1], bases[1])[0][1] < 1e-14


def test_classify_kinds():
    zero = classify(np.zeros((3, 3)))
    assert zero.kind == "zero" and zero.nilpotency_index == 1

    nil = classify([[0.0, 1.0, 0.5], [0.0, 0.0, 2.0], [0.0, 0.0, 0.0]])
    assert nil.kind == "nilpotent" and nil.nilpotency_index == 3
    assert np.allclose(nil.eigenvalues, 0.0, atol=1e-10)

    real = classify([[1.0, 0.0], [0.0, 2.0]])
    assert real.kind == "real"
    assert np.allclose(real.eigenvalues, [1.0, 2.0])
    assert real.trace == pytest.approx(3.0)
    assert real.det_block == pytest.approx(2.0)

    pair = classify([[1.0, 2.0], [-2.0, 1.0]])
    assert pair.kind == "complex_pair"
    assert pair.det_block == pytest.approx(5.0)
    assert sorted(pair.eigenvalues.imag) == pytest.approx([-2.0, 2.0])


def test_classify_five_by_five_jordan_block():
    jordan = np.eye(5, k=1) + 0.5 * np.eye(5, k=2)
    inv = classify(jordan)
    assert inv.kind == "nilpotent" and inv.nilpotency_index == 5
    assert np.array_equal(inv.eigenvalues, np.zeros(5))


def test_classify_tolerance_switch():
    tiny = [[0.0, 1e-9], [0.0, 0.0]]
    assert classify(tiny, tol=1e-8).kind == "zero"
    assert classify(tiny, tol=1e-10).kind == "nilpotent"
    with pytest.raises(ValueError):
        classify(np.zeros((2, 3)))


def test_riccati_closed_form_nilpotent_entry_growth():
    a, b, c = 0.7, -1.3, 0.4
    c0 = np.array([[0.0, a, c], [0.0, 0.0, b], [0.0, 0.0, 0.0]])
    for t in (0.0, 0.5, 2.0, -3.0):
        ct = riccati_closed_form(c0, t)
        expected = c0 + t * (c0 @ c0)
        assert np.allclose(ct, expected, atol=1e-12)
        assert ct[0, 2] == pytest.approx(c + t * a * b)


def test_riccati_cocycle_property():
    rng = np.random.default_rng(12)
    c0 = 0.3 * rng.standard_normal((3, 3))
    s, t = 0.4, 0.25
    direct = riccati_closed_form(c0, s + t)
    stepped = riccati_closed_form(riccati_closed_form(c0, s), t)
    assert np.allclose(direct, stepped, atol=1e-12)


def test_riccati_similarity_invariance():
    rng = np.random.default_rng(13)
    c0 = 0.3 * rng.standard_normal((3, 3))
    s = rng.standard_normal((3, 3)) + 3.0 * np.eye(3)
    si = np.linalg.inv(s)
    left = riccati_closed_form(s @ c0 @ si, 0.7)
    right = s @ riccati_closed_form(c0, 0.7) @ si
    assert np.allclose(left, right, atol=1e-10)


def test_riccati_blowup_detection():
    with pytest.raises(RiccatiBlowupError) as exc:
        riccati_closed_form([[2.0]], 0.5)
    assert exc.value.t == 0.5
    with pytest.raises(RiccatiBlowupError):
        riccati_ode([[2.0]], 1.0)


def _closed_form_or_error(c0, t):
    try:
        return riccati_closed_form(c0, t)
    except Exception as exc:
        return exc


def _same_outcome(got, want) -> bool:
    if isinstance(want, Exception):
        return type(got) is type(want) and str(got) == str(want)
    return isinstance(got, np.ndarray) and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_stacked_riccati_predictions_are_each_times_own_bitwise(k, monkeypatch):
    rng = np.random.default_rng(90 + k)
    c0 = rng.standard_normal((k, k))
    c0[rng.random((k, k)) < 0.3] = -0.0
    times = np.concatenate([[0.0], np.sort(rng.uniform(-1.0, 1.0, 8))])
    svds = []
    real_svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **kw: svds.append(1) or real_svd(*a, **kw))
    predictions = splitting._riccati_predictions(c0, times)
    # one pole test for all nine times; the inverse's norm bound decides
    # each time's condition test without an SVD
    assert len(svds) == 1
    monkeypatch.undo()
    for t, got in zip(times, predictions):
        assert _same_outcome(got, _closed_form_or_error(c0, float(t)))


def test_stacked_riccati_predictions_keep_each_pole_at_its_time():
    # C = 2 / (1 - 2t): a pole at t = 0.5 between finite predictions, one
    # just before it that passes the inverse's condition test but not the
    # pole test, and a product t C0 that overflows at t = 1e308 (the stacked
    # call redone per time)
    c0 = np.array([[2.0]])
    times = [0.0, 0.25, 0.5 - 1e-13, 0.5, 0.75]
    predictions = splitting._riccati_predictions(c0, times)
    assert [type(p) for p in predictions[2:4]] == [RiccatiBlowupError] * 2 and predictions[3].t == 0.5
    for t, got in zip(times, predictions):
        assert _same_outcome(got, _closed_form_or_error(c0, t))
    with np.errstate(over="raise", invalid="raise"):
        times = [0.0, 0.25, 1e308]
        predictions = splitting._riccati_predictions(c0, times)
        assert isinstance(predictions[2], FloatingPointError)
        for t, got in zip(times, predictions):
            assert _same_outcome(got, _closed_form_or_error(c0, t))


def test_evolution_aborts_at_a_sample_on_a_pole(monkeypatch):
    # a start tensor with a pole at the sample t = 0.25: the walk stops there
    start = np.diag([4.0, 0.0, 0.0])
    monkeypatch.setattr(splitting, "_sample_tensors", lambda metric, path, indices, *rest: [start] * len(indices))
    report = evolve_along_nullity_geodesic(conullity3(), [0.1, 0.2, 0.0, 0.4], tmax=0.5, steps=16)
    assert report.sample_times.tolist() == [0.0, 0.0625, 0.125, 0.1875]
    with pytest.raises(RiccatiBlowupError) as exc:
        riccati_closed_form(start, 0.25)
    assert report.aborted == str(exc.value)


def test_riccati_ode_matches_closed_form():
    rng = np.random.default_rng(14)
    c0 = 0.5 * rng.standard_normal((3, 3))
    ode = riccati_ode(c0, 0.3, steps=200)
    closed = riccati_closed_form(c0, 0.3)
    assert np.allclose(ode, closed, atol=1e-10)


def test_trace_det_evolution_laws():
    assert trace_det_evolution(0.0, 1.0, 1.0) == (-1.0, 0.5)
    rng = np.random.default_rng(15)
    c0 = 0.4 * rng.standard_normal((2, 2))
    tr0 = float(np.trace(c0))
    det0 = float(np.linalg.det(c0))
    ct = riccati_closed_form(c0, 0.6)
    tr_pred, det_pred = trace_det_evolution(tr0, det0, 0.6)
    assert float(np.trace(ct)) == pytest.approx(tr_pred, abs=1e-12)
    assert float(np.linalg.det(ct)) == pytest.approx(det_pred, abs=1e-12)
    with pytest.raises(RiccatiBlowupError):
        trace_det_evolution(2.0, 1.0, 1.0)


def test_evolution_along_kernel_geodesic():
    report = evolve_along_nullity_geodesic(conullity3(), ORIGIN4, tmax=0.4)
    assert report.aborted is None
    assert report.max_error < 1e-8
    assert report.divergence_residual < 1e-8
    assert report.basis_gram_drift < 1e-12
    assert len(report.measured) == len(report.predicted) == report.sample_times.size
    assert report.sample_times[0] == 0.0
    assert report.sample_times[-1] == pytest.approx(0.4)


def test_evolution_from_generic_start():
    report = evolve_along_nullity_geodesic(
        conullity3(), [0.3, 0.1, -0.2, 0.2], tmax=0.4
    )
    assert report.aborted is None
    assert report.max_error < 1e-8
    assert report.divergence_residual < 1e-8


def test_evolution_stops_where_the_kernel_changes_dimension():
    base = conullity3()
    plane_kernel = catalog_product(catalog_sphere(1.0), catalog_euclidean(2))

    def grows_past_v(q, order):
        # the kernel geodesic from the origin runs along v = t; past v = 0.28
        # the curvature (order-2+ jets only, so the path is unchanged) is that
        # of S^2 x R^2, whose kernel is the (v, w) plane
        if order >= 2 and q[2] > 0.28:
            return plane_kernel.jet([1.0, 0.5, q[2], q[3]], order=order, check=False)
        return base.jet(q, order=order, check=False)

    metric = MetricField(4, base.coordinates, grows_past_v, domain=base.contains, max_order=3)
    report = evolve_along_nullity_geodesic(metric, ORIGIN4, tmax=0.5, steps=16)
    assert report.aborted.startswith("curvature kernel has dimension 2, expected 1")
    assert report.sample_times.tolist() == [0.0, 0.0625, 0.125, 0.1875, 0.25]
    assert len(report.measured) == len(report.deviations) == 5
    assert report.divergence_residual < 1e-8


@pytest.mark.parametrize(
    "metric, point",
    [
        (conullity3(), [0.1, 0.2, -0.3, 0.4]),
        (catalog_sekigawa("2+u*u"), [0.2, 0.3, 0.1]),
        (catalog_product(catalog_sphere(1.0), catalog_euclidean(2)), [1.0, 0.5, 0.2, -0.1]),
    ],
    ids=["conullity3", "sekigawa", "product"],
)
def test_evolution_tensors_match_the_stencil_in_the_transported_frame(metric, point):
    report = evolve_along_nullity_geodesic(metric, point, tmax=0.5, steps=64, samples=5)
    assert report.aborted is None and report.sample_times.size == 5
    path = report.path
    for t, c in zip(report.sample_times, report.measured):
        i = int(np.flatnonzero(path.times == t)[0])
        v = path.velocities[i]
        stencil = splitting_tensor(metric, path.points[i], basis=path.frame[i],
                                   field=lambda q: kernel_section(metric, q, reference=v)[0])
        assert c.shape == (metric.dim - 1,) * 2
        assert np.max(np.abs(c - stencil.matrix)) < 1e-9


def test_evolution_tensor_takes_t_along_the_velocity():
    # C_{-T} = -C_T: a sample's T is the velocity's projection onto the kernel
    metric = conullity3()
    data = curvature_data(metric, [0.1, 0.2, -0.3, 0.4], nabla_r=True)
    frame = metric.preferred_frame(data.point)
    t = data.nullity.basis[0]
    along = tensor_alone(metric, data.point, 3.0 * t, frame)
    against = tensor_alone(metric, data.point, -t, frame)
    p = 3.0 + math.cos(0.2) + math.cos(0.4)
    assert along[0, 1] == pytest.approx(math.sqrt(2.0) / p, abs=1e-12)
    assert np.max(np.abs(along + against)) < 1e-15


def test_evolution_gates_the_nabla_r_residual(monkeypatch):
    # the start tensor past the gate raises; a sample past it ends the ride
    with pytest.raises(splitting.KernelFieldError) as exc:
        evolve_along_nullity_geodesic(_hessian_line_warp(), [0.3, 0.0, 0.1], tmax=0.2, steps=8)
    assert exc.value.residual > 0.5
    solve = splitting._solve  # the start tensor and every sample pass the gate

    def rough_past_quarter(*args):
        # the 9 samples in one stack, in time order 0.0625 apart: those past t = 0.25 get residual 1
        return [(coef, 1.0 if j > 4 else residual) for j, (coef, residual) in enumerate(solve(*args))]

    monkeypatch.setattr(splitting, "_solve", rough_past_quarter)
    report = evolve_along_nullity_geodesic(conullity3(), [0.1, 0.2, 0.0, 0.4], tmax=0.5, steps=16)
    assert report.aborted.startswith("curvature kernel is not a smooth line field near point")
    assert report.sample_times.tolist() == [0.0, 0.0625, 0.125, 0.1875, 0.25]


_ABORTS = (KernelDimensionError, AlignmentError, splitting.KernelFieldError, RiccatiBlowupError)


def _each_sample(metric, report, samples=9):
    """``(times, measured, predicted, deviations, aborted)`` bytes of the ride's samples, each measured alone.

    The reference for the stacked samples: the pipeline on each sample
    alone (``tensor_alone``), in order, stopping at the first abort error and
    raising any other error.
    """
    path, start = report.path, report.start_matrix
    times, measured, predicted, deviations, aborted = [], [], [], [], None
    for i in flows._sample_indices(path.times.size, samples):
        try:
            c = tensor_alone(metric, path.points[i], path.velocities[i], path.frame[i], report.kernel_dimension)
            pred = riccati_closed_form(start, float(path.times[i]))
        except _ABORTS as exc:
            aborted = str(exc)
            break
        times.append(path.times[i])
        measured.append(c.tobytes())
        predicted.append(pred.tobytes())
        deviations.append(float(np.max(np.abs(c - pred))))
    return np.array(times).tobytes(), measured, predicted, deviations, aborted


def _samples_of(report):
    """:func:`_each_sample`'s fields of ``report``."""
    return (report.sample_times.tobytes(), [c.tobytes() for c in report.measured],
            [p.tobytes() for p in report.predicted], list(report.deviations), report.aborted)


_SAMPLED_RIDES = [
    (catalog_conullity3("3+cos(0.9*u)+cos(1.2*w)+0.3*sin(x)"), [0.1, 0.2, -0.3, 0.4]),
    (catalog_sekigawa("2+u*u"), [0.2, 0.3, 0.1]),
    # no stacked form: the samples' jets are taken point by point
    (_counting(conullity3())[0], [0.1, 0.2, -0.3, 0.4]),
]
_SAMPLED_IDS = ["conullity3", "sekigawa_built_complement", "unstacked"]


@pytest.mark.parametrize("metric, point", _SAMPLED_RIDES, ids=_SAMPLED_IDS)
def test_stacked_sample_tensors_are_each_samples_own_bitwise(metric, point):
    report = evolve_along_nullity_geodesic(metric, point, tmax=0.5, steps=32)
    assert report.aborted is None and report.sample_times.size == 9
    assert (metric.preferred_frame is None) == (metric.dim == 3)
    path = report.path
    indices = flows._sample_indices(path.times.size, 9)
    start_jet = curvature_data(metric, path.points[0], nabla_r=True)._jet
    stacked = splitting._sample_tensors(metric, path, indices, 1, None, start_jet)
    for i, c in zip(indices, stacked):
        alone = tensor_alone(metric, path.points[i], path.velocities[i], path.frame[i])
        assert c.tobytes() == alone.tobytes()
    assert [c.tobytes() for c in report.measured[1:]] == [c.tobytes() for c in stacked[1:]]
    assert _samples_of(report) == _each_sample(metric, report)


@pytest.mark.parametrize("metric, point", _SAMPLED_RIDES, ids=_SAMPLED_IDS)
def test_sample_zero_is_the_start_tensor_bitwise(metric, point):
    # x0 with its launch velocity and frame: measured alone, it is the start tensor
    report = evolve_along_nullity_geodesic(metric, point, tmax=0.5, steps=8)
    path = report.path
    alone = tensor_alone(metric, path.points[0], path.velocities[0], path.frame[0])
    assert report.sample_times[0] == 0.0
    assert report.measured[0].tobytes() == report.start_matrix.tobytes() == alone.tobytes()


def _kernel_grows_past(v_grow, v_fail):
    """conullity3 whose order-2+ jets past v = ``v_grow`` are those of S^2 x R^2 (kernel the (v, w)
    plane) and past v = ``v_fail`` raise; the order-1 jets, and so the kernel ride from the origin
    along v = t, are unchanged."""
    base = conullity3()
    plane_kernel = catalog_product(catalog_sphere(1.0), catalog_euclidean(2))

    def jet(q, order):
        if order >= 2 and q[2] > v_fail:
            raise ValueError(f"no jet at v = {q[2]}")
        if order >= 2 and q[2] > v_grow:
            return plane_kernel.jet([1.0, 0.5, q[2], q[3]], order=order, check=False)
        return base.jet(q, order=order, check=False)

    return MetricField(4, base.coordinates, jet, domain=base.contains, max_order=3)


def test_ride_aborting_at_a_middle_sample_reports_each_sample_alone():
    # samples every 0.0625 in v: the one at 0.3125 aborts, the last (0.5) cannot be jetted
    metric = _kernel_grows_past(0.28, 0.45)
    report = evolve_along_nullity_geodesic(metric, ORIGIN4, tmax=0.5, steps=16)
    assert report.aborted.startswith("curvature kernel has dimension 2, expected 1")
    assert report.sample_times.tolist() == [0.0, 0.0625, 0.125, 0.1875, 0.25]
    assert _samples_of(report) == _each_sample(metric, report)
    # a sample's error that no abort comes before is raised, as measured alone
    metric = _kernel_grows_past(math.inf, 0.28)
    with pytest.raises(ValueError, match="no jet at v = 0.3125"):
        evolve_along_nullity_geodesic(metric, ORIGIN4, tmax=0.5, steps=16)


@pytest.mark.parametrize(
    "stage, ndim",
    [
        ("_curvatures", 3),
        # the id names the full nabla R that the contracted right-hand side replaced
        pytest.param("_solve_rhs", 4, id="_nabla_riemann-3"),
        ("_least_squares", 5),
    ],
)
def test_sample_stage_that_raises_is_redone_per_sample(monkeypatch, stage, ndim):
    metric, point = _SAMPLED_RIDES[0]
    want = _samples_of(evolve_along_nullity_geodesic(metric, point, tmax=0.5, steps=32))
    real = getattr(splitting, stage)
    sizes = []

    def stacked_fails(*args):
        if args[0].ndim == ndim:  # the start's kernel (curvature_data) is no stack
            sizes.append(len(args[0]))
            if len(args[0]) > 1:
                raise FloatingPointError("forced")
        return real(*args)

    monkeypatch.setattr(splitting, stage, stacked_fails)
    report = evolve_along_nullity_geodesic(metric, point, tmax=0.5, steps=32)
    # the start's tensor is measured with the 8 later samples
    assert sizes == [9] + [1] * 9
    assert _samples_of(report) == want


def test_a_singular_g_at_a_later_sample_leaves_the_others_stacked(monkeypatch):
    # sample 5's 3-jet has a g that invert rejects: R's stage drops that sample and
    # restacks the other 8, none of them measured alone
    base, point = _SAMPLED_RIDES[0]
    indices = flows._sample_indices(33, 9)
    target = []

    def jet(x, order):
        out = base.jet(x, order=order, check=False)
        if order == 3 and target and np.array_equal(x, target[0]):
            return (np.diag([1.0, 1.0, 1.0, 1e-13]),) + tuple(out[1:])
        return out

    metric = MetricField(4, base.coordinates, jet, domain=base.contains, preferred_frame=base.preferred_frame,
                         max_order=3)
    clean = evolve_along_nullity_geodesic(metric, point, tmax=0.5, steps=32)
    path = clean.path
    assert clean.aborted is None and clean.sample_times.size == 9
    target.append(path.points[indices[5]])
    real, sizes = splitting._curvatures, []

    def counted(g, *rest):
        if g.ndim == 3:  # the start's kernel (curvature_data) is no stack
            sizes.append(len(g))
        return real(g, *rest)

    monkeypatch.setattr(splitting, "_curvatures", counted)
    with pytest.raises(SingularMatrixError) as raised:
        evolve_along_nullity_geodesic(metric, point, tmax=0.5, steps=32)
    assert sizes == [9, 8]
    with pytest.raises(SingularMatrixError) as alone:
        tensor_alone(metric, target[0], path.velocities[indices[5]], path.frame[indices[5]])
    assert str(raised.value) == str(alone.value)
    tensors = splitting._sample_tensors(metric, path, indices, 1, None, curvature_data(metric, point, nabla_r=True)._jet)
    assert str(tensors[5]) == str(alone.value)
    assert [c.tobytes() for j, c in enumerate(tensors) if j != 5] == [
        c.tobytes() for j, c in enumerate(clean.measured) if j != 5
    ]


def test_sample_fault_stays_with_its_sample(monkeypatch):
    # a float fault in one sample's R: the stacked stage is redone per sample,
    # and the ride raises the fault where it reaches that sample
    metric, point = _SAMPLED_RIDES[0]
    report = evolve_along_nullity_geodesic(metric, point, tmax=0.5, steps=32)
    bad = metric.jet(report.path.points[20], order=1)[0]
    real = curvature._curvatures

    def faulty(g, *args):
        if any(q.tobytes() == bad.tobytes() for q in g.reshape(-1, 4, 4)):
            raise FloatingPointError("forced fault")
        return real(g, *args)

    monkeypatch.setattr(curvature, "_curvatures", faulty)
    monkeypatch.setattr(splitting, "_curvatures", faulty)
    with pytest.raises(FloatingPointError, match="forced fault"):
        _each_sample(metric, report)
    with pytest.raises(FloatingPointError, match="forced fault"):
        evolve_along_nullity_geodesic(metric, point, tmax=0.5, steps=32)


@pytest.mark.parametrize(
    "metric, low, reference, dimension",
    [
        (conullity3(), [-0.9] * 4, np.ones(4), 1),
        (catalog_sekigawa("exp(u)"), [-0.9] * 3, np.ones(3), 1),
        (catalog_product(catalog_sphere(1.0), catalog_euclidean(2)), [0.3, -0.9, -0.9, -0.9],
         [0.0, 0.0, 3.0, 4.0], 2),
    ],
    ids=["conullity3", "sekigawa", "product"],
)
def test_stacked_kernel_sections_are_each_point_bitwise(metric, low, reference, dimension):
    pts = np.random.default_rng(32).uniform(low, 0.9, (200, metric.dim))
    field = splitting._kernel_field(metric, reference, dimension, None)
    sections = field(pts)
    for q, section in zip(pts, sections):
        assert section.tobytes() == kernel_section(metric, q, reference)[0].tobytes()
        assert section.tobytes() == field(q[None])[0].tobytes()


def _faulty(metric, faults):
    """``metric`` whose jets at the given call indices fail: a point outside
    the domain, a singular g, or a flat jet (the kernel is everything)."""
    calls = []
    n = metric.dim

    def jet(x, order):
        kind = faults.get(len(calls))
        calls.append(x)
        if kind == "domain":
            raise ChartDomainError("forced domain error", x)
        if kind == "singular":
            g = np.diag([1.0] * (n - 1) + [10.0 ** -(13 + len(calls))])
            return g, np.zeros((n, n, n)), np.zeros((n, n, n, n))
        if kind == "flat":
            return np.eye(n), np.zeros((n, n, n)), np.zeros((n, n, n, n))
        return metric.jet(x, order=order, check=False)

    faulty = MetricField(n, metric.coordinates, jet, domain=metric.contains,
                         preferred_frame=metric.preferred_frame)
    return faulty, calls


@pytest.mark.parametrize(
    "faults, error, first",
    [
        ({3: "flat", 5: "singular"}, KernelDimensionError, 3),
        ({2: "singular", 6: "domain"}, SingularMatrixError, 2),
        ({1: "domain", 4: "singular"}, ChartDomainError, 1),
        ({7: "singular", 9: "flat"}, SingularMatrixError, 7),
        ({4: "flat", 16: "domain"}, KernelDimensionError, 4),
    ],
)
def test_stencil_reports_its_first_failing_point(faults, error, first):
    # jet 0 is the base point; jets 1..16 the stencil, per axis +h, -h, +2h, -2h
    metric, calls = _faulty(conullity3(), faults)
    with pytest.raises(error) as exc:
        splitting_tensor(metric, [0.1, 0.2, -0.3, 0.4])
    failing = calls[first]
    if error is SingularMatrixError:
        assert exc.value.smallest_singular_value == 10.0 ** -(14 + first)
    else:
        assert np.array2string(failing, precision=6) in str(exc.value)
    stencil = splitting._stencil(np.array([0.1, 0.2, -0.3, 0.4]), 1e-4)
    assert failing.tolist() == stencil[first - 1].tolist()
