import math

import numpy as np
import pytest

from geonull import cli, exprcalc, splitting
from geonull.curvature import _complement, curvature_data, nullity
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


def _counting(metric, max_order=2):
    """``metric`` behind a jet that records the order of every call."""
    orders = []

    def jet(x, order):
        orders.append(order)
        return metric.jet(x, order=order, check=False)

    counted = MetricField(
        metric.dim, metric.coordinates, jet,
        provenance=metric.provenance, preferred_frame=metric.preferred_frame, max_order=max_order,
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
    # the section at x0; per tensor (the start and s samples) one order-1 jet
    # at the point and 17 kernel sections (the point and 16 stencil points);
    # 2m + 1 for the kernel geodesic with its frame (stage repeats reuse their
    # jet, see above): 694 at m = 256, s = 9, as in a kernel-mode flow request
    assert sorted(orders) == [1] * ((s + 1) + 2 * m + 1) + [2] * (1 + 17 * (s + 1))
    assert len(orders) == 1 + 18 * (s + 1) + 2 * m + 1


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
        basis = _complement(data.g, data.nullity.basis)
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
            assert cli._scan_worker(metric, pt, None, cli.DEFAULT_FD_STEP)[3] == "nilpotent"
            assert residual <= 1e-7


def test_nabla_r_kind_near_the_warp_floor_is_nilpotent_or_none():
    # p = exp(u) near e^-2 and |x|, |v| up to 3: g is ill-conditioned and R carries
    # noise; the stencil then names wrong kinds, the residual gate names none
    metric = catalog_sekigawa("exp(u)")
    rng = np.random.default_rng(31)
    kinds = []
    for _ in range(40):
        pt = np.array([rng.uniform(-3.0, 3.0), rng.uniform(-2.5, -1.5), rng.uniform(-3.0, 3.0)])
        kinds.append(cli._scan_worker(metric, pt, None, cli.DEFAULT_FD_STEP)[3])
    assert set(kinds) == {"nilpotent", ""}
    assert kinds.count("nilpotent") >= 20


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
        d2g = np.zeros((3, 3, 3, 3))
        d2g[2, 2] = 2.0 * (np.outer(df, df) + f * np.diag([1.0, y, 0.0]))
        return g, dg, d2g

    return MetricField(3, ("x", "y", "z"), jet, name="hessian_line_warp")


def test_residual_gate_rejects_a_kernel_line_that_is_no_field():
    metric = _hessian_line_warp()
    pt = np.array([0.3, 0.0, 0.1])
    data = curvature_data(metric, pt)
    assert data.nullity.nullity == 1
    assert np.allclose(np.abs(data.nullity.basis[0]), [0.0, 1.0, 0.0], atol=1e-12)
    _, residual = splitting_tensor_from_curvature(metric, data)
    assert residual > 0.5 > splitting.SMOOTH_KERNEL_RESIDUAL
    assert cli._scan_worker(metric, pt, None, cli.DEFAULT_FD_STEP)[3] == ""
    with pytest.raises(KernelDimensionError):  # the stencil meets the trivial kernel at y = h
        splitting_tensor(metric, pt)


@pytest.mark.parametrize(
    "metric, point",
    [(conullity3(), [0.1, 0.2, -0.3, 0.4]), (catalog_sekigawa("exp(u)"), [0.2, -0.3, 0.1])],
    ids=["preferred_frame", "built_complement"],
)
def test_jets_per_nabla_r_tensor(metric, point):
    counted, orders = _counting(metric)
    data = curvature_data(counted, point)
    orders.clear()
    splitting_tensor_from_curvature(counted, data)
    # without a 3-jet: two stencil points per axis; g, Gamma, R and the
    # kernel at x come from data
    assert orders == [2] * (2 * metric.dim)
    # with one, the point's 3-jet gives nabla R too, and the tensor no jet
    counted, orders = _counting(metric, max_order=3)
    data = curvature_data(counted, point, nabla_r=True)
    assert orders == [3]
    splitting_tensor_from_curvature(counted, data)
    assert orders == [3]


def test_nabla_r_tensor_from_the_3_jet_matches_the_stencil_of_r():
    metric = conullity3()
    pt = [0.1, 0.2, -0.3, 0.4]
    analytic = splitting_tensor_from_curvature(metric, curvature_data(metric, pt, nabla_r=True))
    stencil = splitting_tensor_from_curvature(metric, curvature_data(metric, pt))
    assert np.max(np.abs(analytic[0] - stencil[0])) < 1e-8
    assert analytic[1] < 1e-13  # no step noise in the right-hand side


def test_scan_request_makes_one_third_order_jet_per_point(monkeypatch, capsys):
    orders, compiled = [], []
    jet, compile_jet = MetricField.jet, exprcalc._compile_jet

    def counted(self, x, order=2, check=True):
        orders.append(order)
        return jet(self, x, order=order, check=check)

    def counted_compile(root, n, source, order):
        compiled.append(order)
        return compile_jet(root, n, source, order)

    monkeypatch.setattr(MetricField, "jet", counted)
    monkeypatch.setattr(exprcalc, "_compile_jet", counted_compile)
    assert cli.main(["scan", "--metric", "conullity3", "--grid", "u=-1.5:1.5:4,w=-1.5:1.5:4"]) == 0
    assert capsys.readouterr().out.count("nilpotent") == 16
    assert orders == [3] * 16
    assert compiled == [3]  # the warp's jet3 kernel, never its jet2 kernel


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
        # the curvature (order-2 jets only, so the path is unchanged) is that
        # of S^2 x R^2, whose kernel is the (v, w) plane
        if order == 2 and q[2] > 0.28:
            return plane_kernel.jet([1.0, 0.5, q[2], q[3]], check=False)
        return base.jet(q, order=order, check=False)

    metric = MetricField(4, base.coordinates, grows_past_v, domain=base.contains)
    report = evolve_along_nullity_geodesic(metric, ORIGIN4, tmax=0.5, steps=16)
    assert report.aborted.startswith("curvature kernel has dimension 2, expected 1")
    assert report.sample_times.tolist() == [0.0, 0.0625, 0.125, 0.1875, 0.25]
    assert len(report.measured) == len(report.deviations) == 5
    assert report.divergence_residual < 1e-8


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
