import math

import numpy as np
import pytest

from geonull import splitting
from geonull.curvature import nullity
from geonull.flows import geodesic, nullity_geodesic_check, parallel_transport
from geonull.metricspace import (
    MetricField,
    catalog_conullity3,
    catalog_euclidean,
    catalog_product,
    catalog_sekigawa,
    catalog_sphere,
)
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


def _counting(metric):
    """``metric`` behind a jet that records the order of every call."""
    orders = []

    def jet(x, order):
        orders.append(order)
        return metric.jet(x, order=order, check=False)

    counted = MetricField(
        metric.dim, metric.coordinates, jet,
        provenance=metric.provenance, preferred_frame=metric.preferred_frame,
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
    assert not path.truncated and orders == [1] * (4 * m)
    orders.clear()
    parallel_transport(metric, path, np.eye(4))
    # one jet per node serves its Gamma and the gram drift; one per midpoint
    assert orders == [1] * (2 * m + 1)
    orders.clear()
    report = nullity_geodesic_check(metric, start, tmax=0.5, steps=m, samples=s)
    assert report.sample_times.size == s
    # one jet at the start and per sample gives the kernel and g; 4 per RK4 step
    assert sorted(orders) == [1] * (4 * m) + [2] * (s + 1)
    assert orders[0] == 2


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


def test_evolution_stops_where_the_kernel_changes_dimension(monkeypatch):
    section_of = splitting.kernel_section

    def grows_past_v(metric, q, reference=None, rel_tol=None):
        section, basis = section_of(metric, q, reference=reference, rel_tol=rel_tol)
        if q[2] > 0.28:  # the kernel geodesic from the origin runs along v = t
            basis = np.vstack([basis, [1.0, 0.0, 0.0, 0.0]])
        return section, basis

    monkeypatch.setattr(splitting, "kernel_section", grows_past_v)
    report = evolve_along_nullity_geodesic(conullity3(), ORIGIN4, tmax=0.5, steps=16)
    assert report.aborted.startswith("curvature kernel has dimension 2, expected 1")
    assert report.sample_times.tolist() == [0.0, 0.0625, 0.125, 0.1875, 0.25]
    assert len(report.measured) == len(report.deviations) == 5
    assert report.divergence_residual < 1e-8
