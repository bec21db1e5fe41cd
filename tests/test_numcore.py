import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geonull.curvature import curvature_data
from geonull.metricspace import catalog_conullity3
from geonull.numcore import (
    KERNEL_ABS_FLOOR,
    SingularMatrixError,
    _each_alone,
    _invert_each,
    _g_gram_schmidt,
    eigenvalues,
    invert,
    kernel,
)


def test_invert_random_spd():
    rng = np.random.default_rng(11)
    for _ in range(25):
        n = rng.integers(1, 7)
        a = rng.standard_normal((n, n))
        m = a @ a.T + n * np.eye(n)
        back = invert(m)
        assert np.allclose(m @ back, np.eye(n), atol=1e-10)


def test_invert_rejects_singular():
    with pytest.raises(SingularMatrixError) as err:
        invert(np.array([[1.0, 2.0], [2.0, 4.0]]))
    assert err.value.smallest_singular_value < 1e-12


def test_invert_rejects_ill_conditioned():
    with pytest.raises(SingularMatrixError):
        invert(np.diag([1.0, 1e-15]))


def test_invert_of_a_stack_is_each_inverse_bitwise():
    rng = np.random.default_rng(12)
    a = rng.standard_normal((2, 3, 4, 4))
    stack = a @ a.transpose(0, 1, 3, 2) + 4.0 * np.eye(4)
    inverses = invert(stack)
    assert inverses.shape == stack.shape
    for idx in np.ndindex(2, 3):
        assert inverses[idx].tobytes() == invert(stack[idx]).tobytes()
        # inv and a solve against the identity run the same LAPACK gesv
        assert inverses[idx].tobytes() == np.linalg.solve(stack[idx], np.eye(4)).tobytes()


def test_invert_of_a_stack_reports_its_first_failing_matrix():
    stack = np.array([np.eye(2), np.diag([1.0, 1e-14]), np.diag([1.0, 1e-15]), np.eye(2)])
    with pytest.raises(SingularMatrixError) as err:
        invert(stack)
    assert err.value.smallest_singular_value == 1e-14
    with pytest.raises(ValueError, match="non-square"):
        invert(np.zeros((3, 2, 3)))


def _svd_invert_each(m):
    """The condition test by one SVD of every matrix: the reference for the screened ``_invert_each``."""
    a = np.asarray(m, dtype=float)
    s = np.linalg.svd(a, compute_uv=False)
    smallest = s[..., -1]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        passed = ~((smallest <= 0.0) | (s[..., 0] / smallest > 1e12))
    inverse = np.zeros_like(a)
    inverse[passed] = np.linalg.inv(a[passed])
    return inverse, passed, smallest


def _invert_outcomes(m):
    """``(_invert_each's outcome, invert's)`` next to the SVD reference's: bytes, or the error raised."""
    try:
        inverse, passed, smallest = _invert_each(m)
    except Exception as exc:
        ours = (type(exc), str(exc))
    else:
        # where an SVD was taken, its smallest singular value is the reference's
        ref_smallest = _svd_invert_each(m)[2]
        assert np.all(np.isnan(smallest) | (smallest == ref_smallest))
        ours = (inverse.tobytes(), np.asarray(passed).tobytes())
    try:
        inverse, passed, smallest = _svd_invert_each(m)
    except Exception as exc:
        reference = (type(exc), str(exc))
        text = reference
    else:
        reference = (inverse.tobytes(), np.asarray(passed).tobytes())
        text = None
        if not passed.all():
            first = float(smallest.ravel()[int(np.argmin(passed.ravel()))])
            text = (SingularMatrixError, str(SingularMatrixError("matrix is singular or ill-conditioned", first)))
    try:
        invert(m)
        raised = None
    except Exception as exc:
        raised = (type(exc), str(exc))
    return (ours, raised), (reference, text)


def _conjugated_spectra(n: int, rng) -> np.ndarray:
    """Q diag(s) Q^T for random orthogonal Q, at condition numbers from 1 to 1e14, around the 1e12 limit and twice below it."""
    conds = [1.0, 1e3, 1e9, 1e10, 1e11, 4e11, 5e11, 6e11, 9e11, 0.99e12, 1e12, 1.01e12, 2e12, 1e13, 1e14]
    out = []
    for cond in conds:
        q = np.linalg.qr(rng.standard_normal((n, n)))[0]
        s = np.geomspace(1.0, 1.0 / cond, n) if n > 1 else np.array([rng.uniform(0.5, 2.0)])
        out.append((q * (s * rng.choice([-1.0, 1.0], n))) @ q.T)
    return np.array(out)


@pytest.mark.parametrize("n", range(1, 9))
def test_screened_invert_each_matches_the_svd_test(n):
    rng = np.random.default_rng(30 + n)
    spectra = _conjugated_spectra(n, rng)
    scaled = np.concatenate([spectra, 1e-160 * spectra[:3], 1e160 * spectra[:3]])
    singular = np.zeros((n, n))
    singular[:, 0] = 1.0  # rank one: LU meets an exact zero pivot (for n = 1, the zero matrix)
    nan, inf = spectra[0].copy(), spectra[0].copy()
    nan[0, -1], inf[-1, 0] = np.nan, np.inf
    stacks = [
        spectra,
        scaled,
        np.concatenate([spectra[:6], singular[None], spectra[6:]]),
        np.concatenate([spectra[:4], nan[None], spectra[4:]]),
        np.concatenate([spectra[:4], inf[None], spectra[4:]]),
        spectra.reshape(3, 5, n, n),
    ]
    with np.errstate(all="raise"):
        for m in stacks + list(scaled) + [singular, nan, inf]:
            ours, reference = _invert_outcomes(m)
            assert ours == reference
        # the bound alone decides the well-conditioned ones (n cond <= 8e10)
        assert np.isnan(_invert_each(spectra)[2][:4]).all()


def test_kernel_of_a_stack_is_each_kernel_bitwise():
    rng = np.random.default_rng(13)
    stack = rng.standard_normal((5, 64, 4))
    stack[:, :, 3] = stack[:, :, 0] - 2.0 * stack[:, :, 1]  # one kernel vector each
    stack[2] = 0.0  # a numerically zero map: everything is kernel
    results = kernel(stack)
    assert [r.basis.shape[1] for r in results] == [1, 1, 4, 1, 1]
    for m, res in zip(stack, results):
        one = kernel(m)
        assert res.basis.tobytes() == one.basis.tobytes()
        assert res.singular_values.tobytes() == one.singular_values.tobytes()
        assert (res.rank, res.tolerance_used) == (one.rank, one.tolerance_used)


def test_kernel_jordan_block_powers():
    # 3x3 nilpotent Jordan block: dim ker C = 1, dim ker C^2 = 2
    c = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]])
    assert kernel(c).basis.shape[1] == 1
    assert kernel(c @ c).basis.shape[1] == 2
    assert kernel(c @ c @ c).basis.shape[1] == 3


def test_kernel_zero_matrix_uses_identity_basis():
    res = kernel(np.zeros((3, 3)))
    assert np.array_equal(res.basis, np.eye(3))
    assert res.rank == 0
    assert res.tolerance_used == KERNEL_ABS_FLOOR


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_kernel_rejects_non_finite_entries(bad):
    a = np.eye(3)
    a[1, 2] = bad
    with pytest.raises(FloatingPointError, match="non-finite"):
        kernel(a)


def test_kernel_rectangular_and_residual():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((40, 4))
    a[:, 2] = a[:, 0] + a[:, 1]  # rank 3
    res = kernel(a)
    assert res.basis.shape == (4, 1)
    assert np.max(np.abs(a @ res.basis)) < 1e-10 * np.max(np.abs(a))
    # canonical sign: largest-magnitude component is positive
    v = res.basis[:, 0]
    assert v[np.argmax(np.abs(v))] > 0


@settings(max_examples=30, deadline=None)
@given(st.floats(min_value=-6.0, max_value=6.0).filter(lambda s: abs(s) > 1e-3))
def test_kernel_invariant_under_scaling(scale):
    a = np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [1.0, 1.0, 1.0]])
    base = kernel(a)
    scaled = kernel(scale * a)
    assert scaled.basis.shape == base.basis.shape
    assert np.allclose(np.abs(scaled.basis), np.abs(base.basis), atol=1e-12)


def test_eigenvalues_rotation_pair():
    eig = eigenvalues(np.array([[0.0, 1.0], [-1.0, 0.0]]))
    assert np.allclose(sorted(eig.imag), [-1.0, 1.0], atol=1e-12)
    assert np.allclose(eig.real, 0.0, atol=1e-12)


def test_eigenvalues_block_diag_complex_pair():
    m = np.zeros((3, 3))
    m[:2, :2] = [[1.0, 2.0], [-2.0, 1.0]]
    eig = eigenvalues(m)
    # sorted by (real, imag): 0, 1-2i, 1+2i
    assert eig[0] == pytest.approx(0.0, abs=1e-12)
    assert eig[1] == pytest.approx(1.0 - 2.0j, abs=1e-12)
    assert eig[2] == pytest.approx(1.0 + 2.0j, abs=1e-12)


def test_eigenvalues_defective_jordan():
    m = np.array([[2.0, 1.0], [0.0, 2.0]])
    eig = eigenvalues(m)
    assert np.allclose(eig, [2.0, 2.0], atol=1e-7)


def test_eigenvalues_diagonal_and_zero():
    assert np.allclose(eigenvalues(np.diag([3.0, -1.0, 2.0])), [-1.0, 2.0, 3.0])
    assert np.array_equal(eigenvalues(np.zeros((4, 4))), np.zeros(4))


def test_eigenvalues_match_characteristic_polynomial_statistics():
    rng = np.random.default_rng(1234)
    for _ in range(1000):
        m = rng.uniform(-2.0, 2.0, (3, 3))
        eig = eigenvalues(m)
        assert np.sum(eig).real == pytest.approx(np.trace(m), rel=1e-8, abs=1e-8)
        assert abs(np.sum(eig).imag) < 1e-8
        assert np.prod(eig).real == pytest.approx(np.linalg.det(m), rel=1e-7, abs=1e-7)


def test_eigenvalues_match_numpy_on_random_4x4():
    rng = np.random.default_rng(99)
    for _ in range(200):
        m = rng.uniform(-1.0, 1.0, (4, 4))
        ours = eigenvalues(m)
        ref = np.sort_complex(np.linalg.eigvals(m))
        ours_sorted = sorted(ours, key=lambda z: (round(z.real, 9), round(z.imag, 9)))
        ref_sorted = sorted(ref, key=lambda z: (round(z.real, 9), round(z.imag, 9)))
        assert np.allclose(ours_sorted, ref_sorted, atol=1e-6)


def test_eigenvalues_scale_invariance():
    m = np.array([[0.0, 1e-8], [-1e-8, 0.0]])
    eig = eigenvalues(m)
    assert np.allclose(eig.imag, [-1e-8, 1e-8], rtol=1e-9)


def test_eigenvalues_nilpotent_splitting_tensor_stays_small():
    # analyze's splitting tensor on a sekigawa warp (trace -7.6e-17, det -2.5e-19);
    # the closed-form quadratic returned +/-1.7e-3 here, i.e. kind "real"
    m = [[-0.042214771794348925, -0.0060925594198504044], [0.2925021874784951, 0.04221477179434885]]
    assert np.max(np.abs(eigenvalues(m))) < 1e-8


def test_eigenvalues_repeated_root_of_a_curvature_operator():
    # the operator on 2-vectors of the complement that sectional_range builds for
    # conullity3 --p 4-u*u-w*w at 0.1,0.2,-0.3,0.4; its eigenvalue 2/3.8 is double
    data = curvature_data(catalog_conullity3("4-u*u-w*w"), np.array([0.1, 0.2, -0.3, 0.4]))
    frame = data.complement
    a, b = np.triu_indices(frame.shape[0], 1)
    rh = np.einsum("ijkl,ai,bj,ck,dl->abcd", data.rdown, frame, frame, frame, frame)
    op = rh[a[:, None], b[:, None], b, a]
    eig = eigenvalues(op)
    assert np.array_equal(eig.imag, np.zeros(3))
    assert np.max(np.abs(eig.real - np.linalg.eigvalsh(op))) < 1e-12
    assert eig[2].real == pytest.approx(2.0 / 3.8, abs=1e-12)


def test_dimension_cap():
    with pytest.raises(ValueError):
        invert(np.eye(9))
    with pytest.raises(ValueError):
        eigenvalues(np.eye(9))
    assert np.array_equal(eigenvalues(np.diag(np.arange(8.0, 0.0, -1.0))), np.arange(1.0, 9.0))


def _accepted(*args, **kwargs):
    """The rows ``_g_gram_schmidt`` accepts at its one point."""
    rows, kept = _g_gram_schmidt(*args, **kwargs)
    return rows[kept]


def test_g_gram_schmidt_orthonormal_and_drops_dependent_rows():
    rng = np.random.default_rng(21)
    a = rng.standard_normal((4, 4))
    g = a @ a.T + 4.0 * np.eye(4)
    c = rng.standard_normal((3, 4))
    # the third candidate is a combination of the first two
    candidates = np.vstack([c[0], c[1], 2.0 * c[0] - 0.5 * c[1], c[2]])
    rows, kept = _g_gram_schmidt(candidates, g, drop_tol=1e-8)
    assert kept.tolist() == [True, True, False, True] and not rows[2].any()
    rows = rows[kept]
    assert np.allclose(rows @ g @ rows.T, np.eye(3), atol=1e-12)
    # rows after the prior ones are g-orthogonal to them as well
    more = _accepted(np.eye(4), g, prior=rows, drop_tol=1e-8)
    assert more.shape == (1, 4)
    assert np.allclose(more @ g @ rows.T, 0.0, atol=1e-12)
    assert _accepted(np.zeros((0, 4)), g).shape == (0, 4)


def test_g_gram_schmidt_ignores_the_sign_of_prior_rows():
    rng = np.random.default_rng(22)
    a = rng.standard_normal((5, 5))
    g = a @ a.T + 5.0 * np.eye(5)
    prior = _accepted(rng.standard_normal((2, 5)), g)
    candidates = rng.standard_normal((3, 5))
    base = _accepted(candidates, g, prior=prior)
    for i in range(2):
        flipped = prior.copy()
        flipped[i] = -flipped[i]
        assert _accepted(candidates, g, prior=flipped).tobytes() == base.tobytes()
    # negating an accepted row before it is used leaves the later rows bitwise equal
    first = _accepted(candidates[:1], g, prior=prior)
    rest = _accepted(candidates[1:], g, prior=np.vstack([prior, -first]))
    assert rest.tobytes() == base[1:].tobytes()


def test_each_alone_redoes_a_raising_stage_item_by_item():
    calls = []

    def halves(items):
        calls.append(list(items))
        if any(x == 0 for x in items):
            raise ZeroDivisionError("zero")
        return [1 / x for x in items]

    assert _each_alone(halves, [1, 2, 4]) == [1.0, 0.5, 0.25] and calls == [[1, 2, 4]]
    calls.clear()
    got = _each_alone(halves, [2, 0, 4])
    assert got[0] == 0.5 and got[2] == 0.25 and isinstance(got[1], ZeroDivisionError)
    assert calls == [[2, 0, 4], [2], [0], [4]]
    rows = np.array([[1.0, 2.0], [0.0, 1.0]])
    with np.errstate(divide="raise"):
        assert _each_alone(lambda r: 1.0 / r[:, 0], rows, FloatingPointError, lambda exc: -1.0) == [1.0, -1.0]
    with pytest.raises(ZeroDivisionError):  # a fault not listed is raised
        _each_alone(halves, [0], KeyError)
    assert _each_alone(halves, []) == []
