import collections
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geonull import exprcalc
from geonull.exprcalc import (
    _FUNCTIONS,
    _FUNCTIONS3,
    _POSITIVE_DOMAIN,
    Bin,
    Call,
    Const,
    DomainError,
    Expression,
    Jet2,
    Neg,
    ParseError,
    Var,
    eval_jet2,
    parse,
    to_source,
)


# independent 4th-order finite-difference oracle for value/gradient/hessian
def fd_gradient(fn, x, h=1e-5):
    x = np.asarray(x, dtype=float)
    out = np.zeros(x.size)
    for i in range(x.size):
        e = np.zeros(x.size)
        e[i] = 1.0
        out[i] = (
            -fn(x + 2 * h * e) + 8 * fn(x + h * e) - 8 * fn(x - h * e) + fn(x - 2 * h * e)
        ) / (12 * h)
    return out


def fd_hessian(fn, x, h=1e-4):
    x = np.asarray(x, dtype=float)
    n = x.size
    out = np.zeros((n, n))
    for i in range(n):
        e = np.zeros(n)
        e[i] = 1.0
        out[i, i] = (
            -fn(x + 2 * h * e)
            + 16 * fn(x + h * e)
            - 30 * fn(x)
            + 16 * fn(x - h * e)
            - fn(x - 2 * h * e)
        ) / (12 * h * h)
    for i in range(n):
        for j in range(i + 1, n):
            ei = np.zeros(n)
            ei[i] = 1.0

            def di(y):
                return (
                    -fn(y + 2 * h * ei) + 8 * fn(y + h * ei) - 8 * fn(y - h * ei) + fn(y - 2 * h * ei)
                ) / (12 * h)

            ej = np.zeros(n)
            ej[j] = 1.0
            mixed = (-di(x + 2 * h * ej) + 8 * di(x + h * ej) - 8 * di(x - h * ej) + di(x - 2 * h * ej)) / (12 * h)
            out[i, j] = mixed
            out[j, i] = mixed
    return out


CASES = [
    ("sin(x)*exp(y) + x^3/(1+y*y)", ("x", "y"),
     lambda x, y: math.sin(x) * math.exp(y) + x ** 3 / (1 + y * y), (0.4, -0.7)),
    ("log(2+cos(x)) - sqrt(1+y^2)*x", ("x", "y"),
     lambda x, y: math.log(2 + math.cos(x)) - math.sqrt(1 + y ** 2) * x, (1.1, 0.3)),
    ("3+cos(u)+cos(w)", ("x", "u", "w"),
     lambda x, u, w: 3 + math.cos(u) + math.cos(w), (0.0, 0.5, -0.8)),
    ("exp(u)", ("x", "u"), lambda x, u: math.exp(u), (0.2, -0.4)),
    ("x^2.5", ("x",), lambda x: x ** 2.5, (1.7,)),
    ("(-x)^2 + 2^x", ("x",), lambda x: x ** 2 + 2 ** x, (0.9,)),
]


@pytest.mark.parametrize("source,variables,mirror,point", CASES)
def test_jet2_matches_finite_differences(source, variables, mirror, point):
    expr = parse(source, variables)
    jet = expr.jet2(point)
    assert jet.value == pytest.approx(mirror(*point), rel=1e-12)
    grad = fd_gradient(lambda q: mirror(*q), point)
    hess = fd_hessian(lambda q: mirror(*q), point)
    assert np.allclose(jet.gradient, grad, rtol=1e-7, atol=1e-8)
    assert np.allclose(jet.hessian, hess, rtol=1e-5, atol=1e-5)


@pytest.mark.parametrize("source,variables,mirror,point", CASES)
def test_jet3_third_derivatives_match_finite_differences_of_the_hessian(source, variables, mirror, point):
    expr = parse(source, variables)
    third = expr.jet3(point)[3]
    h = 1e-5
    for k in range(len(point)):
        step = h * np.eye(len(point))[k]
        fd = (expr.jet2(np.add(point, step)).hessian - expr.jet2(np.subtract(point, step)).hessian) / (2 * h)
        assert np.allclose(third[:, :, k], fd, rtol=1e-6, atol=1e-6)
    assert np.array_equal(third, third.transpose(1, 0, 2))
    assert np.array_equal(third, third.transpose(0, 2, 1))


def test_hessian_is_exactly_symmetric():
    expr = parse("sin(x*y)*exp(x-y)", ("x", "y"))
    jet = expr.jet2((0.3, 1.2))
    assert np.array_equal(jet.hessian, jet.hessian.T)


def test_eval_jet2_entry_point():
    jet = eval_jet2(parse("u*u + v", ("u", "v")), (2.0, 3.0))
    assert jet.value == 7.0
    assert np.allclose(jet.gradient, [4.0, 1.0])
    assert np.allclose(jet.hessian, [[2.0, 0.0], [0.0, 0.0]])


def test_power_rules():
    expr = parse("x^3", ("x",))
    jet = expr.jet2((2.0,))
    assert jet.value == 8.0
    assert jet.gradient[0] == 12.0
    assert jet.hessian[0, 0] == 12.0
    # negative base with an integer exponent is fine
    assert parse("x^3", ("x",)).value((-2.0,)) == -8.0
    # negative base with a fractional exponent is not
    with pytest.raises(DomainError):
        parse("x^0.5", ("x",)).value((-1.0,))
    # x^0 is constant 1 even at x = 0
    assert parse("x^0", ("x",)).value((0.0,)) == 1.0
    with pytest.raises(DomainError):
        parse("x^-2", ("x",)).value((0.0,))


def test_precedence_and_associativity():
    assert parse("2^3^2", ("x",)).value((0.0,)) == 512.0
    assert parse("2*3+4", ("x",)).value((0.0,)) == 10.0
    assert parse("2+3*4", ("x",)).value((0.0,)) == 14.0
    assert parse("-x^2", ("x",)).value((3.0,)) == -9.0
    assert parse("2-3-4", ("x",)).value((0.0,)) == -5.0
    assert parse("12/3/2", ("x",)).value((0.0,)) == 2.0


def test_unicode_minus_is_accepted():
    assert parse("4−u*u", ("u",)).value((1.0,)) == 3.0


def test_parse_error_offsets():
    with pytest.raises(ParseError) as err:
        parse("u + * 2", ("u",))
    assert err.value.offset == 4
    with pytest.raises(ParseError) as err:
        parse("sin(x", ("x",))
    assert "parenthes" in str(err.value)
    with pytest.raises(ParseError) as err:
        parse("x + y", ("x",))
    assert "unknown identifier" in str(err.value)
    with pytest.raises(ParseError):
        parse("", ("x",))
    with pytest.raises(ParseError):
        parse("x @ 2", ("x",))


def test_variable_validation():
    with pytest.raises(ValueError):
        parse("x", ())
    with pytest.raises(ValueError):
        parse("x", ("x", "x"))


def test_domain_errors_carry_fragment():
    expr = parse("1/(x-1)", ("x",))
    with pytest.raises(DomainError) as err:
        expr.value((1.0,))
    assert err.value.fragment
    with pytest.raises(DomainError):
        parse("log(x)", ("x",)).value((-2.0,))
    with pytest.raises(DomainError):
        parse("sqrt(x)", ("x",)).value((-1.0,))


def test_jet2_chain_rule_composition():
    j = Jet2.variable(2.0, 0, 2)
    sq = j * j
    assert sq.value == 4.0
    assert sq.gradient[0] == 4.0
    assert sq.hessian[0, 0] == 2.0
    inv = sq.reciprocal()
    assert inv.value == 0.25
    assert inv.gradient[0] == pytest.approx(-4.0 / 16.0)


_identifier = st.sampled_from(["x", "y"])
_numbers = st.floats(min_value=0.1, max_value=9.0).map(lambda v: round(v, 3))


@st.composite
def _expressions(draw, depth=0):
    if depth > 3 or draw(st.booleans()):
        if draw(st.booleans()):
            return str(draw(_numbers))
        return draw(_identifier)
    op = draw(st.sampled_from(["+", "-", "*", "/"]))
    left = draw(_expressions(depth=depth + 1))
    right = draw(_expressions(depth=depth + 1))
    fn = draw(st.sampled_from(["", "sin", "cos", "exp"]))
    body = f"({left} {op} {right})"
    return f"{fn}{body}" if fn else body


@settings(max_examples=60, deadline=None)
@given(_expressions())
def test_source_round_trip(source):
    try:
        expr = parse(source, ("x", "y"))
    except ParseError:
        pytest.skip("generator produced an unparseable string")
    again = parse(to_source(expr.root), ("x", "y"))
    assert again.root == expr.root


@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=-2.0, max_value=2.0), st.floats(min_value=-2.0, max_value=2.0))
def test_grammar_example_evaluates_everywhere(x, y):
    expr = parse("3 + cos(x) + cos(y)", ("x", "y"))
    value = expr.value((x, y))
    assert 1.0 <= value <= 5.0


# ---------------------------------------------------------------------------
# reference evaluator: the tree walk over Jet2 operators that the compiled
# kernels replace; they must agree with it bit for bit


def reference_jet2(expr, point):
    x = np.asarray(point, dtype=float)
    with np.errstate(all="ignore"):
        return _reference_eval(expr.root, x, len(expr.variables), expr.source)


def _reference_fragment(source, node):
    lo, hi = node.span
    return source[lo:hi] or to_source(node)


def _reference_guarded(source, node, fn, *args):
    """``fn(*args)``, with an OverflowError, a ValueError (``sin(inf)``) or a
    ZeroDivisionError (a divisor that underflowed to zero) turned into
    ``node``'s DomainError."""
    try:
        return fn(*args)
    except OverflowError:
        message = "float overflow"
    except ValueError:
        message = "math domain error"
    except ZeroDivisionError:
        message = "division by an underflowed zero"
    raise DomainError(message, _reference_fragment(source, node), node.span[0])


def _reference_int_power(v, k):
    f = v**k
    f1 = k * v ** (k - 1)
    f2 = k * (k - 1) * v ** (k - 2) if k * (k - 1) != 0 else 0.0
    return f, f1, f2


def _reference_eval(node, x, n, source):
    if isinstance(node, Const):
        return Jet2.constant(node.value, n)
    if isinstance(node, Var):
        return Jet2.variable(x[node.index], node.index, n)
    if isinstance(node, Neg):
        return -_reference_eval(node.child, x, n, source)
    if isinstance(node, Call):
        arg = _reference_eval(node.arg, x, n, source)
        if node.fn in _POSITIVE_DOMAIN and arg.value <= 0.0:
            raise DomainError(
                f"{node.fn} of non-positive value {arg.value!r}",
                _reference_fragment(source, node),
                node.span[0],
            )
        return arg.chain(*_reference_guarded(source, node, _FUNCTIONS[node.fn], arg.value))
    if isinstance(node, Bin):
        left = _reference_eval(node.left, x, n, source)
        if node.op == "^":
            return _reference_power(left, node, x, n, source)
        right = _reference_eval(node.right, x, n, source)
        if node.op == "+":
            return left + right
        if node.op == "-":
            return left - right
        if node.op == "*":
            return left * right
        if node.op == "/":
            if right.value == 0.0:
                raise DomainError("division by zero", _reference_fragment(source, node), node.span[0])
            return _reference_guarded(source, node, lambda: left / right)
    raise TypeError(f"not an expression node: {node!r}")


def _reference_power(base, node, x, n, source):
    expo = _reference_eval(node.right, x, n, source)
    constant_exponent = not (np.any(expo.gradient) or np.any(expo.hessian))
    if constant_exponent and float(expo.value).is_integer():
        k = int(expo.value)
        v = base.value
        if k == 0:
            return Jet2.constant(1.0, n)
        if v == 0.0 and k < 0:
            raise DomainError("zero base with negative exponent", _reference_fragment(source, node), node.span[0])
        return base.chain(*_reference_guarded(source, node, _reference_int_power, v, k))
    if base.value <= 0.0:
        raise DomainError(
            "power with non-integer exponent requires positive base",
            _reference_fragment(source, node),
            node.span[0],
        )
    log_base = base.chain(*_reference_guarded(source, node, _FUNCTIONS["log"], base.value))
    product = expo * log_base
    return product.chain(*_reference_guarded(source, node, _FUNCTIONS["exp"], product.value))


class Jet3:
    """The tree walk's 3-jet: a :class:`Jet2` plus the third derivatives.

    ``third`` is mirrored from its entries at i <= j <= k, the ones the
    compiled kernel computes.  Each operator sums its terms in the order of
    the kernel's emitted code, one array operation per float operation.
    """

    def __init__(self, low, third):
        n = low.gradient.shape[0]
        i, j, k = np.sort(np.indices((n, n, n)).reshape(3, -1), axis=0)
        self.low = low
        self.third = np.asarray(third, dtype=float)[i, j, k].reshape(n, n, n)

    @staticmethod
    def constant(c, n):
        return Jet3(Jet2.constant(c, n), np.zeros((n, n, n)))

    @staticmethod
    def variable(value, index, n):
        return Jet3(Jet2.variable(value, index, n), np.zeros((n, n, n)))

    def chain(self, f, f1, f2, f3):
        g, h = self.low.gradient, self.low.hessian
        third = f1 * self.third + f2 * _fold(_three(g, h)) + f3 * (
            g[:, None, None] * g[None, :, None] * g[None, None, :]
        )
        return Jet3(self.low.chain(f, f1, f2), third)

    def __neg__(self):
        return Jet3(-self.low, -self.third)

    def __add__(self, other):
        return Jet3(self.low + other.low, self.third + other.third)

    def __sub__(self, other):
        return Jet3(self.low - other.low, self.third - other.third)

    def __mul__(self, other):
        a, b = self.low, other.low
        terms = [a.value * other.third, b.value * self.third]
        third = _fold(terms + _three(a.gradient, b.hessian) + _three(b.gradient, a.hessian))
        return Jet3(a * b, third)

    def reciprocal(self):
        v = self.low.value
        return self.chain(1.0 / v, -1.0 / (v * v), 2.0 / (v * v * v), -6.0 / (v * v * v * v))


def _three(g, h):
    """The products g_i h_jk, g_j h_ik and g_k h_ij as n x n x n arrays."""
    return [
        g[:, None, None] * h[None, :, :],
        g[None, :, None] * h[:, None, :],
        g[None, None, :] * h[:, :, None],
    ]


def _fold(terms):
    total = terms[0]
    for term in terms[1:]:
        total = total + term
    return total


def reference_jet3(expr, point):
    """``(value, gradient, hessian, third)`` of the 3-jet tree walk."""
    x = np.asarray(point, dtype=float)
    with np.errstate(all="ignore"):
        jet = _reference3_eval(expr.root, x, len(expr.variables), expr.source)
        return jet.low.value, jet.low.gradient, jet.low.hessian, jet.third + 0.0 - 0.0


def _reference3_eval(node, x, n, source):
    if isinstance(node, Const):
        return Jet3.constant(node.value, n)
    if isinstance(node, Var):
        return Jet3.variable(x[node.index], node.index, n)
    if isinstance(node, Neg):
        return -_reference3_eval(node.child, x, n, source)
    if isinstance(node, Call):
        arg = _reference3_eval(node.arg, x, n, source)
        if node.fn in _POSITIVE_DOMAIN and arg.low.value <= 0.0:
            raise DomainError(
                f"{node.fn} of non-positive value {arg.low.value!r}",
                _reference_fragment(source, node),
                node.span[0],
            )
        return arg.chain(*_reference_guarded(source, node, _FUNCTIONS3[node.fn], arg.low.value))
    if isinstance(node, Bin):
        left = _reference3_eval(node.left, x, n, source)
        if node.op == "^":
            return _reference3_power(left, node, x, n, source)
        right = _reference3_eval(node.right, x, n, source)
        if node.op == "+":
            return left + right
        if node.op == "-":
            return left - right
        if node.op == "*":
            return left * right
        if node.op == "/":
            if right.low.value == 0.0:
                raise DomainError("division by zero", _reference_fragment(source, node), node.span[0])
            return left * _reference_guarded(source, node, right.reciprocal)
    raise TypeError(f"not an expression node: {node!r}")


def _reference_int_power3(v, k):
    low = _reference_int_power(v, k)
    return low + (k * (k - 1) * (k - 2) * v ** (k - 3) if k * (k - 1) * (k - 2) != 0 else 0.0,)


def _reference3_power(base, node, x, n, source):
    expo = _reference3_eval(node.right, x, n, source)
    v = base.low.value
    constant_exponent = not (np.any(expo.low.gradient) or np.any(expo.low.hessian))
    if constant_exponent and float(expo.low.value).is_integer():
        k = int(expo.low.value)
        if k == 0:
            result = Jet3.constant(1.0, n)
        else:
            if v == 0.0 and k < 0:
                raise DomainError("zero base with negative exponent", _reference_fragment(source, node), node.span[0])
            result = base.chain(*_reference_guarded(source, node, _reference_int_power3, v, k))
        if np.any(expo.third):
            # the exponent is an integer at the point but varies at third order
            if v <= 0.0:
                raise DomainError(
                    "power with non-integer exponent requires positive base",
                    _reference_fragment(source, node),
                    node.span[0],
                )
            result = Jet3(result.low, result.third + result.low.value * math.log(v) * expo.third)
        return result
    if v <= 0.0:
        raise DomainError(
            "power with non-integer exponent requires positive base",
            _reference_fragment(source, node),
            node.span[0],
        )
    log_base = base.chain(*_reference_guarded(source, node, _FUNCTIONS3["log"], v))
    product = expo * log_base
    return product.chain(*_reference_guarded(source, node, _FUNCTIONS3["exp"], product.low.value))


def reference_value(expr, point):
    """The tree walk of :meth:`Expression.value`: values only, same checks."""
    x = [float(c) for c in point]
    with np.errstate(all="ignore"):
        return _reference_value(expr.root, x, len(expr.variables), expr.source)


def _reference_value(node, x, n, source):
    if isinstance(node, Const):
        return node.value
    if isinstance(node, Var):
        return x[node.index]
    if isinstance(node, Neg):
        return -_reference_value(node.child, x, n, source)
    if isinstance(node, Call):
        a = _reference_value(node.arg, x, n, source)
        if node.fn in _POSITIVE_DOMAIN and a <= 0.0:
            raise DomainError(f"{node.fn} of non-positive value {a!r}", _reference_fragment(source, node), node.span[0])
        return _reference_guarded(source, node, getattr(math, node.fn), a)
    if isinstance(node, Bin):
        a = _reference_value(node.left, x, n, source)
        if node.op == "^":
            # the integer-power rule reads the exponent's derivatives
            expo = _reference_eval(node.right, x, n, source)
            if not (np.any(expo.gradient) or np.any(expo.hessian)) and expo.value.is_integer():
                k = int(expo.value)
                if k == 0:
                    return 1.0
                if a == 0.0 and k < 0:
                    raise DomainError("zero base with negative exponent", _reference_fragment(source, node), node.span[0])
                return _reference_guarded(source, node, lambda: a**k)
            if a <= 0.0:
                raise DomainError(
                    "power with non-integer exponent requires positive base",
                    _reference_fragment(source, node),
                    node.span[0],
                )
            return _reference_guarded(source, node, lambda: math.exp(expo.value * math.log(a)))
        b = _reference_value(node.right, x, n, source)
        if node.op == "+":
            return a + b
        if node.op == "-":
            return a - b
        if node.op == "*":
            return a * b
        if node.op == "/":
            if b == 0.0:
                raise DomainError("division by zero", _reference_fragment(source, node), node.span[0])
            return a * (1.0 / b)
    raise TypeError(f"not an expression node: {node!r}")


def _bits(x):
    return np.asarray(x, dtype=float).tobytes()


def _outcome(fn):
    """A result, or the error's class and fields, for exact comparison."""
    try:
        return "ok", fn()
    except DomainError as exc:
        return "DomainError", (exc.message, exc.fragment, exc.offset)
    except ArithmeticError as exc:
        return type(exc).__name__, str(exc)


def assert_matches_reference(expr, point):
    bad = [name for name, c in zip(expr.variables, point) if not math.isfinite(c)]
    if bad:
        # outside every expression's domain: all kernels refuse the point,
        # naming its first non-finite coordinate
        for evaluate in (expr.jet2, expr.jet3, expr.value):
            with pytest.raises(DomainError, match=rf"^non-finite coordinate {bad[0]} = "):
                evaluate(point)
        return
    kind, want = _outcome(lambda: reference_jet2(expr, point))
    got_kind, got = _outcome(lambda: expr.jet2(point))
    assert got_kind == kind
    if kind == "ok":
        assert _bits(got.value) == _bits(want.value)
        assert _bits(got.gradient) == _bits(want.gradient)
        assert _bits(got.hessian) == _bits(want.hessian)
        assert got.value == want.value or math.isnan(want.value)
        assert np.array_equal(got.gradient, want.gradient, equal_nan=True)
        assert np.array_equal(got.hessian, want.hessian, equal_nan=True)
    else:
        assert got == want
    # value() skips the derivatives, so it matches the value-only walk, which
    # may finish, or fail later, where only a derivative overflowed
    value_kind, value = _outcome(lambda: expr.value(point))
    want_kind, want_value = _outcome(lambda: reference_value(expr, point))
    assert value_kind == want_kind
    if want_kind == "ok":
        assert _bits(value) == _bits(want_value)
    else:
        assert value == want_value
    if kind == "ok":
        assert value_kind == "ok" and _bits(value) == _bits(want.value)
    # the 3-jet kernel matches the 3-jet walk, errors included, and where
    # both kernels finish its lower orders are the 2-jet kernel's bits
    kind3, want3 = _outcome(lambda: reference_jet3(expr, point))
    got_kind3, got3 = _outcome(lambda: expr.jet3(point))
    assert got_kind3 == kind3
    if kind3 == "ok":
        assert [_bits(part) for part in got3] == [_bits(part) for part in want3]
        if got_kind == "ok":
            assert [_bits(part) for part in got3[:3]] == [_bits(got.value), _bits(got.gradient), _bits(got.hessian)]
    else:
        assert got3 == want3


_ORACLE_VARIABLES = ("x", "y", "z")
_oracle_literals = st.one_of(
    st.sampled_from(["0", "1", "2", "3", "0.5", "2.5", "1e-3"]),
    st.floats(min_value=0.0, max_value=9.0).map(lambda v: repr(round(v, 3))),
)
_oracle_atoms = st.one_of(st.sampled_from(_ORACLE_VARIABLES), _oracle_literals)
_exponents = st.sampled_from(["0", "1", "2", "3", "-1", "-2", "0.5", "1.5", "-0.5", "1/3"])


@st.composite
def _oracle_expressions(draw, depth=0):
    if depth >= 4 or draw(st.integers(0, 3)) == 0:
        return draw(_oracle_atoms)
    sub = _oracle_expressions(depth=depth + 1)
    kind = draw(st.sampled_from(["neg", "bin", "bin", "call", "power"]))
    if kind == "neg":
        return f"-{draw(sub)}"
    if kind == "bin":
        op = draw(st.sampled_from(["+", "-", "*", "/"]))
        return f"({draw(sub)} {op} {draw(sub)})"
    if kind == "call":
        fn = draw(st.sampled_from(["sin", "cos", "exp", "log", "sqrt"]))
        return f"{fn}({draw(sub)})"
    base = draw(sub)
    exponent = draw(st.one_of(_exponents, sub))  # integer, fractional or variable
    return f"({base})^({exponent})"


_coordinate = st.one_of(
    st.sampled_from([0.0, 1.0, -1.0, 0.5]),
    st.floats(min_value=-3.0, max_value=3.0, allow_nan=False),
)
_maybe_finite = st.one_of(_coordinate, st.sampled_from([math.inf, -math.inf, math.nan]))
# about half the points are finite, compared bit for bit; the rest hold one or
# more non-finite coordinates, which both kernels refuse
_oracle_points = st.one_of(
    st.tuples(_coordinate, _coordinate, _coordinate),
    st.tuples(_maybe_finite, _maybe_finite, _maybe_finite),
)


@settings(max_examples=600, deadline=None)
@given(_oracle_expressions(), _oracle_points)
def test_compiled_kernels_match_reference_bit_for_bit(source, point):
    assert_matches_reference(parse(source, _ORACLE_VARIABLES), point)


def test_non_finite_coordinate_is_a_domain_error():
    # the compiled jet and the tree walk once differed in the sign bit of a
    # NaN derivative here
    expr = parse("-(x * -exp(z))", _ORACLE_VARIABLES)
    for point, name, text in (((0.0, 0.0, math.inf), "z", "inf"), ((0.0, math.nan, -math.inf), "y", "nan")):
        for evaluate in (expr.jet2, expr.value):
            with pytest.raises(DomainError) as err:
                evaluate(point)
            assert (err.value.message, err.value.fragment, err.value.offset) == (
                f"non-finite coordinate {name} = {text}", "-(x * -exp(z))", 0
            )


# products whose Hessian sums several nonzero terms, so any reordering of
# the float operations shows in the last bits
_DENSE = [
    ("(x*y + z)*(x - y*z)/(2 + x*x)", ("x", "y", "z")),
    ("sin(x*y)*exp(x - y)*cos(z*x)", ("x", "y", "z")),
    ("(x*x + y*y)^1.5*sqrt(1 + z*z) - (x + z)^3", ("x", "y", "z")),
]


@pytest.mark.parametrize("source,variables", [case[:2] for case in CASES] + _DENSE)
def test_sweep_matches_reference_bit_for_bit(source, variables):
    expr = parse(source, variables)
    rng = np.random.default_rng(20261017)
    for _ in range(200):
        assert_matches_reference(expr, rng.uniform(0.05, 3.0, size=len(variables)) * rng.choice([-1, 1]))


@pytest.mark.parametrize(
    "source,point",
    [
        ("x/(y-1)", (1.0, 1.0)),
        ("1 + log(x - y)", (1.0, 2.0)),
        ("sqrt(-x)", (2.0, 0.0)),
        ("(x - 1)^(-2)", (1.0, 0.0)),
        ("2 * (-x)^0.5", (1.0, 0.0)),
        ("(x - 1)^y", (1.0, 0.5)),
        ("(x - 1)^(y*y*y)", (-1.0, 0.0)),  # exponent's jet is constant 0 at y = 0
        ("log(x)^2 + 1/(y - y)", (0.5, 0.0)),
        ("1/(x*1e-170)", (1.0, 0.0)),  # derivative divides by an underflowed zero
        ("exp(x)*y", (709.5, 1.0)),  # Hessian entry past half the float range
        ("(1e999*x)^2 - y", (1.0, 1.0)),
        ("y + exp(exp(x))", (7.0, 1.0)),  # overflow in a function
        ("y*x^400", (10.0, 1.0)),  # overflow in an integer power
        ("y + 2^(x*x)", (40.0, 0.0)),  # overflow in a real power
        ("y + (x*1e-103)^(-2)", (1.0, 0.0)),  # only the second derivative overflows
        ("y + sin(1e999*x)", (1.0, 0.0)),  # sin of inf
        ("cos(x*y)", (math.inf, 2.0)),  # an infinite coordinate
        ("sin(x + x^(-1) + x^(-1))", (1.1125369292536007e-308, 0.0)),  # jet: x^(-1)'s derivative; value: sin(inf)
        ("-(-x^(-1) + -x^(-2))", (4.2054990575120866e-301, 0.0)),  # jet: x^(-1)'s derivative; value: x^(-2)
        ("sqrt(x) + y", (1e-200, 0.0)),  # only the third derivative divides by an underflowed zero
        ("2^(y*y*y) + x", (1.0, 0.0)),  # exponent integer, flat to second order, not to third
        ("(x - 2)^(y*y*y)", (1.0, 0.0)),  # the same on a negative base: no 3-jet
    ],
)
def test_domain_and_range_edges_match_reference(source, point):
    assert_matches_reference(parse(source, ("x", "y")), point)


def test_domain_error_fragments_keep_their_parentheses():
    cases = [
        ("y + 2^(x*x)", (40.0, 0.0), "2^(x*x)"),
        ("y + (x*1e-103)^(-2)", (1.0, 0.0), "(x*1e-103)^(-2)"),
        ("y + sin((1e999*x))", (1.0, 0.0), "sin((1e999*x))"),
    ]
    for source, point, fragment in cases:
        with pytest.raises(DomainError) as err:
            parse(source, ("x", "y")).jet2(point)
        assert err.value.fragment == fragment
        assert err.value.offset == source.index(fragment)


# each pair has one shape, so its kernels share their code; the constants,
# fragments and offsets that differ must still reach each result and error
@pytest.mark.parametrize(
    "sources,points",
    [
        (("2*u+3", "1e999*u+3"), [(0.5, 0.2)]),  # a finite and a non-finite constant
        (("u^2+w", "u^2.5+w"), [(0.5, 0.2), (-0.5, 0.2)]),  # integer and real power
        (("1+log(0.5-u)", "1.25+log(0.25-u)"), [(0.7, 0.0)]),  # own fragment and offset
        (("u/0", "u/0.5"), [(0.3, 0.0)]),
        (("exp(7*u)", "exp(700*u)"), [(1.5, 0.0)]),  # only one overflows
    ],
    ids=["non_finite_constant", "power_branch", "fragment_and_offset", "division_by_zero", "overflow"],
)
def test_same_shape_kernels_share_code_and_keep_their_constants(sources, points):
    for first, second in (sources, sources[::-1]):
        partner, expr = parse(first, ("u", "w")), parse(second, ("u", "w"))
        for point in points:
            for evaluate in (partner.jet2, partner.jet3, partner.value):
                _outcome(lambda: evaluate(point))
        for point in points:
            assert_matches_reference(expr, point)
        for kernel in ("_jet_kernel", "_jet3_kernel", "_value_kernel"):
            assert getattr(expr, kernel).__code__ is getattr(partner, kernel).__code__


_SAME_SHAPE = "exp({g}*u)+{a}+{b}*u^{c}-log({d}+w*w)/{e}+sin({f}*w)"
_MAGNITUDES = ("0", "0.0", "0.5", "2", "3.25", "7", "700", "1e999", "1e-320")
_EXPONENTS = ("0", "1", "2", "3", "2.5", "0.5")


def _same_shape_corpus(rng, size):
    """Expressions of one shape: constants over sign, +-0.0, 1e999 and (non-)integer exponents; spans moved."""

    def slot(text):
        pad = lambda: rng.choice(["", " ", "  "])  # noqa: E731
        return f"({pad()}{text}{pad()})" if rng.random() < 0.3 else text

    def signed(node):  # the parser makes no negative constant, so flip some in the tree
        if isinstance(node, Const):
            return node._replace(value=-node.value) if rng.random() < 0.4 else node
        if isinstance(node, Bin):
            return node._replace(left=signed(node.left), right=signed(node.right))
        if isinstance(node, Call):
            return node._replace(arg=signed(node.arg))
        return node

    corpus = []
    for _ in range(size):
        template = "".join(ch + rng.choice(["", " "]) if ch in "+-*/^" else ch for ch in _SAME_SHAPE)
        values = {k: slot(rng.choice(_MAGNITUDES)) for k in "abdefg"}
        source = template.format(c=slot(rng.choice(_EXPONENTS)), **values)
        expr = parse(source, ("u", "w"))
        corpus.append(Expression(signed(expr.root), expr.variables, source))
    return corpus


def test_plan_bound_kernels_match_a_cold_emission():
    # each kernel bound from the first expression's shape plan against the
    # kernel emitted and compiled for its own tree with the plan cache cleared
    plans = exprcalc._kernel_plan
    corpus = _same_shape_corpus(random.Random(2026), 40)
    points = [(0.5, 0.2), (-0.5, 0.2), (0.0, -0.0), (-0.0, 0.3), (2.0, 1e-300), (1.5, -3.0), (3.0, 2.5)]
    kinds = set()
    for order in (0, 2, 3):
        build = lambda e: exprcalc._bind(exprcalc._Shape(e.root, e.n, order), e.source)  # noqa: E731
        for expr in corpus:
            plans.cache_clear()
            build(corpus[0])
            warm = build(expr)
            assert plans.cache_info().misses == 1  # the first expression's plan served this one
            plans.cache_clear()
            cold = build(expr)
            assert warm.__code__.co_code == cold.__code__.co_code
            for point in points:
                got, want = _outcome(lambda: warm(*point)), _outcome(lambda: cold(*point))
                assert got[0] == want[0], (expr.source, order, point)
                kinds.add(got[0])
                if got[0] == "ok":  # a value, or a jet's tuple of parts
                    bits = [_bits(part) for part in (got[1] if order else (got[1],))]
                    assert bits == [_bits(part) for part in (want[1] if order else (want[1],))]
                else:
                    assert got[1] == want[1], (expr.source, point)  # message, fragment and offset
    assert kinds == {"ok", "DomainError"}
    for expr in corpus:  # and each is the tree walk's, from the plan the last build left
        for point in points:
            assert_matches_reference(expr, point)


def test_value_skips_derivatives():
    # d^2/dx^2 log(x) = -1/x^2 divides by an underflowed zero; the value does not
    expr = parse("log(x)", ("x",))
    with pytest.raises(DomainError, match="division by an underflowed zero in 'log\\(x\\)'"):
        expr.jet2((1e-170,))
    assert expr.value((1e-170,)) == math.log(1e-170)


def test_jet3_lower_orders_are_jet2_bitwise():
    for source, variables in [case[:2] for case in CASES] + _DENSE:
        expr = parse(source, variables)
        rng = np.random.default_rng(7)
        for point in rng.uniform(0.05, 3.0, size=(50, len(variables))):
            value, gradient, hessian, _ = expr.jet3(point)
            jet = expr.jet2(point)
            assert _bits(value) == _bits(jet.value)
            assert _bits(gradient) == _bits(jet.gradient)
            assert _bits(hessian) == _bits(jet.hessian)


def test_jet3_of_an_exponent_flat_to_second_order():
    # d^3/dy^3 2^(y^3) at y = 0 is 6 log 2, though the exponent's gradient and
    # Hessian vanish there and the lower orders take the integer-power rule
    expr = parse("2^(y*y*y)", ("x", "y"))
    value, gradient, hessian, third = expr.jet3((0.0, 0.0))
    assert (value, gradient.tolist(), hessian.tolist()) == (1.0, [0.0, 0.0], [[0.0, 0.0], [0.0, 0.0]])
    assert third[1, 1, 1] == pytest.approx(6.0 * math.log(2.0), rel=1e-15)
    assert not np.delete(third.ravel(), 7).any()
    # on a negative base the function is undefined off the point's y = 0
    negative = parse("(x - 2)^(y*y*y)", ("x", "y"))
    assert negative.jet2((1.0, 0.0)).value == 1.0
    with pytest.raises(DomainError, match="requires positive base"):
        negative.jet3((1.0, 0.0))


def test_kernels_compile_on_first_use():
    expr = parse("3+cos(u)+cos(w)", ("u", "w"))
    compiled = lambda: sorted(k for k in vars(expr) if k.endswith("_kernel"))  # noqa: E731
    assert compiled() == []
    expr.value((0.1, 0.2))
    assert compiled() == ["_value_kernel"]
    expr.jet3((0.1, 0.2))
    assert compiled() == ["_jet3_kernel", "_value_kernel"]
    expr.jet2((0.1, 0.2))
    assert compiled() == ["_jet3_kernel", "_jet_kernel", "_value_kernel"]


def test_kernels_do_not_affect_equality():
    a = parse("3+cos(u)", ("u",))
    b = parse("3+cos(u)", ("u",))
    assert a == b and hash(a) == hash(b)
    assert "kernel" not in repr(a)


@pytest.mark.parametrize(
    "source, variables",
    [
        ("2+u*u", ("x", "u")),  # the catalog's sekigawa warp
        ("3+cos(u)+cos(w)", ("x", "u", "w")),  # the catalog's conullity3 warp
        ("3.1+cos(0.9*u)+cos(1.2*w)", ("x", "u", "w")),
        ("exp(7*u*w)", ("x", "u", "w")),
        ("4-u*u-w*w", ("x", "u", "w")),
        ("2+log(1.5+u)*x", ("x", "u")),
        ("sqrt(4-u*w)+x", ("x", "u", "w")),
    ],
)
def test_value_is_the_value_of_each_jet_bitwise(source, variables):
    # a warped chart's domain test may take p from the point's jet instead of the value kernel
    expr = parse(source, variables)
    rng = np.random.default_rng(2024)
    points = rng.uniform(-3.0, 3.0, size=(2000, len(variables)))
    points[::50, 1] = -1.5  # log(0) and its neighbours
    raised = 0
    for point in points:
        try:
            value = expr.value(point)
        except DomainError:
            raised += 1
            with pytest.raises(DomainError):
                expr.jet2(point)
            with pytest.raises(DomainError):
                expr.jet3(point)
            continue
        for jet in (lambda: expr.jet2(point).value, lambda: expr.jet3(point)[0]):
            try:
                assert _bits(jet()) == _bits(value)
            except DomainError:  # a derivative the value does not take
                pass
    assert raised < len(points)


_ReferenceToken = collections.namedtuple("_ReferenceToken", "kind text offset")


def _reference_tokenize(source: str) -> list:
    """The tokenizer as a loop of ``re.match`` calls, one token record each."""
    tokens, pos = [], 0
    while pos < len(source):
        m = exprcalc._TOKEN_RE.match(source, pos)
        if m is None:
            raise ParseError(f"unexpected character {source[pos]!r}", pos)
        if m.lastgroup != "ws":
            tokens.append(_ReferenceToken(m.lastgroup, "-" if m.group() == "−" else m.group(), pos))
        pos = m.end()
    return tokens + [_ReferenceToken("end", "", len(source))]


# the warps of tools/stdout_digest.py, the catalog's defaults and a benchmark-shaped
# one, over the charts' coordinates
_WARPS = [
    "exp(u)", "4-u*u-w*w", "3.671764+cos(0.522086*u)+cos(0.998341*x)", "1+u*u*w", "1e300*u*u+1",
    "exp(7*u*w)", "2+u^2.5", "2 + u ^ 2", "2+u*u", "3+cos(u)+cos(w)", "3.1+cos(0.9*u)+cos(1.2*w)",
    "2 − u*u", "-(u)^-2+sqrt(log(3+w))/.5e1",
]
_MALFORMED = ["2+*u", "cos(u", "u)", "2 $ u", "1.5.3", "exp(u))", "foo(u)", "q+1", "u#", "(", "2+u−", "1e", "é", ")"]


def _parsed(source: str):
    """The tree, or the ParseError's message and offset."""
    try:
        return "ok", parse(source, ("x", "u", "v", "w"))
    except ParseError as exc:
        return "ParseError", (exc.message, exc.offset)


def _kernel_text(expr, order: int) -> str:
    shape = exprcalc._Shape(expr.root, expr.n, order)
    kernel = exprcalc._Compiler(shape)
    kernel.body(shape.nodes[0])
    return "\n".join(kernel.lines)


@pytest.mark.parametrize("source", _WARPS + _MALFORMED)
def test_tokenizer_gives_the_reference_tokens_trees_kernels_and_errors(source, monkeypatch):
    got = _parsed(source)
    with monkeypatch.context() as m:
        m.setattr(exprcalc, "_tokenize", _reference_tokenize)
        want = _parsed(source)
    assert got[0] == want[0] == ("ok" if source in _WARPS else "ParseError")
    if got[0] == "ParseError":
        assert got == want
        return
    tokens = [(t.kind, t.text, t.offset) for t in exprcalc._tokenize(source)]
    assert tokens == [tuple(t) for t in _reference_tokenize(source)]
    assert got[1].root == want[1].root  # node kinds, constants and spans
    for order in (0, 2, 3):
        assert _kernel_text(got[1], order) == _kernel_text(want[1], order)
