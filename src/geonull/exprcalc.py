"""Expression parsing and forward-mode evaluation up to third order.

Scalar expressions over named chart coordinates (for example the warping
function ``"3 + cos(u) + cos(w)"``) are parsed into an immutable AST and
evaluated with exact first, second and third partial derivatives carried by
truncated Taylor arithmetic.  No finite differences are involved;
derivatives are exact to machine precision for the supported operator set.

An expression builds up to three kernels, straight-line Python functions
over plain floats with no per-node arrays, each on its first use; parsing
builds nothing.  The 2-jet kernel behind :func:`eval_jet2` and
:meth:`Expression.jet2` does the float operations of a tree walk over
:class:`Jet2` in the same order, so it matches that walk bit for bit.  The 3-jet kernel behind :meth:`Expression.jet3` adds the third
derivatives; its value, gradient and Hessian come from the float operations
of the 2-jet kernel, so they are bitwise equal to its results.  The value
kernel behind :meth:`Expression.value` makes the same domain checks but
computes no derivatives.  A float overflow raised by a function or a power
(``exp(exp(exp(u)))`` at u = 2.9), ``sin`` or ``cos`` of an infinite
argument, and a derivative that divides by an underflowed zero (``log(u)``
at u = 1e-170) become a :class:`DomainError` naming that subexpression; a
third derivative can meet one where the first two do not.

A kernel's text holds no number of its expression: constants, error
fragments and offsets are globals of the kernel, and the emitter branches on
no constant, so the text depends only on the expression's shape
(``a+cos(b*u)+cos(c*w)`` for any a, b, c).  Each shape's kernel is emitted
and compiled once per process, with a plan naming the node whose constant,
fragment or offset each global holds; a new expression of a known shape
costs its parse and one walk of its tree that binds its own.  The bits are
those of literals, which CPython folds with the IEEE operations the kernel
makes at run time.  Kernels hold no state, so threads may share them: the
code is immutable and each expression's function has its own globals.

Grammar
-------
Binary operators ``+ - * / ^`` with the usual precedence, unary minus, and
calls of the smooth functions ``sin cos exp log sqrt``.  ``^`` is
right-associative and binds tighter than a unary minus applied to its base,
so ``-u^2`` parses as ``-(u^2)``.  ``abs`` is deliberately unsupported
(non-smooth).  Variable binding is positional: the variable list passed to
:func:`parse` fixes the coordinate order for evaluation points.
"""

from __future__ import annotations

import builtins
import itertools
import math
import re
import types
from contextlib import contextmanager
from functools import cached_property, lru_cache
from typing import Callable, NamedTuple, Sequence, Union

import numpy as np

__all__ = [
    "ParseError",
    "DomainError",
    "Jet2",
    "Expression",
    "parse",
    "eval_jet2",
    "to_source",
]


class ParseError(ValueError):
    """Raised on malformed source; ``offset`` is the character offset."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.message = message
        self.offset = offset


class DomainError(ArithmeticError):
    """Raised when evaluation leaves a function's smooth domain or overflows.

    ``fragment`` is the offending subexpression text, ``offset`` its start.
    """

    def __init__(self, message: str, fragment: str, offset: int):
        super().__init__(f"{message} in '{fragment}' (at offset {offset})")
        self.message = message
        self.fragment = fragment
        self.offset = offset


# ---------------------------------------------------------------------------
# 2-jets


class Jet2:
    """Value, gradient, and Hessian of a scalar function at a point.

    The Hessian is stored exactly symmetric: the constructor keeps the upper
    triangle and mirrors it, so symmetry is structural rather than a
    floating-point accident.  Immutable.
    """

    __slots__ = ("value", "gradient", "hessian")

    def __init__(self, value: float, gradient, hessian):
        upper = np.triu(np.asarray(hessian, dtype=float))
        self._fill(float(value), np.asarray(gradient, dtype=float), upper + upper.T - np.diag(np.diag(upper)))

    def _fill(self, value: float, gradient: np.ndarray, hessian: np.ndarray) -> None:
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "gradient", gradient)
        object.__setattr__(self, "hessian", hessian)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"field {name!r} is read-only")

    __delattr__ = __setattr__

    @classmethod
    def _from_normal_form(cls, value: float, gradient, hessian) -> "Jet2":
        """Skip the constructor's rewrite of a Hessian already in its output form."""
        jet = object.__new__(cls)
        jet._fill(value, np.array(gradient, dtype=float), np.array(hessian, dtype=float))
        return jet

    @staticmethod
    def constant(c: float, n: int) -> "Jet2":
        return Jet2(c, np.zeros(n), np.zeros((n, n)))

    @staticmethod
    def variable(value: float, index: int, n: int) -> "Jet2":
        g = np.zeros(n)
        g[index] = 1.0
        return Jet2(value, g, np.zeros((n, n)))

    def _lift(self, other) -> "Jet2":
        if isinstance(other, Jet2):
            return other
        return Jet2.constant(float(other), self.gradient.shape[0])

    def chain(self, f: float, f1: float, f2: float) -> "Jet2":
        """Compose with a scalar function given f(v), f'(v), f''(v)."""
        g = self.gradient
        return Jet2(f, f1 * g, f1 * self.hessian + f2 * np.outer(g, g))

    def __neg__(self) -> "Jet2":
        return Jet2(-self.value, -self.gradient, -self.hessian)

    def __add__(self, other) -> "Jet2":
        o = self._lift(other)
        return Jet2(self.value + o.value, self.gradient + o.gradient, self.hessian + o.hessian)

    __radd__ = __add__

    def __sub__(self, other) -> "Jet2":
        o = self._lift(other)
        return Jet2(self.value - o.value, self.gradient - o.gradient, self.hessian - o.hessian)

    def __rsub__(self, other) -> "Jet2":
        return self._lift(other) - self

    def __mul__(self, other) -> "Jet2":
        o = self._lift(other)
        value = self.value * o.value
        grad = self.value * o.gradient + o.value * self.gradient
        hess = (
            self.value * o.hessian
            + o.value * self.hessian
            + np.outer(self.gradient, o.gradient)
            + np.outer(o.gradient, self.gradient)
        )
        return Jet2(value, grad, hess)

    __rmul__ = __mul__

    def reciprocal(self) -> "Jet2":
        v = self.value
        if v == 0.0:
            raise ZeroDivisionError("reciprocal of zero")
        return self.chain(1.0 / v, -1.0 / (v * v), 2.0 / (v * v * v))

    def __truediv__(self, other) -> "Jet2":
        return self * self._lift(other).reciprocal()

    def __rtruediv__(self, other) -> "Jet2":
        return self._lift(other) * self.reciprocal()


# ---------------------------------------------------------------------------
# AST

# A node is a record whose last field is its span, the (start, end) character
# offsets of its source text.  Equality and hashing leave the span out, so a
# reparsed tree equals the original, and a node equals only a node of its
# own kind.
Span = tuple


def _node(cls):
    """Give the node record ``cls`` equality and hashing that leave its span out."""

    def __eq__(self, other):
        return type(other) is type(self) and self[:-1] == other[:-1]

    def __ne__(self, other):
        return not __eq__(self, other)

    def __hash__(self):
        return hash((type(self).__name__, self[:-1]))

    cls.__eq__, cls.__ne__, cls.__hash__ = __eq__, __ne__, __hash__
    return cls


@_node
class Const(NamedTuple):
    value: float
    span: Span = (0, 0)


@_node
class Var(NamedTuple):
    index: int
    name: str
    span: Span = (0, 0)


@_node
class Neg(NamedTuple):
    child: "Node"
    span: Span = (0, 0)


@_node
class Bin(NamedTuple):
    op: str
    left: "Node"
    right: "Node"
    span: Span = (0, 0)


@_node
class Call(NamedTuple):
    fn: str
    arg: "Node"
    span: Span = (0, 0)


Node = Union[Const, Var, Neg, Bin, Call]

# f(v), f'(v), f''(v), each math function called once; the first call raises
# what math raises outside the domain (log and sqrt are checked before the call)
_FUNCTIONS = {
    "sin": lambda v: (s := math.sin(v), math.cos(v), -s),
    "cos": lambda v: (c := math.cos(v), -math.sin(v), -c),
    "exp": lambda v: (e := math.exp(v), e, e),
    "log": lambda v: (math.log(v), 1.0 / v, -1.0 / (v * v)),
    "sqrt": lambda v: (r := math.sqrt(v), 0.5 / r, -0.25 / r**3),
}
# the same with f'''(v) appended, for the 3-jet kernel
_FUNCTIONS3 = {
    "sin": lambda v: (s := math.sin(v), c := math.cos(v), -s, -c),
    "cos": lambda v: (c := math.cos(v), -(s := math.sin(v)), -c, s),
    "exp": lambda v: (e := math.exp(v), e, e, e),
    "log": lambda v: (math.log(v), 1.0 / v, -1.0 / (v * v), 2.0 / (v * v * v)),
    "sqrt": lambda v: (r := math.sqrt(v), 0.5 / r, -0.25 / r**3, 0.375 / r**5),
}
_POSITIVE_DOMAIN = {"log", "sqrt"}


# ---------------------------------------------------------------------------
# Tokenizer / parser (precedence climbing)

_TOKEN_RE = re.compile(
    r"(?P<ws>\s+)"
    r"|(?P<num>(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[+*/^()-]|−)"
)

_BINARY_PRECEDENCE = {"+": 10, "-": 10, "*": 20, "/": 20, "^": 40}
_UNARY_PRECEDENCE = 30  # below ^, above * and /
_RIGHT_ASSOCIATIVE = {"^"}


class _Token:
    """One token: ``kind`` is "num", "name", "op" or "end", ``offset`` its character offset."""

    __slots__ = ("kind", "text", "offset")

    def __init__(self, kind: str, text: str, offset: int):
        self.kind, self.text, self.offset = kind, text, offset


def _tokenize(source: str) -> list:
    tokens = []
    pos = 0
    for m in _TOKEN_RE.finditer(source):
        if m.start() != pos:  # a character no token starts with
            break
        kind = m.lastgroup
        if kind != "ws":
            text = m.group()
            tokens.append(_Token(kind, "-" if text == "−" else text, pos))  # unicode minus, accepted as '-'
        pos = m.end()
    if pos < len(source):
        raise ParseError(f"unexpected character {source[pos]!r}", pos)
    tokens.append(_Token("end", "", len(source)))
    return tokens


class _Parser:
    def __init__(self, source: str, variables: Sequence[str]):
        self.source = source
        self.variables = {name: i for i, name in enumerate(variables)}
        self.tokens = _tokenize(source)
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def parse(self) -> Node:
        node = self.parse_expr(0)
        tok = self.peek()
        if tok.kind != "end":
            if tok.text == ")":
                raise ParseError("unbalanced parentheses", tok.offset)
            raise ParseError(f"unexpected token {tok.text!r}", tok.offset)
        return node

    def parse_expr(self, min_precedence: int) -> Node:
        left = self.parse_operand()
        while True:
            tok = self.peek()
            if tok.kind != "op" or tok.text not in _BINARY_PRECEDENCE:
                break
            prec = _BINARY_PRECEDENCE[tok.text]
            if prec < min_precedence:
                break
            self.advance()
            next_min = prec if tok.text in _RIGHT_ASSOCIATIVE else prec + 1
            right = self.parse_expr(next_min)
            left = Bin(tok.text, left, right, (left.span[0], right.span[1]))
        return left

    def parse_operand(self) -> Node:
        tok = self.peek()
        if tok.kind == "num":
            self.advance()
            return Const(float(tok.text), (tok.offset, tok.offset + len(tok.text)))
        if tok.kind == "name":
            self.advance()
            if self.peek().text == "(":
                if tok.text not in _FUNCTIONS:
                    raise ParseError(f"unknown identifier {tok.text!r}", tok.offset)
                self.advance()
                arg = self.parse_expr(0)
                closing = self.peek()
                if closing.text != ")":
                    raise ParseError("unbalanced parentheses", closing.offset)
                self.advance()
                return Call(tok.text, arg, (tok.offset, closing.offset + 1))
            if tok.text not in self.variables:
                raise ParseError(f"unknown identifier {tok.text!r}", tok.offset)
            return Var(self.variables[tok.text], tok.text, (tok.offset, tok.offset + len(tok.text)))
        if tok.text == "(":
            self.advance()
            node = self.parse_expr(0)
            closing = self.peek()
            if closing.text != ")":
                raise ParseError("unbalanced parentheses", closing.offset)
            self.advance()
            # the span takes in the parentheses, so an error names a balanced fragment
            return node._replace(span=(tok.offset, closing.offset + 1))
        if tok.text == "-":
            self.advance()
            child = self.parse_expr(_UNARY_PRECEDENCE)
            return Neg(child, (tok.offset, child.span[1]))
        raise ParseError("empty operand", tok.offset)


class Expression:
    """Parsed expression bound to an ordered coordinate list.

    Each kernel over plain floats (see :class:`_Compiler`) is built by the
    first call that needs it, from code compiled once per expression shape,
    and kept in the instance ``__dict__``; equality, hashing and repr use
    only ``root``, ``variables`` and ``source``.  Immutable.
    """

    def __init__(self, root: Node, variables: tuple, source: str):
        vars(self).update(root=root, variables=variables, source=source)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"field {name!r} is read-only")

    __delattr__ = __setattr__

    def _key(self) -> tuple:
        return self.root, self.variables, self.source

    def __eq__(self, other):
        return type(other) is Expression and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return f"Expression(root={self.root!r}, variables={self.variables!r}, source={self.source!r})"

    @property
    def n(self) -> int:
        return len(self.variables)

    @cached_property
    def _value_kernel(self) -> Callable:
        return _compile_value(self.root, self.n, self.source)

    @cached_property
    def _jet_kernel(self) -> Callable:
        return _compile_jet(self.root, self.n, self.source, 2)

    @cached_property
    def _jet3_kernel(self) -> Callable:
        return _compile_jet(self.root, self.n, self.source, 3)

    def jet2(self, point) -> Jet2:
        return eval_jet2(self, point)

    def jet3(self, point) -> tuple:
        """``(value, gradient, hessian, third)``, ``third[i, j, k]`` the third partials.

        The first three are bitwise those of :meth:`jet2`, and ``third`` is
        exactly symmetric.  Raises :meth:`jet2`'s :class:`DomainError`, or
        one that only a third derivative meets.
        """
        value, gradient, hessian, third = self._jet3_kernel(*_coordinates(self, point))
        return value, np.array(gradient), np.array(hessian), np.array(third)

    def value(self, point) -> float:
        """The value alone, with the domain checks of :meth:`jet2`.

        No derivative is computed, so an overflow or a division by an
        underflowed zero that only a derivative meets raises nothing here.
        """
        return self._value_kernel(*_coordinates(self, point))

    def to_source(self) -> str:
        return to_source(self.root)


def parse(source: str, variables: Sequence[str]) -> Expression:
    """Parse ``source`` over the ordered coordinate names ``variables``.

    Raises :class:`ParseError` with a character offset on malformed input or
    on identifiers that are neither declared coordinates nor supported
    functions.
    """
    if not source or not source.strip():
        raise ParseError("empty expression", 0)
    names = list(variables)
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate coordinate names in {names}")
    root = _Parser(source, names).parse()
    return Expression(root, tuple(names), source)


def to_source(node: Node) -> str:
    """Render a tree back to text; reparsing yields a structurally equal tree."""
    if isinstance(node, Const):
        return repr(node.value)
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Neg):
        return f"(-{to_source(node.child)})"
    if isinstance(node, Bin):
        return f"({to_source(node.left)} {node.op} {to_source(node.right)})"
    if isinstance(node, Call):
        return f"{node.fn}({to_source(node.arg)})"
    raise TypeError(f"not an expression node: {node!r}")


# ---------------------------------------------------------------------------
# Evaluation


def eval_jet2(expr: Expression, point) -> Jet2:
    """Evaluate ``expr`` at ``point`` with exact gradient and Hessian.

    ``point`` is indexed positionally against ``expr.variables``.  Domain
    violations (log/sqrt of a non-positive value, division by zero,
    non-integer power of a non-positive base) raise :class:`DomainError`
    naming the offending subexpression; a non-finite coordinate raises it
    naming the coordinate, with the whole source as the fragment.
    """
    return Jet2._from_normal_form(*expr._jet_kernel(*_coordinates(expr, point)))


def _coordinates(expr: Expression, point) -> list:
    x = np.asarray(point, dtype=float)
    if x.shape != (len(expr.variables),):
        raise ValueError(
            f"point has shape {x.shape}, expected ({len(expr.variables)},) for variables {expr.variables}"
        )
    coords = x.tolist()
    if not all(map(math.isfinite, coords)):
        name, c = next((name, c) for name, c in zip(expr.variables, coords) if not math.isfinite(c))
        raise DomainError(f"non-finite coordinate {name} = {c!r}", expr.source, 0)
    return coords


def _fragment(source: str, node: Node) -> str:
    lo, hi = node.span
    text = source[lo:hi]
    return text if text else to_source(node)


def _int_power(v: float, k: int) -> tuple:
    """f, f' and f'' of ``v**k`` for an integer ``k``."""
    f = v**k
    f1 = k * v ** (k - 1)
    f2 = k * (k - 1) * v ** (k - 2) if k * (k - 1) != 0 else 0.0
    return f, f1, f2


def _int_power3(v: float, k: int) -> tuple:
    """:func:`_int_power` with f''' appended."""
    low = _int_power(v, k)
    return low + (k * (k - 1) * (k - 2) * v ** (k - 3) if k * (k - 1) * (k - 2) != 0 else 0.0,)


def _compile_jet(root: Node, n: int, source: str, order: int) -> Callable:
    """The jet kernel of ``root`` over ``n`` coordinates, of order 2 or 3.

    It takes the coordinates as ``n`` float arguments.  It returns the value,
    the gradient and the Hessian as tuples of floats, in the form ``Jet2``'s
    constructor gives them, and at order 3 the third derivatives as an
    n x n x n nested tuple mirrored from the entries i <= j <= k.
    """
    return _bind(_Shape(root, n, order), source)


def _compile_value(root: Node, n: int, source: str) -> Callable:
    """The value kernel of ``root``: ``n`` float arguments in, the value out."""
    return _bind(_Shape(root, n, 0), source)


class _Shape:
    """A kernel's cache key: its order (0 for the value kernel), ``n`` and its tree's shape.

    The shape is the preorder list of node labels (:func:`_label`), which
    hold no constant, so trees that differ only in their constants and
    spans have equal keys.  The preorder ``nodes`` ride along, for the
    emitter and for :func:`_bind`.
    """

    def __init__(self, root: Node, n: int, order: int):
        self.nodes = _preorder(root)
        self.n = n
        self.order = order
        self.key = (order, n, tuple(map(_label, self.nodes)))

    def __hash__(self) -> int:
        return hash(self.key)

    def __eq__(self, other) -> bool:
        return self.key == other.key


def _preorder(root: Node) -> list:
    nodes, stack = [], [root]
    while stack:
        node = stack.pop()
        nodes.append(node)
        if isinstance(node, Bin):
            stack += (node.right, node.left)
        elif isinstance(node, Neg):
            stack.append(node.child)
        elif isinstance(node, Call):
            stack.append(node.arg)
    return nodes


def _label(node: Node):
    """A node's kind with what a kernel's text takes from it: its operator, function or variable index."""
    if isinstance(node, Bin):
        return Bin, node.op
    if isinstance(node, Call):
        return Call, node.fn
    if isinstance(node, Var):
        return Var, node.index
    return type(node)


@lru_cache(maxsize=64)  # kernel shapes; a run meets a handful
def _kernel_plan(shape: _Shape) -> tuple:
    """``(code, statics, bound)`` of ``shape``'s kernel, emitted and compiled once per shape.

    ``statics`` maps the kernel's globals that hold the same object for
    every tree of the shape.  ``bound`` lists ``(name, j, part)`` for the
    rest: global ``name`` holds the ``part`` (``"value"``, ``"fragment"`` or
    ``"offset"``) of the node at preorder index ``j``.
    """
    kernel = _Compiler(shape)
    kernel.body(shape.nodes[0])
    params = ", ".join(f"x{i}" for i in range(shape.n))
    text = f"def kernel({params}):\n" + "\n".join(kernel.lines) + "\n"
    module = compile(text, "<expression kernel>", "exec")
    code = next(c for c in module.co_consts if isinstance(c, types.CodeType))
    return code, kernel.statics, tuple(kernel.bound)


def _bind(shape: _Shape, source: str) -> Callable:
    """The kernel of ``shape``'s own tree: its shape's code, with its own constants, fragments and offsets."""
    code, statics, bound = _kernel_plan(shape)
    namespace = dict(statics)
    for name, j, part in bound:
        node = shape.nodes[j]
        if part == "value":
            namespace[name] = node.value
        elif part == "offset":
            namespace[name] = node.span[0]
        else:
            namespace[name] = _fragment(source, node)
    return types.FunctionType(code, namespace)


def _tuple(items) -> str:
    return "(" + "".join(f"{item}, " for item in items) + ")"


class _Compiler:
    """Emit one kernel as straight-line Python over float locals.

    Per node the jet kernel performs the float operations of the matching
    :class:`Jet2` operator in the same order, so its results equal a tree walk
    over ``Jet2`` bit for bit.  That includes the rewrite ``d + d - d`` that
    ``Jet2.__post_init__`` applies to each Hessian diagonal entry (it turns an
    entry beyond half the float range into inf and inf into nan).  Inner
    nodes skip the rewrite ``u + 0.0 - 0.0`` of off-diagonal entries: it only
    changes the sign of a zero, which reaches no nonzero entry, and the
    result gets it.  At order 3 the third derivatives ride along in their own
    locals; the lower orders are emitted exactly as at order 2, and the
    result's third derivatives get the same zero-sign rewrite.

    A node's jet is ``(value, gradient, upper)``, plus ``third`` at order 3:
    the names of its locals, a coordinate's ``x<i>``, or a constant's global
    ``k<i>`` with literal ``0.0`` and ``1.0`` derivatives.  The upper triangle
    of the Hessian is listed row by row, the third derivatives at the sorted
    triples i <= j <= k.  Domain checks run where the tree walk made them, so
    the first violation raises the same :class:`DomainError`, whose fragment
    and offset are globals too.  The emitter reads a tree's shape only: no
    branch looks at a constant (the integer-power test runs in the kernel),
    and a constant, fragment or offset is a global :meth:`bind_node` names by
    its node's preorder index, for :func:`_bind` to fill in from each tree
    of the shape.
    """

    def __init__(self, shape: _Shape):
        n = self.n = shape.n
        self.order = max(shape.order, 2)  # a value kernel's exponents take 2-jets, for the integer-power test
        self.value_kernel = shape.order == 0
        self.pairs = [(i, j) for i in range(n) for j in range(i, n)]
        self.triples = list(itertools.combinations_with_replacement(range(n), 3)) if self.order == 3 else []
        self.pair_index = {pair: k for k, pair in enumerate(self.pairs)}
        self.index = {id(node): j for j, node in enumerate(shape.nodes)}
        self.statics = {"__builtins__": builtins, "DomainError": DomainError}
        self.bound = []
        self.lines = []
        self.indent = "    "
        self.count = 0

    def body(self, root: Node) -> None:
        """Emit the kernel of ``root``: its value kernel, or its jet kernel (see :func:`_compile_jet`)."""
        if self.value_kernel:
            self.emit(f"return {self.value(root)}")
            return
        n = self.n
        parts = self.jet(root, final=True)
        cell = dict(zip(self.pairs, parts[2]))
        rows = [[cell[min(i, j), max(i, j)] for j in range(n)] for i in range(n)]
        result = [parts[0], _tuple(parts[1]), _tuple(_tuple(row) for row in rows)]
        if self.order == 3:
            for d in parts[3]:
                if d != "0.0":  # a local, not a constant's zero: give a zero the + sign
                    self.emit(f"{d} = {d} + 0.0 - 0.0")
            cube = dict(zip(self.triples, parts[3]))
            result.append(_tuple(
                _tuple(_tuple(cube[tuple(sorted((i, j, k)))] for k in range(n)) for j in range(n))
                for i in range(n)
            ))
        self.emit(f"return {', '.join(result)}")

    def emit(self, line: str) -> None:
        self.lines.append(self.indent + line)

    @contextmanager
    def block(self, header: str):
        self.emit(header)
        self.indent += "    "
        yield
        self.indent = self.indent[:-4]

    def global_name(self) -> str:
        return f"k{len(self.statics) + len(self.bound)}"

    def bind(self, obj) -> str:
        """A global holding ``obj``, the same for every tree of the shape."""
        name = self.global_name()
        self.statics[name] = obj
        return name

    def bind_node(self, node: Node, part: str) -> str:
        """A global holding ``node``'s ``part``: its ``"value"``, ``"fragment"`` or ``"offset"``."""
        name = self.global_name()
        self.bound.append((name, self.index[id(node)], part))
        return name

    def fresh(self) -> str:
        self.count += 1
        return f"t{self.count}"

    def fail(self, message: str, node: Node) -> None:
        """Raise ``node``'s DomainError; ``message`` is code."""
        fragment = self.bind_node(node, "fragment")
        self.emit(f"raise DomainError({message}, {fragment}, {self.bind_node(node, 'offset')}) from None")

    def fail_if(self, condition: str, message: str, node: Node) -> None:
        """Raise ``node``'s DomainError when ``condition`` holds."""
        with self.block(f"if {condition}:"):
            self.fail(message, node)

    def guarded(self, line: str, node: Node) -> None:
        """Emit ``line``; an error ``math`` raises there becomes ``node``'s DomainError.

        That is an OverflowError, the ValueError of ``sin`` and ``cos`` of
        an infinite argument, or the ZeroDivisionError of a derivative whose
        divisor underflowed to zero.
        """
        with self.block("try:"):
            self.emit(line)
        with self.block("except OverflowError:"):
            self.fail('"float overflow"', node)
        with self.block("except ValueError:"):
            self.fail('"math domain error"', node)
        with self.block("except ZeroDivisionError:"):
            self.fail('"division by an underflowed zero"', node)

    def call(self, fn, arg: str, node: Node) -> list:
        """Locals holding f(arg) and its derivatives up to the kernel's order."""
        t = self.fresh()
        out = [f"{t}f{d}" for d in range(self.order + 1)]
        self.guarded(f"{', '.join(out)} = {self.bind(fn)}({arg})", node)
        return out

    # -- jet kernel ----------------------------------------------------------

    def store(self, jet: tuple, final: bool, name: str = None) -> tuple:
        """Assign one jet to locals named after ``name`` (fresh by default).

        Then apply the constructor's rewrite ``upper + upper.T - diag``: to
        the diagonal always, to the off-diagonal entries only for the result.
        """
        out = self.names(name or self.fresh())
        for target, expr in zip(_entries(out), _entries(jet)):
            self.emit(f"{target} = {expr}")
        for h, (i, j) in zip(out[2], self.pairs):
            if i == j:
                self.emit(f"{h} = {h} + {h} - {h}")
            elif final:
                self.emit(f"{h} = {h} + 0.0 - 0.0")
        return out

    def names(self, t: str) -> tuple:
        jet = f"{t}v", [f"{t}g{i}" for i in range(self.n)], [f"{t}h{k}" for k in range(len(self.pairs))]
        return jet + ([f"{t}d{k}" for k in range(len(self.triples))],) if self.order == 3 else jet

    def hess(self, upper: list, i: int, j: int) -> str:
        return upper[self.pair_index[i, j]]

    def mul(self, a: tuple, b: tuple, final: bool) -> tuple:
        (av, ag, ah), (bv, bg, bh) = a[:3], b[:3]
        gradient = [f"{av} * {bg[i]} + {bv} * {ag[i]}" for i in range(self.n)]
        upper = [
            f"{av} * {bh[k]} + {bv} * {ah[k]} + {ag[i]} * {bg[j]} + {bg[i]} * {ag[j]}"
            for k, (i, j) in enumerate(self.pairs)
        ]
        jet = (f"{av} * {bv}", gradient, upper)
        if self.order == 3:
            h = self.hess
            jet += ([
                f"{av} * {b[3][m]} + {bv} * {a[3][m]}"
                f" + {ag[i]} * {h(bh, j, k)} + {ag[j]} * {h(bh, i, k)} + {ag[k]} * {h(bh, i, j)}"
                f" + {bg[i]} * {h(ah, j, k)} + {bg[j]} * {h(ah, i, k)} + {bg[k]} * {h(ah, i, j)}"
                for m, (i, j, k) in enumerate(self.triples)
            ],)
        return self.store(jet, final)

    def chain(self, a: tuple, fs: list, final: bool, name: str = None) -> tuple:
        """Compose ``a`` with a scalar function whose value and derivatives are ``fs``."""
        ag, ah = a[1], a[2]
        f, f1, f2 = fs[:3]
        upper = [f"{f1} * {ah[k]} + {f2} * ({ag[i]} * {ag[j]})" for k, (i, j) in enumerate(self.pairs)]
        jet = (f, [f"{f1} * {g}" for g in ag], upper)
        if self.order == 3:
            h = self.hess
            jet += ([
                f"{f1} * {a[3][m]}"
                f" + {f2} * ({ag[i]} * {h(ah, j, k)} + {ag[j]} * {h(ah, i, k)} + {ag[k]} * {h(ah, i, j)})"
                f" + {fs[3]} * ({ag[i]} * {ag[j]} * {ag[k]})"
                for m, (i, j, k) in enumerate(self.triples)
            ],)
        return self.store(jet, final, name)

    def constant(self, value: str) -> tuple:
        jet = value, ["0.0"] * self.n, ["0.0"] * len(self.pairs)
        return jet + (["0.0"] * len(self.triples),) if self.order == 3 else jet

    def jet(self, node: Node, final: bool = False) -> tuple:
        if isinstance(node, Const):
            return self.constant(self.bind_node(node, "value"))
        if isinstance(node, Var):
            jet = self.constant(f"x{node.index}")
            jet[1][node.index] = "1.0"
            return jet
        if isinstance(node, Neg):
            return self.store(_entrywise(lambda e: f"-{e}", self.jet(node.child)), final)
        if isinstance(node, Call):
            a = self.jet(node.arg)
            if node.fn in _POSITIVE_DOMAIN:
                self.fail_if(f"{a[0]} <= 0.0", self.domain_message(node, a[0]), node)
            table = _FUNCTIONS3 if self.order == 3 else _FUNCTIONS
            return self.chain(a, self.call(table[node.fn], a[0], node), final)
        if isinstance(node, Bin):
            a = self.jet(node.left)
            if node.op == "^":
                return self.power(node, a, final)
            b = self.jet(node.right)
            if node.op in ("+", "-"):
                op = node.op
                return self.store(_entrywise(lambda x, y: f"{x} {op} {y}", a, b), final)
            if node.op == "*":
                return self.mul(a, b, final)
            if node.op == "/":
                bv = b[0]
                self.fail_if(f"{bv} == 0.0", '"division by zero"', node)
                t = self.fresh()
                out = [f"{t}f{d}" for d in range(self.order + 1)]
                quotients = [
                    f"1.0 / {bv}",
                    f"-1.0 / ({bv} * {bv})",
                    f"2.0 / ({bv} * {bv} * {bv})",
                    f"-6.0 / ({bv} * {bv} * {bv} * {bv})",
                ][: self.order + 1]
                self.guarded(f"{', '.join(out)} = {', '.join(quotients)}", node)
                return self.mul(a, self.chain(b, out, False), final)
        raise TypeError(f"not an expression node: {node!r}")

    def power(self, node: Bin, base: tuple, final: bool) -> tuple:
        expo = self.jet(node.right)
        t = self.fresh()
        table = _FUNCTIONS3 if self.order == 3 else _FUNCTIONS

        def real():
            log_base = self.chain(base, self.call(table["log"], base[0], node), False)
            product = self.mul(expo, log_base, False)
            self.chain(product, self.call(table["exp"], product[0], node), final, t)

        int_power = _int_power3 if self.order == 3 else _int_power
        self.power_rule(
            node,
            base[0],
            expo,
            t,
            zero=lambda: self.store(self.constant("1.0"), final, t),
            integer=lambda: self.chain(base, self.call(int_power, f"{base[0]}, {t}k", node), final, t),
            real=real,
        )
        return self.names(t)

    def third_of_exponent(self, node: Bin, base: str, expo: tuple, t: str) -> None:
        """At order 3, add b^e log(b) d3e to the integer rule's third derivatives of ``b ^ e``.

        The integer rule holds e constant, as its gradient and Hessian vanish
        at the point; its third derivatives need not, and then e is no
        integer near the point, so b must be positive.
        """
        varying = [d for d in expo[3] if d != "0.0"] if self.order == 3 else []
        if not varying:
            return
        with self.block(f"if {' or '.join(varying)}:"):
            self.fail_if(f"{base} <= 0.0", '"power with non-integer exponent requires positive base"', node)
            self.emit(f"{t}L = {self.bind(math.log)}({base})")
            for d, e in zip(self.names(t)[3], expo[3]):
                self.emit(f"{d} = {d} + {t}v * {t}L * {e}")

    def power_rule(self, node: Bin, base: str, expo: tuple, t: str, zero, integer, real) -> None:
        """Emit the branches and checks of ``base ^ expo``; callbacks emit each result.

        As in the tree walk, the integer rule applies when the exponent's
        gradient and Hessian at the point are zero and its value an integer,
        which ``{t}k`` then holds.
        """
        varying = [d for d in expo[1] + expo[2] if d != "0.0"]
        constant = f"not ({' or '.join(varying)}) and " if varying else ""
        with self.block(f"if {constant}({expo[0]}).is_integer():"):
            self.emit(f"{t}k = int({expo[0]})")
            with self.block(f"if {t}k == 0:"):
                zero()
            with self.block("else:"):
                self.fail_if(f"{base} == 0.0 and {t}k < 0", '"zero base with negative exponent"', node)
                integer()
            self.third_of_exponent(node, base, expo, t)
        with self.block("else:"):
            self.fail_if(f"{base} <= 0.0", '"power with non-integer exponent requires positive base"', node)
            real()

    def domain_message(self, node: Call, arg: str) -> str:
        return f"{self.bind(f'{node.fn} of non-positive value ')} + repr({arg})"

    # -- value kernel --------------------------------------------------------

    def value(self, node: Node) -> str:
        if isinstance(node, Const):
            return self.bind_node(node, "value")
        if isinstance(node, Var):
            return f"x{node.index}"
        t = self.fresh()
        if isinstance(node, Neg):
            self.emit(f"{t} = -{self.value(node.child)}")
        elif isinstance(node, Call):
            a = self.value(node.arg)
            if node.fn in _POSITIVE_DOMAIN:
                self.fail_if(f"{a} <= 0.0", self.domain_message(node, a), node)
            self.guarded(f"{t} = {self.bind(getattr(math, node.fn))}({a})", node)
        elif isinstance(node, Bin):
            a = self.value(node.left)
            if node.op == "^":
                # the integer-power test needs the exponent's derivatives
                expo = self.jet(node.right)
                exp, log = self.bind(math.exp), self.bind(math.log)
                self.power_rule(
                    node,
                    a,
                    expo,
                    t,
                    zero=lambda: self.emit(f"{t} = 1.0"),
                    integer=lambda: self.guarded(f"{t} = {a} ** {t}k", node),
                    real=lambda: self.guarded(f"{t} = {exp}({expo[0]} * {log}({a}))", node),
                )
                return t
            b = self.value(node.right)
            if node.op == "/":
                self.fail_if(f"{b} == 0.0", '"division by zero"', node)
                self.emit(f"{t} = {a} * (1.0 / {b})")
            else:
                self.emit(f"{t} = {a} {node.op} {b}")
        else:
            raise TypeError(f"not an expression node: {node!r}")
        return t


def _entries(jet: tuple) -> list:
    """The value, then every derivative entry of ``jet``, as one list."""
    return [jet[0]] + [e for part in jet[1:] for e in part]


def _entrywise(op, *jets) -> tuple:
    """The jet of strings ``op`` makes from the matching entries of ``jets``."""
    return (op(*(j[0] for j in jets)),) + tuple(
        [op(*es) for es in zip(*parts)] for parts in zip(*(j[1:] for j in jets))
    )
