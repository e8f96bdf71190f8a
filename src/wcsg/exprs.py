"""Tiny expression grammar for vector fields, cocycle integrands, and symbols.

Accepted forms: float literals, the imaginary unit ``i``, the variable ``z``
(or ``x`` on the real line), ``+ - * /``, powers with integer exponents or
the real fractional exponents ``(1/3)`` and ``(2/3)``, ``exp(...)``, and the
disc automorphism helper ``mobius(a)``, whose parameter is any expression
without a variable (folded by the compiler below) with value in the open
disc. Printing is fully parenthesized and canonical, so parse(print(e))
reproduces the tree exactly.

A parsed tree is compiled once into nested closures, one rule per node type,
so evaluating an expression never walks its tree; a part without a variable
is evaluated once, at compile time, and must be finite. The evaluators carry no
closed-form derivative; differentiation falls back to the numerical path of
:func:`holo.derivative_on_grid`.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass

import numpy as np

from . import holo
from .holo import Domain, HoloFn, REAL_LINE, UNIT_DISC


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Imag:
    pass


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Neg:
    arg: object


@dataclass(frozen=True)
class BinOp:
    op: str
    left: object
    right: object


@dataclass(frozen=True)
class Pow:
    base: object
    num: int
    den: int  # 1, or 3 with num in {1, 2}


@dataclass(frozen=True)
class Exp:
    arg: object


@dataclass(frozen=True)
class Mobius:
    a_re: float
    a_im: float


_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_]+)"
    r"|(?P<op>[-+*/^(),]))"
)


def _tokenize(src: str):
    pos, out = 0, []
    while pos < len(src):
        m = _TOKEN.match(src, pos)
        if m is None or m.end() == pos:
            if src[pos:].strip() == "":
                break
            raise ValueError(f"bad character at position {pos}: {src[pos:pos + 8]!r}")
        kind = m.lastgroup
        value = float(m.group(kind)) if kind == "num" else m.group(kind)
        if value == float("inf"):
            raise ValueError(f"number {m.group(kind)} overflows a float")
        out.append((kind, value))
        pos = m.end()
    out.append(("end", None))
    return out


_BINOPS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}

# Deepest accepted nesting, both of the tree (operators, unary minus, powers
# and function calls on the way from the root to a leaf) and of the source's
# parentheses. The recursive parser, compiler, printer and tree walk all stay
# well inside Python's default recursion limit at this depth, and the printed
# form of an accepted tree nests its parentheses no deeper than the tree.
MAX_DEPTH = 100


def _within_limit(depth: int) -> int:
    if depth > MAX_DEPTH:
        raise ValueError(f"expression nests deeper than {MAX_DEPTH} levels")
    return depth


class _Parser:
    """Recursive descent; each parse method returns the node and its tree
    depth. The parser recurses only into parentheses, and ``groups`` counts
    those open on the way down, so too deep an input fails before it
    exhausts the recursion limit."""

    def __init__(self, tokens):
        self.toks = tokens
        self.pos = 0
        self.groups = 0

    def peek(self):
        return self.toks[self.pos]

    def next(self):
        tok = self.toks[self.pos]
        self.pos += 1
        return tok

    def accept(self, op) -> bool:
        """Consume the operator token ``op`` if it comes next."""
        if self.peek() == ("op", op):
            self.pos += 1
            return True
        return False

    def expect(self, kind, value=None):
        tok = self.next()
        if tok[0] != kind or (value is not None and tok[1] != value):
            raise ValueError(f"expected {value or kind}, got {tok[1]!r}")
        return tok

    def left_assoc(self, ops, operand):
        """operand (op operand)*, folded to the left, for ``+ -`` and ``* /``."""
        node, depth = operand()
        while self.peek()[0] == "op" and self.peek()[1] in ops:
            op = self.next()[1]
            right, right_depth = operand()
            node, depth = BinOp(op, node, right), _within_limit(max(depth, right_depth) + 1)
        return node, depth

    def parse_expr(self):
        return self.left_assoc("+-", self.parse_term)

    def parse_term(self):
        return self.left_assoc("*/", self.parse_factor)

    def parse_factor(self):
        """``-* atom (^ exponent)?``; the minus signs apply last."""
        negs = 0
        while self.accept("-"):
            negs += 1
        node, depth = self.parse_atom()
        if self.accept("^"):
            node, depth = Pow(node, *self.parse_exponent()), depth + 1
        depth = _within_limit(depth + negs)
        for _ in range(negs):
            node = Neg(node)
        return node, depth

    def parse_exponent(self):
        """An integer, optionally signed and parenthesized, or (1/3), (2/3)."""
        paren = self.accept("(")
        sign = -1 if self.accept("-") else 1
        kind, val = self.next()
        if kind != "num" or not val.is_integer():
            raise ValueError("exponent must be an integer or 1/3, 2/3")
        num, den = sign * int(val), 1
        if paren:
            if self.accept("/"):
                kind, den = self.next()
                if kind != "num" or den != 3 or num not in (1, 2):
                    raise ValueError("fractional exponents are limited to 1/3 and 2/3")
                den = 3
            self.expect("op", ")")
        return num, den

    def parenthesized(self):
        """``( expr )``: a grouping, or the argument of exp and mobius."""
        self.expect("op", "(")
        self.groups = _within_limit(self.groups + 1)
        node_depth = self.parse_expr()
        self.groups -= 1
        self.expect("op", ")")
        return node_depth

    def parse_atom(self):
        if self.peek() == ("op", "("):
            return self.parenthesized()
        kind, val = self.next()
        if kind == "num":
            return Num(val), 0
        if kind != "ident":
            raise ValueError(f"unexpected token {val!r}")
        if val == "i":
            return Imag(), 0
        if val in ("z", "x"):
            return Var(val), 0
        if val == "exp":
            arg, depth = self.parenthesized()
            return Exp(arg), _within_limit(depth + 1)
        if val == "mobius":
            param = _compile(self.parenthesized()[0])
            if not isinstance(param, _Const):
                raise ValueError("mobius parameter must be a constant expression")
            a = complex(param.value)
            if abs(a) >= 1:
                raise ValueError("mobius parameter must lie in the open unit disc")
            return Mobius(a.real, a.imag), 1  # printed as a call: one group deep
        raise ValueError(f"unknown identifier {val!r}")


def parse(src: str):
    """The expression tree of src; a ValueError if src is malformed or nests
    deeper than MAX_DEPTH levels."""
    parser = _Parser(_tokenize(src))
    node, _ = parser.parse_expr()
    parser.expect("end")
    return node


def print_expr(node) -> str:
    if isinstance(node, Num):
        return repr(node.value)
    if isinstance(node, Imag):
        return "i"
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Neg):
        return f"(-{print_expr(node.arg)})"
    if isinstance(node, BinOp):
        return f"({print_expr(node.left)} {node.op} {print_expr(node.right)})"
    if isinstance(node, Pow):
        if node.den == 1:
            exp = str(node.num) if node.num >= 0 else f"({node.num})"
            return f"({print_expr(node.base)}^{exp})"
        return f"({print_expr(node.base)}^({node.num}/{node.den}))"
    if isinstance(node, Exp):
        return f"exp({print_expr(node.arg)})"
    if isinstance(node, Mobius):
        if node.a_im == 0.0:
            return f"mobius({repr(node.a_re)})"
        return f"mobius({repr(node.a_re)} + {repr(node.a_im)} * i)"
    raise TypeError(f"not an expression node: {node!r}")


def _children(node) -> tuple:
    if isinstance(node, BinOp):
        return node.left, node.right
    if isinstance(node, (Neg, Exp)):
        return (node.arg,)
    if isinstance(node, Pow):
        return (node.base,)
    return ()


def _nodes(node):
    """Every node of the tree, the root first."""
    yield node
    for child in _children(node):
        yield from _nodes(child)


def variables(node) -> set:
    return {n.name for n in _nodes(node) if isinstance(n, Var)}


class _Const:
    """A compiled subtree without a variable: its value, computed once."""

    def __init__(self, value):
        self.value = value

    def __call__(self, w):
        return self.value


def _compile(node):
    """The tree as nested closures of the point array w, one rule per node
    type, so evaluating never walks the tree. A subtree without a variable is
    evaluated once, here; one whose value is not a finite number
    (``1e308*1e308``, ``1/0``) is a ValueError naming it. The tree is not
    changed, so constants keep their printed names."""
    if isinstance(node, Num):
        return _Const(node.value)
    if isinstance(node, Imag):
        return _Const(1j)
    if isinstance(node, Var):
        return lambda w: w
    if isinstance(node, Mobius):
        return holo.mobius(complex(node.a_re, node.a_im)).fn
    args = [_compile(child) for child in _children(node)]
    fn = _operation(node, args)
    if not all(isinstance(arg, _Const) for arg in args):
        return fn
    try:
        with np.errstate(all="ignore"):
            value = fn(None)
    except (ZeroDivisionError, OverflowError):
        value = np.nan
    if not np.isfinite(value):
        raise ValueError(f"constant {print_expr(node)} is not a finite number")
    return _Const(value)


def _operation(node, args):
    """The closure of an operator node over its compiled operands."""
    if isinstance(node, Neg):
        (arg,) = args
        return lambda w: -arg(w)
    if isinstance(node, BinOp):
        op, (left, right) = _BINOPS[node.op], args
        return lambda w: op(left(w), right(w))
    if isinstance(node, Pow):
        (base,), num = args, node.num
        if node.den == 1:
            return lambda w: base(w) ** num
        return lambda w: np.cbrt(np.real(base(w))) ** num
    if isinstance(node, Exp):
        (arg,) = args
        return lambda w: np.exp(arg(w))
    raise TypeError(f"not an expression node: {node!r}")


def to_callable(node, real: bool = False):
    """Compile to a numpy-vectorized evaluator of the single free variable."""
    vs = variables(node)
    if len(vs) > 1:
        raise ValueError(f"expression mixes variables {sorted(vs)}")
    kind, var = ("real", "x") if real else ("complex", "z")
    if vs - {var}:
        raise ValueError(f"{kind}-domain expressions use the variable {var}")
    if not real and any(isinstance(n, Pow) and n.den == 3 for n in _nodes(node)):
        raise ValueError("cube-root powers are only defined on the real line")
    return _compile(node)


def to_holofn(src: str, domain: Domain | None = None) -> HoloFn:
    """Parse and compile an expression string into a function evaluator."""
    node = parse(src)
    if domain is None:
        domain = REAL_LINE if "x" in variables(node) else UNIT_DISC
    fn = to_callable(node, real=domain.kind == "real")

    def wrapped(w):
        out = fn(w)
        return np.full(np.shape(w), out, dtype=complex) if np.ndim(out) == 0 else out

    return HoloFn(wrapped, domain, name=print_expr(node))
