"""Tiny expression grammar for vector fields, cocycle integrands, and symbols.

Accepted forms: float literals, the imaginary unit ``i``, the variable ``z``
(or ``x`` on the real line), ``+ - * /``, powers with integer exponents or
the real fractional exponents ``(1/3)`` and ``(2/3)``, ``exp(...)``, and the
disc automorphism helper ``mobius(a)``. Printing is fully parenthesized and
canonical, so parse(print(e)) reproduces the tree exactly.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

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
        if m.lastgroup == "num":
            out.append(("num", float(m.group("num"))))
        elif m.lastgroup == "ident":
            out.append(("ident", m.group("ident")))
        else:
            out.append(("op", m.group("op")))
        pos = m.end()
    out.append(("end", None))
    return out


class _Parser:
    def __init__(self, tokens):
        self.toks = tokens
        self.pos = 0

    def peek(self):
        return self.toks[self.pos]

    def next(self):
        tok = self.toks[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind, value=None):
        tok = self.next()
        if tok[0] != kind or (value is not None and tok[1] != value):
            raise ValueError(f"expected {value or kind}, got {tok[1]!r}")
        return tok

    def parse_expr(self):
        node = self.parse_term()
        while self.peek() == ("op", "+") or self.peek() == ("op", "-"):
            op = self.next()[1]
            node = BinOp(op, node, self.parse_term())
        return node

    def parse_term(self):
        node = self.parse_factor()
        while self.peek() == ("op", "*") or self.peek() == ("op", "/"):
            op = self.next()[1]
            node = BinOp(op, node, self.parse_factor())
        return node

    def parse_factor(self):
        if self.peek() == ("op", "-"):
            self.next()
            return Neg(self.parse_factor())
        return self.parse_power()

    def parse_power(self):
        base = self.parse_atom()
        if self.peek() == ("op", "^"):
            self.next()
            num, den = self.parse_exponent()
            return Pow(base, num, den)
        return base

    def parse_exponent(self):
        sign = 1
        if self.peek() == ("op", "("):
            self.next()
            if self.peek() == ("op", "-"):
                self.next()
                sign = -1
            kind, val = self.next()
            if kind != "num" or val != int(val):
                raise ValueError("exponent must be an integer or 1/3, 2/3")
            num = sign * int(val)
            if self.peek() == ("op", "/"):
                self.next()
                kind, den = self.next()
                if kind != "num" or den != 3 or num not in (1, 2):
                    raise ValueError("fractional exponents are limited to 1/3 and 2/3")
                self.expect("op", ")")
                return num, 3
            self.expect("op", ")")
            return num, 1
        if self.peek() == ("op", "-"):
            self.next()
            sign = -1
        kind, val = self.next()
        if kind != "num" or val != int(val):
            raise ValueError("exponent must be an integer or 1/3, 2/3")
        return sign * int(val), 1

    def parse_atom(self):
        kind, val = self.next()
        if kind == "num":
            return Num(val)
        if kind == "ident":
            if val == "i":
                return Imag()
            if val in ("z", "x"):
                return Var(val)
            if val == "exp":
                self.expect("op", "(")
                arg = self.parse_expr()
                self.expect("op", ")")
                return Exp(arg)
            if val == "mobius":
                self.expect("op", "(")
                arg = self.parse_expr()
                self.expect("op", ")")
                a = _const_fold(arg)
                if abs(a) >= 1:
                    raise ValueError("mobius parameter must lie in the open unit disc")
                return Mobius(a.real, a.imag)
            raise ValueError(f"unknown identifier {val!r}")
        if (kind, val) == ("op", "("):
            node = self.parse_expr()
            self.expect("op", ")")
            return node
        raise ValueError(f"unexpected token {val!r}")


def parse(src: str):
    parser = _Parser(_tokenize(src))
    node = parser.parse_expr()
    parser.expect("end")
    return node


def _const_fold(node) -> complex:
    if isinstance(node, Num):
        return complex(node.value)
    if isinstance(node, Imag):
        return 1j
    if isinstance(node, Neg):
        return -_const_fold(node.arg)
    if isinstance(node, BinOp):
        a, b = _const_fold(node.left), _const_fold(node.right)
        return {"+": a + b, "-": a - b, "*": a * b, "/": a / b}[node.op]
    if isinstance(node, Pow) and node.den == 1:
        return _const_fold(node.base) ** node.num
    raise ValueError("expected a constant expression")


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


def variables(node) -> set:
    if isinstance(node, Var):
        return {node.name}
    if isinstance(node, Neg):
        return variables(node.arg)
    if isinstance(node, BinOp):
        return variables(node.left) | variables(node.right)
    if isinstance(node, Pow):
        return variables(node.base)
    if isinstance(node, Exp):
        return variables(node.arg)
    return set()


def _has_cube_root(node) -> bool:
    if isinstance(node, Pow):
        return node.den == 3 or _has_cube_root(node.base)
    if isinstance(node, Neg):
        return _has_cube_root(node.arg)
    if isinstance(node, BinOp):
        return _has_cube_root(node.left) or _has_cube_root(node.right)
    if isinstance(node, Exp):
        return _has_cube_root(node.arg)
    return False


def to_callable(node, real: bool = False):
    """Compile to a numpy-vectorized evaluator of the single free variable."""
    vs = variables(node)
    if len(vs) > 1:
        raise ValueError(f"expression mixes variables {sorted(vs)}")
    kind, var = ("real", "x") if real else ("complex", "z")
    if vs - {var}:
        raise ValueError(f"{kind}-domain expressions use the variable {var}")
    if not real and _has_cube_root(node):
        raise ValueError("cube-root powers are only defined on the real line")

    def ev(n, w):
        if isinstance(n, Num):
            return n.value
        if isinstance(n, Imag):
            return 1j
        if isinstance(n, Var):
            return w
        if isinstance(n, Neg):
            return -ev(n.arg, w)
        if isinstance(n, BinOp):
            a, b = ev(n.left, w), ev(n.right, w)
            if n.op == "+":
                return a + b
            if n.op == "-":
                return a - b
            if n.op == "*":
                return a * b
            return a / b
        if isinstance(n, Pow):
            base = ev(n.base, w)
            if n.den == 1:
                return base ** n.num
            return np.cbrt(np.real(base)) ** n.num
        if isinstance(n, Exp):
            return np.exp(ev(n.arg, w))
        if isinstance(n, Mobius):
            a = complex(n.a_re, n.a_im)
            return (a - w) / (1.0 - np.conj(a) * w)
        raise TypeError(f"not an expression node: {n!r}")

    return lambda w: ev(node, w)


def to_holofn(src: str, domain: Domain | None = None) -> HoloFn:
    """Parse and compile an expression string into a function evaluator."""
    node = parse(src)
    if domain is None:
        domain = REAL_LINE if "x" in variables(node) else UNIT_DISC
    fn = to_callable(node, real=domain.kind == "real")

    def wrapped(w):
        out = fn(w)
        if np.ndim(out) == 0 and np.ndim(w) != 0:
            return np.full(np.shape(w), out, dtype=complex)
        return out

    return HoloFn(wrapped, domain, name=print_expr(node))
