"""Expression language for the CLI.

Grammar (full EBNF shipped in docs/grammar.ebnf):

    expr     = term { ("+" | "-") term } ;
    term     = factor { "*" factor } ;
    factor   = "-" factor | power ;
    power    = atom [ "^" exponent ] ;
    exponent = [ "-" ] INT ;
    atom     = INT [ "/" INT ] | "i" | "t" | "q" | generator | "zeta"
             | "(" expr ")" ;
    generator = "a" | "b" | "c" | "d" | "s" ;

Juxtaposition is not multiplication; "*" is required.  Negative exponents
are only meaningful on t and q.  The letter q is eliminated at parse time
through q = -t^2, so no AST node ever carries it.

An expression tree is a tagged tuple; the first item names the node:

    ("num", value)          value: Fraction
    ("i",)                  the imaginary unit
    ("t", k)                t^k, k: int (q^n arrives as ("t", 2n), negated
                            for odd n)
    ("gen", name)           name: "a", "b", "c", "d" or "s"
    ("zeta",)               zeta
    ("add", left, right)    left + right
    ("sub", left, right)    left - right
    ("mul", left, right)    left * right
    ("neg", x)              -x
    ("pow", base, n)        base^n, n: int >= 0

Trees compare and hash as tuples, so equal trees are equal values.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Optional, Tuple

from .algebra import Element, zeta as zeta_element
from .scalars import Scalar


class ExprError(ValueError):
    """Lexical or syntax error, carrying the byte offset."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} at offset {pos}")
        self.pos = pos


# -- AST ---------------------------------------------------------------------

Expr = tuple   # a tagged tuple; the tags are listed in the module docstring

_WORDS = {"i", "t", "q", "a", "b", "c", "d", "s", "zeta"}


def _lex(text: str) -> List[Tuple[str, str, int]]:
    tokens = []
    pos = 0
    n = len(text)
    while pos < n:
        ch = text[pos]
        if ch.isspace():
            pos += 1
            continue
        if ch.isdigit():
            start = pos
            while pos < n and text[pos].isdigit():
                pos += 1
            tokens.append(("INT", text[start:pos], start))
            continue
        if ch.isalpha():
            start = pos
            while pos < n and text[pos].isalpha():
                pos += 1
            word = text[start:pos]
            if word not in _WORDS:
                raise ExprError(f"unknown symbol {word!r}", start)
            tokens.append(("WORD", word, start))
            continue
        if ch in "+-*^/()":
            tokens.append((ch, ch, pos))
            pos += 1
            continue
        raise ExprError(f"unexpected character {ch!r}", pos)
    tokens.append(("END", "", n))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _lex(text)
        self.k = 0

    def peek(self):
        return self.tokens[self.k]

    def next(self):
        tok = self.tokens[self.k]
        self.k += 1
        return tok

    def expect(self, kind: str):
        tok = self.next()
        if tok[0] != kind:
            raise ExprError(f"expected {kind!r}, found {tok[1]!r}", tok[2])
        return tok

    def parse(self) -> Expr:
        e = self.expr()
        tok = self.peek()
        if tok[0] != "END":
            raise ExprError(f"trailing input {tok[1]!r}", tok[2])
        return e

    def expr(self) -> Expr:
        e = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.next()[0]
            e = ("add" if op == "+" else "sub", e, self.term())
        return e

    def term(self) -> Expr:
        e = self.factor()
        while self.peek()[0] == "*":
            self.next()
            e = ("mul", e, self.factor())
        return e

    def factor(self) -> Expr:
        if self.peek()[0] == "-":
            self.next()
            return ("neg", self.factor())
        return self.power()

    def power(self) -> Expr:
        base, kind = self.atom()
        exp: Optional[int] = None
        if self.peek()[0] == "^":
            self.next()
            exp = self.exponent()
        if kind == "t":
            return ("t", exp if exp is not None else 1)
        if kind == "q":
            n = exp if exp is not None else 1
            node = ("t", 2 * n)
            return ("neg", node) if n % 2 else node
        if exp is None:
            return base
        if exp < 0:
            tok = self.peek()
            raise ExprError("negative exponents are only defined for t and q",
                            tok[2])
        return ("pow", base, exp)

    def exponent(self) -> int:
        sign = 1
        if self.peek()[0] == "-":
            self.next()
            sign = -1
        tok = self.expect("INT")
        return sign * int(tok[1])

    def atom(self) -> Tuple[Expr, str]:
        tok = self.next()
        kind, val, pos = tok
        if kind == "INT":
            if self.peek()[0] == "/":
                self.next()
                den = self.expect("INT")
                if int(den[1]) == 0:
                    raise ExprError("zero denominator", den[2])
                return ("num", Fraction(int(val), int(den[1]))), ""
            return ("num", Fraction(int(val))), ""
        if kind == "WORD":
            if val == "i":
                return ("i",), ""
            if val == "t":
                return ("t", 1), "t"
            if val == "q":
                return ("t", 2), "q"
            if val == "zeta":
                return ("zeta",), ""
            return ("gen", val), ""
        if kind == "(":
            e = self.expr()
            self.expect(")")
            return e, ""
        raise ExprError(f"unexpected token {val!r}", pos)


def parse(text: str) -> Expr:
    return _Parser(text).parse()


# -- printing ------------------------------------------------------------------

_PREC_ADD, _PREC_MUL, _PREC_NEG, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4, 5
_PREC = {"add": _PREC_ADD, "sub": _PREC_ADD, "mul": _PREC_MUL,
         "neg": _PREC_NEG, "pow": _PREC_POW}
_INFIX = {"add": " + ", "sub": " - ", "mul": "*"}


def _prec(e: Expr) -> int:
    tag = e[0]
    if tag in _PREC:
        return _PREC[tag]
    if tag == "num" and e[1].denominator != 1:
        return _PREC_POW  # fractions bind like powers (contain '/')
    if tag == "t" and e[1] != 1:
        return _PREC_POW
    return _PREC_ATOM


def _wrap(e: Expr, parent_prec: int) -> str:
    s = to_text(e)
    if _prec(e) < parent_prec:
        return f"({s})"
    return s


def to_text(e: Expr) -> str:
    tag = e[0]
    if tag in _INFIX:
        prec = _PREC[tag]
        return f"{_wrap(e[1], prec)}{_INFIX[tag]}{_wrap(e[2], prec + 1)}"
    if tag == "num":
        v = e[1]
        return str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"
    if tag == "i" or tag == "zeta":
        return tag
    if tag == "t":
        return "t" if e[1] == 1 else f"t^{e[1]}"
    if tag == "gen":
        return e[1]
    if tag == "neg":
        return f"-{_wrap(e[1], _PREC_NEG + 1)}"
    if tag == "pow":
        return f"{_wrap(e[1], _PREC_ATOM)}^{e[2]}"
    raise TypeError(f"not an expression: {e!r}")


# -- evaluation ------------------------------------------------------------------

def to_element(e: Expr, ring: str = "Asigma") -> Element:
    tag = e[0]
    if tag == "num":
        return Element.scalar(Scalar.from_rational(e[1]), ring)
    if tag == "i":
        return Element.scalar(Scalar.from_gauss(0, 1), ring)
    if tag == "t":
        return Element.scalar(Scalar.t_power(e[1]), ring)
    if tag == "gen":
        return Element.generator("sigma" if e[1] == "s" else e[1], ring)
    if tag == "zeta":
        if ring == "B":
            raise ValueError("zeta needs sigma: use ring Bsigma or Asigma")
        return zeta_element(ring)
    if tag == "add":
        return to_element(e[1], ring) + to_element(e[2], ring)
    if tag == "sub":
        return to_element(e[1], ring) - to_element(e[2], ring)
    if tag == "mul":
        return to_element(e[1], ring) * to_element(e[2], ring)
    if tag == "neg":
        return -to_element(e[1], ring)
    if tag == "pow":
        return to_element(e[1], ring) ** e[2]
    raise TypeError(f"not an expression: {e!r}")


def eval_text(text: str, ring: str = "Asigma") -> Element:
    return to_element(parse(text), ring)


def random_ast(rng, depth: int = 3) -> Expr:
    """Random expression tree for the round-trip property."""
    leaves = [
        lambda: ("num", Fraction(rng.randint(0, 9))),
        lambda: ("num", Fraction(rng.randint(1, 9), rng.randint(2, 9))),
        lambda: ("i",),
        lambda: ("t", rng.randint(-4, 4) or 1),
        lambda: ("gen", rng.choice("abcds")),
        lambda: ("zeta",),
    ]
    if depth <= 0:
        return rng.choice(leaves)()
    roll = rng.random()
    if roll < 0.25:
        return ("add", random_ast(rng, depth - 1), random_ast(rng, depth - 1))
    if roll < 0.45:
        return ("sub", random_ast(rng, depth - 1), random_ast(rng, depth - 1))
    if roll < 0.7:
        return ("mul", random_ast(rng, depth - 1), random_ast(rng, depth - 1))
    if roll < 0.8:
        return ("neg", random_ast(rng, depth - 1))
    if roll < 0.9:
        base = random_ast(rng, depth - 1)
        if base[0] == "t":
            # the parser folds t^k into one node, so a power of bare t
            # would not round-trip as a "pow" node
            base = ("gen", rng.choice("abcds"))
        return ("pow", base, rng.randint(0, 4))
    return rng.choice(leaves)()
