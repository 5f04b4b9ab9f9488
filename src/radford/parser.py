"""Expression grammar for elements of H_n, and deterministic printing.

Grammar (explicit '*', no juxtaposition; '^' binds tighter than '*',
'*' tighter than '+'/'-'; one unary '-' allowed at a term head):

    expr     := term (('+'|'-') term)*
    term     := ['-'] factor ('*' factor)*
    factor   := atom ('^' uint)?
    atom     := 'g' | 'x' | 'y' | 'i' | 'w' | 'z' | rational | '(' expr ')'
    rational := uint ('/' posint)?

'w' is the order-n root of unity zeta^(m/n), 'z' is zeta_m itself, 'i'
is zeta^(m/4).  Formatting sorts terms by (r, s, l) and prints scalars
in the power basis over 'z', so parse(format(e)) evaluates back to e.

``parse`` checks the input alone: at most ``scalars.MAX_INPUT_DIGITS``
digits in a number and MAX_EXPR_DEPTH nested parentheses.  The work
evaluation then does is counted, and under ``radford`` bounded, by the
meter of ``scalars`` (``MAX_WORK``).
"""

from __future__ import annotations

import operator
from functools import reduce
from math import gcd
from typing import NamedTuple

from .algebra import Element
from .errors import ExprSyntaxError, KernelError
from .scalars import MAX_INPUT_DIGITS, _power

# Deepest parenthesis nesting; well inside the recursion limit.
MAX_EXPR_DEPTH = 100


class Token(NamedTuple):
    tag: str  # NUM NAME OP END
    text: str
    line: int
    column: int


_NAMES = set("gxyiwz")
_OPS = set("+-*^()/")
# ASCII only: str.isdigit also holds for superscripts and other scripts' digits.
_DIGITS = set("0123456789")


def _tokenize(text):
    tokens = []
    line, col = 1, 1
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            col += 1
            i += 1
            continue
        if ch in _DIGITS:
            start = i
            startcol = col
            while i < len(text) and text[i] in _DIGITS:
                i += 1
                col += 1
            if i - start > MAX_INPUT_DIGITS:
                raise ExprSyntaxError(
                    f"number longer than {MAX_INPUT_DIGITS} digits", line, startcol)
            tokens.append(Token("NUM", text[start:i], line, startcol))
            continue
        if ch in _NAMES:
            tokens.append(Token("NAME", ch, line, col))
            i += 1
            col += 1
            continue
        if ch in _OPS:
            tokens.append(Token("OP", ch, line, col))
            i += 1
            col += 1
            continue
        raise ExprSyntaxError(f"unexpected character {ch!r}", line, col)
    tokens.append(Token("END", "", line, col))
    return tokens


# Parse tree nodes.
class Num(NamedTuple):
    """A rational literal p/q in lowest terms, q > 0."""

    numerator: int
    denominator: int


class Atom(NamedTuple):
    name: str


class Pow(NamedTuple):
    base: object
    exponent: int


class Term(NamedTuple):
    negated: bool
    factors: tuple


class Expr(NamedTuple):
    first: Term
    rest: tuple  # of (sign, Term) with sign in {+1, -1}


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0

    @property
    def cur(self):
        return self.tokens[self.pos]

    def _fail(self, message, tok=None):
        tok = tok or self.cur
        raise ExprSyntaxError(message, tok.line, tok.column)

    def eat_op(self, ch):
        if self.cur.tag == "OP" and self.cur.text == ch:
            self.pos += 1
            return True
        return False

    def parse_expr(self):
        first = self.parse_term()
        rest = []
        while self.cur.tag == "OP" and self.cur.text in "+-":
            sign = 1 if self.cur.text == "+" else -1
            self.pos += 1
            rest.append((sign, self.parse_term()))
        return Expr(first, tuple(rest))

    def parse_term(self):
        negated = self.eat_op("-")
        factors = [self.parse_factor()]
        while self.eat_op("*"):
            factors.append(self.parse_factor())
        return Term(negated, tuple(factors))

    def parse_factor(self):
        atom = self.parse_atom()
        if self.eat_op("^"):
            tok = self.cur
            if tok.tag != "NUM":
                self._fail("expected a nonnegative integer exponent")
            self.pos += 1
            return Pow(atom, int(tok.text))
        return atom

    def parse_atom(self):
        tok = self.cur
        if tok.tag == "NUM":
            self.pos += 1
            numerator = int(tok.text)
            if self.eat_op("/"):
                dtok = self.cur
                if dtok.tag != "NUM":
                    self._fail("expected a positive integer denominator")
                self.pos += 1
                denominator = int(dtok.text)
                if denominator == 0:
                    self._fail("zero denominator", dtok)
                g = gcd(numerator, denominator)
                return Num(numerator // g, denominator // g)
            return Num(numerator, 1)
        if tok.tag == "NAME":
            self.pos += 1
            return Atom(tok.text)
        if tok.tag == "OP" and tok.text == "(":
            self.pos += 1
            self.depth += 1
            if self.depth > MAX_EXPR_DEPTH:
                self._fail(f"more than {MAX_EXPR_DEPTH} nested parentheses")
            inner = self.parse_expr()
            if not self.eat_op(")"):
                self._fail("expected ')'")
            self.depth -= 1
            return inner
        if tok.tag == "END":
            self._fail("unexpected end of input")
        self._fail(f"unexpected {tok.text!r}")


def parse(text):
    """Parse expression text into a tree.

    Raises ExprSyntaxError on bad syntax, a number longer than
    ``scalars.MAX_INPUT_DIGITS`` digits or more than MAX_EXPR_DEPTH nested
    parentheses.
    """
    parser = _Parser(_tokenize(text))
    expr = parser.parse_expr()
    if parser.cur.tag != "END":
        parser._fail(f"unexpected {parser.cur.text!r}")
    return expr


_EXPONENTS = {"y": (1, 0, 0), "x": (0, 1, 0), "g": (0, 0, 1)}


def evaluate(node, ctx):
    """Evaluate a parse tree to an Element of H_n over the given context.

    A term is the product of its factors in order, with no product by 1; a
    power of a compound base is ``scalars._power``; a power of an atom is a
    monomial or a root of unity, built with no product.
    """

    def leaf(a, k):
        if isinstance(a, Num):
            return Element.from_scalar(ctx, ctx.from_fraction(a))
        if a.name not in _EXPONENTS:
            root = {"i": ctx.i, "w": ctx.omega, "z": ctx.zeta}[a.name]
            return Element.from_scalar(ctx, root(k))
        r, s, l = (k * e for e in _EXPONENTS[a.name])
        if max(r, s) >= ctx.n:
            return Element.zero(ctx)
        return Element.monomial(ctx, r, s, l % ctx.n)

    def walk(node):
        if isinstance(node, Expr):
            acc = Element.zero(ctx)
            for sign, term in ((1, node.first), *node.rest):
                value = reduce(operator.mul, map(walk, term.factors))
                acc = acc - value if term.negated != (sign < 0) else acc + value
            return acc
        if isinstance(node, Pow) and isinstance(node.base, Atom):
            return leaf(node.base, node.exponent)
        if isinstance(node, Pow):
            return _power(walk(node.base), node.exponent, operator.mul, Element.one(ctx))
        if isinstance(node, (Num, Atom)):
            return leaf(node, 1)
        raise TypeError(f"not a parse node: {node!r}")

    return walk(node)


def parse_element(text, ctx):
    """Parse and evaluate an expression."""
    return evaluate(parse(text), ctx)


def parse_product(texts, ctx):
    """The product of the expressions, in order, each parsed on its own so
    that a syntax error points into its text, and evaluated as the one tree
    "(A)*(B)"."""
    return evaluate(Expr(Term(False, tuple(map(parse, texts))), ()), ctx)


def parse_scalar(text, ctx):
    """Parse an expression that must evaluate to a multiple of 1."""
    return _scalar_of(text, parse_element(text, ctx))


def parse_scalars(texts, ctx):
    """``parse_scalar`` of each text; an error in one value names its
    1-based position."""
    trees = [_grid_value(k, parse, text) for k, text in enumerate(texts, 1)]
    return [_grid_value(k, _scalar_of, text, evaluate(tree, ctx))
            for k, (text, tree) in enumerate(zip(texts, trees), 1)]


def _grid_value(k, f, *args):
    """f(*args), any error it raises prefixed with grid position k."""
    try:
        return f(*args)
    except KernelError as exc:
        exc.args = (f"grid value {k}: {exc}",)
        raise


def _scalar_of(text, e):
    """c, for the value e = c 1 of H_n of expression ``text``."""
    if e.terms.keys() - {(0, 0, 0)}:
        raise KernelError(f"expression {text!r} is not a scalar")
    return e.terms.get((0, 0, 0), e.ctx.zero)


def format_scalar(c):
    """Power-basis rendering over 'z'; parseable by the grammar."""
    parts = []
    for k, text in enumerate(c.coord_texts()):
        if text == "0":
            continue
        mag = text.removeprefix("-")
        if k == 0:
            body = mag
        else:
            zpart = "z" if k == 1 else f"z^{k}"
            body = zpart if mag == "1" else f"{mag}*{zpart}"
        parts.append(("-" if text[0] == "-" else "+", body))
    if not parts:
        return "0"
    sign, body = parts[0]
    out = ("-" if sign == "-" else "") + body
    for sign, body in parts[1:]:
        out += f" {sign} {body}"
    return out


def _format_monomial(mono):
    pieces = []
    for name, k in (("y", mono.r), ("x", mono.s), ("g", mono.l)):
        if k == 1:
            pieces.append(name)
        elif k > 1:
            pieces.append(f"{name}^{k}")
    return "*".join(pieces)


def format_element(e):
    """Deterministic text form; parse(format(e)) evaluates to e."""
    if e.is_zero:
        return "0"
    pieces = []
    for mono, c in e.sorted_terms():
        mstr = _format_monomial(mono)
        if not mstr:
            pieces.append("1" if c == 1 else f"({format_scalar(c)})")
        elif c == 1:
            pieces.append(mstr)
        else:
            pieces.append(f"({format_scalar(c)})*{mstr}")
    return " + ".join(pieces)


def format_tensor(t):
    """Human-readable tensor rendering (not part of the grammar)."""
    if t.is_zero:
        return "0"
    pieces = []
    for (left, right), c in t.sorted_terms():
        ls = _format_monomial(left) or "1"
        rs = _format_monomial(right) or "1"
        if c == 1:
            pieces.append(f"({ls} ⊗ {rs})")
        else:
            pieces.append(f"({format_scalar(c)})*({ls} ⊗ {rs})")
    return " + ".join(pieces)
