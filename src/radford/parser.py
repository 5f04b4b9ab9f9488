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

``parse`` enforces the input budget before anything is evaluated: at
most ``scalars.MAX_INPUT_DIGITS`` digits (``_digit_bound``) and
MAX_EXPR_DEPTH nested parentheses.  ``parse_element`` also bounds the
products the tree asks for in its context (``_expansion_bound``).
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from typing import NamedTuple

from .algebra import Element
from .errors import ExprSyntaxError, KernelError
from .scalars import MAX_INPUT_DIGITS

# Deepest parenthesis nesting; well inside the recursion limit.
MAX_EXPR_DEPTH = 100

# Most field coordinates the products of an expression may compute: the
# term pairs ``_expansion_bound`` counts, phi(m) coordinates each.  At
# m = 1020 a pair of dense coefficients costs about 2 ms.
MAX_EXPR_COORDS = 100_000


class Token(NamedTuple):
    kind: str  # NUM NAME OP END
    text: str
    line: int
    column: int


_NAMES = set("gxyiwz")
_OPS = set("+-*^()/")


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
        if ch.isdigit():
            start = i
            startcol = col
            while i < len(text) and text[i].isdigit():
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
    value: Fraction


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
        if self.cur.kind == "OP" and self.cur.text == ch:
            self.pos += 1
            return True
        return False

    def parse_expr(self):
        first = self.parse_term()
        rest = []
        while self.cur.kind == "OP" and self.cur.text in "+-":
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
            if tok.kind != "NUM":
                self._fail("expected a nonnegative integer exponent")
            self.pos += 1
            return Pow(atom, int(tok.text))
        return atom

    def parse_atom(self):
        tok = self.cur
        if tok.kind == "NUM":
            self.pos += 1
            numerator = int(tok.text)
            if self.eat_op("/"):
                dtok = self.cur
                if dtok.kind != "NUM":
                    self._fail("expected a positive integer denominator")
                self.pos += 1
                if int(dtok.text) == 0:
                    self._fail("zero denominator", dtok)
                return Num(Fraction(numerator, int(dtok.text)))
            return Num(Fraction(numerator))
        if tok.kind == "NAME":
            self.pos += 1
            return Atom(tok.text)
        if tok.kind == "OP" and tok.text == "(":
            self.pos += 1
            self.depth += 1
            if self.depth > MAX_EXPR_DEPTH:
                self._fail(f"more than {MAX_EXPR_DEPTH} nested parentheses")
            inner = self.parse_expr()
            if not self.eat_op(")"):
                self._fail("expected ')'")
            self.depth -= 1
            return inner
        if tok.kind == "END":
            self._fail("unexpected end of input")
        self._fail(f"unexpected {tok.text!r}")


def _digit_bound(node):
    """Length of p/q that a coefficient of ``node``'s value can reach.

    Up to a few digits per step: a sum or product of fractions has at
    most as many digits as its operands together, and a power multiplies
    them by its exponent.  A power of an atom weighs 1, like the atom: it
    is a monomial or a root of unity.
    """
    if isinstance(node, Expr):
        return sum(map(_digit_bound, (node.first, *(t for _, t in node.rest))))
    if isinstance(node, Term):
        return sum(map(_digit_bound, node.factors))
    if isinstance(node, Pow) and not isinstance(node.base, Atom):
        return node.exponent * _digit_bound(node.base)
    return len(str(node.value)) if isinstance(node, Num) else 1


def parse(text):
    """Parse expression text into a tree within the input budget.

    Raises ExprSyntaxError on bad syntax and KernelError past the budget.
    """
    parser = _Parser(_tokenize(text))
    expr = parser.parse_expr()
    if parser.cur.kind != "END":
        parser._fail(f"unexpected {parser.cur.text!r}")
    if _digit_bound(expr) > MAX_INPUT_DIGITS:
        raise KernelError(
            f"expression exceeds the input budget of {MAX_INPUT_DIGITS} digits")
    return expr


_EXPONENTS = {"y": (1, 0, 0), "x": (0, 1, 0), "g": (0, 0, 1)}


def _expansion_bound(node, n):
    """(bound, pairs): how large the value of ``node`` in H_n can get, and
    how many term pairs its products multiply on the way.

    bound = (terms, r, s, l) caps the term count and the exponents of y,
    x and g.  A product has at most the product of its factors' term
    counts, and no value more than the (r+1)(s+1)(l+1) <= n^3 monomials
    its exponents allow, so a scalar is one term however it is written.
    Products are taken in the order of ``evaluate`` and square-and-multiply.
    """
    pairs = 0

    def box(terms, r, s, l):
        return min(terms, (r + 1) * (s + 1) * (l + 1)), r, s, l

    def times(a, b):
        nonlocal pairs
        pairs += a[0] * b[0]
        return box(a[0] * b[0], *(min(n - 1, u + v) for u, v in zip(a[1:], b[1:])))

    def walk(node):
        if isinstance(node, Expr):
            parts = [walk(t) for t in (node.first, *(t for _, t in node.rest))]
            return box(sum(p[0] for p in parts),
                       *(max(p[k] for p in parts) for k in (1, 2, 3)))
        if isinstance(node, Term):
            return reduce(times, map(walk, node.factors), (1, 0, 0, 0))
        if isinstance(node, Pow):
            acc, base, k = (1, 0, 0, 0), walk(node.base), node.exponent
            while k:
                if k & 1:
                    acc = times(acc, base)
                k >>= 1
                if k:
                    base = times(base, base)
            return acc
        return (1, *_EXPONENTS.get(getattr(node, "name", None), (0, 0, 0)))

    bound = walk(node)
    return bound, pairs


def evaluate(node, ctx):
    """Evaluate a parse tree to an Element of H_n over the given context."""
    if isinstance(node, Expr):
        acc = evaluate(node.first, ctx)
        for sign, term in node.rest:
            v = evaluate(term, ctx)
            acc = acc + v if sign > 0 else acc - v
        return acc
    if isinstance(node, Term):
        acc = Element.one(ctx)
        for f in node.factors:
            acc = acc * evaluate(f, ctx)
        return -acc if node.negated else acc
    if isinstance(node, Pow):
        return evaluate(node.base, ctx) ** node.exponent
    if isinstance(node, Num):
        return Element.from_scalar(ctx, ctx.from_fraction(node.value))
    if isinstance(node, Atom):
        if node.name == "g":
            return Element.monomial(ctx, 0, 0, 1)
        if node.name == "x":
            return Element.monomial(ctx, 0, 1, 0)
        if node.name == "y":
            return Element.monomial(ctx, 1, 0, 0)
        if node.name == "i":
            return Element.from_scalar(ctx, ctx.i())
        if node.name == "w":
            return Element.from_scalar(ctx, ctx.omega())
        return Element.from_scalar(ctx, ctx.zeta())
    raise TypeError(f"not a parse node: {node!r}")


def parse_element(text, ctx):
    """Parse and evaluate, refusing first what expands past MAX_EXPR_COORDS."""
    tree = parse(text)
    coords = _expansion_bound(tree, ctx.n)[1] * ctx.degree
    if coords > MAX_EXPR_COORDS:
        raise KernelError(
            f"expression expands to {coords} field coordinates of products, "
            f"above the limit {MAX_EXPR_COORDS}")
    return evaluate(tree, ctx)


def parse_scalar(text, ctx):
    """Parse an expression that must evaluate to a multiple of 1."""
    e = parse_element(text, ctx)
    if e.is_zero:
        return ctx.zero
    terms = e.terms
    only = next(iter(terms))
    if len(terms) != 1 or only != (0, 0, 0):
        raise ExprSyntaxError("expression is not a scalar", 1, 1)
    return terms[only]


def format_scalar(c):
    """Power-basis rendering over 'z'; parseable by the grammar."""
    parts = []
    for k, f in enumerate(c.coords):
        if not f:
            continue
        mag = abs(f)
        if k == 0:
            body = str(mag)
        else:
            zpart = "z" if k == 1 else f"z^{k}"
            body = zpart if mag == 1 else f"{mag}*{zpart}"
        parts.append(("-" if f < 0 else "+", body))
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
