"""Expression parsing for curves and integrands.

Grammar (whitespace-insensitive):

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := '-' factor | atom ('^' ['-'] INT)*
    atom   := INT | NAME | '(' expr ')'

'^' binds tighter than unary minus, also in an exponent, and associates
rightward: x^2^3 is x^8 and x^-2^2 is x^-4.

Names are maximal letter runs; only x, y and (over QQ(t)) t are defined.
Error positions are 0-based character offsets.  A binary operator with a
missing right operand reports the operator's own position.  Parentheses and
unary minus signs may nest at most MAX_NESTING deep, so that the recursive
descent stays far from the interpreter's recursion limit.  An exponent, the
value of a chain of them, and the power each name or literal is raised to
through the parenthesised groups around it may be at most MAX_EXPONENT in
size, so that a short input cannot run for minutes: (x^2)^50 is accepted,
(x^2)^51 is refused at its exponent.  An integer literal may be at most as
long as the interpreter converts to int (sys.get_int_max_str_digits(), 4300
digits by default).

The same parser serves both jobs, and both bind x, t and integer literals in
K(x).  Curves bind y in the ring K(x)[y], so a divisor or negative power with
y is refused: "curve must be polynomial in y".  Integrands bind y in the
function field of an already-built curve, which y-free subterms meet once.
A zero divisor raises DomainError: "division by zero" in a curve, "inversion
of zero" in an integrand, as the function field itself reports.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algfield import Curve
from .errors import DomainError, ExprSyntaxError, UnknownVariable
from .rings import (
    QQ,
    QT,
    Poly,
    PolyRing,
    RatFunc,
    common_denominator,
    gcd,
    x_frac_field,
)


MAX_NESTING = 100
MAX_EXPONENT = 100


@dataclass(frozen=True)
class Token:
    kind: str
    value: object
    pos: int


def tokenize(text):
    out = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if "0" <= ch <= "9":
            j = i
            while j < len(text) and "0" <= text[j] <= "9":
                j += 1
            try:
                value = int(text[i:j])
            except ValueError:
                raise ExprSyntaxError(
                    f"integer literal of {j - i} digits is too long", i
                )
            out.append(Token("int", value, i))
            i = j
            continue
        if ch.isalpha():
            j = i
            while j < len(text) and text[j].isalpha():
                j += 1
            out.append(Token("name", text[i:j], i))
            i = j
            continue
        if ch in "+-*/^":
            out.append(Token("op", ch, i))
            i += 1
            continue
        if ch == "(":
            out.append(Token("lparen", ch, i))
            i += 1
            continue
        if ch == ")":
            out.append(Token("rparen", ch, i))
            i += 1
            continue
        raise ExprSyntaxError(f"unexpected character {ch!r}", i)
    out.append(Token("end", None, len(text)))
    return out


def uses_t(text):
    """Whether the expression mentions the parameter t (lexical check)."""
    try:
        toks = tokenize(text)
    except ExprSyntaxError:
        return False
    return any(tok.kind == "name" and tok.value == "t" for tok in toks)


class _Parser:
    def __init__(self, tokens, names, from_int, zero_message):
        self.toks = tokens
        self.i = 0
        self.names = names
        self.from_int = from_int
        self.zero_message = zero_message
        self.depth = 0
        self.peak = 1

    def _peek(self):
        return self.toks[self.i]

    def _next(self):
        tok = self.toks[self.i]
        self.i += 1
        return tok

    def _descend(self, tok):
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ExprSyntaxError(
                f"expression nests deeper than {MAX_NESTING} levels", tok.pos
            )

    def _require_operand(self, op_tok):
        nxt = self._peek()
        if nxt.kind in ("end", "rparen") or (
            nxt.kind == "op" and nxt.value != "-"
        ):
            raise ExprSyntaxError(
                f"operator {op_tok.value!r} is missing its operand", op_tok.pos
            )

    def parse(self):
        value = self.expr()
        tok = self._peek()
        if tok.kind != "end":
            raise ExprSyntaxError(f"unexpected {tok.value!r}", tok.pos)
        return value

    def expr(self):
        value = self.term()
        while self._peek().kind == "op" and self._peek().value in "+-":
            op = self._next()
            self._require_operand(op)
            rhs = self.term()
            value = value + rhs if op.value == "+" else value - rhs
        return value

    def term(self):
        value = self.factor()
        while self._peek().kind == "op" and self._peek().value in "*/":
            op = self._next()
            self._require_operand(op)
            rhs = self.factor()
            if op.value == "*":
                value = value * rhs
            else:
                self._check_divisor(rhs)
                value = value / rhs
        return value

    def _check_divisor(self, value):
        if not value:
            raise DomainError(self.zero_message)
        # only a curve binds y in K(x)[y], a ring in which y has no inverse
        if isinstance(value, Poly):
            raise DomainError("curve must be polynomial in y")

    def factor(self):
        tok = self._peek()
        if tok.kind == "op" and tok.value == "-":
            self._next()
            self._require_operand(tok)
            self._descend(tok)
            value = -self.factor()
            self.depth -= 1
            return value
        # peak: the largest power a name in this group gets through its groups
        outer, self.peak = self.peak, 1
        value = self.atom()
        chain = []  # (sign, literal, position) of each exponent, left to right
        while self._peek().kind == "op" and self._peek().value == "^":
            op = self._next()
            sign = 1
            if self._peek().kind == "op" and self._peek().value == "-":
                self._next()
                sign = -1
            exp = self._peek()
            if exp.kind != "int":
                raise ExprSyntaxError(
                    "'^' requires an integer exponent", op.pos
                )
            if exp.value > MAX_EXPONENT:
                raise ExprSyntaxError(
                    f"exponent exceeds {MAX_EXPONENT}", exp.pos
                )
            self._next()
            chain.append((sign, exp.value, exp.pos))
        # '^' associates rightward; folding from the right keeps every
        # partial exponent within MAX_EXPONENT, so no power above 100^100
        power = 1
        for sign, base, pos in reversed(chain):
            if power < 0 and base != 1:
                raise ExprSyntaxError("'^' requires an integer exponent", pos)
            power = base ** abs(power)
            if power > MAX_EXPONENT:
                raise ExprSyntaxError(f"exponent exceeds {MAX_EXPONENT}", pos)
            power *= sign
        self.peak *= abs(power)
        if self.peak > MAX_EXPONENT:
            raise ExprSyntaxError(f"exponent exceeds {MAX_EXPONENT}", chain[0][2])
        self.peak = max(outer, self.peak)
        if power < 0:
            self._check_divisor(value)
        return value ** power if chain else value

    def atom(self):
        tok = self._next()
        if tok.kind == "int":
            return self.from_int(tok.value)
        if tok.kind == "name":
            try:
                return self.names[tok.value]
            except KeyError:
                raise UnknownVariable(tok.value, tok.pos)
        if tok.kind == "lparen":
            self._descend(tok)
            value = self.expr()
            self.depth -= 1
            closing = self._next()
            if closing.kind != "rparen":
                raise ExprSyntaxError("expected ')'", closing.pos)
            return value
        raise ExprSyntaxError("expected a value", tok.pos)


def parse_expression(text, names, from_int, zero_message="division by zero"):
    """Evaluate text over the given name bindings; any value type with
    field operators works.  A Poly may be a dividend but never a divisor."""
    return _Parser(tokenize(text), names, from_int, zero_message).parse()


def build_curve(text, const_field):
    """Parse a polynomial in x and y (coefficients may be rational in x)
    into a Curve.  x and t evaluate in K(x) and y in K(x)[y]; denominators
    are cleared and the K[x]-content removed, so the recorded leading
    coefficient is a polynomial."""
    xfrac = x_frac_field(const_field)
    yring = PolyRing(xfrac, "y")
    names = {"x": xfrac.gen, "y": yring.gen}
    if const_field == QT:
        names["t"] = xfrac.coerce(QT.gen)
    value = parse_expression(text, names, xfrac.from_int)
    if not isinstance(value, Poly) or value.degree < 1:
        raise DomainError("curve must involve y")
    _, (cleared,) = common_denominator([value.coeffs])
    content = None
    for p in cleared:
        if p:
            content = p if content is None else gcd(content, p)
    primitive = [xfrac.of(p.exact_div(content)) for p in cleared]
    return Curve(Poly(yring, tuple(primitive)), const_field)


def build_element(text, curve):
    """Parse an integrand over an existing curve into a field element."""
    xfrac = curve.xfrac
    names = {"x": xfrac.gen, "y": curve.gen()}
    if curve.field == QT:
        names["t"] = xfrac.coerce(QT.gen)
    value = parse_expression(text, names, xfrac.from_int, "inversion of zero")
    return curve.from_x(value) if isinstance(value, RatFunc) else value


def field_for(texts, force_t=False):
    """QQ(t) when any given expression mentions t (or when forced), else QQ."""
    if force_t or any(uses_t(s) for s in texts):
        return QT
    return QQ
