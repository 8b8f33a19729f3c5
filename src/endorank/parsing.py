"""Text grammar and canonical printing.

Polynomials are written with + - * ^ and parentheses; variables are x1..xn,
t is the extension-field generator, and coefficients are rationals a/b over Q
or residues over finite fields.  Printing is canonical: terms in grevlex-
descending order, coefficients in lowest terms, so equal polynomials always
print to identical bytes.

Field headers:  field Q   |   field F 5   |   field F 2^2 mod t^2+t+1

Expanded text such as (-144)*x2^18*x3^9 is read a monomial at a time: the
tokenizer takes a run x_i^e*x_j^f*.. (no blanks inside, no '^' after it) as
one token, and a literal (c), (-c) or (a/b) as another.  The parser turns a
monomial token straight into a one-term polynomial with its packed key, with
no product or power per variable; the coefficient times the monomial stays
one product.  This folded reading is a fast path with one rule: where it
fails, parse_polynomial reads the same text again one character token at a
time, and that reading's polynomial or error stands.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Sequence

from .autgroup import SemiLinearAut
from .endo import Endomorphism
from .errors import (
    CoefficientParseError,
    EndoRankError,
    PolySyntaxError,
    UnknownVariable,
    cut,
    quote,
)
from .fields import FieldAutomorphism, FieldSpec, Raw
from .groebner import memoized
from .kronecker import KroneckerSystem
from .mpoly import GREVLEX, MultiPoly, _add_terms, degree_cap


# -- canonical printing -------------------------------------------------------


def _t_polynomial(cs: Sequence[int]) -> str:
    """Coefficients of 1, t, t^2, ... as compact text in descending powers:
    an extension element, or the monic modulus of a field header."""
    parts = []
    for d in range(len(cs) - 1, -1, -1):
        c = cs[d]
        if c == 0:
            continue
        if d == 0:
            parts.append(str(c))
        else:
            tpow = "t" if d == 1 else f"t^{d}"
            parts.append(tpow if c == 1 else f"{c}*{tpow}")
    return "+".join(parts) if parts else "0"


# Ints of at most this many bits have fewer than 640 digits, the least
# limit sys.set_int_max_str_digits accepts, so str() prints them.
_STR_BITS = 2000


def _decimal(n: int) -> str:
    """Exact decimal digits of n, however many: longer ints are split by a
    power of ten into halves that str() prints."""
    if n < 0:
        return "-" + _decimal(-n)
    if n.bit_length() <= _STR_BITS:
        return str(n)
    k = n.bit_length() * 3 // 20  # below half the digit count, so hi > 0
    hi, lo = divmod(n, 10**k)
    return _decimal(hi) + _decimal(lo).zfill(k)


def _rational(c: Fraction) -> str:
    if c.denominator == 1:
        return _decimal(c.numerator)
    return f"{_decimal(c.numerator)}/{_decimal(c.denominator)}"


def format_coefficient(spec: FieldSpec, raw: Raw) -> str:
    """Lowest-terms coefficient text.  Extension elements print as compact
    t-polynomials like t+1 (no spaces) so they embed in larger products."""
    if spec.kind == "Q":
        return _rational(raw)
    return _t_polynomial(spec.digits(raw))


def _format_monomial(m) -> str:
    parts = []
    for i, e in enumerate(m):
        if e == 0:
            continue
        name = f"x{i + 1}"
        parts.append(name if e == 1 else f"{name}^{e}")
    return "*".join(parts)


def format_poly(f: MultiPoly) -> str:
    """Canonical text: grevlex-descending terms, explicit * between factors.
    A negative rational is subtracted; a coefficient with a + in it is
    parenthesized unless it is the whole text."""
    if f.is_zero:
        return "0"
    spec = f.spec
    terms = f.tuple_terms()
    monos = sorted(terms, key=GREVLEX.key, reverse=True)
    out = []
    for m in monos:
        c = terms[m]
        neg = spec.kind == "Q" and c < 0
        cs = format_coefficient(spec, -c if neg else c)
        ms = _format_monomial(m)
        if "+" in cs and (ms or len(monos) > 1):
            cs = f"({cs})"
        body = cs if not ms else ms if cs == "1" else f"{cs}*{ms}"
        if out:
            out.append(" - " if neg else " + ")
        elif neg:
            out.append("-")
        out.append(body)
    return "".join(out)


# -- tokenizer ----------------------------------------------------------------

# One match per token: the blanks before it (\s is exactly str.isspace; a
# newline is a token of its own), then a folded token or a character token.
#
# A folded token is a run of character tokens that the parser reads whole:
# a monomial x_i^e*x_j^f*.. (no blanks, each name and exponent a whole
# character token, no '^' after it) or a literal (c), (-c) or (a/b).
# Character tokens are ASCII digits, a run of \w (exactly str.isalnum or
# '_'), any other single character, or nothing at the end.  Numbers are ASCII
# 0-9 only: str.isdigit also accepts digits such as '²', which int() rejects,
# and '٣', which int() reads as 3.  A name must start with a letter
# (str.isalpha), which no class expresses, so the tokenizer refuses a \w
# run that starts otherwise.
_ATOM = r"x[0-9]+(?!\w)(?:\^[0-9]+(?![0-9]))?"
_MONOMIAL = rf"{_ATOM}(?:\*{_ATOM})*(?!\s*\^)"
_LITERAL = r"\(-?[0-9]+(?:/[0-9]+)?\)"


def _token_pattern(monomial: str, literal: str) -> re.Pattern:
    return re.compile(
        rf"([^\S\n]*)(?:({monomial})|({literal})|([0-9]+|\w+|.|\Z))", re.DOTALL
    )


_TOKEN = _token_pattern(_MONOMIAL, _LITERAL)
_CHAR_TOKEN = _token_pattern("(?!)", "(?!)")  # folds nothing
_OPS = frozenset("+-*^()/")
_DIGITS = frozenset("0123456789")
_FOLDED = ("mono", "literal")


def _is_digits(text: str) -> bool:
    return text.isascii() and text.isdigit()


def _int(text: str, line: int | None, col: int | None = None) -> int:
    """ASCII digits as an int; more than int() reads is a syntax error."""
    try:
        return int(text)
    except ValueError:
        raise PolySyntaxError(
            f"number with {len(text)} digits is too long", line, col
        ) from None


def _tokenize(
    text: str, line0: int, col0: int, fold: bool = True
) -> list[tuple[str, str, int, int]]:
    """Tokens as (kind, text, line, column); kind is "int", "name", the
    operator itself (one of + - * ^ ( ) /), "end", or, unless fold is
    false, "mono" or "literal" for a folded token."""
    toks = []
    line, col = line0, col0
    for blanks, mono, literal, s in (_TOKEN if fold else _CHAR_TOKEN).findall(text):
        col += len(blanks)
        if mono or literal:
            s = mono or literal
            kind = "mono" if mono else "literal"
        elif not s:
            continue  # the end of the text
        elif s == "\n":
            line += 1
            col = 1
            continue
        elif s in _OPS:
            kind = s
        elif s[0] in _DIGITS:
            kind = "int"
        elif s[0].isalpha():
            kind = "name"
        else:
            raise PolySyntaxError(f"unexpected character {s[0]!r}", line, col)
        toks.append((kind, s, line, col))
        col += len(s)
    toks.append(("end", "", line, col))
    return toks


@memoized
def _atom(text: str) -> tuple[int, int]:
    """(0-based index, exponent) of x<i> or x<i>^<e>."""
    name, _, e = text.partition("^")
    return int(name[1:]) - 1, int(e) if e else 1


# -- recursive-descent parser ---------------------------------------------------

# The deepest nesting of '(' and unary '-' together that the parser reads.
# A level costs at most four frames, so this stays well below the
# interpreter's recursion limit.
MAX_NESTING = 100


class _Parser:
    """Recursive descent over the tokens.  An error quotes a token's text
    as it stands: parse_polynomial shows only the character reading's."""

    def __init__(self, toks, spec: FieldSpec, nvars: int, t_is_variable: bool):
        self.toks = toks
        self.pos = 0
        self.spec = spec
        self.nvars = nvars
        self.t_is_variable = t_is_variable
        self.depth = 0

    def nest(self, line: int, col: int) -> None:
        """Enter the '(' or unary '-' at line, col; refused past MAX_NESTING."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise PolySyntaxError(
                f"nesting of '(' and unary '-' deeper than {MAX_NESTING} levels", line, col
            )

    def peek(self) -> str:
        """The kind of the next token."""
        return self.toks[self.pos][0]

    def take(self) -> tuple[str, str, int, int]:
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def expect(self, kind: str) -> tuple[str, str, int, int]:
        t = self.take()
        if t[0] != kind:
            raise PolySyntaxError(
                f"expected {kind!r}, found {quote(t[1] or 'end of input')}", t[2], t[3]
            )
        return t

    def parse(self) -> MultiPoly:
        f = self.expr()
        t = self.take()
        if t[0] != "end":
            raise PolySyntaxError(f"trailing input {quote(t[1])}", t[2], t[3])
        return f

    def expr(self) -> MultiPoly:
        f = self.term()
        if self.peek() not in ("+", "-"):
            return f
        out = dict(f.terms)  # the running sum, one dict for every term
        while self.peek() in ("+", "-"):
            negate = self.take()[0] == "-"
            _add_terms(self.spec, out, self.term().terms.items(), negate)
        return MultiPoly(self.spec, self.nvars, out)

    def term(self) -> MultiPoly:
        f = self.factor()
        while self.peek() == "*":
            self.take()
            f = f * self.factor()
        return f

    def factor(self) -> MultiPoly:
        if self.peek() == "-":
            _, _, line, col = self.take()
            self.nest(line, col)
            f = -self.factor()
            self.depth -= 1
            return f
        f = self.primary()
        if self.peek() != "^":
            return f
        self.take()
        _, text, line, col = self.expect("int")
        return f ** _int(text, line, col)

    def primary(self) -> MultiPoly:
        kind, text, line, col = self.take()
        if kind in _FOLDED:
            return self.folded(kind, text)
        if kind == "int":
            value = _int(text, line, col)
            if self.peek() == "/":
                _, _, line, col = self.take()
                if self.spec.kind != "Q":
                    raise CoefficientParseError(
                        "fractional coefficients are only valid over Q", line, col
                    )
                _, den, line, col = self.expect("int")
                d = _int(den, line, col)
                if d == 0:
                    raise CoefficientParseError("zero denominator", line, col)
                return MultiPoly.constant(self.spec, self.nvars, Fraction(value, d))
            return MultiPoly.constant(self.spec, self.nvars, value)
        if kind == "name":
            return self.name_atom(text, line, col)
        if kind == "(":
            self.nest(line, col)
            f = self.expr()
            self.expect(")")
            self.depth -= 1
            return f
        raise PolySyntaxError(
            f"expected a term, found {quote(text or 'end of input')}", line, col
        )

    def folded(self, kind: str, text: str) -> MultiPoly:
        """The polynomial of a folded token.  It raises ValueError wherever
        the token's character tokens would raise, since a folded reading
        that succeeds stands."""
        spec, n = self.spec, self.nvars
        if kind == "literal":
            # its character tokens nest a '(' and, for (-c), a unary '-'
            if self.depth + 1 + (text[1] == "-") > MAX_NESTING:
                raise ValueError(f"{text} nests deeper than {MAX_NESTING} levels")
            num, _, den = text[1:-1].partition("/")
            if not den:
                c = spec.from_int_raw(int(num))
            elif spec.kind == "Q" and int(den):
                c = Fraction(int(num), int(den))
            else:
                raise ValueError(f"{text} over {spec.header()}")
            return MultiPoly(spec, n, {0: c} if c else {})
        # x_i^e*x_j^f*..: the exponents add up in their bytes.
        mono = degree = 0
        for i, e in map(_atom, text.split("*")):
            if not 0 <= i < n:
                raise ValueError(f"x{i + 1} is outside x1..x{n}")
            mono += e << (8 * i)
            degree += e
        if degree > degree_cap():
            raise ValueError(f"{text} is above the degree cap")
        return MultiPoly(spec, n, {mono + (degree << (8 * n)): spec.one_raw()})

    def name_atom(self, name: str, line: int, col: int) -> MultiPoly:
        if name == "t":
            if self.t_is_variable:
                return MultiPoly.variable(self.spec, self.nvars, 0)
            if self.spec.kind != "Fpk":
                raise UnknownVariable(
                    "t is only defined over an extension field", line, col
                )
            return MultiPoly.constant(self.spec, self.nvars, self.spec.generator())
        if name.startswith("x") and _is_digits(name[1:]) and not self.t_is_variable:
            idx = _int(name[1:], line, col)
            if not 1 <= idx <= self.nvars:
                raise UnknownVariable(
                    f"{cut(name)} is outside the declared variables x1..x{self.nvars}",
                    line,
                    col,
                )
            return MultiPoly.variable(self.spec, self.nvars, idx - 1)
        raise UnknownVariable(f"unknown name {quote(name)}", line, col)


def parse_polynomial(
    text: str, spec: FieldSpec, nvars: int, line0: int = 1, col0: int = 1
) -> MultiPoly:
    """Parse polynomial text that starts at line line0, column col0.  Where
    the folded reading fails, the character reading decides."""
    try:
        return _Parser(_tokenize(text, line0, col0), spec, nvars, False).parse()
    except (EndoRankError, ValueError):
        pass  # the folded reading's error is not shown
    toks = _tokenize(text, line0, col0, fold=False)
    return _Parser(toks, spec, nvars, False).parse()


def _parse_modulus_text(text: str, p: int, line0: int, col0: int) -> tuple[int, ...]:
    """Parse a univariate t-polynomial into ascending GF(p) coefficients."""
    base = FieldSpec.prime_field(p)
    f = _Parser(_tokenize(text, line0, col0, fold=False), base, 1, True).parse()
    deg = f.total_degree()
    if deg < 1:
        raise PolySyntaxError("modulus must be non-constant", line0, None)
    out = [0] * (deg + 1)
    for (e,), c in f.tuple_terms().items():
        out[e] = c
    return tuple(out)


# -- field headers --------------------------------------------------------------


def parse_field_header(line: str, lineno: int = 1) -> FieldSpec:
    parts = line.split()
    if not parts or parts[0] != "field":
        raise PolySyntaxError("expected a 'field ...' header", lineno)
    rest = parts[1:]
    if rest == ["Q"]:
        return FieldSpec.rationals()
    if not rest or rest[0] != "F":
        raise PolySyntaxError(f"unknown field kind {quote(' '.join(rest))}", lineno)
    if len(rest) == 2 and _is_digits(rest[1]):
        return FieldSpec.prime_field(_int(rest[1], lineno))
    if len(rest) >= 4 and rest[2] == "mod":
        pk = rest[1].split("^")
        if len(pk) != 2 or not _is_digits(pk[0]) or not _is_digits(pk[1]):
            raise PolySyntaxError(f"bad extension-field order {quote(rest[1])}", lineno)
        p, k = _int(pk[0], lineno), _int(pk[1], lineno)
        at = line.index("mod") + 3  # the first "mod" is rest[2]
        modulus = _parse_modulus_text(line[at:], p, lineno, at + 1)
        if len(modulus) - 1 != k:
            raise PolySyntaxError(
                f"modulus degree {len(modulus) - 1} != declared degree {k}", lineno
            )
        return FieldSpec.extension_field(p, k, modulus)
    raise PolySyntaxError(f"malformed field header {quote(line)}", lineno)


# -- structured input files -----------------------------------------------------
#
# Endomorphism file:          Kronecker-system file:      Automorphism file:
#   field F 2                   field Q                     field F 2^2 mod t^2+t+1
#   vars 2                      vars 2                      vars 2
#   x1 -> x1 + x1*x2            kron 2                      delta frob^1
#   x2 -> 0                     e 1 1                       x1 -> x2
#                               x1 -> ...                   x2 -> x1
#                               x2 -> ...
#                               e 1 2
#                               ...
#                               zero        (optional block)
#                               x1 -> 0
#                               x2 -> 0


def _content_lines(text: str) -> list[tuple[int, str]]:
    """(line number, text) of the lines not blank once their comment is cut.
    Leading blanks stay, so error columns count from the start of the line."""
    out = []
    for i, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if line:
            out.append((i, line))
    return out


def _parse_prelude(lines: list[tuple[int, str]]):
    if not lines:
        raise PolySyntaxError("empty input", 1)
    lineno, header = lines[0]
    spec = parse_field_header(header, lineno)
    if len(lines) < 2:
        raise PolySyntaxError("missing 'vars n' line", lineno)
    vline_no, vline = lines[1]
    parts = vline.split()
    if len(parts) != 2 or parts[0] != "vars" or not _is_digits(parts[1]):
        raise PolySyntaxError("expected 'vars n'", vline_no)
    nvars = _int(parts[1], vline_no)
    if nvars < 1:
        raise PolySyntaxError("vars must be at least 1", vline_no)
    return spec, nvars, lines[2:]


def _parse_image_block(lines, spec, nvars):
    if len(lines) < nvars:
        raise PolySyntaxError("truncated image block", lines[-1][0] if lines else 1)
    images = []
    for k, (lineno, line) in enumerate(lines[:nvars], start=1):
        if "->" not in line:
            raise PolySyntaxError("expected 'x<k> -> <polynomial>'", lineno)
        lhs, rhs = line.split("->", 1)
        if lhs.strip() != f"x{k}":
            raise PolySyntaxError(
                f"expected image of x{k}, found {quote(lhs.strip())}", lineno
            )
        # rhs starts just after the arrow, at column len(lhs) + 3.
        images.append(parse_polynomial(rhs, spec, nvars, lineno, len(lhs) + 3))
    return tuple(images), lines[nvars:]


def load_endomorphism(text: str):
    """Parse an endomorphism file into an Endomorphism."""
    spec, nvars, rest = _parse_prelude(_content_lines(text))
    images, rest = _parse_image_block(rest, spec, nvars)
    if rest:
        raise PolySyntaxError(f"unexpected trailing line {quote(rest[0][1])}", rest[0][0])
    return Endomorphism(spec, nvars, images)


@memoized
def load_kronecker_system(text: str):
    """Parse a Kronecker-system file into a KroneckerSystem.  Memoized by the
    whole text; a malformed text raises again on every call."""
    spec, nvars, rest = _parse_prelude(_content_lines(text))
    if not rest:
        raise PolySyntaxError("missing 'kron n' line", 1)
    lineno, line = rest[0]
    parts = line.split()
    if len(parts) != 2 or parts[0] != "kron" or not _is_digits(parts[1]):
        raise PolySyntaxError("expected 'kron n'", lineno)
    n = _int(parts[1], lineno)
    if n != nvars:
        raise PolySyntaxError(f"kron size {n} != vars {nvars}", lineno)
    rest = rest[1:]
    entries: dict[tuple[int, int], Endomorphism] = {}
    zero = None
    while rest:
        lineno, line = rest[0]
        parts = line.split()
        if parts[0] == "e":
            if len(parts) != 3 or not (_is_digits(parts[1]) and _is_digits(parts[2])):
                raise PolySyntaxError("expected 'e i j'", lineno)
            i, j = _int(parts[1], lineno), _int(parts[2], lineno)
            if not (1 <= i <= n and 1 <= j <= n):
                raise PolySyntaxError(f"entry label ({i},{j}) outside 1..{n}", lineno)
            images, rest = _parse_image_block(rest[1:], spec, nvars)
            entries[(i, j)] = Endomorphism(spec, nvars, images)
        elif parts[0] == "zero" and len(parts) == 1:
            images, rest = _parse_image_block(rest[1:], spec, nvars)
            zero = Endomorphism(spec, nvars, images)
        else:
            raise PolySyntaxError(f"unexpected line {quote(line)}", lineno)
    missing = [
        (i, j)
        for i in range(1, n + 1)
        for j in range(1, n + 1)
        if (i, j) not in entries
    ]
    if missing:
        raise PolySyntaxError(f"missing entries {missing}", 1)
    grid = tuple(
        tuple(entries[(i, j)] for j in range(1, n + 1)) for i in range(1, n + 1)
    )
    return KroneckerSystem(spec, n, grid, zero)


def load_automorphism(text: str):
    """Parse an automorphism file into a SemiLinearAut (inverse computed and
    certified here; a non-invertible map is a load error)."""
    spec, nvars, rest = _parse_prelude(_content_lines(text))
    if not rest:
        raise PolySyntaxError("missing 'delta ...' line", 1)
    lineno, line = rest[0]
    parts = line.split()
    if len(parts) != 2 or parts[0] != "delta":
        raise PolySyntaxError("expected 'delta identity' or 'delta frob^e'", lineno)
    if parts[1] == "identity":
        delta = FieldAutomorphism.identity(spec)
    elif parts[1].startswith("frob^") and _is_digits(parts[1][5:]):
        delta = FieldAutomorphism.frobenius(spec, _int(parts[1][5:], lineno))
    else:
        raise PolySyntaxError(f"unknown delta {quote(parts[1])}", lineno)
    images, rest = _parse_image_block(rest[1:], spec, nvars)
    if rest:
        raise PolySyntaxError(f"unexpected trailing line {quote(rest[0][1])}", rest[0][0])
    return SemiLinearAut.create(delta, images)
