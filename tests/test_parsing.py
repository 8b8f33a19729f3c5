"""Parser and canonical printer: round trips, error positions, file loaders."""

from fractions import Fraction
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from endorank.errors import (
    CoefficientParseError,
    EndoRankError,
    FieldConstructionError,
    PolySyntaxError,
    UnknownVariable,
)
from endorank.fields import GF2, GF3, GF4, GF9, QQ, FieldSpec
from endorank.mpoly import MultiPoly, set_degree_cap, degree_cap
from endorank.parsing import (
    _tokenize,
    _unfolded,
    dump_endomorphism,
    format_poly,
    format_field_header,
    load_automorphism,
    load_endomorphism,
    load_kronecker_system,
    parse_field_header,
    parse_polynomial,
)
from endorank.sampling import random_polynomial
from test_mpoly import ref_mul


def test_basic_expressions():
    assert parse_polynomial("x1 + 2*x2 - 3", QQ, 2) == parse_polynomial(
        "-3 + x2 + x2 + x1", QQ, 2
    )
    assert str(parse_polynomial("(x1 + 1)^2", QQ, 2)) == "x1^2 + 2*x1 + 1"
    assert str(parse_polynomial("- - x1", QQ, 2)) == "x1"
    assert str(parse_polynomial("2^3", QQ, 1)) == "8"
    assert str(parse_polynomial("1/2*x1 - 1/3", QQ, 1)) == "1/2*x1 - 1/3"
    assert parse_polynomial("0", GF3, 2).is_zero


def test_extension_field_generator_literal():
    f = parse_polynomial("t*x1 + (t+1)*x2", GF4, 2)
    assert str(f) == "t*x1 + (t+1)*x2"
    assert str(parse_polynomial("t^2", GF4, 1)) == "t+1"
    # same ideal expression over GF9, where t^2 = -1
    assert str(parse_polynomial("t^2 + 1", GF9, 1)) == "0"
    with pytest.raises(UnknownVariable):
        parse_polynomial("t", QQ, 2)
    with pytest.raises(UnknownVariable):
        parse_polynomial("t", GF3, 2)


def test_variable_bounds_and_names():
    with pytest.raises(UnknownVariable):
        parse_polynomial("x3", QQ, 2)
    with pytest.raises(UnknownVariable):
        parse_polynomial("x0", QQ, 2)
    with pytest.raises(UnknownVariable):
        parse_polynomial("y1", QQ, 2)


def test_fractions_only_over_q():
    with pytest.raises(CoefficientParseError):
        parse_polynomial("1/2*x1", GF3, 1)
    with pytest.raises(CoefficientParseError):
        parse_polynomial("1/0", QQ, 1)


def test_error_positions_are_reported():
    with pytest.raises(PolySyntaxError) as err:
        parse_polynomial("x1 + + x2", QQ, 2)
    assert "column" in str(err.value)
    with pytest.raises(PolySyntaxError):
        parse_polynomial("(x1", QQ, 2)
    with pytest.raises(PolySyntaxError):
        parse_polynomial("x1 ^ x2", QQ, 2)
    with pytest.raises(PolySyntaxError):
        parse_polynomial("", QQ, 2)
    with pytest.raises(PolySyntaxError):
        parse_polynomial("x1 x2", QQ, 2)


def test_print_parse_round_trip_seeded():
    rng = random.Random(101)
    for spec in (QQ, GF2, GF3, GF4, GF9):
        for _ in range(60):
            f = random_polynomial(rng, spec, 3, max_degree=4, max_terms=5)
            assert parse_polynomial(str(f), spec, 3) == f


def _coefficient(rng, spec):
    """A parenthesised coefficient as the corpora write it, and its raw."""
    if spec.kind == "Q":
        num, den = rng.randint(-40, 40), rng.choice((1, 1, 2, 3, 27))
        return f"({num}/{den})" if den > 1 else f"({num})", Fraction(num, den)
    if spec.kind == "Fpk" and rng.random() < 0.3:
        a, b = rng.randrange(spec.p), rng.randrange(1, spec.p)
        return f"({b}*t + {a})", spec.element((a, b)).raw
    c = rng.randint(-9, 9)
    return f"({c})", spec.from_int_raw(c)


def _expanded(rng, spec, n, depth=1):
    """Seeded text shaped like the benchmark's expanded polynomials, and the
    same polynomial built from terms and ref_mul, without the parser.
    Terms are (c)*x1^a*x2^b, bare monomials, (c)*(sum)^e and repeats of
    an earlier term with the other sign, each term with a sign."""
    one = MultiPoly.constant(spec, n, 1)
    pieces, items, done = [], [], []
    for k in range(rng.randint(1, 7)):
        roll = rng.random()
        if done and roll < 0.2:  # cancels an earlier term
            sign, text, value = rng.choice(done)
            sign = "+" if sign == "-" else "-"
        else:
            ctext, c = _coefficient(rng, spec)
            value = MultiPoly.from_terms(spec, n, [((0,) * n, c)])
            factors = [ctext]
            if depth and roll < 0.4:
                inner_text, inner = _expanded(rng, spec, n, depth - 1)
                e = rng.randint(0, 3)
                factors.append(f"({inner_text})^{e}")
                for _ in range(e):
                    value = ref_mul(value, inner)
            else:
                exps = tuple(rng.randint(0, 3 - depth) for _ in range(n))
                for i, a in enumerate(exps):
                    if a:
                        factors.append(f"x{i + 1}" if a == 1 else f"x{i + 1}^{a}")
                value = ref_mul(value, MultiPoly.from_terms(spec, n, [(exps, 1)]))
                if len(factors) > 1 and c == 1 and rng.random() < 0.5:
                    factors.pop(0)  # a bare monomial
            text = "*".join(factors)
            sign = rng.choice("+-") if k else rng.choice(("", "-"))
            done.append((sign, text, value))
        pieces.append(f" {sign} {text}" if k else f"{sign}{text}")
        for m, c in value.tuple_terms().items():
            items.append((m, spec.neg_raw(c) if sign == "-" else c))
    return "".join(pieces), MultiPoly.from_terms(spec, n, items)


@pytest.mark.parametrize("spec", [QQ, GF2, GF3, GF4, GF9], ids=lambda s: s.header())
def test_expanded_polynomials_match_a_reference(spec):
    rng = random.Random(17)
    for _ in range(40):
        n = rng.randint(1, 3)
        text, want = _expanded(rng, spec, n)
        assert parse_polynomial(text, spec, n) == want, text


def test_field_headers():
    for spec in (QQ, GF2, GF3, GF4, GF9, FieldSpec.prime_field(101)):
        assert parse_field_header(format_field_header(spec)) == spec
    assert parse_field_header("field F 2^2 mod t^2+t+1") == GF4
    with pytest.raises(PolySyntaxError):
        parse_field_header("field R")
    with pytest.raises(PolySyntaxError):
        parse_field_header("vars 2")
    with pytest.raises(FieldConstructionError):
        parse_field_header("field F 2^2 mod t^2+1")  # reducible modulus
    with pytest.raises(PolySyntaxError):
        parse_field_header("field F 2^3 mod t^2+t+1")  # degree mismatch


def test_load_endomorphism_with_comments():
    text = """
    # comment lines and blanks are skipped
    field F 3
    vars 2

    x1 -> x1^2 + 2*x2   # trailing comment
    x2 -> 0
    """
    endo = load_endomorphism(text)
    assert endo.spec == GF3
    assert str(endo.images[0]) == "x1^2 + 2*x2"
    assert endo.images[1].is_zero


def test_load_endomorphism_errors():
    with pytest.raises(PolySyntaxError):
        load_endomorphism("field Q\nvars 2\nx1 -> x1\n")  # missing x2
    with pytest.raises(PolySyntaxError):
        load_endomorphism("field Q\nvars 1\nx2 -> x1\n")  # wrong index
    with pytest.raises(PolySyntaxError):
        load_endomorphism("vars 1\nx1 -> x1\n")  # no header
    with pytest.raises(PolySyntaxError):
        load_endomorphism("field Q\nvars 1\nx1 -> x1\nx1 -> x1\n")  # extra


def test_dump_round_trip():
    endo = load_endomorphism("field F 2^2 mod t^2+t+1\nvars 2\nx1 -> t*x2\nx2 -> x1 + t\n")
    again = load_endomorphism(dump_endomorphism(endo))
    assert again == endo


def test_load_kronecker_system():
    text = """
    field Q
    vars 2
    kron 2
    e 1 1
    x1 -> x1
    x2 -> 0
    e 1 2
    x1 -> 0
    x2 -> x1
    e 2 1
    x1 -> x2
    x2 -> 0
    e 2 2
    x1 -> 0
    x2 -> x2
    zero
    x1 -> 0
    x2 -> 0
    """
    system = load_kronecker_system(text)
    assert system.n == 2
    assert system.zero is not None
    assert str(system.entry(2, 1)) == "x1 -> x2; x2 -> 0"


def test_load_kronecker_errors():
    head = "field Q\nvars 2\nkron 2\n"
    block = "e 1 1\nx1 -> x1\nx2 -> 0\n"
    with pytest.raises(PolySyntaxError):
        load_kronecker_system(head + block)  # missing entries
    with pytest.raises(PolySyntaxError):
        load_kronecker_system("field Q\nvars 2\nkron 3\n" + block)
    with pytest.raises(PolySyntaxError):
        load_kronecker_system(head + "e 0 1\nx1 -> x1\nx2 -> 0\n")


def test_load_kronecker_raises_on_every_call():
    # The loader is memoized by the text; an error is never stored.
    bad = "field Q\nvars 2\nkron 2\ne 1 1\nx1 -> x1 +\nx2 -> 0\n"
    for _ in range(2):
        with pytest.raises(PolySyntaxError):
            load_kronecker_system(bad)


def test_load_automorphism():
    aut = load_automorphism(
        "field Q\nvars 2\ndelta identity\nx1 -> x1 + x2^2\nx2 -> x2\n"
    )
    assert aut.is_inner
    assert [str(f) for f in aut.s_inv] == ["-x2^2 + x1", "x2"]
    frob = load_automorphism(
        "field F 2^2 mod t^2+t+1\nvars 1\ndelta frob^1\nx1 -> x1\n"
    )
    assert not frob.is_inner
    with pytest.raises(PolySyntaxError):
        load_automorphism("field Q\nvars 1\nx1 -> x1\n")
    from endorank.errors import NotABase

    with pytest.raises(NotABase):
        load_automorphism("field Q\nvars 2\ndelta identity\nx1 -> x1^2\nx2 -> x2\n")


# -- the tokenizer against the character loop it replaced ------------------------


def _reference_tokenize(text, line0, col0):
    """The tokenizer as a loop over characters, kept as the reference for the
    compiled expression: (kind, text, line, col) per token, or the error's
    (message, line, col)."""
    toks = []
    line, col = line0, col0
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            i += 1
            col += 1
            continue
        if ch in "0123456789":
            j = i
            while j < len(text) and text[j] in "0123456789":
                j += 1
            toks.append(("int", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha():
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(("name", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch in "+-*^()/":
            toks.append((ch, ch, line, col))
            i += 1
            col += 1
            continue
        return ("error", f"unexpected character {ch!r}", line, col)
    toks.append(("end", "", line, col))
    return toks


def _tokens(text, line0, col0, fold=True):
    """The tokens of _tokenize, each folded token expanded into its
    character tokens, or the error's (message, line, col)."""
    try:
        toks = _tokenize(text, line0, col0, fold)
    except PolySyntaxError as exc:
        return ("error", str(exc).split(" at line")[0], exc.line, exc.col)
    return [c for tok in toks for c in _unfolded(tok)]


# Digits that are not ASCII ('²' is a digit but no letter, '٣' a decimal,
# '½' numeric), letters beyond ASCII, and every kind of whitespace.
_TOKEN_TEXT = st.text(
    alphabet=st.sampled_from(
        list("x1t09+-*^()/_ ") + ["\t", "\n", "\r", "\x0b", "\xa0", "\u2028",
                                  "²", "٣", "½", "é", "Ω", "#", "."]
    ),
    max_size=30,
)


@settings(max_examples=500, derandomize=True, deadline=None)
@given(_TOKEN_TEXT, st.integers(1, 3), st.integers(1, 9))
def test_tokenizer_matches_the_character_loop(text, line0, col0):
    want = _reference_tokenize(text, line0, col0)
    assert _tokens(text, line0, col0) == want
    assert _tokens(text, line0, col0, fold=False) == want


@pytest.mark.parametrize("text", ["x1²", "x²", "²", "x1 + ٣", "x_1", "_x1", "x1\t*\n\tx2", "3½"])
def test_tokenizer_matches_the_character_loop_on_non_ascii(text):
    assert _tokens(text, 2, 5) == _reference_tokenize(text, 2, 5)


# -- the parser against the recursive descent over character tokens ------------------


def _ref_int(text, line, col):
    try:
        return int(text)
    except ValueError:
        raise PolySyntaxError(f"number with {len(text)} digits is too long", line, col) from None


class _ReferenceParser:
    """The parser as it was before monomials and literals were folded into
    one token each: every variable, power and product is its own call."""

    def __init__(self, toks, spec, nvars):
        if toks[0] == "error":
            raise PolySyntaxError(*toks[1:])
        self.toks, self.pos, self.spec, self.nvars = toks, 0, spec, nvars

    def peek(self):
        return self.toks[self.pos][0]

    def take(self):
        self.pos += 1
        return self.toks[self.pos - 1]

    def expect(self, kind):
        t = self.take()
        if t[0] != kind:
            raise PolySyntaxError(f"expected {kind!r}, found {t[1] or 'end of input'!r}", t[2], t[3])
        return t

    def parse(self):
        f = self.expr()
        kind, text, line, col = self.take()
        if kind != "end":
            raise PolySyntaxError(f"trailing input {text!r}", line, col)
        return f

    def expr(self):
        f = self.term()
        while self.peek() in ("+", "-"):
            f = f - self.term() if self.take()[0] == "-" else f + self.term()
        return f

    def term(self):
        f = self.factor()
        while self.peek() == "*":
            self.take()
            f = f * self.factor()
        return f

    def factor(self):
        if self.peek() == "-":
            self.take()
            return -self.factor()
        f = self.primary()
        if self.peek() != "^":
            return f
        self.take()
        _, text, line, col = self.expect("int")
        return f ** _ref_int(text, line, col)

    def primary(self):
        kind, text, line, col = self.take()
        spec, n = self.spec, self.nvars
        if kind == "int":
            value = _ref_int(text, line, col)
            if self.peek() == "/":
                _, _, line, col = self.take()
                if spec.kind != "Q":
                    raise CoefficientParseError(
                        "fractional coefficients are only valid over Q", line, col
                    )
                _, den, line, col = self.expect("int")
                d = _ref_int(den, line, col)
                if d == 0:
                    raise CoefficientParseError("zero denominator", line, col)
                return MultiPoly.constant(spec, n, Fraction(value, d))
            return MultiPoly.constant(spec, n, value)
        if kind == "name":
            if text == "t":
                if spec.kind != "Fpk":
                    raise UnknownVariable("t is only defined over an extension field", line, col)
                return MultiPoly.constant(spec, n, spec.generator())
            if text.startswith("x") and text[1:].isascii() and text[1:].isdigit():
                idx = _ref_int(text[1:], line, col)
                if not 1 <= idx <= n:
                    raise UnknownVariable(
                        f"{text} is outside the declared variables x1..x{n}", line, col
                    )
                return MultiPoly.variable(spec, n, idx - 1)
            raise UnknownVariable(f"unknown name {text!r}", line, col)
        if kind == "(":
            f = self.expr()
            self.expect(")")
            return f
        raise PolySyntaxError(f"expected a term, found {text or 'end of input'!r}", line, col)


def _parsed(parse):
    """A polynomial with the type of each coefficient, or the error's class,
    message, line and column."""
    try:
        f = parse()
    except EndoRankError as exc:
        return type(exc), str(exc), getattr(exc, "line", None), getattr(exc, "col", None)
    return f, sorted((P, type(c), c) for P, c in f.terms.items())


def _both(text, spec=QQ, n=3, line0=1, col0=1):
    got = _parsed(lambda: parse_polynomial(text, spec, n, line0, col0))
    toks = _reference_tokenize(text, line0, col0)
    want = _parsed(lambda: _ReferenceParser(toks, spec, n).parse())
    return got, want


@settings(max_examples=500, derandomize=True, deadline=None)
@given(_TOKEN_TEXT, st.integers(1, 3), st.integers(1, 9))
def test_parser_matches_the_character_parser(text, line0, col0):
    got, want = _both(text, QQ, 3, line0, col0)
    assert got == want


_MONOMIAL_PIECES = st.sampled_from(
    ["x1", "x2", "x3", "x4", "x0", "x01", "x12", "x1a", "^", "^", "0", "2", "3", "20",
     "40", "64", "65", "127", "128", "*", "*", " * ", "+", " - ", "-", "(", ")", "(3)",
     "(-2)", "(1/2)", "(-4/6)", "(3/0)", "(0)", "(-0)", "t", "/", " ", "\n", "\t",
     "x1^20*x2^30", "x1^2*x3", "x2^40*x3^30"]
)


@settings(max_examples=500, derandomize=True, deadline=None)
@given(
    st.lists(_MONOMIAL_PIECES, max_size=14).map("".join),
    st.sampled_from([QQ, GF2, FieldSpec.prime_field(5), GF4]),
    st.integers(1, 3),
)
def test_parser_matches_the_character_parser_on_monomials(text, spec, n):
    got, want = _both(text, spec, n, 2, 4)
    assert got == want


_LONG = "1" * 5000  # longer than int() reads on Python 3.11 and later


@pytest.mark.parametrize(
    "text, spec, n",
    [
        ("x1^0", QQ, 3), ("x1^0*x2^0", GF4, 3), ("x1^127*x2", QQ, 3), ("x1^128", QQ, 3),
        ("x1^65", QQ, 3), ("x1^64", QQ, 3), ("x1^40*x2^25", QQ, 3), ("x01", QQ, 3),
        ("x4", QQ, 3), ("x1*x4", QQ, 3), ("x1^2^3", QQ, 3), ("x1*x2^2^3", QQ, 3),
        ("x1*x2 ^ 3", QQ, 3), ("x1*x2\n^3", QQ, 3), ("x1\t*\n\tx2", QQ, 3),
        ("(3/0)*x1", QQ, 3), ("(1/2)*x1", FieldSpec.prime_field(5), 3), ("(-3)*x1", GF9, 2),
        ("(-3)^2", QQ, 1), ("x1^(3)", QQ, 1), ("2/(3)", QQ, 1), ("x1 (3)", QQ, 1),
        ("(x1 x2*x3)", QQ, 3), ("2^x1*x2", QQ, 3), ("x1^2a", QQ, 3), ("x12", QQ, 12),
        # a monomial that passes the cap alone but not times the product before it
        ("(x1+1)*x1^30*x2^30*x3^4", QQ, 3), ("x1^50*(x1+1)*x2^20*x3^10", QQ, 3),
        ("x1^40 * -x2^20*x3^10", QQ, 3), ("x1^60*x2^3*x3^5", QQ, 3),
        (f"x1^{_LONG}", QQ, 1), (f"x{_LONG}", QQ, 1), (f"({_LONG})", QQ, 1),
        (f"(1/{_LONG})*x1", QQ, 1), (f"x1^0{_LONG[:3]}", QQ, 1),
    ],
)
def test_parser_matches_the_character_parser_on_edge_cases(text, spec, n):
    got, want = _both(text, spec, n, 3, 7)
    assert got == want


def test_parser_follows_a_lowered_degree_cap():
    old = degree_cap()
    set_degree_cap(5)
    try:
        for text in ("x1^3*x2^2", "x1^3*x2^3", "x1^2*(x1+1)*x2^2*x3", "x1^6"):
            got, want = _both(text)
            assert got == want, text
    finally:
        set_degree_cap(old)


def _corpus_text(f):
    """f written as the benchmark writes expanded maps: (c)*x1^a*x2^b."""
    pieces = []
    for P, c in f.terms.items():
        mono = format_poly(MultiPoly(f.spec, f.nvars, {P: f.spec.one_raw()}))
        coeff = format_poly(MultiPoly(f.spec, f.nvars, {0: c}))
        pieces.append(f"({coeff})" if mono == "1" else f"({coeff})*{mono}")
    return " + ".join(pieces) or "0"


@pytest.mark.parametrize(
    "spec", [QQ, GF2, GF3, FieldSpec.prime_field(5), GF4, GF9], ids=lambda s: s.header()
)
def test_printed_and_corpus_text_parse_back(spec):
    rng = random.Random(303)
    for _ in range(40):
        n = rng.randint(1, 4)
        f = random_polynomial(rng, spec, n, max_degree=12, max_terms=12)
        assert parse_polynomial(format_poly(f), spec, n) == f
        assert parse_polynomial(_corpus_text(f), spec, n) == f
