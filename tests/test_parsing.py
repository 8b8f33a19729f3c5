"""Parser and canonical printer: round trips, error positions, file loaders."""

from fractions import Fraction
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from endorank.errors import (
    CoefficientParseError,
    FieldConstructionError,
    PolySyntaxError,
    UnknownVariable,
)
from endorank.fields import GF2, GF3, GF4, GF9, QQ, FieldSpec
from endorank.mpoly import MultiPoly
from endorank.parsing import (
    _tokenize,
    dump_endomorphism,
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


def _tokens(text, line0, col0):
    try:
        return _tokenize(text, line0, col0)
    except PolySyntaxError as exc:
        return ("error", str(exc).split(" at line")[0], exc.line, exc.col)


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
    assert _tokens(text, line0, col0) == _reference_tokenize(text, line0, col0)


@pytest.mark.parametrize("text", ["x1²", "x²", "²", "x1 + ٣", "x_1", "_x1", "x1\t*\n\tx2", "3½"])
def test_tokenizer_matches_the_character_loop_on_non_ascii(text):
    assert _tokens(text, 2, 5) == _reference_tokenize(text, 2, 5)
