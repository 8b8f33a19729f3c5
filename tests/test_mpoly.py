"""Sparse polynomial arithmetic, monomial orders, substitution, the cap."""

from fractions import Fraction
import random

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from endorank.errors import (
    ArityMismatch,
    CoefficientGrowthExceeded,
    DegreeCapExceeded,
    SpecMismatch,
)
from endorank.fields import GF2, GF3, GF4, GF9, QQ, FieldElement
from endorank.mpoly import (
    GREVLEX,
    WEIGHT_BASE,
    Block,
    MonomialOrder,
    MultiPoly,
    degree_cap,
    set_degree_cap,
)
from endorank.parsing import parse_polynomial
from endorank.sampling import random_monomial, random_polynomial
from test_fields import GF8


class Lex(MonomialOrder):
    """Pure lexicographic order, x1 > x2 > ...: the tests' order in which a
    tail may rise above its lead's degree."""

    name = "lex"

    def weights(self, nvars):
        return tuple(WEIGHT_BASE ** (nvars - 1 - i) for i in range(nvars))


LEX = Lex()


def p(text, spec=QQ, n=2):
    return parse_polynomial(text, spec, n)


def test_construction_canonicalizes():
    f = MultiPoly.from_terms(QQ, 2, [((1, 0), Fraction(1)), ((1, 0), Fraction(-1))])
    assert f.is_zero
    assert MultiPoly.constant(QQ, 2, 0).is_zero
    x1 = MultiPoly.variable(QQ, 2, 0)
    assert x1.total_degree() == 1
    assert MultiPoly.zero(QQ, 2).total_degree() == -1


def test_arity_is_checked():
    with pytest.raises(ArityMismatch):
        MultiPoly.from_terms(QQ, 2, [((1, 0, 0), Fraction(1))])
    with pytest.raises(SpecMismatch):
        p("x1") + p("x1", GF2)


def test_basic_identities():
    f = p("x1^2 - x2")
    g = p("x1 + x2")
    assert (f + g) - g == f
    assert f * MultiPoly.zero(QQ, 2) == MultiPoly.zero(QQ, 2)
    assert f * MultiPoly.constant(QQ, 2, 1) == f
    assert (f + (-f)).is_zero
    assert (g * g) == p("x1^2 + 2*x1*x2 + x2^2")
    assert g ** 3 == p("x1^3 + 3*x1^2*x2 + 3*x1*x2^2 + x2^3")


def test_char_2_squaring_is_linear():
    g = p("x1 + x2", GF2)
    assert g * g == p("x1^2 + x2^2", GF2)
    assert g ** 4 == p("x1^4 + x2^4", GF2)


def test_ring_laws_seeded():
    rng = random.Random(23)
    for spec in (QQ, GF3, GF4):
        for _ in range(40):
            f = random_polynomial(rng, spec, 2, max_degree=3, max_terms=3)
            g = random_polynomial(rng, spec, 2, max_degree=3, max_terms=3)
            h = random_polynomial(rng, spec, 2, max_degree=2, max_terms=2)
            assert f * g == g * f
            assert f * (g + h) == f * g + f * h
            assert (f * g) * h == f * (g * h)


def test_grevlex_versus_lex():
    f = p("x1 + x2^2")
    assert f.leading_monomial(GREVLEX) == (0, 2)  # degree wins
    assert f.leading_monomial(LEX) == (1, 0)  # x1 wins
    g = p("x1^2*x2 + x1*x2^2")
    assert g.leading_monomial(GREVLEX) == (2, 1)
    # grevlex tie break: in two variables grevlex and graded-lex agree
    h = p("x1*x2 + x2^2")
    assert h.leading_monomial(GREVLEX) == (1, 1)


def test_block_order_eliminates_first():
    order = Block(frozenset({0}))
    f = p("x1 + x2^5")
    # anything containing an eliminated variable outranks anything that doesn't
    assert f.leading_monomial(order) == (1, 0)
    assert p("x1*x2 + x2^3", spec=QQ).leading_monomial(order) == (1, 1)


def test_leading_data_errors_on_zero():
    with pytest.raises(ValueError):
        MultiPoly.zero(QQ, 2).leading_monomial(GREVLEX)


def test_constant_term_and_degree_one_part():
    f = p("3 + 2*x1 - x2 + x1*x2")
    assert f.constant_term() == QQ.element(3)
    assert f.degree_one_part() == p("2*x1 - x2")
    assert f.coefficient((1, 1)) == QQ.element(1)


def test_evaluate():
    f = p("x1^2*x2 - 3")
    v = f.evaluate((QQ.element(2), QQ.element(5)))
    assert v == QQ.element(17)
    g = p("x1^2 + x2", GF3)
    assert g.evaluate((GF3.element(2), GF3.element(2))) == GF3.element(0)


def test_substitute_same_arity():
    f = p("x1^2 + x2")
    images = (p("x2"), p("x1*x2"))
    assert f.substitute(images) == p("x2^2 + x1*x2")


def test_substitute_changes_arity():
    f = p("x1*x2")
    images = (
        parse_polynomial("x1", QQ, 3),
        parse_polynomial("x2 + x3", QQ, 3),
    )
    assert f.substitute(images) == parse_polynomial("x1*x2 + x1*x3", QQ, 3)
    down = f.substitute(
        (parse_polynomial("x1", QQ, 1), parse_polynomial("x1^2", QQ, 1))
    )
    assert down == parse_polynomial("x1^3", QQ, 1)


def test_substitution_is_a_homomorphism_seeded():
    rng = random.Random(5)
    for spec in (GF2, GF9):
        images = tuple(
            random_polynomial(rng, spec, 2, max_degree=2, max_terms=2)
            for _ in range(2)
        )
        for _ in range(25):
            f = random_polynomial(rng, spec, 2, max_degree=2, max_terms=3)
            g = random_polynomial(rng, spec, 2, max_degree=2, max_terms=3)
            assert (f + g).substitute(images) == f.substitute(
                images
            ) + g.substitute(images)
            assert (f * g).substitute(images) == f.substitute(
                images
            ) * g.substitute(images)


def test_partial_derivative():
    f = p("x1^3*x2 + x2^2 + 7")
    assert f.partial_derivative(0) == p("3*x1^2*x2")
    assert f.partial_derivative(1) == p("x1^3 + 2*x2")
    # d/dx of x^p vanishes in characteristic p
    g = p("x1^2 + x1", GF2)
    assert g.partial_derivative(0) == p("1", GF2)
    h = p("x1^3", GF3)
    assert h.partial_derivative(0).is_zero


def test_degree_cap_blocks_blowup():
    assert degree_cap() == 64
    f = p("x1 + x2")
    with pytest.raises(DegreeCapExceeded):
        f ** (degree_cap() + 1)
    set_degree_cap(8)
    try:
        with pytest.raises(DegreeCapExceeded):
            f ** 9
        assert (f ** 8).total_degree() == 8
    finally:
        set_degree_cap(64)


def test_monomials_above_the_packed_limit_are_refused():
    with pytest.raises(DegreeCapExceeded, match="monomial degree 128 exceeds the limit of 127"):
        MultiPoly.from_terms(QQ, 2, [((100, 28), Fraction(1))])
    assert MultiPoly.from_terms(QQ, 2, [((100, 27), Fraction(1))]).total_degree() == 127
    for cap in (0, 128):
        with pytest.raises(ValueError, match=r"1\.\.127"):
            set_degree_cap(cap)
    assert degree_cap() == 64
    set_degree_cap(127)
    try:
        top = p("x1^127")
        assert top.leading_monomial(GREVLEX) == (127, 0)
        assert top.partial_derivative(0) == p("127*x1^126")
        with pytest.raises(DegreeCapExceeded, match="product degree 128 exceeds cap 127"):
            p("x1^127*x2")
        with pytest.raises(DegreeCapExceeded, match="product degree 128 exceeds cap 127"):
            p("x1^128")
    finally:
        set_degree_cap(64)


def test_degree_cap_guards_substitute():
    f = p("x1^60")
    with pytest.raises(DegreeCapExceeded):
        f.substitute((p("x1^2"), p("x2")))


def test_str_canonical_form():
    assert str(p("x2 + x1^2 + 1 - x2")) == "x1^2 + 1"
    assert str(p("-x1")) == "-x1"
    assert str(MultiPoly.zero(QQ, 2)) == "0"
    assert str(MultiPoly.constant(QQ, 2, -3)) == "-3"
    assert str(p("x2^2 - 3/2*x1")) == "x2^2 - 3/2*x1"
    assert str(p("2*x1 + 2", GF3, 1)) == "2*x1 + 2"
    t = MultiPoly.variable(GF4, 2, 0).scale(GF4.generator())
    u = t + MultiPoly.variable(GF4, 2, 1).scale(GF4.element((1, 1)))
    assert str(u) == "t*x1 + (t+1)*x2"
    assert str(t * t) == "(t+1)*x1^2"


def test_hash_consistency():
    f = p("x1*x2 + 1")
    g = p("1 + x2*x1")
    assert f == g
    assert hash(f) == hash(g)
    assert len({f, g}) == 1


def _grevlex_tuple(m):
    """Grevlex as a tuple: the degree, then the negated exponents from the
    last one, so at equal degree the smallest trailing exponent wins."""
    return (sum(m), tuple(-e for e in reversed(m)))


def _block_key_two_passes(order, m):
    """A block order as a tuple: grevlex of the eliminated block, then of
    the rest, one pass over m for each block."""
    elim = tuple(e for i, e in enumerate(m) if i in order.eliminated)
    rest = tuple(e for i, e in enumerate(m) if i not in order.eliminated)
    return (_grevlex_tuple(elim), _grevlex_tuple(rest))


def tuple_key(order, m):
    """The order's tuple definition, independent of its weights."""
    if order == GREVLEX:
        return _grevlex_tuple(m)
    if order == LEX:
        return m
    return _block_key_two_passes(order, m)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(
    eliminated=st.frozensets(st.integers(0, 7)),
    monomials=st.integers(1, 8).flatmap(
        lambda n: st.lists(st.tuples(*[st.integers(0, 9)] * n), min_size=1, max_size=12)
    ),
)
def test_block_keys_order_like_the_two_pass_split(eliminated, monomials):
    order = Block(eliminated)
    monomials = sorted(set(monomials))
    by_split = sorted(monomials, key=lambda m: _block_key_two_passes(order, m))
    assert sorted(monomials, key=order.key) == by_split
    assert len({order.key(m) for m in monomials}) == len(monomials)


# -- the integer kernel against the tuple loop it replaced ---------------------


def ref_mul(f, g):
    """The product loop over exponent tuples and raw coefficients."""
    spec, cap = f.spec, degree_cap()
    out = {}
    for m1, c1 in f.tuple_terms().items():
        for m2, c2 in g.tuple_terms().items():
            m = tuple(x + y for x, y in zip(m1, m2))
            if sum(m) > cap:
                raise DegreeCapExceeded(f"product degree {sum(m)} exceeds cap {cap}")
            c = spec.mul_raw(c1, c2)
            prev = out.get(m)
            s = c if prev is None else spec.add_raw(prev, c)
            if spec.is_zero_raw(s):
                out.pop(m, None)
            else:
                out[m] = s
    return MultiPoly.from_terms(spec, f.nvars, out.items())


def ref_pow(f, e):
    result = MultiPoly.constant(f.spec, f.nvars, 1)
    base = f
    while e:
        if e & 1:
            result = ref_mul(result, base)
        if e > 1:
            base = ref_mul(base, base)
        e >>= 1
    return result


def ref_substitute(f, images):
    spec = f.spec
    powers = {}
    total = MultiPoly.zero(spec, images[0].nvars)
    for m, c in f.tuple_terms().items():
        acc = MultiPoly.constant(spec, images[0].nvars, FieldElement(spec, c))
        for i, e in enumerate(m):
            if e:
                if (i, e) not in powers:
                    powers[i, e] = ref_pow(images[i], e)
                acc = ref_mul(acc, powers[i, e])
                if acc.is_zero:
                    break
        total = total + acc
    return total


def ref_evaluate(f, point):
    """The power-cache loop over exponent tuples that evaluation replaced."""
    spec = f.spec
    raws = [v.raw if isinstance(v, FieldElement) else spec.element(v).raw for v in point]
    powers = {}
    total = spec.zero_raw()
    for m, c in f.tuple_terms().items():
        acc = c
        for i, e in enumerate(m):
            if e:
                if (i, e) not in powers:
                    powers[i, e] = spec.pow_raw(raws[i], e)
                acc = spec.mul_raw(acc, powers[i, e])
        total = spec.add_raw(total, acc)
    return FieldElement(spec, total)


def outcome(fn, *args):
    """fn's result, or DegreeCapExceeded if it raised that.  The references
    name the first term pair past the cap and the kernel the product's own
    degree, so only the refusal is compared here; the degree is checked by
    test_refusals_state_the_true_degree."""
    try:
        return fn(*args)
    except DegreeCapExceeded:
        return DegreeCapExceeded


KERNEL_FIELDS = (QQ, GF2, GF3, GF4, GF8, GF9)


def _coefficient(rng, spec):
    if spec.kind == "Q":  # mixed denominators
        return Fraction(rng.randint(-9, 9), rng.choice((1, 1, 2, 3, 4, 6, 9)))
    if spec.kind == "Fp":
        return rng.randrange(spec.p)
    return spec.element(tuple(rng.randrange(spec.p) for _ in range(spec.k))).raw


def _poly(rng, spec, n, max_degree=3, max_terms=4):
    """Zero, constant and cancelling inputs included: coefficients may be
    zero and monomials may repeat."""
    return MultiPoly.from_terms(
        spec,
        n,
        [
            (random_monomial(rng, n, max_degree), _coefficient(rng, spec))
            for _ in range(rng.randint(0, max_terms))
        ],
    )


@pytest.mark.parametrize("spec", KERNEL_FIELDS, ids=lambda s: s.header())
def test_kernel_matches_the_tuple_loop_seeded(spec):
    rng = random.Random(61)
    for n in range(1, 7):
        for _ in range(10):
            f, g = _poly(rng, spec, n), _poly(rng, spec, n)
            assert f * g == ref_mul(f, g)
            e = rng.randint(0, 4)
            assert f**e == ref_pow(f, e)
            m = rng.randint(1, 6)  # into another arity, or the same
            images = tuple(_poly(rng, spec, m, 2, 3) for _ in range(n))
            assert f.substitute(images) == ref_substitute(f, images)


@pytest.mark.parametrize("spec", (QQ, GF2, GF3, GF4, GF9), ids=lambda s: s.header())
def test_evaluation_matches_the_power_cache_loop_seeded(spec):
    # Zero and fractional coordinates included; over Q a coordinate is also
    # given as a bare Fraction.
    rng = random.Random(83)
    for n in range(1, 5):
        for _ in range(25):
            f = _poly(rng, spec, n, max_degree=5, max_terms=6)
            coords = [_coefficient(rng, spec) for _ in range(n)]
            point = [FieldElement(spec, c) for c in coords]
            assert f.evaluate(point) == ref_evaluate(f, point)
            if spec is QQ:
                assert f.evaluate(coords) == ref_evaluate(f, coords)


def test_evaluation_refuses_foreign_points_and_runaway_powers():
    f = p("x1^60 + x2")
    with pytest.raises(ArityMismatch, match="point arity 1 != 2"):
        f.evaluate((QQ.element(1),))
    with pytest.raises(SpecMismatch, match="element belongs to a different field"):
        f.evaluate((QQ.element(1), GF3.element(1)))
    # A power of a coordinate meets the kernel's bound on coefficient growth.
    with pytest.raises(CoefficientGrowthExceeded):
        f.evaluate((Fraction(3**20000, 7), QQ.element(1)))


@pytest.mark.parametrize("spec", KERNEL_FIELDS, ids=lambda s: s.header())
def test_kernel_cancellation_zero_and_constants(spec):
    n = 3
    x = [MultiPoly.variable(spec, n, i) for i in range(n)]
    zero, one = MultiPoly.zero(spec, n), MultiPoly.constant(spec, n, 1)
    c = MultiPoly.constant(spec, n, spec.element((1, 1) if spec.kind == "Fpk" else 2))
    f = x[0] * x[1] + c * x[2] - one
    for a, b in [(f, zero), (zero, f), (f, one), (c, f), (c, c), (x[0] - x[1], x[0] + x[1])]:
        assert a * b == ref_mul(a, b)
    assert zero**0 == one and zero**3 == zero and c**5 == ref_pow(c, 5)
    # f(g, g, h) with the x1 - x2 part cancelling to zero
    g = x[0] + c
    assert (x[0] - x[1]).substitute((g, g, f)).is_zero
    assert f.substitute((zero, g, one)) == ref_substitute(f, (zero, g, one))
    assert f.substitute((zero, zero, zero)) == ref_substitute(f, (zero, zero, zero))
    assert zero.substitute((f, g, c)) == zero


def test_kernel_mixed_denominators_over_q():
    f = p("1/2*x1 + 1/3*x2 - 5/6")
    g = p("2/3*x1^2 - 3/4*x2 + 1/9")
    assert f * g == ref_mul(f, g)
    assert f**3 == ref_pow(f, 3)
    images = (p("1/5*x1 + x2"), p("7/4*x2^2 - 1/2"))
    for h in (f, g, f * g, p("x1^3*x2 - 1/7")):
        assert h.substitute(images) == ref_substitute(h, images)


def test_kernel_raises_the_same_degree_cap_errors():
    rng = random.Random(13)
    raised = 0
    set_degree_cap(6)
    try:
        for spec in KERNEL_FIELDS:
            for _ in range(40):
                n = rng.randint(1, 4)
                f, g = _poly(rng, spec, n, 5, 4), _poly(rng, spec, n, 5, 4)
                e = rng.randint(1, 4)
                m = rng.randint(1, 4)
                images = tuple(_poly(rng, spec, m, 4, 3) for _ in range(n))
                for got, want in [
                    (outcome(f.__mul__, g), outcome(ref_mul, f, g)),
                    (outcome(f.__pow__, e), outcome(ref_pow, f, e)),
                    (outcome(f.substitute, images), outcome(ref_substitute, f, images)),
                ]:
                    assert got == want
                    raised += want is DegreeCapExceeded
    finally:
        set_degree_cap(64)
    assert raised > 50


def _polys(spec, n, max_exponent):
    if spec.kind == "Q":
        coefficient = st.fractions(min_value=-20, max_value=20, max_denominator=12)
    elif spec.kind == "Fp":
        coefficient = st.integers(0, spec.p - 1)
    else:
        coefficient = st.tuples(*[st.integers(0, spec.p - 1)] * spec.k).map(
            lambda cs: spec.element(cs).raw
        )
    monomial = st.tuples(*[st.integers(0, max_exponent)] * n)
    return st.lists(st.tuples(monomial, coefficient), max_size=5).map(
        lambda items: MultiPoly.from_terms(spec, n, items)
    )


@settings(max_examples=100, derandomize=True, deadline=None)
@given(data=st.data())
def test_kernel_matches_the_tuple_loop_property(data):
    spec = data.draw(st.sampled_from(KERNEL_FIELDS))
    n, m = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 6))
    f, g = data.draw(_polys(spec, n, 2)), data.draw(_polys(spec, n, 2))
    e = data.draw(st.integers(0, 5))
    images = tuple(data.draw(_polys(spec, m, 2)) for _ in range(n))
    assert outcome(f.__mul__, g) == outcome(ref_mul, f, g)
    assert outcome(f.__pow__, e) == outcome(ref_pow, f, e)
    assert outcome(f.substitute, images) == outcome(ref_substitute, f, images)


def _one_term_coefficients(spec):
    """1, -1 and a coefficient that is neither, where the field has one."""
    raws = [spec.one_raw(), spec.neg_raw(spec.one_raw())]
    if spec.kind == "Q":
        raws.append(Fraction(-5, 3))
    elif spec.kind == "Fpk":
        raws.append(spec.generator().raw)
    return list(dict.fromkeys(raws))


@pytest.mark.parametrize("spec", KERNEL_FIELDS, ids=lambda s: s.header())
def test_one_term_operands_match_the_tuple_loop(spec):
    rng = random.Random(29)
    n = 3
    monomials = [(0, 0, 0), (1, 0, 0), (2, 1, 0), (0, 3, 1)]
    terms = [
        MultiPoly.from_terms(spec, n, [(m, c)])
        for m in monomials
        for c in _one_term_coefficients(spec)
    ]
    others = [MultiPoly.zero(spec, n)] + terms[::3] + [_poly(rng, spec, n) for _ in range(6)]
    for t in terms:
        for f in others:
            for got, want in [(t * f, ref_mul(t, f)), (f * t, ref_mul(f, t))]:
                assert got == want
                assert list(got.terms) == list(want.terms)  # the kernel's order
        for e in range(6):
            assert t**e == ref_pow(t, e)


def test_one_term_products_and_powers_past_the_cap():
    set_degree_cap(6)
    try:
        for spec in KERNEL_FIELDS:
            x1, x2 = (MultiPoly.variable(spec, 2, i) for i in range(2))
            two_x1 = MultiPoly.constant(spec, 2, 2) * x1
            f = x1 + x1**5 + x2**6
            cases = [
                (outcome((x1**4).__mul__, x1**3), outcome(ref_mul, x1**4, x1**3)),
                (outcome(f.__mul__, x1**2), outcome(ref_mul, f, x1**2)),
                (outcome((x1**2).__mul__, f), outcome(ref_mul, x1**2, f)),
                (outcome(x1.__pow__, 7), outcome(ref_pow, x1, 7)),
                (outcome((x1 * x2).__pow__, 4), outcome(ref_pow, x1 * x2, 4)),
                (outcome(two_x1.__pow__, 7), outcome(ref_pow, two_x1, 7)),
            ]
            for got, want in cases:
                assert got == want
            # Over F2, 2*x1 is zero and its power is too.
            assert all(want is DegreeCapExceeded for _, want in cases[:-1])
            assert (cases[-1][1] is DegreeCapExceeded) == (spec.p != 2)
    finally:
        set_degree_cap(64)


@pytest.mark.parametrize("spec", KERNEL_FIELDS, ids=lambda s: s.header())
def test_refusals_state_the_true_degree(spec):
    # K[x] is a domain: deg(f*g) = deg f + deg g and deg(f^e) = e*deg f.
    # A refusal states that degree, whichever term pair comes first, and
    # the operands' degrees (a one-term factor goes second).
    rng = random.Random(47)
    x1, x2 = (MultiPoly.variable(spec, 2, i) for i in range(2))
    f = x1 + x1**5 + x2**6
    products = [(x1**4, x1**3), (f, x1**2), (x1**2, f), (f, f)]
    powers = [(x1, 7), (x1 * x2, 4), (f, 2)]
    for _ in range(80):
        n = rng.randint(1, 4)
        g, h = _poly(rng, spec, n, 5, 4), _poly(rng, spec, n, 5, 4)
        products.append((g, h))
        powers.append((g, rng.randint(1, 4)))

    def degrees(g, h):
        a, b = g.total_degree(), h.total_degree()
        return rf"\(degrees ({a} \+ {b}|{b} \+ {a})\)"

    cases = [
        (g.__mul__, ref_mul, g, h, g.total_degree() + h.total_degree(), degrees(g, h))
        for g, h in products
    ]
    cases += [
        (g.__pow__, ref_pow, g, e, e * g.total_degree(), rf"\(degree {g.total_degree()}, power {e}\)")
        for g, e in powers
    ]
    refused = 0
    set_degree_cap(6)
    try:
        for fn, ref, g, arg, degree, operands in cases:
            if outcome(ref, g, arg) is DegreeCapExceeded:
                message = f"^product degree {degree} exceeds cap 6 {operands}$"
                with pytest.raises(DegreeCapExceeded, match=message):
                    fn(arg)
                refused += 1
            else:
                assert fn(arg) == ref(g, arg)
    finally:
        set_degree_cap(64)
    assert refused >= 40


@pytest.mark.parametrize("spec", KERNEL_FIELDS, ids=lambda s: s.header())
def test_zero_operands_are_never_refused(spec):
    one = spec.one_raw()
    zero = MultiPoly.zero(spec, 2)
    x1 = MultiPoly.variable(spec, 2, 0)
    big = MultiPoly.from_terms(spec, 2, [((100, 0), one), ((3, 1), one)])
    big_term = MultiPoly.from_terms(spec, 2, [((100, 27), one)])
    set_degree_cap(4)
    try:
        for f in (big, big_term):
            assert f * zero == zero == zero * f
        assert zero**9 == zero and zero**0 == MultiPoly.constant(spec, 2, 1)
        # A zero image met before the large factor ends the term: x2^60
        # would become x1^120.  Met after it, the factor is refused.
        f = MultiPoly.from_terms(spec, 2, [((1, 60), one)])
        assert f.substitute((zero, x1**2)) == zero == ref_substitute(f, (zero, x1**2))
        g = MultiPoly.from_terms(spec, 2, [((60, 1), one)])
        assert outcome(ref_substitute, g, (x1**2, zero)) is DegreeCapExceeded
        with pytest.raises(DegreeCapExceeded, match=r"^product degree 120 exceeds cap 4 \(degree 2, power 60\)$"):
            g.substitute((x1**2, zero))
    finally:
        set_degree_cap(64)


def test_power_coefficient_growth_is_bounded():
    bound = r" coefficient bits, above the limit of 1048576 \(a resource limit"
    for text, e, bits in [
        ("3^99999999*x1", 99999999, 299999997),
        ("(-3)^99999999*x1", 99999999, 299999997),
        ("(3^1000)^1000", 1000, 1586000),  # nested powers are bounded one at a time
        ("(3^100000*x1)^12", 12, 1901976),  # within the degree cap, not the bound
    ]:
        message = rf"^mpoly: power {e} of a 1-term polynomial needs about {bits}{bound}"
        with pytest.raises(CoefficientGrowthExceeded, match=message):
            p(text, QQ, 1)
    assert p("3^10000*x1", QQ, 1).tuple_terms() == {(1,): Fraction(3**10000)}
    # Powers of 1 and -1 stay 1 and -1, however large the exponent.
    assert p("1^99999999*x1", QQ, 1) == p("x1", QQ, 1)
    assert p("(-1)^99999999", QQ, 1) == p("-1", QQ, 1)
    assert p("(-1)^99999998*x1", QQ, 1) == p("x1", QQ, 1)
    # Over a finite field coefficients do not grow.
    assert p("3^99999999*x1", GF2, 1) == p("x1", GF2, 1)
    assert p("(t+1)^99999999*x1", GF4, 1) == p("x1", GF4, 1)  # (t+1)^3 = 1


def test_large_rationals_print_exactly():
    f = p("3^10000*x1 - 1/7^6000", QQ, 1)
    text = str(f)
    digits, rest = text.split("*x1 - 1/")
    assert len(digits) == 4772 and digits.startswith("16313501853426258743")
    assert int(digits[-50:]) == 3**10000 % 10**50
    assert int(rest[-50:]) == 7**6000 % 10**50 and len(rest) == 5071


@pytest.mark.parametrize(
    "text, spec, expected",
    [
        ("x2^3", QQ, {(0, 3): Fraction(1)}),
        ("x1^0", QQ, {(0, 0): Fraction(1)}),
        ("(2*x1)^3", QQ, {(3, 0): Fraction(8)}),
        ("(x1*x2)^2", QQ, {(2, 2): Fraction(1)}),
        ("(t*x1)^2", GF4, {(2, 0): GF4.element((1, 1)).raw}),
        ("(-x1)^3", GF3, {(3, 0): 2}),
    ],
)
def test_powers_in_the_parser(text, spec, expected):
    assert p(text, spec).tuple_terms() == expected
    with pytest.raises(DegreeCapExceeded, match="product degree 65 exceeds cap 64"):
        p("x1^65", spec)
