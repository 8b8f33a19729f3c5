"""Field layer: exact rationals, prime fields, small extensions, Frobenius."""

from fractions import Fraction
from itertools import product
import random

import pytest

from endorank.errors import (
    DivisionByZero,
    FieldConstructionError,
    InfiniteField,
    SpecMismatch,
)
from endorank.fields import (
    GF2,
    GF3,
    GF4,
    GF9,
    QQ,
    FieldAutomorphism,
    FieldSpec,
    builtin_extension,
    enumerate_elements,
    is_prime,
)

# The package ships no field of order 8; the tests build their own.
GF8 = FieldSpec.extension_field(2, 3, (1, 1, 0, 1))  # t^3 + t + 1


def test_rationals_are_exact():
    a = QQ.element(Fraction(1, 3))
    b = QQ.element(Fraction(1, 6))
    assert (a + b).raw == Fraction(1, 2)
    assert (a * b).raw == Fraction(1, 18)
    assert (a - a).is_zero
    assert a.inverse().raw == 3


def test_prime_field_inverses():
    for p in (2, 3, 5, 7, 13, 101):
        spec = FieldSpec.prime_field(p)
        for v in range(1, p):
            x = spec.element(v)
            assert (x * x.inverse()) == spec.element(1)
        assert spec.element(p).is_zero
        assert spec.element(-1) == spec.element(p - 1)


def test_division_by_zero():
    with pytest.raises(DivisionByZero):
        GF3.zero().inverse()
    with pytest.raises(DivisionByZero):
        GF4.zero().inverse()
    with pytest.raises(DivisionByZero):
        QQ.zero().inverse()


def test_rejected_constructions():
    with pytest.raises(FieldConstructionError):
        FieldSpec.prime_field(4)
    with pytest.raises(FieldConstructionError):
        FieldSpec.prime_field(1)
    with pytest.raises(FieldConstructionError):
        FieldSpec.extension_field(2, 1, (1, 1))
    with pytest.raises(FieldConstructionError):
        # t^2 + 1 = (t + 1)^2 over F_2
        FieldSpec.extension_field(2, 2, (1, 0, 1))
    with pytest.raises(FieldConstructionError):
        # not monic
        FieldSpec.extension_field(3, 2, (1, 1, 2))
    with pytest.raises(FieldConstructionError):
        # 2^25 elements is past the supported size
        FieldSpec.extension_field(2, 25, (1, 1) + (0,) * 23 + (1,))


def test_gf4_multiplication_table():
    t = GF4.generator()
    one = GF4.element(1)
    assert t * t == t + one  # t^2 = t + 1
    assert t * t * t == one
    assert [str(v) for v in enumerate_elements(GF4)] == ["0", "1", "t", "t+1"]
    assert GF4.order == 4
    assert GF4.p == 2
    assert GF8.order == 8
    assert GF9.order == 9


def test_gf9_field_laws_seeded():
    rng = random.Random(11)
    elems = list(enumerate_elements(GF9))
    assert len(elems) == 9
    for _ in range(300):
        a, b, c = (rng.choice(elems) for _ in range(3))
        assert (a + b) * c == a * c + b * c
        assert a + b == b + a
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        if not a.is_zero:
            assert a * a.inverse() == GF9.element(1)
    assert len({(a * b).raw for a in elems for b in elems}) == 9


def test_multiplicative_group_order():
    # x^(q-1) = 1 for every nonzero x
    for spec in (GF4, GF8, GF9):
        for x in enumerate_elements(spec):
            if x.is_zero:
                continue
            acc = spec.element(1)
            for _ in range(spec.order - 1):
                acc = acc * x
            assert acc == spec.element(1)


def test_extension_inverse_is_the_unique_partner():
    gf32 = FieldSpec.extension_field(2, 5, (1, 0, 1, 0, 0, 1))  # t^5 + t^2 + 1
    for spec in (GF4, GF8, GF9, gf32):
        elems = list(enumerate_elements(spec))
        for a in elems:
            if a.is_zero:
                continue
            assert a * a.inverse() == spec.element(1)
            assert [b for b in elems if a * b == spec.element(1)] == [a.inverse()]


def test_frobenius_gf4():
    frob = FieldAutomorphism(GF4, 1)
    t = GF4.generator()
    assert frob.apply(t) == t * t
    assert frob.compose(frob).is_identity
    assert frob.inverse() == frob  # order 2
    assert str(frob) == "frob^1"
    assert str(FieldAutomorphism.identity(GF4)) == "identity"


def test_frobenius_gf9_is_cubing_and_additive():
    f9 = FieldAutomorphism(GF9, 1)
    elems = list(enumerate_elements(GF9))
    for v in elems:
        assert f9.apply(v) == v * v * v
    for a in elems:
        for b in elems:
            assert f9.apply(a + b) == f9.apply(a) + f9.apply(b)
            assert f9.apply(a * b) == f9.apply(a) * f9.apply(b)


def test_no_frobenius_over_prime_or_rational_fields():
    with pytest.raises(FieldConstructionError):
        FieldAutomorphism(QQ, 1)
    with pytest.raises(FieldConstructionError):
        FieldAutomorphism(GF3, 2)
    assert FieldAutomorphism.identity(QQ).is_identity


def test_builtin_extensions_embed():
    assert builtin_extension(GF2) == GF4
    assert builtin_extension(GF3) == GF9
    assert builtin_extension(QQ) is None
    # the embedding is a ring homomorphism on the base field
    for a in range(3):
        for b in range(3):
            lifted = GF9.element(GF3.element(a).raw)
            direct = GF9.element(a)
            assert lifted == direct
            s = GF3.element(a) + GF3.element(b)
            assert GF9.element(s.raw) == GF9.element(a) + GF9.element(b)


def test_rationals_have_no_order():
    with pytest.raises(InfiniteField):
        QQ.order


def test_element_conversions():
    assert GF3.element(GF3.element(2)) == GF3.element(-1)
    assert str(GF9.element((2, 1))) == "t+2"
    p5 = FieldSpec.prime_field(5)
    assert p5.element(Fraction(1, 2)) == p5.element(3)
    with pytest.raises(SpecMismatch):
        GF3.element(GF2.element(1))
    with pytest.raises(DivisionByZero):
        p5.element(Fraction(1, 5))  # denominator vanishes mod 5


def test_headers_round_trip_identity():
    assert QQ.header() == "Q"
    assert GF2.header() == "F 2"
    assert GF4.header() == "F 2^2 mod t^2+t+1"
    assert GF9.header() == "F 3^2 mod t^2+1"


def _trial_division(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def test_is_prime_agrees_with_trial_division_below_10_5():
    assert all(is_prime(n) == _trial_division(n) for n in range(10**5))


@pytest.mark.parametrize(
    "n",
    # the least strong pseudoprimes to the first 1..7 prime bases
    [2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383, 341550071728321],
)
def test_is_prime_rejects_strong_pseudoprimes(n):
    assert not is_prime(n)


def test_is_prime_accepts_a_mersenne_prime_near_the_cap():
    assert is_prime(2**61 - 1)
    assert not is_prime((2**31 - 1) * (2**19 - 1))  # two Mersenne primes
    assert FieldSpec.prime_field(2**61 - 1).p == 2**61 - 1


# -- packed raws against the tuple arithmetic they replaced --------------------

GF32 = FieldSpec.extension_field(2, 5, (1, 0, 1, 0, 0, 1))  # t^5 + t^2 + 1
GF27 = FieldSpec.extension_field(3, 3, (1, 2, 0, 1))  # t^3 + 2t + 1


def _ref_mod(num, modulus, p):
    """Remainder of num by the monic modulus in GF(p)[t], as k coefficients."""
    num = [c % p for c in num]
    k = len(modulus) - 1
    for i in range(len(num) - 1, k - 1, -1):
        c = num[i]
        for j in range(k + 1):
            num[i - k + j] = (num[i - k + j] - c * modulus[j]) % p
    return tuple(num[:k]) + (0,) * (k - len(num))


def ref_add(spec, a, b):
    return tuple((x + y) % spec.p for x, y in zip(a, b))


def ref_sub(spec, a, b):
    return tuple((x - y) % spec.p for x, y in zip(a, b))


def ref_neg(spec, a):
    return tuple(-x % spec.p for x in a)


def ref_mul(spec, a, b):
    """Schoolbook product of coefficient tuples, then the remainder."""
    prod = [0] * (2 * spec.k - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    return _ref_mod(prod, spec.modulus, spec.p)


def _check_pair(spec, a, b):
    one = (1,) + (0,) * (spec.k - 1)
    x, y = spec.element(a), spec.element(b)
    assert spec.digits((x + y).raw) == ref_add(spec, a, b)
    assert spec.digits((x - y).raw) == ref_sub(spec, a, b)
    assert spec.digits((-x).raw) == ref_neg(spec, a)
    assert spec.digits((x * y).raw) == ref_mul(spec, a, b)
    if any(a):
        assert ref_mul(spec, a, spec.digits(x.inverse().raw)) == one


@pytest.mark.parametrize("spec", [GF4, GF8, GF9], ids=str)
def test_packed_arithmetic_matches_tuples_on_every_pair(spec):
    vectors = list(product(range(spec.p), repeat=spec.k))
    for a in vectors:
        for b in vectors:
            _check_pair(spec, a, b)


@pytest.mark.parametrize("spec", [GF32, GF27], ids=str)
def test_packed_arithmetic_matches_tuples_seeded(spec):
    rng = random.Random(5)

    def draw():
        return tuple(rng.randrange(spec.p) for _ in range(spec.k))

    for _ in range(300):
        _check_pair(spec, draw(), draw())
    # A sum of many products reduced once, as the polynomial kernel does.
    pairs = [(draw(), draw()) for _ in range(200)]
    acc = (0,) * spec.k
    for a, b in pairs:
        acc = ref_add(spec, acc, ref_mul(spec, a, b))
    total = sum(spec.element(a).raw * spec.element(b).raw for a, b in pairs)
    assert spec.digits(spec.reduce(total)) == acc


@pytest.mark.parametrize("spec", [GF2, GF3, GF4, GF8, GF9, GF27], ids=str)
def test_digits_round_trip_and_enumeration_order(spec):
    # constant coefficient fastest: the chain search's candidate order
    vectors = [v[::-1] for v in product(range(spec.p), repeat=spec.k)]
    assert [spec.digits(e.raw) for e in enumerate_elements(spec)] == vectors
    if spec.k > 1:  # coefficient sequences are read over GF(p^k) only
        for cs in vectors:
            assert spec.digits(spec.element(cs).raw) == cs
        rng = random.Random(3)  # longer input is reduced by the modulus first
        for _ in range(50):
            cs = tuple(rng.randrange(spec.p) for _ in range(2 * spec.k))
            assert spec.digits(spec.element(cs).raw) == _ref_mod(cs, spec.modulus, spec.p)


def _square_and_multiply_cost(e):
    """Products in left-to-right binary powering: a squaring per bit after
    the top one, and a product per further set bit."""
    return e.bit_length() - 1 + bin(e).count("1") - 1 if e else 0  # 1 at e = 2, 3 at e = 8


@pytest.mark.parametrize("spec", [QQ, GF3, GF9], ids=str)
def test_pow_raw_matches_repeated_products_with_fewest_calls(spec, monkeypatch):
    a = {QQ: Fraction(-2, 3), GF3: 2, GF9: GF9.generator().raw + 1}[spec]
    wants = {}
    for e in range(-3, 41):
        base = a if e >= 0 else spec.inv_raw(a)
        wants[e] = spec.one_raw()
        for _ in range(abs(e)):
            wants[e] = spec.mul_raw(wants[e], base)
    inv_cost = _square_and_multiply_cost(spec.order - 2) if spec.k > 1 else 0
    calls = []
    mul_raw = FieldSpec.mul_raw
    monkeypatch.setattr(
        FieldSpec, "mul_raw", lambda self, x, y: calls.append(1) or mul_raw(self, x, y)
    )
    for e, want in wants.items():
        calls.clear()
        assert spec.pow_raw(a, e) == want, e
        assert len(calls) == _square_and_multiply_cost(abs(e)) + (inv_cost if e < 0 else 0), e
