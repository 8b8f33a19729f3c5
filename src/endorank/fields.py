"""Exact ground-field arithmetic: Q, GF(p), GF(p^k), and their automorphisms.

A FieldSpec names the field and owns arithmetic on *raw* values; FieldElement
is the typed wrapper used at API boundaries.  Raw representations:

    Q       -> fractions.Fraction
    GF(p)   -> int in [0, p)
    GF(p^k) -> tuple[int, ...] of length k, coefficients of 1, t, .., t^(k-1)

Polynomial code stores raw values internally and wraps them on demand, which
keeps the inner loops free of wrapper overhead without losing exactness.

`FieldSpec.ints` is the same field with every coefficient a Python int, for
the product kernel in mpoly: it encodes raw values, reduces an accumulated
int once per output coefficient, and decodes the result (see IntForm).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import Callable, Iterator, Optional, Sequence, Union

from .errors import (
    DivisionByZero,
    FieldConstructionError,
    InfiniteField,
    SpecMismatch,
)

Raw = Union[Fraction, int, tuple]

# Construction caps: characteristics below 2^61, and exhaustive
# irreducibility/enumeration below 2^24 elements.
MAX_PRIME = 2**61
MAX_ENUMERABLE_ORDER = 2**24

# Miller-Rabin with these bases is exact below 318665857834031151167461,
# about 3.18 * 10^23 (Sorenson & Webster, Math. Comp. 2017), far above
# MAX_PRIME.
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin (exact in the range above); cost grows like
    log(n)."""
    if n < 2:
        return False
    for a in _WITNESSES:
        if n % a == 0:
            return n == a
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2^s, d odd
    d = (n - 1) >> s
    for a in _WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _poly_trim(cs: Sequence[int]) -> tuple[int, ...]:
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def _poly_mod(num: Sequence[int], den: Sequence[int], p: int) -> tuple[int, ...]:
    """Remainder of num by den in GF(p)[t]; den need not be monic."""
    num = list(num)
    dd = len(den) - 1
    inv_lead = pow(den[-1], -1, p)
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i] % p
        if c == 0:
            continue
        q = (c * inv_lead) % p
        for j in range(dd + 1):
            num[i - dd + j] = (num[i - dd + j] - q * den[j]) % p
    return _poly_trim(c % p for c in num[:dd])


def _poly_is_irreducible(mod: Sequence[int], p: int) -> bool:
    """Exhaustive check: no root, then no monic factor of degree <= deg/2."""
    k = len(mod) - 1
    if k < 1:
        return False
    # Root search covers every linear factor.
    for a in range(p):
        acc = 0
        for c in reversed(mod):
            acc = (acc * a + c) % p
        if acc == 0:
            return False
    if k <= 3:
        return True
    # Trial division by every monic polynomial of degree 2..k//2.
    for d in range(2, k // 2 + 1):
        for idx in range(p**d):
            cs = []
            v = idx
            for _ in range(d):
                cs.append(v % p)
                v //= p
            cs.append(1)
            if not _poly_mod(mod, cs, p):
                return False
    return True


# -- integer form ---------------------------------------------------------------


@dataclass(frozen=True)
class IntForm:
    """A field's coefficients as Python ints, so that a polynomial kernel
    multiplies and adds them as ints and normalizes each output coefficient
    once.

    * encode(raws) -> (den, ints): the coefficients of one polynomial.  Over
      Q the ints are numerators over one common denominator `den`; over a
      finite field `den` is 1.
    * reduce(v) -> int: the canonical int of a sum of products of canonical
      ints, 0 exactly when the value is zero.  None over Q, where ints are
      exact as they stand.
    * decode(den, ints) -> canonical raw values.
    """

    encode: Callable
    reduce: Optional[Callable[[int], int]]
    decode: Callable


def _q_encode(raws) -> tuple[int, list[int]]:
    raws = list(raws)
    den = lcm(*[c.denominator for c in raws])
    if den == 1:
        return 1, [c.numerator for c in raws]
    return den, [c.numerator * (den // c.denominator) for c in raws]


def _q_decode(den: int, ints) -> list:
    if den == 1:
        return list(map(Fraction, ints))
    return [Fraction(v, den) for v in ints]


def _fp_encode(raws) -> tuple[int, list[int]]:
    return 1, list(raws)


def _fp_decode(den: int, ints) -> list:
    return list(ints)


# Room in a GF(p^k) digit for 2^32 digit products: a kernel coefficient sums
# one product per term pair, at most min(#terms) of them, far fewer.
_DIGIT_ROOM_BITS = 32


def _extension_form(p: int, k: int, modulus: tuple[int, ...]) -> IntForm:
    """GF(p^k) with a_0 + a_1 t + .. + a_(k-1) t^(k-1) packed into the int
    sum(a_j << (j * w)).  A digit of the product of two canonical elements is
    at most k (p-1)^2 and w leaves room for 2^32 of those, so sums of
    products never carry from one digit into the next.  reduce takes the
    2k-1 digits of such a sum and reduces them modulo p and the (monic)
    modulus, top digit first, as _poly_mod does."""
    w = (k * (p - 1) ** 2).bit_length() + _DIGIT_ROOM_BITS
    mask = (1 << w) - 1
    shifts = tuple(range(0, w * (2 * k - 1), w))
    low = shifts[:k]
    tail = [(j, c) for j, c in enumerate(modulus[:k]) if c]  # t^k = -tail

    def encode(raws) -> tuple[int, list[int]]:
        return 1, [sum(map(operator.lshift, a, low)) for a in raws]

    def reduce(v: int) -> int:
        d = [(v >> s) & mask for s in shifts]
        for i in range(2 * k - 2, k - 1, -1):
            c = d[i] % p
            if c:
                for j, mj in tail:
                    d[i - k + j] -= c * mj
        return sum([(d[j] % p) << s for j, s in enumerate(low)])

    def decode(den: int, ints) -> list:
        return [tuple([(v >> s) & mask for s in low]) for v in ints]

    return IntForm(encode, reduce, decode)


@dataclass(frozen=True)
class FieldSpec:
    """The ground field.  kind is one of "Q", "Fp", "Fpk"."""

    kind: str
    p: int = 0
    k: int = 1
    modulus: tuple[int, ...] = ()  # ascending coefficients, monic, length k+1

    # -- constructors ------------------------------------------------------

    @staticmethod
    def rationals() -> "FieldSpec":
        return FieldSpec("Q")

    @staticmethod
    def prime_field(p: int) -> "FieldSpec":
        if not isinstance(p, int) or p >= MAX_PRIME:
            raise FieldConstructionError(f"characteristic out of range: {p}")
        if not is_prime(p):
            raise FieldConstructionError(f"{p} is not prime")
        return FieldSpec("Fp", p=p)

    @staticmethod
    def extension_field(p: int, k: int, modulus: Sequence[int]) -> "FieldSpec":
        """GF(p^k) as GF(p)[t]/(modulus).  The modulus must be monic
        irreducible of degree k; both facts are verified here."""
        if not is_prime(p):
            raise FieldConstructionError(f"{p} is not prime")
        if k < 2:
            raise FieldConstructionError("extension degree must be at least 2")
        if p**k > MAX_ENUMERABLE_ORDER:
            raise FieldConstructionError(
                f"field order {p}^{k} exceeds the enumerable cap 2^24"
            )
        mod = tuple(c % p for c in modulus)
        if len(mod) != k + 1 or mod[-1] != 1:
            raise FieldConstructionError(
                "modulus must be monic of degree k (ascending coefficients)"
            )
        if not _poly_is_irreducible(mod, p):
            raise FieldConstructionError("modulus is reducible")
        return FieldSpec("Fpk", p=p, k=k, modulus=mod)

    # -- basic facts -------------------------------------------------------

    @property
    def is_finite(self) -> bool:
        return self.kind != "Q"

    @property
    def char(self) -> int:
        return 0 if self.kind == "Q" else self.p

    @property
    def order(self) -> int:
        """Number of elements; raises over Q."""
        if self.kind == "Q":
            raise InfiniteField("the rationals are infinite")
        return self.p**self.k if self.kind == "Fpk" else self.p

    @cached_property
    def ints(self) -> IntForm:
        """This field's coefficients as ints (see IntForm)."""
        if self.kind == "Q":
            return IntForm(_q_encode, None, _q_decode)
        if self.kind == "Fp":
            return IntForm(_fp_encode, self.p.__rmod__, _fp_decode)
        return _extension_form(self.p, self.k, self.modulus)

    # -- raw-value arithmetic ---------------------------------------------

    def zero_raw(self) -> Raw:
        if self.kind == "Q":
            return Fraction(0)
        if self.kind == "Fp":
            return 0
        return (0,) * self.k

    def one_raw(self) -> Raw:
        if self.kind == "Q":
            return Fraction(1)
        if self.kind == "Fp":
            return 1
        return (1,) + (0,) * (self.k - 1)

    def from_int_raw(self, n: int) -> Raw:
        if self.kind == "Q":
            return Fraction(n)
        if self.kind == "Fp":
            return n % self.p
        return (n % self.p,) + (0,) * (self.k - 1)

    def is_zero_raw(self, a: Raw) -> bool:
        if self.kind == "Fpk":
            return all(c == 0 for c in a)
        return a == 0

    def add_raw(self, a: Raw, b: Raw) -> Raw:
        if self.kind == "Q":
            return a + b
        if self.kind == "Fp":
            return (a + b) % self.p
        p = self.p
        return tuple((x + y) % p for x, y in zip(a, b))

    def sub_raw(self, a: Raw, b: Raw) -> Raw:
        if self.kind == "Q":
            return a - b
        if self.kind == "Fp":
            return (a - b) % self.p
        p = self.p
        return tuple((x - y) % p for x, y in zip(a, b))

    def neg_raw(self, a: Raw) -> Raw:
        if self.kind == "Q":
            return -a
        if self.kind == "Fp":
            return (-a) % self.p
        p = self.p
        return tuple((-x) % p for x in a)

    def mul_raw(self, a: Raw, b: Raw) -> Raw:
        if self.kind == "Q":
            return a * b
        if self.kind == "Fp":
            return (a * b) % self.p
        p, k = self.p, self.k
        prod = [0] * (2 * k - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    if y:
                        prod[i + j] = (prod[i + j] + x * y) % p
        red = _poly_mod(prod, self.modulus, p)
        return red + (0,) * (k - len(red))

    def inv_raw(self, a: Raw) -> Raw:
        if self.is_zero_raw(a):
            raise DivisionByZero("inverse of zero")
        if self.kind == "Q":
            return 1 / a
        if self.kind == "Fp":
            return pow(a, -1, self.p)
        # Fermat: the nonzero elements form a group of order p^k - 1.
        return self.pow_raw(a, self.p**self.k - 2)

    def pow_raw(self, a: Raw, e: int) -> Raw:
        if e < 0:
            return self.pow_raw(self.inv_raw(a), -e)
        result = self.one_raw()
        base = a
        while e:
            if e & 1:
                result = self.mul_raw(result, base)
            base = self.mul_raw(base, base)
            e >>= 1
        return result

    def mul_int_raw(self, a: Raw, n: int) -> Raw:
        """a times the image of the integer n (repeated addition, exactly)."""
        return self.mul_raw(a, self.from_int_raw(n))

    # -- typed wrappers ------------------------------------------------------

    def zero(self) -> "FieldElement":
        return FieldElement(self, self.zero_raw())

    def one(self) -> "FieldElement":
        return FieldElement(self, self.one_raw())

    def element(self, value) -> "FieldElement":
        """Coerce an int, Fraction, or coefficient sequence into this field."""
        if isinstance(value, FieldElement):
            if value.spec != self:
                raise SpecMismatch("element belongs to a different field")
            return value
        if self.kind == "Q":
            return FieldElement(self, Fraction(value))
        if self.kind == "Fp":
            if isinstance(value, Fraction):
                if value.denominator % self.p == 0:
                    raise DivisionByZero("denominator divisible by p")
                raw = (value.numerator * pow(value.denominator, -1, self.p)) % self.p
                return FieldElement(self, raw)
            return FieldElement(self, int(value) % self.p)
        if isinstance(value, int):
            return FieldElement(self, self.from_int_raw(value))
        cs = tuple(int(c) % self.p for c in value)
        if len(cs) > self.k:
            red = _poly_mod(cs, self.modulus, self.p)
            cs = red + (0,) * (self.k - len(red))
        else:
            cs = cs + (0,) * (self.k - len(cs))
        return FieldElement(self, cs)

    def generator(self) -> "FieldElement":
        """The class of t in GF(p^k)."""
        if self.kind != "Fpk":
            raise FieldConstructionError("only extension fields have a generator t")
        return FieldElement(self, (0, 1) + (0,) * (self.k - 2))

    def __repr__(self) -> str:
        return f"FieldSpec({self.header()})"

    def header(self) -> str:
        """Canonical text form, as used in input-file headers."""
        if self.kind == "Q":
            return "Q"
        if self.kind == "Fp":
            return f"F {self.p}"
        from .parsing import format_modulus

        return f"F {self.p}^{self.k} mod {format_modulus(self.modulus)}"


@dataclass(frozen=True)
class FieldElement:
    """A typed field element: a spec plus a raw value."""

    spec: FieldSpec
    raw: Raw

    def _require_same(self, other: "FieldElement") -> None:
        if not isinstance(other, FieldElement) or other.spec != self.spec:
            raise SpecMismatch("mixed-field arithmetic")

    def __add__(self, other):
        self._require_same(other)
        return FieldElement(self.spec, self.spec.add_raw(self.raw, other.raw))

    def __sub__(self, other):
        self._require_same(other)
        return FieldElement(self.spec, self.spec.sub_raw(self.raw, other.raw))

    def __mul__(self, other):
        self._require_same(other)
        return FieldElement(self.spec, self.spec.mul_raw(self.raw, other.raw))

    def __neg__(self):
        return FieldElement(self.spec, self.spec.neg_raw(self.raw))

    def __truediv__(self, other):
        self._require_same(other)
        return FieldElement(
            self.spec, self.spec.mul_raw(self.raw, self.spec.inv_raw(other.raw))
        )

    def __pow__(self, e: int):
        return FieldElement(self.spec, self.spec.pow_raw(self.raw, e))

    def inverse(self) -> "FieldElement":
        return FieldElement(self.spec, self.spec.inv_raw(self.raw))

    @property
    def is_zero(self) -> bool:
        return self.spec.is_zero_raw(self.raw)

    def __bool__(self) -> bool:
        return not self.is_zero

    def __str__(self) -> str:
        from .parsing import format_coefficient

        return format_coefficient(self.spec, self.raw)

    def __repr__(self) -> str:
        return f"<{self} over {self.spec.header()}>"


# -- automorphisms ----------------------------------------------------------


@dataclass(frozen=True)
class FieldAutomorphism:
    """x -> x^(p^e) on a finite field; e = 0 is the identity.

    Over Q and GF(p) only the identity exists (e must be 0).
    """

    spec: FieldSpec
    e: int = 0

    def __post_init__(self):
        if self.spec.kind == "Fpk":
            if not 0 <= self.e < self.spec.k:
                raise FieldConstructionError(
                    f"Frobenius exponent must lie in [0, {self.spec.k})"
                )
        elif self.e != 0:
            raise FieldConstructionError(
                "only the identity automorphism exists over this field"
            )

    @staticmethod
    def identity(spec: FieldSpec) -> "FieldAutomorphism":
        return FieldAutomorphism(spec, 0)

    @staticmethod
    def frobenius(spec: FieldSpec, e: int = 1) -> "FieldAutomorphism":
        return FieldAutomorphism(spec, e)

    @property
    def is_identity(self) -> bool:
        return self.e == 0

    def apply_raw(self, a: Raw) -> Raw:
        if self.e == 0:
            return a
        return self.spec.pow_raw(a, self.spec.p**self.e)

    def apply(self, a: FieldElement) -> FieldElement:
        if a.spec != self.spec:
            raise SpecMismatch("automorphism applied to foreign element")
        return FieldElement(self.spec, self.apply_raw(a.raw))

    def inverse(self) -> "FieldAutomorphism":
        if self.e == 0:
            return self
        return FieldAutomorphism(self.spec, (self.spec.k - self.e) % self.spec.k)

    def compose(self, other: "FieldAutomorphism") -> "FieldAutomorphism":
        if other.spec != self.spec:
            raise SpecMismatch("automorphisms over different fields")
        if self.spec.kind != "Fpk":
            return self
        return FieldAutomorphism(self.spec, (self.e + other.e) % self.spec.k)

    def __str__(self) -> str:
        return "identity" if self.e == 0 else f"frob^{self.e}"


def enumerate_elements(spec: FieldSpec) -> Iterator[FieldElement]:
    """All elements of a finite field, ordered by coefficient vector
    (constant coefficient fastest); raises InfiniteField over Q."""
    if spec.kind == "Q":
        raise InfiniteField("cannot enumerate the rationals")
    if spec.kind == "Fp":
        for a in range(spec.p):
            yield FieldElement(spec, a)
        return
    p, k = spec.p, spec.k
    for idx in range(p**k):
        cs = []
        v = idx
        for _ in range(k):
            cs.append(v % p)
            v //= p
        yield FieldElement(spec, tuple(cs))


# -- stock fields ------------------------------------------------------------

QQ = FieldSpec.rationals()
GF2 = FieldSpec.prime_field(2)
GF3 = FieldSpec.prime_field(3)
GF4 = FieldSpec.extension_field(2, 2, (1, 1, 1))  # t^2 + t + 1
GF8 = FieldSpec.extension_field(2, 3, (1, 1, 0, 1))  # t^3 + t + 1
GF9 = FieldSpec.extension_field(3, 2, (1, 0, 1))  # t^2 + 1


def builtin_extension(spec: FieldSpec) -> FieldSpec | None:
    """A stock proper extension of a prime field, if one is shipped."""
    if spec == GF2:
        return GF4
    if spec == GF3:
        return GF9
    return None


def embed_raw(value: Raw, src: FieldSpec, dst: FieldSpec) -> Raw:
    """Embed GF(p) into a stock GF(p^k) (constants go to constants)."""
    if src == dst:
        return value
    if src.kind != "Fp" or dst.kind != "Fpk" or dst.p != src.p:
        raise SpecMismatch(f"no embedding {src.header()} -> {dst.header()}")
    return (value,) + (0,) * (dst.k - 1)
