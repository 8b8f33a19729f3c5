"""Exact ground-field arithmetic: Q, GF(p), GF(p^k), and their automorphisms.

A FieldSpec names the field and owns arithmetic on *raw* values; FieldElement
is the typed wrapper used at API boundaries.  Raw representations:

    Q       -> fractions.Fraction
    GF(p^k) -> the int sum(a_j << (j * w)) of a_0 + a_1 t + .. + a_(k-1) t^(k-1),
               every digit a_j in [0, p); over GF(p) (k = 1) the residue itself

The digit width w = bits(k (p-1)^2) + 32 leaves room in a digit for 2^32
products of two digits, so the product of two raws, or a sum of such
products, carries nothing from one digit into the next, and
`FieldSpec.reduce` turns it back into a raw once.  The polynomial kernel in
mpoly multiplies and adds the same ints and calls the same reduce.
Coefficient tuples appear only at the edge: as input to `element` and as
output of `digits`.

Polynomial code stores raw values internally and wraps them on demand, which
keeps the inner loops free of wrapper overhead without losing exactness.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from typing import Callable, Iterator, Optional, Sequence, Union

from .errors import (
    DivisionByZero,
    FieldConstructionError,
    InfiniteField,
    SpecMismatch,
)
from .records import record

Raw = Union[Fraction, int]

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


def _poly_mod(num: Sequence[int], den: Sequence[int], p: int) -> list[int]:
    """Remainder of num by den in GF(p)[t], as len(den) - 1 coefficients;
    den need not be monic."""
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
    return [c % p for c in num[:dd]]


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
            if not any(_poly_mod(mod, cs, p)):
                return False
    return True


# -- packed finite-field elements -----------------------------------------------

# Room in a digit for 2^32 digit products: a kernel coefficient sums one
# product per term pair, at most min(#terms) of them, far fewer.
_DIGIT_ROOM_BITS = 32


def _extension_reduce(
    p: int, k: int, modulus: tuple[int, ...], w: int
) -> Callable[[int], int]:
    """reduce over GF(p^k): takes the 2k-1 digits of a sum of products of
    raws and reduces them modulo p and the (monic) modulus, top digit first,
    as _poly_mod does."""
    mask = (1 << w) - 1
    shifts = tuple(range(0, w * (2 * k - 1), w))
    low = shifts[:k]
    tail = [(j, c) for j, c in enumerate(modulus[:k]) if c]  # t^k = -tail

    def reduce(v: int) -> int:
        d = [(v >> s) & mask for s in shifts]
        for i in range(2 * k - 2, k - 1, -1):
            c = d[i] % p
            if c:
                for j, mj in tail:
                    d[i - k + j] -= c * mj
        return sum([(d[j] % p) << s for j, s in enumerate(low)])

    return reduce


@record
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
    def order(self) -> int:
        """Number of elements; raises over Q."""
        if self.kind == "Q":
            raise InfiniteField("the rationals are infinite")
        return self.p**self.k

    # -- packed raws -------------------------------------------------------

    @cached_property
    def _width(self) -> int:
        """Bits per digit of a finite-field raw."""
        return (self.k * (self.p - 1) ** 2).bit_length() + _DIGIT_ROOM_BITS

    @cached_property
    def _all_p(self) -> int:
        """p in every digit: added to a difference of raws, it keeps every
        digit non-negative."""
        return self._pack([self.p] * self.k)

    @cached_property
    def reduce(self) -> Optional[Callable[[int], int]]:
        """The raw of a non-negative int whose 2k-1 digits are each a sum of
        at most 2^32 products of two digits, 0 exactly when its value is zero
        (over GF(p), the residue mod p).  None over Q, whose raws are exact as
        they stand."""
        if self.kind == "Q":
            return None
        if self.kind == "Fp":
            return self.p.__rmod__
        return _extension_reduce(self.p, self.k, self.modulus, self._width)

    def _pack(self, cs: Sequence[int]) -> int:
        w = self._width
        return sum(c << (j * w) for j, c in enumerate(cs))

    def digits(self, raw: int) -> tuple[int, ...]:
        """The coefficients of 1, t, .., t^(k-1) in a finite-field raw."""
        w = self._width
        mask = (1 << w) - 1
        return tuple((raw >> (j * w)) & mask for j in range(self.k))

    # -- raw-value arithmetic ---------------------------------------------

    def zero_raw(self) -> Raw:
        return Fraction(0) if self.kind == "Q" else 0

    def one_raw(self) -> Raw:
        return Fraction(1) if self.kind == "Q" else 1

    def from_int_raw(self, n: int) -> Raw:
        return Fraction(n) if self.kind == "Q" else n % self.p

    def is_zero_raw(self, a: Raw) -> bool:
        return a == 0

    def add_raw(self, a: Raw, b: Raw) -> Raw:
        if self.kind == "Q":
            return a + b
        return self.reduce(a + b)

    def sub_raw(self, a: Raw, b: Raw) -> Raw:
        if self.kind == "Q":
            return a - b
        return self.reduce(a + self._all_p - b)

    def neg_raw(self, a: Raw) -> Raw:
        if self.kind == "Q":
            return -a
        return self.reduce(self._all_p - a)

    def mul_raw(self, a: Raw, b: Raw) -> Raw:
        if self.kind == "Q":
            return a * b
        return self.reduce(a * b)

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
        """a^e by left-to-right binary powering: one squaring per bit of e
        after the top one and one product per further set bit."""
        if e < 0:
            return self.pow_raw(self.inv_raw(a), -e)
        if e == 0:
            return self.one_raw()
        result = a
        for bit in bin(e)[3:]:
            result = self.mul_raw(result, result)
            if bit == "1":
                result = self.mul_raw(result, a)
        return result

    # -- typed wrappers ------------------------------------------------------

    def zero(self) -> "FieldElement":
        return FieldElement(self, self.zero_raw())

    def element(self, value) -> "FieldElement":
        """Coerce an int, Fraction, or (over GF(p^k)) coefficient sequence of
        1, t, t^2, .. into this field."""
        if isinstance(value, FieldElement):
            if value.spec != self:
                raise SpecMismatch("element belongs to a different field")
            return value
        if self.kind == "Q":
            return FieldElement(self, Fraction(value))
        p = self.p
        if isinstance(value, Fraction):
            if value.denominator % p == 0:
                raise DivisionByZero("denominator divisible by p")
            value = value.numerator * pow(value.denominator, -1, p)
        if isinstance(value, int) or self.kind == "Fp":
            return FieldElement(self, int(value) % p)
        cs = [int(c) % p for c in value]
        if len(cs) > self.k:
            cs = _poly_mod(cs, self.modulus, p)
        return FieldElement(self, self._pack(cs))

    def generator(self) -> "FieldElement":
        """The class of t in GF(p^k)."""
        if self.kind != "Fpk":
            raise FieldConstructionError("only extension fields have a generator t")
        return FieldElement(self, 1 << self._width)

    def __repr__(self) -> str:
        return f"FieldSpec({self.header()})"

    def header(self) -> str:
        """Canonical text form, as used in input-file headers."""
        if self.kind == "Q":
            return "Q"
        if self.kind == "Fp":
            return f"F {self.p}"
        from .parsing import _t_polynomial

        return f"F {self.p}^{self.k} mod {_t_polynomial(self.modulus)}"


@record
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


@record
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
    p, w = spec.p, spec._width
    for idx in range(spec.order):
        raw = shift = 0
        while idx:
            idx, c = divmod(idx, p)
            raw |= c << shift
            shift += w
        yield FieldElement(spec, raw)


# -- stock fields ------------------------------------------------------------

QQ = FieldSpec.rationals()
GF2 = FieldSpec.prime_field(2)
GF3 = FieldSpec.prime_field(3)
GF4 = FieldSpec.extension_field(2, 2, (1, 1, 1))  # t^2 + t + 1
GF9 = FieldSpec.extension_field(3, 2, (1, 0, 1))  # t^2 + 1


def builtin_extension(spec: FieldSpec) -> FieldSpec | None:
    """A stock proper extension of a prime field, if one is shipped."""
    if spec == GF2:
        return GF4
    if spec == GF3:
        return GF9
    return None
