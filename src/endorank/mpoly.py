"""Sparse multivariate polynomials over an exact ground field.

A MultiPoly is a canonical map from packed monomial to nonzero raw
coefficient (see fields.py for raw representations).  Variables are
anonymous indices here — names like x1 or t exist only in the parser and
printer.  Exponent tuples appear only at the API edge: from_terms,
coefficient, leading_monomial and tuple_terms.

A monomial x1^e1..xn^en is one int, the same for every polynomial of n
variables (packed exponent vectors, Monagan & Pearce, CASC 2007): byte i-1
holds e_i, and the total degree, at most MAX_DEGREE = 127, sits above the n
exponent bytes.  So the top bit of every exponent byte is clear (a guard)
and an exponent sum of two monomials fits its byte.  Hence:

* multiplying two monomials adds their ints;
* a divides b exactly when (b - a) & guard == 0, with `guard` the top bits
  of the exponent bytes (the lowest exponent of a that is larger than b's
  borrows and sets its guard bit);
* the total degree is P >> 8n, so a larger degree is a larger int, and the
  constant monomial is 0.

Products, powers and substitution run in one integer kernel: term pairs
multiply and add as ints, and each output coefficient is reduced once, by
the field's `reduce`.  Over a finite field the raws already are those ints
(see fields.py); over Q the kernel works on numerators over one common
denominator.  A product or power with a one-term operand bypasses the
kernel: c*x^q shifts the other operand's keys by q and scales its
coefficients by c, and (c*x^q)^e is c^e*x^(q*e).

A global degree cap (default 64 total degree, at most MAX_DEGREE) turns
runaway products and substitutions into a hard DegreeCapExceeded error
instead of an effectively hung process.  K[x] is a domain, so each product
or power is checked once, from its operands' degrees (deg f + deg g, e *
deg f), and the error states that degree.  Over Q a power whose
coefficients would outgrow MAX_POWER_BITS raises CoefficientGrowthExceeded
before any work is done.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Iterable, Sequence

from .errors import (
    ArityMismatch,
    CoefficientGrowthExceeded,
    DegreeCapExceeded,
    SpecMismatch,
)
from .fields import FieldElement, FieldSpec, Raw

Monomial = tuple[int, ...]

# The largest total degree of a packed monomial: an exponent byte keeps its
# top bit as a guard.
MAX_DEGREE = 127

_degree_cap = 64

# Bound on the estimated coefficient size of one power over Q, in bits
# (about 315,000 decimal digits).
MAX_POWER_BITS = 1 << 20


def degree_cap() -> int:
    return _degree_cap


def set_degree_cap(cap: int) -> None:
    """Set the global total-degree cap, in 1..MAX_DEGREE."""
    global _degree_cap
    if not 1 <= cap <= MAX_DEGREE:
        raise ValueError(f"degree cap must lie in 1..{MAX_DEGREE}")
    _degree_cap = cap


# -- packed monomials ----------------------------------------------------------


def _pack(m) -> int:
    """The packed int of an exponent sequence (exponents in 0..255)."""
    return int.from_bytes(bytes(m), "little") + (sum(m) << (8 * len(m)))


def _exponents(p: int, nvars: int) -> bytes:
    """The exponents of a packed monomial of nvars variables."""
    return p.to_bytes(nvars + 1, "little")[:nvars]


def _layout(nvars: int) -> tuple[int, int]:
    """(shift of the degree, guard bits) of monomials of nvars variables."""
    return 8 * nvars, int.from_bytes(b"\x80" * nvars, "little")


def _checked_pack(m: Monomial, nvars: int) -> int:
    """An exponent tuple from outside, packed; refused when it does not fit."""
    if len(m) != nvars:
        raise ArityMismatch(f"monomial arity {len(m)} != {nvars}")
    degree = sum(m)
    if degree > MAX_DEGREE:
        raise DegreeCapExceeded(
            f"monomial degree {degree} exceeds the limit of {MAX_DEGREE}"
        )
    return _pack(m)


def mono_lcm(a: int, b: int, nvars: int) -> int:
    """The least common multiple of two packed monomials."""
    return _pack(bytes(map(max, _exponents(a, nvars), _exponents(b, nvars))))


# -- monomial orders ---------------------------------------------------------


class MonomialOrder:
    """Total order on monomials, exposed as a sort key (bigger key = bigger
    monomial).  Subclasses define `_key`; every caller goes through `key`.

    Every order here is also linear in the exponents: `weights(nvars, base)`
    gives integers W with sum(e_i * W_i) ordered exactly like `key`, and
    injective, for monomials whose total degree is below `base`."""

    name = "order"

    def key(self, m: Monomial) -> tuple:
        return self._key(m)

    def _key(self, m: Monomial) -> tuple:
        raise NotImplementedError

    def weights(self, nvars: int, base: int) -> tuple[int, ...]:
        raise NotImplementedError

    def __eq__(self, other):
        return type(self) is type(other) and self._ident() == other._ident()

    def __hash__(self):
        return hash((type(self).__name__, self._ident()))

    def _ident(self):
        return ()

    def __repr__(self):
        return self.name


def _grevlex_key(m: Monomial) -> tuple:
    # Ties at equal total degree break by the *smallest* trailing exponent:
    # reversed, negated exponents compare the right way lexicographically.
    return (sum(m), tuple(-e for e in reversed(m)))


def _grevlex_weights(nvars: int, base: int) -> tuple[int, ...]:
    # The same comparison as _grevlex_key, in digits of `base`, most
    # significant first: the degree, then the prefix sums e1+..+e(k) for
    # k = n-1 down to 1 (a smaller last exponent is a larger prefix sum).
    return tuple(
        base ** (nvars - 1) + sum(base ** (k - 1) for k in range(i + 1, nvars))
        for i in range(nvars)
    )


class GrevLex(MonomialOrder):
    """Graded reverse lexicographic order."""

    name = "grevlex"

    def _key(self, m):
        return _grevlex_key(m)

    def weights(self, nvars, base):
        return _grevlex_weights(nvars, base)


class Lex(MonomialOrder):
    """Pure lexicographic order, x1 > x2 > ..."""

    name = "lex"

    def _key(self, m):
        return m

    def weights(self, nvars, base):
        return tuple(base ** (nvars - 1 - i) for i in range(nvars))


class Block(MonomialOrder):
    """Elimination order: the eliminated block dominates, grevlex inside
    each block.  Any monomial touching an eliminated variable outranks every
    monomial that does not."""

    name = "block"

    def __init__(self, eliminated: Iterable[int]):
        self.eliminated = frozenset(eliminated)

    def _ident(self):
        return self.eliminated

    def _key(self, m):
        # _grevlex_key of each block, split off in one pass from the last
        # variable down: the block's degree, then its reversed, negated
        # exponents.
        elim = self.eliminated
        ne, nr = [], []
        for i in range(len(m) - 1, -1, -1):
            (ne if i in elim else nr).append(-m[i])
        return ((-sum(ne), tuple(ne)), (-sum(nr), tuple(nr)))

    def weights(self, nvars, base):
        elim = [i for i in range(nvars) if i in self.eliminated]
        rest = [i for i in range(nvars) if i not in self.eliminated]
        out = [0] * nvars
        scale = base ** len(rest)
        for i, w in zip(elim, _grevlex_weights(len(elim), base)):
            out[i] = w * scale
        for i, w in zip(rest, _grevlex_weights(len(rest), base)):
            out[i] = w
        return tuple(out)

    def __repr__(self):
        return f"block(elim={sorted(self.eliminated)})"


GREVLEX = GrevLex()
LEX = Lex()


# -- the integer kernel -------------------------------------------------------


class _Kernel:
    """Products and powers of polynomials over one field and arity, each a
    dict from packed monomial to int coefficient: the raw itself over a
    finite field, a numerator over Q, where the caller carries the common
    denominator."""

    __slots__ = ("spec", "nvars", "reduce", "deg_shift")

    def __init__(self, spec: FieldSpec, nvars: int):
        self.spec = spec
        self.nvars = nvars
        self.reduce = spec.reduce
        self.deg_shift = 8 * nvars

    def encode(self, f: MultiPoly) -> tuple[int, dict]:
        """(denominator, terms) of f, in f's term order."""
        if self.reduce is not None:
            return 1, f.terms
        den = lcm(*[c.denominator for c in f.terms.values()])
        if den == 1:
            return 1, {p: c.numerator for p, c in f.terms.items()}
        return den, {p: c.numerator * (den // c.denominator) for p, c in f.terms.items()}

    def decode(self, terms: dict, den: int) -> MultiPoly:
        if self.reduce is None:
            if den == 1:
                terms = {p: Fraction(v) for p, v in terms.items()}
            else:
                terms = {p: Fraction(v, den) for p, v in terms.items()}
        return MultiPoly(self.spec, self.nvars, terms)

    def settle(self, acc: dict) -> dict:
        """Accumulated coefficients reduced once each, zeros dropped."""
        reduce = self.reduce
        if reduce is None:
            return {p: v for p, v in acc.items() if v}
        return {p: v for p, v in zip(acc, map(reduce, acc.values())) if v}

    def product(self, a: dict, b: dict) -> dict:
        """a * b, refused past the cap unless an operand is zero."""
        if a and b:
            _check_degree(max(a) >> self.deg_shift, max(b) >> self.deg_shift)
        return self._product(a, b)

    def _product(self, a: dict, b: dict) -> dict:
        acc: dict = {}
        get = acc.get
        bs = b.items()
        for pa, ca in a.items():
            for pb, cb in bs:
                p = pa + pb
                acc[p] = get(p, 0) + ca * cb
        return self.settle(acc)

    def power(self, a: dict, e: int, den: int = 1) -> dict:
        """a^e by repeated squaring, refused when e * deg(a) passes the cap.
        Over Q (den is a's denominator) a power of two or more is then
        checked against MAX_POWER_BITS."""
        if a:
            _check_degree(max(a) >> self.deg_shift, e, power=True)
            if e > 1 and self.reduce is None:
                _check_growth(a, e, den)
        result = None
        while e:
            if e & 1:
                result = a if result is None else self._product(result, a)
            if e > 1:
                a = self._product(a, a)
            e >>= 1
        return {0: 1} if result is None else result


def _check_degree(d: int, e: int, power: bool = False) -> None:
    """Refuse a product of operands of degrees d and e (with power, the e-th
    power of an operand of degree d) whose degree passes the cap; the
    message names the operands' degrees."""
    degree = d * e if power else d + e
    if degree > _degree_cap:
        how = f"degree {d}, power {e}" if power else f"degrees {d} + {e}"
        raise DegreeCapExceeded(f"product degree {degree} exceeds cap {_degree_cap} ({how})")


def _check_growth(a: dict, e: int, den: int) -> None:
    """Coefficients of a^e take at most e * (bits + bits(#terms)) bits, with
    `bits` the size of a's largest numerator or of its denominator."""
    bits = max(den.bit_length(), max(abs(v).bit_length() for v in a.values()))
    estimate = e * (bits + len(a).bit_length())
    if estimate > MAX_POWER_BITS:
        raise CoefficientGrowthExceeded(
            f"mpoly: power {e} of a {len(a)}-term polynomial needs about "
            f"{estimate} coefficient bits, above the limit of {MAX_POWER_BITS} "
            "(a resource limit, not a negative answer)"
        )


def _add_terms(spec: FieldSpec, out: dict, terms: dict, negate: bool = False) -> dict:
    """out + terms (out - terms when negate), in place and returned: a new
    monomial goes last, a sum that cancels is dropped."""
    add = spec.sub_raw if negate else spec.add_raw
    for m, c in terms.items():
        prev = out.get(m)
        if prev is None:
            s = spec.neg_raw(c) if negate else c
        else:
            s = add(prev, c)
        if spec.is_zero_raw(s):
            out.pop(m, None)
        else:
            out[m] = s
    return out


# -- polynomials --------------------------------------------------------------


class MultiPoly:
    """Immutable sparse polynomial.  `terms` maps packed monomial -> nonzero
    raw coefficient and must never be mutated after construction."""

    __slots__ = ("spec", "nvars", "terms", "_hash")

    def __init__(self, spec: FieldSpec, nvars: int, terms: dict):
        if nvars < 1:
            raise ArityMismatch("polynomials need at least one variable")
        self.spec = spec
        self.nvars = nvars
        self.terms = terms
        self._hash = None

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_terms(spec: FieldSpec, nvars: int, items: Iterable[tuple[Monomial, Raw]]) -> "MultiPoly":
        """Build from (exponent tuple, raw) pairs, merging duplicates and
        dropping zeros so the stored form is canonical.  A monomial of
        total degree above MAX_DEGREE raises DegreeCapExceeded."""
        acc: dict = {}
        for m, c in items:
            p = _checked_pack(m, nvars)
            prev = acc.get(p)
            c = c if prev is None else spec.add_raw(prev, c)
            if spec.is_zero_raw(c):
                acc.pop(p, None)
            else:
                acc[p] = c
        return MultiPoly(spec, nvars, acc)

    @staticmethod
    def zero(spec: FieldSpec, nvars: int) -> "MultiPoly":
        return MultiPoly(spec, nvars, {})

    @staticmethod
    def constant(spec: FieldSpec, nvars: int, value) -> "MultiPoly":
        c = spec.element(value).raw
        if spec.is_zero_raw(c):
            return MultiPoly.zero(spec, nvars)
        return MultiPoly(spec, nvars, {0: c})

    @staticmethod
    def variable(spec: FieldSpec, nvars: int, index: int) -> "MultiPoly":
        """The polynomial x_index (0-based index)."""
        if not 0 <= index < nvars:
            raise ArityMismatch(f"variable index {index} out of range")
        mono = (1 << (8 * index)) + (1 << (8 * nvars))
        return MultiPoly(spec, nvars, {mono: spec.one_raw()})

    # -- inspectors ----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return not any(self.terms)

    def total_degree(self) -> int:
        """Degree of the zero polynomial is reported as -1."""
        return max(self.terms, default=-1) >> (8 * self.nvars)

    def tuple_terms(self) -> dict[Monomial, Raw]:
        """The terms keyed by exponent tuples, in the same order."""
        n = self.nvars
        return {tuple(_exponents(p, n)): c for p, c in self.terms.items()}

    def constant_term(self) -> FieldElement:
        return FieldElement(self.spec, self.terms.get(0, self.spec.zero_raw()))

    def coefficient(self, m: Monomial) -> FieldElement:
        raw = self.terms.get(_checked_pack(m, self.nvars), self.spec.zero_raw())
        return FieldElement(self.spec, raw)

    def variables_used(self) -> set[int]:
        support = 0
        for p in self.terms:
            support |= p
        return {i for i, e in enumerate(_exponents(support, self.nvars)) if e}

    def leading_monomial(self, order: MonomialOrder) -> Monomial:
        if not self.terms:
            raise ValueError("the zero polynomial has no leading monomial")
        return max(self.tuple_terms(), key=order.key)

    def leading_coefficient(self, order: MonomialOrder) -> FieldElement:
        return self.coefficient(self.leading_monomial(order))

    def degree_one_part(self) -> "MultiPoly":
        """The homogeneous degree-1 slice (used for linear-part analysis)."""
        shift = 8 * self.nvars
        return MultiPoly(
            self.spec,
            self.nvars,
            {p: c for p, c in self.terms.items() if p >> shift == 1},
        )

    # -- arithmetic ----------------------------------------------------------

    def _check(self, other: "MultiPoly") -> None:
        if not isinstance(other, MultiPoly):
            raise TypeError(f"expected MultiPoly, got {type(other).__name__}")
        if other.spec != self.spec:
            raise SpecMismatch("polynomials over different fields")
        if other.nvars != self.nvars:
            raise ArityMismatch(f"arity mismatch: {self.nvars} vs {other.nvars}")

    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        self._check(other)
        out = _add_terms(self.spec, dict(self.terms), other.terms)
        return MultiPoly(self.spec, self.nvars, out)

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        self._check(other)
        out = _add_terms(self.spec, dict(self.terms), other.terms, negate=True)
        return MultiPoly(self.spec, self.nvars, out)

    def __neg__(self) -> "MultiPoly":
        spec = self.spec
        return MultiPoly(
            spec, self.nvars, {m: spec.neg_raw(c) for m, c in self.terms.items()}
        )

    def __mul__(self, other: "MultiPoly") -> "MultiPoly":
        self._check(other)
        a, b = self.terms, other.terms
        # A one-term operand goes second, the one with coefficient 1 when
        # both have one term.
        if len(a) == 1 and (len(b) != 1 or 1 in a.values()):
            a, b = b, a
        if len(b) == 1:
            return self._times_term(a, *next(iter(b.items())))
        kernel = _Kernel(self.spec, self.nvars)
        da, a = kernel.encode(self)
        db, b = kernel.encode(other)
        return kernel.decode(kernel.product(a, b), da * db)

    def _times_term(self, terms: dict, q: int, d: Raw) -> "MultiPoly":
        """terms times d*x^q.  A field has no zero divisors, so no term
        vanishes."""
        if terms:
            shift = 8 * self.nvars
            _check_degree(max(terms) >> shift, q >> shift)
        if d == 1:
            out = {p + q: c for p, c in terms.items()}
        else:
            mul = self.spec.mul_raw
            out = {p + q: mul(c, d) for p, c in terms.items()}
        return MultiPoly(self.spec, self.nvars, out)

    def __pow__(self, e: int) -> "MultiPoly":
        if e < 0:
            raise ValueError("negative polynomial power")
        spec, terms = self.spec, self.terms
        if len(terms) == 1 and e:
            ((q, d),) = terms.items()
            _check_degree(q >> (8 * self.nvars), e, power=True)
            if e > 1 and d != 1:
                if spec.kind == "Q" and d != -1:
                    _check_growth({q: d.numerator}, e, d.denominator)
                d = spec.pow_raw(d, e)
            return MultiPoly(spec, self.nvars, {q * e: d})
        kernel = _Kernel(spec, self.nvars)
        den, a = kernel.encode(self)
        return kernel.decode(kernel.power(a, e, den), den**e)

    def scale(self, c) -> "MultiPoly":
        """Multiply by a scalar (FieldElement, raw value, or int)."""
        spec = self.spec
        raw = spec.element(c).raw if not isinstance(c, FieldElement) else c.raw
        if isinstance(c, FieldElement) and c.spec != spec:
            raise SpecMismatch("scalar from a different field")
        if spec.is_zero_raw(raw):
            return MultiPoly.zero(spec, self.nvars)
        return MultiPoly(
            spec, self.nvars, {m: spec.mul_raw(v, raw) for m, v in self.terms.items()}
        )

    # -- evaluation and substitution ----------------------------------------

    def evaluate(self, point: Sequence[FieldElement]) -> FieldElement:
        """Value at a point of the field (exact)."""
        if len(point) != self.nvars:
            raise ArityMismatch(f"point arity {len(point)} != {self.nvars}")
        spec = self.spec
        raws = []
        for v in point:
            if isinstance(v, FieldElement):
                if v.spec != spec:
                    raise SpecMismatch("point over a different field")
                raws.append(v.raw)
            else:
                raws.append(spec.element(v).raw)
        pow_cache: dict[tuple[int, int], Raw] = {}
        total = spec.zero_raw()
        for m, c in self.tuple_terms().items():
            acc = c
            for i, e in enumerate(m):
                if e:
                    key = (i, e)
                    pw = pow_cache.get(key)
                    if pw is None:
                        pw = spec.pow_raw(raws[i], e)
                        pow_cache[key] = pw
                    acc = spec.mul_raw(acc, pw)
            total = spec.add_raw(total, acc)
        return FieldElement(spec, total)

    def substitute(self, images: Sequence["MultiPoly"]) -> "MultiPoly":
        """Apply the algebra map x_i -> images[i].  The images may live in a
        ring with a different number of variables; the result lives there.
        The images and their powers stay in the kernel's int form until the
        result is read out."""
        if len(images) != self.nvars:
            raise ArityMismatch(
                f"{self.nvars} variables but {len(images)} substitution images"
            )
        spec = self.spec
        target_n = images[0].nvars
        for g in images:
            if g.spec != spec:
                raise SpecMismatch("substitution image over a different field")
            if g.nvars != target_n:
                raise ArityMismatch("substitution images disagree on arity")
        kernel = _Kernel(spec, target_n)
        encoded = [kernel.encode(g) for g in images]
        den, coeffs = kernel.encode(self)
        exponents = [_exponents(p, self.nvars) for p in self.terms]
        # Over Q, x_i^e becomes an int polynomial over D_i^e, D_i the
        # denominator of image i.  Every term is brought over the common
        # denominator den * prod(D_i^top_i), top_i the largest exponent of x_i.
        lifts = []
        for i, (d, _) in enumerate(encoded):
            if d != 1:
                top = max((m[i] for m in exponents), default=0)
                lifts.append((i, d, top))
                den *= d**top
        powers: dict[tuple[int, int], dict] = {}
        total: dict = {}
        get = total.get
        for m, c in zip(exponents, coeffs.values()):
            for i, d, top in lifts:
                c *= d ** (top - m[i])
            acc = None  # the constant c until the first factor
            for i, e in enumerate(m):
                if e:
                    pw = powers.get((i, e))
                    if pw is None:
                        d, terms = encoded[i]
                        pw = powers[(i, e)] = kernel.power(terms, e, d)
                    if acc is not None:
                        acc = kernel.product(acc, pw)
                    else:
                        acc = pw if c == 1 else kernel.product({0: c}, pw)
                    if not acc:
                        break
            for p, v in ((0, c),) if acc is None else acc.items():
                total[p] = get(p, 0) + v
        return kernel.decode(kernel.settle(total), den)

    def partial_derivative(self, var: int) -> "MultiPoly":
        """Formal partial derivative with respect to x_var (0-based).  Exact
        in positive characteristic: exponent multiples reduce mod p."""
        if not 0 <= var < self.nvars:
            raise ArityMismatch(f"variable index {var} out of range")
        spec = self.spec
        shift = 8 * var
        # Dividing by x_var: one off its exponent byte and one off the degree.
        step = (1 << shift) + (1 << (8 * self.nvars))
        out: dict = {}
        for p, c in self.terms.items():
            e = (p >> shift) & 0xFF
            if e:
                d = spec.mul_int_raw(c, e)
                if not spec.is_zero_raw(d):
                    out[p - step] = d
        return MultiPoly(spec, self.nvars, out)

    # -- equality, hashing, printing -----------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MultiPoly)
            and self.spec == other.spec
            and self.nvars == other.nvars
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(
                (self.spec, self.nvars, frozenset(self.terms.items()))
            )
        return self._hash

    def __str__(self) -> str:
        from .parsing import format_poly

        return format_poly(self)

    def __repr__(self) -> str:
        return f"MultiPoly({self})"
