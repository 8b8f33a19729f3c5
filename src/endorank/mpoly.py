"""Sparse multivariate polynomials over an exact ground field.

Monomials are plain exponent tuples; a MultiPoly is a canonical map from
monomial to nonzero raw coefficient (see fields.py for raw representations).
Variables are anonymous indices here — names like x1 or t exist only in the
parser and printer.

A global degree cap (default 64 total degree) turns runaway products and
substitutions into a hard DegreeCapExceeded error instead of an effectively
hung process.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .errors import ArityMismatch, DegreeCapExceeded, SpecMismatch
from .fields import FieldElement, FieldSpec, Raw

Monomial = tuple[int, ...]

_degree_cap = 64


def degree_cap() -> int:
    return _degree_cap


def set_degree_cap(cap: int) -> None:
    """Set the global total-degree cap (must be positive)."""
    global _degree_cap
    if cap < 1:
        raise ValueError("degree cap must be positive")
    _degree_cap = cap


# -- monomial helpers --------------------------------------------------------


def mono_mul(a: Monomial, b: Monomial) -> Monomial:
    return tuple(x + y for x, y in zip(a, b))


def mono_lcm(a: Monomial, b: Monomial) -> Monomial:
    return tuple(max(x, y) for x, y in zip(a, b))


def mono_degree(a: Monomial) -> int:
    return sum(a)


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
        elim = tuple(e for i, e in enumerate(m) if i in self.eliminated)
        rest = tuple(e for i, e in enumerate(m) if i not in self.eliminated)
        return (_grevlex_key(elim), _grevlex_key(rest))

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


# -- polynomials --------------------------------------------------------------


class MultiPoly:
    """Immutable sparse polynomial.  `terms` maps monomial -> nonzero raw
    coefficient and must never be mutated after construction."""

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
        """Build from (monomial, raw) pairs, merging duplicates and dropping
        zeros so the stored form is canonical."""
        acc: dict = {}
        for m, c in items:
            if len(m) != nvars:
                raise ArityMismatch(f"monomial arity {len(m)} != {nvars}")
            prev = acc.get(m)
            c = c if prev is None else spec.add_raw(prev, c)
            if spec.is_zero_raw(c):
                acc.pop(m, None)
            else:
                acc[m] = c
        return MultiPoly(spec, nvars, acc)

    @staticmethod
    def zero(spec: FieldSpec, nvars: int) -> "MultiPoly":
        return MultiPoly(spec, nvars, {})

    @staticmethod
    def constant(spec: FieldSpec, nvars: int, value) -> "MultiPoly":
        c = spec.element(value).raw
        if spec.is_zero_raw(c):
            return MultiPoly.zero(spec, nvars)
        return MultiPoly(spec, nvars, {(0,) * nvars: c})

    @staticmethod
    def variable(spec: FieldSpec, nvars: int, index: int) -> "MultiPoly":
        """The polynomial x_index (0-based index)."""
        if not 0 <= index < nvars:
            raise ArityMismatch(f"variable index {index} out of range")
        mono = tuple(1 if i == index else 0 for i in range(nvars))
        return MultiPoly(spec, nvars, {mono: spec.one_raw()})

    # -- inspectors ----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(mono_degree(m) == 0 for m in self.terms)

    def total_degree(self) -> int:
        """Degree of the zero polynomial is reported as -1."""
        if not self.terms:
            return -1
        return max(mono_degree(m) for m in self.terms)

    def constant_term(self) -> FieldElement:
        raw = self.terms.get((0,) * self.nvars, self.spec.zero_raw())
        return FieldElement(self.spec, raw)

    def coefficient(self, m: Monomial) -> FieldElement:
        return FieldElement(self.spec, self.terms.get(m, self.spec.zero_raw()))

    def variables_used(self) -> set[int]:
        used: set[int] = set()
        for m in self.terms:
            for i, e in enumerate(m):
                if e:
                    used.add(i)
        return used

    def leading_monomial(self, order: MonomialOrder) -> Monomial:
        if not self.terms:
            raise ValueError("the zero polynomial has no leading monomial")
        return max(self.terms, key=order.key)

    def leading_coefficient(self, order: MonomialOrder) -> FieldElement:
        return FieldElement(self.spec, self.terms[self.leading_monomial(order)])

    def degree_one_part(self) -> "MultiPoly":
        """The homogeneous degree-1 slice (used for linear-part analysis)."""
        return MultiPoly(
            self.spec,
            self.nvars,
            {m: c for m, c in self.terms.items() if mono_degree(m) == 1},
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
        spec = self.spec
        out = dict(self.terms)
        for m, c in other.terms.items():
            prev = out.get(m)
            s = c if prev is None else spec.add_raw(prev, c)
            if spec.is_zero_raw(s):
                out.pop(m, None)
            else:
                out[m] = s
        return MultiPoly(spec, self.nvars, out)

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        self._check(other)
        spec = self.spec
        out = dict(self.terms)
        for m, c in other.terms.items():
            prev = out.get(m)
            s = spec.neg_raw(c) if prev is None else spec.sub_raw(prev, c)
            if spec.is_zero_raw(s):
                out.pop(m, None)
            else:
                out[m] = s
        return MultiPoly(spec, self.nvars, out)

    def __neg__(self) -> "MultiPoly":
        spec = self.spec
        return MultiPoly(
            spec, self.nvars, {m: spec.neg_raw(c) for m, c in self.terms.items()}
        )

    def __mul__(self, other: "MultiPoly") -> "MultiPoly":
        self._check(other)
        spec = self.spec
        cap = _degree_cap
        out: dict = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = mono_mul(m1, m2)
                if sum(m) > cap:
                    raise DegreeCapExceeded(
                        f"product degree {sum(m)} exceeds cap {cap}"
                    )
                c = spec.mul_raw(c1, c2)
                prev = out.get(m)
                s = c if prev is None else spec.add_raw(prev, c)
                if spec.is_zero_raw(s):
                    out.pop(m, None)
                else:
                    out[m] = s
        return MultiPoly(spec, self.nvars, out)

    def __pow__(self, e: int) -> "MultiPoly":
        if e < 0:
            raise ValueError("negative polynomial power")
        result = MultiPoly.constant(self.spec, self.nvars, 1)
        base = self
        while e:
            if e & 1:
                result = result * base
            if e > 1:
                base = base * base
            e >>= 1
        return result

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
        for m, c in self.terms.items():
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
        ring with a different number of variables; the result lives there."""
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
        pow_cache: dict[tuple[int, int], MultiPoly] = {}

        def power(i: int, e: int) -> MultiPoly:
            key = (i, e)
            got = pow_cache.get(key)
            if got is None:
                got = images[i] ** e
                pow_cache[key] = got
            return got

        total = MultiPoly.zero(spec, target_n)
        for m, c in self.terms.items():
            acc = MultiPoly.constant(spec, target_n, FieldElement(spec, c))
            for i, e in enumerate(m):
                if e:
                    acc = acc * power(i, e)
                    if acc.is_zero:
                        break
            total = total + acc
        return total

    def partial_derivative(self, var: int) -> "MultiPoly":
        """Formal partial derivative with respect to x_var (0-based).  Exact
        in positive characteristic: exponent multiples reduce mod p."""
        if not 0 <= var < self.nvars:
            raise ArityMismatch(f"variable index {var} out of range")
        spec = self.spec
        out: dict = {}
        for m, c in self.terms.items():
            e = m[var]
            if e == 0:
                continue
            d = spec.mul_int_raw(c, e)
            if spec.is_zero_raw(d):
                continue
            mm = tuple(x - 1 if i == var else x for i, x in enumerate(m))
            prev = out.get(mm)
            s = d if prev is None else spec.add_raw(prev, d)
            if spec.is_zero_raw(s):
                out.pop(mm, None)
            else:
                out[mm] = s
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
