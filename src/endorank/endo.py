"""Endomorphisms of K[x1..xn]: composition, rank, and the induced preorder.

An endomorphism is stored by its defining images phi(x_k).  Two independent
rank readings are provided:

* "elimination" — the dimension of the relation ideal (all algebraic
  relations among the images).  Exact over every supported field; this is
  the ground truth.
* "jacobian-probe" — the Jacobian rank maximized over a few sampled rational
  points.  A fast lower bound, only offered over Q: in characteristic p the
  derivative of a p-th power vanishes identically and the probe would be
  systematically misled.

The preorder compares relation ideals by containment: phi is below psi when
every relation satisfied by psi's images is satisfied by phi's.  Constant
maps sit at the bottom, automorphisms at the top, and rank is strictly
monotone along strict comparisons.
"""

from __future__ import annotations

import random
from enum import Enum
from fractions import Fraction
from typing import Optional, Sequence

from .errors import (
    ArityMismatch,
    InvalidIndex,
    JacobianUnavailable,
    SpecMismatch,
)
from .fields import FieldElement, FieldSpec
from .groebner import (
    GREVLEX,
    Ideal,
    eliminate,
    graph_ideal,
    groebner_basis,
    ideal_dimension,
    memoized,
)
from .mpoly import MultiPoly
from .records import record


@record
class Endomorphism:
    """An algebra endomorphism of K[x1..xn], given by the images of the
    variables.  Immutable and hashable, so results can be memoized on it."""

    spec: FieldSpec
    nvars: int
    images: tuple[MultiPoly, ...]

    def __post_init__(self):
        if len(self.images) != self.nvars:
            raise ArityMismatch(
                f"{self.nvars} variables but {len(self.images)} images"
            )
        for img in self.images:
            if img.spec != self.spec:
                raise SpecMismatch("image over a different field")
            if img.nvars != self.nvars:
                raise ArityMismatch("image uses a different variable count")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def identity(spec: FieldSpec, nvars: int) -> "Endomorphism":
        return Endomorphism(
            spec,
            nvars,
            tuple(MultiPoly.variable(spec, nvars, k) for k in range(nvars)),
        )

    @staticmethod
    def constant(spec: FieldSpec, nvars: int, point: Sequence) -> "Endomorphism":
        """The rank-0 map sending every variable to a constant."""
        if len(point) != nvars:
            raise ArityMismatch("constant point has the wrong arity")
        return Endomorphism(
            spec,
            nvars,
            tuple(MultiPoly.constant(spec, nvars, v) for v in point),
        )

    @staticmethod
    def zero(spec: FieldSpec, nvars: int) -> "Endomorphism":
        return Endomorphism.constant(spec, nvars, [0] * nvars)

    # -- actions -------------------------------------------------------------

    def apply(self, f: MultiPoly) -> MultiPoly:
        """phi(f) = f(phi(x1), .., phi(xn))."""
        return f.substitute(self.images)

    def point_map(self, point: Sequence) -> tuple[FieldElement, ...]:
        """The induced map on points: evaluate every image at the point."""
        return tuple(img.evaluate(point) for img in self.images)

    def constant_part(self) -> tuple[FieldElement, ...]:
        return tuple(img.constant_term() for img in self.images)

    @property
    def is_identity(self) -> bool:
        return self == Endomorphism.identity(self.spec, self.nvars)

    def __str__(self) -> str:
        return "; ".join(
            f"x{k} -> {img}" for k, img in enumerate(self.images, start=1)
        )

    def __repr__(self) -> str:
        return f"Endomorphism({self})"


def compose(outer: Endomorphism, inner: Endomorphism) -> Endomorphism:
    """outer after inner: (outer . inner)(f) = outer(inner(f)).

    On generators this substitutes outer's images into inner's defining
    polynomials, because outer acts on whatever inner produced.
    """
    if outer.spec != inner.spec:
        raise SpecMismatch("composition across different fields")
    if outer.nvars != inner.nvars:
        raise ArityMismatch("composition across different variable counts")
    return Endomorphism(
        outer.spec,
        outer.nvars,
        tuple(img.substitute(outer.images) for img in inner.images),
    )


def kronecker_endo(spec: FieldSpec, nvars: int, i: int, j: int) -> Endomorphism:
    """The standard matrix-unit endomorphism at position (i, j), 1-based:
    x_j goes to x_i and every other variable goes to 0.  These satisfy
    e_ij . e_km = delta_jk e_im under `compose`."""
    if not (1 <= i <= nvars and 1 <= j <= nvars):
        raise InvalidIndex(f"position ({i}, {j}) outside 1..{nvars}")
    zero = MultiPoly.zero(spec, nvars)
    xi = MultiPoly.variable(spec, nvars, i - 1)
    images = tuple(xi if k == j - 1 else zero for k in range(nvars))
    return Endomorphism(spec, nvars, images)


# -- the relation ideal and rank --------------------------------------------


@memoized
def relation_ideal(endo: Endomorphism) -> Ideal:
    """All algebraic relations among the defining images, as an ideal in a
    fresh n-variable ring: the kernel of x_k -> images[k].  Computed by
    eliminating x from the graph ideal; the result is prime, being a kernel
    into a domain."""
    return eliminate(graph_ideal(endo.images), range(endo.nvars))


@record
class RankCertificate:
    """Rank value plus enough context to audit it."""

    value: int
    method: str  # "elimination" | "jacobian-probe"
    relation_generators: tuple[MultiPoly, ...] = ()
    probe_point: Optional[tuple] = None
    is_lower_bound: bool = False


def jacobian_rank_at(endo: Endomorphism, point: Sequence) -> int:
    """Rank of the Jacobian matrix of the defining images at a point.  Works
    over any field (callers over finite fields must interpret it with care:
    it is a lower bound that can be badly slack there)."""
    spec = endo.spec
    n = endo.nvars
    rows = [
        [endo.images[a].partial_derivative(b).evaluate(point).raw for b in range(n)]
        for a in range(n)
    ]
    # Exact Gaussian elimination on raw values.
    rank = 0
    col = 0
    r = 0
    while r < n and col < n:
        pivot = next(
            (i for i in range(r, n) if not spec.is_zero_raw(rows[i][col])), None
        )
        if pivot is None:
            col += 1
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = spec.inv_raw(rows[r][col])
        rows[r] = [spec.mul_raw(v, inv) for v in rows[r]]
        for i in range(n):
            if i != r and not spec.is_zero_raw(rows[i][col]):
                f = rows[i][col]
                rows[i] = [
                    spec.sub_raw(v, spec.mul_raw(f, w))
                    for v, w in zip(rows[i], rows[r])
                ]
        rank += 1
        r += 1
        col += 1
    return rank


def _probe_points(nvars: int, seed: int) -> list[tuple[Fraction, ...]]:
    rng = random.Random(1_000_003 + seed)
    return [
        tuple(Fraction(rng.randint(-9, 9)) for _ in range(nvars))
        for _ in range(3)
    ]


def rank(
    endo: Endomorphism, method: str = "elimination", seed: int = 0
) -> RankCertificate:
    """Rank of the endomorphism (dimension of the closure of its image).

    method "elimination" is exact.  method "jacobian-probe" (Q only) reports
    the best Jacobian rank over a few seeded sample points — a fast lower
    bound that is generically tight.
    """
    # Every field by position: the fast path of records.record.
    if method == "elimination":
        ideal = relation_ideal(endo)
        gens = groebner_basis(ideal, GREVLEX).polys
        return RankCertificate(
            ideal_dimension(ideal), "elimination", gens, None, False
        )
    if method == "jacobian-probe":
        if endo.spec.is_finite:
            raise JacobianUnavailable(
                "jacobian probe refused over a finite field: derivatives of "
                "p-th powers vanish identically, so the probe would "
                "undercount; use elimination"
            )
        best = -1
        best_point: Optional[tuple] = None
        for pt in _probe_points(endo.nvars, seed):
            r = jacobian_rank_at(endo, pt)
            if r > best:
                best = r
                best_point = pt
        return RankCertificate(best, "jacobian-probe", (), best_point, True)
    raise ValueError(f"unknown rank method {method!r}")


# -- the preorder --------------------------------------------------------------


class Verdict(Enum):
    EQUIVALENT = "equivalent"
    STRICTLY_BELOW = "strictly-below"
    STRICTLY_ABOVE = "strictly-above"
    INCOMPARABLE = "incomparable"


def _ideal_superset(big: Ideal, small: Ideal) -> bool:
    gb = groebner_basis(big, GREVLEX)
    return all(gb.contains(g) for g in small.generators)


def compare(phi: Endomorphism, psi: Endomorphism) -> Verdict:
    """Position of phi relative to psi in the preorder.

    phi is below psi exactly when phi's relation ideal contains psi's; then
    composing with anything can only merge phi's fibers at least as much as
    psi's.  Constant maps are minimal, automorphisms maximal.
    """
    if phi.spec != psi.spec:
        raise SpecMismatch("comparison across different fields")
    if phi.nvars != psi.nvars:
        raise ArityMismatch("comparison across different variable counts")
    i_phi = relation_ideal(phi)
    i_psi = relation_ideal(psi)
    below = _ideal_superset(i_phi, i_psi)
    above = _ideal_superset(i_psi, i_phi)
    if below and above:
        return Verdict.EQUIVALENT
    if below:
        return Verdict.STRICTLY_BELOW
    if above:
        return Verdict.STRICTLY_ABOVE
    return Verdict.INCOMPARABLE


@record
class FalsifierReport:
    """Outcome of randomized cross-examination of a comparison verdict.

    Engineered pairs (phi1, phi2) satisfy psi.phi1 = psi.phi2 by
    construction; under a below/equivalent verdict each such pair must also
    satisfy phi.phi1 = phi.phi2.  Separation witnesses certify strictness:
    polynomials in one relation ideal but not the other.
    """

    verdict: "Verdict"
    samples: int
    nonvacuous: int
    implication_failures: int
    separation_witnesses: tuple[MultiPoly, ...]
    consistent: bool


def _find_separator(big: Ideal, small: Ideal) -> Optional[MultiPoly]:
    """A generator of `big` that is not in `small` (exists iff big > small)."""
    small_gb = groebner_basis(small, GREVLEX)
    for g in groebner_basis(big, GREVLEX).polys:
        if not small_gb.contains(g):
            return g
    return None


def equivalence_falsifier(
    phi: Endomorphism,
    psi: Endomorphism,
    trials: int = 25,
    seed: int = 0,
) -> FalsifierReport:
    """Stress-test compare(phi, psi) against the compositional definition.

    For each trial a random phi1 and a random member H of psi's relation
    ideal give phi2 = phi1 - H, so psi.phi1 = psi.phi2 holds by construction
    (and is asserted).  A below/equivalent verdict predicts phi.phi1 =
    phi.phi2 on every sample; equivalently H must die under phi's images.
    Strict and incomparable verdicts are certified by explicit separating
    polynomials rather than sampling.
    """
    from .sampling import random_endomorphism, random_nonzero_scalar

    if trials < 0:
        raise ValueError(f"trials must be at least 0, got {trials}")
    verdict = compare(phi, psi)
    rng = random.Random(seed)
    spec = phi.spec
    n = phi.nvars

    directions: list[tuple[Endomorphism, Endomorphism]] = []
    if verdict in (Verdict.STRICTLY_BELOW, Verdict.EQUIVALENT):
        directions.append((phi, psi))  # members of I_psi must die under phi
    if verdict in (Verdict.STRICTLY_ABOVE, Verdict.EQUIVALENT):
        directions.append((psi, phi))

    samples = 0
    nonvacuous = 0
    failures = 0
    for low, high in directions:
        # Relation ideals live in a fresh n-variable ring, so their
        # generators can be read straight back as polynomials in x.
        high_gens = groebner_basis(relation_ideal(high), GREVLEX).polys
        for _ in range(trials):
            samples += 1
            phi1 = random_endomorphism(
                rng, spec, n, max_degree=2, max_terms=2
            )
            hs = []
            for _k in range(n):
                h = MultiPoly.zero(spec, n)
                if high_gens and rng.random() < 0.8:
                    g = rng.choice(high_gens)
                    c = random_nonzero_scalar(rng, spec)
                    h = g.scale(c)
                hs.append(h)
            if any(not h.is_zero for h in hs):
                nonvacuous += 1
            phi2 = Endomorphism(
                spec, n, tuple(a - h for a, h in zip(phi1.images, hs))
            )
            # The premise high.phi1 = high.phi2: phi2 = phi1 - h, and
            # substitution is a ring map, so each h must die under high.
            if any(not h.substitute(high.images).is_zero for h in hs):
                raise RuntimeError("engineered pair failed its own premise")
            if compose(low, phi1) != compose(low, phi2):
                failures += 1

    expected_witnesses = {
        Verdict.EQUIVALENT: 0,
        Verdict.STRICTLY_BELOW: 1,
        Verdict.STRICTLY_ABOVE: 1,
        Verdict.INCOMPARABLE: 2,
    }[verdict]
    witnesses: list[MultiPoly] = []
    i_phi = relation_ideal(phi)
    i_psi = relation_ideal(psi)
    if verdict in (Verdict.STRICTLY_BELOW, Verdict.INCOMPARABLE):
        w = _find_separator(i_phi, i_psi)
        if w is not None:
            # Dies under phi, survives under psi: separates the two fiber
            # partitions.
            witnesses.append(w)
    if verdict in (Verdict.STRICTLY_ABOVE, Verdict.INCOMPARABLE):
        w = _find_separator(i_psi, i_phi)
        if w is not None:
            witnesses.append(w)

    ok = failures == 0 and len(witnesses) == expected_witnesses
    for w in witnesses:
        died_phi = w.substitute(phi.images).is_zero
        died_psi = w.substitute(psi.images).is_zero
        if died_phi == died_psi:
            ok = False
    return FalsifierReport(
        verdict=verdict,
        samples=samples,
        nonvacuous=nonvacuous,
        implication_failures=failures,
        separation_witnesses=tuple(witnesses),
        consistent=ok,
    )
