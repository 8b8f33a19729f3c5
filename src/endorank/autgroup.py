"""Semi-linear automorphisms of K[x1..xn] and conjugation of endomorphisms.

A semi-linear automorphism pairs a field automorphism delta (acting on
coefficients) with an invertible polynomial substitution s, acting as
f |-> f^delta(s1, .., sn).  Conjugation Phi(g) = L . g . L^(-1) is an
automorphism of the endomorphism semigroup; it preserves composition, rank,
and carries matrix-unit families to matrix-unit families.  The verifier at
the bottom spot-checks exactly those invariants on seeded samples.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .endo import Endomorphism, compose, rank
from .errors import (
    ArityMismatch,
    GeneratorNotFound,
    NotABase,
    RelationViolation,
    SpecMismatch,
)
from .fields import FieldAutomorphism, FieldSpec
from .groebner import invert_poly_map
from .kronecker import KroneckerSystem, verify_base_external
from .mpoly import MultiPoly
from .sampling import random_endomorphism


def map_coeffs(f: MultiPoly, delta: FieldAutomorphism) -> MultiPoly:
    """Apply a field automorphism to every coefficient."""
    if delta.spec != f.spec:
        raise SpecMismatch("coefficient map over the wrong field")
    if delta.is_identity:
        return f
    # A field automorphism maps nonzero coefficients to nonzero ones.
    return MultiPoly(
        f.spec, f.nvars, {m: delta.apply_raw(c) for m, c in f.terms.items()}
    )


@dataclass(frozen=True)
class SemiLinearAut:
    """delta on coefficients followed by the substitution x_k -> s_k.

    s_inv is the certified inverse tuple: s_k(s_inv) = x_k and
    s_inv_k(s) = x_k.  Build through create(), which computes and checks it.
    """

    delta: FieldAutomorphism
    s: tuple[MultiPoly, ...]
    s_inv: tuple[MultiPoly, ...]

    @staticmethod
    def create(
        delta: FieldAutomorphism, images: tuple[MultiPoly, ...]
    ) -> "SemiLinearAut":
        if not images:
            raise ArityMismatch("empty substitution")
        spec = images[0].spec
        n = images[0].nvars
        if delta.spec != spec:
            raise SpecMismatch("delta acts on a different field")
        if len(images) != n or any(
            f.spec != spec or f.nvars != n for f in images
        ):
            raise ArityMismatch("substitution must be a square self-map")
        inv = invert_poly_map(images)
        if inv is None:
            raise NotABase("the substitution part is not invertible")
        return SemiLinearAut(delta, tuple(images), inv)

    @staticmethod
    def identity(spec: FieldSpec, nvars: int) -> "SemiLinearAut":
        xs = tuple(MultiPoly.variable(spec, nvars, k) for k in range(nvars))
        return SemiLinearAut(FieldAutomorphism.identity(spec), xs, xs)

    @property
    def spec(self) -> FieldSpec:
        return self.delta.spec

    @property
    def nvars(self) -> int:
        return len(self.s)

    @property
    def is_inner(self) -> bool:
        """Pure substitution: trivial coefficient action."""
        return self.delta.is_identity

    def apply(self, f: MultiPoly) -> MultiPoly:
        """f |-> f^delta(s)."""
        return map_coeffs(f, self.delta).substitute(self.s)

    def inverse(self) -> "SemiLinearAut":
        d_inv = self.delta.inverse()
        return SemiLinearAut(
            d_inv,
            tuple(map_coeffs(w, d_inv) for w in self.s_inv),
            tuple(map_coeffs(w, d_inv) for w in self.s),
        )

    def __str__(self) -> str:
        subst = "; ".join(
            f"x{k + 1} -> {img}" for k, img in enumerate(self.s)
        )
        return f"[{self.delta}] {subst}"


def compose_semilinear(a: SemiLinearAut, b: SemiLinearAut) -> SemiLinearAut:
    """a after b: f |-> a(b(f))."""
    if a.spec != b.spec or a.nvars != b.nvars:
        raise SpecMismatch("automorphisms over different rings")
    delta = a.delta.compose(b.delta)
    s = tuple(map_coeffs(f, a.delta).substitute(a.s) for f in b.s)
    twisted = tuple(map_coeffs(w, a.delta) for w in b.s_inv)
    s_inv = tuple(f.substitute(twisted) for f in a.s_inv)
    return SemiLinearAut(delta, s, s_inv)


def conjugate(a: SemiLinearAut, g: Endomorphism) -> Endomorphism:
    """Phi(g) = a . g . a^(-1), computed image by image:
    x_k -> a(g(a^(-1)(x_k)))."""
    if a.spec != g.spec or a.nvars != g.nvars:
        raise SpecMismatch("conjugation over the wrong ring")
    d_inv = a.delta.inverse()
    out = []
    for k in range(a.nvars):
        u = map_coeffs(a.s_inv[k], d_inv)
        v = u.substitute(g.images)
        out.append(map_coeffs(v, a.delta).substitute(a.s))
    return Endomorphism(g.spec, g.nvars, tuple(out))


@dataclass(frozen=True)
class ConjugationReport:
    aut: SemiLinearAut
    ok: bool
    inner: bool
    samples: tuple
    rank_pairs: tuple[tuple[int, int], ...]
    kronecker_base_check: bool
    problems: tuple[str, ...]


def verify_automorphism_properties(
    aut: SemiLinearAut, trials: int = 8, seed: int = 0
) -> ConjugationReport:
    """Spot-check that conjugation by aut behaves like a semigroup
    automorphism: multiplicative on composition, rank-preserving, identity
    and constants fixed (as classes), inverse conjugation undoes it, and the
    conjugated standard matrix-unit family is still a verified base with
    generators s_1..s_n.  A resource limit (degree cap, budget, coefficient
    growth) is no verdict: it propagates."""
    if trials < 0:
        raise ValueError(f"trials must be at least 0, got {trials}")
    spec = aut.spec
    n = aut.nvars
    rng = random.Random(seed)
    problems: list[str] = []
    samples = []
    rank_pairs: list[tuple[int, int]] = []

    ident = Endomorphism.identity(spec, n)
    if conjugate(aut, ident) != ident:
        problems.append("conjugated identity is not the identity")
    zero_map = Endomorphism.zero(spec, n)
    if rank(conjugate(aut, zero_map)).value != 0:
        problems.append("conjugated zero map is not rank 0")

    inv = aut.inverse()
    for t in range(trials):
        g = random_endomorphism(rng, spec, n, max_degree=2, max_terms=2)
        h = random_endomorphism(rng, spec, n, max_degree=2, max_terms=2)
        cg = conjugate(aut, g)
        ch = conjugate(aut, h)
        cgh = conjugate(aut, compose(g, h))
        samples.append((g, h, cg, ch, cgh))
        if cgh != compose(cg, ch):
            problems.append(f"sample {t}: conjugation is not multiplicative")
        if conjugate(inv, cg) != g:
            problems.append(f"sample {t}: inverse conjugation fails")
        r_g = rank(g).value
        r_cg = rank(cg).value
        rank_pairs.append((r_g, r_cg))
        if r_g != r_cg:
            problems.append(
                f"sample {t}: rank changed under conjugation "
                f"({r_g} -> {r_cg})"
            )

    round_trip = compose_semilinear(aut, inv)
    if any(
        round_trip.s[k] != MultiPoly.variable(spec, n, k) for k in range(n)
    ) or not round_trip.delta.is_identity:
        problems.append("aut . aut^(-1) is not the identity automorphism")

    base_ok = False
    try:
        conj_system = KroneckerSystem.standard(spec, n).transformed(
            lambda e: conjugate(aut, e)
        )
        check = verify_base_external(conj_system, Z=aut.s)
        base_ok = check.is_base
        if not base_ok:
            problems.append(
                "conjugated standard family failed the base check"
            )
    except (RelationViolation, NotABase, GeneratorNotFound) as exc:
        # Negative answers only: a resource limit propagates (exit 2).
        problems.append(f"conjugated standard family: {exc}")

    return ConjugationReport(
        aut=aut,
        ok=not problems,
        inner=aut.is_inner,
        samples=tuple(samples),
        rank_pairs=tuple(rank_pairs),
        kronecker_base_check=base_ok,
        problems=tuple(problems),
    )
