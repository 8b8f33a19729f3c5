"""Matrix-unit families of endomorphisms: subbase verification,
classification, base extraction, and normalization.

A KroneckerSystem is an n x n grid of endomorphisms expected to multiply like
matrix units: entry(i,j) . entry(k,m) equals entry(i,m) when j = k and a
single common rank-0 map otherwise.  The common zero is discovered from the
products themselves, so systems obtained by conjugating the standard one
(whose zero is a constant map at some point, not necessarily the origin)
verify cleanly.  The audit composes a generating set of 2n^2 + 2n - 3
products, from which associativity gives all n^4 relations; only a family
that fails it is composed pair by pair, for the diagnostics.

A subbase becomes a base when the diagonal image generators z_1..z_n
generate the whole polynomial algebra; that is decided by subalgebra
membership, certified with explicit witnesses, and cross-checked against map
inversion.  normalize_base rescales and recenters the generators so the
matrix-unit action becomes literally e(i,j): z_j -> z_i, all other z -> 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cache
from typing import Callable, Optional, Sequence

from .endo import Endomorphism, compose, kronecker_endo, rank
from .errors import (
    GeneratorNotFound,
    NonAffineImage,
    RelationViolation,
    ResourceLimit,
    ZeroScale,
)
from .fields import FieldElement, FieldSpec
from .groebner import invert_poly_map, memoized, subalgebra_member
from .mpoly import GREVLEX, MultiPoly


@dataclass(frozen=True)
class KroneckerSystem:
    """An n x n family of endomorphisms indexed 1-based via entry(i, j),
    with an optional explicit zero element."""

    spec: FieldSpec
    n: int
    entries: tuple[tuple[Endomorphism, ...], ...]
    zero: Optional[Endomorphism] = None

    def __post_init__(self):
        if len(self.entries) != self.n or any(
            len(row) != self.n for row in self.entries
        ):
            raise RelationViolation(f"entry grid is not {self.n} x {self.n}")
        for row in self.entries:
            for e in row:
                if e.spec != self.spec or e.nvars != self.n:
                    raise RelationViolation(
                        "entries must share the system's field and arity"
                    )
        if self.zero is not None and (
            self.zero.spec != self.spec or self.zero.nvars != self.n
        ):
            raise RelationViolation("zero element over the wrong ring")

    def entry(self, i: int, j: int) -> Endomorphism:
        return self.entries[i - 1][j - 1]

    @staticmethod
    def standard(spec: FieldSpec, n: int) -> "KroneckerSystem":
        grid = tuple(
            tuple(kronecker_endo(spec, n, i, j) for j in range(1, n + 1))
            for i in range(1, n + 1)
        )
        return KroneckerSystem(spec, n, grid, Endomorphism.zero(spec, n))

    def transformed(
        self, fn: Callable[[Endomorphism], Endomorphism]
    ) -> "KroneckerSystem":
        """Apply fn to every entry (and the zero, if present); used to build
        conjugated variants."""
        grid = tuple(tuple(fn(e) for e in row) for row in self.entries)
        zero = fn(self.zero) if self.zero is not None else None
        return KroneckerSystem(grid[0][0].spec, self.n, grid, zero)


# -- relation checking -----------------------------------------------------------


def _generating_zero(system: KroneckerSystem) -> Optional[Endomorphism]:
    """Z = (1,1).(2,1) if the generating relations hold, else None (n >= 2):

    (A) (i,1).(1,m) = (i,m) for all i, m;
    (B) (1,j).(k,1) = (1,1) when j = k, and Z otherwise;
    (C) (i,1).(2,1) = Z and (1,1).(2,m) = Z;
    and a declared zero equals Z.

    These are 2n^2 + 2n - 3 distinct products, all among the n^4.  By (A)
    and associativity (i,j).(k,m) = (i,1).[(1,j).(k,1)].(1,m), which (A)-(C)
    reduce to (i,m) when j = k and to Z otherwise; with the zero equal to Z
    they also give z.e = e.z = z for every entry e."""
    n, entry = system.n, system.entry
    product = cache(lambda i, j, k, m: compose(entry(i, j), entry(k, m)))
    idx = range(1, n + 1)
    zero = product(1, 1, 2, 1)
    holds = (
        (system.zero is None or system.zero == zero)
        and all(product(i, 1, 1, m) == entry(i, m) for i in idx for m in idx)
        and all(
            product(1, j, k, 1) == (entry(1, 1) if j == k else zero)
            for j in idx
            for k in idx
        )
        and all(
            product(i, 1, 2, 1) == zero and product(1, 1, 2, i) == zero
            for i in idx
        )
    )
    return zero if holds else None


def _relation_violations(
    system: KroneckerSystem,
) -> tuple[list[str], Optional[Endomorphism], int]:
    """Establish the n^4 matrix-unit relations and, with a declared zero,
    the 2n^2 absorption relations.  Returns (violations, common zero,
    #relations established).  The common zero is the shared value of every
    delta=0 product; it is None when n = 1 (no such products exist).

    For n >= 2 the generating set of _generating_zero is composed first.
    Only when it fails (or hits a resource limit), and for n = 1, is every
    product composed in turn, so a broken family gets one diagnostic per
    failing relation."""
    n = system.n
    if n >= 2:
        try:
            zero = _generating_zero(system)
        except ResourceLimit:
            zero = None  # the loop below stops at its first such product
        if zero is not None:
            return [], zero, n**4 + (0 if system.zero is None else 2 * n * n)
    checked = 0
    problems: list[str] = []
    zero_hat: Optional[Endomorphism] = None

    for i in range(1, n + 1):
        for j in range(1, n + 1):
            e_ij = system.entry(i, j)
            for k in range(1, n + 1):
                for m in range(1, n + 1):
                    checked += 1
                    prod = compose(e_ij, system.entry(k, m))
                    if j == k:
                        if prod != system.entry(i, m):
                            problems.append(
                                f"({i},{j}).({k},{m}) != ({i},{m})"
                            )
                    elif zero_hat is None:
                        zero_hat = prod
                    elif prod != zero_hat:
                        problems.append(
                            f"({i},{j}).({k},{m}) disagrees with the common zero"
                        )

    if system.zero is not None:
        if zero_hat is not None and system.zero != zero_hat:
            problems.append("declared zero differs from the common product zero")
        z = system.zero
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                e = system.entry(i, j)
                checked += 2
                if compose(e, z) != z:
                    problems.append(f"({i},{j}).zero != zero")
                if compose(z, e) != z:
                    problems.append(f"zero.({i},{j}) != zero")
        if zero_hat is None:
            zero_hat = z
    return problems, zero_hat, checked


@dataclass(frozen=True)
class SubbaseReport:
    ok: bool
    zero: Optional[Endomorphism]
    relations_checked: int
    problems: tuple[str, ...]


@memoized
def verify_subbase(system: KroneckerSystem) -> SubbaseReport:
    """Subbase audit: the matrix-unit relations (relations_checked counts
    those established, n^4 plus 2n^2 with a declared zero, whether from the
    generating set or pair by pair), one common rank-0 zero, no entry equal
    to that zero, and every entry of elimination rank exactly 1.

    Once the relations hold, every entry has the rank of (1,1), since
    rank(a.b) <= min(rank a, rank b), (i,m) = (i,1).(1,1).(1,m) and
    (1,1) = (1,i).(i,m).(m,1); so one elimination serves all entries.  By
    the same products either every entry equals the zero or none does.

    Memoized by the whole system, so each family is audited once per
    process; a resource limit is raised again on every call."""
    problems, zero_hat, checked = _relation_violations(system)
    relations_hold = not problems

    if zero_hat is not None:
        z_rank = rank(zero_hat).value
        if z_rank != 0:
            problems.append(f"common zero has rank {z_rank}, expected 0")

    e11 = system.entry(1, 1)
    shared_rank = rank(e11).value if relations_hold and e11 != zero_hat else None

    for i in range(1, system.n + 1):
        for j in range(1, system.n + 1):
            e = system.entry(i, j)
            if zero_hat is not None and e == zero_hat:
                problems.append(f"entry ({i},{j}) equals the zero map")
                continue
            r = shared_rank if shared_rank is not None else rank(e).value
            if r != 1:
                problems.append(f"entry ({i},{j}) has rank {r}, expected 1")

    return SubbaseReport(not problems, zero_hat, checked, tuple(problems))


class RepresentationKind(Enum):
    SINGULAR = "singular"
    NONSINGULAR = "nonsingular"


def classify_representation(system: KroneckerSystem) -> RepresentationKind:
    """Split matrix-unit families into the two possible shapes: every entry
    equals the declared rank-0 zero (singular; constant maps compose to
    themselves, so the relations hold), or the family passes the subbase
    audit, which makes every entry rank exactly 1 (nonsingular).  Anything
    else raises."""
    zero = system.zero
    if zero is None:
        raise RelationViolation("classification requires an explicit zero element")
    if all(e == zero for row in system.entries for e in row) and rank(zero).value == 0:
        return RepresentationKind.SINGULAR
    report = verify_subbase(system)
    if not report.ok:
        raise RelationViolation(
            "neither singular nor nonsingular: " + "; ".join(report.problems[:5])
        )
    return RepresentationKind.NONSINGULAR


# -- image generators and bases -----------------------------------------------------


def image_generator(
    phi: Endomorphism, hints: Sequence[MultiPoly] = (), proven: bool = False
) -> Optional[MultiPoly]:
    """A single polynomial z with K[phi-images] = K[z], for an idempotent of
    rank 1 (checked here unless `proven` says the caller has proved it).
    Candidates: supplied hints, then the nonconstant images from low degree
    up, then constant-free shifts of those, then their degree-1 parts.  Each
    candidate must contain every image (membership witnessed) and itself lie
    in the image algebra.  Heuristic-complete: None means no candidate
    verified, not that no generator exists."""
    if not proven:
        if compose(phi, phi) != phi:
            raise RelationViolation(
                "generator extraction requires an idempotent map"
            )
        r = rank(phi).value
        if r != 1:
            raise RelationViolation(
                f"generator extraction requires rank 1, got rank {r}"
            )

    candidates: list[MultiPoly] = list(hints)
    images = sorted(
        (img for img in phi.images if not (img.is_zero or img.is_constant())),
        key=lambda f: (f.total_degree(), sorted(f.tuple_terms())),
    )
    candidates.extend(images)
    for img in images:
        shifted = img - MultiPoly.constant(
            phi.spec, phi.nvars, img.constant_term()
        )
        candidates.append(shifted)
    for img in images:
        lin = img.degree_one_part()
        if not lin.is_zero:
            candidates.append(lin)

    tried: set[MultiPoly] = set()
    for z in candidates:
        if z in tried or z.is_zero or z.is_constant():
            continue
        tried.add(z)
        if subalgebra_member(z, phi.images) is None:
            continue
        if all(
            subalgebra_member(img, (z,)) is not None for img in phi.images
        ):
            return z
    return None


@dataclass(frozen=True)
class BaseCertificate:
    """Generators plus witnesses writing every variable in them, for a
    system that passed the subbase audit; zero is the common zero that audit
    found (None only when n = 1 and no zero was declared)."""

    system: KroneckerSystem
    generators: tuple[MultiPoly, ...]
    witnesses: tuple[MultiPoly, ...]
    zero: Optional[Endomorphism]
    normalized: bool = False

    def validate(self) -> list[str]:
        problems = []
        n = self.system.n
        spec = self.system.spec
        for k in range(n):
            got = self.witnesses[k].substitute(self.generators)
            want = MultiPoly.variable(spec, n, k)
            if got != want:
                problems.append(f"witness for x{k + 1} does not substitute back")
        return problems


@dataclass(frozen=True)
class BaseCheck:
    is_base: bool
    generators: tuple[MultiPoly, ...]
    certificate: Optional[BaseCertificate]
    missing: tuple[int, ...]  # 1-based variables with no membership


def _diagonal_generators(
    system: KroneckerSystem, Z: Optional[Sequence[MultiPoly]]
) -> tuple[MultiPoly, ...]:
    """Z, or a generator of each diagonal entry of a system that passed the
    subbase audit, which proved every entry idempotent of rank 1."""
    if Z is not None:
        gens = tuple(Z)
        if len(gens) != system.n:
            raise RelationViolation(
                f"expected {system.n} generators, got {len(gens)}"
            )
        return gens
    out = []
    for i in range(1, system.n + 1):
        z = image_generator(system.entry(i, i), proven=True)
        if z is None:
            raise GeneratorNotFound(
                f"no image generator found for diagonal entry ({i},{i}); "
                "supply explicit generators"
            )
        out.append(z)
    return tuple(out)


def verify_base_external(
    system: KroneckerSystem, Z: Optional[Sequence[MultiPoly]] = None
) -> BaseCheck:
    """Decide whether the diagonal generators produce the whole algebra.

    Runs the subbase audit first and raises RelationViolation if it fails;
    the certificate carries the audit's common zero on to normalize_base.
    Generators come from image_generator unless supplied.  The base test is
    subalgebra membership of every variable, certified by witnesses and
    cross-checked against invert_poly_map — the two must agree."""
    report = verify_subbase(system)
    if not report.ok:
        raise RelationViolation(
            "not a subbase: " + "; ".join(report.problems[:5])
        )
    gens = _diagonal_generators(system, Z)
    spec = system.spec
    n = system.n

    witnesses: list[Optional[MultiPoly]] = []
    missing: list[int] = []
    for k in range(n):
        w = subalgebra_member(MultiPoly.variable(spec, n, k), gens)
        witnesses.append(w)
        if w is None:
            missing.append(k + 1)

    invertible = invert_poly_map(gens) is not None
    if invertible != (not missing):
        raise RuntimeError(
            "membership and map inversion disagree on the base question"
        )

    if missing:
        return BaseCheck(False, gens, None, tuple(missing))
    cert = BaseCertificate(system, gens, tuple(witnesses), report.zero)
    bad = cert.validate()
    if bad:
        raise RuntimeError("; ".join(bad))
    return BaseCheck(True, gens, cert, ())


# -- normalization -------------------------------------------------------------------


@dataclass(frozen=True)
class NormalizationResult:
    certificate: BaseCertificate
    gammas: tuple[FieldElement, ...]  # generator values at the zero point
    scales: tuple[tuple[FieldElement, ...], ...]  # a[i][j] from e(i,j)(z_j)
    alphas: tuple[FieldElement, ...]
    global_scale: FieldElement


def _affine_parts(
    w: MultiPoly, spec: FieldSpec
) -> tuple[FieldElement, FieldElement]:
    """Split a univariate witness a*y + b; reject anything of degree > 1."""
    if w.total_degree() > 1:
        raise NonAffineImage(
            f"generator image is not affine in the target generator: {w}"
        )
    return w.coefficient((1,)), w.coefficient((0,))


def normalize_base(cert: BaseCertificate) -> NormalizationResult:
    """Recenter and rescale the generators of a base certificate (as made by
    verify_base_external, whose subbase audit is not repeated) until the
    matrix-unit action of cert.system is literal: entry(i,j) sends z_j to
    z_i and all other generators to 0.

    Each entry(i,j) applied to z_j must be affine in z_i, say a_ij z_i +
    b_ij.  Consistency of the affine data (b_ij = gamma_j - a_ij gamma_i
    where gamma is the generator tuple evaluated at the point of cert.zero,
    and a_ij a_jk = a_ik) is verified, then z is recentered by gamma,
    rescaled per generator by a_i1, and rescaled globally so z'_1 is monic.
    The delta relations on the result are re-verified for every triple, and
    the witnesses are recomputed.
    """
    if cert.normalized:
        raise RelationViolation("certificate is already normalized")
    system = cert.system
    spec = system.spec
    n = system.n
    zs = cert.generators

    omega = (
        cert.zero.constant_part()
        if cert.zero is not None
        else tuple(spec.zero() for _ in range(n))
    )
    gammas = tuple(z.evaluate(omega) for z in zs)

    a = [[spec.zero() for _ in range(n)] for _ in range(n)]
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            image = system.entry(i, j).apply(zs[j - 1])
            w = subalgebra_member(image, (zs[i - 1],))
            if w is None:
                raise NonAffineImage(
                    f"entry ({i},{j}) does not map z{j} into K[z{i}]"
                )
            a_ij, b_ij = _affine_parts(w, spec)
            if a_ij.is_zero:
                raise ZeroScale(
                    f"entry ({i},{j}) collapses z{j} to a constant"
                )
            expected_b = gammas[j - 1] - a_ij * gammas[i - 1]
            if b_ij != expected_b:
                raise RelationViolation(
                    f"affine offset of entry ({i},{j}) is inconsistent with "
                    "the zero point"
                )
            a[i - 1][j - 1] = a_ij
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if a[i][j] * a[j][k] != a[i][k]:
                    raise RelationViolation(
                        f"scale cocycle fails at ({i + 1},{j + 1},{k + 1})"
                    )

    alphas = tuple(a[i][0] for i in range(n))
    primed = [
        (zs[i] - MultiPoly.constant(spec, n, gammas[i])).scale(alphas[i])
        for i in range(n)
    ]
    lam = primed[0].leading_coefficient(GREVLEX).inverse()
    final = tuple(z.scale(lam) for z in primed)

    for i in range(1, n + 1):
        for j in range(1, n + 1):
            for k in range(1, n + 1):
                got = system.entry(i, j).apply(final[k - 1])
                want = (
                    final[i - 1]
                    if j == k
                    else MultiPoly.zero(spec, n)
                )
                if got != want:
                    raise RelationViolation(
                        f"normalized delta relation fails: entry ({i},{j}) "
                        f"on z'{k}"
                    )

    witnesses = []
    for k in range(n):
        w = subalgebra_member(MultiPoly.variable(spec, n, k), final)
        if w is None:
            raise RuntimeError(
                "normalized generators lost the base property"
            )
        witnesses.append(w)

    new_cert = BaseCertificate(
        system, final, tuple(witnesses), cert.zero, normalized=True
    )
    bad = new_cert.validate()
    if bad:
        raise RuntimeError("; ".join(bad))
    return NormalizationResult(
        certificate=new_cert,
        gammas=gammas,
        scales=tuple(tuple(row) for row in a),
        alphas=alphas,
        global_scale=lam,
    )


# -- internal base condition -----------------------------------------------------------


@dataclass(frozen=True)
class InternalBaseReport:
    ok: bool
    phi: Endomorphism
    psi: Endomorphism
    problems: tuple[str, ...]


def check_internal_base_condition(
    cert: BaseCertificate,
    other: KroneckerSystem,
    alphas: Sequence[Endomorphism],
) -> InternalBaseReport:
    """Verify the compositional base condition against a given family and
    given alphas: construct phi sending x_i to z_i and psi carrying the
    other family's diagonal generators through the certificate witnesses,
    then check alpha_i . other(i,i) = psi . system(i,i) . phi for every i.

    This is a verifier for supplied witnesses, not a search over all
    families; failure means this construction does not work here, not that
    no construction exists.
    """
    system = cert.system
    spec = system.spec
    n = system.n
    if other.n != n or other.spec != spec:
        raise RelationViolation("families must share field and size")
    if len(alphas) != n:
        raise RelationViolation(f"expected {n} alphas")
    sub_report = verify_subbase(other)
    if not sub_report.ok:
        raise RelationViolation(
            "second family is not a subbase: "
            + "; ".join(sub_report.problems[:5])
        )

    phi = Endomorphism(spec, n, cert.generators)

    ys = []
    for i in range(1, n + 1):
        y = image_generator(other.entry(i, i))
        if y is None:
            raise GeneratorNotFound(
                f"no image generator for the second family's entry ({i},{i})"
            )
        ys.append(y)
    vs = tuple(alphas[i].apply(ys[i]) for i in range(n))
    psi = Endomorphism(
        spec, n, tuple(w.substitute(vs) for w in cert.witnesses)
    )

    problems = []
    for i in range(1, n + 1):
        lhs = compose(alphas[i - 1], other.entry(i, i))
        rhs = compose(psi, compose(system.entry(i, i), phi))
        if lhs != rhs:
            problems.append(f"display fails at i={i}")
    return InternalBaseReport(not problems, phi, psi, tuple(problems))
