"""Rank-reducing chains: walk an endomorphism down to rank 0 one unit at a
time by composing with simple substitutions on the left.

Each step composes the current map psi with a substitution sigma (specialize
one variable to a constant, send one variable to a power of another, or
collapse everything to a point) and keeps the candidate only if the exact
elimination rank drops by exactly one.  Left composition automatically
enlarges the relation ideal, so every accepted step is strictly below its
predecessor in the preorder — that is re-proved, not assumed, by
verify_chain, which builds each step through SubstitutionRecord.sigma, the
one check of a step record.

Over small prime fields all constants may fail; the schedule then tries
powers, and finally lifts the whole computation into a stock quadratic
extension where fresh constants exist.  A failed search raises
SearchExhausted carrying the full attempt log; a candidate that meets a
resource limit ends the search with that limit instead.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Iterator, Optional

from .endo import Endomorphism, Verdict, compare, compose, rank
from .errors import (
    ResourceLimit,
    SearchExhausted,
    SpecMismatch,
    quote,
)
from .fields import (
    FieldElement,
    FieldSpec,
    builtin_extension,
    enumerate_elements,
)
from .mpoly import MultiPoly
from .records import record


_RATIONAL_EXTRAS = 8  # extra seeded 32-bit constants per variable over Q


@record
class ChainPolicy:
    """Knobs for the substitution search."""

    r_max: int = 8  # largest exponent tried for x_j -> x_i^r; 1 tries none
    seed: int = 0

    def __post_init__(self):
        if self.r_max < 1:
            raise ValueError(f"r_max must be at least 1, got {self.r_max}")


def lift_endo(endo: Endomorphism, dst: FieldSpec) -> Endomorphism:
    """Re-read a map over a prime field as a map over its stock extension,
    the one lift a chain takes.  A residue already is the raw of its
    constant in the extension, so each image keeps its terms."""
    if dst != builtin_extension(endo.spec):
        raise SpecMismatch(f"no lift {endo.spec.header()} -> {dst.header()}")
    images = tuple(MultiPoly(dst, endo.nvars, img.terms) for img in endo.images)
    return Endomorphism(dst, endo.nvars, images)


# The parameters each kind of step uses; every other one keeps its default.
_PARAMS = {
    "specialize": ("variable", "value"),
    "power": ("variable", "source", "exponent"),
    "collapse": ("point",),
}


@record
class SubstitutionRecord:
    """One left-composition step, small enough to serialize and replay.

    kind "specialize": x_variable := value (other variables fixed).
    kind "power":      x_variable := x_source ^ exponent.
    kind "collapse":   every variable := the matching point coordinate.

    lifted_to is set when the step only exists after extending the ground
    field; the replay must lift the incoming map first.
    """

    kind: str
    variable: int = 0  # 1-based
    source: int = 0  # 1-based
    exponent: int = 0
    value: Optional[FieldElement] = None
    point: Optional[tuple] = None
    lifted_to: Optional[FieldSpec] = None

    def sigma(self, spec: FieldSpec, nvars: int) -> Endomorphism:
        """The substitution as an endomorphism over the working field, and
        the one check of a record.  ValueError: an unknown kind, a parameter
        the kind does not use that is not its default, an index outside
        1..nvars (negative indexing would read it as another variable), a
        power step whose source is its variable or whose exponent is below 2,
        a missing value or point.
        SpecMismatch: a value or point unfit for the field."""
        if type(self.kind) is not str or self.kind not in _PARAMS:
            raise ValueError(f"unknown substitution kind {quote(self.kind)}")
        used = _PARAMS[self.kind]
        for name in ("variable", "source", "exponent", "value", "point"):
            v, default = getattr(self, name), getattr(SubstitutionRecord, name)
            if name not in used and (type(v) is not type(default) or v != default):
                raise ValueError(f"a {self.kind} step takes no {name}")
        for name in ("variable", "source"):
            v = getattr(self, name)
            if name in used and (type(v) is not int or not 1 <= v <= nvars):
                raise ValueError(f"{name} {quote(v)} outside 1..{nvars}")
        if self.kind == "collapse":
            if self.point is None:
                raise ValueError("collapse point is missing")
            if len(self.point) != nvars:
                raise SpecMismatch("collapse point has the wrong arity")
            return Endomorphism.constant(spec, nvars, self.point)
        images = [MultiPoly.variable(spec, nvars, k) for k in range(nvars)]
        if self.kind == "specialize":
            if self.value is None:
                raise ValueError("specialization value is missing")
            if self.value.spec != spec:
                raise SpecMismatch("specialization value over the wrong field")
            images[self.variable - 1] = MultiPoly.constant(
                spec, nvars, self.value
            )
        else:
            if self.source == self.variable:
                raise ValueError("source equals variable")
            if type(self.exponent) is not int or self.exponent < 2:
                raise ValueError(f"exponent {quote(self.exponent)} is not at least 2")
            images[self.variable - 1] = (
                MultiPoly.variable(spec, nvars, self.source - 1) ** self.exponent
            )
        return Endomorphism(spec, nvars, tuple(images))

    def describe(self) -> str:
        if self.kind == "specialize":
            tail = (
                f" (after lifting to {self.lifted_to.header()})"
                if self.lifted_to is not None
                else ""
            )
            return f"x{self.variable} := {self.value}{tail}"
        if self.kind == "power":
            return f"x{self.variable} := x{self.source}^{self.exponent}"
        coords = ", ".join(str(v) for v in (self.point or ()))
        return f"collapse at ({coords})"


@record
class ChainStep:
    record: SubstitutionRecord
    rank_before: int
    rank_after: int
    after: Endomorphism


@record
class Chain:
    start: Endomorphism
    steps: tuple[ChainStep, ...]

    @property
    def length(self) -> int:
        return len(self.steps)

    @property
    def complete(self) -> bool:
        if self.steps:
            return self.steps[-1].rank_after == 0
        # rank 0 holds exactly when every image is constant
        return all(img.is_constant() for img in self.start.images)


def _occurring(endo: Endomorphism) -> list[int]:
    used: set[int] = set()
    for img in endo.images:
        used |= img.variables_used()
    return sorted(used)


def _candidates(
    psi: Endomorphism, policy: ChainPolicy
) -> Iterator[tuple[SubstitutionRecord, Endomorphism]]:
    """Deterministic schedule of (record, working map) pairs.  The working
    map differs from psi only for extension-lift candidates.  Records are
    built with every field by position (kind, variable, source, exponent,
    value, point, lifted_to), the fast path of records.record."""
    spec = psi.spec
    occurring = _occurring(psi)

    if spec.kind == "Q":
        for j in occurring:
            rng = random.Random((policy.seed << 8) ^ (j + 1))
            vals: list[Fraction] = []
            for v in (0, 1, -1, 2, -2, 3, -3, 4):
                vals.append(Fraction(v))
            for _ in range(_RATIONAL_EXTRAS):
                vals.append(Fraction(rng.getrandbits(32) - 2**31))
            seen: set[Fraction] = set()
            for v in vals:
                if v in seen:
                    continue
                seen.add(v)
                yield SubstitutionRecord(
                    "specialize", j + 1, 0, 0, spec.element(v), None, None
                ), psi
    else:
        for j in occurring:
            for elt in enumerate_elements(spec):
                yield SubstitutionRecord(
                    "specialize", j + 1, 0, 0, elt, None, None
                ), psi

    for j in occurring:
        for i in occurring:
            if i == j:
                continue
            for r in range(2, policy.r_max + 1):
                yield SubstitutionRecord(
                    "power", j + 1, i + 1, r, None, None, None
                ), psi

    if spec.is_finite:
        ext = builtin_extension(spec)
        if ext is not None:
            lifted = lift_endo(psi, ext)
            # enumerate_elements lists the base field's constants first
            fresh = list(enumerate_elements(ext))[spec.order :]
            for j in occurring:
                for elt in fresh:
                    yield SubstitutionRecord(
                        "specialize", j + 1, 0, 0, elt, None, ext
                    ), lifted


def reduce_rank_once(
    psi: Endomorphism, policy: ChainPolicy = ChainPolicy()
) -> ChainStep:
    """Find a substitution sigma with rank(sigma . psi) = rank(psi) - 1.

    Rank 1 maps always collapse to the image of the origin.  Higher ranks
    walk the candidate schedule; every candidate's rank is recomputed by
    elimination and only an exact drop of one is accepted.  A candidate
    that meets a resource limit ends the search with that limit, naming the
    candidate, so a limit never decides which step is taken.
    """
    r0 = rank(psi).value
    if r0 <= 0:
        raise ValueError("the map already has rank 0; nothing to reduce")

    if r0 == 1:
        record = SubstitutionRecord(
            "collapse",
            point=tuple(psi.spec.zero() for _ in range(psi.nvars)),
        )
        after = compose(record.sigma(psi.spec, psi.nvars), psi)
        r1 = rank(after).value
        if r1 != 0:
            raise RuntimeError("collapse of a rank-1 map did not reach rank 0")
        return ChainStep(record, r0, 0, after)

    attempts: list[tuple[SubstitutionRecord, str]] = []
    for record, work in _candidates(psi, policy):
        try:
            after = compose(record.sigma(work.spec, work.nvars), work)
            r1 = rank(after).value
        except ResourceLimit as exc:  # a limit is no answer: end the search
            raise type(exc)(f"{exc} (candidate {record.describe()})") from exc
        if r1 == r0 - 1:
            return ChainStep(record, r0, r1, after)
        attempts.append((record, f"rank {r0} -> {r1}"))
    raise SearchExhausted(
        f"no substitution in the schedule dropped the rank from {r0} to "
        f"{r0 - 1} ({len(attempts)} candidates tried)",
        attempts,
    )


def build_full_chain(
    phi: Endomorphism, policy: ChainPolicy = ChainPolicy()
) -> Chain:
    """Chain phi down to rank 0.  Raises SearchExhausted if any level sticks;
    the exception's attempt log covers the sticking level, and its `chain`
    is the partial chain of the steps accepted before it."""
    steps: list[ChainStep] = []
    cur, r = phi, rank(phi).value
    try:
        while r > 0:
            step = reduce_rank_once(cur, policy)
            steps.append(step)
            cur, r = step.after, step.rank_after
    except SearchExhausted as exc:
        exc.chain = Chain(phi, tuple(steps))
        raise
    return Chain(phi, tuple(steps))


@record
class ChainVerification:
    ok: bool
    ranks: tuple[int, ...]  # rank at the start, then after each step
    problems: tuple[str, ...]


def verify_chain(chain: Chain) -> ChainVerification:
    """Independent audit of a chain: replay every substitution, recompute
    every rank by elimination, check the exact -1 decrements, and confirm
    each step is strictly below its predecessor in the preorder."""
    problems: list[str] = []
    ranks: list[int] = []

    prev = chain.start
    r_prev = rank(prev).value
    ranks.append(r_prev)

    for idx, step in enumerate(chain.steps, start=1):
        work = prev
        if step.after.spec != prev.spec:
            try:
                work = lift_endo(prev, step.after.spec)
            except SpecMismatch:
                problems.append(
                    f"step {idx}: cannot lift the previous map to "
                    f"{step.after.spec.header()}"
                )
                break
            if step.record.lifted_to != step.after.spec:
                problems.append(
                    f"step {idx}: field switch is not declared by the record"
                )

        try:
            replay = compose(
                step.record.sigma(work.spec, work.nvars), work
            )
        except (SpecMismatch, ValueError) as exc:
            problems.append(f"step {idx}: replay failed: {exc}")
            break
        if replay != step.after:
            problems.append(f"step {idx}: replayed map differs from the recorded one")

        r_work = rank(work).value
        r_after = rank(step.after).value
        ranks.append(r_after)
        if step.rank_before != r_work:
            problems.append(
                f"step {idx}: recorded rank before ({step.rank_before}) "
                f"!= recomputed ({r_work})"
            )
        if step.rank_after != r_after:
            problems.append(
                f"step {idx}: recorded rank after ({step.rank_after}) "
                f"!= recomputed ({r_after})"
            )
        if r_after != r_work - 1:
            problems.append(
                f"step {idx}: rank moved {r_work} -> {r_after}, not exactly -1"
            )
        if compare(step.after, work).verdict is not Verdict.STRICTLY_BELOW:
            problems.append(
                f"step {idx}: the composed map is not strictly below its predecessor"
            )
        prev = step.after

    if ranks and ranks[-1] != 0:
        problems.append(f"chain stops at rank {ranks[-1]}, not 0")
    return ChainVerification(not problems, tuple(ranks), tuple(problems))
