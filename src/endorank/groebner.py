"""Deterministic Buchberger engine with budgets, caching, and self-checks.

Everything downstream (ranks, order comparisons, subalgebra membership, map
inversion) reduces to Groebner bases, so this module is built for
reproducibility: generators are canonically sorted, pair selection and
reduction are fully deterministic, and answers are memoized.  Every memo
table (bases by (ideal, order), subalgebra memberships, map inverses,
relation ideals in endo, subbase audits in kronecker, and in the parser
Kronecker-system texts and variable powers) is made by `memoized`: a
least-recently-used table of at most CACHE_SIZE entries, which
clear_caches() empties.  No table keys on the budget or the degree cap, so
a hit answers without spending either; an exception is never stored, so a
limit is raised again on the next call.  An elimination's basis is computed
and dropped, not memoized: only the relation ideal read from it is kept,
so a membership on the same graph ideal computes that basis again.

Inside a computation a monomial is the packed int a MultiPoly keys its terms
by, plus an order key (see _Packing), so a monomial product is two additions
and a divisibility test is one mask.  Each generator is packed once: its
largest term is the lead, and its tail is scaled by -1 over the lead
coefficient on raws.  S-pairs wait in a heap under the total key (lcm
degree, i, j).  Only finished bases are turned back into MultiPoly; the
re-indexing in elimination and membership shifts packed ints.

Inside the loop a polynomial is int (K, P, c) triples over one
denominator, over every field: a remainder, an S-polynomial, and the one
tail a basis element keeps, its tail negated as ints over a denominator D.
Over a finite field the ints are the raws themselves over 1; over Q they
are numerators.  Fractions appear only where a polynomial enters (a
generator, and the argument of a normal form, over their least common
denominator) and where one is read out (a normal form, a finished basis).

Reduction is one integer loop for every field.  It takes terms largest first
from a heap (Monagan & Pearce, "Sparse polynomial division using a heap",
JSC 2011), and a step is `coef[m] += c * t` over ints, with no field call.
Over a finite field products pile up unreduced; each coefficient is
reduced once, by `FieldSpec.reduce`, when its term is popped, and a term
that reduced to zero is skipped.  One coefficient absorbs at most one
product per step, so the budget is capped at 2^32 steps, the room
`fields` leaves in a digit.

Over Q the remainder is integer numerators over one running denominator
`den` (fraction-free reduction, Becker & Weispfenning, "Groebner Bases",
GTM 141).  A popped numerator c reduced by an element with D != 1 needs
c * t / D; with h = gcd(c, D), only D / h is new, so when h != D every
numerator left, and the remainder so far, is scaled by D / h and den
with them.  den thus grows only by the part of each D that the popped
coefficient does not already carry.  A nonzero remainder c_0, .., c_k
becomes a monic element through one gcd, g = gcd(c_0, .., c_k): its
negated tail -c_i / c_0 is ints over D = |c_0| / g, and den cancels.  A
tail reduced against the other elements is divided by gcd(den, c_1..c_k).

An S-polynomial scales each element's ints by L / D, L = lcm(D_a, D_b)
(skipped when the factor is 1), and subtracts them with the field's own
raw arithmetic, one operation per term and pair, which over Q acts on the
ints exactly; it comes out negated over every field, as ints over L.  The
degree cap is checked once per reduction step and per S-polynomial, on the
shifted top of a tail: its largest packed monomial, so its highest degree.
Work is metered in reduction steps against a module-wide budget; blowing
the budget raises BudgetExceeded, a resource verdict, never a mathematical
"no".  The step count of a computation does not depend on the
representation: it is the number of divisions the algorithm makes.
Setting CHECK_SPOLYS makes every finished basis re-verify that all its
S-polynomials reduce to zero, with counters in STATS.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from heapq import heapify, heappop, heappush
from itertools import combinations, groupby
from math import gcd, lcm
from operator import itemgetter, mul
from typing import Iterable, Optional, Sequence

from .errors import ArityMismatch, BudgetExceeded, DegreeCapExceeded, SpecMismatch
from .fields import _DIGIT_ROOM_BITS, FieldSpec
from .mpoly import (
    GREVLEX,
    Block,
    MonomialOrder,
    MultiPoly,
    _exponents,
    _layout,
    degree_cap,
    mono_lcm,
)
from .records import record

# -- configuration and instrumentation ----------------------------------------

_budget = 10**6

# A coefficient absorbs at most one unreduced product per reduction step, and
# a finite-field digit has room for 2^32 of them (see fields).
MAX_BUDGET = 2**_DIGIT_ROOM_BITS

CHECK_SPOLYS = False

STATS = {"bases_computed": 0, "spoly_checks": 0, "spoly_failures": 0}


def get_budget() -> int:
    return _budget


def set_budget(budget: int) -> None:
    """Set the reduction-step budget.  Not part of the cache key: a basis
    finished under a small budget is just as valid under a large one."""
    global _budget
    if budget < 1:
        raise ValueError("budget must be positive")
    if budget > MAX_BUDGET:
        raise ValueError(f"budget must be at most 2^{_DIGIT_ROOM_BITS} = {MAX_BUDGET}")
    _budget = budget


def reset_stats() -> None:
    for k in STATS:
        STATS[k] = 0


# Entries per memo table.  The largest table in any benchmark pass holds
# about 420 entries, so no workload evicts.
CACHE_SIZE = 1024

_MEMO_TABLES: list = []


def memoized(fn):
    """fn behind a least-recently-used table of at most CACHE_SIZE entries,
    which clear_caches() empties.  The table keys on the arguments as
    passed, so give it positional arguments only."""
    table = lru_cache(maxsize=CACHE_SIZE)(fn)
    _MEMO_TABLES.append(table)
    return table


def clear_caches() -> None:
    """Empty every memo table."""
    for table in _MEMO_TABLES:
        table.cache_clear()


class _Work:
    """Step counter for one computation."""

    __slots__ = ("steps", "budget")

    def __init__(self, budget: int):
        self.steps = 0
        self.budget = budget

    def step(self) -> None:
        self.steps += 1
        if self.steps > self.budget:
            raise BudgetExceeded(
                f"reduction budget of {self.budget} steps exceeded "
                "(raise it with set_budget or --budget; this is a resource "
                "limit, not a negative answer)"
            )


# -- ideals --------------------------------------------------------------------


def _poly_sort_key(f: MultiPoly):
    return (f.total_degree(), len(f.terms), sorted(f.tuple_terms().items()))


def _tie_sorted(items: list, cheap, full) -> list:
    """items sorted by cheap(item), ties broken by full(item), which is
    computed only for the items whose cheap keys tie."""
    keyed = [(cheap(x), x) for x in items]
    tied = {k for k, count in Counter(k for k, _ in keyed).items() if count > 1}
    keyed.sort(key=lambda kx: (kx[0], full(kx[1]) if kx[0] in tied else ()))
    return [x for _, x in keyed]


@record
class Ideal:
    """An ideal of K[x1..xn] given by generators, canonicalized so that equal
    generating sets compare and hash equal."""

    spec: FieldSpec
    nvars: int
    generators: tuple[MultiPoly, ...]

    @staticmethod
    def of(spec: FieldSpec, nvars: int, gens: Iterable[MultiPoly]) -> "Ideal":
        clean: list[MultiPoly] = []
        seen: set[MultiPoly] = set()
        for f in gens:
            if f.spec != spec:
                raise SpecMismatch("generator over a different field")
            if f.nvars != nvars:
                raise ArityMismatch(
                    f"generator arity {f.nvars} != ideal arity {nvars}"
                )
            if f.is_zero or f in seen:
                continue
            seen.add(f)
            clean.append(f)
        clean = _tie_sorted(clean, lambda f: (f.total_degree(), len(f.terms)), _poly_sort_key)
        return Ideal(spec, nvars, tuple(clean))


@record
class GroebnerBasis:
    """A reduced Groebner basis: monic, interreduced, sorted ascending by
    leading monomial.  Unique for a given (ideal, order)."""

    ideal: Ideal
    order: MonomialOrder
    polys: tuple[MultiPoly, ...]
    # The packing the basis was computed in and `polys` as packed elements,
    # so normal forms need not pack the basis again.
    _packed: tuple

    @property
    def is_unit(self) -> bool:
        return len(self.polys) == 1 and self.polys[0].is_constant()

    def contains(self, f: MultiPoly) -> bool:
        return normal_form(f, self).is_zero


# -- packed monomials ----------------------------------------------------------


class _Packing:
    """The monomials of one computation, as pairs (K, P).

    P is the packed int of mpoly, so a monomial product adds P, divisibility
    is one mask with `guard`, and the degree is P >> deg_shift.  K is the
    order's key, the dot product of the exponents with its weights (see
    mpoly.MonomialOrder), so a product adds K too.  Every degree reached (at
    most 254, an lcm of two monomials) is below mpoly.WEIGHT_BASE, so K is
    injective.
    """

    __slots__ = ("nvars", "deg_shift", "guard", "weights")

    def __init__(self, nvars: int, order: MonomialOrder):
        self.nvars = nvars
        self.deg_shift, self.guard = _layout(nvars)
        self.weights = order.weights(nvars)

    def key(self, p: int) -> int:
        return sum(map(mul, _exponents(p, self.nvars), self.weights))

    def terms(self, f: MultiPoly) -> list:
        """f's terms as (K, P, coefficient) triples, largest first."""
        key = self.key
        out = [(key(p), p, c) for p, c in f.terms.items()]
        out.sort(key=itemgetter(0), reverse=True)
        return out


# -- core reduction ------------------------------------------------------------


def _numerators(terms: Sequence, spec: FieldSpec) -> tuple:
    """Raw (K, P, c) triples as ints over a denominator, the form _reduce
    takes: over Q the numerators over their least common denominator, over
    a finite field the raws themselves over 1."""
    if spec.is_finite:
        return terms, 1
    den = lcm(*(c.denominator for _, _, c in terms))
    return [(k, p, c.numerator * (den // c.denominator)) for k, p, c in terms], den


def _element(k: int, p: int, neg_tail: tuple, spec: FieldSpec) -> tuple:
    """A monic basis element from its negated raw tail triples: (lead K,
    lead P, D, ints, top), where ints over D is the negated tail (see
    _numerators) and top is the tail's largest P (see _top)."""
    ints, D = _numerators(neg_tail, spec)
    return k, p, D, tuple(ints), _top(ints)


def _lowest_terms(k: int, p: int, ints: Sequence, den: int) -> tuple:
    """The basis element of lead (K, P) whose negated tail is the int
    triples over den != 0 (over a finite field, raws over 1): both divided
    by g = gcd(den, c_1..c_k), signed like den, so D = |den| / g."""
    g = gcd(den, *(c for _, _, c in ints))
    if den < 0:
        g = -g
    if g != 1:
        ints = [(tk, tp, c // g) for tk, tp, c in ints]
    return k, p, den // g, tuple(ints), _top(ints)


def _top(tail: Sequence):
    """A tail's largest P, of its highest degree (under lex or block orders
    not always its first); an empty tail's is below every shifted P."""
    return max((tp for _, tp, _ in tail), default=float("-inf"))


def _poly(el: tuple, nvars: int, spec: FieldSpec) -> MultiPoly:
    """A basis element as a MultiPoly."""
    _, p, D, ints, _ = el
    if spec.is_finite:
        tail = {q: spec.neg_raw(c) for _, q, c in ints}
    else:
        tail = {q: Fraction(-c, D) for _, q, c in ints}
    return MultiPoly(spec, nvars, {p: spec.one_raw(), **tail})


def _monic_element(out: list, spec: FieldSpec) -> tuple:
    """A nonzero remainder of _reduce scaled to a monic basis element.  Over
    Q the negated tail is -c_i / c_0, so the remainder's den cancels."""
    if spec.is_finite:
        return _monic_raws(out, spec)
    (k, p, lc), *tail = out
    return _lowest_terms(k, p, tail, -lc)


def _monic_raws(terms: list, spec: FieldSpec) -> tuple:
    """A monic basis element from raw (K, P, c) triples, largest first: the
    tail times -1 over the lead coefficient."""
    (k, p, lc), *tail = terms
    if lc == 1:
        neg = spec.neg_raw
        return _element(k, p, tuple((tk, tp, neg(c)) for tk, tp, c in tail), spec)
    m, mul_raw = spec.neg_raw(spec.inv_raw(lc)), spec.mul_raw
    return _element(k, p, tuple((tk, tp, mul_raw(c, m)) for tk, tp, c in tail), spec)


def _readout(remainder: tuple, spec: FieldSpec) -> list:
    """The raw triples of ints over a denominator, such as a remainder of
    _reduce."""
    out, den = remainder
    if spec.is_finite:
        return out
    return [(k, p, Fraction(c, den)) for k, p, c in out]


def _reduce(
    poly: tuple, basis: Sequence, pk: _Packing, spec: FieldSpec, work: _Work
) -> tuple:
    """Full normal form of a polynomial, given as (int (K, P, c) triples,
    den) (see _numerators), against basis elements (see _element).  Terms
    are taken largest first from a heap of -K; a term whose coefficient is
    zero when popped is skipped.  The first basis element whose lead
    divides the term reduces it, so the result is deterministic for a fixed
    basis order (and unique anyway once the basis is a Groebner basis).
    Returns (triples largest first, den) in the same form: the remainder's
    numerators over den (see the module docstring) and, over a finite
    field, its raws over den = 1."""
    cap = degree_cap()
    guard, deg_shift = pk.guard, pk.deg_shift
    above_cap = (cap + 1) << deg_shift  # the degree is P's top field
    reduce = spec.reduce
    coef: dict = {}
    packed: dict = {}
    terms, den = poly
    for k, p, c in terms:
        coef[k] = c
        packed[k] = p
    # Each key enters the heap once: reduction only makes terms below the
    # one popped, and a cancelled term stays in coef until it is popped.
    heap = [-k for k in coef]
    heapify(heap)
    out = []
    while heap:
        k = -heappop(heap)
        c = coef.pop(k)
        if reduce is not None:
            c = reduce(c)
        if not c:
            continue
        p = packed[k]
        for lk, lp, D, tail, top in basis:
            if not (p - lp) & guard:
                break
        else:
            out.append((k, p, c))
            continue
        work.step()
        sk, sp = k - lk, p - lp
        if top + sp >= above_cap:
            raise DegreeCapExceeded(
                f"reduction reached degree {(top + sp) >> deg_shift} above cap {cap}"
            )
        if D != 1:
            h = gcd(c, D)
            if h != D:
                s = D // h
                den *= s
                for m in coef:
                    coef[m] *= s
                out = [(ok, op, oc * s) for ok, op, oc in out]
            c //= h
        for tk, tp, t in tail:
            mk = tk + sk
            prev = coef.get(mk)
            if prev is None:
                coef[mk] = c * t
                packed[mk] = tp + sp
                heappush(heap, -mk)
            else:
                coef[mk] = prev + c * t
    return out, den


def _spoly(a: tuple, b: tuple, m: tuple, pk: _Packing, spec: FieldSpec) -> tuple:
    """The S-polynomial of two monic basis elements, negated, as (int
    (K, P, c) triples, L) like a remainder of _reduce: numerators over L =
    lcm(D_a, D_b), or over a finite field raws over 1.  `m` is the packed
    lcm of their leads, which cancel.  It comes out negated because the
    elements keep negated tails, which its uses do not see: a remainder is
    tested for zero or made monic.  Over Q the field's raw operations act
    on the ints exactly."""
    cap = degree_cap()
    lk, lp = m
    # The highest degree reached: the cancelling leads' or a shifted tail's.
    degree = max(lp, a[4] + lp - a[1], b[4] + lp - b[1]) >> pk.deg_shift
    if degree > cap:
        raise DegreeCapExceeded(f"S-polynomial reached degree {degree} above cap {cap}")
    L = lcm(a[2], b[2])

    def shifted(el: tuple):
        sk, sp, s = lk - el[0], lp - el[1], L // el[2]
        if s == 1:
            return ((tk + sk, tp + sp, c) for tk, tp, c in el[3])
        return ((tk + sk, tp + sp, c * s) for tk, tp, c in el[3])

    acc = {k: (p, c) for k, p, c in shifted(a)}
    for k, p, c in shifted(b):
        prev = acc.get(k)
        if prev is None:
            acc[k] = (p, spec.neg_raw(c))
            continue
        s = spec.sub_raw(prev[1], c)
        if spec.is_zero_raw(s):
            del acc[k]
        else:
            acc[k] = (p, s)
    return [(k, p, c) for k, (p, c) in acc.items()], L


# -- Buchberger ----------------------------------------------------------------

def groebner_basis(ideal: Ideal, order: MonomialOrder = GREVLEX) -> GroebnerBasis:
    """Reduced Groebner basis of the ideal under the given order.  Results
    are memoized by (ideal, order); the budget is deliberately not part of
    the key (see set_budget)."""
    return _groebner_basis(ideal, order)


@memoized
def _groebner_basis(ideal: Ideal, order: MonomialOrder) -> GroebnerBasis:
    return _compute_basis(ideal, order)


def _compute_basis(ideal: Ideal, order: MonomialOrder) -> GroebnerBasis:
    """The reduced basis, computed afresh and checked under CHECK_SPOLYS."""
    polys, pk, packed = _buchberger(ideal, order, _Work(_budget))
    gb = GroebnerBasis(ideal, order, polys, (pk, packed))
    STATS["bases_computed"] += 1

    if CHECK_SPOLYS:
        _verify_spolys(gb)
    return gb


def _seed(ideal: Ideal, pk: _Packing) -> list[tuple]:
    """The generators as monic basis elements, each packed once, ascending
    by lead; equal leads are ordered by their monic polynomials'
    _poly_sort_key."""
    spec, n = ideal.spec, ideal.nvars
    G = [_monic_raws(pk.terms(f), spec) for f in ideal.generators]
    return _tie_sorted(G, itemgetter(0), lambda g: _poly_sort_key(_poly(g, n, spec)))


def _buchberger(ideal: Ideal, order: MonomialOrder, work: _Work) -> tuple:
    """The reduced basis as (polys, packing, packed elements)."""
    spec = ideal.spec
    n = ideal.nvars
    pk = _Packing(n, order)
    guard = pk.guard
    # Each element gets its order keys once, here or when it enters.
    G = _seed(ideal, pk)
    # Pairs wait in a heap under the total key (lcm degree, i, j); `pending`
    # holds the same pairs for the chain criterion.
    pairs: list[tuple] = []
    pending: set[tuple[int, int]] = set()

    def add_pairs(t: int) -> None:
        for s in range(t):
            lp = mono_lcm(G[s][1], G[t][1], n)
            heappush(pairs, (lp >> pk.deg_shift, s, t, pk.key(lp), lp))
            pending.add((s, t))

    for t in range(1, len(G)):
        add_pairs(t)

    while pairs:
        _, i, j, lk, lp = heappop(pairs)
        pending.remove((i, j))
        # Coprime leads: the S-polynomial reduces to zero for free.
        if lp == G[i][1] + G[j][1]:
            continue
        # Chain criterion: a third lead dividing the lcm, both of whose pairs
        # with i and j have already been handled, makes this pair redundant.
        redundant = False
        for k, g in enumerate(G):
            if k == i or k == j or (lp - g[1]) & guard:
                continue
            a = (min(i, k), max(i, k))
            b = (min(j, k), max(j, k))
            if a not in pending and b not in pending:
                redundant = True
                break
        if redundant:
            continue
        out, _ = _reduce(_spoly(G[i], G[j], (lk, lp), pk, spec), G, pk, spec, work)
        if not out:
            continue
        G.append(_monic_element(out, spec))
        add_pairs(len(G) - 1)

    # Minimal: keep only leads not divisible by another kept lead.
    kept: list[tuple] = []
    for g in sorted(G, key=itemgetter(0)):
        if any(not (g[1] - h[1]) & guard for h in kept):
            continue
        kept.append(g)

    # Reduced: tail-reduce each element against the others (no other kept
    # lead divides its lead, and reduction only makes smaller terms).
    # `kept` ascends by lead, and so does the result.
    reduced = []
    for i, g in enumerate(kept):
        others = kept[:i] + kept[i + 1 :]
        if others:
            steps = work.steps
            out, den = _reduce((g[3], g[2]), others, pk, spec, work)
            if work.steps != steps:  # else the tail is already reduced
                g = _lowest_terms(g[0], g[1], out, den)
        reduced.append(g)
    polys = tuple(_poly(g, n, spec) for g in reduced)
    return polys, pk, reduced


def _verify_spolys(gb: GroebnerBasis) -> None:
    """Postcondition check: every S-polynomial of the finished basis must
    reduce to zero against it."""
    spec = gb.ideal.spec
    pk, els = gb._packed
    work = _Work(_budget)
    for i in range(len(els)):
        for j in range(i + 1, len(els)):
            STATS["spoly_checks"] += 1
            lp = mono_lcm(els[i][1], els[j][1], pk.nvars)
            lcm = (pk.key(lp), lp)
            if _reduce(_spoly(els[i], els[j], lcm, pk, spec), els, pk, spec, work)[0]:
                STATS["spoly_failures"] += 1
                raise RuntimeError(
                    "finished basis failed its S-polynomial postcondition"
                )


def normal_form(f: MultiPoly, gb: GroebnerBasis) -> MultiPoly:
    """Unique remainder of f modulo the basis."""
    if f.spec != gb.ideal.spec:
        raise SpecMismatch("polynomial over a different field than the ideal")
    if f.nvars != gb.ideal.nvars:
        raise ArityMismatch("polynomial arity differs from the ideal's")
    if not gb.polys:
        return f
    pk, basis = gb._packed
    remainder = _reduce(_numerators(pk.terms(f), f.spec), basis, pk, f.spec, _Work(_budget))
    return MultiPoly(f.spec, f.nvars, {p: c for _, p, c in _readout(remainder, f.spec)})


# -- derived questions -----------------------------------------------------------


def ideal_dimension(ideal: Ideal) -> int:
    """Krull dimension of K[x]/I, computed combinatorially from the leading
    monomials: the largest variable subset S such that no leading monomial
    lives entirely inside S.  The unit ideal reports -1, the zero ideal n."""
    gb = groebner_basis(ideal, GREVLEX)
    if not gb.polys:
        return ideal.nvars
    if gb.is_unit:
        return -1
    n = ideal.nvars
    # Each lead's variables, read from its packed P.
    sups = [frozenset(i for i, e in enumerate(_exponents(el[1], n)) if e) for el in gb._packed[1]]
    for size in range(n, 0, -1):
        for S in combinations(range(n), size):
            sset = frozenset(S)
            if all(not sup <= sset for sup in sups):
                return size
    return 0


def eliminate(ideal: Ideal, drop: Iterable[int]) -> Ideal:
    """Intersect with the subring that omits the dropped variables, and
    re-index the survivors onto x1..x(n-|drop|) keeping their relative
    order.  The elimination basis is computed, not memoized, and dropped
    once its elements free of the dropped variables are read: callers keep
    the result (endo.relation_ideal memoizes it), and a basis kept beside
    it would only hold memory."""
    dropped = frozenset(drop)
    if not dropped:
        return ideal
    if not all(0 <= i < ideal.nvars for i in dropped):
        raise ArityMismatch("eliminated index out of range")
    keep = [i for i in range(ideal.nvars) if i not in dropped]
    if not keep:
        raise ArityMismatch("cannot eliminate every variable")
    gb = _compute_basis(ideal, Block(dropped))
    out = []
    for g in gb.polys:
        if g.variables_used() & dropped:
            continue
        out.append(_compact(g, keep))
    return Ideal.of(ideal.spec, len(keep), out)


def _compact(f: MultiPoly, keep: Sequence[int]) -> MultiPoly:
    """f, which uses no variable outside `keep` (ascending indices), in the
    ring of the kept variables, in their order.  Each run of consecutive
    kept exponent bytes moves down past the dropped bytes below it, and the
    degree field moves down to sit above the kept ones."""
    moves = []  # (source shift, mask, target shift) per run
    for _, run in groupby(enumerate(keep), key=lambda t: t[1] - t[0]):
        run = list(run)
        moves.append((8 * run[0][1], (1 << 8 * len(run)) - 1, 8 * run[0][0]))
    shift, top = 8 * f.nvars, 8 * len(keep)
    return MultiPoly(
        f.spec,
        len(keep),
        {
            sum(((p >> s) & mask) << t for s, mask, t in moves) + (p >> shift << top): c
            for p, c in f.terms.items()
        },
    )


def _pad(h: MultiPoly, extra: int) -> MultiPoly:
    """h read in a ring with `extra` more variables after its own: the
    degree field moves up past their zero exponent bytes."""
    shift = 8 * h.nvars
    low, top = (1 << shift) - 1, shift + 8 * extra
    return MultiPoly(
        h.spec, h.nvars + extra, {(p & low) + (p >> shift << top): c for p, c in h.terms.items()}
    )


def graph_ideal(images: Sequence[MultiPoly]) -> Ideal:
    """The ideal (y_i - g_i) of g_i = images[i] in K[x, y], with x the
    images' n variables and y_1..y_m the m after them.  Eliminating x from
    it leaves the relations among the images."""
    spec, n, m = images[0].spec, images[0].nvars, len(images)
    tags = [
        MultiPoly.variable(spec, n + m, n + i) - _pad(g, m)
        for i, g in enumerate(images)
    ]
    return Ideal.of(spec, n + m, tags)


def subalgebra_member(
    f: MultiPoly, gens: Sequence[MultiPoly]
) -> Optional[MultiPoly]:
    """Decide f ∈ K[g1..gm] and return a witness polynomial w with
    w(g1..gm) = f, or None.  The witness is canonical: it is the normal form
    of f against the tag ideal (y_i - g_i) under an order that eliminates the
    original variables."""
    return _subalgebra_member_cached(f, tuple(gens))


@memoized
def _subalgebra_member_cached(
    f: MultiPoly, gens: tuple[MultiPoly, ...]
) -> Optional[MultiPoly]:
    if not gens:
        raise ArityMismatch("membership needs at least one generator")
    spec = f.spec
    n = f.nvars
    m = len(gens)
    for g in gens:
        if g.spec != spec:
            raise SpecMismatch("generator over a different field")
        if g.nvars != n:
            raise ArityMismatch("generator arity differs from the candidate's")

    gb = groebner_basis(graph_ideal(gens), Block(range(n)))
    nf = normal_form(_pad(f, m), gb)
    if nf.variables_used() & set(range(n)):
        return None
    witness = _compact(nf, range(n, n + m))
    if witness.substitute(gens) != f:
        raise RuntimeError("membership witness failed its substitution check")
    return witness


def invert_poly_map(
    images: Sequence[MultiPoly],
) -> Optional[tuple[MultiPoly, ...]]:
    """Exact inverse of the polynomial map x_k -> images[k], if the map is an
    algebra automorphism; None otherwise.  Both round trips are verified:
    once every x_k has a membership witness the map is onto, hence an
    automorphism, so a witness tuple that fails to invert it is a fault and
    raises RuntimeError."""
    return _invert_cached(tuple(images))


@memoized
def _invert_cached(
    images: tuple[MultiPoly, ...]
) -> Optional[tuple[MultiPoly, ...]]:
    n = len(images)
    if n == 0:
        raise ArityMismatch("empty polynomial map")
    spec = images[0].spec
    for g in images:
        if g.nvars != n:
            raise ArityMismatch("inverse search needs as many images as variables")
        if g.spec != spec:
            raise SpecMismatch("images over different fields")
    xs = [MultiPoly.variable(spec, n, k) for k in range(n)]
    ws = []
    for k in range(n):
        w = subalgebra_member(xs[k], images)
        if w is None:
            return None
        ws.append(w)
    candidate = tuple(ws)
    for k in range(n):
        if images[k].substitute(candidate) != xs[k]:
            raise RuntimeError("inverse failed its round trip")
    return candidate
