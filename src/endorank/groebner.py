"""Deterministic Buchberger engine with budgets, caching, and self-checks.

Everything downstream (ranks, order comparisons, subalgebra membership, map
inversion) reduces to Groebner bases, so this module is built for
reproducibility: generators are canonically sorted, pair selection and
reduction are fully deterministic, and answers are memoized.  Every memo
table (bases by (ideal, order), subalgebra memberships, map inverses, and
relation ideals in endo) is made by `memoized`: a least-recently-used table
of at most CACHE_SIZE entries, which clear_caches() empties.

Inside a computation a monomial is the packed int a MultiPoly keys its terms
by, plus an order key (see _Packing), so a monomial product is two additions
and a divisibility test is one mask.  Reduction takes terms largest first
from a heap (Monagan & Pearce, "Sparse polynomial division using a heap",
JSC 2011), and S-pairs wait in a heap under the total key (lcm degree, i,
j).  Only finished bases are turned back into MultiPoly.

Work is metered in reduction steps against a module-wide budget; blowing the
budget raises BudgetExceeded, which is a resource verdict, never a
mathematical "no".  The step count of a computation does not depend on the
representation: it is the number of divisions the algorithm makes.
Setting CHECK_SPOLYS makes every finished basis re-verify that all its
S-polynomials reduce to zero, with counters in STATS.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from heapq import heapify, heappop, heappush
from itertools import combinations
from operator import itemgetter, mul
from typing import Iterable, Optional, Sequence

from .errors import ArityMismatch, BudgetExceeded, DegreeCapExceeded, SpecMismatch
from .fields import FieldSpec
from .mpoly import (
    GREVLEX,
    Block,
    MonomialOrder,
    MultiPoly,
    _exponents,
    _layout,
    _pack,
    degree_cap,
    mono_lcm,
)

# -- configuration and instrumentation ----------------------------------------

_budget = 10**6

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


@dataclass(frozen=True)
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
        clean.sort(key=_poly_sort_key)
        return Ideal(spec, nvars, tuple(clean))

    @property
    def is_zero(self) -> bool:
        return not self.generators


@dataclass(frozen=True)
class GroebnerBasis:
    """A reduced Groebner basis: monic, interreduced, sorted ascending by
    leading monomial.  Unique for a given (ideal, order)."""

    ideal: Ideal
    order: MonomialOrder
    polys: tuple[MultiPoly, ...]
    # The packing the basis was computed in and `polys` as packed elements,
    # so normal forms need not pack the basis again.
    _packed: tuple = field(compare=False, repr=False)

    @property
    def is_unit(self) -> bool:
        return len(self.polys) == 1 and self.polys[0].is_constant()

    def leading_monomials(self) -> tuple:
        return tuple(g.leading_monomial(self.order) for g in self.polys)

    def normal_form(self, f: MultiPoly) -> MultiPoly:
        return normal_form(f, self)

    def contains(self, f: MultiPoly) -> bool:
        return normal_form(f, self).is_zero


# -- packed monomials ----------------------------------------------------------


class _Packing:
    """The monomials of one computation, as pairs (K, P).

    P is the packed int of mpoly, so a monomial product adds P, divisibility
    is one mask with `guard`, and the degree is P >> deg_shift.  K =
    sum(e_i * W_i) over the order's weights in base 256 sorts exactly like
    `order.key`, and a product adds K too.  Every degree reached (at most
    254, an lcm of two monomials) is below the base, so K is injective.
    """

    __slots__ = ("nvars", "deg_shift", "guard", "weights")

    def __init__(self, nvars: int, order: MonomialOrder):
        self.nvars = nvars
        self.deg_shift, self.guard = _layout(nvars)
        self.weights = order.weights(nvars, 256)

    def key(self, p: int) -> int:
        return sum(map(mul, _exponents(p, self.nvars), self.weights))

    def terms(self, f: MultiPoly) -> list:
        """f's terms as (K, P, coefficient) triples, largest first."""
        key = self.key
        out = [(key(p), p, c) for p, c in f.terms.items()]
        out.sort(key=itemgetter(0), reverse=True)
        return out

    def element(self, f: MultiPoly) -> tuple:
        """A monic f as a basis element: (lead K, lead P, tail triples)."""
        (k, p, _), *tail = self.terms(f)
        return k, p, tuple(tail)


# -- core reduction ------------------------------------------------------------


def _make_monic(f: MultiPoly, order: MonomialOrder) -> MultiPoly:
    lc = f.leading_coefficient(order)
    one = f.spec.one_raw()
    if lc.raw == one:
        return f
    return f.scale(lc.inverse())


def _monic_element(terms: list, spec: FieldSpec) -> tuple:
    """A nonzero remainder (triples, largest first) scaled to a monic basis
    element."""
    lc = terms[0][2]
    if lc != spec.one_raw():
        inv = spec.inv_raw(lc)
        terms = [(k, p, spec.mul_raw(c, inv)) for k, p, c in terms]
    (k, p, _), *tail = terms
    return k, p, tuple(tail)


def _reduce(
    terms: Iterable, basis: Sequence, pk: _Packing, spec: FieldSpec, work: _Work
) -> list:
    """Full normal form of a polynomial, given as (K, P, c) triples, against
    monic basis elements.  Terms are taken largest first from a heap of -K;
    an entry whose term cancelled after it was pushed is skipped when
    popped.  The first basis element whose lead divides the term reduces it,
    so the result is deterministic for a fixed basis order (and unique
    anyway once the basis is a Groebner basis).  Returns the remainder's
    triples, largest first."""
    cap = degree_cap()
    guard, deg_shift = pk.guard, pk.deg_shift
    mul, sub, neg, is_zero = spec.mul_raw, spec.sub_raw, spec.neg_raw, spec.is_zero_raw
    coef: dict = {}
    packed: dict = {}
    for k, p, c in terms:
        coef[k] = c
        packed[k] = p
    heap = [-k for k in coef]
    heapify(heap)
    out = []
    while heap:
        k = -heappop(heap)
        c = coef.pop(k, None)
        if c is None:
            continue
        p = packed[k]
        for lk, lp, tail in basis:
            if not (p - lp) & guard:
                break
        else:
            out.append((k, p, c))
            continue
        work.step()
        sk, sp = k - lk, p - lp
        for tk, tp, tc in tail:
            mp = tp + sp
            if mp >> deg_shift > cap:
                raise DegreeCapExceeded(
                    f"reduction reached degree {mp >> deg_shift} above cap {cap}"
                )
            mk = tk + sk
            d = mul(c, tc)
            prev = coef.get(mk)
            if prev is None:
                # Products of nonzero field elements are nonzero.
                coef[mk] = neg(d)
                packed[mk] = mp
                heappush(heap, -mk)
            else:
                s = sub(prev, d)
                if is_zero(s):
                    del coef[mk]
                else:
                    coef[mk] = s
    return out


def _spoly(a: tuple, b: tuple, lcm: tuple, pk: _Packing, spec: FieldSpec) -> list:
    """S-polynomial of two monic basis elements as (K, P, c) triples; `lcm`
    is the packed lcm of their leads, which cancel."""
    cap = degree_cap()
    deg_shift = pk.deg_shift
    lk, lp = lcm

    def shifted(el: tuple):
        sk, sp = lk - el[0], lp - el[1]
        for tk, tp, c in el[2]:
            mp = tp + sp
            if mp >> deg_shift > cap:
                raise DegreeCapExceeded(
                    f"S-polynomial reached degree {mp >> deg_shift} above cap {cap}"
                )
            yield tk + sk, mp, c

    if lp >> deg_shift > cap:
        raise DegreeCapExceeded(
            f"S-polynomial reached degree {lp >> deg_shift} above cap {cap}"
        )
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
    return [(k, p, c) for k, (p, c) in acc.items()]


# -- Buchberger ----------------------------------------------------------------

def groebner_basis(ideal: Ideal, order: MonomialOrder = GREVLEX) -> GroebnerBasis:
    """Reduced Groebner basis of the ideal under the given order.  Results
    are memoized by (ideal, order); the budget is deliberately not part of
    the key (see set_budget)."""
    return _groebner_basis(ideal, order)


@memoized
def _groebner_basis(ideal: Ideal, order: MonomialOrder) -> GroebnerBasis:
    polys, pk, packed = _buchberger(ideal, order, _Work(_budget))
    gb = GroebnerBasis(ideal, order, polys, (pk, packed))
    STATS["bases_computed"] += 1

    if CHECK_SPOLYS:
        _verify_spolys(gb)
    return gb


def _buchberger(ideal: Ideal, order: MonomialOrder, work: _Work) -> tuple:
    """The reduced basis as (polys, packing, packed elements)."""
    spec = ideal.spec
    n = ideal.nvars
    monic = [_make_monic(f, order) for f in ideal.generators]
    pk = _Packing(n, order)
    guard = pk.guard
    seed = [(pk.element(f), _poly_sort_key(f)) for f in monic]
    seed.sort(key=lambda t: (t[0][0], t[1]))
    # Each element gets its order keys once, here or when it enters.
    G: list[tuple] = [el for el, _ in seed]
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
        r = _reduce(_spoly(G[i], G[j], (lk, lp), pk, spec), G, pk, spec, work)
        if not r:
            continue
        G.append(_monic_element(r, spec))
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
    for i, (k, p, tail) in enumerate(kept):
        others = kept[:i] + kept[i + 1 :]
        if others:
            tail = tuple(_reduce(tail, others, pk, spec, work))
        reduced.append((k, p, tail))
    one = spec.one_raw()
    polys = tuple(
        MultiPoly(spec, n, {q: c for _, q, c in ((k, p, one), *tail)})
        for k, p, tail in reduced
    )
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
            if _reduce(_spoly(els[i], els[j], lcm, pk, spec), els, pk, spec, work):
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
    remainder = _reduce(pk.terms(f), basis, pk, f.spec, _Work(_budget))
    return MultiPoly(f.spec, f.nvars, {p: c for _, p, c in remainder})


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
    sups = [
        frozenset(i for i, e in enumerate(lm) if e)
        for lm in gb.leading_monomials()
    ]
    n = ideal.nvars
    for size in range(n, 0, -1):
        for S in combinations(range(n), size):
            sset = frozenset(S)
            if all(not sup <= sset for sup in sups):
                return size
    return 0


def eliminate(ideal: Ideal, drop: Iterable[int]) -> Ideal:
    """Intersect with the subring that omits the dropped variables, and
    re-index the survivors onto x1..x(n-|drop|) keeping their relative
    order."""
    dropped = frozenset(drop)
    if not dropped:
        return ideal
    if not all(0 <= i < ideal.nvars for i in dropped):
        raise ArityMismatch("eliminated index out of range")
    keep = [i for i in range(ideal.nvars) if i not in dropped]
    if not keep:
        raise ArityMismatch("cannot eliminate every variable")
    gb = groebner_basis(ideal, Block(dropped))
    out = []
    for g in gb.polys:
        if g.variables_used() & dropped:
            continue
        out.append(_reindex(g, len(keep), lambda m: [m[i] for i in keep]))
    return Ideal.of(ideal.spec, len(keep), out)


def _reindex(f: MultiPoly, nvars: int, place) -> MultiPoly:
    """f in nvars variables, each exponent tuple m moved to place(m); place
    must be one-to-one on f's monomials."""
    return MultiPoly(
        f.spec, nvars, {_pack(place(m)): c for m, c in f.tuple_terms().items()}
    )


def _pad(h: MultiPoly, extra: int) -> MultiPoly:
    """h read in a ring with `extra` more variables after its own."""
    return _reindex(h, h.nvars + extra, lambda m: m + (0,) * extra)


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
    witness = _reindex(nf, m, lambda mo: mo[n:])
    if witness.substitute(gens) != f:
        raise RuntimeError("membership witness failed its substitution check")
    return witness


def invert_poly_map(
    images: Sequence[MultiPoly],
) -> Optional[tuple[MultiPoly, ...]]:
    """Exact inverse of the polynomial map x_k -> images[k], if the map is an
    algebra automorphism; None otherwise.  Both round trips are verified."""
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
            return None
    return candidate
