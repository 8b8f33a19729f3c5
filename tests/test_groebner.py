"""Buchberger engine: reduced bases, dimension, elimination, membership,
subalgebra membership, and map inversion.

The explicit expected bases below were worked out independently (and agree
with the standard computer-algebra references for these classic examples),
then frozen.
"""

import hashlib
import itertools
import math
import random
from fractions import Fraction

import pytest

from endorank.errors import ArityMismatch, BudgetExceeded, DegreeCapExceeded
from endorank.fields import GF2, GF3, GF4, GF9, QQ
from endorank import groebner
from endorank.groebner import (
    Ideal,
    clear_caches,
    eliminate,
    get_budget,
    groebner_basis,
    ideal_dimension,
    invert_poly_map,
    normal_form,
    set_budget,
    subalgebra_member,
)
from endorank import mpoly
from endorank.mpoly import (
    GREVLEX,
    Block,
    MultiPoly,
    degree_cap,
    set_degree_cap,
)
from endorank.autgroup import conjugate
from endorank.parsing import load_automorphism, load_endomorphism, parse_polynomial
from endorank.sampling import random_polynomial
from test_mpoly import LEX, tuple_key


def p(text, spec=QQ, n=2):
    return parse_polynomial(text, spec, n)


def ideal(*texts, spec=QQ, n=2):
    return Ideal.of(spec, n, tuple(p(t, spec, n) for t in texts))


def test_reduced_basis_classic_grevlex():
    gb = groebner_basis(ideal("x1^3 - 2*x1*x2", "x1^2*x2 + x1 - 2*x2^2"))
    assert [str(f) for f in gb.polys] == ["x2^2 - 1/2*x1", "x1*x2", "x1^2"]


def test_reduced_basis_circle_hyperbola():
    gb = groebner_basis(ideal("x1^2 + x2^2", "x1*x2 - 1"))
    assert [str(f) for f in gb.polys] == [
        "x1*x2 - 1",
        "x1^2 + x2^2",
        "x2^3 + x1",
    ]
    # S-polynomial of the first two reduces to the third
    s = p("x2^3 + x1")
    assert normal_form(s, gb).is_zero


def test_reduced_basis_lex():
    gb = groebner_basis(
        ideal("x1^2 + 2*x1*x2^2", "x1*x2 + 2*x2^3 - 1"), order=LEX
    )
    assert [str(f) for f in gb.polys] == ["x2^3 - 1/2", "x1"]


def test_twisted_cubic_lex():
    gb = groebner_basis(
        ideal("x2 - x1^2", "x3 - x1^3", n=3), order=LEX
    )
    # the printer is grevlex-descending whatever order built the basis,
    # so the lex-monic x1*x3 - x2^2 renders tail-first
    assert [str(f) for f in gb.polys] == [
        "x2^3 - x3^2",
        "-x2^2 + x1*x3",
        "x1*x2 - x3",
        "x1^2 - x2",
    ]


def test_unit_and_zero_ideals():
    gb = groebner_basis(ideal("x1", "x1 + 1"))
    assert gb.is_unit
    assert [str(f) for f in gb.polys] == ["1"]
    empty = groebner_basis(Ideal.of(QQ, 2, ()))
    assert empty.polys == ()
    assert not empty.is_unit


def test_membership():
    I = ideal("x1^2 + x2^2", "x1*x2 - 1")
    rng = random.Random(3)
    for _ in range(20):
        h = random_polynomial(rng, QQ, 2, max_degree=2, max_terms=2)
        k = random_polynomial(rng, QQ, 2, max_degree=2, max_terms=2)
        member = h * I.generators[0] + k * I.generators[1]
        assert groebner_basis(I).contains(member)
    assert not groebner_basis(I).contains(p("x1"))
    assert not groebner_basis(I).contains(p("1"))
    assert groebner_basis(I).contains(MultiPoly.zero(QQ, 2))


def test_normal_form_is_stable():
    gb = groebner_basis(ideal("x1^2 + x2^2", "x1*x2 - 1"))
    f = p("x1^3*x2 + x2")
    nf = normal_form(f, gb)
    # reducing the remainder again changes nothing
    assert normal_form(nf, gb) == nf
    assert gb.contains(f - nf)


def test_ideal_dimension_frozen_cases():
    assert ideal_dimension(Ideal.of(QQ, 2, ())) == 2
    assert ideal_dimension(ideal("1")) == -1
    assert ideal_dimension(ideal("x1")) == 1
    assert ideal_dimension(ideal("x1", "x2")) == 0
    assert ideal_dimension(ideal("x1*x2")) == 1
    assert ideal_dimension(ideal("x2 - x1^2", "x3 - x1^3", n=3)) == 1
    assert ideal_dimension(ideal("x1^2 + x2^2", "x1*x2 - 1")) == 0


def test_dimension_char_p():
    assert ideal_dimension(ideal("x1^2 + x2^2", spec=GF2)) == 1
    assert ideal_dimension(ideal("x1^3 - x2", spec=GF3)) == 1


def _dimension_from_tuple_leads(I):
    """The dimension from each basis polynomial's lead under grevlex's tuple
    definition: the largest variable set containing no lead's support."""
    gb = groebner_basis(I, GREVLEX)
    if gb.is_unit:
        return -1
    leads = [max(g.tuple_terms(), key=lambda m: tuple_key(GREVLEX, m)) for g in gb.polys]
    sups = [{i for i, e in enumerate(m) if e} for m in leads]
    for size in range(I.nvars, -1, -1):
        for S in itertools.combinations(range(I.nvars), size):
            if not any(sup <= set(S) for sup in sups):
                return size


def test_ideal_dimension_reads_leads_from_the_packed_basis(monkeypatch):
    rng = random.Random(5)
    cases = []
    for spec in (QQ, GF3, GF4):
        for _ in range(20):
            n = rng.randint(1, 4)
            gens = [
                random_polynomial(rng, spec, n, max_degree=3, max_terms=3)
                for _ in range(rng.randint(0, 4))
            ]
            cases.append(Ideal.of(spec, n, gens))
    want = [_dimension_from_tuple_leads(I) for I in cases]
    assert set(want) == {-1, 0, 1, 2, 3, 4}
    calls = []
    key = mpoly.MonomialOrder.key
    monkeypatch.setattr(mpoly.MonomialOrder, "key", lambda self, m: calls.append(m) or key(self, m))
    assert [ideal_dimension(I) for I in cases] == want
    assert calls == []


def test_eliminate_twisted_cubic():
    I = ideal("x2 - x1^2", "x3 - x1^3", n=3)
    J = eliminate(I, {0})
    assert J.nvars == 2
    assert [str(f) for f in J.generators] == ["x1^3 - x2^2"]


def test_eliminate_validates():
    I = ideal("x1 + x2")
    with pytest.raises(ArityMismatch):
        eliminate(I, {5})
    with pytest.raises(ArityMismatch):
        eliminate(I, {0, 1})
    assert eliminate(I, set()) == I


def test_budget_is_a_resource_verdict():
    # The cyclic-3 ideal takes 4 reduction steps.
    cyclic = ideal("x1 + x2 + x3", "x1*x2 + x2*x3 + x1*x3", "x1*x2*x3 - 1", n=3)
    clear_caches()
    old = get_budget()
    try:
        set_budget(1)
        with pytest.raises(BudgetExceeded):
            groebner_basis(cyclic)
        # nothing was cached for the failed attempt; a real budget succeeds
        set_budget(old)
        gb = groebner_basis(cyclic)
        assert [str(f) for f in gb.polys] == ["x1 + x2 + x3", "x2^2 + x2*x3 + x3^2", "x3^3 - 1"]
    finally:
        set_budget(old)
    with pytest.raises(ValueError):
        set_budget(0)


def test_budget_is_bounded_by_the_digit_room():
    # A finite-field coefficient takes one unreduced product per step.
    old = get_budget()
    try:
        set_budget(2**32)
        assert get_budget() == 2**32
        with pytest.raises(ValueError, match=r"at most 2\^32 = 4294967296"):
            set_budget(2**32 + 1)
        assert get_budget() == 2**32
    finally:
        set_budget(old)


def test_spoly_postcondition_hook():
    clear_caches()
    groebner.reset_stats()
    groebner.CHECK_SPOLYS = True
    try:
        groebner_basis(ideal("x1^2 - x2", "x1*x2 - 1", spec=GF3))
        assert groebner.STATS["bases_computed"] >= 1
        assert groebner.STATS["spoly_checks"] > 0
        assert groebner.STATS["spoly_failures"] == 0
    finally:
        groebner.CHECK_SPOLYS = False


def test_subalgebra_member_symmetric_functions():
    gens = (p("x1 + x2"), p("x1*x2"))
    w = subalgebra_member(p("x1^2 + x2^2"), gens)
    assert w is not None
    assert str(w) == "x1^2 - 2*x2"  # e1^2 - 2 e2, written in tag variables
    assert w.substitute(gens) == p("x1^2 + x2^2")
    assert subalgebra_member(p("x1"), gens) is None
    assert subalgebra_member(p("x1 - x2"), gens) is None
    # power sums p3 = e1^3 - 3 e1 e2
    w3 = subalgebra_member(p("x1^3 + x2^3"), gens)
    assert w3 is not None and w3.substitute(gens) == p("x1^3 + x2^3")


def test_subalgebra_member_constants_and_members():
    gens = (p("x1^2"),)
    assert subalgebra_member(p("5"), gens) is not None
    assert subalgebra_member(p("x1^4 + 2*x1^2"), gens) is not None
    assert subalgebra_member(p("x1"), gens) is None


def test_invert_triangular_map():
    images = (p("x1 + x2^2"), p("x2"))
    inv = invert_poly_map(images)
    assert inv is not None
    # canonical printing is grevlex-descending: x2^2 > x1
    assert [str(f) for f in inv] == ["-x2^2 + x1", "x2"]
    with_squares = invert_poly_map((p("x1^2"), p("x2")))
    assert with_squares is None
    one_var = invert_poly_map((parse_polynomial("x1", QQ, 1),))
    assert one_var == (parse_polynomial("x1", QQ, 1),)


def test_invert_round_trip_seeded():
    rng = random.Random(17)
    xs = (p("x1"), p("x2"))
    for spec in (QQ, GF3):
        for _ in range(6):
            q = random_polynomial(rng, spec, 1, max_degree=2, max_terms=2)
            r = random_polynomial(rng, spec, 1, max_degree=2, max_terms=2)
            # elementary triangular maps compose to a tame automorphism
            t1 = (
                p("x1", spec) + q.substitute((p("x2", spec),)),
                p("x2", spec),
            )
            t2 = (
                p("x1", spec),
                p("x2", spec) + r.substitute((p("x1", spec),)),
            )
            composed = tuple(f.substitute(t1) for f in t2)
            inv = invert_poly_map(composed)
            assert inv is not None
            for k, x in enumerate(xs):
                got = composed[k].substitute(inv)
                want = parse_polynomial(f"x{k + 1}", spec, 2)
                assert got == want
                assert inv[k].substitute(composed) == want


def test_a_witness_that_fails_the_round_trip_is_a_fault(monkeypatch):
    # Every x_k has a witness, so the map is onto and the inverse must hold:
    # a failed round trip is a bug, not a "not invertible".
    images = (p("x1 + x2^2"), p("x2"))
    member = groebner.subalgebra_member

    def corrupted(f, gens):
        w = member(f, gens)
        return w + p("x2") if f == p("x1") else w

    clear_caches()
    monkeypatch.setattr(groebner, "subalgebra_member", corrupted)
    with pytest.raises(RuntimeError, match="^inverse failed its round trip$"):
        invert_poly_map(images)
    monkeypatch.undo()
    clear_caches()
    assert invert_poly_map(images) is not None


def test_groebner_cache_is_shared():
    clear_caches()
    groebner.reset_stats()
    I = ideal("x1^2 - x2", "x2^2 - x1")
    groebner_basis(I)
    groebner_basis(I)
    assert groebner.STATS["bases_computed"] == 1


def test_groebner_basis_spellings_share_one_entry():
    # The memo table keys on arguments as passed; the public function must
    # hand it one spelling.
    clear_caches()
    groebner.reset_stats()
    I = ideal("x1^2 - x2", "x1*x2 - 1")
    gb = groebner_basis(I)
    assert groebner_basis(I, GREVLEX) is gb
    assert groebner_basis(I, order=GREVLEX) is gb
    assert groebner_basis(ideal=I, order=GREVLEX) is gb
    assert groebner.STATS["bases_computed"] == 1


# -- the packed, heap-ordered engine against the dict-and-max reference --------
#
# The reference is the plain form of the same algorithm on tuple monomials:
# every step takes the largest remaining term with max(cur, key=order.key),
# and pairs are chosen with min(pending, key=...).  Full reduction hides a
# wrong pop order (the remainder is unique once the basis is a Groebner
# basis), so these tests also reduce against non-Groebner bases and compare
# step counts, which do see the order.


def mono_mul(a, b):
    return tuple(x + y for x, y in zip(a, b))


def mono_lcm(a, b):
    return tuple(max(x, y) for x, y in zip(a, b))


def mono_degree(a):
    return sum(a)


def mono_divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def mono_div(a, b):
    return tuple(x - y for x, y in zip(a, b))


def _reference_reduce(f, basis, lms, order, work, regular=None):
    """f reduced by the first element whose lead divides its largest term,
    and, when given, for which regular(k, m) holds."""
    spec = f.spec
    cap = degree_cap()
    cur = f.tuple_terms()
    out = {}
    while cur:
        m = max(cur, key=order.key)
        c = cur.pop(m)
        hit = -1
        for k, lm in enumerate(lms):
            if mono_divides(lm, m) and (regular is None or regular(k, m)):
                hit = k
                break
        if hit < 0:
            out[m] = c
            continue
        work.step()
        g = basis[hit]
        glm = lms[hit]
        shift = mono_div(m, glm)
        for gm, gc in g.tuple_terms().items():
            if gm == glm:
                continue
            mm = mono_mul(gm, shift)
            if sum(mm) > cap:
                raise DegreeCapExceeded(f"reduction reached degree {sum(mm)} above cap {cap}")
            d = spec.mul_raw(c, gc)
            prev = cur.get(mm)
            s = spec.neg_raw(d) if prev is None else spec.sub_raw(prev, d)
            if spec.is_zero_raw(s):
                cur.pop(mm, None)
            else:
                cur[mm] = s
    return MultiPoly.from_terms(spec, f.nvars, out.items())


def _reference_spoly(f, flm, g, glm):
    spec = f.spec
    cap = degree_cap()
    lcm = mono_lcm(flm, glm)

    def shifted(h, hlm):
        shift = mono_div(lcm, hlm)
        for m, c in h.tuple_terms().items():
            mm = mono_mul(m, shift)
            if sum(mm) > cap:
                raise DegreeCapExceeded(f"S-polynomial reached degree {sum(mm)} above cap {cap}")
            yield mm, c

    a = MultiPoly.from_terms(spec, f.nvars, shifted(f, flm))
    b = MultiPoly.from_terms(spec, g.nvars, shifted(g, glm))
    return a - b


def make_monic(f, order):
    """f scaled by the inverse of its leading coefficient."""
    lc = f.leading_coefficient(order)
    if lc.raw == f.spec.one_raw():
        return f
    return f.scale(lc.inverse())


def packed_element(pk, f):
    """A monic f as a basis element, packed from its terms."""
    return groebner._monic_raws(pk.terms(f), f.spec)


def _reference_seed(ideal, order):
    return sorted(
        (make_monic(f, order) for f in ideal.generators),
        key=lambda f: (order.key(f.leading_monomial(order)), groebner._poly_sort_key(f)),
    )


def _reference_reduced(G, lms, order, work):
    """The reduced basis from a Groebner basis G with leads lms."""
    by_lm = sorted(range(len(G)), key=lambda idx: order.key(lms[idx]))
    kept = []
    for idx in by_lm:
        if any(mono_divides(lms[kidx], lms[idx]) for kidx in kept):
            continue
        kept.append(idx)
    basis = [G[idx] for idx in kept]
    blms = [lms[idx] for idx in kept]
    reduced = []
    for i, g in enumerate(basis):
        others = basis[:i] + basis[i + 1 :]
        olms = blms[:i] + blms[i + 1 :]
        reduced.append(_reference_reduce(g, others, olms, order, work) if others else g)
    reduced.sort(key=lambda f: order.key(f.leading_monomial(order)))
    return tuple(reduced)


def _reference_buchberger(ideal, order, work):
    """The classic Buchberger: pairs by lcm degree, with the coprime and
    chain criteria.  Its steps differ from the engine's; its bases are the
    oracle."""
    G = _reference_seed(ideal, order)
    lms = [g.leading_monomial(order) for g in G]
    pending = {(i, j) for i in range(len(G)) for j in range(i + 1, len(G))}

    def pair_key(ij):
        return (mono_degree(mono_lcm(lms[ij[0]], lms[ij[1]])), ij)

    while pending:
        i, j = min(pending, key=pair_key)
        pending.remove((i, j))
        lcm = mono_lcm(lms[i], lms[j])
        if lcm == mono_mul(lms[i], lms[j]):
            continue
        redundant = False
        for k in range(len(G)):
            if k == i or k == j or not mono_divides(lms[k], lcm):
                continue
            a = (min(i, k), max(i, k))
            b = (min(j, k), max(j, k))
            if a not in pending and b not in pending:
                redundant = True
                break
        if redundant:
            continue
        r = _reference_reduce(_reference_spoly(G[i], lms[i], G[j], lms[j]), G, lms, order, work)
        if r.is_zero:
            continue
        r = make_monic(r, order)
        G.append(r)
        lms.append(r.leading_monomial(order))
        t = len(G) - 1
        pending.update((k, t) for k in range(t))
    return _reference_reduced(G, lms, order, work)


def _reference_signature_buchberger(ideal, order, work):
    """The engine's signature Buchberger on exponent tuples.  The signature
    of an element is (i, t) for t*e_i, generator i in seed order, compared
    by (i, order.key(t)).  Pairs are taken by (signature, generator,
    partner), and a pair is skipped when a lead of an earlier generator's
    element or a signature reduced to zero divides its t, or when an element
    after its generator has a signature dividing it.  A term m is reduced
    only by an element whose signature times m over its lead is smaller."""

    def key(sig):
        return (sig[0], order.key(sig[1]))

    G, lms, sigs = [], [], []
    for i, f in enumerate(_reference_seed(ideal, order)):
        first = len(G)
        syzygies = list(lms)
        pairs = []

        def enter(h, sig):
            def regular(k, m):
                return key((sigs[k][0], mono_mul(mono_div(m, lms[k]), sigs[k][1]))) < key(sig)

            r = _reference_reduce(h, G, lms, order, work, regular)
            if r.is_zero:
                syzygies.append(sig[1])
                return
            r = make_monic(r, order)
            t = len(G)
            G.append(r)
            lms.append(r.leading_monomial(order))
            sigs.append(sig)
            for s in range(t):
                lcm = mono_lcm(lms[s], lms[t])
                # an earlier generator's side is the smaller
                sides = {}
                for x in (t,) if s < first else (t, s):
                    sides[x] = (i, mono_mul(mono_div(lcm, lms[x]), sigs[x][1]))
                    if mono_degree(sides[x][1]) > mpoly.MAX_DEGREE:
                        raise DegreeCapExceeded("signature past the packed degrees")
                if len(sides) == 2 and sides[t] == sides[s]:
                    continue
                a = max(sides, key=lambda x: key(sides[x]))
                pairs.append((key(sides[a]), a, s + t - a, sides[a]))

        enter(f, (i, (0,) * ideal.nvars))
        while pairs:
            pair = min(pairs, key=lambda q: q[:3])
            pairs.remove(pair)
            _, a, b, sig = pair
            if any(mono_divides(z, sig[1]) for z in syzygies):
                continue
            if any(mono_divides(sigs[c][1], sig[1]) for c in range(a + 1, len(G))):
                continue
            enter(_reference_spoly(G[a], lms[a], G[b], lms[b]), sig)
    return _reference_reduced(G, lms, order, work)


def _packed_normal_form(f, basis, order, work):
    pk = groebner._Packing(f.nvars, order)
    out = groebner._reduce(
        groebner._numerators(pk.terms(f), f.spec), [packed_element(pk, g) for g in basis], pk,
        f.spec, work,
    )
    return MultiPoly(f.spec, f.nvars, {p: c for _, p, c in groebner._readout(out, f.spec)})


def _outcome(run, budget=10**5):
    """(result or exception type, steps taken)."""
    work = groebner._Work(budget)
    try:
        return run(work), work.steps
    except (DegreeCapExceeded, BudgetExceeded) as exc:
        return type(exc), work.steps


def _orders(rng, n):
    return [
        GREVLEX,
        LEX,
        Block(()),
        Block(range(n)),
        Block(rng.sample(range(n), rng.randint(1, n))),
    ]


FIELDS = (QQ, GF2, GF3, GF4)


def test_packed_key_orders_like_order_key_and_mask_divides_like_tuples():
    # order.key is the packed key, and both sort like the order's tuple
    # definition; the reference Buchberger above sorts by order.key, so
    # this pins it.
    rng = random.Random(11)
    for n in range(1, 9):
        for order in _orders(rng, n):
            # 70 is above the default cap, 127 the packed limit
            top = rng.choice((3, 9, 70, mpoly.MAX_DEGREE))
            pk = groebner._Packing(n, order)
            monos = set()
            while len(monos) < min(60, math.comb(top + n, n)):
                d = rng.randint(0, top)
                cuts = sorted(rng.randint(0, d) for _ in range(n - 1))
                monos.add(tuple(b - a for a, b in zip([0, *cuts], [*cuts, d])))
            monos = sorted(monos)
            packed = {}
            for m in monos:
                f = MultiPoly.from_terms(QQ, n, [(m, QQ.one_raw())])
                ((P, _),) = f.terms.items()
                packed[m] = (pk.key(P), P)
                assert order.key(m) == packed[m][0]
            by_key = sorted(monos, key=lambda m: tuple_key(order, m))
            assert sorted(monos, key=lambda m: packed[m][0]) == by_key, (n, order)
            assert len({k for k, _ in packed.values()}) == len(monos)
            for m in monos:
                assert MultiPoly(QQ, n, {packed[m][1]: QQ.one_raw()}).leading_monomial(order) == m
                assert packed[m][1] >> pk.deg_shift == sum(m)
            lcms = {}
            for a, b in itertools.product(monos[:25], monos):
                got = not (packed[b][1] - packed[a][1]) & pk.guard
                assert got == mono_divides(a, b), (n, order, a, b)
                lcms[mono_lcm(a, b)] = mpoly.mono_lcm(packed[a][1], packed[b][1], n)
            # lcms reach degree 254; their keys still order like tuples
            for m, lcm in lcms.items():
                assert lcm == mpoly._pack(m), (n, m)
            by_key = sorted(lcms, key=lambda m: tuple_key(order, m))
            assert sorted(lcms, key=lambda m: pk.key(lcms[m])) == by_key, (n, order)
            assert sorted(lcms, key=order.key) == by_key, (n, order)


def test_reduce_matches_reference_remainders_and_steps():
    rng = random.Random(2024)
    cases = 0
    for n in range(1, 7):
        for spec in FIELDS:
            for order in _orders(rng, n):
                for _ in range(4):
                    basis = []
                    for _ in range(rng.randint(1, 4)):
                        g = random_polynomial(rng, spec, n, max_degree=3, max_terms=4, nonzero=True)
                        basis.append(make_monic(g, order))
                    lms = [g.leading_monomial(order) for g in basis]
                    f = random_polynomial(rng, spec, n, max_degree=6, max_terms=8, nonzero=True)
                    want = _outcome(lambda w: _reference_reduce(f, basis, lms, order, w))
                    got = _outcome(lambda w: _packed_normal_form(f, basis, order, w))
                    assert got == want, (spec, n, order, f, basis)
                    cases += 1
    assert cases == 6 * 4 * 5 * 4


def _reduce_both(f, basis, order):
    """_outcome of the reference and of the packed reduction of f, and the
    packed remainder's running denominator."""
    basis = [make_monic(g, order) for g in basis]
    lms = [g.leading_monomial(order) for g in basis]
    want = _outcome(lambda w: _reference_reduce(f, basis, lms, order, w))
    got = _outcome(lambda w: _packed_normal_form(f, basis, order, w))
    pk = groebner._Packing(f.nvars, order)
    _, den = groebner._reduce(
        groebner._numerators(pk.terms(f), f.spec), [packed_element(pk, g) for g in basis], pk,
        f.spec, groebner._Work(10**5),
    )
    return want, got, den


@pytest.mark.parametrize(
    "lead, den",
    [
        ("12", 1),  # gcd(c, D) = D = 6: no rescale
        ("4", 3),  # gcd(c, D) = 2: scale by 3
        ("5", 6),  # gcd(c, D) = 1: scale by 6
        ("5/7", 42),  # the input's own denominator 7, then 6
    ],
)
def test_reduce_over_q_rescales_by_the_new_part_of_d(lead, den):
    # x1 - 1/6*x2 has D = 6.  The remainder already holds x2^3, and x2, 1
    # are live when x1 is popped, so both are scaled.
    f = p(f"3*x2^3 + {lead}*x1 + 7*x2 + 2")
    want, got, got_den = _reduce_both(f, [p("6*x1 - x2")], GREVLEX)
    assert got == want
    assert got_den == den


def test_reduce_over_q_rescales_repeatedly():
    # Several elements with D = 6, 10, 15, 4, reached by numerators with
    # every gcd, over many steps.
    basis = [p("6*x1^2 - x2 + 5"), p("10*x1*x2 - 3*x2^2 + x1"), p("15*x2^3 - 2*x1 + 7"),
             p("4*x2^2*x1 - x1 + 1")]
    rng = random.Random(5)
    for _ in range(40):
        f = random_polynomial(rng, QQ, 2, max_degree=7, max_terms=9, nonzero=True)
        want, got, _ = _reduce_both(f, basis, GREVLEX)
        assert got == want, f


@pytest.mark.parametrize("spec", [GF4, GF9])
def test_reduce_over_extensions_absorbs_many_products_before_a_pop(spec):
    # Under lex, x1 - (a1*x2 + .. + a15*x2^15) turns each x1^2*x2^j into
    # terms x1*x2^(j+e) and then x2^(j+e+e'): x2^K takes one unreduced
    # product from each step on x1*x2^(K-e), up to 15 before it is popped.
    rng = random.Random(9)
    t = spec.generator().raw
    coeffs = [spec.element(rng.randrange(spec.order)) for _ in range(15)]
    g = MultiPoly.from_terms(
        spec, 2, [((1, 0), spec.one_raw())] + [((0, e), c.raw) for e, c in enumerate(coeffs, 1) if c]
    )
    f = MultiPoly.from_terms(
        spec, 2, [((2, j), spec.add_raw(t, spec.from_int_raw(j))) for j in range(20)]
    )
    want, got, den = _reduce_both(f, [g], LEX)
    assert got == want
    assert den == 1
    assert len(got[0].terms) > 20 and got[1] >= 40


def test_normal_form_reads_out_a_non_integral_remainder():
    gb = groebner_basis(ideal("3*x1 - 2*x2", "5*x2^3 - x2"))
    f = p("x1*x2 + 1/7*x1 + x2^2")
    nf = normal_form(f, gb)
    assert str(nf) == "5/3*x2^2 + 2/21*x2"
    lms = [g.leading_monomial(GREVLEX) for g in gb.polys]
    want = _outcome(lambda w: _reference_reduce(f, list(gb.polys), lms, GREVLEX, w))
    assert (nf, want[1]) == want
    assert gb.contains(f - nf)


def test_rank_two_conjugate_relation_basis_is_golden():
    # The conjugate of (x1*x2 - 3*x2^2 + x1, 2*x1 - x2^2, their product +
    # 3*x1) by s = (x1 + x2^2, x2 + x3^2, x3): its graph ideal's reduced
    # basis under the elimination order, S-polynomials re-checked.
    s = load_automorphism(
        "field Q\nvars 3\ndelta identity\nx1 -> x1 + x2^2\nx2 -> x2 + x3^2\nx3 -> x3\n"
    )
    g = load_endomorphism(
        "field Q\nvars 3\nx1 -> x1*x2 - 3*x2^2 + x1\nx2 -> 2*x1 - x2^2\n"
        "x3 -> (x1*x2 - 3*x2^2 + x1) * (2*x1 - x2^2) + 3*x1\n"
    )
    clear_caches()
    groebner.reset_stats()
    groebner.CHECK_SPOLYS = True
    try:
        endo = conjugate(s, g)
        gb = groebner_basis(groebner.graph_ideal(endo.images), Block(range(3)))
    finally:
        groebner.CHECK_SPOLYS = False
        clear_caches()
    assert groebner.STATS["spoly_checks"] > 0 and groebner.STATS["spoly_failures"] == 0
    text = "\n".join(map(str, gb.polys))
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "f319fc002ed701205bb907ace81d1023e5b274fd89f4af754a8fbf6f9785f01d"
    )


def _no_constant_term(rng, spec, n):
    """A random polynomial in the ideal (x1..xn), so ideals of them are
    never the unit ideal."""
    while True:
        f = random_polynomial(rng, spec, n, max_degree=4, max_terms=4, nonzero=True)
        f = f - MultiPoly.constant(spec, n, f.constant_term())
        if not f.is_zero:
            return f


def _check_against_references(I, order, budget=2000):
    """The engine's basis and steps against the signature reference's, and
    its basis against the classic reference's where that one finishes.
    Returns (steps, whether the bases were compared)."""
    got = _outcome(lambda w: groebner._buchberger(I, order, w)[0], budget)
    assert got == _outcome(lambda w: _reference_signature_buchberger(I, order, w), budget), (
        I.spec, order, I.generators)
    classic = _outcome(lambda w: _reference_buchberger(I, order, w), budget)
    compared = isinstance(classic[0], tuple) and isinstance(got[0], tuple)
    if compared:
        assert got[0] == classic[0], (I.spec, order, I.generators)
    return got[1], compared


def test_buchberger_matches_reference_bases_and_steps():
    rng = random.Random(7)
    steps = compared = 0
    for n in range(2, 5):
        for spec in FIELDS:
            for order in _orders(rng, n):
                for _ in range(2):
                    I = Ideal.of(spec, n, [_no_constant_term(rng, spec, n) for _ in range(3)])
                    got = _check_against_references(I, order)
                    steps += got[0]
                    compared += got[1]
    assert steps > 2000  # the pair sequence is exercised, not just trivial ideals
    assert compared == 119  # one ideal takes the classic loop past its budget


def _mixed_denominators(rng, n):
    """A polynomial over Q in the ideal (x1..xn) whose coefficients carry
    the coprime denominators 2, 3 and 7."""
    scales = [Fraction(1, 2), Fraction(-1, 3), Fraction(5, 7), Fraction(3, 2), Fraction(-2, 7), 1]
    f = _no_constant_term(rng, QQ, n)
    return MultiPoly(QQ, n, {q: c * rng.choice(scales) for q, c in f.terms.items()})


def test_buchberger_over_q_with_mixed_denominators_matches_reference():
    # Elements of different D meet in S-polynomials, which scale each side
    # by L / D; the finished bases re-check every S-polynomial too.
    rng = random.Random(31)
    mixed = steps = 0
    clear_caches()
    checks = groebner.STATS["spoly_checks"]
    groebner.CHECK_SPOLYS = True
    try:
        for n in (2, 3):
            for order in _orders(rng, n):
                for _ in range(4):
                    I = Ideal.of(QQ, n, [_mixed_denominators(rng, n) for _ in range(3)])
                    got, compared = _check_against_references(I, order)
                    steps += got
                    if not compared:
                        continue
                    _, els = groebner_basis(I, order)._packed
                    # each D is positive and least: no factor common to all ints
                    assert all(el[2] > 0 and math.gcd(el[2], *(c for *_, c in el[3])) == 1
                               for el in els), els
                    mixed += len({el[2] for el in els}) > 1
    finally:
        groebner.CHECK_SPOLYS = False
        clear_caches()
    assert groebner.STATS["spoly_checks"] > checks
    assert mixed > 10 and steps > 500


def test_a_lex_ideal_the_classic_pair_loop_could_not_finish():
    # From the seed-7 sweep above: the classic loop runs out of 2,000 steps
    # on it, and the signature criteria finish in 747.
    I = Ideal.of(QQ, 4, [p(t, n=4) for t in (
        "4*x1*x2^2 + 2*x1*x3 - x1*x4",
        "-3*x4^4 + 3*x1*x2*x4 + 2*x1*x4^2 + 3*x1",
        "2*x1*x2^2*x3 + 2*x2*x3^2 - x1^2 + 2*x1*x3",
    )])
    work = groebner._Work(2000)
    groebner._buchberger(I, LEX, work)
    assert work.steps == 747
    clear_caches()
    gb = groebner_basis(I, LEX)
    # Under lex the S-polynomials and normal forms rise above degree 64.
    old = degree_cap()
    set_degree_cap(mpoly.MAX_DEGREE)
    try:
        groebner._verify_spolys(gb)
        assert all(normal_form(f, gb).is_zero for f in I.generators)
    finally:
        set_degree_cap(old)
        clear_caches()


def test_a_graph_ideal_reduces_no_s_pair_to_zero():
    # heavy-rank-q's graph ideal: the conjugate of g by s (60, 12 and 4
    # terms, degree 16).  Its generators y_i - g_i form a regular sequence,
    # and no S-pair that the F5 and rewrite criteria leave reduces to zero.
    s = load_automorphism(
        "field Q\nvars 3\ndelta identity\nx1 -> x1 + x2^2\nx2 -> x2 + x3^2\nx3 -> x3\n"
    )
    g = load_endomorphism(
        "field Q\nvars 3\nx1 -> x1*x3 - 3*x2\nx2 -> -4*x1^2 + 3*x3\nx3 -> -4*x2^2 + 2*x3^2\n"
    )
    I = groebner.graph_ideal(conjugate(s, g).images)
    work = groebner._Work(10**5)
    polys = groebner._buchberger(I, Block(range(3)), work)[0]
    assert len(polys) == 10
    assert work.zero_reductions == 0
    # The classic pair loop (coprime and chain criteria, pairs by lcm
    # degree) took 7,376 steps on it; the classic reference above takes
    # minutes here.
    assert work.steps < 7376


def test_a_signature_past_the_packed_degrees_is_a_resource_limit(monkeypatch):
    # Signatures are packed like monomials, so one of degree above
    # MAX_DEGREE is refused; lowered here to meet one.
    monkeypatch.setattr(groebner, "MAX_DEGREE", 1)
    I = ideal("x1^2 - x2", "x1*x2 - 1")
    with pytest.raises(DegreeCapExceeded, match="^signature reached degree 2 above 1$"):
        groebner._buchberger(I, GREVLEX, groebner._Work(100))


def test_inputs_above_the_degree_cap_are_never_packed_into_a_guard_bit():
    old = degree_cap()
    set_degree_cap(4)
    try:
        past = MultiPoly.from_terms(QQ, 2, [((10, 0), QQ.one_raw())])  # past the cap
        # Under lex and block orders a tail may rise above its lead's degree,
        # and its first term need not be its highest-degree one.
        texts = ("x1", "x2", "x1^2", "x1*x2", "x1^3 - x2", "x1 - 1", "x1 - x2^3",
                 "x1^2 - x1 - x2^4", "x2^2 - x1*x2 + x1^3")
        for order in (GREVLEX, LEX, Block({0}), Block({1})):
            for text in texts:
                g = make_monic(p(text), order)
                lms = [g.leading_monomial(order)]
                for f in (past, p("x1^2"), p("x1^3*x2"), p("x1^2*x2^2 + x2")):
                    want = _outcome(lambda w: _reference_reduce(f, [g], lms, order, w))
                    got = _outcome(lambda w: _packed_normal_form(f, [g], order, w))
                    assert got == want, (order, text, f)
        assert _packed_normal_form(past, [p("x1")], GREVLEX, groebner._Work(10)).is_zero
        assert _packed_normal_form(past, [p("x2")], GREVLEX, groebner._Work(10)) == past
        with pytest.raises(DegreeCapExceeded, match="^reduction reached degree 9 above cap 4$"):
            _packed_normal_form(past, [p("x1 - 1")], GREVLEX, groebner._Work(10))
        # x1^2 -> x1*x2^3 (degree 4) -> x2^6: the second step passes the cap.
        with pytest.raises(DegreeCapExceeded, match="^reduction reached degree 6 above cap 4$"):
            _packed_normal_form(p("x1^2"), [p("x1 - x2^3")], Block({0}), groebner._Work(10))
        # normal_form reduces in the packing the basis was computed in
        clear_caches()
        assert normal_form(past, groebner_basis(ideal("x1"))).is_zero
        assert normal_form(past, groebner_basis(ideal("x2"))) == past
    finally:
        set_degree_cap(old)
        clear_caches()


def test_s_polynomials_past_the_cap_state_their_highest_degree():
    # Under lex, x1^2 - x1 - x2^4 and x1*x2 - 1 have lcm x1^2*x2.  The first
    # tail times x2 has terms x1*x2 and x2^5: the first of degree 2, the top 5.
    pk = groebner._Packing(2, LEX)
    b = p("x1*x2 - 1")
    cases = [
        (p("x1^2 - x1 - x2^4"), "^S-polynomial reached degree 5 above cap 4$"),
        (p("x1^5 - x2"), "^S-polynomial reached degree 6 above cap 4$"),  # the lcm
    ]
    old = degree_cap()
    set_degree_cap(4)
    try:
        for a, message in cases:
            lms = [g.leading_monomial(LEX) for g in (a, b)]
            lp = mpoly._pack(tuple(map(max, *lms)))
            with pytest.raises(DegreeCapExceeded):
                _reference_spoly(a, lms[0], b, lms[1])
            with pytest.raises(DegreeCapExceeded, match=message):
                groebner._spoly(
                    packed_element(pk, a), packed_element(pk, b), (pk.key(lp), lp), pk, QQ
                )
    finally:
        set_degree_cap(old)


def test_every_field_keeps_one_sign_convention():
    """A basis element keeps its tail negated over every field, so _poly
    reads a monic f back from _monic_raws, and _spoly returns the negated
    S-polynomial, as ints over a denominator that _readout turns into raws."""
    rng = random.Random(53)
    pairs = 0
    for spec in (QQ, GF2, GF3, GF4, GF9):
        for n in (1, 2, 3):
            for order in _orders(rng, n):
                pk = groebner._Packing(n, order)
                for _ in range(4):
                    a, b = (
                        make_monic(random_polynomial(rng, spec, n, 4, 5, nonzero=True), order)
                        for _ in range(2)
                    )
                    for f in (a, b):
                        assert groebner._poly(packed_element(pk, f), n, spec) == f, (spec, f)
                    lms = [g.leading_monomial(order) for g in (a, b)]
                    lp = mpoly._pack(tuple(map(max, *lms)))
                    got = groebner._spoly(
                        packed_element(pk, a), packed_element(pk, b), (pk.key(lp), lp), pk, spec
                    )
                    want = -_reference_spoly(a, lms[0], b, lms[1])
                    got = groebner._readout(got, spec)
                    assert MultiPoly(spec, n, {q: c for _, q, c in got}) == want, (spec, a, b)
                    pairs += not want.is_zero
    assert pairs > 200


# -- seeding, padding and re-indexing against the forms they replaced -----------------


def reference_seed(ideal, pk, order):
    """The seed as make_monic, packed_element and a sort by (lead key,
    _poly_sort_key) make it."""
    monic = [make_monic(f, order) for f in ideal.generators]
    seed = [(packed_element(pk, f), groebner._poly_sort_key(f)) for f in monic]
    seed.sort(key=lambda t: (t[0][0], t[1]))
    return [el for el, _ in seed]


def _tied_graph_ideal(rng, spec, n):
    """A graph ideal whose images share leads: scalar multiples of one
    polynomial plus different lower terms, and repeats of earlier images."""
    base = _no_constant_term(rng, spec, n)
    images = []
    for _ in range(rng.randint(2, 4)):
        roll = rng.random()
        if images and roll < 0.2:
            images.append(rng.choice(images))
            continue
        scale = spec.element(rng.choice((1, 2, 3, -1))).raw or spec.one_raw()
        low = random_polynomial(rng, spec, n, max_degree=1, max_terms=2)
        images.append(base.scale(scale) + low if roll < 0.7 else _no_constant_term(rng, spec, n))
    return groebner.graph_ideal(images)


def _same_support_ideal(rng, spec, n):
    """Generators a*f + b*g for one f and one g of lower degree: equal leads
    and supports, so the coefficients decide their order, which scaling to
    monic can change."""
    f = _no_constant_term(rng, spec, n)
    while True:
        g = random_polynomial(rng, spec, n, max_degree=max(f.total_degree() - 1, 0), max_terms=3)
        if not g.is_zero:
            break
    units = [spec.element(c).raw for c in range(1, 7) if spec.element(c).raw]
    if spec.kind == "Fpk":
        units.append(spec.generator().raw)
    return Ideal.of(spec, n, [f.scale(rng.choice(units)) + g.scale(rng.choice(units)) for _ in range(3)])


def test_seed_packs_each_generator_once_like_make_monic_and_element(monkeypatch):
    rng = random.Random(41)
    ties = steps = 0
    for spec in (QQ, GF2, GF3, GF4, GF9):
        for n in (2, 3):
            for k in range(6):
                if k % 3 == 0:
                    I = Ideal.of(spec, n, [_no_constant_term(rng, spec, n) for _ in range(3)])
                elif k % 3 == 1:
                    I = _same_support_ideal(rng, spec, n)
                else:
                    I = _tied_graph_ideal(rng, spec, n)
                for order in _orders(rng, I.nvars)[:4] + [Block(range(n))]:
                    pk = groebner._Packing(I.nvars, order)
                    seed = groebner._seed(I, pk)
                    assert seed == reference_seed(I, pk, order), (spec, order, I.generators)
                    leads = [el[0] for el in seed]
                    ties += len(leads) - len(set(leads))
                    got = _outcome(lambda w: groebner._buchberger(I, order, w)[0], 3000)
                    with monkeypatch.context() as m:
                        m.setattr(groebner, "_seed", lambda I, pk: reference_seed(I, pk, order))
                        want = _outcome(lambda w: groebner._buchberger(I, order, w)[0], 3000)
                    assert got == want, (spec, order, I.generators)
                    steps += got[1]
    assert ties > 20 and steps > 1000


def test_ideal_generators_sort_by_the_full_key_where_degree_and_length_tie():
    rng = random.Random(37)
    ties = 0
    for spec in (QQ, GF2, GF3, GF4, GF9):
        for n in (1, 2, 3):
            for k in range(8):
                if k % 2:
                    I = _tied_graph_ideal(rng, spec, n)
                    gens = I.generators[::-1]
                else:
                    gens = [random_polynomial(rng, spec, n, 2, 2) for _ in range(8)]
                    I = Ideal.of(spec, n, gens)
                want = sorted({f for f in gens if not f.is_zero}, key=groebner._poly_sort_key)
                assert I.generators == tuple(want) == Ideal.of(spec, I.nvars, gens).generators
                cheap = [(f.total_degree(), len(f.terms)) for f in want]
                ties += len(cheap) - len(set(cheap))
    assert ties > 100


def _tuple_reindex(f, nvars, place):
    """f moved monomial by monomial through exponent tuples."""
    return MultiPoly(f.spec, nvars, {mpoly._pack(place(m)): c for m, c in f.tuple_terms().items()})


def test_packed_pad_and_compact_match_the_tuple_versions():
    rng = random.Random(43)
    for spec in (QQ, GF3, GF4):
        for n in range(1, 6):
            for _ in range(10):
                f = random_polynomial(rng, spec, n, max_degree=9, max_terms=8)
                extra = rng.randint(1, 4)
                got = groebner._pad(f, extra)
                want = _tuple_reindex(f, n + extra, lambda m: m + (0,) * extra)
                assert list(got.terms.items()) == list(want.terms.items())
                # f written in the kept variables of a larger ring
                keep = sorted(rng.sample(range(n + extra), n))
                wide = _tuple_reindex(f, n + extra, lambda m: tuple(
                    m[keep.index(i)] if i in keep else 0 for i in range(n + extra)))
                got = groebner._compact(wide, keep)
                assert list(got.terms.items()) == list(f.terms.items()), keep
