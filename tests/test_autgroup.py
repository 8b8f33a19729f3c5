"""Semi-linear automorphisms and conjugation of the endomorphism semigroup."""

import random

import pytest

from endorank.autgroup import (
    SemiLinearAut,
    compose_semilinear,
    conjugate,
    map_coeffs,
    verify_automorphism_properties,
)
from endorank.endo import Endomorphism, compose, rank
from endorank.errors import BudgetExceeded, DegreeCapExceeded, NotABase, SpecMismatch
from endorank.fields import GF2, GF4, GF9, QQ, FieldAutomorphism
from endorank.groebner import clear_caches, get_budget, set_budget
from endorank.mpoly import MultiPoly, degree_cap, set_degree_cap
from endorank.parsing import parse_polynomial
from endorank.sampling import random_endomorphism, random_polynomial


def P(s, spec=QQ, n=2):
    return parse_polynomial(s, spec, n)


def triangular_shift():
    return SemiLinearAut.create(
        FieldAutomorphism.identity(QQ), (P("x1 + x2^2"), P("x2"))
    )


def translation():
    return SemiLinearAut.create(
        FieldAutomorphism.identity(QQ), (P("x1 + 1"), P("x2 - 3"))
    )


def gf4_frobenius(sub=("x1", "x2")):
    return SemiLinearAut.create(
        FieldAutomorphism.frobenius(GF4, 1),
        tuple(P(v, GF4) for v in sub),
    )


# -- construction ----------------------------------------------------------------


def test_create_certifies_the_inverse():
    a = triangular_shift()
    assert [str(w) for w in a.s_inv] == ["-x2^2 + x1", "x2"]
    n = a.nvars
    for k in range(n):
        assert a.s[k].substitute(a.s_inv) == MultiPoly.variable(QQ, n, k)
        assert a.s_inv[k].substitute(a.s) == MultiPoly.variable(QQ, n, k)


def test_create_rejects_noninvertible_substitution():
    with pytest.raises(NotABase):
        SemiLinearAut.create(
            FieldAutomorphism.identity(QQ), (P("x1^2"), P("x2"))
        )
    with pytest.raises(NotABase):
        SemiLinearAut.create(
            FieldAutomorphism.identity(QQ), (P("x1"), P("x1"))
        )


def test_create_rejects_shape_mismatches():
    with pytest.raises(SpecMismatch):
        SemiLinearAut.create(
            FieldAutomorphism.identity(GF2), (P("x1"), P("x2"))
        )


def test_identity_automorphism():
    e = SemiLinearAut.identity(QQ, 2)
    assert e.is_inner
    f = P("x1^2 - 3*x2")
    assert e.apply(f) == f
    assert str(e) == "[identity] x1 -> x1; x2 -> x2"


def test_is_inner_reflects_coefficient_action():
    assert triangular_shift().is_inner
    assert not gf4_frobenius().is_inner


# -- coefficient maps --------------------------------------------------------------


def test_map_coeffs_is_a_ring_map():
    frob = FieldAutomorphism.frobenius(GF9, 1)
    rng = random.Random(77)
    for _ in range(15):
        f = random_polynomial(rng, GF9, 2, max_degree=3, max_terms=3)
        g = random_polynomial(rng, GF9, 2, max_degree=3, max_terms=3)
        assert map_coeffs(f + g, frob) == map_coeffs(f, frob) + map_coeffs(g, frob)
        assert map_coeffs(f * g, frob) == map_coeffs(f, frob) * map_coeffs(g, frob)


def test_map_coeffs_identity_is_free():
    f = P("x1 + 2*x2")
    assert map_coeffs(f, FieldAutomorphism.identity(QQ)) is f


def test_map_coeffs_spec_mismatch():
    with pytest.raises(SpecMismatch):
        map_coeffs(P("x1"), FieldAutomorphism.frobenius(GF4, 1))


# -- application and group laws -----------------------------------------------------


def test_apply_twists_coefficients_then_substitutes():
    aut = gf4_frobenius(("x2", "x1"))
    t = GF4.generator()
    f = parse_polynomial("t*x1", GF4, 2)
    # t |-> t^2 = t+1, then x1 |-> x2
    got = aut.apply(f)
    assert str(got) == "(t+1)*x2"
    assert got.coefficient((0, 1)) == t * t


def test_inverse_undoes_apply():
    rng = random.Random(31)
    for aut in (triangular_shift(), translation(), gf4_frobenius(("x2", "x1"))):
        inv = aut.inverse()
        for _ in range(8):
            f = random_polynomial(rng, aut.spec, 2, max_degree=3, max_terms=3)
            assert inv.apply(aut.apply(f)) == f
            assert aut.apply(inv.apply(f)) == f


def test_compose_acts_like_nested_application():
    rng = random.Random(13)
    auts = [triangular_shift(), translation()]
    for a in auts:
        for b in auts:
            c = compose_semilinear(a, b)
            for _ in range(5):
                f = random_polynomial(rng, QQ, 2, max_degree=3, max_terms=3)
                assert c.apply(f) == a.apply(b.apply(f))


def test_compose_certifies_its_inverse_tuple():
    a = gf4_frobenius(("x2", "x1 + t*x2"))
    b = gf4_frobenius(("x1 + x2^2", "x2"))
    c = compose_semilinear(a, b)
    n = c.nvars
    for k in range(n):
        assert c.s[k].substitute(c.s_inv) == MultiPoly.variable(GF4, n, k)
        assert c.s_inv[k].substitute(c.s) == MultiPoly.variable(GF4, n, k)
    # delta part composes too: frob . frob = identity on GF(4)
    assert c.delta.is_identity


def test_compose_with_inverse_is_identity():
    for aut in (triangular_shift(), gf4_frobenius(("x2", "x1"))):
        c = compose_semilinear(aut, aut.inverse())
        assert c.delta.is_identity
        assert all(
            c.s[k] == MultiPoly.variable(aut.spec, aut.nvars, k)
            for k in range(aut.nvars)
        )


# -- conjugation ---------------------------------------------------------------------


def test_conjugation_regression():
    a = triangular_shift()
    g = Endomorphism(QQ, 2, (P("x2"), P("x1")))
    cg = conjugate(a, g)
    assert str(cg) == (
        "x1 -> -x2^4 - 2*x1*x2^2 - x1^2 + x2; x2 -> x2^2 + x1"
    )
    # and the inverse conjugation brings it back
    assert conjugate(a.inverse(), cg) == g


def test_conjugation_by_frobenius_twists_coefficients():
    frob = gf4_frobenius()
    t = GF4.generator()
    g = Endomorphism(GF4, 2, (parse_polynomial("t*x1", GF4, 2), parse_polynomial("x2", GF4, 2)))
    cg = conjugate(frob, g)
    assert str(cg) == "x1 -> (t+1)*x1; x2 -> x2"
    assert cg.images[0].coefficient((1, 0)) == t * t


def test_conjugation_is_multiplicative():
    rng = random.Random(8)
    a = triangular_shift()
    for _ in range(6):
        g = random_endomorphism(rng, QQ, 2, max_degree=2, max_terms=2)
        h = random_endomorphism(rng, QQ, 2, max_degree=2, max_terms=2)
        assert conjugate(a, compose(g, h)) == compose(
            conjugate(a, g), conjugate(a, h)
        )


def test_conjugation_preserves_rank():
    rng = random.Random(51)
    a = translation()
    for _ in range(6):
        g = random_endomorphism(rng, QQ, 2, max_degree=2, max_terms=2)
        assert rank(conjugate(a, g)).value == rank(g).value


def test_conjugation_fixes_identity():
    for aut in (triangular_shift(), gf4_frobenius(("x2", "x1"))):
        ident = Endomorphism.identity(aut.spec, 2)
        assert conjugate(aut, ident) == ident


# -- the property verifier -------------------------------------------------------------


def test_property_verifier_passes_for_inner_automorphism():
    report = verify_automorphism_properties(triangular_shift(), trials=8, seed=0)
    assert report.ok
    assert report.inner
    assert report.problems == ()
    assert report.kronecker_base_check
    assert len(report.rank_pairs) == 8
    assert all(a == b for a, b in report.rank_pairs)


def test_property_verifier_refuses_negative_trials():
    with pytest.raises(ValueError, match="^trials must be at least 0, got -2$"):
        verify_automorphism_properties(triangular_shift(), trials=-2)
    report = verify_automorphism_properties(triangular_shift(), trials=0)
    assert report.ok and report.rank_pairs == ()


def test_property_verifier_passes_for_frobenius_twist():
    report = verify_automorphism_properties(gf4_frobenius(), trials=6, seed=1)
    assert report.ok
    assert not report.inner
    assert report.kronecker_base_check


def test_property_verifier_passes_for_mixed_twist():
    aut = gf4_frobenius(("x1 + x2^2", "x2"))
    report = verify_automorphism_properties(aut, trials=5, seed=2)
    assert report.ok
    assert not report.inner
    assert report.kronecker_base_check


@pytest.mark.parametrize("limit", ["budget", "degree cap"])
def test_a_resource_limit_in_the_base_check_is_no_verdict(limit):
    # The base check of the conjugated standard family recomputes the
    # graph-ideal bases that loading s cached; under a small budget or a
    # low degree cap it runs out, which used to read as a failed property.
    s = SemiLinearAut.create(
        FieldAutomorphism.identity(QQ),
        (P("x1 + x2^2", n=3), P("x2 + x3^2", n=3), P("x3", n=3)),
    )
    assert verify_automorphism_properties(s, trials=0).ok
    budget, cap = get_budget(), degree_cap()
    clear_caches()
    try:
        if limit == "budget":
            set_budget(2)
            with pytest.raises(BudgetExceeded):
                verify_automorphism_properties(s, trials=0)
        else:
            set_degree_cap(4)
            with pytest.raises(DegreeCapExceeded):
                verify_automorphism_properties(s, trials=0)
    finally:
        set_budget(budget)
        set_degree_cap(cap)
        clear_caches()
