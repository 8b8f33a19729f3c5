"""Endomorphisms: composition, matrix units, rank, and the preorder."""

import random

import pytest

import endorank
from endorank import groebner
from endorank.endo import (
    Endomorphism,
    Verdict,
    compare,
    compose,
    jacobian_rank_at,
    kronecker_endo,
    rank,
    relation_ideal,
)
from endorank.errors import (
    ArityMismatch,
    InvalidIndex,
    JacobianUnavailable,
    SpecMismatch,
)
from endorank.fields import GF2, GF3, GF4, QQ
from endorank.parsing import parse_polynomial
from endorank.sampling import random_endomorphism, random_scalar


def endo(spec, *images):
    n = len(images)
    return Endomorphism(spec, n, tuple(parse_polynomial(s, spec, n) for s in images))


# -- construction and basic actions -------------------------------------------


def test_constructor_validation():
    good = parse_polynomial("x1 + x2", QQ, 2)
    with pytest.raises(ArityMismatch):
        Endomorphism(QQ, 2, (good,))
    with pytest.raises(ArityMismatch):
        Endomorphism(QQ, 2, (good, parse_polynomial("x1", QQ, 3)))
    with pytest.raises(SpecMismatch):
        Endomorphism(QQ, 2, (good, parse_polynomial("x1", GF2, 2)))


def test_identity_and_constant_constructors():
    ident = Endomorphism.identity(QQ, 3)
    assert ident.is_identity
    assert str(ident) == "x1 -> x1; x2 -> x2; x3 -> x3"

    c = Endomorphism.constant(QQ, 2, [1, 2])
    assert not c.is_identity
    assert c.constant_part() == (QQ.element(1), QQ.element(2))
    assert c.point_map([100, -100]) == (QQ.element(1), QQ.element(2))

    z = Endomorphism.zero(GF3, 2)
    assert all(img.is_zero for img in z.images)

    with pytest.raises(ArityMismatch):
        Endomorphism.constant(QQ, 2, [1, 2, 3])


def test_apply_is_substitution():
    phi = endo(QQ, "x2", "x1 + 1")
    f = parse_polynomial("x1^2 + x2", QQ, 2)
    assert str(phi.apply(f)) == "x2^2 + x1 + 1"


def test_compose_convention_outer_after_inner():
    # compose(outer, inner) must act as outer(inner(f)) on every polynomial.
    outer = endo(QQ, "x1^2", "x2 + 1")
    inner = endo(QQ, "x2", "x1")
    both = compose(outer, inner)
    f = parse_polynomial("x1 + 3*x2^2", QQ, 2)
    assert both.apply(f) == outer.apply(inner.apply(f))
    # swap then square-and-shift: x1 -> outer(x2), x2 -> outer(x1)
    assert str(both) == "x1 -> x2 + 1; x2 -> x1^2"


def test_compose_seeded_associativity_and_identity():
    rng = random.Random(71)
    for spec in (QQ, GF3):
        ident = Endomorphism.identity(spec, 2)
        for _ in range(10):
            a = random_endomorphism(rng, spec, 2, max_degree=2, max_terms=2)
            b = random_endomorphism(rng, spec, 2, max_degree=2, max_terms=2)
            c = random_endomorphism(rng, spec, 2, max_degree=1, max_terms=2)
            assert compose(a, ident) == a
            assert compose(ident, a) == a
            assert compose(compose(a, b), c) == compose(a, compose(b, c))


def test_compose_mismatch_errors():
    with pytest.raises(SpecMismatch):
        compose(Endomorphism.identity(QQ, 2), Endomorphism.identity(GF2, 2))
    with pytest.raises(ArityMismatch):
        compose(Endomorphism.identity(QQ, 2), Endomorphism.identity(QQ, 3))


def test_point_map_is_contravariant():
    rng = random.Random(19)
    for _ in range(8):
        f = random_endomorphism(rng, QQ, 3, max_degree=2, max_terms=2)
        g = random_endomorphism(rng, QQ, 3, max_degree=2, max_terms=2)
        p = tuple(random_scalar(rng, QQ) for _ in range(3))
        # (f . g) on points flips the order: first f's images, then g's.
        assert compose(f, g).point_map(p) == g.point_map(f.point_map(p))


def test_linear_and_constant_parts():
    phi = endo(QQ, "2*x1 + 3*x2 + 5 + x1*x2", "7*x2 - 1")
    assert [str(img.degree_one_part()) for img in phi.images] == ["2*x1 + 3*x2", "7*x2"]
    assert phi.constant_part() == (QQ.element(5), QQ.element(-1))


# -- matrix units --------------------------------------------------------------


def test_kronecker_endo_images():
    e12 = kronecker_endo(QQ, 2, 1, 2)
    assert str(e12) == "x1 -> 0; x2 -> x1"
    with pytest.raises(InvalidIndex):
        kronecker_endo(QQ, 2, 0, 1)
    with pytest.raises(InvalidIndex):
        kronecker_endo(QQ, 2, 1, 3)


@pytest.mark.parametrize("spec,n", [(QQ, 2), (GF2, 2), (GF3, 3)])
def test_kronecker_endo_multiplication_table(spec, n):
    # e_ij . e_km = e_im when j == k, and the zero map otherwise.
    zero = Endomorphism.zero(spec, n)
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            for k in range(1, n + 1):
                for m in range(1, n + 1):
                    got = compose(
                        kronecker_endo(spec, n, i, j), kronecker_endo(spec, n, k, m)
                    )
                    want = kronecker_endo(spec, n, i, m) if j == k else zero
                    assert got == want, (i, j, k, m)


def test_kronecker_endo_idempotents():
    for i in (1, 2, 3):
        e = kronecker_endo(GF4, 3, i, i)
        assert compose(e, e) == e
        assert rank(e).value == 1


# -- relation ideal and rank ---------------------------------------------------


def test_relation_ideal_frozen_generators():
    # kernel generators come back in the fresh ring, printed in x names
    cases = [
        (endo(QQ, "x1^2", "x1^3"), ["x1^3 - x2^2"]),
        (endo(QQ, "x1*x2", "0"), ["x2"]),
        (endo(QQ, "x1", "x1"), ["x1 - x2"]),
        (Endomorphism.constant(QQ, 2, [1, 2]), ["x2 - 2", "x1 - 1"]),
        (Endomorphism.identity(QQ, 2), []),
    ]
    for phi, expected in cases:
        cert = rank(phi)
        assert [str(g) for g in cert.relation_generators] == expected


def test_relation_ideal_members_vanish_under_the_map():
    rng = random.Random(37)
    for spec in (QQ, GF3):
        for _ in range(6):
            phi = random_endomorphism(rng, spec, 2, max_degree=2, max_terms=2)
            for g in relation_ideal(phi).generators:
                assert g.substitute(phi.images).is_zero


def test_relation_ideal_is_cached():
    a = endo(QQ, "x1^2 - x2", "x2")
    b = endo(QQ, "x1^2 - x2", "x2")
    assert a == b and a is not b
    assert relation_ideal(a) is relation_ideal(b)


def test_clear_caches_drops_relation_ideals():
    phi = endo(QQ, "x1^2 - x2", "x1*x2")
    tables = {
        "relation ideals": relation_ideal,
        "bases": groebner._groebner_basis,
        "memberships": groebner._subalgebra_member_cached,
        "inverses": groebner._invert_cached,
    }
    relation_ideal(phi)
    assert groebner.invert_poly_map(phi.images) is None
    assert all(t.cache_info().currsize > 0 for t in tables.values())
    groebner.reset_stats()
    endorank.clear_caches()
    assert {k: t.cache_info().currsize for k, t in tables.items()} == dict.fromkeys(tables, 0)
    relation_ideal(phi)
    assert groebner.STATS["bases_computed"] == 1  # a fresh elimination
    # Membership in K[images] reads the same x-eliminating basis of the
    # same graph ideal.
    assert groebner.invert_poly_map(phi.images) is None
    assert groebner.STATS["bases_computed"] == 1


def test_every_memo_table_has_the_same_finite_bound():
    tables = groebner._MEMO_TABLES
    assert {t.__name__ for t in tables} == {
        "relation_ideal",
        "_groebner_basis",
        "_subalgebra_member_cached",
        "_invert_cached",
        "_atom",
        "verify_subbase",
        "load_kronecker_system",
    }
    assert {t.cache_info().maxsize for t in tables} == {groebner.CACHE_SIZE}
    assert isinstance(groebner.CACHE_SIZE, int) and groebner.CACHE_SIZE > 0


def test_rank_oracle_values():
    assert rank(Endomorphism.identity(QQ, 2)).value == 2
    assert rank(Endomorphism.identity(QQ, 3)).value == 3
    assert rank(Endomorphism.constant(QQ, 2, [1, 2])).value == 0
    assert rank(Endomorphism.zero(GF2, 2)).value == 0
    assert rank(endo(QQ, "x1", "x1")).value == 1
    assert rank(endo(QQ, "x1*x2", "0")).value == 1
    assert rank(endo(QQ, "x1^2", "x1^3")).value == 1
    assert rank(endo(QQ, "x1^2", "x2^2")).value == 2


def test_rank_certificate_method_field():
    cert = rank(endo(QQ, "x1^2", "x2^2"))
    assert cert.method == "elimination"
    assert not cert.is_lower_bound
    with pytest.raises(ValueError):
        rank(Endomorphism.identity(QQ, 2), method="gaussian")


def test_jacobian_probe_on_rationals():
    cert = rank(endo(QQ, "x1^2", "x2^2"), method="jacobian-probe", seed=0)
    assert cert.value == 2
    assert cert.method == "jacobian-probe"
    assert cert.is_lower_bound
    assert cert.probe_point is not None
    # same seed, same probe point
    again = rank(endo(QQ, "x1^2", "x2^2"), method="jacobian-probe", seed=0)
    assert again.probe_point == cert.probe_point


def test_jacobian_rank_at_points():
    ident = Endomorphism.identity(QQ, 3)
    assert jacobian_rank_at(ident, [0, 0, 0]) == 3
    sq = endo(QQ, "x1^2", "x2^2")
    assert jacobian_rank_at(sq, [0, 0]) == 0  # critical point
    assert jacobian_rank_at(sq, [1, 1]) == 2


def test_jacobian_refused_over_finite_fields():
    # Frobenius kernels make the probe useless in characteristic p: the
    # derivative of x^2 vanishes over GF(2), yet the map below has rank 2.
    phi = Endomorphism(
        GF2, 2, (parse_polynomial("x1^2", GF2, 2), parse_polynomial("x2^2", GF2, 2))
    )
    assert rank(phi).value == 2
    assert jacobian_rank_at(phi, [1, 1]) == 0
    with pytest.raises(JacobianUnavailable):
        rank(phi, method="jacobian-probe")


def test_rank_of_composite_never_exceeds_factors():
    rng = random.Random(5)
    for spec, rounds in ((QQ, 10), (GF3, 6)):
        for _ in range(rounds):
            a = random_endomorphism(rng, spec, 2, max_degree=2, max_terms=2)
            b = random_endomorphism(rng, spec, 2, max_degree=2, max_terms=2)
            r = rank(compose(a, b)).value
            assert r <= rank(a).value
            assert r <= rank(b).value


# -- the preorder --------------------------------------------------------------


def test_compare_oracle_verdicts():
    ident = Endomorphism.identity(QQ, 2)
    proj = endo(QQ, "x1", "0")
    assert compare(proj, ident).verdict is Verdict.STRICTLY_BELOW
    assert compare(ident, proj).verdict is Verdict.STRICTLY_ABOVE
    assert compare(proj, endo(QQ, "2*x1", "0")).verdict is Verdict.EQUIVALENT
    e11 = kronecker_endo(QQ, 2, 1, 1)
    e22 = kronecker_endo(QQ, 2, 2, 2)
    assert compare(e11, e22).verdict is Verdict.INCOMPARABLE


def test_constants_sit_at_the_bottom_but_apart():
    # A constant map absorbs all left composition, so two constants with
    # different values are genuinely incomparable, not equivalent.
    ident = Endomorphism.identity(QQ, 2)
    c1 = Endomorphism.constant(QQ, 2, [1, 2])
    c2 = Endomorphism.constant(QQ, 2, [3, 4])
    assert compare(c1, ident).verdict is Verdict.STRICTLY_BELOW
    assert compare(c1, c2).verdict is Verdict.INCOMPARABLE
    assert compose(ident, c1) == c1
    assert compose(endo(QQ, "x1 + 7", "x2"), c1) == c1


def test_compare_mismatch_errors():
    with pytest.raises(SpecMismatch):
        compare(Endomorphism.identity(QQ, 2), Endomorphism.identity(GF3, 2))
    with pytest.raises(ArityMismatch):
        compare(Endomorphism.identity(QQ, 2), Endomorphism.identity(QQ, 3))


def test_left_composition_only_descends():
    # phi = sigma . psi forces phi below-or-equivalent psi.
    rng = random.Random(12)
    for _ in range(10):
        psi = random_endomorphism(rng, QQ, 2, max_degree=2, max_terms=2)
        sigma = random_endomorphism(rng, QQ, 2, max_degree=2, max_terms=2)
        verdict = compare(compose(sigma, psi), psi).verdict
        assert verdict in (Verdict.STRICTLY_BELOW, Verdict.EQUIVALENT)


def test_verdict_agrees_with_rank():
    # strictly-below implies strictly smaller rank never holds in general --
    # but below-or-equal rank always does.  Check on a seeded batch.
    rng = random.Random(44)
    for _ in range(12):
        a = random_endomorphism(rng, QQ, 2, max_degree=2, max_terms=2)
        b = random_endomorphism(rng, QQ, 2, max_degree=2, max_terms=2)
        verdict = compare(a, b).verdict
        ra, rb = rank(a).value, rank(b).value
        if verdict is Verdict.EQUIVALENT:
            assert ra == rb
        elif verdict is Verdict.STRICTLY_BELOW:
            assert ra <= rb
        elif verdict is Verdict.STRICTLY_ABOVE:
            assert ra >= rb


# -- separators ---------------------------------------------------------------


EXPECTED_VERDICT = {
    (False, False): Verdict.EQUIVALENT,
    (True, False): Verdict.STRICTLY_BELOW,
    (False, True): Verdict.STRICTLY_ABOVE,
    (True, True): Verdict.INCOMPARABLE,
}


def check_separators(phi, psi):
    # Each separator is a relation of one map's images that the other's do
    # not satisfy, and which separators exist decides the verdict.
    result = compare(phi, psi)
    for sep, own, other in (
        (result.first_only, phi, psi),
        (result.second_only, psi, phi),
    ):
        if sep is not None:
            assert sep.substitute(own.images).is_zero
            assert not sep.substitute(other.images).is_zero
    key = (result.first_only is not None, result.second_only is not None)
    assert result.verdict is EXPECTED_VERDICT[key]
    same = compare(phi, phi)
    assert (same.first_only, same.second_only) == (None, None)
    return result


def test_separators_prove_the_verdict():
    ident = Endomorphism.identity(QQ, 2)
    proj = endo(QQ, "x1", "0")
    pairs = [
        (proj, ident, Verdict.STRICTLY_BELOW),
        (ident, proj, Verdict.STRICTLY_ABOVE),
        (kronecker_endo(QQ, 2, 1, 1), kronecker_endo(QQ, 2, 2, 2), Verdict.INCOMPARABLE),
        (proj, endo(QQ, "2*x1", "0"), Verdict.EQUIVALENT),
    ]
    for phi, psi, want in pairs:
        assert check_separators(phi, psi).verdict is want


@pytest.mark.parametrize("spec", [QQ, GF2, GF3, GF4], ids=["QQ", "GF2", "GF3", "GF4"])
def test_separators_prove_the_verdict_on_random_pairs(spec):
    rng = random.Random(44)
    seen = set()
    for _ in range(12):
        a = random_endomorphism(rng, spec, 2, max_degree=2, max_terms=2)
        b = random_endomorphism(rng, spec, 2, max_degree=2, max_terms=2)
        for phi, psi in ((a, b), (compose(b, a), a)):
            seen.add(check_separators(phi, psi).verdict)
    assert seen == set(Verdict)


def test_separators_of_the_kronecker_pair():
    result = compare(kronecker_endo(QQ, 2, 1, 1), kronecker_endo(QQ, 2, 2, 2))
    assert (str(result.first_only), str(result.second_only)) == ("x2", "x1")


@pytest.mark.parametrize("spec", [QQ, GF3], ids=["QQ", "GF3"])
def test_the_zero_map_sits_below_a_projection_with_a_separator(spec):
    # The projection's relation ideal is (x2), inside the zero map's
    # (x1, x2); x1 is the zero map's relation that the projection breaks.
    result = check_separators(Endomorphism.zero(spec, 2), endo(spec, "x1", "0"))
    assert result.verdict is Verdict.STRICTLY_BELOW
    assert (str(result.first_only), result.second_only) == ("x1", None)
