"""Rank-reducing substitution chains and their independent verifier."""

import dataclasses

import pytest

from endorank.chains import (
    Chain,
    ChainPolicy,
    build_full_chain,
    lift_endo,
    reduce_rank_once,
    verify_chain,
)
from endorank.endo import Endomorphism, compose, rank
from endorank.errors import SearchExhausted
from endorank.fields import GF2, GF3, GF4, QQ
from endorank.parsing import parse_polynomial


def endo(spec, *images):
    n = len(images)
    return Endomorphism(spec, n, tuple(parse_polynomial(s, spec, n) for s in images))


def gf2_vanishing_pair():
    # Both images carry the factor (x1^2+x1)(x2^2+x2), which vanishes at
    # every GF(2) point, so every base-field specialization kills the whole
    # map at once.  Rank is still 2: the images are algebraically
    # independent.
    return endo(
        GF2,
        "(x1^2 + x1) * (x2^2 + x2) * x1",
        "(x1^2 + x1) * (x2^2 + x2) * x2",
    )


# -- single steps ---------------------------------------------------------------


def test_rank_one_maps_collapse_at_the_origin():
    step = reduce_rank_once(endo(QQ, "x1*x2", "0"))
    assert step.record.kind == "collapse"
    assert step.record.point == (QQ.element(0), QQ.element(0))
    assert (step.rank_before, step.rank_after) == (1, 0)
    assert all(img.is_zero for img in step.after.images)


def test_rank_zero_map_refuses_to_reduce():
    with pytest.raises(ValueError):
        reduce_rank_once(Endomorphism.zero(QQ, 2))


def test_rational_specialization_is_found_first():
    # The identity drops to (0, x2) by pinning x1 at the first scheduled
    # value.
    step = reduce_rank_once(Endomorphism.identity(QQ, 2))
    assert step.record.kind == "specialize"
    assert step.record.variable == 1
    assert step.record.value == QQ.element(0)
    assert str(step.after) == "x1 -> 0; x2 -> x2"


def test_accepted_steps_drop_rank_by_exactly_one():
    # x1 := 0 would send (x1, x1*x2) to the zero map (a drop of two), so the
    # search has to move on until a single-step drop appears.
    phi = endo(QQ, "x1", "x1*x2")
    step = reduce_rank_once(phi)
    assert step.rank_before == 2
    assert step.rank_after == 1
    assert rank(compose(step.record.sigma(QQ, 2), phi)).value == 1


def test_substitution_records_describe_themselves():
    phi = gf2_vanishing_pair()
    step = reduce_rank_once(phi)
    assert step.record.describe() == "x1 := x2^2"
    collapse = reduce_rank_once(step.after)
    assert collapse.record.describe() == "collapse at (0, 0)"


# -- full chains ----------------------------------------------------------------


def test_gf2_vanishing_pair_chains_in_two_steps():
    phi = gf2_vanishing_pair()
    assert rank(phi).value == 2
    chain = build_full_chain(phi)
    assert chain.length == 2
    assert chain.complete
    first = chain.steps[0].record
    assert first.kind == "power"
    assert (first.variable, first.source, first.exponent) == (1, 2, 2)
    assert chain.steps[1].record.kind == "collapse"
    report = verify_chain(chain)
    assert report.ok
    assert report.ranks == (2, 1, 0)
    assert report.problems == ()


def test_chain_over_rationals():
    chain = build_full_chain(Endomorphism.identity(QQ, 2))
    assert chain.length == 2
    assert [s.record.describe() for s in chain.steps] == [
        "x1 := 0",
        "collapse at (0, 0)",
    ]
    assert verify_chain(chain).ok


def test_chain_length_equals_rank_when_complete():
    for phi in (
        Endomorphism.identity(QQ, 3),
        endo(QQ, "x1^2", "x2^2"),
        endo(GF3, "x1 + x2", "x1*x2"),
        endo(QQ, "x1^2", "x1^3"),
    ):
        chain = build_full_chain(phi)
        assert chain.complete
        assert chain.length == rank(phi).value
        assert verify_chain(chain).ok


def test_complete_chain_length_is_the_rank():
    chain = build_full_chain(gf2_vanishing_pair())
    assert (chain.length, chain.complete) == (2, True)
    chain = build_full_chain(Endomorphism.zero(QQ, 2))
    assert (chain.length, chain.complete) == (0, True)


def test_exhausted_search_keeps_the_partial_chain():
    # x3 := 0 drops the rank from 3 to 2; what is left is the vanishing pair,
    # which no GF(2) specialization drops by exactly one.
    u = "(x1^2 + x1) * (x2^2 + x2)"
    phi = endo(GF2, "x3", f"{u} * x1", f"{u} * x2")
    policy = ChainPolicy(r_max=1, allow_extension=False)
    with pytest.raises(SearchExhausted) as exc_info:
        build_full_chain(phi, policy)
    partial = exc_info.value.chain
    assert partial.start == phi
    assert partial.length == 1
    assert not partial.complete
    assert partial.steps[0].record.describe() == "x3 := 0"


def test_policy_refuses_r_max_below_one():
    for r_max in (-5, 0):
        with pytest.raises(ValueError, match=f"^r_max must be at least 1, got {r_max}$"):
            ChainPolicy(r_max=r_max)
    assert ChainPolicy(r_max=1).r_max == 1


# -- the extension lift ---------------------------------------------------------


def test_lift_endo_reads_map_over_extension():
    lifted = lift_endo(gf2_vanishing_pair(), GF4)
    assert lifted.spec == GF4
    assert rank(lifted).value == 2
    t = GF4.generator()
    # t^2 + t = 1 in GF(4), so the lifted annihilator factor no longer
    # vanishes everywhere.
    assert lifted.images[0].evaluate([t, t]) == GF4.element(1) * t


def test_extension_lift_rescues_a_blocked_search():
    # With r_max = 1 (no powers), no GF(2) specialization gives an exact -1 drop
    # (they all give -2), so the search must lift to GF(4) and pin x1 at a
    # fresh element.
    phi = gf2_vanishing_pair()
    chain = build_full_chain(phi, ChainPolicy(r_max=1))
    assert chain.length == 2
    first = chain.steps[0].record
    assert first.kind == "specialize"
    assert first.lifted_to == GF4
    assert str(first.value) == "t"
    assert first.describe() == "x1 := t (after lifting to F 2^2 mod t^2+t+1)"
    assert chain.steps[0].after.spec == GF4
    report = verify_chain(chain)
    assert report.ok
    assert report.ranks == (2, 1, 0)


def test_search_exhausted_carries_the_attempt_log():
    phi = gf2_vanishing_pair()
    policy = ChainPolicy(r_max=1, allow_extension=False)
    with pytest.raises(SearchExhausted) as exc_info:
        reduce_rank_once(phi, policy)
    attempts = exc_info.value.attempts
    # two occurring variables x two field elements, all rejected
    assert len(attempts) == 4
    assert attempts[0][0].describe() == "x1 := 0"
    assert attempts[0][1] == "rank 2 -> 0"
    assert {outcome for _, outcome in attempts} == {"rank 2 -> 0"}
    with pytest.raises(SearchExhausted) as exc_info:
        build_full_chain(phi, policy)
    assert exc_info.value.chain.length == 0


# -- the verifier catches tampering ---------------------------------------------


def test_verifier_rejects_wrong_recorded_rank():
    chain = build_full_chain(gf2_vanishing_pair())
    bad_step = dataclasses.replace(chain.steps[0], rank_after=0)
    tampered = Chain(chain.start, (bad_step,) + chain.steps[1:])
    report = verify_chain(tampered)
    assert not report.ok
    assert any("recorded rank after" in p for p in report.problems)


def test_verifier_rejects_wrong_composed_map():
    chain = build_full_chain(Endomorphism.identity(QQ, 2))
    bad_step = dataclasses.replace(
        chain.steps[0], after=endo(QQ, "0", "x2^2")
    )
    tampered = Chain(chain.start, (bad_step,) + chain.steps[1:])
    report = verify_chain(tampered)
    assert not report.ok
    assert any("replayed map differs" in p for p in report.problems)


def test_verifier_requires_declared_field_switch():
    chain = build_full_chain(gf2_vanishing_pair(), ChainPolicy(r_max=1))
    record = dataclasses.replace(chain.steps[0].record, lifted_to=None)
    bad_step = dataclasses.replace(chain.steps[0], record=record)
    tampered = Chain(chain.start, (bad_step,) + chain.steps[1:])
    report = verify_chain(tampered)
    assert not report.ok
    assert any("field switch is not declared" in p for p in report.problems)


def test_verifier_flags_truncated_chains():
    chain = build_full_chain(gf2_vanishing_pair())
    truncated = Chain(chain.start, chain.steps[:1])
    assert not truncated.complete
    report = verify_chain(truncated)
    assert not report.ok
    assert report.problems == ("chain stops at rank 1, not 0",)
