"""Rank-reducing substitution chains and their independent verifier."""

import pytest

from endorank import chains
from endorank.chains import (
    Chain,
    ChainPolicy,
    ChainStep,
    SubstitutionRecord,
    build_full_chain,
    lift_endo,
    reduce_rank_once,
    verify_chain,
)
from endorank.endo import Endomorphism, compose, rank
from endorank.cli import main
from endorank.errors import (
    BudgetExceeded,
    DegreeCapExceeded,
    SearchExhausted,
    SpecMismatch,
)
from endorank.fields import GF2, GF3, GF4, GF9, QQ
from endorank.groebner import clear_caches, get_budget, set_budget
from endorank.mpoly import MultiPoly, set_degree_cap
from endorank.parsing import parse_polynomial
from test_fields import GF8


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


# The GF(4) analogue of the pair's factor: it vanishes at every GF(4) point.
GF4_VANISHING = "(x1^4 + x1) * (x2^4 + x2)"


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
    assert not Chain(endo(QQ, "x1", "3"), ()).complete


def test_full_chain_ranks_only_its_start(monkeypatch):
    # Every later level's rank is the rank_after of the step before it, and
    # Chain.complete of the zero map's empty chain reads constant images.
    inside = [0]
    outside = []
    real_rank, real_reduce = chains.rank, chains.reduce_rank_once

    def counted_rank(phi):
        if not inside[0]:
            outside.append(phi)
        return real_rank(phi)

    def reduce(psi, policy):
        inside[0] += 1
        try:
            return real_reduce(psi, policy)
        finally:
            inside[0] -= 1

    monkeypatch.setattr(chains, "rank", counted_rank)
    monkeypatch.setattr(chains, "reduce_rank_once", reduce)
    for phi in (
        gf2_vanishing_pair(),
        Endomorphism.identity(QQ, 3),
        endo(GF3, "x1 + x2", "x1*x2"),
        Endomorphism.zero(QQ, 2),
    ):
        outside.clear()
        chain = build_full_chain(phi)
        assert chain.complete
        assert outside == [phi]


def test_exhausted_search_keeps_the_partial_chain():
    # x3 := 0 drops the rank from 3 to 2; what is left is the vanishing pair,
    # which no GF(4) specialization drops by exactly one, and GF(4) ships no
    # stock extension to lift to.
    u = GF4_VANISHING
    phi = endo(GF4, "x3", f"{u} * x1", f"{u} * x2")
    policy = ChainPolicy(r_max=1)
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


def test_lift_endo_takes_only_the_stock_extension():
    with pytest.raises(SpecMismatch) as exc_info:
        lift_endo(gf2_vanishing_pair(), GF8)
    assert str(exc_info.value) == "no lift F 2 -> F 2^3 mod t^3+t+1"
    with pytest.raises(SpecMismatch):
        lift_endo(gf2_vanishing_pair(), GF9)
    assert lift_endo(endo(GF3, "x1^2", "x2"), GF9).spec == GF9
    # verify_chain lifts only across fields, so no lift keeps the field
    with pytest.raises(SpecMismatch):
        lift_endo(gf2_vanishing_pair(), GF2)


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
    u = GF4_VANISHING
    phi = endo(GF4, f"{u} * x1", f"{u} * x2")
    policy = ChainPolicy(r_max=1)
    with pytest.raises(SearchExhausted) as exc_info:
        reduce_rank_once(phi, policy)
    attempts = exc_info.value.attempts
    # two occurring variables x four field elements, all rejected
    assert len(attempts) == 8
    assert attempts[0][0].describe() == "x1 := 0"
    assert attempts[0][1] == "rank 2 -> 0"
    assert {outcome for _, outcome in attempts} == {"rank 2 -> 0"}
    with pytest.raises(SearchExhausted) as exc_info:
        build_full_chain(phi, policy)
    assert exc_info.value.chain.length == 0



def test_a_candidate_past_the_degree_cap_ends_the_search():
    u = GF4_VANISHING
    phi = endo(GF4, f"{u} * x1", f"{u} * x2")
    clear_caches()  # a cached rank would answer without meeting the cap
    rank(phi)
    set_degree_cap(12)
    try:
        with pytest.raises(DegreeCapExceeded, match=r"\(candidate x1 := x2\^2\)$"):
            reduce_rank_once(phi, ChainPolicy(r_max=2))
    finally:
        set_degree_cap(64)


def test_the_degree_cap_never_decides_which_step_the_search_takes(tmp_path, capsys):
    # x1 := x2^2 raises the images to degree 8, past a cap of 7 that the
    # map's own rank fits in: the search stops there (exit 2) rather than
    # going on to the lift, and under the default cap it takes that step.
    path = tmp_path / "pair.endo"
    path.write_text(
        "field F 2\nvars 2\n"
        "x1 -> (x1^2 + x1) * (x2^2 + x2) * x1\n"
        "x2 -> (x1^2 + x1) * (x2^2 + x2) * x2\n"
    )
    clear_caches()
    set_degree_cap(7)
    try:
        with pytest.raises(DegreeCapExceeded, match=r"\(candidate x1 := x2\^2\)$"):
            reduce_rank_once(gf2_vanishing_pair(), ChainPolicy(seed=1))
        assert main(["chain", str(path), "--seed", "1"]) == 2
    finally:
        set_degree_cap(64)
    assert "(candidate x1 := x2^2)" in capsys.readouterr().err
    clear_caches()
    step = reduce_rank_once(gf2_vanishing_pair(), ChainPolicy(seed=1))
    assert step.record.describe() == "x1 := x2^2"


def test_a_candidate_past_the_budget_ends_the_search():
    psi = gf2_vanishing_pair()
    clear_caches()
    rank(psi)  # warmed, so only the candidates' ranks spend budget
    budget = get_budget()
    set_budget(1)
    try:
        # the specializations give the zero map, whose rank spends nothing
        with pytest.raises(BudgetExceeded, match=r"\(candidate x1 := x2\^2\)$"):
            reduce_rank_once(psi, ChainPolicy(seed=1))
    finally:
        set_budget(budget)
        clear_caches()


# -- the verifier catches tampering ---------------------------------------------


def _record_with(rec, **params):
    """A SubstitutionRecord with rec's fields, some of them replaced."""
    fields = dict(
        kind=rec.kind, variable=rec.variable, source=rec.source, exponent=rec.exponent,
        value=rec.value, point=rec.point, lifted_to=rec.lifted_to,
    )
    return SubstitutionRecord(**{**fields, **params})


def test_verifier_rejects_wrong_recorded_rank():
    chain = build_full_chain(gf2_vanishing_pair())
    step = chain.steps[0]
    bad_step = ChainStep(step.record, step.rank_before, 0, step.after)
    tampered = Chain(chain.start, (bad_step,) + chain.steps[1:])
    report = verify_chain(tampered)
    assert not report.ok
    assert any("recorded rank after" in p for p in report.problems)


def test_verifier_rejects_wrong_composed_map():
    chain = build_full_chain(Endomorphism.identity(QQ, 2))
    step = chain.steps[0]
    bad_step = ChainStep(
        step.record, step.rank_before, step.rank_after, endo(QQ, "0", "x2^2")
    )
    tampered = Chain(chain.start, (bad_step,) + chain.steps[1:])
    report = verify_chain(tampered)
    assert not report.ok
    assert any("replayed map differs" in p for p in report.problems)


def test_verifier_requires_declared_field_switch():
    chain = build_full_chain(gf2_vanishing_pair(), ChainPolicy(r_max=1))
    step = chain.steps[0]
    record = _record_with(step.record, lifted_to=None)
    bad_step = ChainStep(record, step.rank_before, step.rank_after, step.after)
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


@pytest.mark.parametrize(
    "idx, params, problem",
    [
        # images[-1 - 1] is x1 again on two variables, so this record would
        # replay as the step it was copied from
        (1, {"variable": -1}, "variable -1 outside 1..2"),
        (1, {"source": 2, "exponent": 5}, "a specialize step takes no source"),
        (2, {"variable": 7, "exponent": 9}, "a collapse step takes no variable"),
        (2, {"exponent": False}, "a collapse step takes no exponent"),
    ],
)
def test_verifier_replays_only_the_record_it_reads(idx, params, problem):
    chain = build_full_chain(endo(QQ, "x1*x2", "x2"))
    assert [st.record.describe() for st in chain.steps] == [
        "x1 := 0",
        "collapse at (0, 0)",
    ]
    assert verify_chain(chain).ok
    steps = list(chain.steps)
    step = steps[idx - 1]
    record = _record_with(step.record, **params)
    steps[idx - 1] = ChainStep(record, step.rank_before, step.rank_after, step.after)
    report = verify_chain(Chain(chain.start, tuple(steps)))
    assert not report.ok
    assert f"step {idx}: replay failed: {problem}" in report.problems


def test_verifier_reports_a_step_over_a_field_it_cannot_lift_to():
    chain = build_full_chain(gf2_vanishing_pair())
    step = chain.steps[0]
    over_gf8 = Endomorphism(
        GF8, 2, tuple(MultiPoly(GF8, 2, img.terms) for img in step.after.images)
    )
    bad_step = ChainStep(step.record, step.rank_before, step.rank_after, over_gf8)
    report = verify_chain(Chain(chain.start, (bad_step,) + chain.steps[1:]))
    assert report.problems == (
        "step 1: cannot lift the previous map to F 2^3 mod t^3+t+1",
        "chain stops at rank 2, not 0",
    )


def test_verifier_reports_a_drop_of_two():
    psi = gf2_vanishing_pair()
    record = SubstitutionRecord("specialize", variable=1, value=GF2.zero())
    after = compose(record.sigma(GF2, 2), psi)
    report = verify_chain(Chain(psi, (ChainStep(record, 2, 0, after),)))
    assert report.problems == ("step 1: rank moved 2 -> 0, not exactly -1",)


def test_verifier_reports_a_step_that_changes_nothing():
    # x2 does not occur, so pinning it leaves the map as it was
    phi = endo(QQ, "x1", "x1")
    record = SubstitutionRecord("specialize", variable=2, value=QQ.zero())
    after = compose(record.sigma(QQ, 2), phi)
    assert after == phi
    report = verify_chain(Chain(phi, (ChainStep(record, 1, 1, after),)))
    assert report.problems == (
        "step 1: rank moved 1 -> 1, not exactly -1",
        "step 1: the composed map is not strictly below its predecessor",
        "chain stops at rank 1, not 0",
    )
