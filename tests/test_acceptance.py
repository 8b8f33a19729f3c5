"""End-to-end acceptance checks.

One test per criterion, run in order; each prints a single PASS line with its
headline numbers.  The module-level fixture clears every basis cache and arms
the S-polynomial postcondition hook, so criteria 1-6 double as a stress run
for criterion 7's zero-failure audit.
"""

import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from endorank import groebner
from endorank.autgroup import SemiLinearAut, verify_automorphism_properties
from endorank.chains import SubstitutionRecord, build_full_chain, verify_chain
from endorank.endo import Endomorphism, Verdict, compare, compose, rank
from endorank.errors import JacobianUnavailable, SearchExhausted
from endorank.fields import GF2, GF3, GF4, QQ, FieldAutomorphism
from endorank.groebner import invert_poly_map
from endorank.kronecker import (
    KroneckerSystem,
    normalize_base,
    verify_base_external,
    verify_subbase,
)
from endorank.mpoly import MultiPoly
from endorank.parsing import parse_polynomial
from endorank.sampling import (
    random_endomorphism,
    random_nonzero_scalar,
    random_polynomial,
)

HERE = Path(__file__).parent
FIXTURES = HERE / "fixtures"
GOLDEN = HERE / "golden"


@pytest.fixture(scope="module", autouse=True)
def armed_spoly_hook():
    groebner.clear_caches()
    groebner.reset_stats()
    old = groebner.CHECK_SPOLYS
    groebner.CHECK_SPOLYS = True
    yield
    groebner.CHECK_SPOLYS = old


def P(s, spec=QQ, n=2):
    return parse_polynomial(s, spec, n)


def endo(spec, *images):
    n = len(images)
    return Endomorphism(spec, n, tuple(parse_polynomial(s, spec, n) for s in images))


def gf2_counterexample():
    return endo(
        GF2,
        "(x1^2 + x1) * (x2^2 + x2) * x1",
        "(x1^2 + x1) * (x2^2 + x2) * x2",
    )


def test_criterion_1_gf2_counterexample():
    t0 = time.time()
    phi = gf2_counterexample()
    assert rank(phi).value == 2

    # every substitution of a base-field constant kills the whole map
    collapsed = 0
    for var in (1, 2):
        for value in (GF2.element(0), GF2.element(1)):
            rec = SubstitutionRecord("specialize", variable=var, value=value)
            after = compose(rec.sigma(GF2, 2), phi)
            assert all(img.is_zero for img in after.images)
            collapsed += 1
    assert collapsed == 4

    chain = build_full_chain(phi)
    assert chain.length == 2
    assert chain.complete
    first = chain.steps[0].record
    assert first.kind == "power"
    assert first.exponent <= 4
    assert verify_chain(chain).ok

    elapsed = time.time() - t0
    assert elapsed < 10.0
    print(
        f"criterion 1: PASS in {elapsed:.2f}s -- rank 2, 4/4 specializations "
        f"collapse, chain length 2 via {first.describe()}"
    )


def test_criterion_2_chain_corpus():
    t0 = time.time()
    rng = random.Random(2024)
    total = 0
    exhausted = 0
    verified = 0
    for spec in (QQ, GF2, GF3):
        for n in (2, 3):
            for _ in range(9):
                phi = random_endomorphism(rng, spec, n, max_degree=3, max_terms=2)
                total += 1
                r = rank(phi).value
                try:
                    chain = build_full_chain(phi)
                except SearchExhausted:
                    exhausted += 1
                    continue
                assert chain.length == r, (
                    f"chain length {chain.length} != rank {r} for {phi}"
                )
                report = verify_chain(chain)
                assert report.ok, report.problems
                verified += 1

    assert total >= 50
    assert exhausted <= 0.05 * total
    elapsed = time.time() - t0
    assert elapsed < 300.0
    print(
        f"criterion 2: PASS in {elapsed:.2f}s -- {total} maps, "
        f"{verified} chains verified, {exhausted} exhausted"
    )


def test_criterion_3_order_versus_rank():
    t0 = time.time()
    rng = random.Random(777)
    pool = {
        spec: [
            random_endomorphism(rng, spec, 2, max_degree=2, max_terms=2)
            for _ in range(16)
        ]
        for spec in (QQ, GF2, GF3)
    }
    pairs = []
    for spec in (QQ, GF2, GF3):
        for _ in range(40):
            pairs.append((rng.choice(pool[spec]), rng.choice(pool[spec])))
    for spec in (QQ, GF2, GF3):
        for _ in range(20):
            psi = rng.choice(pool[spec])
            sigma = random_endomorphism(rng, spec, 2, max_degree=2, max_terms=2)
            pairs.append((compose(sigma, psi), psi))
    for spec in (QQ, GF2, GF3):
        for k in range(8):
            pairs.append((pool[spec][k], pool[spec][k]))

    assert len(pairs) >= 200
    violations = 0
    seen = {v: 0 for v in Verdict}
    for phi, psi in pairs:
        verdict = compare(phi, psi)
        seen[verdict] += 1
        r_phi, r_psi = rank(phi).value, rank(psi).value
        if verdict is Verdict.EQUIVALENT and r_phi != r_psi:
            violations += 1
        # relation ideals are prime, so strict containment drops the
        # dimension strictly
        if verdict is Verdict.STRICTLY_BELOW and not r_phi < r_psi:
            violations += 1
        if verdict is Verdict.STRICTLY_ABOVE and not r_phi > r_psi:
            violations += 1

    assert violations == 0
    assert all(seen[v] > 0 for v in Verdict)
    elapsed = time.time() - t0
    assert elapsed < 300.0
    print(
        f"criterion 3: PASS in {elapsed:.2f}s -- {len(pairs)} pairs, "
        f"0 violations, verdicts {[seen[v] for v in Verdict]}"
    )


def test_criterion_4_jacobian_agrees_over_q():
    t0 = time.time()
    rng = random.Random(4242)
    agree = 0
    total = 0
    for _ in range(60):
        n = rng.choice((2, 3))
        phi = random_endomorphism(rng, QQ, n, max_degree=2, max_terms=3)
        total += 1
        if (
            rank(phi, method="elimination").value
            == rank(phi, method="jacobian-probe", seed=0).value
        ):
            agree += 1
    assert total >= 50
    assert agree == total

    # characteristic 2: the probe is blind to squares and must refuse
    squares = Endomorphism(
        GF2, 2, (P("x1^2", GF2), P("x2^2", GF2))
    )
    assert rank(squares, method="elimination").value == 2
    from endorank.endo import jacobian_rank_at

    assert jacobian_rank_at(squares, [1, 1]) == 0
    with pytest.raises(JacobianUnavailable):
        rank(squares, method="jacobian-probe")

    elapsed = time.time() - t0
    print(
        f"criterion 4: PASS in {elapsed:.2f}s -- {agree}/{total} probe/elimination "
        f"agreements over Q, refusal over GF(2) confirmed"
    )


def test_criterion_5_kronecker_bases_and_normalization():
    t0 = time.time()

    for spec in (QQ, GF2, GF3, GF4):
        for n in (2, 3):
            system = KroneckerSystem.standard(spec, n)
            assert verify_subbase(system).ok
            assert verify_base_external(system).is_base

    e11 = endo(QQ, "x1 + x1*x2", "0")
    e12 = endo(QQ, "0", "x1 + x1*x2")
    e21 = endo(QQ, "x2", "0")
    e22 = endo(QQ, "0", "x2")
    two_gen = KroneckerSystem(
        QQ, 2, ((e11, e12), (e21, e22)), Endomorphism.zero(QQ, 2)
    )
    assert verify_subbase(two_gen).ok
    check = verify_base_external(two_gen)
    assert not check.is_base
    assert check.missing == (1,)  # x1 is not in K[x1*x2 + x1, x2]
    assert [str(g) for g in check.generators] == ["x1*x2 + x1", "x2"]

    # scaled, translated, and conjugated variants all normalize back to
    # exact matrix-unit action (normalize_base re-verifies every relation
    # and raises if any fails)
    S = KroneckerSystem.standard(QQ, 2)
    scaled_cert = verify_base_external(S, Z=(P("2*x1"), P("3*x2"))).certificate
    scaled = normalize_base(scaled_cert)
    assert [str(z) for z in scaled.certificate.generators] == ["x1", "x2"]

    shift = endo(QQ, "x1 + 1", "x2 + 2")
    shift_inv = endo(QQ, "x1 - 1", "x2 - 2")
    moved = S.transformed(lambda e: compose(compose(shift, e), shift_inv))
    moved_res = normalize_base(verify_base_external(moved).certificate)

    twist = endo(QQ, "x1 + x2^2", "x2")
    twist_inv = endo(QQ, "x1 - x2^2", "x2")
    twisted = S.transformed(lambda e: compose(compose(twist, e), twist_inv))
    twisted_res = normalize_base(verify_base_external(twisted).certificate)

    for system, result in ((moved, moved_res), (twisted, twisted_res)):
        z = result.certificate.generators
        for i in (1, 2):
            for j in (1, 2):
                for k in (1, 2):
                    got = system.entry(i, j).apply(z[k - 1])
                    if j == k:
                        assert got == z[i - 1]
                    else:
                        assert got.is_zero

    elapsed = time.time() - t0
    assert elapsed < 60.0
    print(
        f"criterion 5: PASS in {elapsed:.2f}s -- 8 standard bases, subbase-only "
        f"family rejected at x1, 3 normalizations exact"
    )


def test_criterion_6_automorphism_corpus():
    t0 = time.time()
    auts = [
        SemiLinearAut.create(
            FieldAutomorphism.identity(QQ), (P("x1 + 1"), P("x2 - 3"))
        ),
        SemiLinearAut.create(
            FieldAutomorphism.identity(QQ), (P("x1 + x2^2"), P("x2"))
        ),
        SemiLinearAut.create(
            FieldAutomorphism.identity(QQ), (P("2*x1 + x2"), P("x2"))
        ),
        SemiLinearAut.create(
            FieldAutomorphism.frobenius(GF4, 1), (P("x1", GF4), P("x2", GF4))
        ),
        SemiLinearAut.create(
            FieldAutomorphism.frobenius(GF4, 1),
            (P("x2", GF4), P("x1 + t*x2^2", GF4)),
        ),
    ]
    assert len(auts) >= 5
    assert any(not a.is_inner for a in auts)

    total_pairs = 0
    for i, aut in enumerate(auts):
        report = verify_automorphism_properties(aut, trials=8, seed=100 + i)
        assert report.ok, report.problems
        assert report.kronecker_base_check
        total_pairs += len(report.rank_pairs)
        assert all(a == b for a, b in report.rank_pairs)

    assert total_pairs >= 40
    elapsed = time.time() - t0
    assert elapsed < 300.0
    print(
        f"criterion 6: PASS in {elapsed:.2f}s -- {len(auts)} automorphisms, "
        f"{total_pairs} conjugation pairs, 0 violations"
    )


def test_criterion_7_spoly_audit_and_tame_inversions():
    t0 = time.time()

    # twenty tame automorphisms assembled from elementary pieces, each
    # inverted and round-tripped exactly
    rng = random.Random(31415)
    inverted = 0
    for spec in (QQ, GF3):
        for _ in range(10):
            p = random_polynomial(rng, spec, 1, max_degree=3, max_terms=2)
            shear = MultiPoly.from_terms(
                spec, 2, (((0, m[0]), c) for m, c in p.tuple_terms().items())
            )
            images = (
                MultiPoly.variable(spec, 2, 0) + shear,
                MultiPoly.variable(spec, 2, 1).scale(random_nonzero_scalar(rng, spec)),
            )
            if rng.random() < 0.5:
                images = (images[1], images[0])
            inv = invert_poly_map(images)
            assert inv is not None
            for k in range(2):
                assert images[k].substitute(inv) == MultiPoly.variable(spec, 2, k)
                assert inv[k].substitute(images) == MultiPoly.variable(spec, 2, k)
            inverted += 1
    assert inverted == 20

    # the hook has been live since the module fixture armed it; every basis
    # computed by criteria 1-6 and by the inversions above re-verified its
    # S-polynomial reductions
    stats = groebner.STATS
    assert stats["bases_computed"] > 0
    assert stats["spoly_checks"] > 0
    assert stats["spoly_failures"] == 0

    elapsed = time.time() - t0
    print(
        f"criterion 7: PASS in {elapsed:.2f}s -- {inverted} tame inversions, "
        f"{stats['bases_computed']} bases recomputed with "
        f"{stats['spoly_checks']} S-poly checks, 0 failures"
    )


def test_criterion_8_cli_determinism_and_goldens():
    t0 = time.time()
    env = dict(os.environ)
    env.pop("ENDORANK_BUDGET", None)

    def cli(*argv):
        return subprocess.run(
            [sys.executable, "-m", "endorank.cli", *argv],
            capture_output=True,
            text=True,
            env=env,
        )

    selftest = cli("selftest")
    assert selftest.returncode == 0, selftest.stdout + selftest.stderr

    chain_runs = [
        cli(
            "chain",
            str(FIXTURES / "gf2_counterexample.endo"),
            "--seed",
            "1",
            "--format",
            "json",
        )
        for _ in range(2)
    ]
    assert chain_runs[0].returncode == 0
    assert chain_runs[0].stdout == chain_runs[1].stdout
    golden_chain = (GOLDEN / "chain_gf2_seed1.json").read_text()
    assert chain_runs[0].stdout == golden_chain

    base_runs = [
        cli(
            "kron-base",
            str(FIXTURES / "two_generator.kron"),
            "--format",
            "json",
        )
        for _ in range(2)
    ]
    assert base_runs[0].returncode == 0
    assert base_runs[0].stdout == base_runs[1].stdout
    golden_base = (GOLDEN / "kron_base_two_generator.json").read_text()
    assert base_runs[0].stdout == golden_base

    # sanity: the golden payloads say what they are supposed to say
    assert json.loads(golden_chain)["length"] == 2
    assert json.loads(golden_base)["is_base"] is False

    elapsed = time.time() - t0
    print(
        f"criterion 8: PASS in {elapsed:.2f}s -- selftest exit 0, two golden "
        f"outputs byte-identical across repeated runs"
    )
