"""Matrix-unit families: subbase audit, classification, bases, and
normalization."""

import random

import pytest

from endorank import groebner, kronecker
from endorank.autgroup import SemiLinearAut, conjugate
from endorank.endo import Endomorphism, compose, kronecker_endo, rank
from endorank.errors import (
    DegreeCapExceeded,
    NonAffineImage,
    RelationViolation,
    ZeroScale,
)
from endorank.fields import GF2, GF3, GF4, GF9, QQ, FieldAutomorphism, enumerate_elements
from endorank.groebner import clear_caches, subalgebra_member
from endorank.kronecker import (
    BaseCertificate,
    KroneckerSystem,
    RepresentationKind,
    classify_representation,
    image_generator,
    normalize_base,
    verify_base_external,
    verify_subbase,
)
from endorank.mpoly import GREVLEX, MultiPoly, set_degree_cap
from endorank.parsing import format_poly, load_kronecker_system, parse_polynomial


def P(s, spec=QQ, n=2):
    return parse_polynomial(s, spec, n)


def endo(spec, *images):
    n = len(images)
    return Endomorphism(spec, n, tuple(parse_polynomial(s, spec, n) for s in images))


def two_generator_system():
    # e(1,1) projects onto K[x1 + x1*x2]; that algebra together with K[x2]
    # generates a proper subalgebra (x1 itself is unreachable), so this
    # family is a subbase that is not a base.
    e11 = endo(QQ, "x1 + x1*x2", "0")
    e12 = endo(QQ, "0", "x1 + x1*x2")
    e21 = endo(QQ, "x2", "0")
    e22 = endo(QQ, "0", "x2")
    return KroneckerSystem(
        QQ, 2, ((e11, e12), (e21, e22)), Endomorphism.zero(QQ, 2)
    )


def conjugated(system, s, s_inv):
    return system.transformed(lambda e: compose(compose(s, e), s_inv))


# -- construction ----------------------------------------------------------------


def test_grid_shape_is_checked():
    e = kronecker_endo(QQ, 2, 1, 1)
    with pytest.raises(RelationViolation):
        KroneckerSystem(QQ, 2, ((e, e),), None)
    with pytest.raises(RelationViolation):
        KroneckerSystem(QQ, 2, ((e,), (e,)), None)
    with pytest.raises(RelationViolation):
        KroneckerSystem(
            QQ, 2, ((e, e), (e, kronecker_endo(QQ, 3, 1, 1))), None
        )


def test_entry_accessor_is_one_based():
    S = KroneckerSystem.standard(QQ, 2)
    assert str(S.entry(1, 2)) == "x1 -> 0; x2 -> x1"
    assert str(S.entry(2, 1)) == "x1 -> x2; x2 -> 0"


# -- subbase audit ---------------------------------------------------------------


@pytest.mark.parametrize("spec", [QQ, GF2, GF3, GF4])
@pytest.mark.parametrize("n", [2, 3])
def test_standard_families_are_subbases(spec, n):
    report = verify_subbase(KroneckerSystem.standard(spec, n))
    assert report.ok
    assert report.problems == ()
    assert report.zero == Endomorphism.zero(spec, n)
    # n^4 products plus two absorption checks per entry
    assert report.relations_checked == n**4 + 2 * n**2


def test_two_generator_family_is_a_subbase():
    report = verify_subbase(two_generator_system())
    assert report.ok
    assert report.relations_checked == 24


def test_subbase_audit_rejects_wrong_entry():
    # swapping in x1 -> x1 at position (2,1) breaks a whole cluster of
    # products; the audit names each one
    e11 = endo(QQ, "x1 + x1*x2", "0")
    e12 = endo(QQ, "0", "x1 + x1*x2")
    e21 = endo(QQ, "x1", "0")
    e22 = endo(QQ, "0", "x2")
    broken = KroneckerSystem(
        QQ, 2, ((e11, e12), (e21, e22)), Endomorphism.zero(QQ, 2)
    )
    report = verify_subbase(broken)
    assert not report.ok
    assert "(1,2).(2,1) != (1,1)" in report.problems
    assert any("disagrees with the common zero" in p for p in report.problems)


def test_subbase_audit_rejects_wrong_declared_zero():
    grid = tuple(
        tuple(kronecker_endo(QQ, 2, i, j) for j in (1, 2)) for i in (1, 2)
    )
    system = KroneckerSystem(QQ, 2, grid, Endomorphism.constant(QQ, 2, [1, 1]))
    report = verify_subbase(system)
    assert not report.ok
    assert "declared zero differs from the common product zero" in report.problems


def test_subbase_audit_rejects_zero_entries():
    zero = Endomorphism.zero(QQ, 2)
    sink = KroneckerSystem(QQ, 2, ((zero, zero), (zero, zero)), zero)
    report = verify_subbase(sink)
    assert not report.ok
    assert "entry (1,1) equals the zero map" in report.problems


# -- classification ---------------------------------------------------------------


def test_classify_standard_as_nonsingular():
    for spec in (QQ, GF2, GF4):
        kind = classify_representation(KroneckerSystem.standard(spec, 2))
        assert kind is RepresentationKind.NONSINGULAR
    assert (
        classify_representation(two_generator_system())
        is RepresentationKind.NONSINGULAR
    )
    assert (
        classify_representation(KroneckerSystem.standard(QQ, 1))
        is RepresentationKind.NONSINGULAR
    )


def test_classify_collapsed_family_as_singular():
    # every entry equal to the zero map satisfies all the relations; it is a
    # representation (the degenerate one) without being a subbase
    zero = Endomorphism.zero(QQ, 2)
    sink = KroneckerSystem(QQ, 2, ((zero, zero), (zero, zero)), zero)
    assert classify_representation(sink) is RepresentationKind.SINGULAR
    assert not verify_subbase(sink).ok
    # collapsing onto a map of rank n instead of rank 0 is no representation
    ident = Endomorphism.identity(QQ, 2)
    with pytest.raises(RelationViolation):
        classify_representation(
            KroneckerSystem(QQ, 2, ((ident, ident), (ident, ident)), ident)
        )


def test_classify_requires_explicit_zero():
    grid = tuple(
        tuple(kronecker_endo(QQ, 2, i, j) for j in (1, 2)) for i in (1, 2)
    )
    with pytest.raises(RelationViolation):
        classify_representation(KroneckerSystem(QQ, 2, grid, None))


def test_classify_rejects_relation_violations():
    e11 = endo(QQ, "x1 + x1*x2", "0")
    e12 = endo(QQ, "0", "x1 + x1*x2")
    e21 = endo(QQ, "x1", "0")
    e22 = endo(QQ, "0", "x2")
    broken = KroneckerSystem(
        QQ, 2, ((e11, e12), (e21, e22)), Endomorphism.zero(QQ, 2)
    )
    with pytest.raises(RelationViolation):
        classify_representation(broken)


def test_classify_rejects_mixed_family():
    # one entry replaced by the zero map: neither all-zero nor all-rank-one
    zero = Endomorphism.zero(QQ, 2)
    grid = (
        (kronecker_endo(QQ, 2, 1, 1), kronecker_endo(QQ, 2, 1, 2)),
        (kronecker_endo(QQ, 2, 2, 1), zero),
    )
    with pytest.raises(RelationViolation):
        classify_representation(KroneckerSystem(QQ, 2, grid, zero))


# -- the common zero ----------------------------------------------------------------


@pytest.mark.parametrize("spec", [QQ, GF3])
def test_subbase_audit_finds_the_moved_common_zero(spec):
    # conjugating by x -> x + (1, 2) moves the common zero to the constant
    # map at (-1, -2); the audit reads it off the products and hands it on
    s = endo(spec, "x1 + 1", "x2 + 2")
    s_inv = endo(spec, "x1 - 1", "x2 - 2")
    moved = conjugated(KroneckerSystem.standard(spec, 2), s, s_inv)
    report = verify_subbase(moved)
    assert report.ok
    assert report.zero == Endomorphism.constant(spec, 2, [-1, -2])
    assert verify_base_external(moved).certificate.zero == report.zero


# -- the generating relations against the full loop -------------------------------


def reference_audit(system, monkeypatch):
    """verify_subbase composed pair by pair: the full n^4 loop (the
    generating set switched off) and one elimination per entry.  The memo
    tables are emptied before and after, so no result of the patched run
    outlives it."""
    clear_caches()
    with monkeypatch.context() as m:
        m.setattr(kronecker, "_generating_zero", lambda system: None)
        problems, zero, checked = kronecker._relation_violations(system)
    clear_caches()
    if zero is not None and (r := rank(zero).value) != 0:
        problems.append(f"common zero has rank {r}, expected 0")
    for i in range(1, system.n + 1):
        for j in range(1, system.n + 1):
            e = system.entry(i, j)
            if zero is not None and e == zero:
                problems.append(f"entry ({i},{j}) equals the zero map")
            elif (r := rank(e).value) != 1:
                problems.append(f"entry ({i},{j}) has rank {r}, expected 1")
    return kronecker.SubbaseReport(not problems, zero, checked, tuple(problems))


def triangular(spec, n, rng):
    """A seeded triangular automorphism and its inverse: the composite of
    two elementary maps x_i -> x_i + c*x_j^d (j > i) and a translation."""
    xs = [MultiPoly.variable(spec, n, k) for k in range(n)]
    if spec.is_finite:
        units = [c for c in enumerate_elements(spec) if not c.is_zero]
    else:
        units = [QQ.element(c) for c in (-3, -2, -1, 1, 2, 3)]
    steps = []
    for _ in range(2 if n > 1 else 0):
        i = rng.randrange(n - 1)
        j = rng.randrange(i + 1, n)
        shift = (xs[j] ** rng.randint(1, 2)).scale(rng.choice(units))
        steps.append({i: shift})
    steps.append({k: MultiPoly.constant(spec, n, rng.choice(units)) for k in range(n)})

    def shift_map(step):
        return Endomorphism(
            spec, n, tuple(xs[k] + step[k] if k in step else xs[k] for k in range(n))
        )

    s = s_inv = Endomorphism.identity(spec, n)
    for step in steps:
        s = compose(s, shift_map(step))
        s_inv = compose(shift_map({k: -f for k, f in step.items()}), s_inv)
    assert compose(s, s_inv) == Endomorphism.identity(spec, n)
    return s, s_inv


def mutations(system, rng):
    """The family with two entries swapped, one set to its zero, one scaled
    (not over F2, which has no scalar but 1), one set to another constant
    map (rank 0 but not the zero), and a wrong declared zero."""
    n, spec = system.n, system.spec
    grid = [list(row) for row in system.entries]
    cells = [(i, j) for i in range(n) for j in range(n)]

    def with_grid(g, zero=system.zero):
        return KroneckerSystem(spec, n, tuple(tuple(row) for row in g), zero)

    if n > 1:
        (a, b), (c, d) = rng.sample(cells, 2)
        g = [row[:] for row in grid]
        g[a][b], g[c][d] = g[c][d], g[a][b]
        yield with_grid(g)
    zero = verify_subbase(system).zero or Endomorphism.zero(spec, n)
    a, b = rng.choice(cells)
    g = [row[:] for row in grid]
    g[a][b] = zero
    yield with_grid(g)
    if spec != GF2:
        scalar = GF4.generator() if spec == GF4 else spec.element(2)
        g = [row[:] for row in grid]
        g[a][b] = Endomorphism(spec, n, tuple(f.scale(scalar) for f in grid[a][b].images))
        yield with_grid(g)
    wrong = Endomorphism(
        spec, n, tuple(f + MultiPoly.constant(spec, n, 1) for f in zero.images)
    )
    g = [row[:] for row in grid]
    g[a][b] = wrong
    yield with_grid(g)
    yield with_grid(grid, wrong)


@pytest.mark.parametrize("spec", [QQ, GF2, GF3, GF4])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_generating_relations_agree_with_the_full_loop(spec, n, monkeypatch):
    clear_caches()  # an audit answered from the table composes nothing
    rng = random.Random(f"{spec}-{n}")
    standard = KroneckerSystem.standard(spec, n)
    s, s_inv = triangular(spec, n, rng)
    for base in (standard, conjugated(standard, s, s_inv)):
        for family in (base, KroneckerSystem(spec, n, base.entries, None)):
            products = []
            ranks = []
            with monkeypatch.context() as m:
                m.setattr(
                    kronecker, "compose",
                    lambda a, b: products.append((a, b)) or compose(a, b),
                )
                m.setattr(kronecker, "rank", lambda e: ranks.append(e) or rank(e))
                report = verify_subbase(family)
            assert report == reference_audit(family, monkeypatch)
            assert report.ok
            if n > 1:
                # the generating set, each product one of the n^4
                entries = [e for row in family.entries for e in row]
                assert len(products) == {2: 9, 3: 21}[n]  # 2n^2 + 2n - 3
                assert all(a in entries and b in entries for a, b in products)
                assert ranks == [report.zero, family.entry(1, 1)]
            for broken in mutations(family, rng):
                report = verify_subbase(broken)
                # for n = 1 any constant map is a zero of the identity entry
                assert not report.ok or (n == 1 and broken.zero != family.zero)
                assert report == reference_audit(broken, monkeypatch)


def test_generating_relations_catch_a_nonzero_cross_product(monkeypatch):
    clear_caches()
    # (1,2) = e11 + e12 and (2,2) = e21 + e22 as matrices: every generating
    # product but (1,2).(1,1) = e11 holds, and that one should be the zero
    e12 = endo(QQ, "x1", "x1")
    e22 = endo(QQ, "x2", "x2")
    system = KroneckerSystem(
        QQ, 2,
        ((kronecker_endo(QQ, 2, 1, 1), e12), (kronecker_endo(QQ, 2, 2, 1), e22)),
        Endomorphism.zero(QQ, 2),
    )
    report = verify_subbase(system)
    assert "(1,2).(1,1) disagrees with the common zero" in report.problems
    assert report == reference_audit(system, monkeypatch)


def test_generating_relations_report_the_generating_products_resource_limit(monkeypatch):
    clear_caches()
    # A limit met among the generating products propagates as it is: every
    # generating product is among the n^4, so the full loop is not rerun.
    S = KroneckerSystem.standard(QQ, 2)
    limits = {
        (S.entry(2, 1), S.entry(1, 2)): "generating",
        (S.entry(1, 2), S.entry(2, 2)): "loop",
    }

    def capped(a, b):
        if (a, b) in limits:
            raise DegreeCapExceeded(limits[a, b])
        return compose(a, b)

    monkeypatch.setattr(kronecker, "compose", capped)
    with pytest.raises(DegreeCapExceeded, match="generating"):
        verify_subbase(S)


def test_the_degree_cap_reports_one_degree_however_a_family_was_built(monkeypatch):
    clear_caches()
    # The standard n = 3 family conjugated by a cubic triangular map, built
    # by composition and read back from its file text: equal systems whose
    # polynomials order their terms differently.  The full loop passes the
    # cap at the same product, and the message states that product's degree.
    # Substitution takes terms largest monomial first, so both name the same
    # operands.
    s = endo(QQ, "x1 + 2*x2^3 - x3^2", "x2 + 3*x3^2", "x3")
    s_inv = endo(QQ, "x1 - 2*(x2 - 3*x3^2)^3 + x3^2", "x2 - 3*x3^2", "x3")
    built = KroneckerSystem.standard(QQ, 3).transformed(lambda e: compose(compose(s, e), s_inv))
    lines = ["field Q", "vars 3", "kron 3"]
    for label, e in [*((f"e {i} {j}", built.entry(i, j)) for i in (1, 2, 3) for j in (1, 2, 3)),
                     ("zero", built.zero)]:
        lines.append(label)
        lines += [f"x{k} -> {format_poly(f)}" for k, f in enumerate(e.images, 1)]
    loaded = load_kronecker_system("\n".join(lines) + "\n")
    assert loaded == built
    monkeypatch.setattr(kronecker, "_generating_zero", lambda system: None)
    for system in (built, loaded):
        with pytest.raises(DegreeCapExceeded, match=r"^product degree 108 exceeds cap 64 \(degree 6, power 18\)$"):
            verify_subbase(system)


# -- the memo tables -------------------------------------------------------------------


def test_clear_caches_empties_the_audit_and_loader_tables():
    text = "field Q\nvars 1\nkron 1\ne 1 1\nx1 -> x1\nzero\nx1 -> 0\n"
    assert verify_subbase(load_kronecker_system(text)).ok
    tables = (verify_subbase, load_kronecker_system)
    assert all(t.cache_info().currsize > 0 for t in tables)
    clear_caches()
    assert [t.cache_info().currsize for t in tables] == [0, 0]


def test_an_audit_past_a_lowered_cap_raises_on_every_call():
    # The cap is not part of the key and a limit is never stored: the audit
    # runs, and is refused, each time, and answers once the cap is back.
    s = endo(QQ, "x1 + x2^2", "x2")
    s_inv = endo(QQ, "x1 - x2^2", "x2")
    family = conjugated(KroneckerSystem.standard(QQ, 2), s, s_inv)
    clear_caches()
    set_degree_cap(3)
    try:
        for _ in range(2):
            with pytest.raises(DegreeCapExceeded, match=r"^product degree 4 exceeds cap 3 \(degree 2, power 2\)$"):
                verify_subbase(family)
    finally:
        set_degree_cap(64)
    assert verify_subbase(family).ok


# -- image generators ---------------------------------------------------------------


def test_image_generator_for_standard_diagonals():
    S = KroneckerSystem.standard(QQ, 2)
    assert str(image_generator(S.entry(1, 1))) == "x1"
    assert str(image_generator(S.entry(2, 2))) == "x2"


def _counting(monkeypatch):
    """Counts of the compositions and rank calls the kronecker module makes."""
    calls = {"compose": 0, "rank": 0}
    for name in calls:
        real = getattr(kronecker, name)

        def counted(*args, _name=name, _real=real, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(kronecker, name, counted)
    return calls


def test_base_check_reuses_the_audit_for_the_diagonal_generators(monkeypatch):
    clear_caches()
    # The audit's 2n^2+2n-3 = 21 products and its two ranks (the zero's and
    # the (1,1) entry's) prove every diagonal entry idempotent of rank 1.
    calls = _counting(monkeypatch)
    check = verify_base_external(KroneckerSystem.standard(QQ, 3))
    assert check.is_base
    assert [str(g) for g in check.generators] == ["x1", "x2", "x3"]
    assert calls == {"compose": 21, "rank": 2}


def test_image_generator_makes_no_compose_or_rank_call(monkeypatch):
    # Its two memberships prove K[z] = K[images] for any map, so it checks
    # neither idempotence nor rank.
    clear_caches()
    calls = _counting(monkeypatch)
    assert str(image_generator(KroneckerSystem.standard(QQ, 2).entry(1, 1))) == "x1"
    assert image_generator(endo(QQ, "x1", "x2")) is None  # rank 2
    assert str(image_generator(endo(QQ, "x1 + x2", "0"))) == "x1 + x2"
    assert calls == {"compose": 0, "rank": 0}


def test_image_generator_for_nonlinear_idempotent():
    phi = endo(QQ, "x1 + x1*x2", "0")
    assert str(image_generator(phi)) == "x1*x2 + x1"


def test_image_generator_answers_any_map():
    # Not idempotent, rank 1: K[x1^2, 0] = K[x1^2].
    assert str(image_generator(endo(QQ, "x1^2", "0"))) == "x1^2"
    # Rank 2: no single polynomial generates K[x1, x2].
    assert image_generator(Endomorphism.identity(QQ, 2)) is None
    # The candidate x1 (a degree-1 part) contains both images, but lies
    # outside their algebra, so it is no generator of it.
    phi = endo(QQ, "x1^2", "x1^3 + x1")
    assert subalgebra_member(P("x1"), phi.images) is None
    assert image_generator(phi) is None


def test_image_generator_can_miss_a_hidden_generator():
    # a retraction onto K[x1 + x2^2] whose defining images hide the
    # generator from every scheduled candidate
    z = P("x1 + x2^2")
    phi = Endomorphism(QQ, 2, (z - z**4, z**2))
    assert compose(phi, phi) == phi
    assert rank(phi).value == 1
    assert image_generator(phi) is None
    assert subalgebra_member(z, phi.images) is not None
    assert all(subalgebra_member(img, (z,)) is not None for img in phi.images)


# -- external base checks --------------------------------------------------------------


@pytest.mark.parametrize("spec", [QQ, GF2, GF3, GF4])
@pytest.mark.parametrize("n", [2, 3])
def test_standard_families_are_bases(spec, n):
    check = verify_base_external(KroneckerSystem.standard(spec, n))
    assert check.is_base
    assert check.missing == ()
    assert [str(g) for g in check.generators] == [f"x{k}" for k in range(1, n + 1)]
    cert = check.certificate
    assert cert is not None
    for k, witness in enumerate(cert.witnesses):
        assert witness.substitute(cert.generators) == MultiPoly.variable(spec, n, k)


def test_two_generator_family_fails_the_base_check():
    check = verify_base_external(two_generator_system())
    assert not check.is_base
    assert check.missing == (1,)
    assert [str(g) for g in check.generators] == ["x1*x2 + x1", "x2"]
    assert check.certificate is None


def test_base_check_with_explicit_generators():
    S = KroneckerSystem.standard(QQ, 2)
    check = verify_base_external(S, Z=(P("2*x1"), P("3*x2")))
    assert check.is_base
    assert [str(w) for w in check.certificate.witnesses] == ["1/2*x1", "1/3*x2"]


def test_base_check_requires_a_subbase():
    zero = Endomorphism.zero(QQ, 2)
    sink = KroneckerSystem(QQ, 2, ((zero, zero), (zero, zero)), zero)
    with pytest.raises(RelationViolation):
        verify_base_external(sink)


# -- normalization -----------------------------------------------------------------------


def test_normalize_rescales_generators():
    S = KroneckerSystem.standard(QQ, 2)
    check = verify_base_external(S, Z=(P("2*x1"), P("3*x2")))
    result = normalize_base(check.certificate)
    assert [str(g) for g in result.certificate.generators] == ["x1", "x2"]
    assert result.certificate.normalized
    assert result.gammas == (QQ.element(0), QQ.element(0))
    assert result.scales == (
        (QQ.element(1), QQ.element("3/2")),
        (QQ.element("2/3"), QQ.element(1)),
    )
    assert result.alphas == (QQ.element(1), QQ.element("2/3"))
    assert result.global_scale == QQ.element("1/2")


def test_normalize_over_gf4():
    S = KroneckerSystem.standard(GF4, 2)
    t = GF4.generator()
    check = verify_base_external(S, Z=(P("t*x1", GF4), P("x2", GF4)))
    result = normalize_base(check.certificate)
    assert [str(g) for g in result.certificate.generators] == ["x1", "x2"]
    assert result.alphas == (GF4.element(1), t)
    assert result.global_scale == t.inverse()


def test_normalize_recenters_translated_family():
    s = endo(QQ, "x1 + 1", "x2 + 2")
    s_inv = endo(QQ, "x1 - 1", "x2 - 2")
    moved = conjugated(KroneckerSystem.standard(QQ, 2), s, s_inv)
    check = verify_base_external(moved)
    assert [str(g) for g in check.generators] == ["x1", "x2"]
    result = normalize_base(check.certificate)
    # the exact unit action for the moved family holds for the recentered
    # generators, not the raw coordinates
    assert [str(g) for g in result.certificate.generators] == ["x1 + 1", "x2 + 2"]
    assert result.gammas == (QQ.element(-1), QQ.element(-2))
    z1, z2 = result.certificate.generators
    assert moved.entry(1, 2).apply(z2) == z1
    assert moved.entry(2, 1).apply(z2).is_zero


def test_normalize_conjugated_by_nonlinear_automorphism():
    s = endo(QQ, "x1 + x2^2", "x2")
    s_inv = endo(QQ, "x1 - x2^2", "x2")
    twisted = conjugated(KroneckerSystem.standard(QQ, 2), s, s_inv)
    assert verify_subbase(twisted).ok
    check = verify_base_external(twisted)
    assert check.is_base
    result = normalize_base(check.certificate)
    z = result.certificate.generators
    assert [str(g) for g in z] == ["x2^2 + x1", "x2"]
    for i in (1, 2):
        for j in (1, 2):
            for k in (1, 2):
                got = twisted.entry(i, j).apply(z[k - 1])
                if j == k:
                    assert got == z[i - 1]
                else:
                    assert got.is_zero


def test_normalize_rejects_nonaffine_generator_action():
    S = KroneckerSystem.standard(QQ, 2)
    check = verify_base_external(S, Z=(P("x1"), P("x2 + x1^2")))
    assert check.is_base  # a base, but not compatibly aligned with the units
    with pytest.raises(NonAffineImage):
        normalize_base(check.certificate)


def test_normalize_rejects_swapped_generators():
    S = KroneckerSystem.standard(QQ, 2)
    check = verify_base_external(S, Z=(P("x2"), P("x1")))
    with pytest.raises(ZeroScale):
        normalize_base(check.certificate)


def test_base_check_and_normalization_audit_the_relations_once(monkeypatch):
    clear_caches()
    audits = []
    real = kronecker._relation_violations

    def counted(system):
        audits.append(system)
        return real(system)

    monkeypatch.setattr(kronecker, "_relation_violations", counted)
    S = KroneckerSystem.standard(QQ, 2)
    cert = verify_base_external(S).certificate
    assert cert.zero == S.zero
    result = normalize_base(cert)
    assert [str(g) for g in result.certificate.generators] == ["x1", "x2"]
    assert audits == [S]


def test_normalize_input_validation():
    S = KroneckerSystem.standard(QQ, 2)
    check = verify_base_external(S, Z=(P("2*x1"), P("3*x2")))
    result = normalize_base(check.certificate)
    with pytest.raises(RelationViolation):
        normalize_base(result.certificate)  # already normalized


def reference_normalization(cert):
    """normalize_base's data derived by subalgebra membership instead: each
    affine action as a witness in z_i, and each final witness afresh.
    Returns (gammas, scales, alphas, global scale, generators, witnesses)."""
    system, zs = cert.system, cert.generators
    spec, n = system.spec, system.n
    omega = cert.zero.constant_part() if cert.zero is not None else (spec.zero(),) * n
    gammas = tuple(z.evaluate(omega) for z in zs)
    scales = []
    for i in range(n):
        row = []
        for j in range(n):
            w = subalgebra_member(system.entry(i + 1, j + 1).apply(zs[j]), (zs[i],))
            assert w is not None and w.total_degree() == 1
            a = w.coefficient((1,))
            assert w.coefficient((0,)) == gammas[j] - a * gammas[i]
            row.append(a)
        scales.append(tuple(row))
    alphas = tuple(row[0] for row in scales)
    primed = [
        (z - MultiPoly.constant(spec, n, g)).scale(a)
        for z, g, a in zip(zs, gammas, alphas)
    ]
    lam = primed[0].leading_coefficient(GREVLEX).inverse()
    final = tuple(z.scale(lam) for z in primed)
    witnesses = tuple(
        subalgebra_member(MultiPoly.variable(spec, n, k), final) for k in range(n)
    )
    return gammas, tuple(scales), alphas, lam, final, witnesses


# name: (field, images of s, Frobenius power of delta, generators as
# polynomials in the family's own generators, or None for those).
NORMALIZATION_CASES = {
    "q-nonlinear": (QQ, ("2*x1 + x2^2 + 1", "x2 - 3", "x1 + x3"), 0, None),
    "f3-nonlinear": (GF3, ("x1 + x2^2", "x2 + 1"), 0, None),
    "f9-nonlinear": (GF9, ("x1 + t*x2^2", "x2 + t"), 0, None),
    "f4-frobenius": (GF4, ("x1 + t*x2^2", "x2", "t*x3 + 1"), 1, None),
    "q-translated": (QQ, ("x1 + 1", "x2 + 2"), 0, None),
    "f3-translated": (GF3, ("x1 + 2", "x2", "x3 + 1"), 0, None),
    "q-scaled": (QQ, ("x1", "x2"), 0, ("2*x1", "3*x2")),
    "f4-scaled": (GF4, ("x1", "x2"), 0, ("t*x1", "x2")),
    "q-nonlinear-scaled": (QQ, ("x1 + x2^2", "x2"), 0, ("3*x1 + 1", "2 - x2")),
    "f9-frobenius-scaled": (GF9, ("x1 + x2^2", "t*x2"), 1, ("t*x1 + 2", "x2 + t")),
}


@pytest.mark.parametrize("case", sorted(NORMALIZATION_CASES))
def test_normalize_base_matches_the_membership_reference(case, monkeypatch):
    spec, images, frob, exprs = NORMALIZATION_CASES[case]
    n = len(images)
    aut = SemiLinearAut.create(
        FieldAutomorphism.frobenius(spec, frob),
        tuple(parse_polynomial(s, spec, n) for s in images),
    )
    family = KroneckerSystem.standard(spec, n).transformed(lambda e: conjugate(aut, e))
    gens = verify_base_external(family).generators
    if exprs is not None:
        gens = tuple(parse_polynomial(e, spec, n).substitute(gens) for e in exprs)
    cert = verify_base_external(family, Z=gens).certificate

    calls = []
    for module, name in ((kronecker, "subalgebra_member"), (groebner, "_subalgebra_member_cached")):
        real = getattr(module, name)
        monkeypatch.setattr(
            module, name, lambda *args, _real=real: calls.append(args) or _real(*args)
        )
    result = normalize_base(cert)
    monkeypatch.undo()
    assert calls == []

    gammas, scales, alphas, lam, final, witnesses = reference_normalization(cert)
    assert result.gammas == gammas
    assert result.scales == scales
    assert result.alphas == alphas
    assert result.global_scale == lam
    assert result.certificate.generators == final
    assert [format_poly(w) for w in result.certificate.witnesses] == [
        format_poly(w) for w in witnesses
    ]


def _refusals():
    S = KroneckerSystem.standard(QQ, 2)
    x1, x2 = P("x1"), P("x2")
    # With base generators, an audited family acts on each z_i through one
    # standard generator, so every action in K[z_i] is affine.  This system
    # squares z1 under (1,1) by hand; normalize_base does not repeat the
    # audit.
    squaring = KroneckerSystem(
        QQ, 2, ((endo(QQ, "x1^2", "0"), S.entry(1, 2)), S.entries[1]), S.zero
    )
    moved_zero = Endomorphism.constant(QQ, 2, (QQ.element(1), QQ.element(0)))
    return {
        "degree 2 in z1": (
            BaseCertificate(squaring, (x1, x2), (x1, x2), S.zero),
            NonAffineImage,
            r"^entry \(1,1\) does not map z1 to an affine function of z1$",
        ),
        "outside K[z2]": (
            verify_base_external(S, Z=(x1, P("x2 + x1^2"))).certificate,
            NonAffineImage,
            r"^entry \(2,1\) does not map z1 to an affine function of z2$",
        ),
        "swapped generators": (
            verify_base_external(S, Z=(x2, x1)).certificate,
            ZeroScale,
            r"^entry \(1,1\) collapses z1 to a constant$",
        ),
        "offset against the zero": (
            BaseCertificate(S, (x1, x2), (x1, x2), moved_zero),
            RelationViolation,
            r"^affine offset of entry \(1,2\) is inconsistent with the zero point$",
        ),
        # the witnesses are carried, not searched, so a wrong one is caught
        # by its substitution check
        "swapped witnesses": (
            BaseCertificate(S, (x1, x2), (x2, x1), S.zero),
            RuntimeError,
            r"^normalized generators lost the base property$",
        ),
    }


@pytest.mark.parametrize("case", sorted(_refusals()))
def test_normalize_refusals(case):
    cert, error, message = _refusals()[case]
    with pytest.raises(error, match=message) as info:
        normalize_base(cert)
    assert type(info.value) is error
