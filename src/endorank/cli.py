"""Command-line front end.

Exit codes: 0 when an answer was computed (negative answers included),
1 on input/usage errors, 2 when a resource limit (the reduction budget, the
degree cap or the coefficient bound on powers) or a substitution search ran
out before an answer existed.

JSON output is deterministic byte-for-byte for a fixed input and seed:
payloads carry "schema": 1 and, for a seeded command, the seed; keys are
sorted, indentation is fixed, and every report embeds enough certificate
data to be replayed (chain certificates can be re-verified with
`chain --verify`, which refuses, exit 1, a step that does not build the
substitution it records; a compare verdict carries its separators).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional

from .autgroup import SemiLinearAut, conjugate, verify_automorphism_properties
from .chains import (
    Chain,
    ChainPolicy,
    ChainStep,
    SubstitutionRecord,
    build_full_chain,
    verify_chain,
)
from .endo import Endomorphism, compare, compose, rank
from .errors import (
    EndoRankError,
    FieldConstructionError,
    MalformedCertificate,
    PolySyntaxError,
    ResourceLimit,
    SearchExhausted,
    SpecMismatch,
    quote,
)
from .fields import GF4, QQ, FieldAutomorphism, FieldSpec, builtin_extension
from .groebner import get_budget, invert_poly_map, set_budget
from .kronecker import (
    KroneckerSystem,
    classify_representation,
    normalize_base,
    verify_base_external,
    verify_subbase,
)
from .mpoly import MultiPoly
from .parsing import (
    load_automorphism,
    load_endomorphism,
    load_kronecker_system,
    parse_field_header,
    parse_polynomial,
)

_METHODS = {"elim": "elimination", "jacobian": "jacobian-probe"}


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors by default; here 2 is reserved for
    exhausted budgets, so usage errors are remapped to 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


# Every subcommand as (name, help, arguments, seeded, handler), in the order
# the parser lists them; each argument is a (flags, options) pair.
_COMMANDS = []


def _command(name: str, help: str, *arguments, seed: bool = False):
    """Declare a subcommand with its own arguments; the shared --format,
    --seed (when seeded) and --budget follow them."""

    def register(handler):
        _COMMANDS.append((name, help, arguments, seed, handler))
        return handler

    return register


def _arg(*flags, **options):
    return flags, options


def _at_least(low: int):
    """An int argument type refusing values below low: argparse reports the
    refusal as a usage error (exit 1) that names the flag."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    parse.__name__ = "int"  # argparse words a ValueError as "invalid int value"
    return parse


_ENDO_FILE = _arg("file", help="endomorphism file")
_KRON_FILE = _arg("file", help="Kronecker-system file")


def _json(v):
    """A payload value: tuples become lists, a map its images, a field its
    header, and anything that is not already a JSON scalar its text."""
    if v is None or isinstance(v, (int, str)):  # bools are ints
        return v
    if isinstance(v, (tuple, list)):
        return [_json(x) for x in v]
    if isinstance(v, Endomorphism):
        return _json(v.images)
    if isinstance(v, FieldSpec):
        return v.header()
    return str(v)


def _fields(obj, *names: str) -> dict:
    """The named fields of a result, as payload values under their own names."""
    return {name: _json(getattr(obj, name)) for name in names}


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _endo_lines(e: Endomorphism) -> list[str]:
    return [f"x{k + 1} -> {img}" for k, img in enumerate(e.images)]


# -- rank / compare ---------------------------------------------------------------


@_command(
    "rank",
    "endomorphism rank with certificate",
    _ENDO_FILE,
    _arg(
        "--method",
        choices=tuple(_METHODS),
        default="elim",
        help="elim = elimination ideal (exact); jacobian = probe "
        "(char 0 only, lower bound)",
    ),
    seed=True,
)
def _cmd_rank(args) -> tuple[dict, list[str]]:
    endo = load_endomorphism(_read(args.file))
    cert = rank(endo, method=_METHODS[args.method], seed=args.seed)
    payload = {
        "seed": args.seed,
        "field": endo.spec.header(),
        "vars": endo.nvars,
        "rank": cert.value,
        **_fields(
            cert, "method", "is_lower_bound", "relation_generators", "probe_point"
        ),
    }
    lines = [f"rank: {cert.value}", f"method: {cert.method}"]
    if cert.is_lower_bound:
        lines.append("note: probe ranks are lower bounds")
    if cert.relation_generators:
        lines.append("relation ideal generators:")
        lines.extend(f"  {g}" for g in cert.relation_generators)
    return payload, lines


@_command(
    "compare",
    "order relation between two maps",
    _arg("file", help="first endomorphism file"),
    _arg("other", help="second endomorphism file"),
)
def _cmd_compare(args) -> tuple[dict, list[str]]:
    phi = load_endomorphism(_read(args.file))
    psi = load_endomorphism(_read(args.other))
    result = compare(phi, psi)
    payload = {
        "verdict": result.verdict.value,
        **_fields(result, "first_only", "second_only"),
    }
    lines = [f"verdict: {result.verdict.value}"]
    for which, sep in (("first", result.first_only), ("second", result.second_only)):
        if sep is not None:
            lines.append(f"relation of the {which} map only: {sep}")
    return payload, lines


# -- chains ------------------------------------------------------------------------


def _chain_payload(chain: Chain, seed: int) -> dict:
    steps = []
    for st in chain.steps:
        rec = st.record
        steps.append(
            {
                **_fields(
                    rec, "kind", "variable", "source", "exponent", "value", "point"
                ),
                **_fields(st, "rank_before", "rank_after", "after"),
                "lift_to": _json(rec.lifted_to),
                "field": st.after.spec.header(),
                "describe": rec.describe(),
            }
        )
    return {
        "seed": seed,
        "field": chain.start.spec.header(),
        "vars": chain.start.nvars,
        **_fields(chain, "start", "length", "complete"),
        "steps": steps,
    }


def _get(obj: dict, key: str, where: str):
    if key not in obj:
        raise MalformedCertificate(f"{where}: missing field {key!r}")
    return obj[key]


def _string(obj: dict, key: str, where: str) -> str:
    v = _get(obj, key, where)
    if type(v) is not str:
        raise MalformedCertificate(f"{where}: {key} is not a string")
    return v


def _strings(obj: dict, key: str, where: str) -> list:
    v = _get(obj, key, where)
    if type(v) is not list or any(type(s) is not str for s in v):
        raise MalformedCertificate(f"{where}: {key} is not a list of strings")
    return v


def _field(obj: dict, key: str, where: str) -> FieldSpec:
    """The field whose header, without its `field` keyword, is the string
    obj[key]; the parser's error is prefixed with the record and the key."""
    try:
        return parse_field_header("field " + _string(obj, key, where))
    except (PolySyntaxError, FieldConstructionError) as exc:
        raise MalformedCertificate(f"{where}: {key}: {exc}") from None


def _endo(obj: dict, key: str, where: str, spec: FieldSpec, n: int) -> Endomorphism:
    """The map whose images are the strings obj[key]; their number is checked
    before any is parsed, so a huge declared n allocates nothing."""
    texts = _strings(obj, key, where)
    if len(texts) != n:
        raise MalformedCertificate(f"{where}: {len(texts)} {key} images for {n} vars")
    return Endomorphism(
        spec, n, tuple(_poly(s, f"{key}[{i}]", where, spec, n) for i, s in enumerate(texts))
    )


def _poly(text: str, label: str, where: str, spec: FieldSpec, n: int) -> MultiPoly:
    """A certificate's polynomial text; the parser's error is prefixed with
    the record and the key, e.g. `step 1: after[0]: ...`."""
    try:
        return parse_polynomial(text, spec, n)
    except PolySyntaxError as exc:
        raise MalformedCertificate(f"{where}: {label}: {exc}") from None


def _constant(text: str, key: str, where: str, spec: FieldSpec, n: int, label=None):
    """The field element a certificate writes as polynomial text (under key,
    or under label, the key with its index in a list); text that parses to
    a non-constant polynomial is refused, not read as its constant term."""
    f = _poly(text, label or key, where, spec, n)
    if not f.is_constant():
        raise MalformedCertificate(f"{where}: {key} {quote(text)} is not a constant")
    return f.constant_term()


def _rank(obj: dict, key: str, where: str) -> int:
    v = _get(obj, key, where)
    if type(v) is not int or v < 0:
        raise MalformedCertificate(f"{where}: {key} {quote(v)} is not a non-negative integer")
    return v


def _certificate_int(text: str) -> int:
    """A JSON integer of a certificate.  json.loads would report one longer
    than int() reads as a bare ValueError."""
    try:
        return int(text)
    except ValueError:
        raise MalformedCertificate(
            f"certificate: integer with {len(text.lstrip('-'))} digits is too long"
        ) from None


def _rebuild_chain(payload) -> Chain:
    """Read a chain certificate, which is untrusted input: anything that is
    not a well-formed record raises MalformedCertificate, and a step must
    build its substitution and match its derived field and describe keys."""
    if type(payload) is not dict:
        raise MalformedCertificate("certificate is not a JSON object")
    where = "certificate"
    spec = _field(payload, "field", where)
    n = _get(payload, "vars", where)
    if type(n) is not int or n < 1:
        raise MalformedCertificate(f"{where}: vars {quote(n)} is not a positive integer")
    start = _endo(payload, "start", where, spec, n)
    step_list = _get(payload, "steps", where)
    if type(step_list) is not list:
        raise MalformedCertificate(f"{where}: steps is not a list")
    cur = spec
    steps = []
    for idx, sj in enumerate(step_list, start=1):
        where = f"step {idx}"
        if type(sj) is not dict:
            raise MalformedCertificate(f"{where}: not a JSON object")
        lift = None
        if _get(sj, "lift_to", where) is not None:
            lift = _field(sj, "lift_to", where)
            if lift != builtin_extension(cur):
                raise MalformedCertificate(
                    f"{where}: lift_to {lift.header()} is not the stock extension "
                    f"of {cur.header()}"
                )
        step_spec = lift if lift is not None else cur
        value = None
        if sj.get("value") is not None:
            value = _constant(_string(sj, "value", where), "value", where, step_spec, n)
        point = None
        if sj.get("point") is not None:
            point = tuple(
                _constant(s, "point", where, step_spec, n, f"point[{i}]")
                for i, s in enumerate(_strings(sj, "point", where))
            )
        rec = SubstitutionRecord(
            kind=_get(sj, "kind", where),
            variable=_get(sj, "variable", where),
            source=_get(sj, "source", where),
            exponent=_get(sj, "exponent", where),
            value=value,
            point=point,
            lifted_to=lift,
        )
        try:
            rec.sigma(step_spec, n)
        except (ValueError, SpecMismatch) as exc:
            raise MalformedCertificate(f"{where}: {exc}") from None
        for key, derived in (("field", step_spec.header()), ("describe", rec.describe())):
            if _get(sj, key, where) != derived:
                raise MalformedCertificate(f"{where}: {key} is not {derived!r}")
        after = _endo(sj, "after", where, step_spec, n)
        ranks = (_rank(sj, "rank_before", where), _rank(sj, "rank_after", where))
        steps.append(ChainStep(rec, *ranks, after))
        cur = step_spec
    return Chain(start, tuple(steps))


@_command(
    "chain",
    "rank-reducing substitution chain down to rank 0",
    _arg("file", help="endomorphism file (or chain JSON with --verify)"),
    _arg(
        "--r-max", type=_at_least(1), default=8, help="largest power substitution tried"
    ),
    _arg(
        "--verify",
        action="store_true",
        help="treat FILE as a chain JSON report and replay it",
    ),
    seed=True,
)
def _cmd_chain(args) -> tuple[dict, list[str]]:
    if args.verify:
        try:
            data = json.loads(_read(args.file), parse_int=_certificate_int)
        except RecursionError:
            raise MalformedCertificate(
                "certificate: JSON nested deeper than the decoder reads"
            ) from None
        chain = _rebuild_chain(data)
        result = verify_chain(chain)
        payload = {
            "command": "chain-verify",
            **_fields(result, "ok", "ranks", "problems"),
        }
        lines = [f"chain verification: {'ok' if result.ok else 'FAILED'}"]
        lines.append("ranks: " + " -> ".join(str(r) for r in result.ranks))
        lines.extend(f"problem: {p}" for p in result.problems)
        return payload, lines

    endo = load_endomorphism(_read(args.file))
    policy = ChainPolicy(r_max=args.r_max, seed=args.seed)
    chain = build_full_chain(endo, policy)
    payload = _chain_payload(chain, args.seed)
    lines = ["start:"] + [f"  {ln}" for ln in _endo_lines(chain.start)]
    for idx, st in enumerate(chain.steps, start=1):
        lines.append(
            f"step {idx}: {st.record.describe()} "
            f"[rank {st.rank_before} -> {st.rank_after}]"
        )
    lines.append(f"chain length: {chain.length}")
    return payload, lines


# -- Kronecker systems -----------------------------------------------------------


@_command("kron-verify", "matrix-unit relation audit", _KRON_FILE)
def _cmd_kron_verify(args) -> tuple[dict, list[str]]:
    system = load_kronecker_system(_read(args.file))
    report = verify_subbase(system)
    payload = _fields(report, "ok", "relations_checked", "zero", "problems")
    lines = [
        f"subbase: {'ok' if report.ok else 'FAILED'}",
        f"relations checked: {report.relations_checked}",
    ]
    if report.zero is not None:
        lines.append(f"common zero: {report.zero}")
    lines.extend(f"problem: {p}" for p in report.problems)
    return payload, lines


@_command("kron-classify", "singular / nonsingular classification", _KRON_FILE)
def _cmd_kron_classify(args) -> tuple[dict, list[str]]:
    system = load_kronecker_system(_read(args.file))
    kind = classify_representation(system)
    payload = {"classification": kind.value}
    return payload, [f"classification: {kind.value}"]


@_command("kron-base", "decide the base property", _KRON_FILE)
def _cmd_kron_base(args) -> tuple[dict, list[str]]:
    system = load_kronecker_system(_read(args.file))
    check = verify_base_external(system)
    failing = f"x{check.missing[0]}" if check.missing else None
    cert = check.certificate
    payload = {
        **_fields(check, "is_base", "missing", "generators"),
        "failing_generator_membership": failing,
        "witnesses": _json(cert.witnesses if cert is not None else None),
    }
    lines = [f"base: {'yes' if check.is_base else 'no'}"]
    lines.append(
        "generators: " + "; ".join(str(z) for z in check.generators)
    )
    if failing is not None:
        lines.append(f"not in the generated subalgebra: {failing}")
    return payload, lines


@_command("kron-normalize", "rescale/recenter a base to literal form", _KRON_FILE)
def _cmd_kron_normalize(args) -> tuple[dict, list[str]]:
    system = load_kronecker_system(_read(args.file))
    check = verify_base_external(system)
    if check.certificate is None:
        missing = ", ".join(f"x{k}" for k in check.missing)
        raise EndoRankError(
            f"not a base (membership fails for {missing}); "
            "nothing to normalize"
        )
    result = normalize_base(check.certificate)
    cert = result.certificate
    payload = {
        **_fields(cert, "normalized", "generators", "witnesses"),
        **_fields(result, "gammas", "alphas", "scales", "global_scale"),
    }
    lines = ["normalized generators:"]
    lines.extend(
        f"  z{k + 1} = {z}" for k, z in enumerate(cert.generators)
    )
    lines.append(f"global scale: {result.global_scale}")
    return payload, lines


# -- automorphisms ------------------------------------------------------------------


@_command(
    "conj",
    "conjugate a map by an automorphism",
    _arg("aut", help="automorphism file"),
    _ENDO_FILE,
    _arg(
        "--properties",
        action="store_true",
        help="also spot-check automorphism invariants",
    ),
    _arg("--trials", type=_at_least(0), default=6, help="samples for --properties"),
    seed=True,
)
def _cmd_conj(args) -> tuple[dict, list[str]]:
    aut = load_automorphism(_read(args.aut))
    endo = load_endomorphism(_read(args.file))
    conj = conjugate(aut, endo)
    payload = {
        "seed": args.seed,
        "delta": _json(aut.delta),
        "inner": aut.is_inner,
        "substitution": _json(aut.s),
        "input": _json(endo),
        "conjugated": _json(conj),
        "properties": None,
    }
    lines = [f"delta: {aut.delta}", "conjugated:"]
    lines.extend(f"  {ln}" for ln in _endo_lines(conj))
    if args.properties:
        report = verify_automorphism_properties(
            aut, trials=args.trials, seed=args.seed
        )
        payload["properties"] = _fields(
            report, "ok", "inner", "rank_pairs", "kronecker_base_check", "problems"
        )
        lines.append(
            f"properties: {'ok' if report.ok else 'FAILED'} "
            f"(kronecker base check: {report.kronecker_base_check})"
        )
        lines.extend(f"problem: {p}" for p in report.problems)
    return payload, lines


@_command("invert", "invert a polynomial self-map", _ENDO_FILE)
def _cmd_invert(args) -> tuple[dict, list[str]]:
    endo = load_endomorphism(_read(args.file))
    inv = invert_poly_map(endo.images)
    payload = {
        "invertible": inv is not None,
        "inverse": _json(inv),
    }
    if inv is None:
        return payload, ["invertible: no"]
    lines = ["invertible: yes"]
    lines.extend(f"  x{k + 1} -> {f}" for k, f in enumerate(inv))
    return payload, lines


# -- selftest -----------------------------------------------------------------------

_GF2_COUNTEREXAMPLE = """\
field F 2
vars 2
x1 -> (x1^2 + x1) * (x2^2 + x2) * x1
x2 -> (x1^2 + x1) * (x2^2 + x2) * x2
"""

_KRON_TWO_GENERATOR = """\
# 2x2 family over Q built from u = x1 + x1*x2; a subbase but not a base.
field Q
vars 2
kron 2
e 1 1
x1 -> x1 + x1*x2
x2 -> 0
e 1 2
x1 -> 0
x2 -> x1 + x1*x2
e 2 1
x1 -> x2
x2 -> 0
e 2 2
x1 -> 0
x2 -> x2
zero
x1 -> 0
x2 -> 0
"""


def _selftest_checks():
    def gf2_rank() -> Optional[str]:
        endo = load_endomorphism(_GF2_COUNTEREXAMPLE)
        r = rank(endo).value
        return None if r == 2 else f"expected rank 2, got {r}"

    def gf2_specializations() -> Optional[str]:
        endo = load_endomorphism(_GF2_COUNTEREXAMPLE)
        spec = endo.spec
        for var in (1, 2):
            for raw in (0, 1):
                rec = SubstitutionRecord(
                    kind="specialize", variable=var, value=spec.element(raw)
                )
                after = compose(rec.sigma(spec, 2), endo)
                if any(not img.is_zero for img in after.images):
                    return f"x{var} := {raw} did not collapse to the zero map"
        return None

    def gf2_chain() -> Optional[str]:
        endo = load_endomorphism(_GF2_COUNTEREXAMPLE)
        chain = build_full_chain(endo, ChainPolicy(seed=1))
        if chain.length != 2:
            return f"expected a length-2 chain, got {chain.length}"
        first = chain.steps[0].record
        if first.kind != "power" or first.exponent > 4:
            return f"expected a small power step first, got {first.describe()}"
        result = verify_chain(chain)
        if not result.ok:
            return "; ".join(result.problems)
        return None

    def kron_subbase() -> Optional[str]:
        system = load_kronecker_system(_KRON_TWO_GENERATOR)
        report = verify_subbase(system)
        if not report.ok:
            return "; ".join(report.problems)
        return None

    def kron_not_base() -> Optional[str]:
        system = load_kronecker_system(_KRON_TWO_GENERATOR)
        check = verify_base_external(system)
        if check.is_base:
            return "two-generator family wrongly accepted as a base"
        if check.missing != (1,):
            return f"expected x1 to fail membership, got {check.missing}"
        return None

    def normalize_scaled() -> Optional[str]:
        system = KroneckerSystem.standard(QQ, 2)
        z = (
            MultiPoly.variable(QQ, 2, 0).scale(2),
            MultiPoly.variable(QQ, 2, 1).scale(3),
        )
        check = verify_base_external(system, Z=z)
        if not check.is_base or check.certificate is None:
            return "scaled generators rejected"
        result = normalize_base(check.certificate)
        want = (
            MultiPoly.variable(QQ, 2, 0),
            MultiPoly.variable(QQ, 2, 1),
        )
        if result.certificate.generators != want:
            return "normalization did not reduce scaled generators to x1, x2"
        return None

    def conj_frozen() -> Optional[str]:
        s = (
            parse_polynomial("x1 + x2^2", QQ, 2),
            parse_polynomial("x2", QQ, 2),
        )
        aut = SemiLinearAut.create(FieldAutomorphism.identity(QQ), s)
        g = Endomorphism(
            QQ,
            2,
            (
                MultiPoly.variable(QQ, 2, 1),
                MultiPoly.variable(QQ, 2, 0),
            ),
        )
        got = conjugate(aut, g)
        want = (
            parse_polynomial("x2 - (x1 + x2^2)^2", QQ, 2),
            parse_polynomial("x1 + x2^2", QQ, 2),
        )
        if got.images != want:
            return f"conjugate mismatch: {got}"
        return None

    def conj_frobenius() -> Optional[str]:
        xs = tuple(MultiPoly.variable(GF4, 2, k) for k in range(2))
        aut = SemiLinearAut.create(FieldAutomorphism(GF4, 1), xs)
        g = Endomorphism(GF4, 2, (xs[0].scale(GF4.generator()), xs[1]))
        got = conjugate(aut, g)
        want_coeff = GF4.element((1, 1))  # t + 1 = t^2
        want = Endomorphism(GF4, 2, (xs[0].scale(want_coeff), xs[1]))
        if got != want:
            return f"Frobenius twist mismatch: {got}"
        return None

    def json_determinism() -> Optional[str]:
        endo = load_endomorphism(_GF2_COUNTEREXAMPLE)
        blobs = []
        for _ in range(2):
            chain = build_full_chain(endo, ChainPolicy(seed=1))
            blobs.append(
                json.dumps(_chain_payload(chain, 1), indent=2, sort_keys=True)
            )
        return None if blobs[0] == blobs[1] else "chain payloads differ"

    return [
        ("gf2-counterexample-rank", gf2_rank),
        ("gf2-specializations-collapse", gf2_specializations),
        ("gf2-counterexample-chain", gf2_chain),
        ("kron-two-generator-subbase", kron_subbase),
        ("kron-two-generator-not-base", kron_not_base),
        ("kron-normalize-scaled", normalize_scaled),
        ("conj-regression", conj_frozen),
        ("conj-frobenius-gf4", conj_frobenius),
        ("json-determinism", json_determinism),
    ]


@_command("selftest", "run the built-in regression fixtures")
def _cmd_selftest(args) -> tuple[dict, list[str]]:
    results = []
    lines = ["selftest", "--------"]
    for name, fn in _selftest_checks():
        try:
            detail = fn()
        except ResourceLimit as exc:  # no verdict on the check: exit 2
            raise type(exc)(f"{exc} (selftest check {name})") from exc
        except Exception as exc:  # noqa: BLE001 - recorded, not hidden
            detail = f"{type(exc).__name__}: {exc}"
        ok = detail is None
        results.append({"name": name, "ok": ok, "detail": detail})
        lines.append(f"{'PASS' if ok else 'FAIL'}  {name}")
        if detail is not None:
            lines.append(f"      {detail}")
    passed = sum(1 for r in results if r["ok"])
    lines.append(f"{passed} passed, {len(results) - passed} failed")
    payload = {
        "ok": passed == len(results),
        "results": results,
    }
    return payload, lines


# -- wiring -------------------------------------------------------------------------


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="endorank",
        description=(
            "Exact rank, order, chain, and matrix-unit computations for "
            "polynomial-algebra endomorphisms."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    for name, help, arguments, seeded, handler in _COMMANDS:
        p = sub.add_parser(name, help=help)
        for flags, options in arguments:
            p.add_argument(*flags, **options)
        p.add_argument(
            "--format",
            choices=("text", "json"),
            default="text",
            help="output format (default: text)",
        )
        if seeded:
            p.add_argument("--seed", type=int, default=0, help="RNG seed")
        p.add_argument(
            "--budget",
            type=int,
            default=None,
            help="max polynomial reduction steps (overrides ENDORANK_BUDGET)",
        )
        p.set_defaults(handler=handler)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    budget = get_budget()
    try:
        try:
            for value in (os.environ.get("ENDORANK_BUDGET"), args.budget):
                if value is not None:  # the flag comes last and wins
                    set_budget(int(value))
        except ValueError as exc:
            print(f"endorank: error: bad budget: {exc}", file=sys.stderr)
            return 1
        payload, lines = args.handler(args)
    except (ResourceLimit, SearchExhausted) as exc:
        print(f"endorank: exhausted: {exc}", file=sys.stderr)
        return 2
    except (EndoRankError, OSError, json.JSONDecodeError) as exc:
        print(f"endorank: error: {exc}", file=sys.stderr)
        return 1
    finally:
        # ENDORANK_BUDGET and --budget hold for this one command.
        if get_budget() != budget:
            set_budget(budget)

    if args.format == "json":
        # A handler may name a more specific command (chain --verify does).
        payload = {"schema": 1, "command": args.command, **payload}
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print("\n".join(lines))

    if args.command == "selftest" and not payload["ok"]:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
