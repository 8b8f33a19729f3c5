"""Command-line interface: exit codes, JSON payloads, determinism."""

import json
import os
import subprocess
import sys
import time

import pytest

from endorank import cli, kronecker
from endorank.cli import main
from endorank.endo import Endomorphism, compose
from endorank.fields import QQ
from endorank.groebner import clear_caches, get_budget
from endorank.kronecker import KroneckerSystem
from endorank.parsing import format_poly, parse_polynomial

GF2_COUNTEREXAMPLE = """\
field F 2
vars 2
x1 -> (x1^2 + x1) * (x2^2 + x2) * x1
x2 -> (x1^2 + x1) * (x2^2 + x2) * x2
"""

TWO_GENERATOR = """\
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


@pytest.fixture()
def files(tmp_path):
    def write(name, text):
        p = tmp_path / name
        p.write_text(text)
        return str(p)

    return write


def run_cli(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def run_proc(*argv, env_extra=None):
    env = dict(os.environ)
    env.pop("ENDORANK_BUDGET", None)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "endorank.cli", *argv],
        capture_output=True,
        text=True,
        env=env,
    )


# -- rank ---------------------------------------------------------------------


def test_rank_json_payload(files, capsys):
    path = files("ce.endo", GF2_COUNTEREXAMPLE)
    code, out = run_cli(capsys, "rank", path, "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == 1
    assert payload["rank"] == 2
    assert payload["method"] == "elimination"
    assert payload["field"] == "F 2"
    assert payload["relation_generators"] == []
    assert payload["is_lower_bound"] is False


def test_rank_text_output(files, capsys):
    path = files("id.endo", "field Q\nvars 2\nx1 -> x1\nx2 -> x2\n")
    code, out = run_cli(capsys, "rank", path)
    assert code == 0
    assert out.splitlines()[0] == "rank: 2"


def test_rank_text_lists_the_relations(files, capsys):
    path = files("cusp.endo", "field Q\nvars 2\nx1 -> x1^2\nx2 -> x1^3\n")
    code, out = run_cli(capsys, "rank", path)
    assert code == 0
    assert out.splitlines() == [
        "rank: 1",
        "method: elimination",
        "relation ideal generators:",
        "  x1^3 - x2^2",
    ]


def test_rank_jacobian_method(files, capsys):
    path = files("sq.endo", "field Q\nvars 2\nx1 -> x1^2\nx2 -> x2^2\n")
    code, out = run_cli(capsys, "rank", path, "--method", "jacobian", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["rank"] == 2
    assert payload["method"] == "jacobian-probe"
    assert payload["is_lower_bound"] is True
    assert payload["probe_point"] is not None


def test_rank_jacobian_refused_over_gf2(files, capsys):
    path = files("sq2.endo", "field F 2\nvars 2\nx1 -> x1^2\nx2 -> x2^2\n")
    code, _ = run_cli(capsys, "rank", path, "--method", "jacobian")
    assert code == 1


# -- compare ------------------------------------------------------------------


def test_compare_text_verdict(files, capsys):
    proj = files("proj.endo", "field Q\nvars 2\nx1 -> x1\nx2 -> 0\n")
    ident = files("id.endo", "field Q\nvars 2\nx1 -> x1\nx2 -> x2\n")
    code, out = run_cli(capsys, "compare", proj, ident)
    assert code == 0
    assert out.splitlines() == [
        "verdict: strictly-below",
        "relation of the first map only: x2",
    ]
    code, out = run_cli(capsys, "compare", ident, proj)
    assert out.splitlines()[1] == "relation of the second map only: x2"
    code, out = run_cli(capsys, "compare", proj, proj)
    assert out.splitlines() == ["verdict: equivalent"]


def test_compare_json_carries_the_separators(files, capsys):
    e11 = files("e11.endo", "field Q\nvars 2\nx1 -> x1\nx2 -> 0\n")
    e22 = files("e22.endo", "field Q\nvars 2\nx1 -> 0\nx2 -> x2\n")
    ident = files("id.endo", "field Q\nvars 2\nx1 -> x1\nx2 -> x2\n")
    code, out = run_cli(capsys, "compare", e11, e22, "--format", "json")
    assert code == 0
    assert json.loads(out) == {
        "schema": 1,
        "command": "compare",
        "verdict": "incomparable",
        "first_only": "x2",
        "second_only": "x1",
    }
    code, out = run_cli(capsys, "compare", e11, ident, "--format", "json")
    payload = json.loads(out)
    assert (payload["verdict"], payload["first_only"], payload["second_only"]) == (
        "strictly-below", "x2", None,
    )


def test_compare_mismatched_fields_is_an_input_error(files, capsys):
    a = files("a.endo", "field Q\nvars 2\nx1 -> x1\nx2 -> x2\n")
    b = files("b.endo", "field F 3\nvars 2\nx1 -> x1\nx2 -> x2\n")
    code, _ = run_cli(capsys, "compare", a, b)
    assert code == 1


# -- chains -------------------------------------------------------------------


def test_chain_and_replay_verification(files, capsys, tmp_path):
    path = files("ce.endo", GF2_COUNTEREXAMPLE)
    code, out = run_cli(capsys, "chain", path, "--format", "json", "--seed", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["length"] == 2
    assert payload["complete"] is True
    assert payload["steps"][0]["kind"] == "power"
    assert payload["steps"][0]["exponent"] == 2
    assert payload["steps"][1]["kind"] == "collapse"

    chain_file = tmp_path / "chain.json"
    chain_file.write_text(out)
    code, out = run_cli(capsys, "chain", str(chain_file), "--verify", "--format", "json")
    assert code == 0
    verified = json.loads(out)
    assert verified["ok"] is True
    assert verified["ranks"] == [2, 1, 0]


def test_chain_verify_catches_tampering(files, capsys, tmp_path):
    path = files("ce.endo", GF2_COUNTEREXAMPLE)
    _, out = run_cli(capsys, "chain", path, "--format", "json")
    payload = json.loads(out)
    payload["steps"][0]["rank_after"] = 0
    chain_file = tmp_path / "tampered.json"
    chain_file.write_text(json.dumps(payload))
    code, out = run_cli(capsys, "chain", str(chain_file), "--verify", "--format", "json")
    assert code == 0  # a negative verdict is still a computed answer
    verified = json.loads(out)
    assert verified["ok"] is False
    assert any("recorded rank after" in p for p in verified["problems"])


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("variable", -1, "variable -1 outside 1..2"),  # indexing would wrap it to x1
        ("variable", 0, "variable 0 outside 1..2"),
        ("variable", 9, "variable 9 outside 1..2"),  # indexing would raise IndexError
        ("source", 3, "source 3 outside 1..2"),
        ("source", 1, "source equals variable"),
        ("exponent", 1, "exponent 1 is not at least 2"),
        ("kind", "swap", "unknown substitution kind 'swap'"),
    ],
)
def test_chain_verify_refuses_malformed_records(files, capsys, tmp_path, field, value, message):
    path = files("ce.endo", GF2_COUNTEREXAMPLE)
    _, out = run_cli(capsys, "chain", path, "--format", "json", "--seed", "1")
    payload = json.loads(out)
    assert payload["steps"][0]["kind"] == "power"  # x1 := x2^2 on n = 2
    payload["steps"][0][field] = value
    chain_file = tmp_path / "bad.json"
    chain_file.write_text(json.dumps(payload))
    code = main(["chain", str(chain_file), "--verify"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == f"endorank: error: step 1: {message}\n"


def _without(record, key):
    return {k: v for k, v in record.items() if k != key}


def _with_step(payload, idx, **fields):
    """payload with the given fields of its step idx (from 1) replaced."""
    steps = list(payload["steps"])
    steps[idx - 1] = {**steps[idx - 1], **fields}
    return {**payload, "steps": steps}


@pytest.mark.parametrize(
    "mutate, message",
    [
        (lambda p: {**p, "vars": "two"}, "certificate: vars 'two' is not a positive integer"),
        (lambda p: [p], "certificate is not a JSON object"),
        (lambda p: {**p, "steps": "x"}, "certificate: steps is not a list"),
        (lambda p: {**p, "steps": [7]}, "step 1: not a JSON object"),
        (
            lambda p: {**p, "steps": [_without(p["steps"][0], "source")]},
            "step 1: missing field 'source'",
        ),
        (lambda p: _without(p, "field"), "certificate: missing field 'field'"),
        (lambda p: {**p, "field": 2}, "certificate: field is not a string"),
        (lambda p: {**p, "vars": 3}, "certificate: 2 start images for 3 vars"),
        (lambda p: {**p, "start": "x1"}, "certificate: start is not a list of strings"),
        (
            lambda p: {**p, "steps": [{**p["steps"][0], "after": [1, 2]}]},
            "step 1: after is not a list of strings",
        ),
        (
            lambda p: {**p, "steps": [p["steps"][0], {**p["steps"][1], "point": "0"}]},
            "step 2: point is not a list of strings",
        ),
        (
            lambda p: _with_step(p, 2, point=["x1*x2", "0"]),
            "step 2: point 'x1*x2' is not a constant",
        ),
        (lambda p: _with_step(p, 1, value="x1"), "step 1: value 'x1' is not a constant"),
        (
            lambda p: _with_step(p, 1, rank_before=True),
            "step 1: rank_before True is not a non-negative integer",
        ),
        (
            lambda p: _with_step(p, 1, rank_after=1.0),
            "step 1: rank_after 1.0 is not a non-negative integer",
        ),
        (
            lambda p: _with_step(p, 2, rank_before="1"),
            "step 2: rank_before '1' is not a non-negative integer",
        ),
        (
            lambda p: _with_step(p, 2, rank_after=-1),
            "step 2: rank_after -1 is not a non-negative integer",
        ),
        (lambda p: _with_step(p, 1, value="1"), "step 1: a power step takes no value"),
        (
            lambda p: _with_step(p, 1, point=["1", "1"]),
            "step 1: a power step takes no point",
        ),
        (
            lambda p: {**p, "steps": [_without(p["steps"][0], "lift_to")]},
            "step 1: missing field 'lift_to'",
        ),
        (lambda p: _with_step(p, 2, value="1"), "step 2: a collapse step takes no value"),
        (
            lambda p: _with_step(p, 2, variable=False),
            "step 2: a collapse step takes no variable",
        ),
        (
            lambda p: _with_step(p, 2, exponent=0.0),
            "step 2: a collapse step takes no exponent",
        ),
        (
            lambda p: _with_step(p, 2, point=["0"]),
            "step 2: collapse point has the wrong arity",
        ),
        (lambda p: _with_step(p, 1, field="Q"), "step 1: field is not 'F 2'"),
        (
            lambda p: _with_step(p, 2, describe=None),
            "step 2: describe is not 'collapse at (0, 0)'",
        ),
        (
            lambda p: _with_step(p, 1, lift_to=""),
            "step 1: lift_to: unknown field kind '' at line 1",
        ),
        (lambda p: {**p, "field": "F 4"}, "certificate: field: 4 is not prime"),
        (
            lambda p: _with_step(p, 1, kind="specialize", source=0, exponent=0, value=None),
            "step 1: specialization value is missing",
        ),
        (lambda p: _with_step(p, 2, point=None), "step 2: collapse point is missing"),
        (lambda p: _with_step(p, 1, lift_to=0), "step 1: lift_to is not a string"),
        (lambda p: _with_step(p, 1, lift_to=False), "step 1: lift_to is not a string"),
        (lambda p: _with_step(p, 1, lift_to=[]), "step 1: lift_to is not a string"),
    ],
)
def test_chain_verify_refuses_malformed_certificates(files, capsys, tmp_path, mutate, message):
    path = files("ce.endo", GF2_COUNTEREXAMPLE)
    _, out = run_cli(capsys, "chain", path, "--format", "json", "--seed", "1")
    payload = json.loads(out)
    assert [st["kind"] for st in payload["steps"]] == ["power", "collapse"]
    chain_file = tmp_path / "bad.json"
    chain_file.write_text(json.dumps(mutate(payload)))
    code = main(["chain", str(chain_file), "--verify"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == f"endorank: error: {message}\n"


Q_PRODUCT = """\
field Q
vars 2
x1 -> x1*x2
x2 -> x2
"""


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"source": 2, "exponent": 5}, "step 1: a specialize step takes no source"),
        ({"field": "F 2"}, "step 1: field is not 'Q'"),
        ({"describe": "x2 := 7"}, "step 1: describe is not 'x1 := 0'"),
    ],
)
def test_chain_verify_refuses_a_mismatched_specialize_step(
    files, capsys, tmp_path, fields, message
):
    path = files("q.endo", Q_PRODUCT)
    _, out = run_cli(capsys, "chain", path, "--format", "json")
    payload = json.loads(out)
    assert payload["steps"][0]["describe"] == "x1 := 0"
    chain_file = tmp_path / "bad.json"
    chain_file.write_text(json.dumps(_with_step(payload, 1, **fields)))
    code = main(["chain", str(chain_file), "--verify"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == f"endorank: error: {message}\n"


def test_chain_text_format(files, capsys):
    path = files("ce.endo", GF2_COUNTEREXAMPLE)
    code, out = run_cli(capsys, "chain", path)
    assert code == 0
    lines = out.splitlines()
    assert "step 1: x1 := x2^2 [rank 2 -> 1]" in lines
    assert lines[-1] == "chain length: 2"


# -- kronecker systems -----------------------------------------------------------


def test_kron_verify(files, capsys):
    path = files("two.kron", TWO_GENERATOR)
    code, out = run_cli(capsys, "kron-verify", path, "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert payload["relations_checked"] == 24
    assert payload["problems"] == []


def test_kron_classify(files, capsys):
    path = files("two.kron", TWO_GENERATOR)
    code, out = run_cli(capsys, "kron-classify", path)
    assert code == 0
    assert out.strip() == "classification: nonsingular"


def test_kron_base_negative_verdict(files, capsys):
    path = files("two.kron", TWO_GENERATOR)
    code, out = run_cli(capsys, "kron-base", path, "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["is_base"] is False
    assert payload["failing_generator_membership"] == "x1"
    assert payload["missing"] == [1]
    assert payload["generators"] == ["x1*x2 + x1", "x2"]
    assert payload["witnesses"] is None


def test_kron_normalize_conjugated_family(files, capsys):
    path = files(
        "conj.kron",
        "field Q\nvars 2\nkron 2\n"
        "e 1 1\nx1 -> x1 + x2^2\nx2 -> 0\n"
        "e 1 2\nx1 -> -(x1 + x2^2)^2\nx2 -> x1 + x2^2\n"
        "e 2 1\nx1 -> x2\nx2 -> 0\n"
        "e 2 2\nx1 -> -x2^2\nx2 -> x2\n"
        "zero\nx1 -> 0\nx2 -> 0\n",
    )
    code, out = run_cli(capsys, "kron-normalize", path, "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["normalized"] is True
    assert payload["generators"] == ["x2^2 + x1", "x2"]
    assert payload["global_scale"] == "1"
    assert payload["gammas"] == ["0", "0"]


def test_kron_normalize_refuses_non_base(files, capsys):
    path = files("two.kron", TWO_GENERATOR)
    code, _ = run_cli(capsys, "kron-normalize", path)
    assert code == 1


def test_kron_audit_skips_products_past_the_degree_cap(files, capsys):
    # The standard n = 3 family conjugated by a cubic triangular map.  Some
    # of its n^4 products pass degree 64 (composing all of them stops with
    # "product degree 108 exceeds cap 64", exit 2); the generating set of
    # 21 products stays below it and proves the same relations.
    def endo(*images):
        return Endomorphism(QQ, 3, tuple(parse_polynomial(f, QQ, 3) for f in images))

    s = endo("x1 + 2*x2^3 - x3^2", "x2 + 3*x3^2", "x3")
    s_inv = endo("x1 - 2*(x2 - 3*x3^2)^3 + x3^2", "x2 - 3*x3^2", "x3")
    family = KroneckerSystem.standard(QQ, 3).transformed(
        lambda e: compose(compose(s, e), s_inv)
    )
    lines = ["field Q", "vars 3", "kron 3"]
    for i in (1, 2, 3):
        for j in (1, 2, 3):
            lines.append(f"e {i} {j}")
            images = family.entry(i, j).images
            lines += [f"x{k} -> {format_poly(f)}" for k, f in enumerate(images, 1)]
    lines.append("zero")
    lines += [f"x{k} -> 0" for k in (1, 2, 3)]
    path = files("cubic.kron", "\n".join(lines) + "\n")
    code, out = run_cli(capsys, "kron-verify", path)
    assert code == 0
    assert out.splitlines()[:2] == ["subbase: ok", "relations checked: 99"]
    code, out = run_cli(capsys, "kron-classify", path)
    assert (code, out) == (0, "classification: nonsingular\n")


def test_kron_commands_audit_a_family_once(files, capsys, monkeypatch):
    # kron-verify then kron-base on one file: the loader and the audit are
    # memoized, so the relations are composed once, and the answers are the
    # bytes a cold run prints.
    path = files("two.kron", TWO_GENERATOR)
    argvs = [["kron-verify", path], ["kron-base", path, "--format", "json"]]
    audits = []
    real = kronecker._relation_violations
    monkeypatch.setattr(
        kronecker, "_relation_violations", lambda system: audits.append(system) or real(system)
    )
    clear_caches()
    warm = [run_cli(capsys, *argv) for argv in argvs]
    assert len(audits) == 1
    cold = []
    for argv in argvs:
        clear_caches()
        cold.append(run_cli(capsys, *argv))
    assert warm == cold
    assert [code for code, _ in warm] == [0, 0]


# -- automorphisms ----------------------------------------------------------------


def test_conj_with_properties(files, capsys):
    aut = files(
        "aut.aut", "field Q\nvars 2\ndelta identity\nx1 -> x1 + x2^2\nx2 -> x2\n"
    )
    swap = files("swap.endo", "field Q\nvars 2\nx1 -> x2\nx2 -> x1\n")
    code, out = run_cli(
        capsys, "conj", aut, swap, "--properties", "--trials", "4", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["conjugated"] == [
        "-x2^4 - 2*x1*x2^2 - x1^2 + x2",
        "x2^2 + x1",
    ]
    assert payload["inner"] is True
    assert payload["properties"]["ok"] is True
    assert payload["properties"]["kronecker_base_check"] is True


def test_conj_frobenius(files, capsys):
    aut = files("frob.aut", "field F 2^2 mod t^2+t+1\nvars 2\ndelta frob^1\nx1 -> x1\nx2 -> x2\n")
    g = files("g.endo", "field F 2^2 mod t^2+t+1\nvars 2\nx1 -> t*x1\nx2 -> x2\n")
    code, out = run_cli(capsys, "conj", aut, g, "--format", "json")
    assert code == 0
    assert json.loads(out)["conjugated"] == ["(t+1)*x1", "x2"]


def test_conj_rejects_noninvertible_aut(files, capsys):
    aut = files("bad.aut", "field Q\nvars 2\ndelta identity\nx1 -> x1^2\nx2 -> x2\n")
    g = files("g.endo", "field Q\nvars 2\nx1 -> x1\nx2 -> x2\n")
    code, _ = run_cli(capsys, "conj", aut, g)
    assert code == 1


# -- invert -----------------------------------------------------------------------


def test_invert_triangular(files, capsys):
    path = files("tri.endo", "field Q\nvars 2\nx1 -> x1 + x2^2\nx2 -> x2\n")
    code, out = run_cli(capsys, "invert", path, "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["invertible"] is True
    assert payload["inverse"] == ["-x2^2 + x1", "x2"]


def test_invert_negative_answer_is_still_success(files, capsys):
    path = files("sq.endo", "field Q\nvars 2\nx1 -> x1^2\nx2 -> x2\n")
    code, out = run_cli(capsys, "invert", path)
    assert code == 0
    assert out.strip() == "invertible: no"


# -- error handling ----------------------------------------------------------------


@pytest.mark.parametrize(
    "argv, text, message",
    [
        (["rank"], "field Q\nvars \u00b2\nx1 -> x1\n", "expected 'vars n' at line 2"),
        (["rank"], "field Q\nvars 1\nx1 -> x1^\u00b2\n", "'\u00b2' at line 3, column 10"),
        (["rank"], "field Q\nvars 1\nx1 -> x1\u00b2\n", "'x1\u00b2' at line 3, column 7"),
        (["rank"], "field Q\nvars 1\nx1 -> \u00b2*x1\n", "'\u00b2' at line 3, column 7"),
        (["rank"], "field F \u00b2\nvars 1\nx1 -> x1\n", "header 'field F \u00b2' at line 1"),
        (
            ["rank"],
            "field F 2^\u00b2 mod t^2+t+1\nvars 1\nx1 -> x1\n",
            "bad extension-field order '2^\u00b2' at line 1",
        ),
        # Arabic-Indic three: int() would read x3.
        (
            ["rank"],
            "field Q\nvars 3\nx1 -> x\u0663\nx2 -> x2\nx3 -> x3\n",
            "unknown name 'x\u0663' at line 3, column 7",
        ),
        (["kron-verify"], "field Q\nvars 1\nkron \u00b2\n", "expected 'kron n' at line 3"),
        (["kron-verify"], "field Q\nvars 1\nkron 1\ne \u00b2 1\nx1 -> x1\n", "'e i j' at line 4"),
        (
            ["conj"],
            "field F 2^2 mod t^2+t+1\nvars 1\ndelta frob^\u00b2\nx1 -> x1\n",
            "unknown delta 'frob^\u00b2' at line 3",
        ),
    ],
    ids=["vars", "power", "superscript", "coefficient", "prime", "extension", "arabic-indic",
         "kron", "entry", "frobenius"],
)
def test_non_ascii_digits_are_syntax_errors(files, capsys, argv, text, message):
    path = files("input.txt", text)
    extra = [files("id.endo", "field Q\nvars 1\nx1 -> x1\n")] if argv == ["conj"] else []
    code = main(argv + [path] + extra)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("endorank: error: ")
    assert captured.err.rstrip().endswith(message)
    assert len(captured.err.splitlines()) == 1


@pytest.mark.parametrize(
    "text, where",
    [
        ("field Q\nvars 1\n   x1 ->   x1 + $\n", "line 3, column 17"),
        ("  field F 2^2  mod t^2+$\nvars 1\nx1 -> x1\n", "line 1, column 24"),
    ],
    ids=["image", "modulus"],
)
def test_error_columns_count_from_the_start_of_the_line(files, capsys, text, where):
    code = main(["rank", files("ws.endo", text)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == f"endorank: error: unexpected character '$' at {where}\n"


@pytest.mark.parametrize(
    "text, message",
    [
        ("field Q\nvars 1\nx1 -> " + "7" * 5000 + "*x1\n", "at line 3, column 7"),
        ("field Q\nvars " + "1" * 5000 + "\nx1 -> x1\n", "at line 2"),
        ("field Q\nvars 1\nx1 -> x1^" + "9" * 5000 + "\n", "at line 3, column 10"),
    ],
    ids=["coefficient", "vars", "exponent"],
)
def test_integers_too_long_for_int_are_syntax_errors(files, capsys, text, message):
    # int() refuses more than sys.get_int_max_str_digits() (4300) digits.
    code = main(["rank", files("big.endo", text)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == f"endorank: error: number with 5000 digits is too long {message}\n"


def test_chain_verify_refuses_integers_too_long_for_int(files, capsys, tmp_path):
    path = files("ce.endo", GF2_COUNTEREXAMPLE)
    _, out = run_cli(capsys, "chain", path, "--format", "json", "--seed", "1")
    text = out.replace('"vars": 2', '"vars": ' + "1" * 5000)
    assert text != out
    chain_file = tmp_path / "bad.json"
    chain_file.write_text(text)
    code = main(["chain", str(chain_file), "--verify"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == "endorank: error: certificate: integer with 5000 digits is too long\n"


def test_chain_verify_refuses_non_ascii_field_header(files, capsys, tmp_path):
    path = files("ce.endo", GF2_COUNTEREXAMPLE)
    _, out = run_cli(capsys, "chain", path, "--format", "json", "--seed", "1")
    payload = json.loads(out)
    payload["field"] = "F \u00b2"
    chain_file = tmp_path / "bad.json"
    chain_file.write_text(json.dumps(payload))
    code = main(["chain", str(chain_file), "--verify"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == (
        "endorank: error: certificate: field: malformed field header 'field F \u00b2' at line 1\n"
    )


@pytest.mark.parametrize(
    "image",
    ["(" * 260 + "x1" + ")" * 260, "-" * 5000 + "x1", "-(" * 130 + "x1" + ")" * 130],
    ids=["parentheses", "minus", "both"],
)
def test_deep_nesting_is_a_syntax_error(files, capsys, image):
    code = main(["rank", files("deep.endo", f"field Q\nvars 1\nx1 -> {image}\n")])
    assert code == 1
    assert capsys.readouterr().err == (
        "endorank: error: nesting of '(' and unary '-' deeper than 100 levels "
        "at line 3, column 107\n"
    )


def test_chain_verify_refuses_deeply_nested_json(capsys, tmp_path):
    chain_file = tmp_path / "deep.json"
    chain_file.write_text("[" * 200_000)
    code = main(["chain", str(chain_file), "--verify"])
    assert code == 1
    assert capsys.readouterr().err == (
        "endorank: error: certificate: JSON nested deeper than the decoder reads\n"
    )


def test_missing_file_exits_one(capsys, tmp_path):
    code, _ = run_cli(capsys, "rank", str(tmp_path / "nope.endo"))
    assert code == 1


def test_syntax_error_exits_one(files, capsys):
    path = files("bad.endo", "field Q\nvars 2\nx1 -> x1 +\nx2 -> x2\n")
    code, _ = run_cli(capsys, "rank", path)
    assert code == 1


def test_unknown_command_exits_one():
    result = run_proc("frobnicate")
    assert result.returncode == 1


def test_no_arguments_exits_one():
    result = run_proc()
    assert result.returncode == 1


def usage_error(capsys, *argv):
    with pytest.raises(SystemExit) as exc_info:
        main(list(argv))
    return exc_info.value.code, capsys.readouterr().err


def test_negative_trials_are_a_usage_error(files, capsys):
    aut = files("aut.aut", "field Q\nvars 2\ndelta identity\nx1 -> x1 + x2^2\nx2 -> x2\n")
    swap = files("swap.endo", "field Q\nvars 2\nx1 -> x2\nx2 -> x1\n")
    code, err = usage_error(capsys, "conj", aut, swap, "--properties", "--trials", "-2")
    assert code == 1
    assert "argument --trials: must be at least 0, got -2" in err
    code, out = run_cli(capsys, "conj", aut, swap, "--properties", "--trials", "0")
    assert code == 0 and "properties: ok" in out


def test_r_max_below_one_is_a_usage_error(files, capsys):
    path = files("ce.endo", GF2_COUNTEREXAMPLE)
    code, err = usage_error(capsys, "chain", path, "--r-max", "-5")
    assert code == 1
    assert "argument --r-max: must be at least 1, got -5" in err
    code, err = usage_error(capsys, "chain", path, "--r-max", "0")
    assert code == 1 and "argument --r-max" in err
    code, out = run_cli(capsys, "chain", path, "--r-max", "1", "--seed", "1")
    assert code == 0 and "chain length: 2" in out


def test_compare_takes_no_falsify_or_seed(files, capsys):
    path = files("ce.endo", GF2_COUNTEREXAMPLE)
    for flag in ("--falsify", "--seed"):
        code, err = usage_error(capsys, "compare", path, path, flag, "3")
        assert code == 1
        assert f"unrecognized arguments: {flag} 3" in err


# -- budget -----------------------------------------------------------------------


def test_budget_flag_exits_two(files, tmp_path):
    path = tmp_path / "ce.endo"
    path.write_text(GF2_COUNTEREXAMPLE)
    result = run_proc("rank", str(path), "--budget", "1")
    assert result.returncode == 2
    assert "exhausted" in result.stderr


def test_budget_env_variable(files, tmp_path):
    path = tmp_path / "ce.endo"
    path.write_text(GF2_COUNTEREXAMPLE)
    result = run_proc("rank", str(path), env_extra={"ENDORANK_BUDGET": "1"})
    assert result.returncode == 2
    # and the flag overrides the environment
    result = run_proc(
        "rank", str(path), "--budget", "100000", env_extra={"ENDORANK_BUDGET": "1"}
    )
    assert result.returncode == 0


@pytest.mark.parametrize("source", ["flag", "env"])
def test_budget_holds_for_one_command(files, capsys, monkeypatch, source):
    path = files("ce.endo", GF2_COUNTEREXAMPLE)
    before = get_budget()
    clear_caches()  # a cached basis would answer without spending budget
    if source == "flag":
        code = main(["rank", path, "--budget", "1"])
    else:
        monkeypatch.setenv("ENDORANK_BUDGET", "1")
        code = main(["rank", path])
        monkeypatch.delenv("ENDORANK_BUDGET")
    assert code == 2
    assert get_budget() == before
    code, out = run_cli(capsys, "rank", path)
    assert code == 0
    assert out.splitlines()[0] == "rank: 2"


def test_bad_budget_value_exits_one(files, tmp_path):
    path = tmp_path / "ce.endo"
    path.write_text(GF2_COUNTEREXAMPLE)
    result = run_proc("rank", str(path), env_extra={"ENDORANK_BUDGET": "lots"})
    assert result.returncode == 1


@pytest.mark.parametrize("source", ["flag", "env"])
def test_budget_above_the_digit_room_exits_one(files, capsys, monkeypatch, source):
    path = files("ce.endo", GF2_COUNTEREXAMPLE)
    before = get_budget()
    if source == "flag":
        code = main(["rank", path, "--budget", str(2**32 + 1)])
    else:
        monkeypatch.setenv("ENDORANK_BUDGET", str(2**32 + 1))
        code = main(["rank", path])
    assert code == 1
    assert "bad budget: budget must be at most 2^32 = 4294967296" in capsys.readouterr().err
    assert get_budget() == before


def test_degree_cap_exits_two(files, capsys):
    path = files("big.endo", "field Q\nvars 2\nx1 -> x1^70\nx2 -> x2\n")
    code = main(["rank", path])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("endorank: exhausted: ")
    assert "cap 64" in captured.err


@pytest.mark.parametrize("image", ["x1^100*x2^100", "x1^127*x2", "x1^128"])
def test_monomials_past_the_packed_limit_exit_two(files, capsys, image):
    path = files("big.endo", f"field Q\nvars 2\nx1 -> {image}\nx2 -> x2\n")
    code = main(["rank", path])
    assert code == 2
    assert "exceeds cap 64" in capsys.readouterr().err


def test_prime_header_near_the_characteristic_cap_answers_fast(files, capsys):
    path = files("p.endo", "field F 2305843009213693951\nvars 1\nx1 -> x1^2 + 3\n")
    start = time.perf_counter()
    code, out = run_cli(capsys, "rank", path, "--format", "json")
    assert time.perf_counter() - start < 1.0
    assert code == 0 and json.loads(out)["rank"] == 1


def test_coefficient_growth_exits_two(files, capsys):
    path = files("huge.endo", "field Q\nvars 1\nx1 -> 3^99999999*x1\n")
    code = main(["rank", path])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("endorank: exhausted: mpoly: power 99999999 ")
    assert "299999997 coefficient bits" in captured.err


@pytest.mark.parametrize("base", ["1", "(-1)"])
def test_powers_of_one_and_minus_one_are_computed(files, capsys, base):
    path = files("unit.endo", f"field Q\nvars 1\nx1 -> {base}^99999999*x1\n")
    code, out = run_cli(capsys, "rank", path, "--format", "json")
    assert code == 0 and json.loads(out)["rank"] == 1


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_long_coefficients_print_every_digit(files, capsys, fmt):
    path = files("big.endo", "field Q\nvars 1\nx1 -> 3^10000*x1\n")
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)
    before = limit()
    code, out = run_cli(capsys, "invert", path, "--format", fmt)
    assert code == 0
    assert limit() == before  # not raised for the caller
    inverse = json.loads(out)["inverse"][0] if fmt == "json" else out.splitlines()[1]
    digits = inverse.split("1/", 1)[1].split("*x1")[0]
    assert len(digits) == 4772 and int(digits[-40:]) == 3**10000 % 10**40


# -- a resource limit is no verdict -------------------------------------------------

P5_AUT = """\
field Q
vars 3
delta identity
x1 -> x1 + x2^5
x2 -> x2 + x3^5
x3 -> x3
"""

IDENTITY_3 = "field Q\nvars 3\nx1 -> x1\nx2 -> x2\nx3 -> x3\n"


@pytest.mark.parametrize("budget", [[], ["--budget", "1000000"]])
def test_properties_past_the_degree_cap_exit_two(files, capsys, budget):
    # Conjugating the standard family by p5 passes the degree cap; the
    # check used to print "properties: FAILED" and exit 0.
    aut, ident = files("p5.aut", P5_AUT), files("id.endo", IDENTITY_3)
    code = main(["conj", aut, ident, "--properties", "--trials", "0", *budget])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("endorank: exhausted: product degree ")
    assert captured.err.rstrip().endswith("exceeds cap 64 (degree 5, power 25)")


def test_selftest_past_its_budget_exits_two(capsys):
    clear_caches()  # a cached basis would answer without spending budget
    try:
        code = main(["selftest", "--budget", "3"])
    finally:
        clear_caches()
    captured = capsys.readouterr()
    assert code == 2
    assert "FAIL" not in captured.out
    assert captured.err.startswith("endorank: exhausted: reduction budget of 3 steps")
    # The first check spends more than 3 steps; the message names it.
    assert captured.err.rstrip().endswith("(selftest check gf2-counterexample-rank)")


# -- selftest and determinism --------------------------------------------------------


def test_selftest_passes(capsys):
    code, out = run_cli(capsys, "selftest", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert len(payload["results"]) == 9
    assert all(c["ok"] for c in payload["results"])
    names = [c["name"] for c in payload["results"]]
    assert "gf2-counterexample-rank" in names
    assert "json-determinism" in names


def test_a_failing_selftest_exits_one(monkeypatch, capsys):
    monkeypatch.setattr(
        cli, "_selftest_checks", lambda: [("holds", lambda: None), ("breaks", lambda: "wrong")]
    )
    code, out = run_cli(capsys, "selftest")
    assert code == 1
    assert out.splitlines()[2:] == [
        "PASS  holds",
        "FAIL  breaks",
        "      wrong",
        "1 passed, 1 failed",
    ]


def test_same_seed_runs_are_byte_identical(tmp_path):
    path = tmp_path / "ce.endo"
    path.write_text(GF2_COUNTEREXAMPLE)
    runs = [
        run_proc("chain", str(path), "--seed", "7", "--format", "json")
        for _ in range(2)
    ]
    assert runs[0].returncode == runs[1].returncode == 0
    assert runs[0].stdout == runs[1].stdout
    assert json.loads(runs[0].stdout)["seed"] == 7


def test_json_output_is_sorted_and_stable(files, capsys):
    path = files("id.endo", "field Q\nvars 2\nx1 -> x1\nx2 -> x2\n")
    _, out1 = run_cli(capsys, "rank", path, "--format", "json")
    _, out2 = run_cli(capsys, "rank", path, "--format", "json")
    assert out1 == out2
    keys = list(json.loads(out1).keys())
    assert keys == sorted(keys)
