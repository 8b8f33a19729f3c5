"""`chain --verify` on corrupted certificates: every answer is an exit code.

Valid certificates of the GF(2) counterexample (a power step, and with
--r-max 1 a lift to GF(4)) have one field deleted or replaced with junk at a
time; the replay must report (exit 0 with FAILED, exit 1, or exit 2 on a
resource limit) and never raise.  A step with one key changed must never
replay as ok: every key of a step is either read or checked against what
the reader rebuilt.
"""

import contextlib
import io
import json
import os
import pathlib
import tempfile

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from endorank.cli import main
from endorank.errors import quote

GF2_COUNTEREXAMPLE = pathlib.Path(__file__).parent / "fixtures" / "gf2_counterexample.endo"

JUNK = [
    None, True, False, -1, 0, 1, 2, 3, 9, 10**6, 1.5, "", "two", "x1", "x1^²",
    "x٣", "t", "F ²", "F 2", "F 3", "F 2^2 mod t^2+t+1", "Q", "power",
    "collapse", "specialize", [], ["0"], ["0", "1", "x1"], [1, 2], {}, {"kind": "power"},
]


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue()


_CERTIFICATES = {}


def _certificate(r_max):
    if r_max not in _CERTIFICATES:
        code, out = _run(
            ["chain", str(GF2_COUNTEREXAMPLE), "--seed", "1", "--r-max", str(r_max),
             "--format", "json"]
        )
        assert code == 0
        _CERTIFICATES[r_max] = out
    return json.loads(_CERTIFICATES[r_max])


def _slots(payload):
    """Every (container, key) whose value a mutation may delete or replace."""
    slots = [(payload, key) for key in payload]
    for step in payload["steps"]:
        slots += [(step, key) for key in step]
        for key in ("after", "point"):
            if isinstance(step[key], list):
                slots += [(step[key], k) for k in range(len(step[key]))]
    slots += [(payload["steps"], k) for k in range(len(payload["steps"]))]
    slots += [(payload["start"], k) for k in range(len(payload["start"]))]
    return slots


@settings(max_examples=200, derandomize=True, deadline=None)
@given(
    r_max=st.sampled_from([8, 1]),
    slot=st.integers(min_value=0),
    delete=st.booleans(),
    junk=st.sampled_from(JUNK),
)
def test_mutated_certificates_never_raise(r_max, slot, delete, junk):
    payload = _certificate(r_max)
    slots = _slots(payload)
    container, key = slots[slot % len(slots)]
    if delete:
        del container[key]
    else:
        container[key] = junk
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "chain.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
        code, _ = _run(["chain", path, "--verify"])
    assert code in (0, 1, 2)


def test_lifted_certificate_is_exercised():
    assert any(step["lift_to"] for step in _certificate(1)["steps"])


def _verify(payload):
    """(exit code, stdout, stderr) of replaying a certificate."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "chain.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["chain", path, "--verify", "--format", "json"])
    return code, out.getvalue(), err.getvalue()


def test_lift_to_must_be_the_stock_extension_of_the_current_field():
    code, out, _ = _verify(_certificate(1))
    assert code == 0 and json.loads(out)["ok"] is True
    payload = _certificate(1)
    step = next(k for k, s in enumerate(payload["steps"], start=1) if s["lift_to"])
    payload["steps"][step - 1]["lift_to"] = "F 2^3 mod t^3+t+1"
    code, _, err = _verify(payload)
    assert code == 1
    assert f"step {step}: lift_to F 2^3 mod t^3+t+1 is not the stock extension of F 2" in err


@settings(max_examples=200, derandomize=True, deadline=None)
@given(
    r_max=st.sampled_from([8, 1]),
    step=st.integers(min_value=0),
    key=st.integers(min_value=0),
    junk=st.sampled_from(JUNK),
)
def test_a_changed_step_key_never_replays_ok(r_max, step, key, junk):
    payload = _certificate(r_max)
    record = payload["steps"][step % len(payload["steps"])]
    name = sorted(record)[key % len(record)]
    assume(json.dumps(junk) != json.dumps(record[name]))
    record[name] = junk
    code, out, _ = _verify(payload)
    assert code in (1, 2) or (code == 0 and json.loads(out)["ok"] is False)



@pytest.mark.parametrize(
    "step, key, index, text, code, message",
    [
        (
            None, "start", 0, "x1 +", 1,
            "endorank: error: certificate: start[0]: expected a term, "
            "found 'end of input' at line 1, column 5",
        ),
        (
            1, "after", 1, "x3", 1,
            "endorank: error: step 1: after[1]: x3 is outside the declared "
            "variables x1..x2 at line 1, column 1",
        ),
        (
            2, "point", 1, "1 +", 1,
            "endorank: error: step 2: point[1]: expected a term, "
            "found 'end of input' at line 1, column 4",
        ),
        (
            1, "after", 0, "(" * 150 + "x1" + ")" * 150, 1,
            "endorank: error: step 1: after[0]: nesting of '(' and unary '-' deeper "
            "than 100 levels at line 1, column 101",
        ),
        # a resource limit met while parsing is no verdict on the certificate
        (
            None, "start", 0, "x1^999", 2,
            "endorank: exhausted: product degree 999 exceeds cap 64 (degree 1, power 999)",
        ),
    ],
)
def test_a_parse_error_names_the_record_and_key(step, key, index, text, code, message):
    payload = _certificate(8)
    record = payload if step is None else payload["steps"][step - 1]
    record[key][index] = text
    got, _, err = _verify(payload)
    assert (got, err.strip()) == (code, message)



@pytest.mark.parametrize(
    "step, key, value, where, length",
    [
        (None, "vars", list(range(100_000)), "certificate: vars [0, 1, 2,", 688_890),
        (1, "kind", "k" * 100_000, "step 1: unknown substitution kind 'kkk", 100_002),
        (1, "rank_before", [[list(range(10))] * 10] * 1000, "step 1: rank_before [[[0,", 322_000),
        (1, "variable", list(range(50_000)), "step 1: variable [0, 1, 2,", 338_890),
        (None, "start", ["y" * 100_000, "x2"], "certificate: start[0]: unknown name 'yyy", 100_002),
    ],
    ids=["vars", "kind", "rank_before", "variable", "start"],
)
def test_an_oversized_value_is_quoted_short(step, key, value, where, length):
    # `length` is the size of the quoted value's repr, which the message
    # reports in place of the rest of it.
    payload = _certificate(8)
    record = payload if step is None else payload["steps"][step - 1]
    record[key] = value
    code, _, err = _verify(payload)
    assert code == 1
    assert err.startswith(f"endorank: error: {where}")
    assert f"... ({length} characters)" in err
    assert err.count("\n") == 1 and len(err.encode()) < 300


def test_a_short_value_is_quoted_as_its_repr():
    assert quote("x1 +") == "'x1 +'"
    assert quote([1, 2]) == "[1, 2]"
    assert quote("a" * 58) == repr("a" * 58)
    assert quote("a" * 59) == "'" + "a" * 59 + "... (61 characters)"
