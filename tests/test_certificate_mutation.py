"""`chain --verify` on corrupted certificates: every answer is an exit code.

Valid certificates of the GF(2) counterexample (a power step, and with
--r-max 1 a lift to GF(4)) have one field deleted or replaced with junk at a
time; the replay must report (exit 0 with FAILED, exit 1, or exit 2 on a
resource limit) and never raise.
"""

import contextlib
import io
import json
import os
import pathlib
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from endorank.cli import main

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
