"""Mutated `.endo`, `.kron` and `.aut` inputs: every answer is an exit code.

One line of a valid input file is deleted, replaced or preceded by a junk
line, and the matching command runs on the result.  It must answer (exit 0),
refuse the input (exit 1) or report a resource limit (exit 2), and never
raise.  The junk includes monomials past the degree cap and past the packed
limit of total degree 127.
"""

import contextlib
import io
import pathlib
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from endorank.cli import main

FIXTURES = pathlib.Path(__file__).parent / "fixtures"

FROBENIUS_AUT = """\
field F 2^2 mod t^2+t+1
vars 2
delta frob^1
x1 -> x2
x2 -> x1 + t*x2^2
"""

INNER_AUT = """\
field Q
vars 2
delta identity
x1 -> x1 + x2^2
x2 -> 1/2*x2
"""

# The map each automorphism conjugates, over the automorphism's field.
TARGETS = {
    "frobenius": "field F 2^2 mod t^2+t+1\nvars 2\nx1 -> t*x1 + x2\nx2 -> x1*x2\n",
    "inner": "field Q\nvars 2\nx1 -> x2\nx2 -> x1 + x1*x2\n",
}

INPUTS = {
    "endo": (FIXTURES / "gf2_counterexample.endo").read_text(),
    "kron": (FIXTURES / "two_generator.kron").read_text(),
    "frobenius": FROBENIUS_AUT,
    "inner": INNER_AUT,
}

JUNK = [
    "", "   ", "# comment", "field Q", "field F 2", "field F 3", "field F 4",
    "field F 2305843009213693951", "field F 2^2 mod t^2+t+1", "field F 2^3 mod t^3+t+1",
    "field F 2^2 mod t^2+1", "vars 0", "vars 1", "vars 2", "vars 3", "vars 99999999999",
    "kron 2", "kron 3", "e 1 1", "e 2 3", "e 0 1", "e 1", "zero", "delta identity",
    "delta frob^1", "delta frob^2", "delta frob^", "delta frob^²", "x1 -> x1",
    "x2 -> x1", "x1 -> 0", "x2 -> 1", "x1 -> t*x2", "x2 -> x1 + x1*x2", "x1 -> 1/2*x1",
    "x1 -> x1^2", "x3 -> x1", "x1 -> x3", "x1 ->", "-> x1", "x1 -> (x1", "x1 -> x1^²",
    "x1 -> x٣", "x1 -> x1^65", "x1 -> x1^100*x2^100", "x1 -> x1^127*x2",
    "x1 -> x1^128", "x1 -> (x1 + x2)^64", "x1 -> 3^99999999*x1", "x1 -> 1/0",
]


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        return main(argv)


def _argv(kind, path, tmp):
    if kind == "endo":
        return ["rank", path]
    if kind == "kron":
        return ["kron-verify", path]
    target = tmp / "target.endo"
    target.write_text(TARGETS[kind])
    return ["conj", path, str(target)]


@settings(max_examples=600, derandomize=True, deadline=None)
@given(
    kind=st.sampled_from(sorted(INPUTS)),
    line=st.integers(min_value=0),
    action=st.sampled_from(["delete", "replace", "insert"]),
    junk=st.sampled_from(JUNK),
)
def test_mutated_inputs_never_raise(kind, line, action, junk):
    lines = INPUTS[kind].splitlines()
    at = line % len(lines)
    if action == "delete":
        del lines[at]
    elif action == "replace":
        lines[at] = junk
    else:
        lines.insert(at, junk)
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / f"input.{kind}"
        path.write_text("\n".join(lines) + "\n")
        assert _run(_argv(kind, str(path), pathlib.Path(tmp))) in (0, 1, 2)


def test_unmutated_inputs_answer(tmp_path):
    for kind, text in INPUTS.items():
        path = tmp_path / f"input.{kind}"
        path.write_text(text)
        assert _run(_argv(kind, str(path), tmp_path)) == 0, kind
