"""Frozen records (`endorank.records.record`): the value types keep the
behaviour `dataclasses.dataclass(frozen=True)` gave them, and importing the
command loads neither `dataclasses` nor `inspect`."""

import os
import pathlib
import subprocess
import sys

import pytest

import endorank
from endorank.chains import ChainPolicy, SubstitutionRecord
from endorank.endo import Endomorphism
from endorank.errors import ArityMismatch, FieldConstructionError, RelationViolation
from endorank.fields import GF2, GF4, QQ, FieldAutomorphism, FieldElement, FieldSpec
from endorank.groebner import GroebnerBasis, Ideal, groebner_basis
from endorank.kronecker import KroneckerSystem
from endorank.mpoly import GREVLEX
from endorank.parsing import parse_polynomial
from endorank.records import record


def test_importing_the_command_loads_neither_dataclasses_nor_inspect():
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import endorank.cli\n"
        "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(endorank.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert done.stdout.strip() == "[]"


def _endo(spec, *images):
    n = len(images)
    return Endomorphism(spec, n, tuple(parse_polynomial(s, spec, n) for s in images))


def _basis():
    f = parse_polynomial("x1^2 - x2", QQ, 2)
    return groebner_basis(Ideal.of(QQ, 2, [f]), GREVLEX)


def _samples():
    return [
        FieldSpec("Fp", 5),
        FieldElement(GF4, 3),
        FieldAutomorphism(GF4, 1),
        _endo(QQ, "x1 + x2", "x2"),
        ChainPolicy(),
        SubstitutionRecord("specialize", variable=1, value=GF2.element(1)),
        _basis(),
    ]


@pytest.mark.parametrize("rec", _samples(), ids=lambda r: type(r).__name__)
def test_assignment_and_deletion_are_refused(rec):
    name = next(iter(type(rec).__annotations__))
    before = getattr(rec, name)
    with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
        setattr(rec, name, None)
    with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
        delattr(rec, name)
    with pytest.raises(AttributeError):
        rec.not_a_field = 1
    assert getattr(rec, name) is before


@pytest.mark.parametrize("rec", _samples(), ids=lambda r: type(r).__name__)
def test_equality_and_hash_are_over_the_compared_fields(rec):
    cls = type(rec)
    fields = [n for n in cls.__annotations__ if not n.startswith("_")]
    values = tuple(getattr(rec, n) for n in fields)
    copy = cls(*(getattr(rec, n) for n in cls.__annotations__))
    assert copy is not rec and copy == rec and not copy != rec
    assert hash(copy) == hash(rec) == hash(values)
    assert rec != values and (rec == values) is False
    assert rec.__eq__(values) is NotImplemented


def test_the_packed_basis_is_left_out_of_eq_hash_and_repr():
    gb = _basis()
    other = GroebnerBasis(gb.ideal, gb.order, gb.polys, ("another", "packing"))
    assert other == gb and hash(other) == hash(gb)
    assert repr(other) == repr(gb)
    assert "_packed" not in repr(gb) and "another" not in repr(other)
    assert repr(gb).startswith("GroebnerBasis(ideal=Ideal(spec=FieldSpec(Q), nvars=2, ")
    different = GroebnerBasis(gb.ideal, gb.order, gb.polys[:0], gb._packed)
    assert different != gb


def test_repr_lists_the_fields_unless_the_class_writes_its_own():
    assert repr(ChainPolicy()) == "ChainPolicy(r_max=8, seed=0)"
    assert repr(FieldAutomorphism(GF4, 1)) == (
        "FieldAutomorphism(spec=FieldSpec(F 2^2 mod t^2+t+1), e=1)"
    )
    assert repr(FieldSpec("Q")) == "FieldSpec(Q)"
    assert repr(_endo(QQ, "x2", "x1")).startswith("Endomorphism(")


def test_defaults_and_keywords():
    assert FieldSpec("Fp", p=5) == FieldSpec("Fp", 5) == FieldSpec(kind="Fp", k=1, p=5)
    assert (FieldSpec("Q").p, FieldSpec("Q").k, FieldSpec("Q").modulus) == (0, 1, ())
    assert ChainPolicy(seed=3) == ChainPolicy(8, 3) and ChainPolicy().r_max == 8
    rec = SubstitutionRecord("power", variable=1, source=2, exponent=3)
    assert (rec.value, rec.point, rec.lifted_to) == (None, None, None)
    with pytest.raises(TypeError, match=r"missing argument 'kind'"):
        FieldSpec(p=5)
    with pytest.raises(TypeError, match=r"unexpected or repeated argument 'q'"):
        FieldSpec("Fp", q=5)
    with pytest.raises(TypeError, match=r"unexpected or repeated argument 'kind'"):
        FieldSpec("Fp", kind="Q")
    with pytest.raises(TypeError, match=r"takes 2 arguments, got 3"):
        ChainPolicy(1, 2, 3)


def test_cached_properties_still_work():
    spec = FieldSpec.extension_field(2, 2, (1, 1, 1))
    h = hash(spec)
    assert spec.reduce is spec.reduce  # computed once, then read from the instance
    g = spec.generator().raw
    assert spec.mul_raw(g, g) == GF4.mul_raw(g, g) == GF4.element([1, 1]).raw
    assert hash(spec) == h and spec == GF4


def test_every_post_init_check_still_refuses_bad_input():
    x = parse_polynomial("x1", QQ, 1)
    with pytest.raises(ArityMismatch, match="2 variables but 1 images"):
        Endomorphism(QQ, 2, (x,))
    with pytest.raises(ValueError, match="r_max must be at least 1, got 0"):
        ChainPolicy(r_max=0)
    e = Endomorphism.identity(QQ, 2)
    with pytest.raises(RelationViolation, match="entry grid is not 2 x 2"):
        KroneckerSystem(QQ, 2, ((e, e),))
    with pytest.raises(FieldConstructionError, match=r"Frobenius exponent must lie in \[0, 2\)"):
        FieldAutomorphism(GF4, 2)
    with pytest.raises(FieldConstructionError, match="only the identity automorphism"):
        FieldAutomorphism(QQ, e=1)


def test_fields_named_with_an_underscore_come_last():
    with pytest.raises(TypeError, match="must come last"):

        @record
        class Bad:
            _hidden: int
            shown: int
