"""Seeded random scalars, polynomials and endomorphisms, used by the
conjugation checker and the test corpora (a random point is a tuple of
random_scalar values).

Everything takes an explicit random.Random so callers stay reproducible.
Polynomials come out sparse with small coefficients and degrees, which keeps
the exact Groebner machinery downstream comfortably fast.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .endo import Endomorphism
from .fields import FieldElement, FieldSpec
from .mpoly import MultiPoly


def random_scalar(rng: random.Random, spec: FieldSpec) -> FieldElement:
    if spec.kind == "Q":
        return spec.element(Fraction(rng.randint(-4, 4)))
    if spec.kind == "Fp":
        return spec.element(rng.randrange(spec.p))
    return spec.element(tuple(rng.randrange(spec.p) for _ in range(spec.k)))


def random_nonzero_scalar(rng: random.Random, spec: FieldSpec) -> FieldElement:
    while True:
        c = random_scalar(rng, spec)
        if not c.is_zero:
            return c


def random_monomial(rng: random.Random, nvars: int, max_degree: int) -> tuple:
    degree = rng.randint(0, max_degree)
    exps = [0] * nvars
    for _ in range(degree):
        exps[rng.randrange(nvars)] += 1
    return tuple(exps)


def random_polynomial(
    rng: random.Random,
    spec: FieldSpec,
    nvars: int,
    max_degree: int = 3,
    max_terms: int = 3,
    nonzero: bool = False,
) -> MultiPoly:
    """A sparse random polynomial: up to max_terms monomials of total degree
    at most max_degree with small coefficients."""
    while True:
        items = []
        for _ in range(rng.randint(0 if not nonzero else 1, max_terms)):
            c = random_nonzero_scalar(rng, spec)
            items.append((random_monomial(rng, nvars, max_degree), c.raw))
        f = MultiPoly.from_terms(spec, nvars, items)
        if not nonzero or not f.is_zero:
            return f


def random_endomorphism(
    rng: random.Random,
    spec: FieldSpec,
    nvars: int,
    max_degree: int = 3,
    max_terms: int = 3,
) -> Endomorphism:
    return Endomorphism(
        spec,
        nvars,
        tuple(
            random_polynomial(rng, spec, nvars, max_degree, max_terms)
            for _ in range(nvars)
        ),
    )
