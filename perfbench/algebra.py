"""Exact arithmetic of the benchmark's own, independent of endorank.

The corpus generator builds every input map and every reference answer
with this module, and the checker parses endorank's printed polynomials
back with it, so no reference is ever computed by the program under test.

A polynomial is a dict from exponent tuple to nonzero coefficient.  The
fields are Q (Fraction), GF(p) (int in [0, p)) and GF(4) = GF(2)[t]/(t^2+t+1)
(a pair (a0, a1) meaning a0 + a1*t).
"""

from __future__ import annotations

import re
from fractions import Fraction


class Rationals:
    header = "Q"
    is_finite = False

    def zero(self):
        return Fraction(0)

    def one(self):
        return Fraction(1)

    def add(self, a, b):
        return a + b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def inv(self, a):
        return 1 / a

    def from_int(self, n):
        return Fraction(n)

    def frob(self, a, e):
        return a

    def text(self, a):
        return f"({a})"

    def random_nonzero(self, rng):
        # Small integers: across seeds they keep the bit growth of the bases
        # within a few percent; drawing halves too spread it by 13%.
        return Fraction(rng.choice((-3, -2, -1, 1, 2, 3)))


class PrimeField:
    is_finite = True

    def __init__(self, p):
        self.p = p
        self.header = f"F {p}"

    def zero(self):
        return 0

    def one(self):
        return 1

    def add(self, a, b):
        return (a + b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def inv(self, a):
        return pow(a, -1, self.p)

    def from_int(self, n):
        return n % self.p

    def frob(self, a, e):
        return a

    def text(self, a):
        return str(a)

    def random_nonzero(self, rng):
        return rng.randrange(1, self.p)


class GF4Field:
    """GF(2)[t]/(t^2 + t + 1); the header matches endorank's stock GF4."""

    header = "F 2^2 mod t^2+t+1"
    is_finite = True

    def zero(self):
        return (0, 0)

    def one(self):
        return (1, 0)

    def add(self, a, b):
        return (a[0] ^ b[0], a[1] ^ b[1])

    def neg(self, a):
        return a

    def mul(self, a, b):
        # (a0 + a1 t)(b0 + b1 t) with t^2 = t + 1.
        c0 = (a[0] & b[0]) ^ (a[1] & b[1])
        c1 = (a[0] & b[1]) ^ (a[1] & b[0]) ^ (a[1] & b[1])
        return (c0, c1)

    def inv(self, a):
        for c in ((1, 0), (0, 1), (1, 1)):
            if self.mul(a, c) == (1, 0):
                return c
        raise ZeroDivisionError("inverse of zero in GF(4)")

    def from_int(self, n):
        return (n % 2, 0)

    def frob(self, a, e):
        for _ in range(e % 2):
            a = self.mul(a, a)
        return a

    def text(self, a):
        parts = (["t"] if a[1] else []) + (["1"] if a[0] else [])
        return "(" + ("+".join(parts) or "0") + ")"

    def random_nonzero(self, rng):
        return rng.choice(((1, 0), (0, 1), (1, 1)))


QQ = Rationals()
GF2 = PrimeField(2)
GF3 = PrimeField(3)
GF4 = GF4Field()
FIELDS = {f.header: f for f in (QQ, GF2, GF3, GF4)}


# -- polynomials ----------------------------------------------------------------


def const(F, n, c):
    return {} if c == F.zero() else {(0,) * n: c}


def var(F, n, i):
    """x_(i+1) as a polynomial in n variables."""
    return {tuple(int(k == i) for k in range(n)): F.one()}


def add(F, f, g):
    out = dict(f)
    for m, c in g.items():
        s = F.add(out[m], c) if m in out else c
        if s == F.zero():
            out.pop(m, None)
        else:
            out[m] = s
    return out


def neg(F, f):
    return {m: F.neg(c) for m, c in f.items()}


def sub(F, f, g):
    return add(F, f, neg(F, g))


def scale(F, f, c):
    if c == F.zero():
        return {}
    return {m: F.mul(v, c) for m, v in f.items()}


def mul(F, f, g):
    out = {}
    for m1, c1 in f.items():
        for m2, c2 in g.items():
            m = tuple(a + b for a, b in zip(m1, m2))
            c = F.mul(c1, c2)
            s = F.add(out[m], c) if m in out else c
            if s == F.zero():
                out.pop(m, None)
            else:
                out[m] = s
    return out


def power(F, f, e, n):
    out = const(F, n, F.one())
    for _ in range(e):
        out = mul(F, out, f)
    return out


def substitute(F, f, images):
    """f(images[0], .., images[-1]) for a square map: the images live in as
    many variables as there are images."""
    target = len(images)
    pows = {}
    total = {}
    for m, c in f.items():
        acc = const(F, target, c)
        for i, e in enumerate(m):
            if e:
                if (i, e) not in pows:
                    pows[(i, e)] = power(F, images[i], e, target)
                acc = mul(F, acc, pows[(i, e)])
        total = add(F, total, acc)
    return total


def frob(F, f, e):
    return {m: F.frob(c, e) for m, c in f.items()}


def grevlex_key(m):
    return (sum(m), tuple(-e for e in reversed(m)))


def leading_coefficient(f):
    return f[max(f, key=grevlex_key)]


def permute(f, perm):
    """Rename x_(i+1) to x_(perm[i]+1)."""
    out = {}
    for m, c in f.items():
        mm = [0] * len(m)
        for i, e in enumerate(m):
            mm[perm[i]] = e
        out[tuple(mm)] = c
    return out


def conjugate_by_permutation(images, perm):
    """P g P^-1 for the variable permutation perm: rename variables in every
    image and move image k to position perm[k]."""
    out = [None] * len(images)
    for k, g in enumerate(images):
        out[perm[k]] = permute(g, perm)
    return tuple(out)


# -- triangular automorphisms ------------------------------------------------------


def triangular_inverse(F, s):
    """Inverse of s_k = c_k x_k + q_k(x_(k+1), .., x_n), solved from the last
    variable up: x_k = c_k^-1 (x_k - q_k(inverse images of later x))."""
    n = len(s)
    inv = [var(F, n, i) for i in range(n)]
    for k in range(n - 1, -1, -1):
        lead = tuple(int(i == k) for i in range(n))
        tail = {m: v for m, v in s[k].items() if m != lead}
        if lead not in s[k] or any(m[i] for m in tail for i in range(k + 1)):
            raise ValueError("substitution is not upper triangular")
        inv[k] = scale(F, sub(F, var(F, n, k), substitute(F, tail, inv)), F.inv(s[k][lead]))
    return tuple(inv)


def conjugate(F, delta_e, s, s_inv, g):
    """a . g . a^-1 for the semi-linear automorphism a(f) = f^delta(s), image
    by image: x_k -> delta( delta^-1(s_inv_k)(g) )(s)."""
    order = 2 if F is GF4 else 1
    d_inv = (order - delta_e) % order
    out = []
    for k in range(len(s)):
        u = frob(F, s_inv[k], d_inv)
        v = substitute(F, u, g)
        out.append(substitute(F, frob(F, v, delta_e), s))
    return tuple(out)


# -- text --------------------------------------------------------------------------


def to_text(F, f):
    """Any text endorank's grammar accepts; not its canonical form."""
    if not f:
        return "0"
    terms = []
    for m in sorted(f, key=grevlex_key, reverse=True):
        factors = [F.text(f[m])]
        factors += [
            f"x{i + 1}" if e == 1 else f"x{i + 1}^{e}" for i, e in enumerate(m) if e
        ]
        terms.append("*".join(factors))
    return " + ".join(terms)


_TOKEN = re.compile(r"\d+|x\d+|t|\S")


def parse(F, n, text):
    """Parse a polynomial in endorank's grammar (+ - * ^ / and parentheses)."""
    toks = []
    for tok in _TOKEN.findall(text):
        if tok.isdigit():
            toks.append(("int", int(tok)))
        elif tok == "t" or tok[0] == "x":
            toks.append(("name", tok))
        else:
            toks.append((tok, tok))
    toks.append(("end", None))
    pos = 0

    def peek():
        return toks[pos][0]

    def take():
        nonlocal pos
        pos += 1
        return toks[pos - 1]

    def expr():
        f = term()
        while peek() in "+-":
            op = take()[0]
            g = term()
            f = add(F, f, g) if op == "+" else sub(F, f, g)
        return f

    def term():
        f = factor()
        while peek() == "*":
            take()
            f = mul(F, f, factor())
        return f

    def factor():
        if peek() == "-":
            take()
            return neg(F, factor())
        f = primary()
        if peek() == "^":
            take()
            f = power(F, f, take()[1], n)
        return f

    def primary():
        kind, val = take()
        if kind == "int":
            if peek() == "/":
                take()
                return const(F, n, Fraction(val, take()[1]))
            return const(F, n, F.from_int(val))
        if kind == "name":
            if val == "t":
                return const(F, n, (0, 1))
            return var(F, n, int(val[1:]) - 1)
        if kind == "(":
            f = expr()
            if take()[0] != ")":
                raise ValueError(f"unbalanced parentheses in {text!r}")
            return f
        raise ValueError(f"unexpected token {val!r} in {text!r}")

    f = expr()
    if peek() != "end":
        raise ValueError(f"trailing input in {text!r}")
    return f
