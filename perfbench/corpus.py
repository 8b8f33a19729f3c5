"""Seeded query corpora with references known by construction.

Every map comes from a fixed catalogue of monomial supports.  The seed draws
only the nonzero coefficients and the order of the queries, so two seeds give
corpora of the same shape and nearly the same cost.  (Random supports have an
unbounded cost tail: one seed finishes in seconds, the next runs for minutes.)
Every variable relabeling of a support is in every corpus, because the cost
of one support differs up to 20x between relabelings but only by about 10%
between coefficient draws.

References never come from endorank.  They rest on four facts:

* images f_1..f_r where f_i involves x_i with a nonzero derivative and
  otherwise only x_(i+1)..x_n have a triangular Jacobian minor that is a
  nonzero polynomial, so they are algebraically independent in every
  characteristic; adding images that are polynomials in f_1..f_r keeps the
  rank at r;
* conjugation by an automorphism preserves rank;
* a conjugated standard matrix-unit family is a base, with the
  automorphism's substitution as generators;
* upper-triangular substitutions invert by back substitution.
"""

from __future__ import annotations

import itertools
import os
import random

import algebra as A

WORKLOADS = ("elim-q", "chain-fq", "kron-conj")

# -- elim-q: rank by elimination over Q, n = 3 ----------------------------------------

# Upper-triangular automorphisms a; each term gets a fresh nonzero coefficient.
ELIM_AUTS = {
    "lin": ["x1 + x2 + x3", "x2 + x3", "x3"],
    "q1": ["x1 + x2^2", "x2 + x3^2", "x3"],
    "q2": ["x1 + x2*x3", "x2 + x3^2", "x3"],
    "q6": ["x1 + x2^2", "x2 + x3", "x3"],
}

# Maps g: triangular independent images, then images that are polynomials
# in y_i = f_i (or constants).  The rank is the number of independent images.
ELIM_MAPS = {
    "E2": (["x1*x2 + x3", "x2*x3 + x3^2"], ["y1^2 + y2"]),
    "d2c": (["x1*x3 + x2", "x2^2 + x3"], ["y1*y2 + y2"]),
    "D2": (["x1^2 + x1*x3", "x2^2 + x3"], ["y1 + y2^2"]),
    "H1": (["x1*x3 + x2", "x2^2 + x3", "x3^2"], []),
    "H5": (["x1*x2 + x2", "x2^2 + x3", "x3^2"], []),
    "d1": (["x1*x2 + x3"], ["y1^2", "0"]),
}

# Which maps each automorphism conjugates.  q1 with H1 or H5 is left out:
# either alone would cost a third of a pass.  The ROADMAP's degree-16 shape (22.7 s for
# one query) is left out because one run could not hold a corpus around it.
ELIM_PAIRS = {
    "lin": ["E2", "d2c"],
    "q1": ["E2", "d2c", "D2", "d1"],
    "q2": ["E2", "d2c", "D2", "H1", "H5", "d1"],
    "q6": ["E2", "d2c", "D2", "H1", "H5", "d1"],
}

# -- chain-fq: chains and their replay over F2, F3, F4 ---------------------------------

# u vanishes at every point of the field, so every base-field specialization
# of (u*x1, u*x2) collapses both images at once and the search needs a power
# step; with powers switched off (--r-max 1) it needs the extension lift.
VANISHING = {
    "F 2": "(x1^2 + x1)*(x2^2 + x2)",
    "F 3": "(x1^3 - x1)*(x2^3 - x2)",
    A.GF4.header: "(x1^4 + x1)*(x2^4 + x2)",
}

# Chain search drops rank one variable at a time, so these maps have exactly
# rank-many occurring variables (a conjugated map would use all n and leave
# the search nothing to drop).
CHAIN_MAPS = {
    2: {
        "t2": (["x1*x2 + x1", "x2^2 + x2"], []),
        "t2b": (["x1 + x2^2", "x2"], []),
        "d1": (["x1*x2 + x1"], ["y1^2 + y1"]),
        "d1b": (["x1^2 + x2"], ["1"]),
    },
    3: {
        "t3": (["x1 + x2*x3", "x2 + x3^2", "x3"], []),
        "t3b": (["x1*x3 + x1", "x2*x3 + x2", "x3^2 + x3"], []),
        "d2": (["x1*x2 + x1", "x2^2 + x2"], ["y1*y2"]),
        "d2b": (["x1 + x2^2", "x2"], ["1"]),
        "d1": (["x1*x2 + x3"], ["y1^2", "0"]),
    },
}

# -- kron-conj: matrix-unit families, conj and invert ----------------------------------

KRON_AUTS = {
    2: {
        "lin": ["x1 + x2", "x2"],
        "q": ["x1 + x2^2", "x2"],
        "qm": ["x1 + x2^2 + x2", "x2"],
        "c": ["x1 + x2^3", "x2"],
    },
    # (x1 + x2^2, x2 + x3^2, x3) is left out: on the two-generator family it
    # runs into the degree cap, which is an error, not an answer.
    3: {
        "q": ["x1 + x2*x3", "x2 + x3", "x3"],
        "q2": ["x1 + x3^2", "x2 + x3", "x3"],
        "c": ["x1 + x3^3", "x2", "x3"],
    },
}

KRON_CONJ_MAPS = {
    2: ["x1*x2 + x2", "x2^2"],
    3: ["x1*x2 + x3", "x2 + x3^2", "x3^2"],
}

# (field, Frobenius exponent of the automorphism's coefficient action)
KRON_FIELDS = ((A.QQ, 0), (A.GF3, 0), (A.GF4, 1))


_TAGS = {"Q": "Q", "F 2": "F2", "F 3": "F3", A.GF4.header: "F4"}


# -- construction -----------------------------------------------------------------------


class _Draw:
    """Coefficient draws for one corpus."""

    def __init__(self, seed):
        self.rng = random.Random(seed)

    def coefficients(self, F, n, template):
        f = A.parse(F, n, template)
        return {m: F.mul(c, F.random_nonzero(self.rng)) for m, c in f.items()}

    def triangular_map(self, F, n, independent, dependent):
        """Images f_1..f_r, then the dependent images as polynomials in them."""
        fs = [self.coefficients(F, n, t) for t in independent]
        r = len(fs)
        args = fs + [A.var(F, n, k) for k in range(r, n)]
        for t in dependent:
            if t in ("0", "1"):
                fs.append(A.const(F, n, F.from_int(int(t))))
            else:
                p = self.coefficients(F, n, t.replace("y", "x"))
                fs.append(A.substitute(F, p, args))
        return tuple(fs), r

    def automorphism(self, F, n, template):
        s = tuple(self.coefficients(F, n, t) for t in template)
        return s, A.triangular_inverse(F, s)


def _lines(F, images):
    return [f"x{k + 1} -> {A.to_text(F, g)}" for k, g in enumerate(images)]


def _texts(F, images):
    return [A.to_text(F, g) for g in images]


class _Writer:
    def __init__(self, workdir):
        self.workdir = workdir
        self.inputs = []

    def write(self, name, lines):
        with open(os.path.join(self.workdir, name), "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        self.inputs.append(name)
        return name

    def endo(self, name, F, images):
        return self.write(name, [f"field {F.header}", f"vars {len(images)}"] + _lines(F, images))

    def kron(self, name, F, grid, zero):
        n = len(grid)
        lines = [f"field {F.header}", f"vars {n}", f"kron {n}"]
        for i in range(n):
            for j in range(n):
                lines += [f"e {i + 1} {j + 1}"] + _lines(F, grid[i][j])
        return self.write(name, lines + ["zero"] + _lines(F, zero))

    def aut(self, name, F, delta_e, s):
        delta = "identity" if delta_e == 0 else f"frob^{delta_e}"
        return self.write(
            name, [f"field {F.header}", f"vars {len(s)}", f"delta {delta}"] + _lines(F, s)
        )


def _query(qid, argv, ref, save=None):
    q = {"id": qid, "argv": argv + ["--format", "json"], "ref": ref}
    if save is not None:
        q["save"] = save
    return q


def _elim_q(draw, out, seed):
    F, n = A.QQ, 3
    units = []
    for aut_name, maps in ELIM_PAIRS.items():
        for map_name in maps:
            for perm in itertools.permutations(range(n)):
                s, s_inv = draw.automorphism(F, n, ELIM_AUTS[aut_name])
                g, r = draw.triangular_map(F, n, *ELIM_MAPS[map_name])
                g = A.conjugate_by_permutation(g, perm)
                h = A.conjugate(F, 0, s, s_inv, g)
                qid = f"{aut_name}-{map_name}-{''.join(map(str, perm))}"
                path = out.endo(f"{qid}.endo", F, h)
                ref = {"kind": "rank", "rank": r}
                units.append([_query(qid, ["rank", path, "--method", "elim"], ref)])
    return units


def _chain_fq(draw, out, seed):
    units = []
    for F in (A.GF2, A.GF3, A.GF4):
        tag = _TAGS[F.header]
        for n in (2, 3):
            maps = []
            u = A.parse(F, n, VANISHING[F.header])
            van = tuple(A.mul(F, u, A.var(F, n, k)) for k in range(2))
            van += tuple(A.const(F, n, F.one()) for _ in range(n - 2))
            maps.append(("van", van, 2, []))
            if F is not A.GF4:  # GF(4) has no stock extension to lift to
                maps.append(("lift", van, 2, ["--r-max", "1"]))
            for name, (ind, dep) in CHAIN_MAPS[n].items():
                maps.append((name, None, len(ind), (ind, dep)))
            for name, g, r, extra in maps:
                for perm in itertools.permutations(range(n)):
                    if g is None:
                        images, _ = draw.triangular_map(F, n, *extra)
                        flags = []
                    else:
                        images, flags = g, extra
                    images = A.conjugate_by_permutation(images, perm)
                    qid = f"{tag}-n{n}-{name}-{''.join(map(str, perm))}"
                    path = out.endo(f"{qid}.endo", F, images)
                    cert = f"{qid}.chain.json"
                    build = _query(
                        qid,
                        ["chain", path, "--seed", str(seed)] + flags,
                        {"kind": "chain", "rank": r, "field": F.header, "start": _texts(F, images)},
                        save=cert,
                    )
                    verify = _query(
                        f"{qid}-verify", ["chain", cert, "--verify"], {"kind": "chain-verify", "rank": r}
                    )
                    units.append([build, verify])
    return units


def _family(F, n, z):
    """Matrix units e_ij: x_j -> z_i, every other variable -> 0."""
    grid = [[tuple(z[i] if k == j else {} for k in range(n)) for j in range(n)] for i in range(n)]
    return grid, tuple({} for _ in range(n))


def _kron_conj(draw, out, seed):
    units = []
    for F, e in KRON_FIELDS:
        tag = _TAGS[F.header]
        for n in (2, 3):
            xs = [A.var(F, n, i) for i in range(n)]
            standard = _family(F, n, xs)
            # u = x1 + x1*x2 generates a subbase whose subalgebra misses x1.
            two = _family(F, n, [A.add(F, xs[0], A.mul(F, xs[0], xs[1]))] + xs[1:])
            for aut_name, template in KRON_AUTS[n].items():
                s, s_inv = draw.automorphism(F, n, template)
                qid = f"{tag}-n{n}-{aut_name}"

                def conj(images):
                    return A.conjugate(F, e, s, s_inv, images)

                zero = conj(standard[1])
                files = {}
                for fam, (grid, z) in (("std", standard), ("two", two)):
                    cgrid = [[conj(entry) for entry in row] for row in grid]
                    files[fam] = out.kron(f"{qid}-{fam}.kron", F, cgrid, conj(z))
                n_checks = n**4 + 2 * n * n
                verify = {"kind": "kron-verify", "field": F.header, "n": n,
                          "relations": n_checks, "zero": _texts(F, zero)}
                classify = {"kind": "kron-classify", "classification": "nonsingular"}
                lc = A.leading_coefficient(s[0])
                normalized = [A.scale(F, si, F.inv(lc)) for si in s]
                for fam in ("std", "two"):
                    path = files[fam]
                    units.append([_query(f"{qid}-{fam}-verify", ["kron-verify", path], verify)])
                    units.append([_query(f"{qid}-{fam}-classify", ["kron-classify", path], classify)])
                    base = {"kind": "kron-base", "field": F.header, "n": n, "is_base": fam == "std"}
                    units.append([_query(f"{qid}-{fam}-base", ["kron-base", path], base)])
                # kron-normalize on the two-generator family exits 1 by design
                # ("not a base; nothing to normalize"), so it is not queried.
                units.append([_query(
                    f"{qid}-std-normalize", ["kron-normalize", files["std"]],
                    {"kind": "kron-normalize", "field": F.header, "n": n,
                     "generators": _texts(F, normalized)},
                )])
                aut_path = out.aut(f"{qid}.aut", F, e, s)
                g = tuple(draw.coefficients(F, n, t) for t in KRON_CONJ_MAPS[n])
                g_path = out.endo(f"{qid}-g.endo", F, g)
                units.append([_query(
                    f"{qid}-conj", ["conj", aut_path, g_path],
                    {"kind": "conj", "field": F.header, "n": n, "inner": e == 0,
                     "conjugated": _texts(F, conj(g))},
                )])
                s_path = out.endo(f"{qid}-s.endo", F, s)
                units.append([_query(
                    f"{qid}-invert", ["invert", s_path],
                    {"kind": "invert", "field": F.header, "n": n, "inverse": _texts(F, s_inv)},
                )])
    return units


_BUILDERS = {"elim-q": _elim_q, "chain-fq": _chain_fq, "kron-conj": _kron_conj}


def build(workload, seed, workdir):
    """Write the workload's input files into workdir and return
    (input file names, queries in run order)."""
    draw = _Draw(seed)
    out = _Writer(workdir)
    units = _BUILDERS[workload](draw, out, seed)
    draw.rng.shuffle(units)
    return out.inputs, [q for unit in units for q in unit]
