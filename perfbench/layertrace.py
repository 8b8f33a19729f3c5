"""Tracing of endorank from outside: spans and counters installed by
rebinding names, with no change to the program.

A function is rebound in every module that imported it, not only where it is
defined: `rank` is reached through endo, chains, kronecker, autgroup and
cli, and `mono_*` through mpoly and groebner.  Each binding gets its own
wrapper, so a span also records which module made the call ("via").

Two passes, never combined:

* spans: one span per call into a public function or selected method of the
  program layers (cli, parsing, autgroup, kronecker, chains, endo,
  groebner, mpoly).  Spans are kept in flat arrays and written out at the
  end; a layer's self time is its spans' durations minus their children's.
* counts: bare call counters on the hot field and monomial operations,
  whose wrapper cost would otherwise swamp span self times.
"""

from __future__ import annotations

import inspect
import sys
import time
from array import array

LAYERS = ("cli", "parsing", "autgroup", "kronecker", "chains", "endo", "groebner", "mpoly")

# Called in the innermost loops; counted in the count pass instead.
_NOT_SPANNED = {"degree_cap", "get_budget", "mono_mul", "mono_divides", "mono_div",
                "mono_lcm", "mono_degree", "set_degree_cap"}

# Public methods that carry a layer's work (module functions are found by
# inspection).  Static methods are marked.
_METHODS = {
    "mpoly": {"MultiPoly": ("__add__", "__sub__", "__neg__", "__mul__", "__pow__", "scale",
                            "evaluate", "substitute", "partial_derivative", "*from_terms")},
    "autgroup": {"SemiLinearAut": ("*create", "apply", "inverse")},
    "endo": {"Endomorphism": ("apply", "point_map")},
}

MONO_OPS = ("mono_mul", "mono_divides", "mono_div", "mono_lcm", "mono_degree")
FIELD_OPS = {"mul_raw": "mul", "add_raw": "addsub", "sub_raw": "addsub", "inv_raw": "inv"}


def _modules():
    import endorank
    import endorank.cli  # noqa: F401  (imports every layer)

    return endorank, {name: sys.modules[f"endorank.{name}"] for name in LAYERS}


def _public_functions(mod):
    for name, obj in vars(mod).items():
        if name.startswith("_") or name in _NOT_SPANNED:
            continue
        target = getattr(obj, "__wrapped__", obj)  # lru_cache objects
        if not callable(obj) or inspect.isclass(obj):
            continue
        if getattr(target, "__module__", None) != mod.__name__:
            continue
        if inspect.isgeneratorfunction(target):
            continue  # a span would end when the generator is created
        yield name, obj


class Spans:
    """Span recorder.  Span k has parent[k] (-1 at the top), name[k] and
    via[k] as indices into self.names, start[k] and end[k] in ns, and
    ok[k] = 0 when the call raised."""

    def __init__(self):
        self.parent = array("q")
        self.name = array("l")
        self.via = array("l")
        self.start = array("q")
        self.end = array("q")
        self.ok = array("b")
        self.names = []
        self.stack = [-1]
        self.mul_term_pairs = 0

    def _index(self, label):
        if label not in self.names:
            self.names.append(label)
        return self.names.index(label)

    def wrap(self, fn, label, via):
        name_id, via_id = self._index(label), self._index(via)
        parent, name, via_a, start, end, ok = (
            self.parent, self.name, self.via, self.start, self.end, self.ok)
        stack = self.stack
        clock = time.perf_counter_ns

        def span(*args, **kwargs):
            sid = len(start)
            parent.append(stack[-1])
            name.append(name_id)
            via_a.append(via_id)
            end.append(0)
            ok.append(0)
            stack.append(sid)
            start.append(clock())
            try:
                out = fn(*args, **kwargs)
                ok[sid] = 1
                return out
            finally:
                end[sid] = clock()
                stack.pop()

        return span

    def wrap_mul(self, fn):
        """MultiPoly.__mul__ also tallies the term pairs it multiplies."""
        rec = self

        def mul(a, b):
            rec.mul_term_pairs += len(a.terms) * len(b.terms)
            return fn(a, b)

        return mul

    def install(self):
        package, mods = _modules()
        wrappers = {}
        for layer, mod in mods.items():
            for name, obj in list(_public_functions(mod)):
                wrappers[id(obj)] = (obj, f"{layer}.{name}")
        for via, mod in list(mods.items()) + [("endorank", package)]:
            for name, obj in list(vars(mod).items()):
                if id(obj) in wrappers and wrappers[id(obj)][0] is obj:
                    setattr(mod, name, self.wrap(obj, wrappers[id(obj)][1], via))
        for layer, classes in _METHODS.items():
            for cls_name, methods in classes.items():
                cls = getattr(mods[layer], cls_name)
                for m in methods:
                    static = m.startswith("*")
                    m = m.lstrip("*")
                    fn = cls.__dict__[m].__func__ if static else cls.__dict__[m]
                    if m == "__mul__":
                        fn = self.wrap_mul(fn)
                    w = self.wrap(fn, f"{layer}.{cls_name}.{m}", layer)
                    setattr(cls, m, staticmethod(w) if static else w)

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tparent\tname\tvia\tstart_ns\tend_ns\tok\n")
            for k in range(len(self.start)):
                fh.write(f"{k}\t{self.parent[k]}\t{self.names[self.name[k]]}\t"
                         f"{self.names[self.via[k]]}\t{self.start[k]}\t{self.end[k]}\t{self.ok[k]}\n")

    def summary(self):
        """Per-layer self time, per-label call counts and inclusive times,
        and the chain-search rank calls."""
        n = len(self.start)
        dur = [self.end[k] - self.start[k] for k in range(n)]
        child = [0] * n
        for k in range(n):
            p = self.parent[k]
            if p >= 0:
                child[p] += dur[k]
        self_ns = dict.fromkeys(LAYERS, 0)
        calls, incl, via_calls = {}, {}, {}
        for k in range(n):
            label = self.names[self.name[k]]
            via = f"{label}@{self.names[self.via[k]]}"
            self_ns[label.split(".", 1)[0]] += dur[k] - child[k]
            calls[label] = calls.get(label, 0) + 1
            incl[label] = incl.get(label, 0) + dur[k]
            via_calls[via] = via_calls.get(via, 0) + 1
        # Rank calls made by the chain search: endo.rank spans under
        # chains.build_full_chain, against the steps the search accepted.
        index = {label: k for k, label in enumerate(self.names)}
        build = index.get("chains.build_full_chain", -1)
        rank = index.get("endo.rank", -1)
        step = index.get("chains.reduce_rank_once", -1)
        search_ranks = 0
        steps = 0
        for k in range(n):
            if self.name[k] == step and self.ok[k]:
                steps += 1
            if self.name[k] != rank:
                continue
            p = self.parent[k]
            while p >= 0 and self.name[p] != build:
                p = self.parent[p]
            if p >= 0:
                search_ranks += 1
        return {
            "spans": n,
            "self_s": {layer: v / 1e9 for layer, v in self_ns.items()},
            "calls": calls,
            "incl_s": {label: v / 1e9 for label, v in incl.items()},
            "via_calls": via_calls,
            "search_rank_calls": search_ranks,
            "accepted_steps": steps,
            "mul_term_pairs": self.mul_term_pairs,
        }


class Counts:
    """Bare call counters on field and monomial operations, the largest
    polynomial built, and what the finished Groebner bases look like."""

    def __init__(self):
        self.c = {"fields.mul_calls": 0, "fields.addsub_calls": 0, "fields.inv_calls": 0,
                  "mpoly.order_key_calls": 0, "mpoly.mono_op_calls": 0}
        self.max_terms = 0
        self.max_basis_len = 0
        self.q_max_coeff_bits = 0

    def _poly_init(self, fn):
        rec = self

        def __init__(poly, spec, nvars, terms):
            fn(poly, spec, nvars, terms)
            if len(terms) > rec.max_terms:
                rec.max_terms = len(terms)

        return __init__

    def _counted(self, fn, key):
        c = self.c

        def counted(*args):
            c[key] += 1
            return fn(*args)

        return counted

    def _basis(self, fn):
        rec = self

        def groebner_basis(*args, **kwargs):
            gb = fn(*args, **kwargs)
            rec.max_basis_len = max(rec.max_basis_len, len(gb.polys))
            if gb.ideal.spec.kind == "Q":
                for g in gb.polys:
                    for c in g.terms.values():
                        bits = max(c.numerator.bit_length(), c.denominator.bit_length())
                        if bits > rec.q_max_coeff_bits:
                            rec.q_max_coeff_bits = bits
            return gb

        return groebner_basis

    def install(self):
        _, mods = _modules()
        from endorank.fields import FieldSpec
        from endorank.mpoly import MonomialOrder, MultiPoly

        for meth, kind in FIELD_OPS.items():
            setattr(FieldSpec, meth, self._counted(getattr(FieldSpec, meth), f"fields.{kind}_calls"))
        MonomialOrder.key = self._counted(MonomialOrder.key, "mpoly.order_key_calls")
        MultiPoly.__init__ = self._poly_init(MultiPoly.__init__)
        for mod in mods.values():
            for name in MONO_OPS:
                if name in vars(mod):
                    setattr(mod, name, self._counted(getattr(mod, name), "mpoly.mono_op_calls"))
        gb = mods["groebner"].groebner_basis
        wrapped = self._basis(gb)
        for mod in mods.values():
            for name, obj in list(vars(mod).items()):
                if obj is gb:
                    setattr(mod, name, wrapped)

    def summary(self):
        out = dict(self.c)
        out["mpoly.max_terms"] = self.max_terms
        out["groebner.max_basis_len"] = self.max_basis_len
        out["fields.q_max_coeff_bits"] = self.q_max_coeff_bits
        return out
