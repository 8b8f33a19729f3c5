"""Check each CLI answer against the reference the corpus built for it.

Polynomials are compared as parsed values (benchmark-side arithmetic), so a
change to endorank's printing that keeps the value passes here; the payload
digests catch byte-level drift separately.
"""

from __future__ import annotations

import json

import algebra as A


def _polys(F, n, texts):
    return [A.parse(F, n, t) for t in texts]


def _xs(F, n):
    return [A.var(F, n, k) for k in range(n)]


def _witnesses_ok(F, n, generators, witnesses):
    gens = _polys(F, n, generators)
    return [A.substitute(F, w, gens) for w in _polys(F, n, witnesses)] == _xs(F, n)


def _rank(ref, p):
    if p["rank"] != ref["rank"] or p["method"] != "elimination":
        return f"rank {p['rank']} by {p['method']}, want {ref['rank']} by elimination"


def _chain(ref, p):
    r = ref["rank"]
    F = A.FIELDS[ref["field"]]
    if p["length"] != r or not p["complete"]:
        return f"chain length {p['length']} (complete={p['complete']}), want {r}"
    ranks = [(st["rank_before"], st["rank_after"]) for st in p["steps"]]
    if ranks != [(k, k - 1) for k in range(r, 0, -1)]:
        return f"step ranks {ranks} do not count down from {r}"
    n = p["vars"]
    if _polys(F, n, p["start"]) != _polys(F, n, ref["start"]):
        return "chain start differs from the input map"


def _chain_verify(ref, p):
    want = list(range(ref["rank"], -1, -1))
    if not p["ok"] or p["ranks"] != want or p["problems"]:
        return f"replay ok={p['ok']} ranks={p['ranks']} problems={p['problems']}, want ranks {want}"


def _kron_verify(ref, p):
    F, n = A.FIELDS[ref["field"]], ref["n"]
    if not p["ok"] or p["problems"]:
        return f"subbase audit failed: {p['problems']}"
    if p["relations_checked"] != ref["relations"]:
        return f"{p['relations_checked']} relations checked, want {ref['relations']}"
    if _polys(F, n, p["zero"]) != _polys(F, n, ref["zero"]):
        return "common zero differs from the conjugated zero map"


def _kron_classify(ref, p):
    if p["classification"] != ref["classification"]:
        return f"classified {p['classification']}, want {ref['classification']}"


def _kron_base(ref, p):
    F, n = A.FIELDS[ref["field"]], ref["n"]
    if p["is_base"] != ref["is_base"]:
        return f"is_base {p['is_base']}, want {ref['is_base']}"
    if ref["is_base"]:
        if p["missing"] or not _witnesses_ok(F, n, p["generators"], p["witnesses"]):
            return "base witnesses do not substitute back to the variables"
    elif p["missing"] != [1] or p["failing_generator_membership"] != "x1":
        # Only a^-1(x1) involves x1, with a constant coefficient that
        # 1 + x2 cannot divide, so x1 alone is missing.
        return f"missing {p['missing']}, want [1]"


def _kron_normalize(ref, p):
    F, n = A.FIELDS[ref["field"]], ref["n"]
    if not p["normalized"]:
        return "certificate not normalized"
    if _polys(F, n, p["generators"]) != _polys(F, n, ref["generators"]):
        return "normalized generators differ from s scaled to a monic s_1"
    if not _witnesses_ok(F, n, p["generators"], p["witnesses"]):
        return "normalized witnesses do not substitute back to the variables"


def _conj(ref, p):
    F, n = A.FIELDS[ref["field"]], ref["n"]
    if p["inner"] != ref["inner"]:
        return f"inner {p['inner']}, want {ref['inner']}"
    if _polys(F, n, p["conjugated"]) != _polys(F, n, ref["conjugated"]):
        return "conjugate differs from a . g . a^-1"


def _invert(ref, p):
    F, n = A.FIELDS[ref["field"]], ref["n"]
    if not p["invertible"] or _polys(F, n, p["inverse"]) != _polys(F, n, ref["inverse"]):
        return "inverse differs from the back-substituted inverse"


_CHECKS = {
    "rank": _rank,
    "chain": _chain,
    "chain-verify": _chain_verify,
    "kron-verify": _kron_verify,
    "kron-classify": _kron_classify,
    "kron-base": _kron_base,
    "kron-normalize": _kron_normalize,
    "conj": _conj,
    "invert": _invert,
}


def problem(ref, exit_code, stdout):
    """None when the answer matches the reference, else what is wrong."""
    if exit_code != 0:
        return f"exit {exit_code}"
    try:
        payload = json.loads(stdout)
        return _CHECKS[ref["kind"]](ref, payload)
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable payload: {type(exc).__name__}: {exc}"
