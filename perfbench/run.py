"""Benchmark runner for endorank's CLI queries.

    python3 perfbench/run.py --workload elim-q|chain-fq|kron-conj \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout (the directory holding src/endorank).  The
corpus is generated from the seed into perfbench/_work/, then each pass runs
the whole corpus in a fresh single-threaded worker process, one pass after
another.  Every answer is checked against its reference; every pass must
print byte-identical payloads.

--trace 0 repeats passes until --seconds would be exceeded (at least three)
and reports the end-to-end metrics.  --trace 1 runs one plain pass, one
span pass and one count pass and reports the per-layer metrics.  The last
line of standard output is one JSON object; a readable summary goes to
standard error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import check  # noqa: E402
import corpus  # noqa: E402

MIN_PASSES = 3
# Speed-probe time that defines the reference speed: every reported time is
# the measured time scaled by REF_PROBE_S / (the probes taken beside it).
REF_PROBE_S = 0.003
PASS_TIMEOUT_S = 150  # a worker that takes longer fails the run

# Per-layer metrics that must be nonzero on a workload that exercises them;
# zero means a span or counter is no longer reached.
_COMMON = [
    "cli.self_s", "parsing.self_s", "parsing.format_calls", "endo.self_s", "endo.rank_calls",
    "endo.relation_ideal_calls", "groebner.self_s", "groebner.basis_calls",
    "groebner.bases_computed", "groebner.max_basis_len", "mpoly.self_s", "mpoly.mul_calls",
    "mpoly.mul_term_pairs", "mpoly.order_key_calls", "mpoly.mono_op_calls", "mpoly.max_terms",
    "fields.mul_calls", "fields.addsub_calls", "fields.inv_calls",
]
EXPECTED = {
    "elim-q": _COMMON + ["fields.q_max_coeff_bits"],
    "chain-fq": _COMMON + [
        "chains.self_s", "chains.verify_s", "chains.rank_calls_per_step", "chains.accepted_steps",
        "endo.compare_calls", "endo.compose_calls", "mpoly.substitute_calls",
        "groebner.cache_hit_ratio", "groebner.normal_form_calls",
    ],
    "kron-conj": _COMMON + [
        "kronecker.self_s", "kronecker.compose_calls", "autgroup.self_s", "autgroup.create_s",
        "autgroup.conjugate_calls", "endo.compose_calls", "groebner.membership_calls",
        "groebner.normal_form_calls", "groebner.cache_hit_ratio", "mpoly.substitute_calls",
        "fields.q_max_coeff_bits",
    ],
}

UNITS = {"_s": "s", "_ratio": "ratio", "_bits": "bits", "_step": "ratio"}
UNITS_E2E = {"wall_s": "s", "query_p50_ms": "ms", "query_p90_ms": "ms", "setup_s": "s",
             "peak_rss_mb": "MB"}


class RunFailed(Exception):
    pass


def _unit(name):
    for suffix, unit in UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


def _worker_env(root):
    env = {k: v for k, v in os.environ.items() if k not in ("ENDORANK_BUDGET", "PYTHONPATH")}
    env["PYTHONPATH"] = os.path.join(root, "src")
    return env


def _run_pass(mode, workdir, env, index, deadline):
    out = os.path.join(workdir, f"pass-{index}-{mode}.json")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--mode", mode, "--out", out]
    timeout = max(5.0, deadline - time.monotonic())
    try:
        proc = subprocess.run(cmd, cwd=workdir, env=env, timeout=timeout,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    except subprocess.TimeoutExpired as exc:
        raise RunFailed(f"{mode} pass did not finish within {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise RunFailed(f"{mode} worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    if mode == "warmup":
        return None
    with open(out, encoding="utf-8") as fh:
        return json.load(fh)


def _digests(report):
    return [hashlib.sha256(r["stdout"].encode()).hexdigest() for r in report["results"]]


def _grade(queries, passes):
    """(wrong answers, failed executions, attempted executions, problems).
    The first pass is checked against the references; every later pass
    must reproduce its payloads byte for byte."""
    problems = []
    first = passes[0]["results"]
    for q, res in zip(queries, first):
        p = check.problem(q["ref"], res["exit"], res["stdout"])
        if p:
            problems.append(f"{q['id']}: {p} {' '.join(res['stderr_tail'])}".strip())
    want = _digests(passes[0])
    for k, rep in enumerate(passes[1:], start=2):
        for q, a, b in zip(queries, want, _digests(rep)):
            if a != b:
                problems.append(f"{q['id']}: pass {k} printed a different payload")
    failed = sum(r["exit"] != 0 for rep in passes for r in rep["results"])
    attempted = sum(len(rep["results"]) for rep in passes)
    return len(problems), failed, attempted, problems


def normalized(report):
    """(per-query latencies, set-up time) at the reference speed.  A query
    is scaled by the mean of the probes taken just before and just after
    it; set-up by the first probe.  A failed query counts as +inf."""
    probes = report["probes_s"]
    lat = []
    for r in report["results"]:
        k = r["probe"]
        scale = REF_PROBE_S / ((probes[k] + probes[k + 1]) / 2)
        lat.append(math.inf if r["exit"] else r["latency_s"] * scale)
    return lat, report["setup_s"] * REF_PROBE_S / probes[0]


def _quantile(sorted_values, q, half_width=0.05):
    """Mean of the values ranked within q +- half_width.  Latencies of a
    fixed catalogue bunch into steps, and a single order statistic that sits
    on a step jumps by 15% between seeds; the window average does not."""
    n = len(sorted_values)
    lo = max(0, math.floor((q - half_width) * n))
    hi = min(n, math.ceil((q + half_width) * n))
    return statistics.fmean(sorted_values[lo:hi])


def end_to_end(passes):
    """Each query's latency is its median over the passes at the reference
    speed; wall_s is the corpus total of those medians."""
    norm = [normalized(rep) for rep in passes]
    per_query = sorted(statistics.median(lat) * 1e3 for lat in zip(*(n[0] for n in norm)))
    return {
        "wall_s": sum(per_query) / 1e3,
        "query_p50_ms": _quantile(per_query, 0.5),
        "query_p90_ms": _quantile(per_query, 0.9),
        "setup_s": statistics.median(n[1] for n in norm),
        "peak_rss_mb": statistics.median(rep["peak_rss_mb"] for rep in passes),
    }


def per_layer(plain, spans, counts):
    t = spans["trace"]
    calls, incl = t["calls"], t["incl_s"]
    exits = [r["exit"] for r in plain["results"]]
    basis_calls = calls.get("groebner.groebner_basis", 0)
    bases = spans["bases_computed"]
    steps = t["accepted_steps"]
    m = {f"{layer}.self_s": v for layer, v in t["self_s"].items()}
    m.update({
        "cli.exit1": exits.count(1),
        "cli.exit2": exits.count(2),
        "parsing.format_calls": sum(v for k, v in calls.items() if k.startswith("parsing.format_")),
        "autgroup.create_s": incl.get("autgroup.SemiLinearAut.create", 0.0),
        "autgroup.conjugate_calls": calls.get("autgroup.conjugate", 0),
        "kronecker.compose_calls": t["via_calls"].get("endo.compose@kronecker", 0),
        "chains.verify_s": incl.get("chains.verify_chain", 0.0),
        "chains.accepted_steps": steps,
        "chains.rank_calls_per_step": t["search_rank_calls"] / steps if steps else 0.0,
        "endo.rank_calls": calls.get("endo.rank", 0),
        "endo.compare_calls": calls.get("endo.compare", 0),
        "endo.compose_calls": calls.get("endo.compose", 0),
        "endo.relation_ideal_calls": calls.get("endo.relation_ideal", 0),
        "groebner.basis_calls": basis_calls,
        "groebner.bases_computed": bases,
        "groebner.cache_hit_ratio": (basis_calls - bases) / basis_calls if basis_calls else 0.0,
        "groebner.normal_form_calls": calls.get("groebner.normal_form", 0),
        "groebner.membership_calls": calls.get("groebner.subalgebra_member", 0),
        "mpoly.mul_calls": calls.get("mpoly.MultiPoly.__mul__", 0),
        "mpoly.mul_term_pairs": t["mul_term_pairs"],
        "mpoly.substitute_calls": calls.get("mpoly.MultiPoly.substitute", 0),
        "trace.spans": t["spans"],
        "trace.overhead_ratio": sum(normalized(spans)[0]) / sum(normalized(plain)[0]),
    })
    m.update(counts["trace"])
    return m


def _summary(workload, seed, metrics, units, passes, wrong, failed, attempted, problems):
    raw = ", ".join(f"{sum(r['latency_s'] for r in rep['results']):.2f}" for rep in passes)
    lines = [f"workload {workload}, seed {seed}: {len(passes)} pass(es) of "
             f"{len(passes[0]['results'])} queries; raw corpus times {raw} s"]
    lines += [f"  {k} = {v:.6g} {units[k]}" for k, v in metrics.items()]
    lines.append(f"  failed_frac = {failed}/{attempted}; wrong_answers = {wrong}")
    digest = hashlib.sha256("".join(_digests(passes[0])).encode()).hexdigest()
    lines.append(f"  payload digest {digest}")
    lines += [f"  WRONG {p}" for p in problems[:20]]
    return "\n".join(lines)


def run(workload, seed, seconds, traced):
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "endorank", "cli.py")):
        raise RunFailed("src/endorank not found: run from the root of an endorank checkout")
    workdir = os.path.join(HERE, "_work", f"{workload}-{'trace' if traced else 'plain'}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    inputs, queries = corpus.build(workload, seed, workdir)
    with open(os.path.join(workdir, "queries.json"), "w", encoding="utf-8") as fh:
        json.dump({"inputs": inputs, "queries": queries}, fh)

    env = _worker_env(root)
    deadline = time.monotonic() + PASS_TIMEOUT_S
    _run_pass("warmup", workdir, env, 0, deadline)  # byte-compiles, so setup_s is steady
    if traced:
        passes = [_run_pass(mode, workdir, env, k, deadline)
                  for k, mode in enumerate(("plain", "spans", "counts"), start=1)]
    else:
        passes = []
        began = time.monotonic()
        while True:
            passes.append(_run_pass("plain", workdir, env, len(passes) + 1, deadline))
            elapsed = time.monotonic() - began
            per_pass = elapsed / len(passes)
            if len(passes) >= MIN_PASSES and elapsed + per_pass > seconds:
                break
    wrong, failed, attempted, problems = _grade(queries, passes)

    if traced:
        metrics = per_layer(*passes)
        silent = [k for k in EXPECTED[workload] if not metrics[k]]
        if silent:
            problems.append("never fired: " + ", ".join(silent))
            wrong += 1
        units = {k: _unit(k) for k in metrics}
    else:
        metrics = end_to_end(passes)
        units = UNITS_E2E
    print(_summary(workload, seed, metrics, units, passes, wrong, failed, attempted, problems),
          file=sys.stderr)
    return {
        "correct": wrong == 0 and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=corpus.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except RunFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
