"""Heavy tier: the slow CLI cases, run as subprocesses and timed end to end.

    python3 bench/heavy.py --answers [--case NAME ...]   # exit codes and digests only
    python3 bench/heavy.py --against DIR [--case NAME ...] > record.json

Run from the root of a checkout; stdlib only.  Each case is one
`python3 -m endorank.cli ... --format json` call with the checkout's src on
PYTHONPATH and a timeout.  A case records its wall time, exit code and the
sha256 of its stdout.

--answers prints one line per case, "name exit digest", and no timings, so
two checkouts (or a checkout and a pinned list) compare with diff.

--against DIR times the checkout at DIR ("parent") and this one ("change")
in alternation, case by case for ROUNDS rounds, because CPU speed on a
shared machine drifts over minutes; it prints the runs, their medians and
the min-max range of each side's exit-0 runs as JSON.  A case is
`separated` only when the two ranges do not overlap; a case without
separation reads flat, whatever its medians say, because ROUNDS runs a
side cannot tell a smaller difference from this machine's drift.

The inputs are written to a temporary directory from the text below:

* heavy-rank-q: rank by elimination of s . g . s^-1 over Q, where
  g = (x1*x3 - 3*x2, -4*x1^2 + 3*x3, -4*x2^2 + 2*x3^2) and
  s = (x1 + x2^2, x2 + x3^2, x3): degree 16, 60/12/4 terms, rank 3.
* heavy-rank-fp: the same map (its coefficients are integers) over F_p,
  p = 2^31 - 1.
* rank2-conj: the rank of the conjugate of
  (x1*x2 - 3*x2^2 + x1, 2*x1 - x2^2, their product + 3*x1) by the same s.
* conj-a1 / conj-a2: `conj A cyc.endo --properties` with cyc = (x2, x3, x1)
  and A1 = s, A2 = (x1 + x2^2 + x3^3, x2 + x3^2, x3).

The conjugated maps are made by this checkout's own `conj` command.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time

TIMEOUT_S = 300
ROUNDS = 3

S_AUT = "delta identity\nx1 -> x1 + x2^2\nx2 -> x2 + x3^2\nx3 -> x3\n"
A2_AUT = "delta identity\nx1 -> x1 + x2^2 + x3^3\nx2 -> x2 + x3^2\nx3 -> x3\n"
G_ENDO = "x1 -> x1*x3 - 3*x2\nx2 -> -4*x1^2 + 3*x3\nx3 -> -4*x2^2 + 2*x3^2\n"
G2_ENDO = (
    "x1 -> x1*x2 - 3*x2^2 + x1\n"
    "x2 -> 2*x1 - x2^2\n"
    "x3 -> (x1*x2 - 3*x2^2 + x1) * (2*x1 - x2^2) + 3*x1\n"
)
CYC_ENDO = "x1 -> x2\nx2 -> x3\nx3 -> x1\n"

CASES = ("heavy-rank-q", "heavy-rank-fp", "rank2-conj", "conj-a1", "conj-a2")


def _cli(root, argv, timeout=TIMEOUT_S):
    """(exit code or "timeout", stdout bytes, wall seconds) of one CLI call."""
    env = {k: v for k, v in os.environ.items() if k not in ("ENDORANK_BUDGET", "PYTHONPATH")}
    env["PYTHONPATH"] = os.path.join(root, "src")
    cmd = [sys.executable, "-m", "endorank.cli", *argv, "--format", "json"]
    start = time.perf_counter()
    try:
        done = subprocess.run(cmd, env=env, capture_output=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return "timeout", b"", time.perf_counter() - start
    return done.returncode, done.stdout, time.perf_counter() - start


def _write(path, text):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


def _conjugated(root, aut, endo, field):
    """The conjugate of endo by aut, as an endomorphism file over field."""
    code, out, _ = _cli(root, ["conj", aut, endo])
    if code != 0:
        raise SystemExit(f"heavy: building an input failed (conj exited {code})")
    images = json.loads(out)["conjugated"]
    lines = [f"x{i} -> {img}" for i, img in enumerate(images, 1)]
    return f"field {field}\nvars 3\n" + "\n".join(lines) + "\n"


def build_inputs(root, workdir):
    """Case name -> CLI argv (without --format)."""

    def put(name, text, field="Q"):
        return _write(os.path.join(workdir, name), f"field {field}\nvars 3\n{text}")

    s, a2 = put("s.aut", S_AUT), put("a2.aut", A2_AUT)
    g, g2, cyc = put("g.endo", G_ENDO), put("g2.endo", G2_ENDO), put("cyc.endo", CYC_ENDO)
    heavy_q = _write(os.path.join(workdir, "heavy_q.endo"), _conjugated(root, s, g, "Q"))
    heavy_fp = _write(
        os.path.join(workdir, "heavy_fp.endo"), _conjugated(root, s, g, "F 2147483647")
    )
    rank2 = _write(os.path.join(workdir, "rank2.endo"), _conjugated(root, s, g2, "Q"))
    return {
        "heavy-rank-q": ["rank", heavy_q, "--method", "elim"],
        "heavy-rank-fp": ["rank", heavy_fp, "--method", "elim"],
        "rank2-conj": ["rank", rank2, "--method", "elim"],
        "conj-a1": ["conj", s, cyc, "--properties"],
        "conj-a2": ["conj", a2, cyc, "--properties"],
    }


def run_case(root, argv):
    code, out, wall = _cli(root, argv)
    return {"wall_s": round(wall, 3), "exit": code, "sha256": hashlib.sha256(out).hexdigest()}


def _median(values):
    return round(statistics.median(values), 3) if values else None


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--case", action="append", choices=CASES, help="run only these cases")
    mode = ap.add_mutually_exclusive_group(required=True)
    mode.add_argument("--answers", action="store_true", help="exit codes and digests, no timings")
    mode.add_argument("--against", metavar="DIR", help="a second checkout, timed in alternation")
    args = ap.parse_args(argv)
    root = os.getcwd()
    if not os.path.isdir(os.path.join(root, "src", "endorank")):
        ap.error("run from the root of a checkout")
    cases = args.case or list(CASES)
    with tempfile.TemporaryDirectory(prefix="endorank-heavy-") as workdir:
        inputs = build_inputs(root, workdir)
        if args.answers:
            for name in cases:
                r = run_case(root, inputs[name])
                print(f"{name} {r['exit']} {r['sha256']}")
            return 0
        roots = {"parent": os.path.abspath(args.against), "change": root}
        runs = {name: {"parent": [], "change": []} for name in cases}
        for rnd in range(ROUNDS):
            for name in cases:
                for side in ("parent", "change") if rnd % 2 == 0 else ("change", "parent"):
                    r = run_case(roots[side], inputs[name])
                    runs[name][side].append(r)
                    print(f"round {rnd + 1} {name} {side}: {r}", file=sys.stderr)
        record = {
            "python": platform.python_version(),
            "cpus": os.cpu_count(),
            "timeout_s": TIMEOUT_S,
            "rounds": ROUNDS,
            "cases": {},
        }
        for name, sides in runs.items():
            entry = {"argv": [os.path.basename(a) for a in inputs[name]], "runs": sides}
            for side, rs in sides.items():
                ok = [r["wall_s"] for r in rs if r["exit"] == 0]
                entry[f"{side}_median_s"] = _median(ok)
                entry[f"{side}_range_s"] = [min(ok), max(ok)] if ok else None
            parent, change = entry["parent_range_s"], entry["change_range_s"]
            entry["separated"] = bool(parent and change) and (
                parent[1] < change[0] or change[1] < parent[0]
            )
            entry["same_answers"] = len(
                {(r["exit"], r["sha256"]) for rs in sides.values() for r in rs}
            ) == 1
            record["cases"][name] = entry
        print(json.dumps(record, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
