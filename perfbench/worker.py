"""One pass over a corpus in a fresh process.

Run by run.py with the corpus directory as working directory and endorank's
source on PYTHONPATH:

    python3 worker.py --mode plain|spans|counts|warmup --out pass.json

Every query is an in-process `endorank.cli.main(argv)` call with stdout and
stderr captured.  The pass runs single-threaded, one query after another.

Between queries, at least every PROBE_EVERY_S, the worker times a fixed
pure-Python kernel (the speed probe) so that run.py can express every
latency at one reference speed: the machine this benchmark was built on
runs the same code up to 2x slower in phases that last from seconds to
minutes.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

PROBE_EVERY_S = 0.25


def _make_speed_probe():
    """A function returning the best of three timings of a fixed kernel:
    sparse products with Fraction coefficients, the mix of dict, tuple and
    Fraction work that dominates endorank.  It uses the benchmark's own
    arithmetic only, so the program under test cannot change its cost."""
    import algebra

    F = algebra.QQ
    f = algebra.parse(F, 3, "2*x1^2 - 3*x1*x2 + x2*x3 + 3*x3^2 - x1 + x2 + 2*x3 - 2")
    g = algebra.parse(F, 3, "-x1^2 + 2*x2^2 + x1*x3 - 3*x2 + x3 + 3")

    def probe():
        best = float("inf")
        for _ in range(3):
            t = time.perf_counter()
            h = f
            for _ in range(3):
                h = algebra.mul(F, h, g)
            best = min(best, time.perf_counter() - t)
        return best

    return probe


def _run_query(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    t = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # noqa: BLE001 - an uncaught error exits 1 from the command line
            traceback.print_exc()
            code = 1
    return code, time.perf_counter() - t, out.getvalue(), err.getvalue()


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--mode", choices=("plain", "spans", "counts", "warmup"), required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()

    from endorank import cli, groebner

    with open("queries.json", encoding="utf-8") as fh:
        corpus = json.load(fh)
    for name in corpus["inputs"]:
        with open(name, "rb") as fh:
            fh.read()
    setup_s = time.perf_counter() - _T0
    if args.mode == "warmup":
        return

    recorder = None
    if args.mode in ("spans", "counts"):
        import layertrace

        recorder = layertrace.Spans() if args.mode == "spans" else layertrace.Counts()
        recorder.install()

    bases_before = groebner.STATS["bases_computed"]
    results = []
    speed_probe = _make_speed_probe()
    speed_probe()  # first call runs cold code
    probes = [speed_probe()]
    last_probe = time.perf_counter()
    for q in corpus["queries"]:
        if time.perf_counter() - last_probe >= PROBE_EVERY_S:
            probes.append(speed_probe())
            last_probe = time.perf_counter()
        code, dt, out, err = _run_query(cli, q["argv"])
        if q.get("save"):
            with open(q["save"], "w", encoding="utf-8") as fh:
                fh.write(out)
        results.append({"id": q["id"], "exit": code, "latency_s": dt, "probe": len(probes) - 1,
                        "stdout": out,
                        "stderr_tail": err.strip().splitlines()[-1:] if err.strip() else []})
    probes.append(speed_probe())

    report = {
        "mode": args.mode,
        "setup_s": setup_s,
        "probes_s": probes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "bases_computed": groebner.STATS["bases_computed"] - bases_before,
        "results": results,
    }
    if recorder is not None:
        report["trace"] = recorder.summary()
        if args.mode == "spans":
            recorder.dump("spans.tsv")
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh)


if __name__ == "__main__":
    sys.exit(main())
