"""The benchmark's one command.

One workload, as the driver calls it::

    python3 perfbench/run.py --workload play_cuts --seed 3 --seconds 16 --trace 0

prints every metric by name with its unit and, as the last line of standard
output, one JSON object ``{"correct", "attempted", "failed", "metrics"}``:
every end-to-end metric with ``--trace 0``, every per-layer metric with
``--trace 1``.  The exit code is 0 only when every correctness check held.

Every workload, for people::

    python3 perfbench/run.py --seed 3 --out result.json [--runs 3] [--quick]

runs each workload in its own fresh subprocess (its own peak RSS, cold
caches) — ``--runs`` untraced runs on consecutive seeds plus one traced run —
prints all metrics, and writes one result file with a provenance block that
``perfbench/compare.py`` reads.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

if __package__ in (None, ""):
    # Run as a script: make ``perfbench`` importable as the package it is.
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import harness  # noqa: E402

SCHEMA = "perfbench/1"


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 quick: bool) -> harness.Outcome:
    """Dispatch to the workload's module.  Imported here, not at the top:
    they import numpy, which must see the BLAS thread cap."""
    from perfbench import fleet, origin, play
    if name in play.WORKLOADS:
        run = play.run_traced if trace else play.run_untraced
        return run(play.WORKLOADS[name], seed, seconds, quick)
    if name in fleet.WORKLOADS:
        run = fleet.run_traced if trace else fleet.run_untraced
        return run(fleet.WORKLOADS[name], seed, seconds, quick)
    if name == origin.NAME:
        run = origin.run_traced if trace else origin.run_untraced
        return run(seed, seconds, quick)
    raise SystemExit(f"perfbench: unknown workload {name!r}")


def print_metrics(title: str, metrics: dict) -> None:
    print(title)
    width = max(len(name) for name in metrics)
    for name, entry in metrics.items():
        print(f"  {name:<{width}}  {entry['value']:>14.6g} {entry['unit']}")


def single(args, spec: harness.BenchSpec, blas_threads: int) -> int:
    if args.workload not in spec.workloads:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}; "
                         f"choose from {sorted(spec.workloads)}")
    trace = bool(args.trace)
    outcome = run_workload(args.workload, args.seed, args.seconds, trace,
                           args.quick)
    record = harness.result_record(spec, trace, outcome)
    if args.out:
        Path(args.out).write_text(json.dumps({
            "schema": SCHEMA, "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": trace, "quick": args.quick,
            "result": record, "problems": outcome.problems,
            "samples": outcome.samples, "notes": outcome.notes,
            "spans": outcome.spans,
            "provenance": harness.provenance(args.seed, blas_threads),
        }) + "\n")
    kind = "per-layer (traced run)" if trace else "end-to-end (untraced run)"
    print_metrics(f"{args.workload} seed={args.seed} {kind}, "
                  f"BLAS threads {blas_threads}", record["metrics"])
    print(f"  samples: {outcome.samples}")
    for problem in outcome.problems:
        print(f"  FAILED CHECK: {problem}")
    print(json.dumps(record))
    return 0 if record["correct"] and not record["failed"] else 1


# ------------------------------------------------------------------ suite

def _child(workload: str, seed: int, seconds: float, trace: int, quick: bool,
           out: Path) -> dict | None:
    """One workload run in a fresh interpreter; ``None`` when it died."""
    command = [sys.executable, str(Path(__file__).resolve()),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace),
               "--out", str(out)]
    if quick:
        command.append("--quick")
    done = subprocess.run(command, capture_output=True, text=True)
    if not out.is_file():
        sys.stderr.write(done.stdout + done.stderr)
        return None
    return json.loads(out.read_text())


def suite(args, spec: harness.BenchSpec, blas_threads: int) -> int:
    result = {"schema": SCHEMA, "quick": args.quick, "seconds": args.seconds,
              "runs": args.runs,
              "provenance": harness.provenance(args.seed, blas_threads),
              "workloads": {}}
    ok = True
    with harness.work_dir() as work:
        for name, why in spec.workloads.items():
            untraced = [
                _child(name, args.seed + i, args.seconds, 0, args.quick,
                       work / f"{name}-{i}.json")
                for i in range(args.runs)]
            traced = _child(name, args.seed, args.seconds, 1, args.quick,
                            work / f"{name}-traced.json")
            records = [r for r in untraced + [traced] if r is not None]
            died = len(records) < args.runs + 1
            entry = {
                "why": why,
                "correct": not died and all(
                    r["result"]["correct"] for r in records),
                "attempted": sum(r["result"]["attempted"] for r in records),
                "failed": sum(r["result"]["failed"] for r in records),
                "problems": [p for r in records for p in r["problems"]]
                            + (["a run exited without a result"]
                               if died else []),
                "end_to_end": {
                    m.name: {"unit": m.unit, "values": [
                        r["result"]["metrics"][m.name]["value"]
                        for r in untraced if r is not None]}
                    for m in spec.end_to_end.values()},
                "per_layer": ({} if traced is None
                              else traced["result"]["metrics"]),
                "samples": {"untraced": [r["samples"] for r in untraced
                                         if r is not None],
                            "traced": traced and traced["samples"]},
                "notes": traced and traced["notes"],
                "spans": traced and traced["spans"],
            }
            result["workloads"][name] = entry
            ok = ok and entry["correct"] and not entry["failed"]

            print_metrics(
                f"{name}: end-to-end, median of {args.runs} run(s)",
                {m: {"value": harness.median(v["values"]), "unit": v["unit"]}
                 for m, v in entry["end_to_end"].items() if v["values"]})
            if entry["per_layer"]:
                print_metrics(f"{name}: per-layer (traced run)",
                              entry["per_layer"])
            share = entry["failed"] / max(1, entry["attempted"])
            print(f"  fail_share {share:.6g} "
                  f"({entry['failed']} of {entry['attempted']})")
            for problem in entry["problems"]:
                print(f"  FAILED CHECK: {problem}")
    if args.out:
        Path(args.out).write_text(json.dumps(result) + "\n")
        print(f"wrote {args.out}")
    print("all checks passed" if ok else "CHECKS FAILED")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", help="one workload (omit to run all)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per run "
                             "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 = traced run, per-layer metrics")
    parser.add_argument("--runs", type=int, default=3,
                        help="untraced runs per workload when running all")
    parser.add_argument("--quick", action="store_true",
                        help="smoke test: 48x64 clips, one pass, one set-up")
    parser.add_argument("--out", help="write the full record here")
    args = parser.parse_args(argv)

    blas_threads = harness.cap_blas_threads()
    harness.load_program()
    spec = harness.BenchSpec()
    if args.seconds is None:
        args.seconds = 0.5 if args.quick else float(spec.run_seconds)
    if args.workload:
        return single(args, spec, blas_threads)
    return suite(args, spec, blas_threads)


if __name__ == "__main__":
    sys.exit(main())
