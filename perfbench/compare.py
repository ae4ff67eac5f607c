"""Compare two result files written by ``perfbench/run.py --out``.

    python3 perfbench/compare.py A.json B.json
    python3 perfbench/compare.py --aa [--seed N] [--runs K] [--quick]

For every workload and end-to-end metric it prints both medians with their
quartiles, how much worse B is than A, and the metric's bound from
``BENCHMARK.json``.  A pair is

- ``regression`` when B's median is worse than A's by more than the bound,
- ``unresolved`` when either side's run-to-run spread (quartile distance over
  median) exceeds the bound — unless every run of one side beats every run of
  the other, which settles it whatever the spread,
- ``ok`` otherwise.

The exit code is non-zero on a regression, a failed correctness check, or a
higher share of failed operations in B.  ``--aa`` runs the whole suite twice
on the same code and compares the two files: it must exit 0.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

if __package__ in (None, ""):
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import harness  # noqa: E402


@dataclass(frozen=True)
class Row:
    workload: str
    metric: str
    unit: str
    a: tuple[float, float, float]        # q1, median, q3
    b: tuple[float, float, float]
    worse_by: float                      # share of A's median; > 0 is worse
    bound: float
    verdict: str                         # ok | regression | unresolved


def _summary(values) -> tuple[float, float, float]:
    q1, q3 = harness.quartiles(values)
    return q1, harness.median(values), q3


def _spread(summary) -> float:
    q1, med, q3 = summary
    return (q3 - q1) / abs(med) if med else 0.0


def judge(a_values, b_values, better: str, bound: float):
    """``(worse_by, verdict)`` of B against A for one metric."""
    a, b = _summary(a_values), _summary(b_values)
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (b[1] - a[1]) / abs(a[1]) if a[1] else 0.0
    if better == "lower":
        b_always_worse = min(b_values) > max(a_values)
        b_always_better = max(b_values) < min(a_values)
    else:
        b_always_worse = max(b_values) < min(a_values)
        b_always_better = min(b_values) > max(a_values)
    noisy = max(_spread(a), _spread(b)) > bound
    if worse_by > bound and (b_always_worse or not noisy):
        return worse_by, "regression"
    if noisy and not b_always_better and not b_always_worse:
        return worse_by, "unresolved"
    return worse_by, "ok"


def compare(a: dict, b: dict, spec: harness.BenchSpec):
    """Rows for every workload x end-to-end metric, plus the problems that
    fail the comparison outright."""
    rows, problems = [], []
    for name in spec.workloads:
        wa, wb = a["workloads"].get(name), b["workloads"].get(name)
        if wa is None or wb is None:
            problems.append(f"{name}: missing from one result file")
            continue
        for label, side in (("A", wa), ("B", wb)):
            if not side["correct"]:
                problems.append(f"{name}: {label} failed a correctness "
                                f"check: {side['problems']}")
        share_a = wa["failed"] / max(1, wa["attempted"])
        share_b = wb["failed"] / max(1, wb["attempted"])
        if share_b > share_a:
            problems.append(f"{name}: fail_share rose from {share_a:.6g} "
                            f"to {share_b:.6g}")
        for metric in spec.end_to_end.values():
            va = wa["end_to_end"][metric.name]["values"]
            vb = wb["end_to_end"][metric.name]["values"]
            if not va or not vb:
                problems.append(f"{name}: no {metric.name} values")
                continue
            worse_by, verdict = judge(va, vb, metric.better, metric.bound)
            rows.append(Row(name, metric.name, metric.unit, _summary(va),
                            _summary(vb), worse_by, metric.bound, verdict))
    return rows, problems


def render(rows: list[Row]) -> str:
    lines = [f"{'workload':<16} {'metric':<17} {'unit':<5} "
             f"{'A median [q1, q3]':<34} {'B median [q1, q3]':<34} "
             f"{'worse by':>9} {'bound':>6}  verdict"]
    for r in rows:
        def cell(s):
            return f"{s[1]:.5g} [{s[0]:.5g}, {s[2]:.5g}]"
        lines.append(
            f"{r.workload:<16} {r.metric:<17} {r.unit:<5} "
            f"{cell(r.a):<34} {cell(r.b):<34} "
            f"{r.worse_by:>+8.1%} {r.bound:>6.0%}  {r.verdict}")
    return "\n".join(lines)


def _run_suite(out: Path, args) -> None:
    command = [sys.executable, str(Path(__file__).with_name("run.py")),
               "--seed", str(args.seed), "--runs", str(args.runs),
               "--out", str(out)]
    if args.quick:
        command.append("--quick")
    # A failed check inside a suite run shows up in the file's ``correct``
    # flags, which compare() reads; only a missing file is fatal here.
    subprocess.run(command, check=False)
    if not out.is_file():
        raise SystemExit(f"perfbench: suite run wrote no {out}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("files", nargs="*", metavar="RESULT.json")
    parser.add_argument("--aa", action="store_true",
                        help="run the suite twice and compare the two runs")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--runs", type=int, default=3)
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args(argv)

    spec = harness.BenchSpec()
    if args.aa:
        if args.files:
            parser.error("--aa takes no result files")
        with harness.work_dir() as work:
            paths = [work / "aa-first.json", work / "aa-second.json"]
            for path in paths:
                _run_suite(path, args)
            a, b = (json.loads(p.read_text()) for p in paths)
    elif len(args.files) == 2:
        a, b = (json.loads(Path(p).read_text()) for p in args.files)
    else:
        parser.error("give two result files, or --aa")

    rows, problems = compare(a, b, spec)
    print(render(rows))
    regressions = [r for r in rows if r.verdict == "regression"]
    unresolved = [r for r in rows if r.verdict == "unresolved"]
    for problem in problems:
        print(f"FAILED: {problem}")
    print(f"{len(rows)} pairs: {len(regressions)} regression(s), "
          f"{len(unresolved)} unresolved, {len(problems)} failed check(s)")
    return 1 if regressions or problems else 0


if __name__ == "__main__":
    sys.exit(main())
