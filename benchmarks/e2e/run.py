#!/usr/bin/env python3
"""The repo's benchmark: four lifecycle workloads over the wire, a per-layer
probe and a traced run.  See README.md in this directory.

    python3 benchmarks/e2e/run.py                       # all four workloads
    python3 benchmarks/e2e/run.py --workload dash_uncached --seed 3
    python3 benchmarks/e2e/run.py --trace 1 --workload cluster_uncached
    python3 benchmarks/e2e/run.py --layers
    python3 benchmarks/e2e/run.py --runs 10 --out out/a.json
    python3 benchmarks/e2e/run.py --compare out/a.json out/b.json
    python3 benchmarks/e2e/run.py --spread out/a.json
    python3 benchmarks/e2e/run.py --selfcheck
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import stats  # noqa: E402
from servers import SRC_DIR  # noqa: E402
from spec import END_TO_END, FULL, PER_LAYER, WORKLOADS  # noqa: E402

sys.path.insert(0, str(SRC_DIR))

OUT_DIR = HERE / "out"
DEFAULT_SECONDS = 8


def run_one(name: str, seed: int, seconds: int, trace: bool) -> dict:
    """One workload, once.  A traced run also runs the layer probe, so that
    it reports every per-layer metric."""
    from lifecycle import run_lifecycle

    result = run_lifecycle(WORKLOADS[name], seed, seconds, trace, FULL, OUT_DIR)
    if trace:
        from layers import probe_layers

        result["layer"].update(probe_layers(seed, seconds, FULL, OUT_DIR))
    return result


def driver_line(result: dict) -> str:
    """The one JSON object the driver reads from the last line of stdout."""
    declared = PER_LAYER if result["trace"] else END_TO_END
    values = result["layer"] if result["trace"] else result["end_to_end"]
    return json.dumps(
        {
            "correct": result["correct"],
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {
                m.name: {"value": values[m.name], "unit": m.unit} for m in declared
            },
        }
    )


def print_result(result: dict) -> None:
    print(f"== {result['workload']}  seed={result['seed']}  trace={int(result['trace'])}")
    rows = [(m, result["end_to_end"]) for m in END_TO_END]
    rows += [(m, result["layer"]) for m in PER_LAYER if m.name in result["layer"]]
    for metric, values in rows:
        bound = f"  bound {metric.bound:.0%}" if metric.bound is not None else ""
        print(
            f"  {metric.name:34s} {values[metric.name]:>16.6g} {metric.unit:7s}"
            f" ({metric.better} is better){bound}"
        )
    print("  samples: " + ", ".join(f"{k}={v}" for k, v in result["samples"].items()))
    print("  phases: " + ", ".join(f"{k}={v:.2f}s" for k, v in result["phases_s"].items()))
    share = result["failed"] / result["attempted"]
    print(f"  ops: attempted={result['attempted']} failed={result['failed']} failed_ops_share={share:.6g}")
    for reason in result["failures"]:
        print(f"  FAILED: {reason}")


def run_set(names: list[str], seed: int, runs: int, seconds: int, trace: bool) -> dict:
    """``runs`` runs of each workload, run ``i`` at seed ``seed + i``."""
    results = []
    for i in range(runs):
        for name in names:
            result = run_one(name, seed + i, seconds, trace)
            print_result(result)
            results.append(result)
    return {"fingerprint": stats.fingerprint(seed), "seconds": seconds, "runs": results}


def save(result_set: dict, path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(result_set, indent=1))
    print(f"wrote {path}")


def values_by_workload(result_set: dict) -> dict[str, dict[str, list[float]]]:
    table: dict[str, dict[str, list[float]]] = {}
    for run in result_set["runs"]:
        per_metric = table.setdefault(run["workload"], {})
        for name, value in run["end_to_end"].items():
            per_metric.setdefault(name, []).append(value)
    return table


def compare(set_a: dict, set_b: dict) -> list[dict]:
    """One row per workload x end-to-end metric present on both sides."""
    a, b = values_by_workload(set_a), values_by_workload(set_b)
    rows = []
    for workload in a:
        for metric in END_TO_END:
            if metric.name in a[workload] and metric.name in b.get(workload, {}):
                row = stats.verdict(
                    a[workload][metric.name], b[workload][metric.name], metric.better, metric.bound
                )
                rows.append({"workload": workload, "metric": metric, **row})
    return rows


def print_comparison(set_a: dict, set_b: dict, rows: list[dict]) -> None:
    for side, result_set in (("A", set_a), ("B", set_b)):
        print(f"{side}: " + json.dumps(result_set["fingerprint"]))
    if set_a["fingerprint"]["calibration_ms"] and set_b["fingerprint"]["calibration_ms"]:
        drift = set_b["fingerprint"]["calibration_ms"] / set_a["fingerprint"]["calibration_ms"]
        print(f"calibration B/A = {drift:.3f} (A = {set_a['fingerprint']['calibration_ms']:.2f} ms)")
    print(
        f"{'workload':18s} {'metric':24s} {'median A [q1..q3]':>34s} {'median B [q1..q3]':>34s}"
        f" {'B worse by':>11s} {'bound':>6s} {'spread':>7s}  verdict     gate"
    )
    for row in rows:
        metric = row["metric"]

        def side(key: str) -> str:
            q1, q3 = row[f"quartiles_{key}"]
            return f"{row[f'median_{key}']:.5g} [{q1:.5g}..{q3:.5g}] {metric.unit}"

        print(
            f"{row['workload']:18s} {metric.name:24s} {side('a'):>34s} {side('b'):>34s}"
            f" {row['worsening']:>+10.1%} {metric.bound:>6.0%} {row['spread']:>7.1%}"
            f"  {row['verdict']:11s} {row['gate']}"
        )


def print_spread(result_set: dict) -> None:
    """Markdown table of each metric's run-to-run spread against its bound."""
    print("| workload | metric | runs | median | q1..q3 spread | bound | bound / spread |")
    print("|---|---|---|---|---|---|---|")
    for workload, metrics in values_by_workload(result_set).items():
        for metric in END_TO_END:
            values = metrics[metric.name]
            spread = stats.quartile_spread(values)
            headroom = f"{metric.bound / spread:.1f}x" if spread else "exact"
            print(
                f"| `{workload}` | `{metric.name}` | {len(values)} | {stats.median(values):.5g} {metric.unit}"
                f" | {spread:.2%} | {metric.bound:.0%} | {headroom} |"
            )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), help="run one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=DEFAULT_SECONDS, help="length of each timed loop")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--runs", type=int, default=1, help="runs per workload, each at the next seed")
    parser.add_argument("--out", type=Path, help="result file (default: out/result-<...>.json)")
    parser.add_argument("--layers", action="store_true", help="only the per-layer probe")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("A.json", "B.json"))
    parser.add_argument("--spread", type=Path, metavar="A.json", help="per-metric spread of one run set")
    parser.add_argument("--selfcheck", action="store_true", help="run the set twice, fail if they disagree")
    args = parser.parse_args(argv)
    if args.seconds < 1 or args.runs < 1:
        parser.error("--seconds and --runs must be at least 1")
    # SIGTERM unwinds like Ctrl-C, so servers and data dirs are cleaned up.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if args.compare:
        set_a, set_b = (json.loads(path.read_text()) for path in args.compare)
        rows = compare(set_a, set_b)
        print_comparison(set_a, set_b, rows)
        return 1 if any(row["gate"] == "FAIL" for row in rows) else 0

    if args.spread:
        print_spread(json.loads(args.spread.read_text()))
        return 0

    if not (SRC_DIR / "repro").is_dir():
        sys.exit(f"error: the system under test is not at {SRC_DIR}/repro")

    if args.layers:
        from layers import probe_layers

        values = probe_layers(args.seed, args.seconds, FULL, OUT_DIR)
        for metric in PER_LAYER:
            if metric.name in values:
                print(f"  {metric.name:34s} {values[metric.name]:>16.6g} {metric.unit}")
        save({"fingerprint": stats.fingerprint(args.seed), "layers": values}, args.out or OUT_DIR / f"layers-seed{args.seed}.json")
        return 0

    names = [args.workload] if args.workload else list(WORKLOADS)
    trace = bool(args.trace)
    if args.selfcheck:
        set_a = run_set(names, args.seed, args.runs, args.seconds, trace=False)
        set_b = run_set(names, args.seed, args.runs, args.seconds, trace=False)
        save(set_a, OUT_DIR / "selfcheck-a.json")
        save(set_b, OUT_DIR / "selfcheck-b.json")
        forward, backward = compare(set_a, set_b), compare(set_b, set_a)
        print_comparison(set_a, set_b, forward)
        disagree = [r for r in forward + backward if r["gate"] == "FAIL"]
        print("selfcheck: " + ("FAILED" if disagree else "two runs of the same code agree within every bound"))
        return 1 if disagree else 0

    result_set = run_set(names, args.seed, args.runs, args.seconds, trace)
    label = f"{args.workload or 'all'}-seed{args.seed}{'-trace' if trace else ''}"
    save(result_set, args.out or OUT_DIR / f"result-{label}.json")
    if args.workload and args.runs == 1:
        print(driver_line(result_set["runs"][0]))
    return 0 if all(run["correct"] for run in result_set["runs"]) else 1


if __name__ == "__main__":
    sys.exit(main())
