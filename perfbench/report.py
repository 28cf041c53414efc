"""Run every workload untraced over ten seeds plus one traced run each,
and print every metric.

    python3 perfbench/report.py [--out perfbench/out/report.json]

Each run is a fresh `perfbench/run.py` process, one after another, that
measures for `run_seconds` from BENCHMARK.json.  For each end-to-end
metric the table gives the median over runs, the quartile spread
(Q3 - Q1) / median next to the metric's bound, and the run count;
`checks_failed_frac` is failed over attempted checks across the runs.
The full report is written as JSON to --out.  Exit code 1 when a run fails or a check fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUN = BENCH_DIR / "run.py"
RUN_TIMEOUT_S = 180
SEEDS = 10


def load_benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_once(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict | None, dict | None, str]:
    """One run.py process; returns (metadata, result, error text)."""
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, None, f"timed out after {RUN_TIMEOUT_S} s"
    lines = proc.stdout.strip().splitlines()
    if len(lines) < 2:
        return None, None, proc.stderr.strip() or f"exit code {proc.returncode}, no result"
    meta = json.loads(lines[-2])["meta"]
    result = json.loads(lines[-1])
    error = "" if proc.returncode == 0 else proc.stderr.strip() or f"exit code {proc.returncode}"
    return meta, result, error


def spread_stats(values: list[float]) -> dict:
    median = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "samples": len(values),
        "values": values,
    }


def main(argv: list[str] | None = None) -> int:
    bench = load_benchmark()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", default=str(BENCH_DIR / "out" / "report.json"))
    args = parser.parse_args(argv)

    seconds = bench["run_seconds"]
    report: dict = {"run_seconds": seconds, "seeds": SEEDS, "workloads": {}}
    ok = True
    for workload in [w["name"] for w in bench["workloads"]]:
        runs, per_layer, failures = [], {}, []
        attempted = failed = 0
        for seed in range(1, SEEDS + 1):
            meta, result, error = run_once(workload, seed, seconds, 0)
            if error:
                failures.append(f"seed {seed}: {error}")
            if result is None:
                continue
            attempted += result["attempted"]
            failed += result["failed"]
            runs.append({"meta": meta, "metrics": result["metrics"]})
        meta, result, error = run_once(workload, 1, seconds, 1)
        if error:
            failures.append(f"traced run: {error}")
        if result is not None:
            attempted += result["attempted"]
            failed += result["failed"]
            per_layer = result["metrics"]
        ok = ok and not failures and failed == 0

        print(f"\n== {workload}: {len(runs)} untraced runs of {seconds:g} s, "
              f"checks_failed_frac {failed / attempted if attempted else float('nan'):.4g} "
              f"({failed}/{attempted})")
        for failure in failures:
            print(f"   FAILED {failure}")
        print(f"   {'metric':<14}{'unit':<7}{'median':>12}{'q1':>12}{'q3':>12}{'spread':>9}{'bound':>7}"
              f"{'runs':>6}")
        e2e = {}
        for spec in bench["end_to_end"]:
            values = [r["metrics"][spec["name"]]["value"] for r in runs if spec["name"] in r["metrics"]]
            if not values:
                continue
            stats = spread_stats(values) | {"unit": spec["unit"], "bound": spec["bound"]}
            e2e[spec["name"]] = stats
            line = (f"   {spec['name']:<14}{spec['unit']:<7}{stats['median']:>12.6g}{stats['q1']:>12.6g}"
                    f"{stats['q3']:>12.6g}{stats['spread']:>9.3f}{spec['bound']:>7.2f}{len(values):>6}")
            if stats["spread"] > spec["bound"]:
                line += "  SPREAD OVER BOUND"
            print(line)
        print("   per layer (traced run, per pass):")
        for name, m in per_layer.items():
            print(f"   {name:<45}{m['unit']:<7}{m['value']:>14.6g}")
        report["workloads"][workload] = {
            "end_to_end": e2e,
            "checks": {"attempted": attempted, "failed": failed,
                       "checks_failed_frac": failed / attempted if attempted else None},
            "per_layer": per_layer,
            "traced_meta": meta,
            "runs": runs,
            "failures": failures,
        }

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    print(f"\nwrote {out}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
