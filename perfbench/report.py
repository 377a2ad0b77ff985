"""Run the benchmark on every workload and print its metrics.

Each workload runs in its own ``perfbench/run.py`` process (so
``peak_rss_mb`` is never charged across workloads).  Usage, from the
root of a checkout::

    python3 perfbench/report.py                 # end-to-end table
    python3 perfbench/report.py --held-out      # per-layer table and
                                                # layer-share check
    python3 perfbench/report.py --repeat 10     # run-to-run spread

``--held-out`` runs the traced benchmark on the held-out seed and
checks that every workload still stresses its layer: on ``fault_dense``
``faultsim.campaign_s`` is at least 80% of the traced campaign and the
leaf layer spans cover at least 90% of it, and on ``paper_grid`` the
decoder cells are the largest share of the cold suite.

``--repeat N`` runs every workload on seeds 1..N and prints, per
end-to-end metric, the quartile spread as a share of the median next to
a third of the metric's bound.  The exit code is 1 when any run failed
or any check did not hold.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    done = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds),
            "--trace", "1" if trace else "0",
        ],
        cwd=str(ROOT),
        capture_output=True,
        text=True,
        timeout=900,
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(
            f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr}"
        )
    result = json.loads(lines[-1])
    if not result["correct"]:
        print("\n".join(lines[:-1]), file=sys.stderr)
    return result


def table(title: str, results: dict) -> bool:
    print(title)
    ok = True
    for workload, result in results.items():
        ok = ok and result["correct"]
        print(
            f"  {workload}: correct {result['correct']}, attempted "
            f"{result['attempted']}, failed {result['failed']}"
        )
        for name, metric in result["metrics"].items():
            print(f"    {name:<32} {metric['value']:<14.6g} {metric['unit']}")
    return ok


def held_out_checks(results: dict) -> bool:
    dense = results["fault_dense"]["metrics"]
    grid = results["paper_grid"]["metrics"]

    def value(metrics, name):
        return metrics[name]["value"]

    cells = {
        family: value(grid, f"suite.cold.{family}_cells_s")
        for family in ("design", "decoder", "transient", "march")
    }
    checks = [
        (
            "fault_dense: faultsim.campaign_s >= 80% of the traced campaign",
            value(dense, "faultsim.campaign_s")
            / value(dense, "trace.campaign_s"),
            0.8,
        ),
        (
            "paper_grid: decoder cells are the largest cold share",
            cells["decoder"] / max(cells.values()),
            1.0,
        ),
        (
            "fault_dense: leaf layer spans cover >= 90% of the campaign",
            value(dense, "trace.coverage"),
            0.9,
        ),
    ]
    ok = True
    for label, share, floor in checks:
        holds = share >= floor
        ok = ok and holds
        print(f"  {'ok  ' if holds else 'FAIL'} {label}: {share:.3f}")
    return ok


def spread(benchmark: dict, names, repeat: int) -> bool:
    ok = True
    bounds = {m["name"]: m["bound"] for m in benchmark["end_to_end"]}
    for workload in names:
        values = {}
        for seed in range(1, repeat + 1):
            result = run_once(workload, seed, benchmark["run_seconds"], False)
            ok = ok and result["correct"]
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        print(f"{workload} ({repeat} seeds)")
        for name, series in values.items():
            q1, median, q3 = statistics.quantiles(series, n=4)
            share = (q3 - q1) / median
            limit = bounds[name] / 3
            flag = "ok  " if share <= limit or name == "setup_s" else "WIDE"
            print(
                f"  {flag} {name:<14} median {median:<12.6g} spread "
                f"{share:7.2%} (a third of the bound: {limit:.2%}) "
                f"{' '.join(f'{value:.4g}' for value in series)}"
            )
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    with open(ROOT / "BENCHMARK.json") as handle:
        benchmark = json.load(handle)
    with open(HERE / "reference.json") as handle:
        reference = json.load(handle)
    names = [w["name"] for w in benchmark["workloads"]]
    seconds = benchmark["run_seconds"]
    parser.add_argument("--held-out", action="store_true")
    parser.add_argument("--repeat", type=int, default=0, metavar="N")
    args = parser.parse_args(argv)

    if args.repeat:
        return 0 if spread(benchmark, names, args.repeat) else 1
    if args.held_out:
        seed = reference["held_out_seed"]
        results = {w: run_once(w, seed, seconds, True) for w in names}
        ok = table(f"per-layer metrics, held-out seed {seed}", results)
        print("layer shares on the held-out seed:")
        return 0 if held_out_checks(results) and ok else 1
    seed = reference["default_seed"]
    results = {w: run_once(w, seed, seconds, False) for w in names}
    ok = table(f"end-to-end metrics, seed {seed}", results)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
