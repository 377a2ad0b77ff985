"""The repository benchmark: one workload, one seed, one run.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload fault_dense --seed 1 \\
        --seconds 50 --trace 0

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` runs the same workload with layer spans recorded and
reports the per-layer metrics instead, and writes the spans to
``.perfbench-work/traces/``.  Every run also writes its raw sample
series to ``.perfbench-work/samples/``.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (each metric a ``value`` and its ``unit``).  The lines
before it list every measured series with its median, range and
sample count.

The program under test is ``src/repro`` of the same checkout; without
it the benchmark exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import shutil
import signal
import sys
import tempfile

from measure import ROOT, SRC


def _load_benchmark() -> dict:
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program sources at {SRC / 'repro'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    benchmark = _load_benchmark()
    workloads = [w["name"] for w in benchmark["workloads"]]
    if args.workload not in workloads:
        print(
            f"error: unknown workload {args.workload!r}; known: {workloads}",
            file=sys.stderr,
        )
        return 2

    if args.workload == "paper_grid":
        import grid as module
    else:
        import campaigns as module

    # a terminated run still removes its scratch directory
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    scratch = ROOT / ".perfbench-work"
    scratch.mkdir(exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch)
    try:
        values, outcome, tracer, samples = module.run(
            args.workload, args.seed, args.seconds, bool(args.trace), work
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)

    declared = benchmark["per_layer" if args.trace else "end_to_end"]
    unknown = set(values) - {metric["name"] for metric in declared}
    if unknown:
        print(f"error: undeclared metrics {sorted(unknown)}", file=sys.stderr)
        return 2
    metrics = {
        metric["name"]: {
            "value": float(values.get(metric["name"], 0.0)),
            "unit": metric["unit"],
        }
        for metric in declared
    }
    series = scratch / "samples"
    series.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(series / name, "w") as handle:
        json.dump(samples.values, handle)
    if tracer is not None:
        traces = scratch / "traces"
        traces.mkdir(exist_ok=True)
        path = traces / f"{args.workload}-seed{args.seed}.json"
        tracer.dump(str(path))
        print(f"spans: {len(tracer.spans)} written to {path}")
        for layer in sorted(tracer.missing):
            print(f"layer not found, its metrics read 0: {layer}")

    print(f"{args.workload} seed {args.seed} trace {args.trace}:")
    for line in samples.lines():
        print(line)
    if outcome.failed:
        print(f"FAILED {outcome.failed}/{outcome.attempted}:")
        for reason in outcome.reasons:
            print(f"  {reason}")
    result = {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
