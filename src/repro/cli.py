"""Command-line interface: ``python -m repro <command>``.

Redesigned on top of the :mod:`repro.design` subsystem: every command
supports ``--json`` for machine-readable output (and ``--out PATH`` to
write it to a file), ``sweep`` drives ``DesignEngine.sweep`` across a
requirement grid, ``registry`` lists the pluggable families, and the ten
experiment regenerators are generated from one table instead of ten
copy-pasted handlers.  Everything runs offline — no network, no data
files.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import sys
import time
from dataclasses import asdict, dataclass
from typing import Callable, List, Optional

from repro import __version__
from repro.circuits.engines import ENGINES
from repro.core.selection import SelectionPolicy, select_code
from repro.design.spec import CHECKER_STYLES, DesignSpec
from repro.memory.organization import PAPER_ORGS, MemoryOrganization, paper_org

__all__ = ["main", "build_parser", "EXPERIMENTS"]


def _emit(args: argparse.Namespace, text: str) -> None:
    """Print ``text`` and/or write it to ``--out``."""
    out_path = getattr(args, "out", None)
    if out_path:
        with open(out_path, "w") as handle:
            handle.write(text)
        print(f"wrote {out_path}")
    else:
        print(text, end="" if text.endswith("\n") else "\n")


def _add_output_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--json", action="store_true", help="emit JSON instead of text"
    )
    parser.add_argument(
        "--out", metavar="PATH", help="write the output to a file"
    )


#: campaign engine policies the CLI accepts (--engine)
ENGINE_CHOICES = ENGINES


def _validate_engine_args(args: argparse.Namespace) -> None:
    """--workers only applies to the vector engine; refuse the combo
    (and nonsensical counts) rather than silently running
    single-process."""
    workers = getattr(args, "workers", None)
    if workers is not None and workers < 1:
        raise ValueError(f"--workers must be >= 1, got {workers}")
    if getattr(args, "engine", "vector") == "serial" and workers is not None:
        raise ValueError(
            "--workers requires the vector engine (drop --engine serial)"
        )


def _add_engine_options(parser: argparse.ArgumentParser) -> None:
    """--engine policy switch + --workers for campaign commands."""
    parser.add_argument(
        "--engine",
        choices=ENGINE_CHOICES,
        default="vector",
        help="campaign engine: vector (NumPy lane arrays, default) or "
        "serial (per-cycle oracle, bit-identical and much slower)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="shard the fault list over N processes (vector engine)",
    )


def _add_policy_option(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--policy",
        choices=[p.value for p in SelectionPolicy],
        default=SelectionPolicy.EXACT.value,
    )


#: default artifact-store root for `repro results` (campaign commands
#: only cache when --store is given explicitly)
DEFAULT_STORE = ".repro-store"


def _default_store() -> str:
    return os.environ.get("REPRO_STORE", DEFAULT_STORE)


def _add_store_options(
    parser: argparse.ArgumentParser, required_default: bool = False
) -> None:
    """--store/--no-cache: the content-addressed campaign cache.

    Campaign commands default to no store (opt-in caching); the
    ``results`` inspection commands default to ``$REPRO_STORE`` or
    ``.repro-store`` since they are meaningless without one.
    """
    parser.add_argument(
        "--store",
        metavar="PATH",
        default=_default_store() if required_default else None,
        help="content-addressed result store directory; identical "
        "campaign re-runs are served from it (hash-verified)",
    )
    if not required_default:
        parser.add_argument(
            "--no-cache",
            action="store_true",
            help="skip the store lookup but still refresh the entry",
        )


# -- designer-facing commands ------------------------------------------------


def _cmd_select(args: argparse.Namespace) -> int:
    policy = SelectionPolicy(args.policy)
    selection = select_code(args.cycles, args.pndc, policy=policy)
    if args.json:
        _emit(args, json.dumps(selection.to_dict(), indent=2))
    else:
        _emit(args, selection.describe())
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.design.engine import DesignEngine

    _validate_engine_args(args)
    spec = DesignSpec(
        words=args.words,
        bits=args.bits,
        column_mux=args.mux,
        c=args.cycles,
        pndc=args.pndc,
        policy=args.policy,
        column_zero_latency=not args.shared_column_code,
        checker_style=args.checker_style,
        decoder_style=args.decoder_style,
        workload=args.workload,
    )
    engine = DesignEngine(
        store=args.store, cache=not args.no_cache
    )
    report = engine.evaluate(
        spec,
        empirical=args.empirical,
        empirical_cycles=args.empirical_cycles,
        engine=args.engine,
        workers=args.workers,
    )
    _emit(args, report.to_json(indent=2) if args.json else report.render())
    return 0


def _parse_org(text: str) -> MemoryOrganization:
    """An organisation: a paper label ('16x2K') or 'WORDSxBITSxMUX'."""
    try:
        return paper_org(text)
    except KeyError:
        pass
    parts = text.lower().split("x")
    if len(parts) in (2, 3):
        try:
            numbers = [int(part) for part in parts]
        except ValueError:
            numbers = None
        if numbers:
            words, bits = numbers[0], numbers[1]
            mux = numbers[2] if len(numbers) == 3 else 8
            if bits > words:
                # almost certainly a transposed paper-style label
                # ('16x2048'): the labels read BITSxWORDS, this form
                # reads WORDSxBITS — refuse rather than size a
                # 16-word x 2048-bit memory nobody meant
                raise argparse.ArgumentTypeError(
                    f"{text!r} reads as {words} words x {bits} bits; "
                    f"the numeric form is WORDSxBITS[xMUX] (did you "
                    f"mean '{bits}x{words}'?)"
                )
            return MemoryOrganization(
                words=words, bits=bits, column_mux=mux
            )
    raise argparse.ArgumentTypeError(
        f"organisation {text!r} is neither a paper label "
        f"({[o.label() for o in PAPER_ORGS]}) nor WORDSxBITS[xMUX]"
    )


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.design.engine import DesignEngine

    organizations = args.org or list(PAPER_ORGS)
    requirements = [
        (c, pndc) for c in args.cycles for pndc in args.pndc
    ]
    specs = DesignSpec.grid(
        organizations,
        requirements,
        policy=args.policy,
        column_zero_latency=not args.shared_column_code,
    )
    reports = DesignEngine(
        store=args.store, cache=not args.no_cache
    ).sweep(specs, workers=args.workers, executor=args.executor)
    if args.json:
        _emit(
            args,
            json.dumps([report.to_dict() for report in reports], indent=2),
        )
        return 0
    from repro.experiments.common import format_table

    rows = [
        [
            report.spec.organization.label(),
            report.spec.c,
            f"{report.spec.pndc:g}",
            report.row.code,
            report.row.a_final,
            f"{float(report.row.escape_per_cycle):.4g}",
            f"{report.area.stdcell_overhead_percent:.2f}",
        ]
        for report in reports
    ]
    table = format_table(
        ["memory", "c", "Pndc", "row code", "a", "escape/cycle", "area %"],
        rows,
    )
    _emit(
        args,
        f"design sweep — {len(reports)} specs "
        f"(workers={args.workers or 1})\n" + table,
    )
    return 0


def _cmd_registry(args: argparse.Namespace) -> int:
    from repro.design.registry import CHECKERS, CODES, DECODERS, MAPPINGS

    families = {
        "codes": CODES.names(),
        "checkers": CHECKERS.names(),
        "mappings": MAPPINGS.names(),
        "decoders": DECODERS.names(),
    }
    if args.json:
        _emit(args, json.dumps(families, indent=2))
    else:
        lines = [
            f"{family:<9}: {', '.join(names)}"
            for family, names in families.items()
        ]
        _emit(args, "\n".join(lines))
    return 0


# -- static analysis: `repro lint` -------------------------------------------


def _resolve_lint_target(args: argparse.Namespace):
    """What ``repro lint TARGET`` analyzes: a SuiteSpec JSON file, a
    DesignSpec JSON file, a built-in suite name, or an organisation
    label/WORDSxBITS[xMUX] (turned into a DesignSpec with the
    -c/--pndc requirement)."""
    text = args.target
    if os.path.isfile(text):
        with open(text) as handle:
            try:
                data = json.load(handle)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{text}: malformed JSON: {exc}") from None
        if isinstance(data, dict) and "blocks" in data:
            from repro.suite.spec import SuiteSpec

            return SuiteSpec.from_dict(data)
        if isinstance(data, dict):
            return DesignSpec.from_dict(data)
        raise ValueError(
            f"{text}: expected a JSON object (SuiteSpec or DesignSpec)"
        )
    from repro.suite import builtin_names, builtin_suite

    if text in builtin_names():
        return builtin_suite(text)
    try:
        org = _parse_org(text)
    except argparse.ArgumentTypeError as exc:
        raise ValueError(
            f"lint target {text!r} is not a spec file, a built-in suite "
            f"({', '.join(builtin_names())}) or an organisation: {exc}"
        ) from None
    return DesignSpec(
        words=org.words,
        bits=org.bits,
        column_mux=org.column_mux,
        c=args.cycles,
        pndc=args.pndc,
    )


def _split_rule_ids(values: Optional[List[str]]) -> Optional[List[str]]:
    if not values:
        return None
    out: List[str] = []
    for value in values:
        out.extend(part for part in value.split(",") if part)
    return out


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.analysis import RULES, rules_for

    if args.list_rules:
        from repro.analysis.base import RULE_KINDS
        from repro.experiments.common import format_table

        rules = [
            rule for kind in RULE_KINDS for rule in rules_for(kind)
        ]
        if args.json:
            payload = [
                {
                    "id": rule.id,
                    "kind": rule.kind,
                    "severity": rule.severity,
                    "summary": rule.summary,
                }
                for rule in rules
            ]
            _emit(args, json.dumps(payload, indent=2))
            return 0
        table = format_table(
            ["rule", "kind", "severity", "summary"],
            [[r.id, r.kind, r.severity, r.summary] for r in rules],
        )
        _emit(args, f"registered analysis rules ({len(rules)})\n" + table)
        return 0

    if args.target is None:
        raise ValueError("a lint target is required (or use --list-rules)")
    only = _split_rule_ids(args.rules)
    skip = _split_rule_ids(args.skip) or []
    unknown = [
        rule_id
        for rule_id in (only or []) + skip
        if rule_id not in RULES
    ]
    if unknown:
        raise ValueError(
            f"unknown rule id(s) {unknown}; see `repro lint --list-rules`"
        )
    from repro.analysis import analyze

    report = analyze(_resolve_lint_target(args), rules=only, skip=skip)
    _emit(
        args, report.to_json(indent=2) if args.json else report.render()
    )
    return report.exit_code(strict=args.strict)


# -- trend analytics: `repro analytics regress|report` -----------------------


def _validate_analytics_args(args: argparse.Namespace) -> None:
    if args.window < 1:
        raise ValueError(f"--window must be >= 1, got {args.window}")
    if args.tolerance is not None and args.tolerance < 0:
        raise ValueError(
            f"--tolerance must be >= 0, got {args.tolerance:g}"
        )


def _cmd_analytics_regress(args: argparse.Namespace) -> int:
    from repro.analytics import run_regress

    _validate_analytics_args(args)
    report = run_regress(
        args.history or DEFAULT_HISTORY_GLOB,
        window=args.window,
        tolerance_pct=args.tolerance,
        only=_split_rule_ids(args.only),
        skip=_split_rule_ids(args.skip),
    )
    _emit(
        args,
        report.to_json(indent=2)
        if args.json
        else report.render(verbose=args.verbose),
    )
    return report.exit_code()


def _cmd_analytics_report(args: argparse.Namespace) -> int:
    from repro.analytics import build_report

    _validate_analytics_args(args)
    store = None
    if args.store:
        if not os.path.isdir(args.store):
            raise ValueError(
                f"no result store at {args.store!r} (create one by "
                f"running a campaign command with --store "
                f"{args.store})"
            )
        from repro.results import ResultStore

        store = ResultStore(args.store)
    client = None
    if args.url:
        from repro.service import ServiceClient

        client = ServiceClient(args.url)
    report = build_report(
        args.history or DEFAULT_HISTORY_GLOB,
        store=store,
        client=client,
        window=args.window,
        tolerance_pct=args.tolerance,
    )
    if args.json:
        _emit(args, report.to_json(indent=2))
    elif args.out:
        with open(args.out, "w") as handle:
            handle.write(report.to_html())
        print(f"wrote {args.out}")
    else:
        _emit(args, report.render())
    return 0


#: what `repro analytics` reads when --history is not given
DEFAULT_HISTORY_GLOB = "BENCH_*.history.jsonl"


# -- artifact-store inspection: `repro results ls|show|diff|export` ----------


def _open_store(args: argparse.Namespace):
    from repro.results import ResultStore

    if not os.path.isdir(args.store):
        raise ValueError(
            f"no result store at {args.store!r} (create one by running a "
            f"campaign command with --store {args.store})"
        )
    return ResultStore(args.store)


def _cmd_results_ls(args: argparse.Namespace) -> int:
    store = _open_store(args)
    entries = store.entries()
    if args.json:
        _emit(
            args,
            json.dumps([entry.to_dict() for entry in entries], indent=2),
        )
        return 0
    from repro.experiments.common import format_table

    rows = [
        [
            entry.key[:12],
            entry.campaign or "?",
            entry.engine or "-",
            entry.faults,
            "-" if entry.coverage is None else f"{entry.coverage:.4f}",
            entry.cycles_simulated,
            f"{entry.size_bytes / 1024:.1f}K",
            time.strftime(
                "%Y-%m-%d %H:%M", time.localtime(entry.created_at)
            ),
        ]
        for entry in entries
    ]
    table = format_table(
        ["key", "campaign", "engine", "faults", "coverage", "cycles",
         "size", "created"],
        rows,
    )
    _emit(
        args,
        f"result store {store.root} — {len(entries)} campaign(s)\n" + table,
    )
    return 0


def _read_entry(store, key: str):
    """The hash-verified stored set of a resolved ``key``.

    ``resolve`` lists a key by its meta file, so a removed payload or
    an unreadable meta makes ``get`` miss: that is one line naming the
    key, not a crash on ``None``.
    """
    result = store.get(key)
    if result is None:
        raise LookupError(
            f"store entry {key} is incomplete (payload missing or "
            f"metadata unreadable); run `repro store verify --store "
            f"{store.root}`"
        )
    return result


def _cmd_results_show(args: argparse.Namespace) -> int:
    store = _open_store(args)
    key = store.resolve(args.key)
    result = _read_entry(store, key)
    payload = {
        "key": key,
        "summary": result.summary(),
        "by_kind": {
            kind: group.summary()
            for kind, group in sorted(result.group_by("kind").items())
        },
        "provenance": [p.to_dict() for p in result.provenances],
    }
    if args.json:
        _emit(args, json.dumps(payload, indent=2))
        return 0
    lines = [f"result set {key}"]
    for field_name, value in payload["summary"].items():
        lines.append(f"    {field_name:<21}: {value}")
    for kind, summary in payload["by_kind"].items():
        lines.append(
            f"    kind {kind:<16}: {summary['detected']}/{summary['faults']}"
            f" detected (coverage {summary['coverage']})"
        )
    for provenance in payload["provenance"]:
        lines.append(
            "    provenance           : "
            + ", ".join(
                f"{k}={v}"
                for k, v in provenance.items()
                if k in ("campaign", "engine", "workload", "scenario_count",
                         "repro_version")
            )
        )
    _emit(args, "\n".join(lines))
    return 0


def _cmd_results_diff(args: argparse.Namespace) -> int:
    store = _open_store(args)
    left = _read_entry(store, store.resolve(args.left))
    right = _read_entry(store, store.resolve(args.right))
    diff = left.diff(right)
    if args.json:
        _emit(args, json.dumps(diff.to_dict(), indent=2))
    else:
        _emit(args, diff.render())
    return 0 if diff.identical else 2


def _cmd_results_export(args: argparse.Namespace) -> int:
    store = _open_store(args)
    result = _read_entry(store, store.resolve(args.key))
    if args.out:
        result.write_jsonl(args.out)
        print(f"wrote {args.out}")
    else:
        print(result.to_jsonl(), end="")
    return 0


# -- store lifecycle: `repro store stats|verify` -----------------------------


def _cmd_store_stats(args: argparse.Namespace) -> int:
    store = _open_store(args)
    usage = store.usage()
    if args.json:
        _emit(args, json.dumps(usage, indent=2))
        return 0
    lines = [f"result store {usage['root']}"]
    for name in ("campaigns", "shards", "reports", "cells"):
        lines.append(f"    {name:<14}: {usage[name]}")
    for name in ("payload_bytes", "report_bytes", "total_bytes"):
        lines.append(
            f"    {name:<14}: {usage[name]} "
            f"({usage[name] / 1024:.1f}K)"
        )
    _emit(args, "\n".join(lines))
    return 0


def _cmd_store_verify(args: argparse.Namespace) -> int:
    store = _open_store(args)
    outcome = store.verify_all()
    if args.json:
        _emit(args, json.dumps(outcome, indent=2))
    else:
        lines = [
            f"verified {outcome['checked']} artifact(s) in "
            f"{outcome['root']}: {outcome['entries']} campaign/shard "
            f"payload(s), {outcome['reports']} report(s)"
        ]
        for failure in outcome["failures"]:
            lines.append(f"    FAIL {failure}")
        lines.append(
            "store ok" if outcome["ok"]
            else f"{len(outcome['failures'])} artifact(s) failed "
            f"verification"
        )
        _emit(args, "\n".join(lines))
    return 0 if outcome["ok"] else 2


# -- the campaign service: `repro serve|submit|jobs|fetch` -------------------


#: default service endpoint for the client subcommands
DEFAULT_URL = "http://127.0.0.1:8032"


def _default_url() -> str:
    return os.environ.get("REPRO_URL", DEFAULT_URL)


def _add_url_option(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--url",
        metavar="URL",
        default=_default_url(),
        help="service endpoint (defaults to $REPRO_URL or "
        f"{DEFAULT_URL})",
    )


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.service import CampaignService, make_server

    if args.workers is not None and args.workers < 1:
        raise ValueError(f"--workers must be >= 1, got {args.workers}")
    service = CampaignService(
        store=args.store, workers=args.workers or 2, resume=True
    )
    server = make_server(
        service, host=args.host, port=args.port, quiet=args.quiet
    )
    host, port = server.server_address[:2]
    print(
        f"repro service on http://{host}:{port} "
        f"(store {service.store_root}, {service.workers} job worker(s))",
        file=sys.stderr,
        flush=True,
    )
    if service.recovered:
        print(
            f"recovered {len(service.recovered)} interrupted job(s): "
            f"{', '.join(service.recovered)}",
            file=sys.stderr,
            flush=True,
        )
    if service.cancelled_on_recovery:
        print(
            f"cancelled {len(service.cancelled_on_recovery)} interrupted "
            f"job(s) with a pending cancel request: "
            f"{', '.join(service.cancelled_on_recovery)}",
            file=sys.stderr,
            flush=True,
        )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
        service.close()
        print("repro service stopped", file=sys.stderr)
    return 0


def _job_progress(stream) -> Callable[[dict], None]:
    def emit(job: dict) -> None:
        snapshot = job.get("progress") or {}
        if "completed" not in snapshot:
            return
        print(
            f"[{snapshot['completed']}/{snapshot['total']}] "
            f"{snapshot.get('cell')}: {snapshot.get('status')}",
            file=stream,
        )

    return emit


def _cmd_submit(args: argparse.Namespace) -> int:
    from repro.service import ServiceClient

    if os.path.isfile(args.suite):
        with open(args.suite) as handle:
            try:
                suite = json.load(handle)
            except json.JSONDecodeError as exc:
                raise ValueError(
                    f"{args.suite}: malformed suite spec: {exc}"
                ) from None
    else:
        suite = args.suite
    client = ServiceClient(args.url)
    job = client.submit(
        suite,
        workers=args.workers,
        only=args.only,
        engine=args.engine_override,
        cache=False if args.no_cache else None,
    )
    if not args.wait:
        if args.json:
            _emit(args, json.dumps(job, indent=2))
        else:
            _emit(
                args,
                f"job {job['job_id']} {job['state']} "
                f"(suite {job['suite']}) — poll with "
                f"`repro jobs {job['job_id']}`",
            )
        return 0
    progress = None if args.quiet else _job_progress(sys.stderr)
    job = client.wait(
        job["job_id"], timeout=args.timeout, progress=progress
    )
    if args.json:
        _emit(args, json.dumps(job, indent=2))
    else:
        execution = (job.get("report") or {}).get("execution") or {}
        _emit(
            args,
            f"job {job['job_id']}: {job['state']} — "
            f"{execution.get('hits', 0)} hit(s), "
            f"{execution.get('simulated', 0)} simulated, "
            f"{execution.get('errors', 0)} error(s)"
            + (f" [{job['error']}]" if job.get("error") else ""),
        )
    return 0 if job["state"] == "done" else 1


def _cmd_jobs(args: argparse.Namespace) -> int:
    from repro.service import ServiceClient

    client = ServiceClient(args.url)
    if args.job_id:
        job = client.job(args.job_id)
        if args.json:
            _emit(args, json.dumps(job, indent=2))
            return 0
        lines = [f"job {job['job_id']} ({job['suite']}): {job['state']}"]
        snapshot = job.get("progress") or {}
        if "completed" in snapshot:
            lines.append(
                f"    progress: {snapshot['completed']}/"
                f"{snapshot['total']} ({snapshot.get('cell')})"
            )
        if job.get("error"):
            lines.append(f"    error   : {job['error']}")
        for key in job.get("result_keys") or ():
            lines.append(f"    result  : {key[:12]}…")
        _emit(args, "\n".join(lines))
        return 0
    jobs = client.jobs()
    if args.json:
        _emit(args, json.dumps(jobs, indent=2))
        return 0
    from repro.experiments.common import format_table

    rows = []
    for job in jobs:
        snapshot = job.get("progress") or {}
        progress = (
            f"{snapshot['completed']}/{snapshot['total']}"
            if "completed" in snapshot
            else "-"
        )
        rows.append(
            [
                job["job_id"],
                job["suite"],
                job["state"],
                progress,
                time.strftime(
                    "%H:%M:%S", time.localtime(job["created_at"])
                ),
            ]
        )
    _emit(
        args,
        f"{len(jobs)} job(s) at {args.url}\n"
        + format_table(
            ["job", "suite", "state", "progress", "created"], rows
        ),
    )
    return 0


def _cmd_fetch(args: argparse.Namespace) -> int:
    from repro.service import ServiceClient

    client = ServiceClient(args.url)
    if args.records:
        payload = client.records(args.key)
        if args.out:
            with open(args.out, "w") as handle:
                handle.write(payload)
            print(f"wrote {args.out}")
        else:
            print(payload, end="")
        return 0
    _emit(args, json.dumps(client.result(args.key), indent=2))
    return 0


# -- campaign suites: `repro suite run|ls|show` ------------------------------


def _suite_progress(stream) -> Callable[[dict], None]:
    """Per-cell progress lines on ``stream`` (stderr, so ``--json`` on
    stdout stays machine-readable)."""

    def emit(event: dict) -> None:
        if event.get("event") != "done":
            return
        status = event.get("status", "?")
        wall = event.get("wall_time_s") or 0.0
        print(
            f"[{event['index'] + 1}/{event['total']}] "
            f"{event['cell']}: {status} ({wall * 1e3:.0f}ms)",
            file=stream,
        )

    return emit


def _cmd_suite_run(args: argparse.Namespace) -> int:
    from repro.suite import SuiteRunner, load_suite

    suite = load_suite(args.suite)
    progress = None if args.quiet else _suite_progress(sys.stderr)
    runner = SuiteRunner(
        store=args.store,
        cache=not args.no_cache,
        workers=args.workers,
        progress=progress,
    )
    report = runner.run(
        suite, only=args.only, engine=args.engine_override
    )
    if args.json:
        _emit(args, report.to_json(indent=2))
    else:
        _emit(args, report.render())
    return 1 if report.errors else 0


def _cmd_suite_ls(args: argparse.Namespace) -> int:
    from repro.suite import builtin_names, builtin_suite

    suites = [builtin_suite(name) for name in builtin_names()]
    if args.json:
        payload = [
            {
                "name": suite.name,
                "cells": len(suite.cells()),
                "families": list(suite.families()),
                "description": suite.description,
            }
            for suite in suites
        ]
        _emit(args, json.dumps(payload, indent=2))
        return 0
    from repro.experiments.common import format_table

    rows = [
        [
            suite.name,
            len(suite.cells()),
            ", ".join(suite.families()),
            suite.description,
        ]
        for suite in suites
    ]
    _emit(
        args,
        f"built-in campaign suites ({len(suites)})\n"
        + format_table(["suite", "cells", "families", "description"], rows),
    )
    return 0


def _cmd_suite_show(args: argparse.Namespace) -> int:
    from repro.suite import load_suite

    suite = load_suite(args.suite)
    cells = suite.cells()
    if args.json:
        payload = dict(suite.to_dict(), cells=[c.to_dict() for c in cells])
        _emit(args, json.dumps(payload, indent=2))
        return 0
    from repro.experiments.common import format_table

    rows = [
        [
            cell.cell_id,
            cell.family,
            (cell.scenarios or {}).get("population", "-"),
            cell.policy.get("engine", "vector"),
        ]
        for cell in cells
    ]
    _emit(
        args,
        f"suite {suite.name} — {len(cells)} cells\n"
        f"{suite.description}\n"
        + format_table(["cell", "family", "population", "engine"], rows),
    )
    return 0


# -- experiment regenerators (one table, not ten handlers) -------------------


@dataclass(frozen=True)
class ExperimentCommand:
    """One CLI subcommand regenerating a table/figure of the paper."""

    name: str
    module: str
    help: str
    #: name of a module-level ``generate_*`` returning dataclass rows,
    #: exposed as structured data under ``--json``; on engine-aware
    #: commands the generator takes (engine=, workers=) so the rows are
    #: produced by the engine the user selected
    rows_attr: Optional[str] = None
    #: campaign-driven commands grow --engine and --workers and report
    #: wall time + faults/sec under --json
    engine_aware: bool = False

    def run(self, args: argparse.Namespace) -> int:
        module = importlib.import_module(self.module)
        kwargs = {}
        if self.engine_aware:
            _validate_engine_args(args)
            kwargs = {
                "engine": args.engine,
                "workers": args.workers,
                "store": args.store,
                "cache": not args.no_cache,
            }
        buffer = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(buffer):
            module.main(**kwargs)
        wall = time.perf_counter() - start
        text = buffer.getvalue()
        if args.json:
            payload = {
                "command": self.name,
                "output": text,
                "wall_time_s": round(wall, 6),
            }
            if self.engine_aware:
                payload["engine"] = args.engine
                payload["workers"] = args.workers
                stats = getattr(module, "LAST_CAMPAIGN_STATS", None)
                if stats:
                    payload["campaign"] = dict(stats)
            if self.rows_attr is not None:
                payload["rows"] = [
                    asdict(row)
                    for row in getattr(module, self.rows_attr)(**kwargs)
                ]
            _emit(args, json.dumps(payload, indent=2))
        else:
            _emit(args, text)
        return 0


EXPERIMENTS = (
    ExperimentCommand(
        "table1", "repro.experiments.table1", "regenerate Table 1",
        rows_attr="generate_table1",
    ),
    ExperimentCommand(
        "table2", "repro.experiments.table2", "regenerate Table 2",
        rows_attr="generate_table2",
    ),
    ExperimentCommand(
        "safety", "repro.experiments.safety_example",
        "regenerate the SII safety example",
    ),
    ExperimentCommand(
        "area-example", "repro.experiments.area_example",
        "regenerate the SIV example",
    ),
    ExperimentCommand(
        "structure", "repro.experiments.structure",
        "verify the figure-3 structure",
    ),
    ExperimentCommand(
        "latency", "repro.experiments.latency_empirical",
        "empirical latency validation",
        engine_aware=True,
    ),
    ExperimentCommand(
        "ablations", "repro.experiments.ablations",
        "odd-a and unordered-code ablations",
        engine_aware=True,
    ),
    ExperimentCommand(
        "ecc-baseline", "repro.experiments.ecc_baseline",
        "SEC-DED baseline comparison",
    ),
    ExperimentCommand(
        "decoder-style", "repro.experiments.decoder_style",
        "single-level vs multilevel decoder comparison",
        engine_aware=True,
    ),
    ExperimentCommand(
        "figures", "repro.experiments.figures",
        "ASCII trade-off and survival curves",
    ),
    ExperimentCommand(
        "transient", "repro.experiments.transient_campaign",
        "transient-upset latency across workload families",
        rows_attr="generate_transient_rows",
        engine_aware=True,
    ),
    ExperimentCommand(
        "march", "repro.experiments.march_campaign",
        "march-algorithm coverage over behavioural faults",
        rows_attr="generate_march_rows",
        engine_aware=True,
    ),
)


# -- parser ------------------------------------------------------------------


#: shown at the end of `repro --help`
EPILOG = """\
campaign suites (1.5):
  repro suite ls                         list the built-in suites
  repro suite show paper_grid            the expanded campaign matrix
  repro suite run paper_grid --store S   run the paper's full grid;
                                         re-running against the same
                                         store serves every cell as a
                                         verified hit (resume-by-default)
  repro suite run grid.json --workers 4  a custom SuiteSpec file over a
                                         bounded 4-process pool

campaign service (1.6):
  repro serve --store S --port 8032      long-running HTTP/JSON job
                                         service over the suite runner
                                         and the shared result store
  repro submit paper_grid --wait         submit a suite as an async job
                                         and stream [i/N] progress
  repro jobs [JOB_ID]                    the server's job table
  repro fetch KEY --records              a stored artifact's JSONL
  repro store stats|verify               occupancy counters / sha256
                                         sweep of every artifact

static analysis (1.8):
  repro lint 16x2K                       prove the TSC properties and
                                         design rules on a paper RAM
  repro lint paper_grid --strict         a suite spec: unknown names,
                                         colliding cells, provenance
  repro lint spec.json --json --out r.json
                                         stable JSON findings for CI
  repro lint --list-rules                every registered rule id

trend analytics (1.9):
  repro analytics regress                gate the BENCH_*.history.jsonl
                                         trajectories: exit 2 when a
                                         ratio metric (speedup,
                                         coverage) erodes past its
                                         tolerance vs the windowed
                                         baseline
  repro analytics regress --only scheme_64x8_c300 --window 3
                                         bisect one bench locally
  repro analytics report --store S --out report.html
                                         self-contained HTML: history
                                         sparklines + provenance-
                                         grouped store trends
"""


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Area Versus Detection Latency Trade-Offs in "
            "Self-Checking Memory Design' (DATE 1995)."
        ),
        epilog=EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    select = sub.add_parser(
        "select", help="size an unordered code from (c, Pndc)"
    )
    select.add_argument("--cycles", "-c", type=int, required=True)
    select.add_argument("--pndc", "-p", type=float, required=True)
    _add_policy_option(select)
    _add_output_options(select)
    select.set_defaults(func=_cmd_select)

    report = sub.add_parser(
        "report", help="full design report for one memory + requirement"
    )
    report.add_argument("--words", type=int, required=True)
    report.add_argument("--bits", type=int, required=True)
    report.add_argument("--mux", type=int, default=8)
    report.add_argument("--cycles", "-c", type=int, required=True)
    report.add_argument("--pndc", "-p", type=float, required=True)
    _add_policy_option(report)
    report.add_argument(
        "--shared-column-code",
        action="store_true",
        help="use the row code on the column decoder (tables' convention) "
        "instead of a zero-latency column mapping",
    )
    report.add_argument(
        "--checker-style", choices=CHECKER_STYLES, default="behavioural"
    )
    report.add_argument("--decoder-style", default="tree")
    report.add_argument(
        "--empirical",
        action="store_true",
        help="attach a measured fault-injection summary (campaign on the "
        "row decoder)",
    )
    report.add_argument(
        "--empirical-cycles", type=int, default=256, metavar="CYCLES"
    )
    from repro.scenarios import NAMED_WORKLOADS

    report.add_argument(
        "--workload",
        choices=NAMED_WORKLOADS,
        default=None,
        help="traffic family driving the --empirical measurement "
        "(default: uniform; 'march' is one full March C- sweep and "
        "ignores --empirical-cycles)",
    )
    _add_engine_options(report)
    _add_store_options(report)
    _add_output_options(report)
    report.set_defaults(func=_cmd_report)

    sweep = sub.add_parser(
        "sweep",
        help="batch design reports over organisations x requirements",
    )
    sweep.add_argument(
        "--org",
        action="append",
        type=_parse_org,
        metavar="LABEL|WxBxM",
        help="memory organisation (repeatable); default: the three "
        "paper RAMs",
    )
    sweep.add_argument(
        "--cycles", "-c", action="append", type=int, required=True,
        help="latency budget in cycles (repeatable)",
    )
    sweep.add_argument(
        "--pndc", "-p", action="append", type=float, required=True,
        help="escape-probability target (repeatable)",
    )
    _add_policy_option(sweep)
    sweep.add_argument("--shared-column-code", action="store_true")
    sweep.add_argument(
        "--workers", type=int, default=None,
        help="parallel evaluation workers (default: serial)",
    )
    sweep.add_argument(
        "--executor", choices=("thread", "process"), default="thread"
    )
    _add_store_options(sweep)
    _add_output_options(sweep)
    sweep.set_defaults(func=_cmd_sweep)

    results = sub.add_parser(
        "results",
        help="inspect the content-addressed campaign result store",
    )
    results_sub = results.add_subparsers(
        dest="results_command", required=True
    )
    results_ls = results_sub.add_parser(
        "ls", help="list stored campaign result sets"
    )
    results_ls.set_defaults(func=_cmd_results_ls)
    results_show = results_sub.add_parser(
        "show", help="summary + provenance of one stored result set"
    )
    results_show.add_argument("key", help="store key (prefix accepted)")
    results_show.set_defaults(func=_cmd_results_show)
    results_diff = results_sub.add_parser(
        "diff",
        help="record-matched comparison of two stored result sets "
        "(exit code 2 when outcomes differ)",
    )
    results_diff.add_argument("left", help="store key (prefix accepted)")
    results_diff.add_argument("right", help="store key (prefix accepted)")
    results_diff.set_defaults(func=_cmd_results_diff)
    results_export = results_sub.add_parser(
        "export", help="write one stored result set as JSONL"
    )
    results_export.add_argument("key", help="store key (prefix accepted)")
    results_export.set_defaults(func=_cmd_results_export)
    for sub_parser in (
        results_ls, results_show, results_diff, results_export
    ):
        _add_store_options(sub_parser, required_default=True)
    for sub_parser in (results_ls, results_show, results_diff):
        _add_output_options(sub_parser)
    # export is inherently JSONL — only the output path applies
    results_export.add_argument(
        "--out", metavar="PATH", help="write the JSONL to a file"
    )

    suite = sub.add_parser(
        "suite",
        help="declarative campaign suites with store-backed resume",
    )
    suite_sub = suite.add_subparsers(dest="suite_command", required=True)
    suite_run = suite_sub.add_parser(
        "run",
        help="run a suite (built-in name or SuiteSpec JSON file); "
        "completed cells resume from the store",
    )
    suite_run.add_argument(
        "suite", help="built-in suite name (see `suite ls`) or spec file"
    )
    suite_run.add_argument(
        "--engine",
        dest="engine_override",
        choices=ENGINE_CHOICES,
        default=None,
        help="override every cell's policy to this campaign engine",
    )
    suite_run.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="schedule cells over a bounded N-process pool",
    )
    from repro.suite.spec import FAMILIES

    suite_run.add_argument(
        "--only",
        choices=FAMILIES,
        default=None,
        help="run only the cells of one campaign family",
    )
    suite_run.add_argument(
        "--store",
        metavar="PATH",
        default=_default_store(),
        help="result store backing the suite (resume-by-default; "
        "defaults to $REPRO_STORE or .repro-store)",
    )
    suite_run.add_argument(
        "--no-cache",
        action="store_true",
        help="re-run every cell but still refresh the store entries",
    )
    suite_run.add_argument(
        "--quiet",
        action="store_true",
        help="suppress the per-cell progress lines on stderr",
    )
    _add_output_options(suite_run)
    suite_run.set_defaults(func=_cmd_suite_run)
    suite_ls = suite_sub.add_parser(
        "ls", help="list the built-in suites"
    )
    _add_output_options(suite_ls)
    suite_ls.set_defaults(func=_cmd_suite_ls)
    suite_show = suite_sub.add_parser(
        "show", help="expand a suite into its concrete campaign cells"
    )
    suite_show.add_argument(
        "suite", help="built-in suite name or spec file"
    )
    _add_output_options(suite_show)
    suite_show.set_defaults(func=_cmd_suite_show)

    store = sub.add_parser(
        "store",
        help="result-store lifecycle: occupancy stats, artifact "
        "verification",
    )
    store_sub = store.add_subparsers(dest="store_command", required=True)
    store_stats = store_sub.add_parser(
        "stats", help="entry counts and on-disk footprint"
    )
    store_stats.set_defaults(func=_cmd_store_stats)
    store_verify = store_sub.add_parser(
        "verify",
        help="sha256-verify every stored artifact (exit 2 on failure)",
    )
    store_verify.set_defaults(func=_cmd_store_verify)
    for sub_parser in (store_stats, store_verify):
        _add_store_options(sub_parser, required_default=True)
        _add_output_options(sub_parser)

    serve = sub.add_parser(
        "serve",
        help="run the campaign service: submit suites as async jobs "
        "over HTTP/JSON",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=8032,
        help="listen port (0 binds an ephemeral port)",
    )
    serve.add_argument(
        "--store",
        metavar="PATH",
        default=_default_store(),
        help="result store the service executes against (job table "
        "and artifacts live here; defaults to $REPRO_STORE or "
        ".repro-store)",
    )
    serve.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="bounded job worker pool (default: 2)",
    )
    serve.add_argument(
        "--quiet", action="store_true",
        help="suppress per-request log lines on stderr",
    )
    serve.set_defaults(func=_cmd_serve)

    submit = sub.add_parser(
        "submit",
        help="submit a suite to a running service as an async job",
    )
    submit.add_argument(
        "suite", help="built-in suite name or SuiteSpec JSON file"
    )
    _add_url_option(submit)
    submit.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="per-job cell pool on the server",
    )
    submit.add_argument(
        "--only",
        choices=FAMILIES,
        default=None,
        help="run only the cells of one campaign family",
    )
    submit.add_argument(
        "--engine",
        dest="engine_override",
        choices=ENGINE_CHOICES,
        default=None,
        help="override every cell's policy to this campaign engine",
    )
    submit.add_argument(
        "--no-cache",
        action="store_true",
        help="re-run every cell but still refresh the store entries",
    )
    submit.add_argument(
        "--wait",
        action="store_true",
        help="long-poll the job to a terminal state, streaming [i/N] "
        "progress on stderr as cells complete (exit 1 unless it ends "
        "'done')",
    )
    submit.add_argument(
        "--timeout", type=float, default=600.0, metavar="SECONDS",
        help="--wait deadline (default: 600)",
    )
    submit.add_argument(
        "--quiet", action="store_true",
        help="suppress the --wait progress lines",
    )
    _add_output_options(submit)
    submit.set_defaults(func=_cmd_submit)

    jobs = sub.add_parser(
        "jobs", help="list a running service's jobs (or show one)"
    )
    jobs.add_argument(
        "job_id", nargs="?", default=None, help="job id (omit to list)"
    )
    _add_url_option(jobs)
    _add_output_options(jobs)
    jobs.set_defaults(func=_cmd_jobs)

    fetch = sub.add_parser(
        "fetch",
        help="fetch a stored result from a running service by store key",
    )
    fetch.add_argument("key", help="store key (prefix accepted)")
    fetch.add_argument(
        "--records",
        action="store_true",
        help="the raw JSONL records instead of the metadata summary",
    )
    _add_url_option(fetch)
    _add_output_options(fetch)
    fetch.set_defaults(func=_cmd_fetch)

    analytics = sub.add_parser(
        "analytics",
        help="bench/store trend analytics and the CI regression gate",
    )
    analytics_sub = analytics.add_subparsers(
        dest="analytics_command", required=True
    )
    regress = analytics_sub.add_parser(
        "regress",
        help="flag metric erosion vs a windowed baseline "
        "(exit 2 on any hard regression)",
        description=(
            "Compare every bench history's last entry against a "
            "median-of-trailing-window baseline.  Ratio metrics "
            "(speedup, coverage) fail hard; raw wall seconds are "
            "warn-only annotations (shared runners are noisy).  "
            "Exit 0 clean, 2 on any hard regression — the `repro "
            "store verify` contract."
        ),
    )
    report_cmd = analytics_sub.add_parser(
        "report",
        help="combined JSON/HTML trend report over histories, a "
        "store, or a running service",
        description=(
            "Render the read side in one artifact: history "
            "sparklines, regression findings, and coverage/latency "
            "trends over store artifacts grouped by provenance "
            "(campaign family, workload label, engine policy).  "
            "--out writes the self-contained HTML page; --json the "
            "machine payload."
        ),
    )
    for sub_parser in (regress, report_cmd):
        sub_parser.add_argument(
            "--history",
            action="append",
            metavar="GLOB",
            help="history trajectory glob (repeatable; default "
            f"{DEFAULT_HISTORY_GLOB!r})",
        )
        sub_parser.add_argument(
            "--window",
            type=int,
            default=5,
            metavar="K",
            help="baseline = median of the K entries before the "
            "last (default 5)",
        )
        sub_parser.add_argument(
            "--tolerance",
            type=float,
            default=None,
            metavar="PCT",
            help="override every metric's tolerance band, percent "
            "(default: 25 for hard ratio metrics, 50 for warn-only "
            "wall metrics)",
        )
        _add_output_options(sub_parser)
    regress.add_argument(
        "--only",
        action="append",
        metavar="BENCH[,BENCH...]",
        help="gate only these benches (repeatable, comma-separable; "
        "unknown names fail fast)",
    )
    regress.add_argument(
        "--skip",
        action="append",
        metavar="BENCH[,BENCH...]",
        help="exclude these benches (repeatable, comma-separable)",
    )
    regress.add_argument(
        "--verbose",
        action="store_true",
        help="also list the series skipped for lack of a baseline",
    )
    regress.set_defaults(func=_cmd_analytics_regress)
    report_cmd.add_argument(
        "--store",
        metavar="PATH",
        default=None,
        help="result store to trend over, grouped by provenance "
        "(optional)",
    )
    report_cmd.add_argument(
        "--url",
        metavar="URL",
        default=None,
        help="query a running `repro serve` for its artifacts "
        "instead of (or besides) a local store",
    )
    report_cmd.set_defaults(func=_cmd_analytics_report)

    registry = sub.add_parser(
        "registry", help="list pluggable codes/checkers/mappings/decoders"
    )
    _add_output_options(registry)
    registry.set_defaults(func=_cmd_registry)

    lint = sub.add_parser(
        "lint",
        help="static design linter & TSC property prover",
        description=(
            "Statically analyze a design or suite without simulating a "
            "cycle: netlist well-formedness, TSC checker proofs "
            "(code-disjoint / self-testing / fault-secure), collapse "
            "soundness, and suite-spec sanity.  Exit code 0 means no "
            "error findings (with --strict: no findings at all)."
        ),
    )
    lint.add_argument(
        "target",
        nargs="?",
        default=None,
        help="SuiteSpec or DesignSpec JSON file, built-in suite name, "
        "paper label ('16x2K') or WORDSxBITS[xMUX]",
    )
    lint.add_argument(
        "--cycles", "-c", type=int, default=10,
        help="latency budget for organisation targets (default 10)",
    )
    lint.add_argument(
        "--pndc", "-p", type=float, default=1e-9,
        help="escape-probability target for organisation targets "
        "(default 1e-9)",
    )
    lint.add_argument(
        "--rules",
        action="append",
        metavar="ID[,ID...]",
        help="run only these rule ids (repeatable, comma-separable)",
    )
    lint.add_argument(
        "--skip",
        action="append",
        metavar="ID[,ID...]",
        help="exclude these rule ids (repeatable, comma-separable)",
    )
    lint.add_argument(
        "--strict",
        action="store_true",
        help="fail on warnings and info findings too",
    )
    lint.add_argument(
        "--list-rules",
        action="store_true",
        help="list the registered rules and exit",
    )
    _add_output_options(lint)
    lint.set_defaults(func=_cmd_lint)

    for entry in EXPERIMENTS:
        cmd = sub.add_parser(entry.name, help=entry.help)
        _add_output_options(cmd)
        if entry.engine_aware:
            _add_engine_options(cmd)
            _add_store_options(cmd)
        cmd.set_defaults(func=entry.run)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:  # e.g. piped into `head`
        return 1
    except Exception as exc:  # argparse exits are SystemExit, not caught
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
