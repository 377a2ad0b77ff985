"""`repro.analytics` — the read side of the bench/artifact record.

Every push *writes* four ``BENCH_*.history.jsonl`` trajectories and a
provenance-stamped result store; this package *reads* them:

* :mod:`~repro.analytics.history` — the shared history-append helper
  (timestamp + git SHA stamping) and the drift-tolerant loader that
  turns every trajectory into typed
  :class:`~repro.analytics.model.TrendSeries`;
* :mod:`~repro.analytics.regress` — cross-version regression
  detection: median-of-trailing-window baselines, per-metric polarity
  (speedup/coverage higher-is-better hard, wall seconds
  lower-is-better warn-only) and tolerance bands;
* :mod:`~repro.analytics.trends` — coverage/latency trend queries
  over :class:`~repro.results.store.ResultStore` artifacts grouped by
  provenance (campaign family, workload label, engine policy), local
  or over the campaign service's result API;
* :mod:`~repro.analytics.report` / :mod:`~repro.analytics.html` —
  the combined JSON + self-contained static HTML report CI uploads.

CLI: ``repro analytics regress`` (exit 0 clean / 2 on any hard
regression — the ``repro store verify`` contract) and ``repro
analytics report [--out report.html]``.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.analytics.history": (
            "HistoryEntry",
            "append_entry",
            "git_sha",
            "load_entries",
            "load_history",
        ),
        "repro.analytics.html": ("render_html",),
        "repro.analytics.model": (
            "Regression",
            "TrendGroup",
            "TrendPoint",
            "TrendSeries",
        ),
        "repro.analytics.regress": (
            "DEFAULT_WINDOW",
            "MetricPolicy",
            "RegressReport",
            "default_policy",
            "detect",
            "known_benches",
            "select_series",
        ),
        "repro.analytics.report": (
            "AnalyticsReport",
            "build_report",
            "run_regress",
        ),
        "repro.analytics.trends": ("service_trends", "store_trends"),
    },
)

if TYPE_CHECKING:
    from repro.analytics.history import (  # noqa: F401
        HistoryEntry,
        append_entry,
        git_sha,
        load_entries,
        load_history,
    )
    from repro.analytics.html import render_html  # noqa: F401
    from repro.analytics.model import (  # noqa: F401
        Regression,
        TrendGroup,
        TrendPoint,
        TrendSeries,
    )
    from repro.analytics.regress import (  # noqa: F401
        DEFAULT_WINDOW,
        MetricPolicy,
        RegressReport,
        default_policy,
        detect,
        known_benches,
        select_series,
    )
    from repro.analytics.report import (  # noqa: F401
        AnalyticsReport,
        build_report,
        run_regress,
    )
    from repro.analytics.trends import service_trends, store_trends  # noqa: F401
