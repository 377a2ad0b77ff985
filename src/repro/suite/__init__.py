"""`repro.suite` — the declarative campaign-suite orchestrator (1.5).

The batch layer over the campaign engine and the artifact store:

* :class:`SuiteSpec` — a JSON-round-trippable matrix of targets x
  workloads x scenario populations x engine policies, expanded into
  concrete :class:`CampaignCell`\\ s;
* :class:`SuiteRunner` — schedules cells over a bounded process pool
  with per-cell store lookup first (a hit skips the simulator),
  streaming progress callbacks and fail-soft error capture;
* :class:`SuiteReport` — per-cell outcomes + aggregate coverage /
  latency statistics and hit/miss/error counters, with the
  re-run-invariant payload under ``to_dict(stable_only=True)``;
* built-ins — :func:`builtin_suite`\\ (``"paper_grid"``) reproduces the
  paper's full result grid in one resumable invocation.

Quick path::

    from repro.suite import SuiteRunner, builtin_suite

    report = SuiteRunner(store=".repro-store").run(
        builtin_suite("paper_grid")
    )
    print(report.render())      # second run: all verified store hits

CLI: ``repro suite run|ls|show``.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.suite.spec": (
            "FAMILIES",
            "CampaignCell",
            "MatrixBlock",
            "SuiteSpec",
        ),
        "repro.suite.populations": ("POPULATIONS", "build_population"),
        "repro.suite.runner": ("SuiteRunner", "execute_cell"),
        "repro.suite.report": ("CellOutcome", "SuiteReport"),
        "repro.suite.builtin": (
            "BUILTIN_SUITES",
            "builtin_names",
            "builtin_suite",
            "load_suite",
        ),
    },
)

if TYPE_CHECKING:
    from repro.suite.builtin import (  # noqa: F401
        BUILTIN_SUITES,
        builtin_names,
        builtin_suite,
        load_suite,
    )
    from repro.suite.populations import POPULATIONS, build_population  # noqa: F401
    from repro.suite.report import CellOutcome, SuiteReport  # noqa: F401
    from repro.suite.runner import SuiteRunner, execute_cell  # noqa: F401
    from repro.suite.spec import FAMILIES, CampaignCell, MatrixBlock, SuiteSpec  # noqa: F401
