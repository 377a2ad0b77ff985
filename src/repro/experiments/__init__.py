"""Regenerators for every table and figure of the paper (see DESIGN.md §5).

Each module is runnable (``python -m repro.experiments.<name>``) and
exposes a ``generate_*``/``run_*`` function returning structured rows so
benches and tests can assert on the numbers.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.experiments.table1": ("generate_table1", "render_table1"),
        "repro.experiments.table2": ("generate_table2", "render_table2"),
        "repro.experiments.safety_example": ("generate_safety_example",),
        "repro.experiments.area_example": ("generate_area_example",),
        "repro.experiments.structure": (
            "build_figure3_instance",
            "verify_structure",
        ),
        "repro.experiments.latency_empirical": ("run_latency_experiment",),
        "repro.experiments.ablations": (
            "run_odd_a_ablation",
            "run_unordered_ablation",
        ),
        "repro.experiments.ecc_baseline": (
            "run_ecc_baseline",
            "storage_overhead_rows",
        ),
        "repro.experiments.decoder_style": ("run_decoder_style_experiment",),
    },
)

if TYPE_CHECKING:
    from repro.experiments.ablations import (  # noqa: F401
        run_odd_a_ablation,
        run_unordered_ablation,
    )
    from repro.experiments.area_example import generate_area_example  # noqa: F401
    from repro.experiments.decoder_style import run_decoder_style_experiment  # noqa: F401
    from repro.experiments.ecc_baseline import (  # noqa: F401
        run_ecc_baseline,
        storage_overhead_rows,
    )
    from repro.experiments.latency_empirical import run_latency_experiment  # noqa: F401
    from repro.experiments.safety_example import generate_safety_example  # noqa: F401
    from repro.experiments.structure import (  # noqa: F401
        build_figure3_instance,
        verify_structure,
    )
    from repro.experiments.table1 import generate_table1, render_table1  # noqa: F401
    from repro.experiments.table2 import generate_table2, render_table2  # noqa: F401
