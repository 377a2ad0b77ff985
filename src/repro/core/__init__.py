"""The paper's primary contribution: latency-driven code selection,
address mappings, the analytic latency model, the assembled figure-3
scheme, the §II safety model and the trade-off explorer."""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.core.latency": (
            "collision_count",
            "escape_probability",
            "worst_escape_probability",
            "worst_escape_over_blocks",
            "pndc",
            "worst_pndc",
            "required_a_for",
            "cycles_to_reach",
            "expected_detection_cycles",
            "detection_quantile",
        ),
        "repro.core.mapping": (
            "AddressMapping",
            "ModAMapping",
            "ParityMapping",
            "IdentityMapping",
            "TruncatedBergerMapping",
            "mapping_for_code",
        ),
        "repro.core.selection": (
            "SelectionPolicy",
            "CodeSelection",
            "select_code",
            "select_zero_latency_code",
            "evaluate_code",
        ),
        "repro.core.scheme": ("ReadResult", "SelfCheckingMemory"),
        "repro.core.safety": (
            "SafetyModel",
            "undetectable_rate_unchecked_decoders",
            "undetectable_rate_with_coverage",
        ),
        "repro.core.tradeoff": ("TradeoffExplorer", "TradeoffPoint"),
        "repro.core.deterministic": (
            "DeterministicBound",
            "deterministic_bounds",
            "scan_guarantee",
            "worst_case_latency_for_site",
        ),
        "repro.core.plan": ("MemoryCodePlan", "plan_memory_codes"),
    },
)

if TYPE_CHECKING:
    from repro.core.latency import (  # noqa: F401
        collision_count,
        cycles_to_reach,
        detection_quantile,
        escape_probability,
        expected_detection_cycles,
        pndc,
        required_a_for,
        worst_escape_over_blocks,
        worst_escape_probability,
        worst_pndc,
    )
    from repro.core.mapping import (  # noqa: F401
        AddressMapping,
        IdentityMapping,
        ModAMapping,
        ParityMapping,
        TruncatedBergerMapping,
        mapping_for_code,
    )
    from repro.core.deterministic import (  # noqa: F401
        DeterministicBound,
        deterministic_bounds,
        scan_guarantee,
        worst_case_latency_for_site,
    )
    from repro.core.plan import MemoryCodePlan, plan_memory_codes  # noqa: F401
    from repro.core.safety import (  # noqa: F401
        SafetyModel,
        undetectable_rate_unchecked_decoders,
        undetectable_rate_with_coverage,
    )
    from repro.core.scheme import ReadResult, SelfCheckingMemory  # noqa: F401
    from repro.core.selection import (  # noqa: F401
        CodeSelection,
        SelectionPolicy,
        evaluate_code,
        select_code,
        select_zero_latency_code,
    )
    from repro.core.tradeoff import TradeoffExplorer, TradeoffPoint  # noqa: F401
