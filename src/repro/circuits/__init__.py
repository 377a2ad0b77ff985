"""Gate-level circuit substrate: netlists, faults, builders, simulation."""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.circuits.netlist": ("Circuit", "Gate"),
        "repro.circuits.gates": ("GateType", "GATE_ARITY", "evaluate_gate"),
        "repro.circuits.faults": (
            "FaultBase",
            "NetStuckAt",
            "PinStuckAt",
            "enumerate_stuck_at_faults",
        ),
        "repro.circuits.builders": (
            "and_tree",
            "or_tree",
            "xor_tree",
            "reduce_tree",
            "literal_pair",
        ),
        "repro.circuits.simulator": (
            "coverage",
            "detects",
            "fault_free_responses",
            "first_difference",
        ),
        "repro.circuits.equivalence": (
            "FaultClasses",
            "collapse_faults",
            "representative_faults",
        ),
    },
)

if TYPE_CHECKING:
    from repro.circuits.builders import (  # noqa: F401
        and_tree,
        literal_pair,
        or_tree,
        reduce_tree,
        xor_tree,
    )
    from repro.circuits.equivalence import (  # noqa: F401
        FaultClasses,
        collapse_faults,
        representative_faults,
    )
    from repro.circuits.faults import (  # noqa: F401
        FaultBase,
        NetStuckAt,
        PinStuckAt,
        enumerate_stuck_at_faults,
    )
    from repro.circuits.gates import GATE_ARITY, GateType, evaluate_gate  # noqa: F401
    from repro.circuits.netlist import Circuit, Gate  # noqa: F401
    from repro.circuits.simulator import (  # noqa: F401
        coverage,
        detects,
        fault_free_responses,
        first_difference,
    )
