"""Gate-level circuit substrate: netlists, faults, builders, simulation."""

from repro.circuits.builders import (
    and_tree,
    literal_pair,
    or_tree,
    reduce_tree,
    xor_tree,
)
from repro.circuits.equivalence import (
    FaultClasses,
    collapse_faults,
    representative_faults,
)
from repro.circuits.faults import (
    FaultBase,
    NetStuckAt,
    PinStuckAt,
    enumerate_stuck_at_faults,
)
from repro.circuits.gates import GATE_ARITY, GateType, evaluate_gate
from repro.circuits.netlist import Circuit, Gate
from repro.circuits.simulator import (
    coverage,
    detects,
    fault_free_responses,
    first_difference,
)

__all__ = [
    "Circuit",
    "Gate",
    "GateType",
    "GATE_ARITY",
    "evaluate_gate",
    "FaultBase",
    "NetStuckAt",
    "PinStuckAt",
    "enumerate_stuck_at_faults",
    "and_tree",
    "or_tree",
    "xor_tree",
    "reduce_tree",
    "literal_pair",
    "coverage",
    "detects",
    "fault_free_responses",
    "first_difference",
    "FaultClasses",
    "collapse_faults",
    "representative_faults",
]
