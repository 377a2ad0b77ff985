"""Structural stuck-at fault collapsing (equivalence classes).

Standard EDA machinery: many single stuck-at faults are provably
indistinguishable at the gate whose pin they sit on, so campaigns only
need one representative per class.  The classical local rules:

* NOT/BUF: input s-a-v ≡ output s-a-(v xor inverted);
* AND:  any input s-a-0 ≡ output s-a-0 (controlling value);
* NAND: any input s-a-0 ≡ output s-a-1;
* OR:   any input s-a-1 ≡ output s-a-1;
* NOR:  any input s-a-1 ≡ output s-a-0;
* XOR/XNOR: no input/output equivalence;
* a net with a single reader: the stem fault ≡ that reader's pin fault —
  unless the net is a primary output, where the stem fault is directly
  observable and the branch fault is not.

Classes are built with union-find over fault keys.  Collapsing is purely
structural and conservative: two faults in one class are *guaranteed*
functionally equivalent at every primary output (the test suite re-proves
this by exhaustive simulation on randomly built circuits).  Output
equivalence is exactly what a campaign observes, which is what lets the
vector engine (:mod:`repro.faultsim.vectorsim`) simulate one representative
per class and fan the measured latencies back out to every member.

Over the full fault universe of the paper's decoder trees the collapse
ratio is substantial — the AND-tree structure chains controlling values
level to level.  The stem-only lists campaigns run by default merge
nothing, though: two stems share a class only through a rule-1 edge, so
a list whose stems all have several readers (or are outputs) and which
holds no pin fault is all singletons.  :func:`collapse_faults` returns
such a list as is, without building the union-find; lists with pin
faults (``decoder-style``'s) still collapse.
"""

from __future__ import annotations

import itertools
from collections import Counter
from typing import Dict, List, Sequence, Tuple

from repro.circuits.faults import FaultBase, NetStuckAt, PinStuckAt
from repro.circuits.gates import GateType
from repro.circuits.netlist import Circuit

__all__ = [
    "FaultClasses",
    "collapse_faults",
    "representative_faults",
]

#: controlling input value and the output value it forces, per gate type
_CONTROLLING: Dict[GateType, Tuple[int, int]] = {
    GateType.AND: (0, 0),
    GateType.NAND: (0, 1),
    GateType.OR: (1, 1),
    GateType.NOR: (1, 0),
}


class _UnionFind:
    def __init__(self):
        self.parent: Dict[Tuple, Tuple] = {}

    def add(self, key: Tuple) -> None:
        self.parent.setdefault(key, key)

    def find(self, key: Tuple) -> Tuple:
        root = key
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[key] != root:  # path compression
            self.parent[key], key = root, self.parent[key]
        return root

    def union(self, a: Tuple, b: Tuple) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra


class FaultClasses:
    """The result of collapsing: classes of equivalent stuck-at faults."""

    def __init__(self, classes: List[List[FaultBase]], total: int):
        self.classes = classes
        self.total = total

    @property
    def num_classes(self) -> int:
        return len(self.classes)

    @property
    def collapse_ratio(self) -> float:
        """collapsed / original fault count (lower = more collapsing)."""
        return self.num_classes / self.total if self.total else 1.0

    def representatives(self) -> List[FaultBase]:
        """One fault per class (the class's first member)."""
        return [cls[0] for cls in self.classes]

    def class_of(self, fault: FaultBase) -> List[FaultBase]:
        for cls in self.classes:
            if any(f.key() == fault.key() for f in cls):
                return cls
        raise KeyError(f"fault {fault!r} not in any class")


def _full_fault_universe(circuit: Circuit) -> List[FaultBase]:
    """Every net fault and every pin fault, both polarities."""
    faults: List[FaultBase] = []
    for net in circuit.input_nets:
        for value in (0, 1):
            faults.append(NetStuckAt(net, value))
    for gate in circuit.gates:
        for value in (0, 1):
            faults.append(NetStuckAt(gate.output, value))
        for pin in range(len(gate.inputs)):
            for value in (0, 1):
                faults.append(PinStuckAt(gate.index, pin, value))
    return faults


def _universe_keys(circuit: Circuit) -> List[Tuple]:
    """Every net/pin fault key, both polarities — no fault objects.

    The keys alone drive union-find; materialising
    :func:`_full_fault_universe`'s objects is only needed when the
    caller wants full classes back.
    """
    keys: List[Tuple] = []
    for net in circuit.input_nets:
        keys.append(("net", net, 0))
        keys.append(("net", net, 1))
    for gate in circuit.gates:
        output = gate.output
        keys.append(("net", output, 0))
        keys.append(("net", output, 1))
        for pin in range(len(gate.inputs)):
            keys.append(("pin", gate.index, pin, 0))
            keys.append(("pin", gate.index, pin, 1))
    return keys


def _can_merge(fault, readers, observable, num_nets) -> bool:
    """Whether ``fault`` may share a class with another listed fault:
    anything but a stem fault on an output or on a net without exactly
    one reader pin (``readers``: reader pins per net; faults the universe
    does not hold take the union-find, which rejects them)."""
    if type(fault) is not NetStuckAt or not 0 <= fault.net < num_nets:
        return True
    return fault.net not in observable and readers[fault.net] == 1


def collapse_faults(
    circuit: Circuit, faults: Sequence[FaultBase] = None
) -> FaultClasses:
    """Partition the fault universe into structural equivalence classes.

    When ``faults`` is given, only those faults are classified (the
    union-find still runs over the full key universe, so equivalences
    through unlisted faults still merge — but no universe fault objects
    are materialised, which keeps per-campaign collapsing cheap).

    A list that cannot merge is returned as singleton classes, deduplicated
    by key in first-occurrence order, without the union-find: every fault
    is a :class:`NetStuckAt` on a net that is an output or has other than
    one reader pin.  Each fault has at most one equivalence towards the
    outputs (a stem towards its lone reader's pin, a pin towards its gate's
    output), so every class is a tree with one such fault as its root;
    such a stem has none, so it is a root, and no two roots share a class.
    """
    readers = Counter(
        itertools.chain.from_iterable(gate.inputs for gate in circuit.gates)
    )
    observable = set(circuit.output_nets)

    if faults is not None and not any(
        _can_merge(fault, readers, observable, circuit.num_nets)
        for fault in faults
    ):
        unique: Dict[Tuple, FaultBase] = {}
        for fault in faults:
            unique.setdefault(fault.key(), fault)
        singletons = [[fault] for fault in unique.values()]
        return FaultClasses(singletons, len(unique))

    uf = _UnionFind()
    for key in _universe_keys(circuit):
        uf.add(key)

    # Rule 1: single-reader stems — stem fault ≡ the lone pin fault.
    # Guarded by observability: if the stem net is itself a primary
    # output (e.g. a decoder word line also feeding one ROM column), the
    # stem fault flips that output while the branch fault does not, so
    # the two are distinguishable and must stay in separate classes.
    for gate in circuit.gates:
        for pin, net in enumerate(gate.inputs):
            if readers[net] == 1 and net not in observable:
                for value in (0, 1):
                    uf.union(
                        ("net", net, value),
                        ("pin", gate.index, pin, value),
                    )

    for gate in circuit.gates:
        # Rule 2: inverting/buffering single-input gates.
        if gate.gate_type in (GateType.NOT, GateType.BUF):
            invert = 1 if gate.gate_type is GateType.NOT else 0
            for value in (0, 1):
                uf.union(
                    ("pin", gate.index, 0, value),
                    ("net", gate.output, value ^ invert),
                )
        # Rule 3: controlling values.
        control = _CONTROLLING.get(gate.gate_type)
        if control is not None:
            in_value, out_value = control
            for pin in range(len(gate.inputs)):
                uf.union(
                    ("pin", gate.index, pin, in_value),
                    ("net", gate.output, out_value),
                )

    by_root: Dict[Tuple, List[FaultBase]] = {}
    if faults is not None:
        seen = set()
        for fault in faults:
            key = fault.key()
            if key in seen:
                continue
            seen.add(key)
            by_root.setdefault(uf.find(key), []).append(fault)
        return FaultClasses(list(by_root.values()), len(seen))

    universe = _full_fault_universe(circuit)
    for fault in universe:
        by_root.setdefault(uf.find(fault.key()), []).append(fault)
    return FaultClasses(list(by_root.values()), len(universe))


def representative_faults(circuit: Circuit) -> List[FaultBase]:
    """Convenience: one representative per equivalence class."""
    return collapse_faults(circuit).representatives()
