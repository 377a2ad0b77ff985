"""Fault-simulation driver over a :class:`~repro.circuits.netlist.Circuit`.

Fault simulation over explicit stimulus lists.  Every entry point takes
an ``engine`` argument, one of :data:`ENGINES` — the same two the
campaign layer runs:

* ``"vector"`` (default) — the stimulus list is packed once into lane
  words (lane ``k`` = stimulus ``k``) and evaluated on
  :class:`repro.circuits.parallel.VectorCircuit`: one netlist traversal
  per fault, or per fault batch in :func:`coverage`, instead of one per
  stimulus;
* ``"serial"`` — per-stimulus loops over
  :meth:`~repro.circuits.netlist.Circuit.evaluate`, kept as the
  reference oracle (the test suite proves the engines agree).
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.circuits.engines import ENGINES, check_engine
from repro.circuits.faults import FaultBase
from repro.circuits.netlist import Circuit
from repro.circuits.parallel import (
    VectorCircuit,
    first_set_lanes,
    judge_lanes,
    lane_mask,
    pack_bool,
    unpack_lanes,
)

__all__ = [
    "ENGINES",
    "check_engine",
    "fault_free_responses",
    "first_difference",
    "detects",
    "coverage",
]

def _stimulus_lanes(circuit: Circuit, stimuli: Sequence[Sequence[int]]):
    """(evaluator, fault-free net table, lane mask) for a non-empty
    stimulus list, validated as :meth:`Circuit.evaluate` validates one
    stimulus."""
    bits = np.asarray(stimuli)
    width = len(circuit.input_nets)
    if bits.ndim != 2 or bits.shape[1] != width:
        raise ValueError(
            f"expected {width} input values per stimulus, got shape "
            f"{bits.shape}"
        )
    if not np.isin(bits, (0, 1)).all():
        raise ValueError("input bits must be 0/1")
    mask = lane_mask(len(bits))
    sim = VectorCircuit(circuit)
    return sim, sim.golden(pack_bool(bits.T), mask), mask


def _fault_outputs(sim: VectorCircuit, table, faults, mask) -> List:
    """One (F, W) lane matrix per circuit output, row ``f`` = fault
    ``faults[f]``."""
    shape = (len(faults),) + mask.shape
    rows: Dict[int, object] = {}

    def consume(net, words):
        rows[net] = np.broadcast_to(words, shape)

    sim.evaluate(table, faults, mask, consume)
    return [rows[net] for net in sim.circuit.output_nets]


def _first_rejections(
    outputs, mask, checker: Callable[[Tuple[int, ...]], bool]
) -> List[Optional[int]]:
    """Per fault row, the first lane whose response ``checker`` rejects."""
    rejected = ~judge_lanes(outputs, mask, checker) & mask
    return [
        None if lane < 0 else lane
        for lane in first_set_lanes(rejected).tolist()
    ]


def fault_free_responses(
    circuit: Circuit,
    stimuli: Iterable[Sequence[int]],
    engine: str = "vector",
) -> List[Tuple[int, ...]]:
    """Golden responses for a stimulus list (one lane pass)."""
    check_engine(engine)
    stimuli = list(stimuli)
    if engine == "serial" or not stimuli:
        return [circuit.evaluate(vec) for vec in stimuli]
    _, table, _ = _stimulus_lanes(circuit, stimuli)
    bits = unpack_lanes(table[list(circuit.output_nets)], len(stimuli))
    return list(map(tuple, bits.T.astype(np.uint8).tolist()))


def first_difference(
    circuit: Circuit,
    fault: FaultBase,
    stimuli: Sequence[Sequence[int]],
    golden: Optional[Sequence[Tuple[int, ...]]] = None,
    engine: str = "vector",
) -> Optional[int]:
    """Index of the first stimulus whose response differs under ``fault``.

    Returns None if the fault is never excited/observed by the stimuli.
    This is the raw measurement behind *detection latency*: with one
    stimulus per clock cycle, the returned index is the number of cycles
    that elapse before the output first diverges.

    Pass ``golden`` (from :func:`fault_free_responses`) when sweeping
    many faults over one stimulus list, so it is computed once.
    """
    check_engine(engine)
    if golden is not None and len(golden) != len(stimuli):
        raise ValueError(
            f"golden has {len(golden)} responses for "
            f"{len(stimuli)} stimuli"
        )
    if engine == "serial":
        if golden is None:
            golden = fault_free_responses(circuit, stimuli, engine=engine)
        for idx, vec in enumerate(stimuli):
            if circuit.evaluate(vec, faults=(fault,)) != golden[idx]:
                return idx
        return None
    if not stimuli:
        return None
    sim, table, mask = _stimulus_lanes(circuit, stimuli)
    if golden is None:
        expected = table[list(circuit.output_nets)]
    else:
        expected = pack_bool(np.asarray(golden).T)
    diff = np.zeros((1,) + mask.shape, dtype=np.uint64)
    for faulty, want in zip(
        _fault_outputs(sim, table, [fault], mask), expected
    ):
        diff |= faulty ^ want
    first = int(first_set_lanes(diff)[0])
    return None if first < 0 else first


def detects(
    circuit: Circuit,
    fault: FaultBase,
    stimuli: Sequence[Sequence[int]],
    checker: Callable[[Tuple[int, ...]], bool],
    engine: str = "vector",
) -> Optional[int]:
    """First stimulus index where the faulty response violates ``checker``.

    Unlike :func:`first_difference` this is *concurrent-checking* detection:
    the observer does not know the golden response, only whether the output
    is a code word (``checker`` returns True for code words).  Returns the
    cycle index of first detection, or None.

    The vector engine runs one traversal for all stimuli, then judges
    each distinct faulty response once (``checker`` must be a pure
    predicate; a :class:`repro.checkers.base.Checker` judges lane words
    directly with ``accepts_lanes``).
    """
    check_engine(engine)
    if engine == "serial":
        for idx, vec in enumerate(stimuli):
            response = circuit.evaluate(vec, faults=(fault,))
            if not checker(response):
                return idx
        return None
    if not stimuli:
        return None
    sim, table, mask = _stimulus_lanes(circuit, stimuli)
    return _first_rejections(
        _fault_outputs(sim, table, [fault], mask), mask, checker
    )[0]


def coverage(
    circuit: Circuit,
    faults: Sequence[FaultBase],
    stimuli: Sequence[Sequence[int]],
    checker: Callable[[Tuple[int, ...]], bool],
    engine: str = "vector",
) -> Dict[str, object]:
    """Concurrent-detection coverage of a fault list over a stimulus stream.

    Returns a summary dict with per-fault first-detection cycles, the list
    of undetected faults, and the coverage ratio.  Counts are per list
    entry: a fault listed twice counts twice in ``total``, ``detected``
    and ``undetected`` alike, so ``detected + len(undetected) == total``.

    The vector engine packs the stimuli and runs the fault-free pass
    once, then evaluates the distinct faults in batches through one
    :class:`~repro.circuits.parallel.VectorCircuit`.
    """
    check_engine(engine)
    distinct = list(dict.fromkeys(faults))
    firsts: List[Optional[int]] = []
    if engine == "serial" or not stimuli:
        for fault in distinct:
            firsts.append(
                detects(circuit, fault, stimuli, checker, engine="serial")
            )
    else:
        sim, table, mask = _stimulus_lanes(circuit, stimuli)
        for part in sim.batches(len(distinct), mask.shape[0]):
            firsts += _first_rejections(
                _fault_outputs(sim, table, distinct[part], mask),
                mask,
                checker,
            )
    first_detect = dict(zip(distinct, firsts))
    undetected = [f for f in faults if first_detect[f] is None]
    detected = len(faults) - len(undetected)
    return {
        "total": len(faults),
        "detected": detected,
        "undetected": undetected,
        "coverage": detected / len(faults) if faults else 1.0,
        "first_detection": first_detect,
    }
