"""Transient (soft-error) faults — the on-line-testing motivation.

The paper's introduction frames self-checking as *on-line* reliability:
faults appear during operation.  Beyond the permanent stuck-at model of
§III we add single-event upsets — a stored bit flips at some cycle — and
measure how long the parity path takes to observe them under a given
access pattern.  The detection latency here is governed by the *traffic*,
not the code: parity catches the flip on the first read of the victim
word, so latency = time-to-next-read, which the campaign quantifies for
uniform, sequential and scrubbed access streams.

The campaign driver is :meth:`repro.scenarios.CampaignEngine.transient`
— seeded :class:`~repro.scenarios.workload.Workload` stimuli,
:class:`~repro.scenarios.faults.TransientScenario` fault values
(including multi-upset combinations), a backend that walks each victim
word's upsets and writes and bisects for its reads, proven
bit-identical to the serial oracle, and ``workers=N`` sharding.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["TransientUpset"]


@dataclass(frozen=True)
class TransientUpset:
    """A single-event upset: bit ``bit`` of ``address`` flips at ``cycle``."""

    address: int
    bit: int
    cycle: int
