"""`DesignReport` — machine-readable outcome of one sized design.

Selection outcomes for both decoders, the guarantees they buy, the area
bill under both models and the §II safety consequence — as frozen
dataclasses with ``to_dict``/``to_json``/``from_json`` round-tripping
plus :meth:`DesignReport.render`, the human-readable text page.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from fractions import Fraction
from io import StringIO
from typing import Optional, Union

from repro.core.latency import (
    detection_quantile,
    expected_detection_cycles,
)
from repro.core.selection import CodeSelection
from repro.design.spec import DesignSpec

__all__ = [
    "DecoderCheckReport",
    "AreaReport",
    "SafetyReport",
    "EmpiricalReport",
    "DesignReport",
    "decoder_check_report",
]


@dataclass(frozen=True)
class DecoderCheckReport:
    """One decoder's code assignment and the guarantees it achieves."""

    code: str
    mapping_kind: str
    a_final: int
    rom_lines: int
    rom_width: int
    c: int
    pndc_target: float
    #: exact worst-case per-cycle escape (0 for zero-latency mappings)
    escape_per_cycle: Fraction
    pndc_achieved: float
    meets_target: bool
    expected_detection_cycles: Optional[float]
    detection_quantile_999: Optional[int]

    def to_dict(self) -> dict:
        data = dataclasses.asdict(self)
        data["escape_per_cycle"] = str(self.escape_per_cycle)
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "DecoderCheckReport":
        data = dict(data)
        data["escape_per_cycle"] = Fraction(data["escape_per_cycle"])
        return cls(**data)


@dataclass(frozen=True)
class AreaReport:
    """The area bill under both models, as percent of the RAM macro."""

    stdcell_overhead_percent: float
    decoder_check_percent: float
    parity_bit_percent: float
    parity_checker_percent: float
    total_percent: float

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "AreaReport":
        return cls(**data)


@dataclass(frozen=True)
class SafetyReport:
    """The §II system-safety consequence of the sized scheme."""

    fault_rate_per_hour: float
    decoder_area_fraction: float
    residual_rate_per_hour: float
    baseline_rate_per_hour: float
    improvement_factor: float

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "SafetyReport":
        return cls(**data)


@dataclass(frozen=True)
class EmpiricalReport:
    """Measured fault-injection outcome backing the analytic guarantees.

    Produced by ``DesignEngine.empirical`` (or ``evaluate(...,
    empirical=True)``): an exhaustive stuck-at campaign on the built
    scheme's row checked decoder, run on the vector engine by default.
    """

    engine: str
    cycles: int
    seed: int
    faults: int
    detected: int
    coverage: float
    #: None when nothing was detected within the horizon
    mean_detection_cycle: Optional[float]
    max_detection_cycle: Optional[int]
    #: measured counterpart of Pndc at the spec's c
    escape_fraction_at_c: float
    zero_latency_sa0: bool
    wall_time_s: float
    faults_per_sec: float
    #: label of the Workload that drove the campaign (1.3+)
    workload: Optional[str] = None
    #: content-addressed ResultStore key of the backing ResultSet, when
    #: the engine ran with a store (1.4+) — ``repro results show KEY``
    #: reopens the full record-level artifact
    result_key: Optional[str] = None
    #: True when the campaign was served from the store (verified hit)
    store_hit: bool = False

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "EmpiricalReport":
        return cls(**data)


def decoder_check_report(
    selection: CodeSelection, rom_lines: int
) -> DecoderCheckReport:
    """Summarise one decoder's :class:`CodeSelection` for the report."""
    escape = selection.achieved_escape
    expected = None
    quantile = None
    if escape != 0:
        expected = expected_detection_cycles(escape)
        if escape < 1:
            quantile = detection_quantile(Fraction(escape), 0.999)
    return DecoderCheckReport(
        code=selection.code_name,
        mapping_kind=selection.mapping_kind,
        a_final=selection.a_final,
        rom_lines=rom_lines,
        rom_width=selection.rom_width,
        c=selection.c,
        pndc_target=selection.pndc_target,
        escape_per_cycle=Fraction(escape),
        pndc_achieved=selection.achieved_pndc,
        meets_target=selection.meets_target,
        expected_detection_cycles=expected,
        detection_quantile_999=quantile,
    )


@dataclass(frozen=True)
class DesignReport:
    """Everything a design review wants from one (spec -> scheme) run."""

    spec: DesignSpec
    row: DecoderCheckReport
    column: DecoderCheckReport
    area: AreaReport
    safety: SafetyReport
    #: measured campaign outcome, when evaluate ran with empirical=True
    empirical: Optional[EmpiricalReport] = None

    # -- serialisation -------------------------------------------------------

    def to_dict(self) -> dict:
        data = {
            "spec": self.spec.to_dict(),
            "row": self.row.to_dict(),
            "column": self.column.to_dict(),
            "area": self.area.to_dict(),
            "safety": self.safety.to_dict(),
        }
        if self.empirical is not None:
            data["empirical"] = self.empirical.to_dict()
        return data

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_dict(cls, data: dict) -> "DesignReport":
        empirical = data.get("empirical")
        return cls(
            spec=DesignSpec.from_dict(data["spec"]),
            row=DecoderCheckReport.from_dict(data["row"]),
            column=DecoderCheckReport.from_dict(data["column"]),
            area=AreaReport.from_dict(data["area"]),
            safety=SafetyReport.from_dict(data["safety"]),
            empirical=(
                EmpiricalReport.from_dict(empirical)
                if empirical is not None
                else None
            ),
        )

    @classmethod
    def from_json(cls, text: Union[str, bytes]) -> "DesignReport":
        return cls.from_dict(json.loads(text))

    # -- text rendering ------------------------------------------------------

    @staticmethod
    def _latency_lines(out: StringIO, side: DecoderCheckReport) -> None:
        escape = side.escape_per_cycle
        if escape == 0:
            out.write(
                "    detection latency     : 0 cycles (every fault)\n"
            )
            return
        out.write(
            f"    escape per cycle      : {float(escape):.4g} "
            f"(= {escape})\n"
        )
        out.write(
            f"    Pndc at c={side.c:<4d}        : "
            f"{side.pndc_achieved:.3g} "
            f"({'meets' if side.meets_target else 'MISSES'} "
            f"{side.pndc_target:g})\n"
        )
        out.write(
            f"    expected detection    : "
            f"{side.expected_detection_cycles:.2f} cycles\n"
        )
        if side.detection_quantile_999 is not None:
            out.write(
                f"    99.9% detection       : "
                f"<= {side.detection_quantile_999} cycles\n"
            )

    def _decoder_section(
        self, out: StringIO, title: str, side: DecoderCheckReport
    ) -> None:
        out.write(f"{title}\n")
        out.write(
            f"    code                  : {side.code} "
            f"(mapping '{side.mapping_kind}', a={side.a_final})\n"
        )
        out.write(
            f"    ROM                   : {side.rom_lines} lines x "
            f"{side.rom_width} bits\n"
        )
        self._latency_lines(out, side)

    def render(self) -> str:
        """The full human-readable design-review page."""
        organization = self.spec.organization
        out = StringIO()

        out.write("self-checking memory design report\n")
        out.write("==================================\n\n")
        out.write(
            f"memory           : {organization.label()} "
            f"({organization.words} words x {organization.bits} bits, "
            f"1-out-of-{organization.column_mux} column mux)\n"
        )
        out.write(
            f"address split    : n={organization.n} = p={organization.p}"
            f" (row) + s={organization.s} (column)\n"
        )
        out.write(
            f"requirement      : detect decoder faults within "
            f"c={self.spec.c} cycles, Pndc <= {self.spec.pndc:g} "
            f"[{self.spec.policy.value} sizing]\n\n"
        )

        self._decoder_section(out, "row decoder check", self.row)
        out.write("\n")
        self._decoder_section(out, "column decoder check", self.column)

        out.write("\narea bill\n")
        out.write(
            f"    decoder check (std-cell model) : "
            f"{self.area.stdcell_overhead_percent:.2f} % of the "
            f"RAM macro\n"
        )
        out.write(
            f"    decoder check (analytic, k=0.3): "
            f"{self.area.decoder_check_percent:.2f} %\n"
        )
        out.write(
            f"    data parity bit                : "
            f"{self.area.parity_bit_percent:.2f} %\n"
        )
        out.write(
            f"    parity checker                 : "
            f"{self.area.parity_checker_percent:.2f} %\n"
        )
        out.write(
            f"    total (analytic)               : "
            f"{self.area.total_percent:.2f} %\n"
        )

        out.write("\nsystem safety (SII model)\n")
        out.write(
            f"    memory fault rate              : "
            f"{self.safety.fault_rate_per_hour:g} /h, decoders "
            f"{100 * self.safety.decoder_area_fraction:.0f} % of area\n"
        )
        out.write(
            f"    undetectable-fault rate        : "
            f"{self.safety.residual_rate_per_hour:.3g} /h "
            f"(vs {self.safety.baseline_rate_per_hour:.3g} /h with "
            f"unchecked decoders)\n"
        )
        out.write(
            f"    improvement                    : "
            f"x{self.safety.improvement_factor:.3g}\n"
        )

        if self.empirical is not None:
            emp = self.empirical
            out.write("\nempirical validation (fault injection)\n")
            out.write(
                f"    campaign                       : {emp.faults} row-"
                f"decoder faults x {emp.cycles} cycles "
                f"({emp.engine} engine, {emp.faults_per_sec:.0f} "
                f"faults/s)\n"
            )
            if emp.workload is not None:
                out.write(
                    f"    workload                       : "
                    f"{emp.workload}\n"
                )
            out.write(
                f"    coverage within horizon        : "
                f"{emp.coverage:.3f}\n"
            )
            out.write(
                f"    measured escape at c={self.spec.c:<4d}      : "
                f"{emp.escape_fraction_at_c:.4f}\n"
            )
            out.write(
                "    stuck-at-0 zero latency        : "
                + ("holds" if emp.zero_latency_sa0 else "VIOLATED")
                + "\n"
            )
        return out.getvalue()
