"""Area models: the paper's analytic formula and the calibrated std-cell model."""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.area.model": ("PaperAreaModel", "AreaBreakdown"),
        "repro.area.stdcell": ("StdCellAreaModel",),
        "repro.area.gatecount": (
            "GATE_AREA_CELLS",
            "circuit_area_cells",
            "decoder_gate_count",
            "m_out_of_n_checker_gates",
            "parity_checker_gates",
            "two_rail_tree_gates",
        ),
    },
)

if TYPE_CHECKING:
    from repro.area.gatecount import (  # noqa: F401
        GATE_AREA_CELLS,
        circuit_area_cells,
        decoder_gate_count,
        m_out_of_n_checker_gates,
        parity_checker_gates,
        two_rail_tree_gates,
    )
    from repro.area.model import AreaBreakdown, PaperAreaModel  # noqa: F401
    from repro.area.stdcell import StdCellAreaModel  # noqa: F401
