"""Gate-level decoder trees (§III.2) and their analytic fault analysis."""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.decoder.flat": ("FlatDecoder",),
        "repro.decoder.tree": (
            "DecoderTree",
            "DecodingBlock",
            "build_decoder",
        ),
        "repro.decoder.analysis": (
            "DecoderAnalysis",
            "FaultSite",
            "analyze_decoder",
            "classify_fault_sites",
            "sa1_escape_closed_form",
            "sa1_escape_exhaustive",
        ),
    },
)

if TYPE_CHECKING:
    from repro.decoder.analysis import (  # noqa: F401
        DecoderAnalysis,
        FaultSite,
        analyze_decoder,
        classify_fault_sites,
        sa1_escape_closed_form,
        sa1_escape_exhaustive,
    )
    from repro.decoder.flat import FlatDecoder  # noqa: F401
    from repro.decoder.tree import DecoderTree, DecodingBlock, build_decoder  # noqa: F401
