"""Monte-Carlo fault-injection campaigns; each returns a
:class:`repro.results.ResultSet`.

Campaigns run on one of two engines (``engine=`` on the drivers):
``"vector"`` — the default NumPy lane-array engine of
:mod:`repro.faultsim.vectorsim`, which packs faults x cycles into lanes
with structural fault collapsing and optional ``workers=N``
process-pool sharding; or ``"serial"``, the per-cycle reference oracle
the vector engine is proven bit-identical against.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.faultsim.transient": ("TransientUpset",),
        "repro.circuits.engines": ("check_engine",),
        "repro.faultsim.vectorsim": (
            "CAMPAIGN_ENGINES",
            "decoder_campaign_vector",
            "scheme_campaign_vector",
        ),
        "repro.faultsim.campaign": (
            "decoder_campaign",
            "scheme_campaign",
            "classify_structural_fault",
            "default_scheme_writer",
        ),
        "repro.faultsim.injector": (
            "decoder_fault_list",
            "rom_fault_list",
            "sample_faults",
        ),
    },
)

if TYPE_CHECKING:
    from repro.circuits.engines import check_engine  # noqa: F401
    from repro.faultsim.campaign import (  # noqa: F401
        classify_structural_fault,
        decoder_campaign,
        default_scheme_writer,
        scheme_campaign,
    )
    from repro.faultsim.injector import (  # noqa: F401
        decoder_fault_list,
        rom_fault_list,
        sample_faults,
    )
    from repro.faultsim.transient import TransientUpset  # noqa: F401
    from repro.faultsim.vectorsim import (  # noqa: F401
        CAMPAIGN_ENGINES,
        decoder_campaign_vector,
        scheme_campaign_vector,
    )
