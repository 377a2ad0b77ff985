"""Monte-Carlo fault-injection campaigns; each returns a
:class:`repro.results.ResultSet`.

Campaigns run on one of two engines (``engine=`` on the drivers):
``"vector"`` — the default NumPy lane-array engine of
:mod:`repro.faultsim.vectorsim`, which packs faults x cycles into lanes
with structural fault collapsing and optional ``workers=N``
process-pool sharding; or ``"serial"``, the per-cycle reference oracle
the vector engine is proven bit-identical against.
"""

from repro.faultsim.campaign import (
    classify_structural_fault,
    decoder_campaign,
    default_scheme_writer,
    scheme_campaign,
)
from repro.faultsim.injector import (
    decoder_fault_list,
    rom_fault_list,
    sample_faults,
)
from repro.faultsim.transient import TransientUpset
from repro.faultsim.vectorsim import (
    CAMPAIGN_ENGINES,
    check_engine,
    decoder_campaign_vector,
    scheme_campaign_vector,
)

__all__ = [
    "TransientUpset",
    "CAMPAIGN_ENGINES",
    "check_engine",
    "decoder_campaign",
    "decoder_campaign_vector",
    "scheme_campaign",
    "scheme_campaign_vector",
    "classify_structural_fault",
    "default_scheme_writer",
    "decoder_fault_list",
    "rom_fault_list",
    "sample_faults",
]
