"""Monte-Carlo fault-injection campaigns and their result statistics.

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
    burst_addresses,
    decoder_fault_list,
    random_addresses,
    rom_fault_list,
    sample_faults,
    sequential_addresses,
)
from repro.faultsim.results import CampaignResult, FaultRecord
from repro.faultsim.transient import (
    TransientResult,
    TransientUpset,
    scrubbed_stream,
    transient_campaign,
)
from repro.faultsim.vectorsim import (
    CAMPAIGN_ENGINES,
    check_engine,
    decoder_campaign_vector,
    scheme_campaign_vector,
)

__all__ = [
    "TransientUpset",
    "TransientResult",
    "transient_campaign",
    "scrubbed_stream",
    "CAMPAIGN_ENGINES",
    "check_engine",
    "decoder_campaign",
    "decoder_campaign_vector",
    "scheme_campaign",
    "scheme_campaign_vector",
    "classify_structural_fault",
    "default_scheme_writer",
    "random_addresses",
    "sequential_addresses",
    "burst_addresses",
    "decoder_fault_list",
    "rom_fault_list",
    "sample_faults",
    "CampaignResult",
    "FaultRecord",
]
