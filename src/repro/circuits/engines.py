"""The simulation engines every driver accepts, without importing them.

Circuit-level drivers (:mod:`repro.circuits.simulator`), campaigns
(:mod:`repro.faultsim.vectorsim`) and the CLI's ``--engine`` choices
all validate against this one tuple.  The module stays NumPy-free so
that building the CLI parser or checking a service submission does not
load the lane engine.
"""

from __future__ import annotations

__all__ = ["ENGINES", "check_engine"]

#: the engines every simulation and campaign driver accepts: the lane
#: fast path and the serial oracle
ENGINES = ("vector", "serial")


def check_engine(engine: str) -> str:
    """Validate an ``engine=`` argument (shared by all drivers); returns
    it unchanged."""
    if engine not in ENGINES:
        raise ValueError(
            f"engine must be one of {ENGINES}, got {engine!r}"
        )
    return engine
