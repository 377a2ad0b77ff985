"""Self-checking checkers and their property verifiers."""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.checkers.base": ("Checker", "indication_valid"),
        "repro.checkers.parity_checker": ("ParityChecker",),
        "repro.checkers.m_out_of_n_checker": (
            "MOutOfNChecker",
            "build_sorting_network",
        ),
        "repro.checkers.berger_checker": ("BergerChecker",),
        "repro.checkers.two_rail_checker": (
            "TwoRailChecker",
            "build_two_rail_tree",
            "two_rail_cell",
        ),
        "repro.checkers.properties": (
            "is_code_disjoint",
            "is_fault_secure",
            "is_self_testing",
            "undetected_checker_faults",
        ),
    },
)

if TYPE_CHECKING:
    from repro.checkers.base import Checker, indication_valid  # noqa: F401
    from repro.checkers.berger_checker import BergerChecker  # noqa: F401
    from repro.checkers.m_out_of_n_checker import (  # noqa: F401
        MOutOfNChecker,
        build_sorting_network,
    )
    from repro.checkers.parity_checker import ParityChecker  # noqa: F401
    from repro.checkers.properties import (  # noqa: F401
        is_code_disjoint,
        is_fault_secure,
        is_self_testing,
        undetected_checker_faults,
    )
    from repro.checkers.two_rail_checker import (  # noqa: F401
        TwoRailChecker,
        build_two_rail_tree,
        two_rail_cell,
    )
