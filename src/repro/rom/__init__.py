"""NOR/ROM matrix models for the decoder-checking scheme."""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.rom.nor_matrix": ("CheckedDecoder", "NORMatrix"),
    },
)

if TYPE_CHECKING:
    from repro.rom.nor_matrix import CheckedDecoder, NORMatrix  # noqa: F401
