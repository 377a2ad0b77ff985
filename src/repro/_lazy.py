"""Lazy package exports: a package's public names load on first use.

A package ``__init__`` declares which module defines each name it
re-exports, and :func:`lazy_exports` turns that table into the
package's ``__all__`` and a PEP 562 module ``__getattr__``/``__dir__``
pair::

    __all__, __getattr__, __dir__ = lazy_exports(
        __name__, {"repro.results.store": ("ResultStore",)}
    )

``import repro.results`` then runs none of the package's modules; the
first read of ``repro.results.ResultStore`` (or ``from repro.results
import ResultStore``) imports ``repro.results.store`` and caches the
value in the package's globals, so later reads are plain lookups.  A
command that needs one layer pays for that layer only: the stdlib-only
result store never drags in NumPy or a simulator.

Type checkers do not run ``__getattr__``, so each package repeats its
table as imports under ``if TYPE_CHECKING:``; ``tests/test_imports.py``
checks that the two agree.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Dict, List, Mapping, Sequence, Tuple


def lazy_exports(
    package: str, exports: Mapping[str, Sequence[str]]
) -> Tuple[List[str], Callable[[str], object], Callable[[], List[str]]]:
    """``(__all__, __getattr__, __dir__)`` for ``package`` from a
    ``{defining module: names}`` table; ``__all__`` keeps the table's
    order."""
    origin: Dict[str, str] = {
        name: module for module, names in exports.items() for name in names
    }
    namespace = vars(sys.modules[package])

    def __getattr__(name: str) -> object:
        module = origin.get(name)
        if module is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            )
        value = getattr(importlib.import_module(module), name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(origin))

    return list(origin), __getattr__, __dir__
