"""Re-exports that a package imports on first access (PEP 562).

A package lists its re-exported names with the module that defines each,
and binds the pair this module returns::

    __getattr__, __dir__ = lazy_exports(__name__, {"History": "repro.core.model"})

``from package import History`` then imports :mod:`repro.core.model` at that
moment, not when the package itself is imported.  Together with the
function-level imports of :mod:`repro.cli`, :mod:`repro.core.checker` and
:mod:`repro.histories.formats`, this keeps ``import repro.cli`` to what the
CLI's parser needs; a command loads its engine, loader and format module
when it runs.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Dict, List, Tuple


def lazy_exports(
    package: str, exports: Dict[str, str]
) -> Tuple[Callable[[str], object], Callable[[], List[str]]]:
    """The ``__getattr__`` and ``__dir__`` that resolve ``exports`` lazily.

    ``exports`` maps each re-exported name to the module that defines it.
    A resolved name is stored in the package's namespace, so each one is
    looked up once.
    """
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str) -> object:
        source = exports.get(name)
        if source is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(source), name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(exports))

    return __getattr__, __dir__
