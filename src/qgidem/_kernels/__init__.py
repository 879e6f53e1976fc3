"""Solver kernels: compiled Cython extension with a numpy fallback.

The compiled module is picked at import when available; set the
environment variable ``QGIDEM_PURE_PYTHON=1`` to force the fallback.
Both backends implement ``newton_polish_batch`` with identical semantics;
``python3 perfbench/run.py`` times the solver on whichever is active.
"""

import os

from . import _fallback

_compiled = None
if os.environ.get("QGIDEM_PURE_PYTHON") != "1":
    try:
        from . import _newton as _compiled
    except ImportError:
        _compiled = None

HAVE_COMPILED = _compiled is not None


def get_backend(name=None):
    """Resolve a backend by name: 'auto' (default), 'compiled', 'python'."""
    if name in (None, "auto"):
        return _compiled if _compiled is not None else _fallback
    if name == "compiled":
        if _compiled is None:
            raise RuntimeError(
                "compiled kernel not available; build the extension or use 'python'"
            )
        return _compiled
    if name in ("python", "fallback"):
        return _fallback
    raise ValueError(f"unknown backend {name!r}")


def backend_name(module=None) -> str:
    module = get_backend() if module is None else module
    return "compiled" if module is _compiled and _compiled is not None else "python"
