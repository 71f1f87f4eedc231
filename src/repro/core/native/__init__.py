"""Native (C) kernel tier: availability and status.

The native tier is a strict accelerator, never a requirement.
:func:`native_active` decides what runs, and is what
``select_kernel``/``exact_tier_name`` consult when picking the bit-exact
default tier.  It is true when

* the ``REPRO_DISABLE_NATIVE`` kill-switch is unset (when set, nothing is
  compiled or loaded and every call falls back to ``float_table``), and
* the C library is loaded: the first check in a process builds it with
  the system ``cc`` or loads the cached build (see
  :mod:`repro.core.native.build`).

:func:`native_status` bundles all of it into one introspection dict
that the serving benches and the perf harness embed in their reports,
so "which tier ran" is always visible in recorded numbers.
"""

from __future__ import annotations

import os

from .build import Build, loaded
from .gather import gather_gemm, native_threads

__all__ = [
    "DISABLE_ENV",
    "gather_gemm",
    "native_active",
    "native_disabled",
    "native_status",
    "native_threads",
]

#: Environment kill-switch: any value other than empty/``0`` disables
#: the native tier even when a compiler is installed.
DISABLE_ENV = "REPRO_DISABLE_NATIVE"


def native_disabled() -> bool:
    """Whether the :data:`DISABLE_ENV` kill-switch is set."""
    return os.environ.get(DISABLE_ENV, "").strip() not in ("", "0")


def native_active() -> bool:
    """Whether the native tier runs (not disabled, library loaded)."""
    return not native_disabled() and loaded().lib is not None


def native_status() -> dict:
    """Introspection snapshot of the native tier.

    Keys: ``disabled`` (kill-switch set), ``active`` (what will run),
    ``backend`` (``"c"`` or ``"numpy-fallback"``), ``compiler`` (first
    line of ``cc --version``), ``library`` (cached library path),
    ``threads`` (threads a large GEMM uses) and ``build_error`` (``None``,
    or ``{"reason", "detail"}`` saying why the tier is inactive:
    ``disabled``, ``unsupported-platform``, ``no-compiler``,
    ``compiler-failed``, ``compile-failed``, ``load-failed`` or
    ``cache-failed``).
    """
    disabled = native_disabled()
    if disabled:
        build = Build(error={"reason": "disabled", "detail": f"{DISABLE_ENV} is set"})
    else:
        build = loaded()
    active = build.lib is not None
    return {
        "disabled": disabled,
        "active": active,
        "backend": "c" if active else "numpy-fallback",
        "compiler": build.compiler,
        "library": build.path,
        "threads": native_threads() if active else None,
        "build_error": build.error,
    }
