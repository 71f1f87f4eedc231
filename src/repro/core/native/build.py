"""Build, cache and load the native gather library with the system C compiler.

The C source (``gather.c`` next to this module) is compiled once per
machine with ``cc`` and cached on disk; every later process only
``dlopen``\\ s the cached file through :mod:`ctypes`.

* **Cache key.**  ``sha256(source + flags + cc --version)``: editing the
  source, changing a flag or upgrading the compiler each yield a new file
  name, so a stale build is never loaded.  The ``cc --version`` text is
  itself memoised per compiler binary (real path, size, mtime), so a warm
  process spawns no child process at all.
* **Location.**  ``<cache root>/native/``, where the cache root is
  ``$REPRO_CACHE_DIR``, else ``~/.cache/repro-daism``.
* **Concurrency.**  Builds run under an ``fcntl`` lock on a per-key lock
  file, compile into a temporary file and ``os.replace`` it into place,
  so concurrent cold starts build once and no reader sees a partial file.
  A cached file that fails to load (truncated, foreign) is rebuilt.  A
  platform without ``fcntl`` (Windows) reports ``unsupported-platform``.
* **Flags.**  :data:`CFLAGS` keeps IEEE semantics (``-ffp-contract=off
  -fno-fast-math``: no fused multiply-add, no reassociation) and leaves
  out ``-march=native``, which measured no faster and would make a shared
  cache unsafe to load on another CPU.

:func:`load` never raises: any failure comes back as a structured
``build_error`` (``{"reason": ..., "detail": ...}``) and callers fall
back to the NumPy ``float_table`` kernel.  :func:`loaded` memoises the
outcome per process (a forked child inherits it, library included).
"""

from __future__ import annotations

import ctypes
import dataclasses
import hashlib
import os
import shutil
import subprocess
import tempfile
import threading
from pathlib import Path

__all__ = ["CFLAGS", "COMPILER", "SOURCE", "Build", "cache_dir", "load", "loaded"]

#: The C source compiled into the library.
SOURCE = Path(__file__).with_name("gather.c")

#: Compiler driver looked up on ``PATH``.
COMPILER = "cc"

#: Compile flags (part of the cache key).
CFLAGS = ("-O3", "-ffp-contract=off", "-fno-fast-math", "-fPIC", "-shared", "-pthread")

_INT = ctypes.c_int
_I64 = ctypes.c_int64
_U32 = ctypes.c_uint32
_PTR = ctypes.c_void_p


@dataclasses.dataclass(frozen=True)
class Build:
    """Outcome of :func:`load`: a loaded library or the reason there is none."""

    #: The loaded library (``None`` when the build or load failed).
    lib: ctypes.CDLL | None = None
    #: Cached library path.
    path: str | None = None
    #: First line of ``cc --version``.
    compiler: str | None = None
    #: ``{"reason": ..., "detail": ...}`` when ``lib`` is ``None``.
    error: dict | None = None


class _Failure(Exception):
    def __init__(self, reason: str, detail: str):
        super().__init__(f"{reason}: {detail}")
        self.reason = reason
        self.detail = detail


def cache_dir() -> str:
    """Directory holding the cached libraries and compiler-version memos."""
    root = os.environ.get("REPRO_CACHE_DIR") or os.path.join(
        os.path.expanduser("~"), ".cache", "repro-daism"
    )
    return os.path.join(root, "native")


def _atomic_write(path: str, data: bytes) -> None:
    fd, tmp = tempfile.mkstemp(prefix=".tmp-", dir=os.path.dirname(path))
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _compiler_version(cc: str, directory: str) -> str:
    """``cc --version``, memoised on disk per compiler binary."""
    real = os.path.realpath(cc)
    st = os.stat(real)
    stamp = hashlib.sha256(f"{real}|{st.st_size}|{st.st_mtime_ns}".encode()).hexdigest()
    memo = os.path.join(directory, f"cc-{stamp[:16]}.txt")
    try:
        text = Path(memo).read_text()
        if text:
            return text
    except OSError:
        pass
    try:
        proc = subprocess.run(
            [cc, "--version"], capture_output=True, text=True, timeout=60, check=True
        )
    except (OSError, subprocess.SubprocessError) as exc:
        raise _Failure("compiler-failed", f"{cc} --version: {exc}") from exc
    _atomic_write(memo, proc.stdout.encode())
    return proc.stdout


#: ``argtypes`` of every exported entry point (all return ``int`` status).
_SIGNATURES = {
    "repro_gather_gemm": [
        _PTR, _I64,  # table, width
        _PTR, _PTR,  # ma, alpha
        _PTR, _PTR,  # mb, beta
        _PTR, _I64, _I64, _I64,  # out, m, k, n
        _I64, _INT,  # k_chunk, flags
        _U32, _U32,  # flush_bits, inf_from
        _INT,  # threads
    ],
    "repro_pack_e8": [
        _PTR, _I64, _INT,  # bits, size, mantissa_bits
        _PTR, _PTR, _PTR, _PTR, _PTR,  # sign, exponent, significand, dense, scale
        _INT,  # threads
    ],
    "repro_conv_ranges": [
        _PTR, _PTR,  # exponent, significand
        _I64, _I64, _I64, _I64,  # n, channels, h, w
        _I64, _I64, _I64, _I64,  # groups, kernel, stride, padding
        _I64, _I64,  # oh, ow
        _PTR, _PTR, _PTR,  # emin, emax, sig_max
        _INT,  # threads
    ],
    "repro_grouped_conv": [
        _PTR, _I64,  # table, width
        _PTR, _PTR,  # significand, scale
        _PTR, _PTR,  # weight significand, weight scale
        _PTR, _PTR,  # bias, out
        _I64, _I64, _I64, _I64,  # n, channels, h, w
        _I64, _I64,  # groups, cout_g
        _I64, _I64, _I64,  # kernel, stride, padding
        _I64, _I64, _I64,  # oh, ow, k_chunk
        _PTR, _U32, _U32,  # flags, flush_bits, inf_from
        _INT,  # threads
    ],
}


def _open(path: str) -> ctypes.CDLL:
    """``dlopen`` ``path`` and bind the exported signatures (``OSError`` if unusable)."""
    lib = ctypes.CDLL(path)
    for name, argtypes in _SIGNATURES.items():
        try:
            fn = getattr(lib, name)
        except AttributeError as exc:
            raise OSError(f"{path}: missing symbol ({exc})") from exc
        fn.restype = _INT
        fn.argtypes = argtypes
    return lib


def _compile(cc: str, target: str) -> None:
    """Compile :data:`SOURCE` to ``target`` via a temp file and ``os.replace``."""
    fd, tmp = tempfile.mkstemp(prefix=".gather-", suffix=".so", dir=os.path.dirname(target))
    os.close(fd)
    try:
        try:
            proc = subprocess.run(
                [cc, *CFLAGS, "-o", tmp, str(SOURCE)],
                capture_output=True, text=True, timeout=300,
            )
        except (OSError, subprocess.SubprocessError) as exc:
            raise _Failure("compile-failed", str(exc)) from exc
        if proc.returncode != 0:
            raise _Failure("compile-failed", proc.stderr.strip()[-2000:])
        os.replace(tmp, target)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _build(cc: str) -> Build:
    try:
        import fcntl
    except ImportError as exc:  # no POSIX file locks (Windows)
        raise _Failure("unsupported-platform", f"no fcntl module: {exc}") from exc
    directory = cache_dir()
    os.makedirs(directory, exist_ok=True)
    compiler = _compiler_version(cc, directory)
    key = hashlib.sha256(
        SOURCE.read_bytes() + "\0".join(CFLAGS).encode() + b"\0" + compiler.encode()
    ).hexdigest()[:16]
    path = os.path.join(directory, f"gather-{key}.so")
    version = compiler.splitlines()[0] if compiler else cc
    try:  # warm path: no lock, no child process
        return Build(_open(path), path, version)
    except OSError:
        pass
    with open(os.path.join(directory, f"gather-{key}.lock"), "a") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        try:  # another process may have finished the build while we waited
            return Build(_open(path), path, version)
        except OSError:
            pass
        _compile(cc, path)
        try:
            return Build(_open(path), path, version)
        except OSError as exc:
            raise _Failure("load-failed", str(exc)) from exc


def load() -> Build:
    """Build (if needed) and load the library; failures become ``Build.error``."""
    cc = shutil.which(COMPILER)
    if cc is None:
        return Build(error={"reason": "no-compiler", "detail": f"no {COMPILER!r} on PATH"})
    try:
        return _build(cc)
    except _Failure as exc:
        return Build(error={"reason": exc.reason, "detail": exc.detail})
    except OSError as exc:  # cache directory not writable, lock failure, ...
        return Build(error={"reason": "cache-failed", "detail": str(exc)})


_LOCK = threading.Lock()
_LOADED: Build | None = None


def loaded() -> Build:
    """:func:`load`, run once per process."""
    global _LOADED
    with _LOCK:
        if _LOADED is None:
            _LOADED = load()
        return _LOADED
