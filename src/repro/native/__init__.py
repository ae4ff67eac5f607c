"""Build and load the project's compiled kernels, one shared library.

The C sources next to this module are compiled together, with the system
``cc`` for the host they run on: the SR conv (``_shift_conv.c``, called by
:mod:`repro.nn.functional`) and the colour conversion (``_color.c``, called
by :mod:`repro.video.color`).  The build happens the first time either is
needed — never at import, so processes that run no SR and convert no
colour (a trace-mode fleet, an origin serving a saved package) neither
build nor load it; any process that encodes or converts colour does.  The
library is cached under ``$XDG_CACHE_HOME/repro-dcsr`` (default
``~/.cache``), named by a hash of every source, the compiler's
``--version``, the flags and the host's CPU flags, so a new compiler, a
changed source or another CPU gets its own build.  It is written under a
temporary name and ``os.replace``-d into place, so concurrent first uses
in several processes are safe; a lock makes threads of one process build
once.  ``ctypes`` releases the GIL for the length of each call.

There is no fallback: when no compiler is found or the build fails,
:class:`KernelBuildError` carries the command and the compiler's stderr.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import subprocess
import threading
from pathlib import Path

__all__ = ["KernelBuildError", "SOURCES", "FLAGS", "cache_dir", "build",
           "load", "library"]

SOURCES = (Path(__file__).with_name("_shift_conv.c"),
           Path(__file__).with_name("_color.c"))
#: ``-ffp-contract=off`` holds the bits: without it GCC fuses the conv
#: epilogue's ``res_scale`` multiply and residual add into one FMA, and
#: the colour formulas' products into their sums.
FLAGS = ("-O3", "-march=native", "-ffp-contract=off", "-shared", "-fPIC")
COMPILER = "cc"


class KernelBuildError(RuntimeError):
    """The native kernels could not be compiled: no compiler, or it
    failed."""

    def __init__(self, command: list[str], stderr: str):
        self.command = command
        self.stderr = stderr
        super().__init__(f"building the native kernels failed: "
                         f"{' '.join(command)}\n{stderr}")


_lock = threading.Lock()
_lib = None


def cache_dir() -> Path:
    base = os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache"
    return Path(base) / "repro-dcsr"


def _run(command: list[str]) -> subprocess.CompletedProcess:
    try:
        proc = subprocess.run(command, capture_output=True, text=True)
    except OSError as exc:
        raise KernelBuildError(command, str(exc)) from exc
    if proc.returncode:
        raise KernelBuildError(command, proc.stderr)
    return proc


def _cpu_flags() -> str:
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("flags"):
                    return line
    except OSError:
        pass
    return platform.machine() + platform.processor()


def build(directory: Path | None = None,
          defines: tuple[str, ...] = ()) -> Path:
    """Compile every source into one library in ``directory`` (the cache
    by default) unless that build is already there; ``defines`` are extra
    ``-D`` macros (the tests rule conv ISA variants out with them).
    Returns the library's path."""
    directory = cache_dir() if directory is None else Path(directory)
    flags = list(FLAGS) + [f"-D{name}" for name in defines]
    version = _run([COMPILER, "--version"]).stdout
    key = hashlib.sha256("\0".join(
        [*(source.read_text() for source in SOURCES), version, *flags,
         _cpu_flags()]).encode())
    path = directory / f"native-{key.hexdigest()[:16]}.so"
    if path.exists():
        return path
    directory.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(
        f"{path.name}.{os.getpid()}-{threading.get_ident()}.tmp")
    try:
        _run([COMPILER, *flags, "-o", str(tmp), *map(str, SOURCES), "-lm"])
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
    return path


def load(path: Path) -> ctypes.CDLL:
    """The library with its entry points typed; ``isa`` names the conv
    variant it was built with."""
    lib = ctypes.CDLL(str(path))
    ptr, long = ctypes.c_void_p, ctypes.c_long
    lib.shift_conv.argtypes = [ptr, ptr, ptr, ptr, ptr, long, long, long,
                               long, long, long, long, ctypes.c_int,
                               ctypes.c_float]
    lib.yuv420_to_rgb.argtypes = [ptr, ptr, ptr, ptr, long, long]
    lib.rgb_to_yuv420.argtypes = [ptr, ptr, ptr, ptr, long, long]
    for fn in (lib.shift_conv, lib.yuv420_to_rgb, lib.rgb_to_yuv420):
        fn.restype = ctypes.c_int
    lib.shift_conv_isa.restype = ctypes.c_char_p
    lib.isa = lib.shift_conv_isa().decode()
    return lib


def library() -> ctypes.CDLL:
    """The process's library, built and loaded on the first call."""
    global _lib
    if _lib is None:
        with _lock:
            if _lib is None:
                _lib = load(build())
    return _lib
