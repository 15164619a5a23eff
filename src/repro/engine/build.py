"""Build and load the compiled simulation kernel.

The kernel is a single C file (``kernel.c``) compiled on first use
with whatever C compiler the host provides (``$CC``, then ``cc``,
``gcc``, ``clang``).  The shared object is cached under a name derived
from the SHA-256 of the source, the resolved compiler path *and the
full build flags*, so editing the kernel — or upgrading the package,
switching compilers or changing the sanitizer mode — transparently
triggers a rebuild, while repeated runs reuse the cached binary.
Everything here raises on failure; :func:`repro.engine.compiled_available`
treats any exception as "no compiled engine" and the simulator falls
back to the portable tiers.

Sanitizer builds: ``REPRO_CC_SANITIZE=address,undefined`` threads the
matching ``-fsanitize=...`` flags (plus ``-g`` and
``-fno-sanitize-recover`` so UBSan findings abort instead of printing
and continuing) through the compile *and* the cache key — a
sanitized and an optimized kernel coexist in the cache.  Loading an
ASan kernel into a non-ASan Python requires preloading the runtime::

    LD_PRELOAD=$(gcc -print-file-name=libasan.so) \
    ASAN_OPTIONS=detect_leaks=0 \
    REPRO_CC_SANITIZE=address,undefined python -m pytest tests/golden

(leak detection is off because CPython itself holds allocations for
the interpreter's lifetime; see docs/static-analysis.md for the CI
recipe — the full golden suite runs byte-identical under ASan/UBSan.)
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
from pathlib import Path

_SOURCE = Path(__file__).with_name("kernel.c")

#: the flags of every kernel build, ahead of any sanitizer flags
_BASE_FLAGS = ("-O2", "-fPIC", "-shared")

#: Bail-out statuses returned by ``repro_run_span`` (mirror kernel.c).
ST_DONE = 0
ST_BOUNDARY = 1
ST_WARMUP_GATE = 2
ST_NEED_PYTHON_REF = 3
ST_EVBUF_FULL = 4
ST_ERROR = 5

_kernel: ctypes.CDLL | None = None
_kernel_error: Exception | None = None


def _cache_dir() -> Path:
    override = os.environ.get("REPRO_KERNEL_CACHE")
    if override:
        path = Path(override)
    else:
        path = Path(tempfile.gettempdir()) / "repro-kernel"
    path.mkdir(parents=True, exist_ok=True)
    return path


def sanitize_flags() -> tuple[str, ...]:
    """Compiler flags for ``$REPRO_CC_SANITIZE`` (empty when unset).

    The variable is a comma-separated list of ``-fsanitize`` arguments
    (``address``, ``undefined``, …).  Flags participate in the kernel
    cache key, so switching modes rebuilds instead of reusing a
    mismatched binary.
    """
    raw = os.environ.get("REPRO_CC_SANITIZE", "").strip()
    if not raw:
        return ()
    kinds = [part.strip() for part in raw.split(",") if part.strip()]
    flags = [f"-fsanitize={kind}" for kind in kinds]
    # Debug info for usable reports; make UBSan abort on a finding so
    # CI fails instead of scrolling diagnostics past everyone.
    flags += ["-g", "-fno-sanitize-recover=all"]
    return tuple(flags)


def build_flags() -> tuple[str, ...]:
    """The full compiler flag list of a kernel build."""
    return (*_BASE_FLAGS, *sanitize_flags())


def _find_compiler() -> str:
    candidates = []
    env_cc = os.environ.get("CC")
    if env_cc:
        candidates.append(env_cc)
    candidates += ["cc", "gcc", "clang"]
    for name in candidates:
        found = shutil.which(name)
        if found:
            return found
    raise RuntimeError("no C compiler found (tried $CC, cc, gcc, clang)")


def _compile(source: Path, out: Path) -> None:
    compiler = _find_compiler()
    tmp = out.with_name(f".{out.name}.{os.getpid()}.tmp")
    cmd = [compiler, *build_flags(), "-o", str(tmp), str(source)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True)
        if proc.returncode != 0:
            raise RuntimeError(
                f"kernel compilation failed ({' '.join(cmd)}):\n{proc.stderr}"
            )
        os.replace(tmp, out)  # atomic: concurrent builders race safely
    finally:
        if tmp.exists():
            tmp.unlink()


def kernel_path() -> Path:
    """Path of the cached shared object for the current source, the
    resolved compiler (symlinks followed) and :func:`build_flags`."""
    hasher = hashlib.sha256(_SOURCE.read_bytes())
    for part in (os.path.realpath(_find_compiler()), *build_flags()):
        hasher.update(b"\0" + part.encode("utf-8"))
    digest = hasher.hexdigest()[:16]
    return _cache_dir() / f"repro_kernel_{digest}.so"


def load_kernel() -> ctypes.CDLL:
    """Compile (if needed) and load the kernel; cached per process."""
    global _kernel, _kernel_error
    if _kernel is not None:
        return _kernel
    if _kernel_error is not None:
        raise _kernel_error
    try:
        so = kernel_path()
        if not so.exists():
            _compile(_SOURCE, so)
        lib = ctypes.CDLL(str(so))
        lib.repro_abi_size.restype = ctypes.c_int64
        lib.repro_abi_size.argtypes = []
        lib.repro_run_span.restype = ctypes.c_int64
        lib.repro_run_span.argtypes = [ctypes.c_void_p]
        lib.repro_warm_sweep.restype = ctypes.c_int64
        lib.repro_warm_sweep.argtypes = [ctypes.c_void_p]
        # trace synthesis (repro.workloads.trace)
        ptr, i64 = ctypes.c_void_p, ctypes.c_int64
        lib.repro_category_sequence.restype = None
        lib.repro_category_sequence.argtypes = [
            ptr, ptr, i64, i64, i64, ptr, ptr,
        ]
        lib.repro_resolve_draws.restype = i64
        lib.repro_resolve_draws.argtypes = [
            ptr, i64, ptr, ptr, ptr, i64, ptr, ptr, ptr,
        ]
        _kernel = lib
        return lib
    except Exception as exc:  # remember: probing repeatedly is cheap
        _kernel_error = exc
        raise
