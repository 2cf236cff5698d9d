"""Loader for the native traversal kernel (``kernel.c``).

The kernel is a plain shared object with no CPython dependency, found
in one of two places:

1. **Prebuilt** next to this package (``_rk*.so`` / ``_rk*.dylib`` /
   ``_rk*.pyd``) — what ``pip install`` produces via the optional
   extension in ``setup.py``.
2. **Opportunistically compiled** on first use into a per-user cache
   directory keyed by the SHA-256 of ``kernel.c`` — so a source tree
   checkout (no build step) still gets the native path when a C
   compiler is on ``PATH``.

Either way the library is loaded with :class:`ctypes.PyDLL`, which
keeps the GIL held for the duration of every call: the kernel's
per-image tables are shared across sessions and must never race, and
no kernel call ever re-enters Python.

Every failure mode is non-fatal by design — :func:`availability`
returns ``(False, reason)`` and the dispatch layer silently falls back
to the pure-Python ``array`` implementation.  Reasons surface in
engine stats as ``native_unavailable``.  ``REPRO_NATIVE=0`` disables
the kernel outright (the no-compiler CI leg uses it to prove the
fallback stays green).
"""

import ctypes
import hashlib
import os
import shutil
import subprocess
import sys
import tempfile
from typing import List, Optional, Tuple

#: The binding's kernel ABI.  Must equal ``RK_ABI_VERSION`` in
#: ``kernel.c``; the loader refuses a library that reports another, and
#: the compiled-library cache keys on it.  Bump both together whenever
#: the kernel's view of the image layout, the call signatures or the
#: ownership of a buffer handed over changes (3: the kernel borrows the
#: token tables with the CSR arrays and reads image tokens only; 4:
#: ``rk_frame_hold`` takes a prefetched frame's rows into a session; 5:
#: it reads the rows at the width they arrive in, 2, 4 or 8 bytes).
RK_ABI_VERSION = 5

_I32 = ctypes.c_int32
_I64 = ctypes.c_int64
_PI32 = ctypes.POINTER(ctypes.c_int32)
_PI64 = ctypes.POINTER(ctypes.c_int64)

#: Number of CSR arrays handed to ``rk_graph_new``/``rk_graph_rebind``
#: — ``len(repro.pag.csr._ARRAY_NAMES)``.
N_ARRAYS = 26

#: ``rk_graph_new``/``rk_graph_rebind`` error codes -> reasons.
_GRAPH_ERRORS = {
    1: "kernel out of memory",
    2: "CSR image rejected by the kernel (malformed offsets)",
    3: "CSR image rejected by the kernel (array values out of range)",
}


class RkPptaResult(ctypes.Structure):
    _fields_ = [
        ("status", _I32),
        ("n_objects", _I32),
        ("n_boundaries", _I32),
        ("_pad", _I32),
        ("total", _I64),
        ("objects", _PI32),
        ("b_t", _PI32),
        ("b_f", _PI32),
    ]


class RkDynResult(ctypes.Structure):
    _fields_ = [
        ("status", _I32),
        ("hits", _I32),
        ("misses", _I32),
        ("n_pairs", _I32),
        ("n_new", _I32),
        ("_pad", _I32),
        ("total", _I64),
        ("pair_obj", _PI32),
        ("pair_ctx", _PI32),
        ("new_t", _PI32),
        ("new_f", _PI32),
        ("new_steps", _PI64),
        ("new_obj_off", _PI32),
        ("new_obj", _PI32),
        ("new_b_off", _PI32),
        ("new_b_t", _PI32),
        ("new_b_f", _PI32),
    ]


def _kernel_source() -> str:
    return os.path.join(os.path.dirname(os.path.abspath(__file__)), "kernel.c")


def _prebuilt_candidates() -> List[str]:
    here = os.path.dirname(os.path.abspath(__file__))
    out = []
    try:
        names = sorted(os.listdir(here))
    except OSError:
        return out
    for name in names:
        if name.startswith("_rk") and name.endswith((".so", ".dylib", ".pyd")):
            out.append(os.path.join(here, name))
    return out


def _cache_dir() -> str:
    env = os.environ.get("REPRO_NATIVE_CACHE")
    if env:
        return env
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = xdg if xdg else os.path.join(os.path.expanduser("~"), ".cache")
    return os.path.join(base, "repro-native")


def _find_compiler() -> Optional[str]:
    cc = os.environ.get("CC")
    if cc:
        found = shutil.which(cc)
        # An explicit CC that does not resolve means "no compiler" —
        # the no-compiler CI leg relies on CC=/nonexistent behaving so.
        return found
    for name in ("cc", "gcc", "clang"):
        found = shutil.which(name)
        if found:
            return found
    return None


def cached_kernel_path(source: Optional[str] = None) -> str:
    """Where the compiled kernel lives in the cache dir:
    ``rk_<sha256(kernel.c)[:16]>_abi<N>.so`` (``.dylib`` on macOS).

    A library already at this path is loaded as is — which is how a
    build with different flags (the sanitizer CI leg's) is swapped in.
    """
    with open(source or _kernel_source(), "rb") as handle:
        digest = hashlib.sha256(handle.read()).hexdigest()[:16]
    suffix = ".dylib" if sys.platform == "darwin" else ".so"
    return os.path.join(_cache_dir(), f"rk_{digest}_abi{RK_ABI_VERSION}{suffix}")


def _compile_kernel(source: str) -> Tuple[Optional[str], Optional[str]]:
    """Compile ``kernel.c`` into the cache dir; ``(path, error)``."""
    compiler = _find_compiler()
    if compiler is None:
        return None, "no C compiler found (checked $CC, cc, gcc, clang)"
    target = cached_kernel_path(source)
    if os.path.exists(target):
        return target, None
    cache = os.path.dirname(target)
    suffix = os.path.splitext(target)[1]
    try:
        os.makedirs(cache, exist_ok=True)
        fd, tmp = tempfile.mkstemp(suffix=suffix, dir=cache)
        os.close(fd)
    except OSError as exc:
        return None, f"kernel cache dir unusable: {exc}"
    cmd = [compiler, "-O2", "-fPIC", "-shared", "-std=c99", "-o", tmp, source]
    try:
        proc = subprocess.run(
            cmd, capture_output=True, text=True, timeout=120, check=False
        )
    except (OSError, subprocess.TimeoutExpired) as exc:
        _unlink_quiet(tmp)
        return None, f"kernel compile failed to run: {exc}"
    if proc.returncode != 0:
        _unlink_quiet(tmp)
        detail = (proc.stderr or proc.stdout or "").strip().splitlines()
        return None, "kernel compile failed: " + (detail[0] if detail else "?")
    try:
        os.replace(tmp, target)  # atomic: racing processes agree on one file
    except OSError as exc:
        _unlink_quiet(tmp)
        return None, f"kernel cache install failed: {exc}"
    return target, None


def _unlink_quiet(path: str) -> None:
    try:
        os.unlink(path)
    except OSError:
        pass


def _declare(lib: ctypes.PyDLL) -> None:
    void_p = ctypes.c_void_p
    lib.rk_abi_version.argtypes = []
    lib.rk_abi_version.restype = _I32
    lib.rk_graph_new.argtypes = [
        _I32,                       # n_nodes
        ctypes.POINTER(_PI32),      # the 26 CSR arrays
        _PI32,                      # their element counts
        ctypes.c_char_p,            # flags (n + 1 bytes)
        _I32,                       # n_tokens
        _PI32, _PI32, _PI32,        # tok_fid, tok_fam, tok_rank
        _PI32,                      # node_rank
        _PI32,                      # out: error code
    ]
    lib.rk_graph_new.restype = void_p
    lib.rk_graph_rebind.argtypes = [void_p] + lib.rk_graph_new.argtypes[:-1]
    lib.rk_graph_rebind.restype = _I32
    lib.rk_graph_free.argtypes = [void_p]
    lib.rk_graph_free.restype = None
    lib.rk_graph_oom.argtypes = [void_p]
    lib.rk_graph_oom.restype = _I32
    for name in ("rk_fstack_push", "rk_cstack_push"):
        fn = getattr(lib, name)
        fn.argtypes = [void_p, _I32, _I32]
        fn.restype = _I32
    for name in (
        "rk_fstack_value",
        "rk_fstack_parent",
        "rk_cstack_value",
        "rk_cstack_parent",
    ):
        fn = getattr(lib, name)
        fn.argtypes = [void_p, _I32]
        fn.restype = _I32
    lib.rk_session_new.argtypes = [void_p]
    lib.rk_session_new.restype = void_p
    lib.rk_session_free.argtypes = [void_p]
    lib.rk_session_free.restype = None
    for name in ("rk_session_count", "rk_session_live", "rk_session_oom"):
        fn = getattr(lib, name)
        fn.argtypes = [void_p]
        fn.restype = _I32
    lib.rk_summary_put_many.argtypes = [
        void_p,
        _I32,                       # n entries
        _PI32, _PI32, _PI64,        # key states, key stacks, steps
        _PI32, _PI32,               # object offsets (n + 1), objects
        _PI32, _PI32, _PI32,        # boundary offsets (n + 1), states, stacks
    ]
    lib.rk_summary_put_many.restype = _I32
    lib.rk_session_compact.argtypes = [void_p]
    lib.rk_session_compact.restype = _I32
    lib.rk_summary_del.argtypes = [void_p, _I32, _PI32, _PI32]
    lib.rk_summary_del.restype = _I32
    lib.rk_frame_hold.argtypes = [
        void_p,
        _I64, void_p, _I32,         # frame rows, at a width of 2, 4 or 8 bytes
        _I32, _PI32, _PI32, _PI64,  # per node row: image index, object?, epoch
        _I32, _PI32,                # per stack row: field-stack id
        _I64, _PI64,                # the answer's epochs
        _PI64,                      # out: accepted entries' row offsets
        _PI64,                      # out: entries, accepted, skipped, facts
    ]
    lib.rk_frame_hold.restype = _I32
    lib.rk_ppta.argtypes = [void_p, _I32, _I32, _I64, _I64, _I32]
    lib.rk_ppta.restype = ctypes.POINTER(RkPptaResult)
    lib.rk_ppta_free.argtypes = [ctypes.POINTER(RkPptaResult)]
    lib.rk_ppta_free.restype = None
    lib.rk_dynsum.argtypes = [void_p, _I32, _I32, _I64, _I64, _I32, _I32]
    lib.rk_dynsum.restype = ctypes.POINTER(RkDynResult)
    lib.rk_dyn_free.argtypes = [ctypes.POINTER(RkDynResult)]
    lib.rk_dyn_free.restype = None


def _load() -> Tuple[Optional[ctypes.PyDLL], Optional[str]]:
    if os.environ.get("REPRO_NATIVE", "").strip() == "0":
        return None, "disabled (REPRO_NATIVE=0)"
    source = _kernel_source()
    if not os.path.exists(source):
        return None, "kernel.c not shipped with this install"
    candidates = _prebuilt_candidates()
    compile_error = None
    if not candidates:
        built, compile_error = _compile_kernel(source)
        if built is not None:
            candidates = [built]
    if not candidates:
        return None, compile_error or "no kernel binary available"
    last_error = None
    for path in candidates:
        try:
            # PyDLL: the GIL stays held across calls — see module docstring.
            lib = ctypes.PyDLL(path)
            _declare(lib)
            abi = lib.rk_abi_version()
        except (OSError, AttributeError) as exc:
            last_error = f"kernel load failed: {exc}"
            continue
        if abi != RK_ABI_VERSION:
            last_error = (
                f"kernel ABI mismatch: binary has {abi}, "
                f"binding expects {RK_ABI_VERSION}"
            )
            continue
        return lib, None
    return None, last_error or "no loadable kernel binary"


#: Lazy singleton: {"lib": PyDLL or None, "reason": str or None,
#: "tried": bool}.  Tests monkeypatch this (via :func:`_reset`) to
#: simulate missing-compiler and ABI-mismatch environments.
_STATE = {"lib": None, "reason": None, "tried": False}


def _reset() -> None:
    """Forget the cached load outcome (test hook)."""
    _STATE["lib"] = None
    _STATE["reason"] = None
    _STATE["tried"] = False


def load_kernel() -> Tuple[Optional[ctypes.PyDLL], Optional[str]]:
    """The loaded kernel library, or ``(None, reason)``.

    The outcome is cached for the life of the process — compile and
    load are attempted once, not per query.
    """
    if not _STATE["tried"]:
        lib, reason = _load()
        _STATE["lib"] = lib
        _STATE["reason"] = reason
        _STATE["tried"] = True
    return _STATE["lib"], _STATE["reason"]


def availability() -> Tuple[bool, Optional[str]]:
    """``(True, None)`` when the kernel is loadable, else
    ``(False, reason)`` — the reason engine stats report as
    ``native_unavailable``."""
    lib, reason = load_kernel()
    if lib is None:
        return False, reason or "kernel unavailable"
    return True, None
