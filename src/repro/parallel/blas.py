"""One BLAS thread for task-list work.

DPZ's k-PCA (stage 2) is BLAS work, and :func:`parallel_map` already
spreads chunks over its own threads.  An OpenBLAS that threads every
call on top of that oversubscribes the cores: two pool threads, each
driving a two-thread OpenBLAS on a 2-vCPU box, made a pooled ``dpz``
chunk pack slower than a serial one.  The thread count also changes
OpenBLAS's reduction order, so a chunk payload would depend on it.

:func:`single_thread` sets every OpenBLAS loaded in the process to one
thread while any holder is inside it, and restores the saved counts
when the last holder leaves.  OpenBLAS's count is global to the
library, so BLAS calls made by other threads meanwhile run on one
thread too.  The libraries are found through the numpy and scipy
extension modules already imported: ``dlsym`` on a module's handle
also searches the libraries it links.  Where none exports an OpenBLAS
thread-count pair (MKL, Accelerate, a platform whose ``dlsym`` does
not search dependencies), the context does nothing.
"""

from __future__ import annotations

import ctypes
import os
import sys
from contextlib import contextmanager
from typing import Any, Iterator

from repro.devtools.sanitize import checked_rlock

__all__ = ["blas_status", "single_thread"]

#: (get, set) symbol pairs: numpy's ILP64 copy, scipy's copy, then a
#: plain OpenBLAS.
_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)

#: Extension modules that link numpy's and scipy's BLAS, looked up
#: only once imported.
_MODULES = ["numpy.linalg._umath_linalg", "scipy.linalg._fblas"]


class _DlInfo(ctypes.Structure):
    _fields_ = [("fname", ctypes.c_char_p), ("fbase", ctypes.c_void_p),
                ("sname", ctypes.c_char_p), ("saddr", ctypes.c_void_p)]


try:
    _DLADDR: Any = ctypes.CDLL(None).dladdr
    _DLADDR.argtypes = [ctypes.c_void_p, ctypes.POINTER(_DlInfo)]
    _DLADDR.restype = ctypes.c_int
except (OSError, AttributeError, TypeError):
    _DLADDR = None

#: Reentrant: :func:`_libraries` takes it inside the pin's own hold.
_lock = checked_rlock("parallel.blas._lock")
#: module name -> ``(library file, get, set)`` found through it.
_bound: dict[str, list[tuple[str, Any, Any]]] = {}
_holders = 0
_saved: list[tuple[Any, int]] = []


def _owner(fn: Any, fallback: str) -> str:
    """File name of the library that defines ``fn``."""
    info = _DlInfo()
    if _DLADDR is not None and _DLADDR(
            ctypes.cast(fn, ctypes.c_void_p), ctypes.byref(info)) \
            and info.fname:
        return os.path.basename(os.fsdecode(info.fname))
    return fallback


def _bind(path: str) -> list[tuple[str, Any, Any]]:
    try:
        lib = ctypes.CDLL(path)
    except OSError:
        return []
    out: list[tuple[str, Any, Any]] = []
    for get_name, set_name in _SYMBOLS:
        if hasattr(lib, get_name) and hasattr(lib, set_name):
            get, set_ = getattr(lib, get_name), getattr(lib, set_name)
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            out.append((_owner(get, get_name), get, set_))
    return out


def _libraries() -> list[tuple[str, Any, Any]]:
    """``(library file, get, set)`` per loaded OpenBLAS, each once."""
    out: list[tuple[str, Any, Any]] = []
    seen: set[int | None] = set()
    with _lock:
        for name in _MODULES:
            path = getattr(sys.modules.get(name), "__file__", None)
            if path is None:
                continue
            if name not in _bound:
                _bound[name] = _bind(path)
            for owner, get, set_ in _bound[name]:
                addr = ctypes.cast(get, ctypes.c_void_p).value
                if addr not in seen:
                    seen.add(addr)
                    out.append((owner, get, set_))
    return out


@contextmanager
def single_thread() -> Iterator[None]:
    """Run the body with every loaded OpenBLAS on one thread.

    Reference-counted: nested and concurrent holders share one pin,
    and the counts saved by the first holder are restored by the last.
    """
    global _holders, _saved
    with _lock:
        if _holders == 0:
            _saved = [(set_, int(get())) for _, get, set_ in _libraries()]
            for set_, _ in _saved:
                set_(1)
        _holders += 1
    try:
        yield
    finally:
        with _lock:
            _holders -= 1
            if _holders == 0:
                for set_, count in _saved:
                    set_(count)
                _saved = []


def blas_status() -> dict[str, list[Any]]:
    """The loaded OpenBLAS libraries (file names) and their thread counts."""
    libs = _libraries()
    return {"libs": [owner for owner, _, _ in libs],
            "threads": [int(get()) for _, get, _ in libs]}
