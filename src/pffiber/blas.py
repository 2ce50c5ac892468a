"""BLAS threads by kernel size.

numpy's OpenBLAS runs each call it can split on a pool of threads, one per
core unless ``OPENBLAS_NUM_THREADS`` says otherwise.  The symmetry blocks of
H(P) are small (n <= 50 on the desk config, 164 and 325 at mid, 609 on
the 48-mode N_max 2 rung), and at these sizes a second thread makes a
kernel little faster or none: between kernels the idle worker spins, which
doubles a run's CPU time on a 2-core host, and a threaded small kernel can
stall.  Threads pay from about ``LIFT_N`` on (README, "Dense kernels").

So the CLI runs each command on one thread (:func:`one_thread`), and a site
that hands a block or a 2 dim matrix to LAPACK enters :func:`threads` with
it, which gives a kernel of at least the work of a real one at n =
``LIFT_N`` the count that :func:`one_thread` found.  The count never goes
above that one, so a process started with ``OPENBLAS_NUM_THREADS=1`` stays
on one thread, and below ``LIFT_N`` a result does not depend on the count.

The count is read and set through the OpenBLAS that numpy loaded, found in
the process's memory map and called by ``ctypes``.  Where there is no such
library or symbol (another BLAS, another system), both are no-ops.  Nothing
here is a setting: no flag, config key or environment variable is read.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import os

import numpy as np

# a real kernel of this dimension or more, or a complex one of as much work,
# runs on every thread the process started with (README, "Dense kernels")
LIFT_N = 1000

# (get, set) of the thread count, as the OpenBLAS builds name them: numpy's
# wheels bundle scipy-openblas with a 64-bit interface
_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)

# the count that one_thread found, while it runs; 0 outside it.  Module
# state, as the thread count it stands for is the process's
_ceiling = 0


@functools.cache
def _openblas():
    """(get, set) of the thread count of the loaded OpenBLAS, or None.
    numpy's own comes first: a wheel keeps it beside the package (in
    ``numpy.libs``), and scipy's wheel loads a second one."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split(maxsplit=5)[-1].strip() for line in fh if "openblas" in line}
    except OSError:
        return None
    home = os.path.dirname(np.__file__)
    for path in sorted(paths, key=lambda p: (not p.startswith(home), p)):
        try:
            lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD)  # loaded already, or fails
        except OSError:
            continue
        for get, put in _SYMBOLS:
            if hasattr(lib, get) and hasattr(lib, put):
                get, put = getattr(lib, get), getattr(lib, put)
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                return get, put
    return None


@contextlib.contextmanager
def one_thread():
    """Run the body on one BLAS thread, and restore the count found on
    entry when it returns or raises; :func:`threads` may lift the count
    back to that one within it."""
    global _ceiling
    api = _openblas()
    if api is None or _ceiling:  # no OpenBLAS, or inside another
        yield
        return
    get, put = api
    _ceiling = get()
    put(1)
    try:
        yield
    finally:
        put(_ceiling)
        _ceiling = 0


def threads(a: np.ndarray):
    """A context in which a kernel on the n x n matrix ``a``, or on each of
    a stack, runs on the count that :func:`one_thread` found, where its work
    is that of a real matrix with n = ``LIFT_N`` or more: a complex entry
    costs about four real ones, so complex matrices lift from n = 630.
    Elsewhere it changes nothing."""
    work = a.shape[-1] ** 3 * (4 if np.iscomplexobj(a) else 1)
    if work < LIFT_N**3 or _ceiling <= 1:
        return contextlib.nullcontext()
    return _lifted()


@contextlib.contextmanager
def _lifted():
    get, put = _openblas()
    now = get()
    put(_ceiling)
    try:
        yield
    finally:
        put(now)
