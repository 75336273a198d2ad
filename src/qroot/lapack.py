"""The five LAPACK kernels of a canonicalizing call, and the one module that binds them.

A solve runs zgehrd, zunghr and zlahqr for its Schur form (schur), ztrsen to
reorder that form (reorder) and ztrsyl for the Sylvester step of the
primary root (sylvester).  provider() finds, once per process, where the
five live; every call, argument and workspace goes through _Lapack._call.
"""

from __future__ import annotations

import ctypes
import functools
import importlib.machinery
import importlib.util
import os

import numpy as np

# LAPACK routine: (pointer arguments, character arguments)
_ROUTINES = {"zgehrd": (9, 0), "zunghr": (9, 0), "zlahqr": (13, 0),
             "ztrsen": (15, 2), "ztrsyl": (13, 2)}


@functools.cache
def provider() -> _Lapack:
    """The process's one LAPACK provider for schur, reorder and sylvester.

    The five addresses come from the first of three sources that has all of
    them:
    1. the OpenBLAS that numpy.linalg links against, under its ILP64 names
       (scipy_<name>_64_ in numpy's wheels, else <name>_64_), found through
       the handle of numpy's _umath_linalg.  That library is loaded already,
       so a solve maps one BLAS library and loads no scipy module;
    2. the LP64 names (scipy_<name>_, else <name>_) of the library that
       scipy.linalg._flapack links against, dlopened by path and never
       imported, so no scipy module loads either (conda or system BLAS,
       macOS Accelerate);
    3. scipy's Cython LAPACK capsules, which take no hidden CHARACTER
       lengths (Windows, where a handle does not reach its dependencies'
       symbols).
    """
    try:
        return _Lapack(_addresses(_numpy_lapack_library(), "_64_"), ctypes.c_int64, True)
    except (OSError, AttributeError):
        pass
    try:
        return _Lapack(_addresses(_flapack_library(), "_"), ctypes.c_int, True)
    except (OSError, AttributeError):
        return _Lapack(_capsule_addresses(), ctypes.c_int, False)


def _numpy_lapack_library():
    from numpy.linalg import _umath_linalg
    return ctypes.CDLL(_umath_linalg.__file__)


def _flapack_library():
    root = importlib.util.find_spec("scipy").submodule_search_locations[0]
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = os.path.join(root, "linalg", "_flapack" + suffix)
        if os.path.exists(path):
            return ctypes.CDLL(path)
    raise OSError("scipy.linalg._flapack not found")


def _addresses(lib, suffix: str) -> dict[str, int]:
    """The five routines' addresses in lib, as scipy_<name><suffix> or <name><suffix>."""
    return {name: ctypes.cast(getattr(lib, f"scipy_{name}{suffix}", None)
                              or getattr(lib, f"{name}{suffix}"), ctypes.c_void_p).value
            for name in _ROUTINES}


def _capsule_addresses() -> dict[str, int]:
    from scipy.linalg import cython_lapack
    capi = ctypes.pythonapi
    name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(("PyCapsule_GetName", capi))
    pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", capi))
    capsules = [cython_lapack.__pyx_capi__[routine] for routine in _ROUTINES]
    return {routine: pointer(c, name(c)) for routine, c in zip(_ROUTINES, capsules)}


class _Lapack:
    """The five kernels at `addresses`, called through ctypes.

    `integer` is the ctypes type of INTEGER and LOGICAL (8 bytes for ILP64,
    4 for LP64), and `lengths` says whether gfortran's hidden CHARACTER
    lengths follow the arguments.  A kernel with a workspace gets LAPACK's
    documented minimum: zgehrd n, zunghr n - 1 and ztrsen, for the job N
    that reorder runs, 1.  So each kernel is one foreign call, and
    zgehrd and zunghr run their unblocked code at every order, from every
    source.  A negative info (an illegal argument) raises LinAlgError
    naming the routine; the caller checks any other info.
    """

    def __init__(self, addresses: dict[str, int], integer, lengths: bool):
        self.integer, self._lengths = integer, lengths
        self._fn = {}
        for name, (pointers, strings) in _ROUTINES.items():
            hidden = [ctypes.c_size_t] * strings if lengths else []
            self._fn[name] = ctypes.CFUNCTYPE(None, *[ctypes.c_void_p] * pointers,
                                              *hidden)(addresses[name])

    def _call(self, name: str, *args, lwork: int = 0) -> int:
        """Call `name` on args, then WORK and LWORK if `lwork`, then INFO; return INFO.

        Arrays go by data pointer, ints as INTEGERs by reference, bytes as
        CHARACTERs and other ctypes objects by reference.  WORK holds
        `lwork` complex entries.
        """
        if lwork:
            args += (np.empty(lwork, dtype=complex), lwork)
        slots = (self.integer * (len(args) + 1))()  # the INTEGERs, then INFO
        base, width = ctypes.addressof(slots), ctypes.sizeof(self.integer)
        pointers, lengths = [], []
        for i, a in enumerate(args):
            if isinstance(a, np.ndarray):
                a = a.ctypes.data
            elif isinstance(a, bytes):
                lengths.append(len(a))
            elif isinstance(a, int):
                slots[i] = a
                a = base + width * i
            else:
                a = ctypes.addressof(a)
            pointers.append(a)
        self._fn[name](*pointers, base + width * len(args), *(lengths if self._lengths else ()))
        if slots[-1] < 0:
            raise np.linalg.LinAlgError(f"{name}: argument {-slots[-1]} had an illegal value")
        return slots[-1]


def schur(b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Complex Schur form (T, Z), B = Z T Z^*, by LAPACK zgehrd, zunghr and zlahqr.

    zgees sends every matrix of order 75 or more to the multishift QR with
    aggressive early deflation (zlaqr0); on this program's matrices of
    order 76-128 the double-shift QR zlahqr, which zgees runs below order
    75, is 20-35% faster.  The two break even between orders 130 and 150;
    on scrambled canonical pairs of order 200 and 258 zgees takes 51 and
    110 ms against 103 and 265 ms here.  No workload goes there, so there
    is one path.
    """
    a = np.asarray_chkfinite(b).astype(complex, copy=False)
    n = a.shape[0]
    if n <= 1:  # order 0 or 1 is triangular already
        return a.copy(), np.eye(n, dtype=complex)
    call = provider()._call
    h = np.array(a, order="F")
    tau = np.empty(n - 1, dtype=complex)
    info = call("zgehrd", n, 1, n, h, n, tau, lwork=n)
    if info == 0:
        z = np.array(h, order="F")
        info = call("zunghr", n, 1, n, z, n, tau, lwork=n - 1)
    if info != 0:
        raise np.linalg.LinAlgError(f"Hessenberg reduction failed (info {info})")
    info = call("zlahqr", 1, 1, n, 1, n, h, n, np.empty(n, dtype=complex), 1, n, z, n)
    if info != 0:
        raise np.linalg.LinAlgError(f"Schur form not found (zlahqr info {info})")
    h[np.tri(n, k=-1, dtype=bool)] = 0.0  # zgehrd's reflectors lie below the subdiagonal
    return h, z


def reorder(select: np.ndarray, t: np.ndarray, z: np.ndarray):
    """The Schur form (T, Z) with the selected eigenvalues leading, by LAPACK ztrsen.

    Returns (T', Z', count, info): count is the number of selected
    eigenvalues, and T and Z are left as they are.
    """
    lapack = provider()
    ts, zs = np.array(t, dtype=complex, order="F"), np.array(z, dtype=complex, order="F")
    n = ts.shape[0]
    count = lapack.integer(0)
    select = np.ascontiguousarray(select, dtype=lapack.integer)  # LOGICAL
    # job N: S and SEP, the condition estimates, are neither computed nor read
    info = lapack._call("ztrsen", b"N", b"V", select, n, ts, max(n, 1), zs, max(n, 1),
                        np.empty(n, dtype=complex), count, ctypes.c_double(0.0),
                        ctypes.c_double(0.0), lwork=1)
    return ts, zs, count.value, info


def sylvester(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """X with A X - X B = C for upper triangular A and B, by LAPACK ztrsyl.

    ztrsyl solves for scale * C, with scale <= 1 against overflow.
    """
    x = np.array(c, dtype=complex, order="F")
    rows, cols = x.shape
    scale = ctypes.c_double(0.0)
    provider()._call("ztrsyl", b"N", b"N", -1, rows, cols, np.asfortranarray(a, dtype=complex),
                     max(rows, 1), np.asfortranarray(b, dtype=complex), max(cols, 1),
                     x, max(rows, 1), scale)
    return x / scale.value
