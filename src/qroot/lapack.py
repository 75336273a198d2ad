"""The five LAPACK kernels of a canonicalizing call, and the one module that binds them.

A solve runs zgehrd, zunghr and zlahqr for its Schur form (schur), ztrsen to
reorder that form and ztrsyl for the Sylvester step of the primary root
(sylvester).  provider() picks, once per process, where the five come from;
everything that marshals an argument or sizes a workspace lives here.
"""

from __future__ import annotations

import ctypes
import functools
import importlib.machinery
import importlib.util
import os
import types

import numpy as np

# LAPACK routine: (pointer arguments, character arguments)
_ROUTINES = {"zgehrd": (9, 0), "zunghr": (9, 0), "zlahqr": (13, 0),
             "ztrsen": (15, 2), "ztrsyl": (13, 2)}


@functools.cache
def provider():
    """The process's one LAPACK provider for schur, sylvester and the ztrsen reordering.

    The kernels come from the OpenBLAS that numpy.linalg links against,
    under its ILP64 names (scipy_<name>_64_ in numpy's wheels, else
    <name>_64_), found through the handle of numpy's _umath_linalg.  That
    library is loaded already, so a canonicalizing process maps one BLAS
    library and loads no scipy module.  When any of the five names is
    missing (conda or system BLAS, Windows, where a handle does not reach
    its dependencies' symbols, or macOS Accelerate), scipy serves all five:
    see _scipy_lapack.  Both providers take the same calls, in the form of
    scipy's f2py wrappers, and `integer` is the ctypes type of their
    INTEGER for the raw zlahqr.
    """
    try:
        lib = _numpy_lapack_library()
    except OSError:
        return _scipy_lapack()
    addresses = {}
    for name in _ROUTINES:
        symbol = next((s for s in (f"scipy_{name}_64_", f"{name}_64_") if hasattr(lib, s)), None)
        if symbol is None:
            return _scipy_lapack()
        addresses[name] = ctypes.cast(getattr(lib, symbol), ctypes.c_void_p).value
    return _Ilp64Lapack(addresses)


def _numpy_lapack_library():
    from numpy.linalg import _umath_linalg
    return ctypes.CDLL(_umath_linalg.__file__)


class _Ilp64Lapack:
    """ILP64 LAPACK through ctypes, called like scipy's f2py wrappers.

    INTEGER and LOGICAL arguments are 8 bytes, and gfortran's hidden string
    lengths follow the arguments.  Workspace comes from an lwork = -1
    query.  A negative info (an illegal argument) raises LinAlgError naming
    the routine; the caller checks any other info as it checks f2py's.
    """

    integer = ctypes.c_int64

    def __init__(self, addresses: dict[str, int]):
        self._fn = {name: ctypes.CFUNCTYPE(None, *[ctypes.c_void_p] * pointers,
                                           *[ctypes.c_size_t] * strings)(addresses[name])
                    for name, (pointers, strings) in _ROUTINES.items()}
        self.zlahqr = self._fn["zlahqr"]

    def _call(self, name: str, *args, work: bool = False) -> int:
        """Call `name` on args, then WORK and LWORK if `work`, then INFO; return INFO.

        Arrays go by data pointer, ints as INTEGERs by reference, bytes as
        CHARACTERs and other ctypes objects by reference.  The workspace
        size comes from an lwork = -1 query.
        """
        slots = (ctypes.c_int64 * (len(args) + 2))()  # the INTEGERs, then LWORK and INFO
        base = ctypes.addressof(slots)
        pointers, lengths = [], []
        for i, a in enumerate(args):
            if isinstance(a, np.ndarray):
                a = a.ctypes.data
            elif isinstance(a, bytes):
                lengths.append(len(a))
            elif isinstance(a, int):
                slots[i] = a
                a = base + 8 * i
            else:
                a = ctypes.addressof(a)
            pointers.append(a)
        fn, lwork, info = self._fn[name], base + 8 * len(args), base + 8 * len(args) + 8
        if work:
            query = (ctypes.c_double * 2)()
            slots[-2] = -1
            fn(*pointers, ctypes.addressof(query), lwork, info, *lengths)
            if slots[-1] == 0:
                space = np.empty(max(1, int(query[0])), dtype=complex)
                slots[-2] = len(space)
                fn(*pointers, space.ctypes.data, lwork, info, *lengths)
        else:
            fn(*pointers, info, *lengths)
        if slots[-1] < 0:
            raise np.linalg.LinAlgError(f"{name}: argument {-slots[-1]} had an illegal value")
        return slots[-1]

    def zgehrd(self, a):
        h = np.array(a, dtype=complex, order="F")
        n = h.shape[0]
        tau = np.empty(max(n - 1, 0), dtype=complex)
        return h, tau, self._call("zgehrd", n, 1, n, h, max(n, 1), tau, work=True)

    def zunghr(self, a, tau):
        q = np.array(a, dtype=complex, order="F")
        n = q.shape[0]
        return q, self._call("zunghr", n, 1, n, q, max(n, 1),
                             np.ascontiguousarray(tau, dtype=complex), work=True)

    def ztrsen(self, select, t, q, job="B"):
        ts = np.array(t, dtype=complex, order="F")
        qs = np.array(q, dtype=complex, order="F")
        n = ts.shape[0]
        w = np.empty(n, dtype=complex)
        m, s, sep = ctypes.c_int64(0), ctypes.c_double(0.0), ctypes.c_double(0.0)
        select = np.ascontiguousarray(select, dtype=np.int64)  # LOGICAL
        info = self._call("ztrsen", job.encode(), b"V", select, n, ts, max(n, 1), qs,
                          max(n, 1), w, m, s, sep, work=True)
        return ts, qs, w, m.value, s.value, sep.value, info

    def ztrsyl(self, a, b, c, isgn=1):
        x = np.array(c, dtype=complex, order="F")
        rows, cols = x.shape
        scale = ctypes.c_double(0.0)
        info = self._call("ztrsyl", b"N", b"N", isgn, rows, cols,
                          np.asfortranarray(a, dtype=complex), max(rows, 1),
                          np.asfortranarray(b, dtype=complex), max(cols, 1),
                          x, max(rows, 1), scale)
        return x, scale.value, info


def _scipy_lapack() -> types.SimpleNamespace:
    """scipy's LAPACK, for a numpy whose library lacks the ILP64 names.

    The f2py routines come from scipy.linalg._flapack, loaded by file path
    under its real name, so scipy/__init__ (15-17 ms) and scipy.linalg's
    array-API layer stay out and a later import of scipy.linalg shares the
    module; failing that, from scipy.linalg.lapack.  f2py wraps no zlahqr:
    it is looked up in the library _flapack links against (scipy_zlahqr_
    in scipy's wheels, else zlahqr_), failing that in scipy's Cython
    LAPACK API, whose loading imports the scipy package.
    """
    root = importlib.util.find_spec("scipy").submodule_search_locations[0]
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = os.path.join(root, "linalg", "_flapack" + suffix)
        if os.path.exists(path):
            spec = importlib.util.spec_from_file_location("scipy.linalg._flapack", path)
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            break
    else:
        from scipy.linalg import lapack as module  # same f2py functions
    try:
        lib = ctypes.CDLL(module.__file__)
        address = ctypes.cast(getattr(lib, "scipy_zlahqr_", None) or lib.zlahqr_,
                              ctypes.c_void_p).value
    except (OSError, AttributeError):
        from scipy.linalg import cython_lapack
        capsule = cython_lapack.__pyx_capi__["zlahqr"]
        name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
            ("PyCapsule_GetName", ctypes.pythonapi))(capsule)
        address = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
            ("PyCapsule_GetPointer", ctypes.pythonapi))(capsule, name)
    return types.SimpleNamespace(
        zgehrd=module.zgehrd, zunghr=module.zunghr, ztrsen=module.ztrsen, ztrsyl=module.ztrsyl,
        zlahqr=ctypes.CFUNCTYPE(None, *[ctypes.c_void_p] * 13)(address), integer=ctypes.c_int)


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
    if n <= 1:  # the zunghr wrapper rejects n = 1
        return a.copy(), np.eye(n, dtype=complex)
    lapack = provider()
    h, tau, info = lapack.zgehrd(a)
    if info == 0:
        z, info = lapack.zunghr(h, tau)
    if info != 0:
        raise np.linalg.LinAlgError(f"Hessenberg reduction failed (info {info})")
    h, z = np.asfortranarray(h), np.asfortranarray(z)
    w = np.empty(n, dtype=complex)
    one, size, status = lapack.integer(1), lapack.integer(n), lapack.integer(0)
    ref = ctypes.byref
    # zlahqr(wantt, wantz, n, ilo, ihi, H, ldh, W, iloz, ihiz, Z, ldz, info)
    lapack.zlahqr(ref(one), ref(one), ref(size), ref(one), ref(size), h.ctypes.data, ref(size),
                  w.ctypes.data, ref(one), ref(size), z.ctypes.data, ref(size), ref(status))
    if status.value != 0:
        raise np.linalg.LinAlgError(f"Schur form not found (zlahqr info {status.value})")
    h[np.tri(n, k=-1, dtype=bool)] = 0.0  # zgehrd's reflectors lie below the subdiagonal
    return h, z


def sylvester(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """X with A X - X B = C for upper triangular A and B, by LAPACK ztrsyl.

    ztrsyl solves for scale * C, with scale <= 1 against overflow.
    """
    x, scale, info = provider().ztrsyl(a, b, c, isgn=-1)
    if info < 0:
        raise np.linalg.LinAlgError(f"Sylvester solve failed (ztrsyl info {info})")
    return x / scale
