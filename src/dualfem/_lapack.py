"""The four LAPACK and BLAS routines the solvers call, taken from the
OpenBLAS that numpy has already loaded.

numpy's wheels link an ILP64 OpenBLAS (``scipy-openblas64``) that exports
every LAPACK and BLAS routine under the name ``scipy_<routine>_64_``.  The
symbols resolve through the handle of numpy's own extension module, so no
library path is searched and no file is opened: the process keeps one
OpenBLAS, one ``libgfortran`` and one BLAS thread pool.  Loading scipy's
``_flapack`` and ``_fblas`` extensions instead would map a second OpenBLAS
and a second ``libgfortran``, at about 25 ms of import time and 4.9 MB of
resident memory, and start a second thread pool.

The routines are called through ``ctypes`` by the Fortran convention:
every argument by reference, integers as ``int64``, and the hidden length
of each character argument appended by value.  The integer arguments of a
call and its ``info`` live in one small array made per call, so the
routines are thread-safe.  Each wrapper takes the arguments and returns the
outputs of scipy's f2py wrapper of the same name, as far as the solvers use
them.  An array's address is read from the array object itself, which
keeps a call to a few microseconds more than f2py's.

If numpy's library does not export the four symbols (numpy's macOS arm64
wheels use Accelerate, conda builds may link MKL, and on Windows a ``.pyd``
handle does not search its dependencies), or the interpreter is not
CPython, the f2py routines of ``scipy.linalg.lapack`` and
``scipy.linalg.blas`` serve instead, imported with this module; importing
them loads some 85 scipy modules in about 0.25 s.  The two OpenBLAS
builds agree bitwise on the rigid-body and transport bands; the blocked
Cholesky of bands wider than 64 differs between them in round-off.
"""

import ctypes
import sys

import numpy as np

_NAMES = ("dpbtrf", "dpbtrs", "dgbsv", "dgbmv")
_SYMBOL = "scipy_{}_64_"
_POINTER = ctypes.c_void_p.from_address
_UPLO = (b"U", b"L")


def _openblas():
    """The ``ctypes`` functions of the four routines in numpy's OpenBLAS,
    or None if the library does not export them all or an array's address
    cannot be read from the array object."""
    if _OFFSET is None:
        return None
    try:
        from numpy._core import _multiarray_umath
    except ImportError:                         # numpy 1.x
        from numpy.core import _multiarray_umath
    try:
        lib = ctypes.CDLL(_multiarray_umath.__file__)
        return [getattr(lib, _SYMBOL.format(name)) for name in _NAMES]
    except (OSError, AttributeError):
        return None


def _data_offset():
    """Offset of an ndarray's data pointer in the array object, or None.

    numpy's array struct (``PyArrayObject_fields``) holds the data pointer
    right after the object header, and CPython's ``id`` is the object's
    address; a probe array confirms both before the offset is used."""
    if sys.implementation.name != "cpython":
        return None
    probe = np.empty(1)
    offset = object.__basicsize__
    if _POINTER(id(probe) + offset).value != probe.ctypes.data:
        return None
    return offset


def _address(a):
    """Address of the first element of the ndarray ``a``, read from the
    array object in a sixth of the time ``a.ctypes.data`` takes."""
    return _POINTER(id(a) + _OFFSET).value


def _fortran(a, overwrite):
    """``a`` itself if it may be overwritten and is a writable
    Fortran-ordered float64 array, else a Fortran-ordered float64 copy."""
    if (overwrite and a.dtype == np.float64 and a.flags.f_contiguous
            and a.flags.writeable):
        return a
    return np.array(a, np.float64, order="F")


def _from_openblas(pbtrf, pbtrs, gbsv, gbmv):
    """The four routines as f2py-compatible callables over numpy's OpenBLAS."""
    # character arguments by pointer, the rest by reference, then the hidden
    # length of each character argument by value
    for function, chars, refs in ((pbtrf, 1, 5), (pbtrs, 1, 8),
                                  (gbsv, 0, 10), (gbmv, 1, 12)):
        function.argtypes = ([ctypes.c_char_p] * chars + [ctypes.c_void_p] * refs
                             + [ctypes.c_size_t] * chars)
        function.restype = None

    def dpbtrf(ab, lower=0, overwrite_ab=0):
        c = _fortran(ab, overwrite_ab)
        s = np.array([c.shape[1], len(c) - 1, len(c), 0], np.int64)    # n, kd, ldab, info
        p = _address(s)
        pbtrf(_UPLO[lower], p, p + 8, _address(c), p + 16, p + 24, 1)
        return c, int(s[3])

    def dpbtrs(ab, b, lower=0, overwrite_b=0):
        ab, x = np.asfortranarray(ab, np.float64), _fortran(b, overwrite_b)
        # n, kd, nrhs, ldab, ldb, info
        s = np.array([ab.shape[1], len(ab) - 1, x.size // len(x), len(ab), len(x), 0],
                     np.int64)
        p = _address(s)
        pbtrs(_UPLO[lower], p, p + 8, p + 16, _address(ab), p + 24, _address(x),
              p + 32, p + 40, 1)
        return x, int(s[5])

    def dgbsv(kl, ku, ab, b, overwrite_ab=0, overwrite_b=0):
        lub, x = _fortran(ab, overwrite_ab), _fortran(b, overwrite_b)
        # n, kl, ku, nrhs, ldab, ldb, info, then the n pivots
        s = np.empty(7 + lub.shape[1], np.int64)
        s[:7] = lub.shape[1], kl, ku, x.size // len(x), len(lub), len(x), 0
        p = _address(s)
        gbsv(p, p + 8, p + 16, p + 24, _address(lub), p + 32, p + 56, _address(x),
             p + 40, p + 48)
        return lub, s[7:] - 1, x, int(s[6])     # 0-based pivots, as f2py's

    def dgbmv(m, n, kl, ku, alpha, a, x):
        a, x = np.asfortranarray(a, np.float64), np.ascontiguousarray(x, np.float64)
        if a.shape[1] != n or len(x) < n:       # BLAS would read past them
            raise ValueError(f"dgbmv needs {n} columns of a and entries of x, "
                             f"got {a.shape[1]} and {len(x)}")
        y = np.zeros(m)
        # m, n, kl, ku, lda, incx = incy, then alpha and beta = 0 as doubles
        s = np.array([m, n, kl, ku, len(a), 1, 0, 0], np.int64)
        s.view(np.float64)[6] = alpha
        p = _address(s)
        gbmv(b"N", p, p + 8, p + 16, p + 24, p + 48, _address(a), p + 32,
             _address(x), p + 40, p + 56, _address(y), p + 40, 1)
        return y

    return dpbtrf, dpbtrs, dgbsv, dgbmv


def _from_scipy():
    """The four routines from ``scipy.linalg``'s f2py wrappers."""
    from scipy.linalg import blas, lapack

    def dgbmv(m, n, kl, ku, alpha, a, x):
        # the f2py wrapper asks for m >= kl + ku + 1 rows; the extra rows
        # of the product are dropped
        return blas.dgbmv(max(m, kl + ku + 1), n, kl, ku, alpha, a, x)[:m]

    return lapack.dpbtrf, lapack.dpbtrs, lapack.dgbsv, dgbmv


def _routines():
    """(dpbtrf, dpbtrs, dgbsv, dgbmv), from numpy's OpenBLAS if it exports
    them, else from scipy."""
    functions = _openblas()
    if functions is None:
        return _from_scipy()
    return _from_openblas(*functions)


_OFFSET = _data_offset()
dpbtrf, dpbtrs, dgbsv, dgbmv = _routines()
