"""The four LAPACK and BLAS routines the solvers call, loaded without
``scipy.linalg``.

``dpbtrf``, ``dpbtrs`` and ``dgbsv`` live in scipy's f2py extension
``scipy/linalg/_flapack`` and ``dgbmv`` in ``_fblas``; both need only
numpy.  Importing them through ``scipy.linalg`` runs that subpackage's
``__init__``, which loads some 85 scipy modules: more import time than most
preset runs take, and some 24 MB of resident memory.  So each extension is
loaded straight from its file, found without importing scipy, under a name
of its own: nothing enters ``sys.modules`` under scipy's name.  If the file
is not there or does not load, the public ``scipy.linalg.lapack`` /
``scipy.linalg.blas`` module serves instead, so a change to scipy's private
layout costs import time, never a result.
"""

import importlib
import importlib.machinery
import importlib.util
import os


def _path(stem):
    """File of the extension scipy/linalg/<stem>, or None."""
    scipy = importlib.util.find_spec("scipy")
    if scipy is None or scipy.origin is None:
        return None
    folder = os.path.join(os.path.dirname(scipy.origin), "linalg")
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        if os.path.isfile(path := os.path.join(folder, stem + suffix)):
            return path
    return None


def _load(stem, public):
    """The extension module scipy/linalg/<stem>, else scipy.linalg.<public>."""
    path = _path(stem)
    if path is not None:
        try:
            spec = importlib.util.spec_from_file_location(f"{__name__}.{stem}", path)
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            return module
        except ImportError:
            pass
    return importlib.import_module(f"scipy.linalg.{public}")


_flapack = _load("_flapack", "lapack")
dpbtrf, dpbtrs, dgbsv = _flapack.dpbtrf, _flapack.dpbtrs, _flapack.dgbsv
dgbmv = _load("_fblas", "blas").dgbmv
