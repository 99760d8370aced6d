import importlib.machinery

import numpy as np
import pytest

from dualfem import _lapack


def spd_band(rng, n=9, kd=2):
    """Lower band (kd + 1, n) of a diagonally dominant symmetric matrix."""
    ab = rng.standard_normal((kd + 1, n))
    ab[0] = 2.0 * (kd + 1) + rng.random(n)
    for k in range(1, kd + 1):
        ab[k, n - k:] = 0.0
    return ab


def general_band(rng, m):
    """The 11 band rows (kl = ku = 5) of a diagonally dominant m x m matrix."""
    ab = rng.standard_normal((11, m))
    ab[5] += 12.0
    return ab


def band_results(routines, rng):
    """Every output of the four routines on one SPD band system and on two
    general band systems, m < 11 and m >= 11, as the solvers call them."""
    dpbtrf, dpbtrs, dgbsv, dgbmv = routines
    ab = spd_band(rng)
    b = rng.standard_normal((ab.shape[1], 2))
    factor, info = dpbtrf(ab, lower=1)
    out = [factor, info, *dpbtrs(factor, b, lower=1)]
    for m in (6, 15):
        band = general_band(rng, m)
        work = np.zeros((16, m), order="F")
        work[5:] = band
        lu, piv, x, info = dgbsv(5, 5, work, rng.standard_normal(m))
        out += [lu, piv, x, info, dgbmv(max(m, 11), m, 5, 5, 1.0, band, x)]
    return out


def scipy_routines():
    import scipy.linalg.blas
    import scipy.linalg.lapack
    lapack = scipy.linalg.lapack
    return lapack.dpbtrf, lapack.dpbtrs, lapack.dgbsv, scipy.linalg.blas.dgbmv


def assert_bitwise(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert np.array_equal(np.asarray(a), np.asarray(b))
        assert np.asarray(a).dtype == np.asarray(b).dtype


def test_loaded_routines_match_scipy_linalg_bitwise():
    # the extensions load from their files under dualfem's name, not through
    # scipy.linalg, and compute exactly what scipy.linalg's routines compute
    assert _lapack._flapack.__name__ == "dualfem._lapack._flapack"
    routines = (_lapack.dpbtrf, _lapack.dpbtrs, _lapack.dgbsv, _lapack.dgbmv)
    got = band_results(routines, np.random.default_rng(7))
    assert_bitwise(got, band_results(scipy_routines(), np.random.default_rng(7)))


@pytest.mark.parametrize("lookup", ["missing", "not an extension"])
def test_fallback_gives_the_same_routines(monkeypatch, tmp_path, lookup):
    # with no file found, or a file that does not load, the public
    # scipy.linalg modules serve, and the results do not change
    bogus = tmp_path / ("_flapack" + importlib.machinery.EXTENSION_SUFFIXES[0])
    bogus.write_bytes(b"not a shared object")
    monkeypatch.setattr(_lapack, "_path",
                        lambda stem: None if lookup == "missing" else str(bogus))
    lapack, blas = _lapack._load("_flapack", "lapack"), _lapack._load("_fblas", "blas")
    assert (lapack.__name__, blas.__name__) == ("scipy.linalg.lapack", "scipy.linalg.blas")
    routines = (lapack.dpbtrf, lapack.dpbtrs, lapack.dgbsv, blas.dgbmv)
    direct = (_lapack.dpbtrf, _lapack.dpbtrs, _lapack.dgbsv, _lapack.dgbmv)
    assert_bitwise(band_results(routines, np.random.default_rng(11)),
                   band_results(direct, np.random.default_rng(11)))
