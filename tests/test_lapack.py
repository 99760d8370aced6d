import copy

import numpy as np
import pytest

from dualfem import _lapack, cli, euler, fem, projection
from dualfem.presets import get_preset


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
    """Every output of the four routines, by name, on SPD band systems and
    on general band systems, m < 11 and m >= 11, as the solvers call them;
    and the ``info`` of a band that is not definite and of a singular one."""
    dpbtrf, dpbtrs, dgbsv, dgbmv = routines
    ab = spd_band(rng)
    b = rng.standard_normal((ab.shape[1], 2))
    factor, info = dpbtrf(ab, lower=1)
    out = {"dpbtrf": factor, "dpbtrf info": info}
    out["dpbtrs"], out["dpbtrs info"] = dpbtrs(factor, b, lower=1)
    out["dpbtrs 1-D"], _ = dpbtrs(factor, b[:, 0], lower=1)
    # in place, as fem.BandCholesky factors the transpose of its band
    band = np.ascontiguousarray(spd_band(rng, n=30, kd=4).T).T
    out["dpbtrf in place"], _ = dpbtrf(band, lower=1, overwrite_ab=1)
    assert np.shares_memory(out["dpbtrf in place"], band)
    out["dpbtrf not definite info"] = dpbtrf(-ab, lower=1)[1]
    for m in (6, 15):
        band = general_band(rng, m)
        work = np.zeros((16, m), order="F")
        work[5:] = band
        lu, piv, x, info = dgbsv(5, 5, work, rng.standard_normal(m))
        out |= {f"dgbsv lu {m}": lu, f"dgbsv piv {m}": piv, f"dgbsv x {m}": x,
                f"dgbsv info {m}": info, f"dgbmv {m}": dgbmv(m, m, 5, 5, 1.0, band, x)}
    out["dgbsv singular info"] = dgbsv(5, 5, np.zeros((16, 6), order="F"), np.ones(6))[3]
    return out


def scipy_routines():
    import scipy.linalg.blas
    import scipy.linalg.lapack
    lapack = scipy.linalg.lapack

    def dgbmv(m, n, kl, ku, alpha, a, x):
        # scipy's wrapper forms at least kl + ku + 1 rows of the product
        return scipy.linalg.blas.dgbmv(max(m, kl + ku + 1), n, kl, ku, alpha, a, x)[:m]

    return lapack.dpbtrf, lapack.dpbtrs, lapack.dgbsv, dgbmv


def assert_bitwise(got, want):
    assert got.keys() == want.keys()
    for name, a in got.items():
        a, b = np.asarray(a), np.asarray(want[name])
        assert np.array_equal(a, b), name
        # the pivots come back as int64 from the ILP64 OpenBLAS and as int32
        # from scipy's wrapper; no caller reads them
        if "piv" not in name:
            assert a.dtype == b.dtype, name


def test_loaded_routines_match_scipy_linalg_bitwise():
    # where numpy's OpenBLAS exports the routines, they are called there
    # through ctypes wrappers, else scipy's f2py routines serve; either way
    # they compute exactly what scipy.linalg's routines compute
    wrapped = _lapack._openblas() is not None
    kinds = {type(f).__name__ for f in (_lapack.dpbtrf, _lapack.dpbtrs, _lapack.dgbsv)}
    assert kinds == {"function" if wrapped else "fortran"}
    routines = (_lapack.dpbtrf, _lapack.dpbtrs, _lapack.dgbsv, _lapack.dgbmv)
    got = band_results(routines, np.random.default_rng(7))
    assert_bitwise(got, band_results(scipy_routines(), np.random.default_rng(7)))


@pytest.mark.skipif(_lapack._openblas() is None,
                    reason="the routines come from scipy.linalg")
def test_ctypes_arguments_are_checked():
    # read from the array object, for owners, views, read-only and empty arrays
    a = np.zeros((11, 30), order="F")
    frozen = np.ones(5)
    frozen.flags.writeable = False
    for view in (a, a[:, 7:], a.T, a[3], np.arange(9.0)[2:], frozen, np.empty(0)):
        assert _lapack._address(view) == view.ctypes.data
    # the band product checks what BLAS cannot: the operands' lengths
    for a, x in ((np.zeros((11, 5), order="F"), np.zeros(6)),
                 (np.zeros((11, 6), order="F"), np.zeros(5))):
        with pytest.raises(ValueError, match="dgbmv needs 6 columns"):
            _lapack.dgbmv(6, 6, 5, 5, 1.0, a, x)


def fallback_routines(monkeypatch):
    """The routines ``_routines`` gives when numpy's library exports none
    of the four symbols: scipy.linalg's f2py routines."""
    monkeypatch.setattr(_lapack, "_SYMBOL", "dualfem_absent_{}_64_")
    assert _lapack._openblas() is None
    routines = _lapack._routines()
    assert {type(f).__name__ for f in routines[:3]} == {"fortran"}
    return routines


def test_fallback_gives_the_same_routines(monkeypatch):
    # with a symbol missing from numpy's library, scipy.linalg's routines
    # serve, and the results do not change
    fallback = fallback_routines(monkeypatch)
    direct = (_lapack.dpbtrf, _lapack.dpbtrs, _lapack.dgbsv, _lapack.dgbmv)
    assert_bitwise(band_results(fallback, np.random.default_rng(11)),
                   band_results(direct, np.random.default_rng(11)))


def run_artifacts(cfg):
    """Every artifact grid of a run of ``cfg``, by name, and its summary."""
    summary, artifacts = cli.RUNNERS[cfg["problem"]](copy.deepcopy(cfg))
    grids = {name: getattr(rows, "values", rows) for name, (_, rows) in artifacts.items()}
    return grids, summary


# heat bands stay at half-bandwidth <= 64, where LAPACK's dpbtrf is unblocked
# and the OpenBLAS builds of numpy and scipy agree bitwise
@pytest.mark.parametrize("name, sizes", [
    ("heat-transient", {"nx": 20, "nt": 22}),
    ("heat-jump", {"nx": 40, "nt": 10}),
    ("transport-step", {"nx": 40, "nt": 11, "T_total": 1.0}),
    ("euler-damped", {"T_total": 1.0}),
])
def test_fallback_runs_are_bitwise_the_numpy_route(monkeypatch, name, sizes):
    # a heat, a transport and a rigid-body run, each with every dual solve,
    # projection and Newton step on scipy.linalg's routines, write the same
    # grids as on the routines of numpy's OpenBLAS
    cfg = get_preset(name) | sizes
    want = run_artifacts(cfg)
    dpbtrf, dpbtrs, dgbsv, dgbmv = fallback_routines(monkeypatch)
    for module, names in ((fem, {"dpbtrf": dpbtrf, "dpbtrs": dpbtrs}),
                          (projection, {"dpbtrf": dpbtrf, "dpbtrs": dpbtrs}),
                          (euler, {"dgbsv": dgbsv, "dgbmv": dgbmv})):
        for attr, routine in names.items():
            monkeypatch.setattr(module, attr, routine)
    projection._axis.cache_clear()          # the projection axes factor anew
    try:
        got = run_artifacts(cfg)
    finally:
        projection._axis.cache_clear()
    assert got[1] == want[1]
    assert got[0].keys() == want[0].keys()
    for artifact, grid in got[0].items():
        assert grid.tobytes() == want[0][artifact].tobytes(), artifact
