"""The benchmark's correctness gate, run on one repetition inside Tier-1.

The benchmark (``bench/run.py``) fails a repetition whose traced call counts
do not match its workload's fingerprint, for example when
``euler.residual`` is renamed or called more than once per Newton
iteration.  These tests run one traced repetition of each workload through
the benchmark's own tracer and gate, so such a change fails here first.
"""

import os
import sys

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")
sys.path.insert(0, BENCH)

import tracer  # noqa: E402
import worker  # noqa: E402
from workloads import make_config  # noqa: E402


def test_traced_euler_newton_repetition_passes_the_gate(tmp_path):
    cfg = make_config("euler-newton", 0, 0)
    with tracer.Tracer(run_id=0) as tr:
        _, summary, _, failure = worker._one_call("euler-newton", cfg, str(tmp_path / "o"))
    assert failure is None
    bd = tracer.run_breakdown(tr.spans)
    assert worker._fingerprint_failure("euler-newton", tr, bd, summary) is None
    iters = sum(summary["metrics"]["newton_iters"])
    n_stages = summary["metrics"]["n_stages"]
    assert bd["euler.residual.calls"] == bd["euler.jacobian.calls"] == iters
    # one DtP evaluation per Newton iteration and one per stage for the
    # projection of the converged dual field
    assert bd["euler.dtp_euler.calls"] == iters + n_stages


def test_traced_transport_stages_repetition_passes_the_gate(tmp_path):
    cfg = make_config("transport-stages", 0, 0)
    with tracer.Tracer(run_id=0) as tr:
        _, summary, _, failure = worker._one_call("transport-stages", cfg, str(tmp_path / "o"))
    assert failure is None
    bd = tracer.run_breakdown(tr.spans)
    assert worker._fingerprint_failure("transport-stages", tr, bd, summary) is None
    # one dual solve and one projection per stage, and the stage matrix is
    # assembled and its pinned dofs eliminated once per run
    assert bd["fem.solve_linear.dual.calls"] == bd["fem.solve_linear.project.calls"] == 10
    assert bd["fem.apply_dirichlet.calls"] == bd["transport.assemble_transport.calls"] == 1
    # each projection solves the whole 217 x 56 node grid of the stage; in
    # kron(M_t, M_x) an axis of n nodes has 3 n - 2 nonzeros, and the
    # identity line of its one pinned end node drops the 2 that couple it
    assert bd["fem.solve_linear.project.ndof_max"] == 217 * 56
    assert bd["fem.solve_linear.project.nnz_max"] == (3 * 217 - 4) * (3 * 56 - 4)
