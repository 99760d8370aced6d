import re
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_runs():
    # the README's python block is run as written, so it cannot go stale
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
    assert len(blocks) == 1
    namespace: dict = {}
    exec(compile(blocks[0], str(README), "exec"), namespace)
    mesh, sol, theta = namespace["mesh"], namespace["sol"], namespace["theta"]
    assert sol.shape == (2 * mesh.n_nodes,)
    assert theta.shape == (mesh.nt + 1, mesh.nx + 1)
    # the Dirichlet columns are pinned, and the steady solution is 3x + 1
    assert np.all(theta[:, 0] == 1.0) and np.all(theta[:, -1] == 4.0)
    assert np.abs(theta[mesh.t_coords() <= 1.0] - (3 * mesh.x_coords() + 1)).max() < 0.01
