import importlib
import pkgutil
import re
from functools import reduce
from pathlib import Path

import numpy as np

import dualfem

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


def test_readme_names_of_dualfem_modules_exist():
    # every backquoted module.name that names a dualfem module resolves, so
    # the README cannot keep naming a function that was renamed or deleted;
    # benchmark metric keys such as cli.write_csv.busy_s name no attribute
    text = re.sub(r"```.*?```", "", README.read_text(), flags=re.S)
    modules = {m.name for m in pkgutil.iter_modules(dualfem.__path__)}
    names = {m.group(0) for span in re.findall(r"`([^`]+)`", text)
             for m in re.finditer(r"(?<![\w.])(\w+)\.\w+(?:\.\w+)*", span)
             if m.group(1) in modules
             and not m.group(0).endswith((".busy_s", ".self_s", ".calls"))}
    assert {"fem.pin", "fem.FactoredSystem", "projection.l2_project"} <= names
    missing = []
    for name in sorted(names):
        module, *attrs = name.split(".")
        try:
            reduce(getattr, attrs, importlib.import_module(f"dualfem.{module}"))
        except AttributeError:
            missing.append(name)
    assert missing == []
