"""Every relative import in the package names a module that exists and,
for `from .mod import name`, a name that module defines at top level; and
importing the package stays cheap."""

import ast
import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "jno"
MODULES = sorted(PACKAGE.glob("*.py"))


def _top_level_names(tree):
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                names.update(n.id for n in ast.walk(target) if isinstance(n, ast.Name))
    return names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_relative_imports_resolve(path):
    defined = {p.stem: _top_level_names(ast.parse(p.read_text())) for p in MODULES}
    missing = []
    for node in ast.walk(ast.parse(path.read_text())):
        if not isinstance(node, ast.ImportFrom) or node.level == 0:
            continue
        assert node.level == 1, f"{path.name}:{node.lineno} leaves the package"
        if node.module is None:
            missing += [f"{path.name}:{node.lineno} module {a.name}"
                        for a in node.names if a.name not in defined]
        elif node.module not in defined:
            missing.append(f"{path.name}:{node.lineno} module {node.module}")
        else:
            missing += [f"{path.name}:{node.lineno} {node.module}.{a.name}"
                        for a in node.names if a.name not in defined[node.module]]
    assert not missing


def test_importing_jno_loads_no_scipy_solvers():
    """scipy.sparse.linalg, and scipy.linalg with it, cost about 0.1 s to
    import; jno imports them only when it solves, and scipy.spatial, which
    loads scipy.linalg too, only when it locates points.  A fresh
    interpreter imports every module, builds every domain kind and its
    boundary normals, checks, then solves a Poisson problem."""
    modules = ", ".join(f"jno.{p.stem}" for p in MODULES)
    script = f"""
import importlib, sys
for name in "{modules}".split(", "):
    importlib.import_module(name)
from jno import domain as dm, fem
for make in (dm.line, dm.rect, dm.disk, dm.lshape, dm.cube,
             dm.rect_with_hole, lambda: dm.structured_rect(4, 4),
             lambda: dm.disk(0.2, 1.0, (0.3, -0.2))):
    make().normals("boundary")
loaded = [m for m in ("scipy.sparse.linalg", "scipy.linalg", "scipy.spatial")
          if m in sys.modules]
assert not loaded, loaded
import numpy as np
dom = dm.structured_rect(4, 4)
dom.init_fem(bcs=[dom.dirichlet("boundary", 0.0)])
u, phi = dom.fem_symbols()
x, y = dom.variable(fem.GAUSS_VOLUME)[:-1]
weak = u.d(x) * phi.d(x) + u.d(y) * phi.d(y) - 1.0 * phi
nodal = weak.assemble("fem_system").solve()
assert nodal.shape == (dom.mesh.num_vertices,) and nodal.max() > 0, nodal
"""
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def _imports_sparse_solvers(node):
    if isinstance(node, ast.Import):
        return any(a.name.startswith("scipy.sparse.linalg") for a in node.names)
    if isinstance(node, ast.ImportFrom):
        module = node.module or ""
        return module.startswith("scipy.sparse.linalg") or (
            module == "scipy.sparse"
            and any(a.name == "linalg" for a in node.names))
    return False


def test_one_function_imports_and_calls_the_sparse_solvers():
    """scipy.sparse.linalg is imported in one function, fem._factor, which
    makes the package's only SuperLU factorization; nothing calls spsolve."""
    importers, solver_names = [], []
    for path in MODULES:
        tree = ast.parse(path.read_text())
        # the innermost function around each node: ast.walk is breadth
        # first, so an inner function overwrites its outer one
        scope = {}
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                scope.update((node, fn.name) for node in ast.walk(fn))
        for node in ast.walk(tree):
            where = f"{path.stem}.{scope.get(node, '<module>')}"
            if _imports_sparse_solvers(node):
                importers.append(where)
            name = getattr(node, "attr", None) or getattr(node, "id", None)
            if name in ("splu", "spsolve"):
                solver_names.append((where, name))
    assert importers == ["fem._factor"]
    assert solver_names == [("fem._factor", "splu")]


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="the allocator policy is glibc's")
def test_training_steps_reuse_the_freed_heap():
    """A step of an AD-Laplacian PINN frees its tape's ~512 KiB arrays at
    once; with glibc's adaptive trim threshold the heap went back to the
    OS and the next step faulted it in again, thousands of minor faults a
    step.  A fresh interpreter runs three warm-up steps of an MLP 2-32-32-1
    loss and its parameter gradient on 2048 points, then counts the minor
    faults of five more."""
    script = """
import resource
import numpy as np
from jno import evaluator as ev, nn, tensor as T, trace as tr
x, y = tr.variable("x"), tr.variable("y")
net = nn.mlp(2, [32, 32], 1).initialize(0)
u = net(tr.concat_nodes([x, y], axis=-1))
loss = (u.dd(x) + u.dd(y) + 1.0).mse
points = np.random.default_rng(0).random((2, 1, 1, 2048, 1))

def step():
    params = list(net.trainable_params().values())
    with T.Tape() as tape:
        tape.watch(*params)
        value = ev.evaluate(loss, ev.EvalContext(
            bindings={x: points[0], y: points[1]}))
    tape.gradient(value, params)

for _ in range(3):
    step()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(5):
    step()
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 5)
"""
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert float(done.stdout) < 64
