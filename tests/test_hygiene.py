"""Source hygiene: every name a module imports is used in that module,
every module-level name of the package is named somewhere else (and not
only by the tests), every class member is read by the package or the
benchmark, every parameter is read by some implementation, and every name
the benchmark's tracer patches still exists; the calibration still calls
the two it times through those names, and every vertex body's LMO is
traced; importing any of its modules loads no scipy."""

import ast
import os
import subprocess
import sys
import types
from collections import defaultdict
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "dperm"
# ``__init__.py`` imports names only to re-export them.
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
# Every file that may name a package definition.
READERS = sorted(p for d in ("src", "tests", "perfbench") for p in (ROOT / d).rglob("*.py"))
# The files a run reaches: the package, its CLI and the benchmark.
RUN_READERS = [p for p in READERS if not p.is_relative_to(ROOT / "tests")]


def unused_imports(tree: ast.Module) -> list[str]:
    """Names bound by an import and never read in the scope of that import.

    A module-level import may be read anywhere in the module; an import
    inside a function only within that function.  ``__future__`` imports
    are directives, not bindings.
    """
    scopes = [tree] + [node for node in ast.walk(tree)
                       if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
    unused = []
    for scope in scopes:
        imports = [node for node in _own_nodes(scope)
                   if isinstance(node, (ast.Import, ast.ImportFrom))]
        used = {node.id for node in ast.walk(scope)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for node in imports:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                if name not in used:
                    unused.append(f"{name} (line {node.lineno})")
    return unused


def _own_nodes(scope: ast.AST):
    """The descendants of ``scope``, without entering nested functions."""
    for child in ast.iter_child_nodes(scope):
        yield child
        if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _own_nodes(child)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(ast.parse(path.read_text(), filename=str(path))) == []


def test_scan_sees_function_scope():
    tree = ast.parse(
        "import math\n"
        "from os import path\n"
        "def f():\n"
        "    from json import dumps, loads\n"
        "    return dumps(math.pi)\n"
        "def g():\n"
        "    return loads\n"
    )
    assert unused_imports(tree) == ["path (line 2)", "loads (line 4)"]


def module_definitions(tree: ast.Module) -> dict[str, ast.AST]:
    """The functions, classes and assigned names at module level, by name
    (dunder names such as ``__all__`` excluded)."""
    defs = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defs[node.name] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    defs[target.id] = node
    return {name: node for name, node in defs.items() if not name.startswith("__")}


def named(tree: ast.AST, skip: ast.AST | None = None) -> set[str]:
    """Every name read in ``tree`` outside the subtree ``skip``: variables,
    attributes, imported names and identifier strings (``getattr`` and
    ``setattr`` take a name as a string)."""
    out = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name.split(".")[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and node.value.isidentifier():
            out.add(node.value)
        stack.extend(ast.iter_child_nodes(node))
    return out


def unreferenced(modules: dict[str, ast.Module], readers: list[ast.Module]) -> list[str]:
    """``module.name`` for each definition of ``modules`` that no other
    reader names, nor its own module outside the definition."""
    names = [(tree, named(tree)) for tree in readers]
    out = []
    for module, tree in modules.items():
        elsewhere = set().union(*(seen for t, seen in names if t is not tree))
        for name, node in module_definitions(tree).items():
            if name not in elsewhere and name not in named(tree, skip=node):
                out.append(f"{module}.{name}")
    return out


def package_unreferenced(readers: list[Path]) -> list[str]:
    """``unreferenced`` for the package's modules, read by ``readers``."""
    trees = {path: ast.parse(path.read_text(), filename=str(path)) for path in readers}
    modules = {path.stem: trees[path] for path in MODULES}
    return unreferenced(modules, list(trees.values()))


def test_every_definition_is_named_elsewhere():
    assert package_unreferenced(READERS) == []


def test_no_definition_is_named_only_by_the_tests():
    # Code that only the tests call belongs in ``tests/reference.py``.
    assert package_unreferenced(RUN_READERS) == []


def test_definition_scan_ignores_self_reference():
    mod = ast.parse(
        "LIMIT = 3\n"
        "_TABLE = {}\n"
        "def walk(n):\n"
        "    return walk(n - 1) if n else LIMIT\n"
        "def used(): pass\n"
        "def by_string(): pass\n"
        "class Shape: pass\n"
    )
    reader = ast.parse(
        "from pkg.mod import used\n"
        "import pkg.mod as m\n"
        "m.Shape\n"
        "getattr(m, 'by_string')\n"
    )
    assert unreferenced({"mod": mod}, [mod, reader]) == ["mod._TABLE", "mod.walk"]


def class_members(tree: ast.Module):
    """(class, member, node) for each method, property and annotated field
    of the module's classes (dunder methods excluded)."""
    for cls in tree.body:
        if not isinstance(cls, ast.ClassDef):
            continue
        for node in cls.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = node.name
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                name = node.target.id
            else:
                continue
            if not name.startswith("__"):
                yield cls.name, name, node


def unread_members(modules: dict[str, ast.Module], readers: list[ast.Module]) -> list[str]:
    """``module.Class.member`` for each member of a class in ``modules``
    whose name no reader names, nor its own module outside the member."""
    names = [(tree, named(tree)) for tree in readers]
    out = []
    for module, tree in modules.items():
        elsewhere = set().union(*(seen for t, seen in names if t is not tree))
        for cls, name, node in class_members(tree):
            if name not in elsewhere and name not in named(tree, skip=node):
                out.append(f"{module}.{cls}.{name}")
    return out


def test_every_class_member_is_read_by_a_run():
    """Members that only the tests read belong in ``tests/reference.py``.

    The scan goes by name, so a member is kept by any read of its name:
    it cannot see one that shares its name with a member that is read.
    ``Potential.value``, ``Potential.grad`` and ``LossSpec.grad_single``
    were found by reading the code, not by this scan.
    """
    trees = {path: ast.parse(path.read_text(), filename=str(path)) for path in RUN_READERS}
    modules = {path.stem: trees[path] for path in MODULES}
    assert unread_members(modules, list(trees.values())) == []


def test_member_scan_ignores_self_reference():
    mod = ast.parse(
        "class Shape:\n"
        "    size: int\n"
        "    is_open = False\n"
        "    def __post_init__(self): pass\n"
        "    def area(self):\n"
        "        return self.area() if self.size else 0\n"
        "    @property\n"
        "    def corners(self): return self.size\n"
        "    def scale(self): pass\n"
        "    def _drawn(self): pass\n"
        "def draw(shape):\n"
        "    return shape._drawn()\n"
    )
    reader = ast.parse("getattr(shape, 'scale')\n")
    assert unread_members({"mod": mod}, [mod, reader]) == ["mod.Shape.area",
                                                          "mod.Shape.corners"]


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def unread_parameters(modules: dict[str, ast.Module]) -> list[str]:
    """``Class.method(param)`` for each parameter that no implementation of
    a method of that name, across the classes of ``modules``, reads, and
    ``module.function(param)`` for each parameter that a module function
    never reads.

    Implementations are matched by position (a method's first parameter,
    ``self`` or ``cls``, dropped), keyword-only parameters by name;
    ``*args`` and ``**kwargs`` are not checked.  A read is any load of the
    name in the body, nested functions and lambdas included.
    """
    groups = defaultdict(list)  # name -> [(owner, positional, keyword-only, names read)]
    for module, tree in modules.items():
        for node in tree.body:
            if isinstance(node, FUNCTIONS):
                groups[f"{module}.{node.name}"].append((module, *_signature(node)))
            elif isinstance(node, ast.ClassDef):
                for fn in node.body:
                    if isinstance(fn, FUNCTIONS):
                        positional, keyword, read = _signature(fn)
                        groups[fn.name].append((node.name, positional[1:], keyword, read))
    out = []
    for name, impls in groups.items():
        slots = defaultdict(list)  # position or keyword name -> [(owner, param, is read)]
        for owner, positional, keyword, read in impls:
            for slot, arg in [*enumerate(positional), *((a, a) for a in keyword)]:
                slots[slot].append((owner, arg, arg in read))
        for entries in slots.values():
            if not any(is_read for _, _, is_read in entries):
                owner, arg, _ = entries[0]
                label = name if "." in name else f"{owner}.{name}"
                out.append(f"{label}({arg})")
    return out


def _signature(fn) -> tuple[list[str], list[str], set[str]]:
    # (positional parameters, keyword-only parameters, names loaded in the body)
    args = fn.args
    read = {n.id for stmt in fn.body for n in ast.walk(stmt)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return [a.arg for a in args.posonlyargs + args.args], [a.arg for a in args.kwonlyargs], read


def test_every_parameter_is_read():
    """A parameter that no implementation reads is a value the callers
    compute and pass for nothing."""
    modules = {path.stem: ast.parse(path.read_text(), filename=str(path))
               for path in MODULES}
    assert unread_parameters(modules) == []


def test_parameter_scan_groups_methods_by_name():
    mod = ast.parse(
        "class Shape:\n"
        "    def fit(self, body, data):\n"
        "        raise NotImplementedError\n"
        "class Ball(Shape):\n"
        "    def fit(self, region, rows):\n"
        "        return lambda: region\n"
        "def draw(shape, scale, *rest, colour, **style):\n"
        "    return scale\n"
    )
    assert unread_parameters({"mod": mod}) == ["Shape.fit(data)", "mod.draw(shape)",
                                               "mod.draw(colour)"]


def load_spans() -> types.ModuleType:
    """``perfbench/spans.py``, executed from its text, so nothing is
    written next to it."""
    path = ROOT / "perfbench" / "spans.py"
    spans = types.ModuleType("perfbench_spans")
    exec(compile(path.read_text(), str(path), "exec"), spans.__dict__)
    return spans


def test_benchmark_tracer_names_exist():
    # ``perfbench/spans.py`` patches functions by module and class
    # attribute; a name moved or removed by a refactor raises KeyError.
    tracer = load_spans().Tracer()
    try:
        tracer.install()
    finally:
        tracer.uninstall()


def test_benchmark_tracer_sees_the_calibration(monkeypatch):
    # The tracer patches ``resolve_defaults`` and ``gaussian_width_mc`` where
    # ``solvers`` looks them up; a refactor that reaches them another way
    # would leave their per-layer metrics at 0 without any error.  The l1
    # and l2 balls take closed-form widths, so only the polytope reaches
    # the Monte Carlo.
    import numpy as np

    import dperm.geometry as geometry
    import dperm.harness as harness
    from dperm.geometry import L1Ball, L2Ball, Polytope
    from dperm.harness import generate_lasso
    from dperm.losses import SquaredError
    from dperm.potentials import SquaredL2
    from dperm.privacy import PrivacyBudget
    from dperm.solvers import ALGORITHMS, SolverConfig

    monkeypatch.setattr(geometry, "_body_memo", geometry.Memo())  # as in a fresh process
    data = generate_lasso(n=2000, p=8, sparsity=3, noise_level=0.1, seed=3)
    tracer = load_spans().Tracer()
    tracer.install()
    try:
        for algorithm in ALGORITHMS:
            sc = algorithm == "strongly_convex_md"
            harness.run_solver(SolverConfig(
                algorithm=algorithm, body=L2Ball(1.0, 8) if sc else L1Ball(1.0, 8),
                loss=SquaredError(ridge=0.5 if sc else 0.0), budget=PrivacyBudget(1.0),
                potential=SquaredL2() if algorithm.endswith("_md") else None,
                **({} if algorithm == "obj_pert" else {"t_cap": 20})), data)
        closed_form = tracer.layer_metrics()
        harness.run_solver(SolverConfig(
            algorithm="fw_general", body=Polytope(np.vstack([np.eye(8), -0.5 * np.eye(8)])),
            loss=SquaredError(), budget=PrivacyBudget(1.0), t_cap=20), data)
    finally:
        tracer.uninstall()
    assert closed_form["solvers.resolve_defaults.s"] > 0
    assert closed_form["geometry.gaussian_width_mc.calls"] == 0
    assert tracer.layer_metrics()["geometry.gaussian_width_mc.calls"] >= 1


def test_benchmark_tracer_sees_each_vertex_lmo():
    # The tracer wraps ``lmo`` only on the classes that hold it themselves;
    # an ``lmo`` inherited from a shared base class would leave
    # ``geometry.lmo.calls`` at 0 without any error.
    import numpy as np

    from dperm.geometry import L1Ball, Polytope, Simplex

    tracer = load_spans().Tracer()
    tracer.install()
    try:
        for body in (L1Ball(1.0, 3), Simplex(3), Polytope(np.eye(3))):
            body.lmo(np.array([0.5, -1.0, 0.25]))
    finally:
        tracer.uninstall()
    assert tracer.layer_metrics()["geometry.lmo.calls"] == 3


def test_import_loads_no_scipy():
    # Only ``Polytope.contains`` imports scipy, its ``linprog``, when it runs
    # on a point from outside a run (no run calls it), so importing every
    # module loads none.  ``dperm`` itself imports none of its modules.
    code = ("import importlib, sys\n"
            f"for name in {[path.stem for path in MODULES]!r}:\n"
            "    importlib.import_module('dperm.' + name)\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "[]"


# One scored cell of each (algorithm, body kind, potential kind) that the
# benchmark's workloads run, at the smallest n and the first seed of a sweep
# that has it, and of every other valid one over six bodies at p = 6; prints
# the cell count, the failures and the scipy modules then loaded.
WORKLOAD_CELLS = """
import sys, warnings
sys.path.insert(0, 'perfbench')
from workloads import WORKLOADS
from dperm.harness import ExperimentSpec, _dataset_for, score_cell
from dperm.solvers import ALGORITHMS, SolverConfig

cells = {}
for make in WORKLOADS.values():
    for sweep in make(7):
        for doc in sweep['solvers']:
            key = (doc['algorithm'], doc['body']['kind'], (doc.get('potential') or {}).get('kind'))
            n = min(sweep['n_sweep'])
            if key not in cells or n < cells[key][0]:
                cells[key] = (n, doc, sweep)
p = 6
eye = [[float(i == j) for j in range(p)] for i in range(p)]
bodies = [{'kind': 'l2_ball', 'radius': 1.0, 'dimension': p},
          {'kind': 'l1_ball', 'radius': 1.0, 'dimension': p},
          {'kind': 'simplex', 'dimension': p},
          {'kind': 'polytope', 'vertices': eye + [[-v for v in row] for row in eye]},
          {'kind': 'grouped_l1_ball', 'radius': 1.0, 'group_size': 2, 'dimension': p},
          {'kind': 'box', 'lo': [-1.0] * p, 'hi': [1.0] * p}]
potentials = [{'kind': 'squared_l2'}, {'kind': 'negative_entropy'},
              {'kind': 'polytope_q_norm'}, {'kind': 'grouped_l1', 'group_size': 2}]
small = {'seeds': [0],
         'dataset': {'generator': {'p': p, 'sparsity': 2, 'noise_level': 0.1, 'nonneg': True}}}
for algorithm in ALGORITHMS:
    for body in bodies:
        for potential in potentials if algorithm.endswith('_md') else [None]:
            key = (algorithm, body['kind'], (potential or {}).get('kind'))
            ridge = 0.5 if algorithm == 'strongly_convex_md' else 0.0
            doc = {'id': '_'.join(map(str, key)), 'algorithm': algorithm, 'body': body,
                   'potential': potential, 'loss': {'kind': 'squared_error', 'ridge': ridge},
                   'budget': {'epsilon': 1.0, 'delta': 1e-6},
                   **({} if algorithm == 'obj_pert' else {'T': 30})}
            try:
                SolverConfig.from_dict(doc)
            except ValueError:
                continue  # not a valid pair
            cells.setdefault(key, (200, doc, small))
failed = []
for key, (n, doc, sweep) in sorted(cells.items(), key=str):
    spec = ExperimentSpec(solvers=[doc], n_sweep=[n], seeds=sweep['seeds'][:1],
                          dataset=sweep['dataset'])
    with warnings.catch_warnings():
        warnings.simplefilter('ignore')  # the capped box instance warns by design
        try:
            score_cell(SolverConfig.from_dict({**doc, 'seed': spec.seeds[0]}),
                       _dataset_for(spec, n))
        except Exception as exc:
            failed.append((key, str(exc)))
print(len(cells), failed)
print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))
"""


def test_workload_cells_load_no_scipy():
    # Mirror steps root their multipliers with the package's own Brent, and
    # every run on a polytope, of any algorithm, is checked on its vertex
    # coefficients, not by ``Polytope.contains``'s linear program: no valid
    # cell imports scipy.
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run([sys.executable, "-c", WORKLOAD_CELLS], env=env, cwd=ROOT,
                         capture_output=True, text=True, check=True)
    count, modules = out.stdout.strip().splitlines()
    assert count == "31 []"
    assert modules == "[]"
