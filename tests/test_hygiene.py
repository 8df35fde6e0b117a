"""Static checks on the package source that need no linter."""

import ast
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import mesogas

SRC = Path(mesogas.__file__).parent
TESTS = Path(__file__).parent
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def test_every_import_is_used():
    """Each name a module of the package or of the tests imports is read
    somewhere in that module.

    ``__init__.py`` is skipped: its imports are the package's re-exports;
    so is the frozen acceptance gate, ``tests/test_acceptance.py``. A name
    used only inside a quoted annotation counts as unused; with
    ``from __future__ import annotations`` no annotation needs quotes.
    """
    skipped = {SRC / "__init__.py", TESTS / "test_acceptance.py"}
    unused = []
    for path in sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py")):
        if path in skipped:
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line} {name}"
                   for name, line in _imported_names(tree) if name not in used]
    assert not unused, "unused imports: " + ", ".join(unused)


def _reference_graph(sources):
    """The module-level functions and classes of `sources`, (file name,
    text) pairs, as ("file:line", name) pairs; and a map from each name that
    a top-level statement defines to every name the statement reads.

    A read is a name or attribute loaded anywhere in the statement, bodies
    of its functions and methods included; names are not qualified by
    module. Imports read nothing, and a top-level statement that defines no
    name, such as the ``__main__`` guard, maps from None.
    """
    defined, reads = [], {}
    for where, text in sources:
        for top in ast.parse(text, filename=where).body:
            if isinstance(top, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(top, DEFINITIONS):
                defined.append((f"{where}:{top.lineno}", top.name))
                names = [top.name]
            elif isinstance(top, (ast.Assign, ast.AnnAssign)):
                targets = (top.targets if isinstance(top, ast.Assign)
                           else [top.target])
                names = [node.id for target in targets
                         for node in ast.walk(target)
                         if isinstance(node, ast.Name)]
            else:
                names = [None]
            loaded = {node.id if isinstance(node, ast.Name) else node.attr
                      for node in ast.walk(top)
                      if isinstance(node, (ast.Name, ast.Attribute))
                      and isinstance(node.ctx, ast.Load)}
            for name in names:
                reads.setdefault(name, set()).update(loaded)
    return defined, reads


def _sources(paths):
    return [(path.name, path.read_text()) for path in paths]


def test_every_definition_is_referenced():
    """Each module-level function and class of the package is referenced by
    name somewhere in the package or the tests, outside its own definition.
    """
    package = _sources(sorted(SRC.glob("*.py")))
    defined, _ = _reference_graph(package)
    _, reads = _reference_graph(package + _sources(sorted(TESTS.glob("*.py"))))
    used = set().union(*(names - {own} for own, names in reads.items()))
    unused = [f"{where} {name}" for where, name in defined if name not in used]
    assert not unused, "unreferenced definitions: " + ", ".join(unused)


def _acceptance_imports() -> set[str]:
    """Names that ``tests/test_acceptance.py`` imports from the package."""
    tree = ast.parse((TESTS / "test_acceptance.py").read_text())
    return {alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            and (node.module or "").split(".")[0] == "mesogas"
            for alias in node.names}


def _unreachable(sources) -> list[str]:
    """The definitions of `sources` that no chain of reads reaches from
    ``cli.main``, a name the acceptance gate imports, or a top-level
    statement that defines nothing. ``mesogas.__all__`` is no root: a
    public name that neither reaches is unused too."""
    defined, reads = _reference_graph(sources)
    reached = {None, "main", *_acceptance_imports()}
    todo = list(reached)
    while todo:
        for name in reads.get(todo.pop(), ()):
            if name not in reached:
                reached.add(name)
                todo.append(name)
    return [f"{where} {name}" for where, name in defined
            if name not in reached]


def test_every_definition_serves_the_package_or_the_gate():
    """Each module-level function and class of the package is reachable
    through name references from ``cli.main`` or from an import of the
    acceptance gate. A test alone does not keep a definition alive, nor
    does a listing in ``mesogas.__all__``, and neither do definitions that
    only reach each other.
    """
    unreachable = _unreachable(_sources(sorted(SRC.glob("*.py"))))
    assert not unreachable, ("definitions that neither the package nor the "
                             "gate reaches: " + ", ".join(unreachable))


def test_reachability_flags_definitions_that_only_reach_each_other():
    planted = ("planted.py", "def _ping():\n    return _pong()\n\n\n"
               "def _pong():\n    return _ping()\n")
    package = _sources(sorted(SRC.glob("*.py")))
    assert _unreachable(package + [planted]) == ["planted.py:1 _ping",
                                                 "planted.py:5 _pong"]


def _defaulted_parameters(tree):
    """(function name, parameter, position) for each defaulted parameter of
    every function and method in `tree`. The position counts the arguments
    a call passes, so a method's bound first parameter is left out; it is
    None for a keyword-only parameter.
    """
    def visit(node, in_class):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = child.args
                positional = args.posonlyargs + args.args
                bound = in_class and not any(
                    isinstance(dec, ast.Name) and dec.id == "staticmethod"
                    for dec in child.decorator_list)
                for k in range(len(positional) - len(args.defaults),
                               len(positional)):
                    yield child.name, positional[k].arg, k - bound
                for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                    if default is not None:
                        yield child.name, arg.arg, None
            yield from visit(child, isinstance(child, ast.ClassDef))
    yield from visit(tree, False)


def _sets(call, name, position):
    """Whether `call` passes the parameter, by keyword or by position; a
    ``**mapping`` passes every parameter and a ``*sequence`` every position
    from its own on."""
    if any(kw.arg in (name, None) for kw in call.keywords):
        return True
    if position is None:
        return False
    for k, arg in enumerate(call.args):
        if isinstance(arg, ast.Starred):
            return k <= position
    return len(call.args) > position


def test_every_defaulted_parameter_is_set_somewhere():
    """Each defaulted parameter of a function or method of the package is
    set by some call, in the package, the acceptance gate or the benchmark
    harness, to a function of that name. A default that no such call
    overrides is a constant, and belongs where the value is used.
    """
    callers = (sorted(SRC.glob("*.py")) + [TESTS / "test_acceptance.py"]
               + sorted((TESTS.parent / "perfbench").glob("*.py")))
    calls = {}
    for path in callers:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Call):
                func = node.func
                name = (func.id if isinstance(func, ast.Name) else
                        func.attr if isinstance(func, ast.Attribute) else None)
                calls.setdefault(name, []).append(node)
    unset = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        unset += [f"{path.name} {func}({param})"
                  for func, param, position in _defaulted_parameters(tree)
                  if not any(_sets(call, param, position)
                             for call in calls.get(func, ()))]
    assert not unset, "defaulted parameters no caller sets: " + ", ".join(
        unset)


def test_every_exported_name_resolves():
    missing = [name for name in mesogas.__all__ if not hasattr(mesogas, name)]
    assert not missing, "__all__ names missing from mesogas: " + ", ".join(
        missing)


def test_cli_import_leaves_scipy_integrate_unloaded():
    """Importing the CLI does not load scipy.integrate: only
    ``coulomb.sphere_average`` needs ``quad``, and it imports it when
    called."""
    script = ("import mesogas.cli, sys; "
              "sys.exit('scipy.integrate' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr or "scipy.integrate was loaded"


# scipy packages whose __init__ the package never runs: it loads the
# compiled modules it calls with kernels._scipy_extension
UNLOADED_SCIPY = ("scipy.fft", "scipy.special", "scipy._lib._array_api",
                  "scipy.optimize", "scipy.spatial", "scipy.sparse",
                  "scipy.linalg", "scipy.integrate")


def test_lp_stack_loads_only_for_a_config_that_solves_a_bl_lp(tmp_path):
    """After the imports of the benchmark's worker and the load of an
    energy-ball config with no construction section, none of scipy's LP
    stack is loaded; loading a BL config loads it. Neither load, nor the
    imports, runs the ``__init__`` of a scipy package in
    ``UNLOADED_SCIPY``."""
    energy = {"grid": {"N": [16], "gamma": [0.5], "lambda": [0.05]},
              "ball": {"type": "energy"}, "rate": {"functional": "t"}}
    bl = {**energy, "ball": {"type": "bl"}}
    paths = []
    for name, obj in (("energy", energy), ("bl", bl)):
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps(obj))
    script = textwrap.dedent(f"""
        import sys
        from mesogas import (cli, construction, coulomb, equilibrium,
                             grids, kernels, rates, sampler)

        def check(stage):
            loaded = [m for m in {UNLOADED_SCIPY!r} if m in sys.modules]
            if loaded:
                sys.exit(f"{{stage}} loaded {{loaded}}")

        check("the imports")
        cli.load_config(sys.argv[1])
        check("the energy config")
        lp = [m for m in ("scipy.optimize._highspy._core",
                          "scipy.spatial._distance_pybind")
              if m in sys.modules]
        if lp:
            sys.exit(f"the energy config loaded {{lp}}")
        cli.load_config(sys.argv[2])
        check("the BL config")
        if "scipy.optimize._highspy._core" not in sys.modules:
            sys.exit("the BL config left scipy's HiGHS binding unloaded")
        """)
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    proc = subprocess.run([sys.executable, "-c", script, *map(str, paths)],
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_scipy_imports_after_the_package_reuse_its_compiled_modules():
    """With the package and its LP stack loaded first, ``import scipy.fft``
    and ``from scipy.optimize import linprog`` reuse the compiled modules
    that ``kernels._scipy_extension`` registered, and both still work."""
    script = textwrap.dedent("""
        import sys
        import numpy as np
        from mesogas import grids
        grids._lp_stack()
        names = ("scipy.fft._pocketfft.pypocketfft",
                 "scipy.optimize._highspy._core",
                 "scipy.spatial._distance_pybind")
        ours = [sys.modules[name] for name in names]
        import scipy.fft
        from scipy.optimize import linprog
        from scipy.spatial.distance import cdist
        from scipy.fft._pocketfft import basic
        from scipy.optimize._highspy import _highs_wrapper
        from scipy.spatial import distance
        if [sys.modules[name] for name in names] != ours:
            sys.exit("a scipy import replaced a registered module")
        if not (basic.pfft is ours[0] and _highs_wrapper._h is ours[1]
                and distance._distance_pybind is ours[2]):
            sys.exit("scipy holds a second copy of a compiled module")
        x = np.arange(8.0)
        if not np.allclose(scipy.fft.irfft(scipy.fft.rfft(x), n=8), x):
            sys.exit("scipy.fft round trip failed")
        res = linprog([1.0, 2.0], A_ub=[[-1.0, -1.0]], b_ub=[-1.0])
        if not (res.status == 0 and abs(res.fun - 1.0) < 1e-12):
            sys.exit(f"linprog failed: {res}")
        if cdist([[0.0, 0.0]], [[3.0, 4.0]])[0, 0] != 5.0:
            sys.exit("cdist failed")
        """)
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def _references(tree):
    """(top-level definition or None, dotted name) for every import, name
    and attribute chain of a module's code; docstrings do not count."""
    def dotted(node):
        if isinstance(node, ast.Name):
            return node.id
        if isinstance(node, ast.Attribute):
            base = dotted(node.value)
            return node.attr if base is None else f"{base}.{node.attr}"
        return None
    for top in tree.body:
        owner = top.name if isinstance(top, DEFINITIONS) else None
        for node in ast.walk(top):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    yield owner, alias.name
            elif isinstance(node, ast.ImportFrom):
                for alias in node.names:
                    yield owner, f"{node.module}.{alias.name}"
            elif isinstance(node, (ast.Name, ast.Attribute)):
                yield owner, dotted(node)


def test_the_lp_stack_is_scipys_highs_binding_alone():
    """``bl_distance`` hands its LP to HiGHS directly: scipy's private
    binding, ``scipy.optimize._highspy``, is named in ``grids._lp_stack``
    alone, and no code in the package names ``linprog`` or
    ``scipy.sparse``, so no second path to the solver survives."""
    stray = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for owner, name in _references(tree):
            parts = name.split(".")
            where = f"{path.name}:{owner or '<module>'}: {name}"
            if "_highspy" in parts and (path.name, owner) != ("grids.py",
                                                               "_lp_stack"):
                stray.append(where)
            if "linprog" in parts or ".".join(parts[:2]) == "scipy.sparse":
                stray.append(where)
    assert not stray, "LP stack named outside grids._lp_stack: " + \
        ", ".join(stray)


def test_scipys_fft_and_distance_bindings_have_what_the_package_calls():
    """``pypocketfft`` and ``_distance_pybind`` are private to scipy; if an
    upgrade moves what ``GridKernel`` or ``bl_distance`` calls, this names
    what is gone."""
    from mesogas.kernels import _scipy_extension
    wanted = {"scipy.fft._pocketfft.pypocketfft": ("good_size", "r2c",
                                                   "c2c", "c2r"),
              "scipy.spatial._distance_pybind": ("cdist_euclidean",)}
    missing = [f"{name}.{attr}" for name, attrs in wanted.items()
               for attr in attrs
               if not callable(getattr(_scipy_extension(name), attr, None))]
    assert not missing, "scipy lacks what the package calls: " + ", ".join(
        missing)


def test_scipys_highs_binding_has_what_bl_distance_uses():
    """``scipy.optimize._highspy._core`` is private to scipy; if an upgrade
    moves what ``bl_distance`` reads from it, this names what is gone."""
    from mesogas.grids import _lp_stack
    highs, _ = _lp_stack()
    used = ["simplex_constants.SimplexStrategy.kSimplexStrategyDual",
            "HighsStatus.kOk", "HighsStatus.kOk.name",
            "MatrixFormat.kColwise", "ObjSense.kMinimize", "kHighsInf",
            "HighsModelStatus.kOptimal", "HighsInfo.objective_function_value",
            *(f"_Highs.{m}" for m in ("setOptionValue", "passModel", "run",
                                      "getModelStatus", "modelStatusToString",
                                      "getInfo"))]

    def resolves(dotted):
        root = highs
        for part in dotted.split("."):
            if not hasattr(root, part):
                return False
            root = getattr(root, part)
        return True
    missing = [name for name in used if not resolves(name)]
    assert not missing, (
        "scipy.optimize._highspy._core lacks what bl_distance uses: "
        + ", ".join(missing))
