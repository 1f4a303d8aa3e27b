import ast
import dataclasses
import importlib
import inspect
import os
import pkgutil
import re
import subprocess
import sys
from importlib.machinery import PathFinder
from pathlib import Path

import numpy as np
import pytest

import dne

# the solver's stopping policy and start values belong to dne.elliptic alone
FORBIDDEN = {"tolerance", "max_iterations", "initial_guess"}
# values no caller sets are module constants of checks, io_utils and operators
FIXED = {"hopf_floor", "corner_cells", "burn_in", "tol", "r_norms", "threshold",
         "sample_count"}


def public_callables():
    """Every public function, class and public method defined in a dne module."""
    modules = [dne] + [importlib.import_module(f"dne.{info.name}")
                       for info in pkgutil.iter_modules(dne.__path__)
                       if not info.name.startswith("_")]
    seen = {}
    for module in modules:
        for name, obj in vars(module).items():
            if name.startswith("_") or not callable(obj):
                continue
            if not getattr(obj, "__module__", "").startswith("dne"):
                continue
            seen[f"{obj.__module__}.{obj.__qualname__}"] = obj
            if inspect.isclass(obj):
                for attr, member in inspect.getmembers(obj, callable):
                    if not attr.startswith("_"):
                        seen[f"{obj.__module__}.{obj.__qualname__}.{attr}"] = member
    return seen


def test_walk_covers_the_solve_api():
    names = public_callables()
    for name in ("dne.elliptic.solve", "dne.elliptic.solve_stationary",
                 "dne.evolution.EvolutionSetup", "dne.checks.check_contraction_elliptic",
                 "dne.scenario.Scenario"):
        assert name in names


def offending_parameters(forbidden):
    offenders = []
    for name, obj in public_callables().items():
        try:
            params = inspect.signature(obj).parameters
        except (TypeError, ValueError):
            continue
        offenders += [f"{name}({p})" for p in params if p in forbidden]
    return offenders


def test_no_stopping_policy_or_start_overrides():
    assert offending_parameters(FORBIDDEN) == []


def test_no_fixed_knobs():
    assert offending_parameters(FIXED) == []


def test_operator_evaluations_take_every_point():
    # the operator enters the energy only through its values at every
    # quadrature point: no evaluation takes a point index, and a gradient
    # array without a points axis is rejected, not broadcast
    from dne.operators import eval_A, eval_flux, eval_source
    for f in (eval_A, eval_flux):
        assert list(inspect.signature(f).parameters) == ["op", "xi"]
    assert list(inspect.signature(eval_source).parameters) == ["src", "s"]
    op = dne.LerayLionsOperator.isotropic(dne.ExponentField.constant(4, 2.5), 1.0, ndim=2)
    for f in (eval_A, eval_flux):
        assert f(op, np.ones((3, 4, 2))).shape[:2] == (3, 4)
        for xi in (np.ones((1, 2)), np.ones(2), np.ones((4, 3))):
            with pytest.raises(ValueError):
                f(op, xi)
    src = dne.SourceTerm(np.ones(4), np.ones(4), gamma=0.0, beta=0.1)
    assert eval_source(src, np.ones((3, 4))).shape == (3, 4)
    for s in (np.ones(1), 1.0):
        with pytest.raises(ValueError):
            eval_source(src, s)


def test_no_positive_part_flag():
    # a contraction check takes the positive parts of its one difference itself
    assert offending_parameters({"positive_part"}) == []


def dne_imports(module_name):
    """The dne modules, relative or absolute, that a module's source imports."""
    tree = ast.parse(inspect.getsource(importlib.import_module(module_name)))
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            target = "." * node.level + (node.module or "")
            if node.level or target.split(".")[0] == "dne":
                found.add(target)
        elif isinstance(node, ast.Import):
            found |= {a.name for a in node.names if a.name.split(".")[0] == "dne"}
    return found


@pytest.mark.parametrize("module_name", ["dne.meshing", "dne.operators"])
def test_base_layers_import_no_dne_module(module_name):
    # meshes and operators are the two bottom layers: the energy's integrals
    # live in dne.elliptic, which reads both
    assert dne_imports(module_name) == set()


# each value object has one constructor that derives what it caches
SECOND_CONSTRUCTORS = {"create", "from_values", "from_blocks"}


def test_no_second_constructors():
    offenders = [name for name in public_callables()
                 if name.rsplit(".", 1)[-1] in SECOND_CONSTRUCTORS]
    assert offenders == []


def test_scenario_constructs_no_validation_error():
    # every hypothesis is checked by the object that holds its inputs; the
    # scenario loader only re-exports the error
    tree = ast.parse(inspect.getsource(importlib.import_module("dne.scenario")))
    raised = [node.lineno for node in ast.walk(tree)
              if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "ValidationError"]
    assert raised == []
    assert dne.scenario.ValidationError is dne.operators.ValidationError
    assert dne.ValidationError is dne.operators.ValidationError


def test_one_error_type_per_failure_kind():
    # a malformed file is a ParseError, a violated hypothesis a ValidationError
    # naming its tag and a failed solve NonConvergence, each of which `dne`
    # reports and exits 2 on; any other failure is a plain ValueError
    defined = {f"{module}.{name}" for module in module_trees() if module != "dne.__main__"
               for name, obj in vars(importlib.import_module(module)).items()
               if inspect.isclass(obj) and issubclass(obj, BaseException)
               and obj.__module__ == module}
    assert defined == {"dne.scenario.ParseError", "dne.operators.ValidationError",
                       "dne.elliptic.NonConvergence"}


def scipy_imports(module_name):
    """The (module, name) pairs a module's source imports from scipy; a plain
    `import` gives the name None."""
    tree = ast.parse(inspect.getsource(importlib.import_module(module_name)))
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("scipy"):
            found |= {(node.module, a.name) for a in node.names}
        elif isinstance(node, ast.Import):
            found |= {(a.name, None) for a in node.names if a.name.startswith("scipy")}
    return found


def test_one_newton_solve_path():
    # the Newton systems are symmetric: LAPACK's banded Cholesky (and its
    # tridiagonal form), scipy's own routines called directly, with no LU or
    # sparse path beside it
    import scipy.linalg.lapack
    assert dne.elliptic.dpbsv is scipy.linalg.lapack.dpbsv
    assert dne.elliptic.dptsv is scipy.linalg.lapack.dptsv
    imports = scipy_imports("dne.elliptic")
    names = {name for _, name in imports}
    assert not names & {"solve_banded", "dgbsv", "lu_factor", "lu_solve", "lu", "solve"}
    assert not any(module.startswith("scipy.sparse") for module, _ in imports)


# `import dne` loads LAPACK without importing scipy or scipy.linalg as
# packages, and numpy.polynomial not at all, and the routines stay scipy's own
# whichever of the two is imported first; a fresh interpreter, since the tests
# import scipy
IMPORT_PROBES = {
    "dne first": """
import sys
import dne.cli, dne.scenario
dne.scenario.load_scenario("configs/default_1d.cfg")
assert "scipy.linalg" not in sys.modules, "scipy.linalg"
assert "scipy.sparse" not in sys.modules, "scipy.sparse"
assert "scipy" not in sys.modules, "scipy"
assert "numpy.polynomial" not in sys.modules, "numpy.polynomial"
assert "numpy.random" not in sys.modules, "numpy.random"
assert "scipy.linalg._flapack" in sys.modules, "scipy.linalg._flapack"
import scipy.linalg.lapack as lapack, scipy.sparse.linalg
assert dne.elliptic.dpbsv is lapack.dpbsv and dne.elliptic.dptsv is lapack.dptsv
""",
    "scipy.linalg first": """
import scipy.linalg.lapack as lapack
import dne.cli
assert dne.elliptic.dpbsv is lapack.dpbsv and dne.elliptic.dptsv is lapack.dptsv
""",
}


def run_probe(code, *args):
    """Run `code` in a fresh interpreter at the repository root, with `dne`
    importable; fails the test with its stderr if it fails."""
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"),
                                                     env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code, *map(str, args)], cwd=root,
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("order", list(IMPORT_PROBES))
def test_lapack_loads_without_scipy_linalg(order):
    run_probe(IMPORT_PROBES[order])


def test_default_verify_never_loads_numpy_random(tmp_path):
    # no check draws, so a whole default suite runs without the module
    run_probe("""
import sys
import dne.cli
assert dne.cli.main(["verify", "--config", "configs/default_1d.cfg",
                     "--out", sys.argv[1]]) == 0
assert "numpy.random" not in sys.modules, "numpy.random"
""", tmp_path / "o")


def test_lapack_load_names_a_moved_module(monkeypatch):
    # scipy >= 1.10 ships `scipy.linalg._flapack`; if a release moves it,
    # `import dne` says so instead of failing on a missing spec
    import scipy
    monkeypatch.delitem(sys.modules, "scipy.linalg._flapack")
    find_spec = PathFinder.find_spec
    monkeypatch.setattr(PathFinder, "find_spec", staticmethod(
        lambda name, path=None, target=None:
        None if name == "scipy.linalg._flapack" else find_spec(name, path, target)))
    with pytest.raises(ImportError, match=re.escape(
            f"scipy.linalg._flapack not found in scipy {scipy.__version__}")):
        dne.elliptic._banded_solvers()


def module_trees():
    """The parsed source of every dne module but the package's re-exports."""
    package = Path(dne.__file__).parent
    return {f"dne.{path.stem}": ast.parse(path.read_text())
            for path in sorted(package.glob("*.py")) if path.name != "__init__.py"}


def resolve(module_name, node):
    """The dne module an `import ... from` statement reads from, or None."""
    if node.level:
        base = module_name.rsplit(".", node.level)[0]
        return f"{base}.{node.module}" if node.module else base
    module = node.module or ""
    return module if module.split(".")[0] == "dne" else None


def statement_uses(module_name, tree, modules):
    """For each top-level statement of a module, the (module, name) pairs it
    uses: names it imports from a dne module, attributes it reads off a dne
    module imported by name (`ck.check_picone`), and names it loads.  An
    attribute of any other object (`report.energy`) is no use."""
    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and resolve(module_name, node):
            source = resolve(module_name, node)
            aliases.update({a.asname or a.name: f"{source}.{a.name}"
                            for a in node.names if f"{source}.{a.name}" in modules})
    for statement in tree.body:
        uses = set()
        for node in ast.walk(statement):
            if isinstance(node, ast.ImportFrom) and resolve(module_name, node):
                uses |= {(resolve(module_name, node), a.name) for a in node.names}
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in aliases):
                uses.add((aliases[node.value.id], node.attr))
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                uses.add((module_name, node.id))
        yield statement, uses


def test_every_public_function_has_a_library_caller():
    # the library holds what a command runs: a function that only tests, or
    # only other such functions, call belongs with the tests
    statements = []
    trees = module_trees()
    for module, tree in trees.items():
        for statement, uses in statement_uses(module, tree, trees):
            owner = ((module, statement.name)
                     if isinstance(statement, ast.FunctionDef) else None)
            statements.append((owner, uses - {owner}))
    public = {owner for owner, _ in statements
              if owner and not owner[1].startswith("_")}
    dead = set()
    while True:
        used = set().union(*(uses for owner, uses in statements if owner not in dead))
        if public - used == dead:
            break
        dead = public - used
    assert not dead, "no library caller: " + ", ".join(
        sorted(f"{module}.{name}" for module, name in dead))


def test_only_elliptic_names_the_cold_start():
    # `solve` starts from bump_seed when its caller passes no guess, so no
    # other module chooses or builds that start
    package = Path(dne.__file__).parent
    offenders = []
    for path in sorted(package.glob("*.py")):
        if path.stem == "elliptic":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            names = ({a.name for a in node.names} if isinstance(node, ast.ImportFrom)
                     else {node.id} if isinstance(node, ast.Name)
                     else {node.attr} if isinstance(node, ast.Attribute) else set())
            if "bump_seed" in names:
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


def test_only_io_utils_writes_files():
    # every output file goes through `io_utils.atomic_open`, the one owner of
    # the temporary file, the rename and the cleanup: no other module imports
    # tempfile or json, calls os.replace or a pathlib write, or opens a file
    # in a write mode
    package = Path(dne.__file__).parent
    offenders = []
    for path in sorted(package.glob("*.py")):
        if path.stem == "io_utils":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                bad = any(a.name.split(".")[0] in ("tempfile", "json") for a in node.names)
            elif isinstance(node, ast.ImportFrom):
                bad = node.module in ("tempfile", "json") or (
                    node.module == "os" and any(a.name == "replace" for a in node.names))
            elif isinstance(node, ast.Attribute):
                bad = node.attr in ("write_text", "write_bytes") or (
                    node.attr == "replace" and getattr(node.value, "id", None) == "os")
            elif isinstance(node, ast.Call) and {"open", "fdopen"} & {
                    getattr(node.func, "id", None), getattr(node.func, "attr", None)}:
                mode = (node.args[1:2] + [k.value for k in node.keywords
                                          if k.arg == "mode"] or [ast.Constant("r")])[0]
                bad = not (isinstance(mode, ast.Constant) and set(mode.value) <= set("rbt"))
            else:
                bad = False
            if bad:
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


def test_no_module_names_a_random_number_source():
    # the checks enumerate their locations and the tests own their draws
    # (`oracles.seeded_rng`): no module imports numpy.random or zlib, or
    # names seeded_rng
    package = Path(dne.__file__).parent
    offenders = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""] + [f"{node.module}.{a.name}" for a in node.names]
            elif isinstance(node, ast.Attribute):
                names = [f"{getattr(node.value, 'id', '')}.{node.attr}", node.attr]
            elif isinstance(node, (ast.Name, ast.FunctionDef)):
                names = [getattr(node, "id", None) or node.name]
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                names = [node.value]
            else:
                continue
            if any(name.split(".")[0] == "zlib" or name == "seeded_rng"
                   or name.startswith(("numpy.random", "np.random")) for name in names):
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


def derived_fields(tree):
    """(class, name) of each `field(init=False, ...)` attribute of the classes
    of a parsed module: the values its constructor derives."""
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        for statement in cls.body:
            call = getattr(statement, "value", None)
            if (isinstance(statement, ast.AnnAssign) and isinstance(call, ast.Call)
                    and getattr(call.func, "id", None) == "field"
                    and any(k.arg == "init" and getattr(k.value, "value", None) is False
                            for k in call.keywords)):
                yield cls, statement.target.id


def test_every_derived_field_is_read():
    # a value the constructor derives and stores is there for library code
    # to read; one that only the constructor itself reads is dead weight
    trees = module_trees()
    unread = []
    for module, tree in trees.items():
        for cls, name in derived_fields(tree):
            constructors = [f for f in cls.body if isinstance(f, ast.FunctionDef)
                            and f.name == "__post_init__"]
            skip = {id(node) for f in constructors for node in ast.walk(f)}
            if not any(isinstance(node, ast.Attribute) and node.attr == name
                       and isinstance(node.ctx, ast.Load) and id(node) not in skip
                       for other in trees.values() for node in ast.walk(other)):
                unread.append(f"{module}.{cls.name}.{name}")
    assert unread == []


def test_a_field_is_its_mesh_and_values():
    # a field carries no solver state: a solve's final element state goes on
    # in the run's `evolution.Step` record, not with the field it returned
    assert [f.name for f in dataclasses.fields(dne.DiscreteField)] == ["mesh", "values"]


def test_q_has_one_owner():
    # a run's q lives in its setup alone: a run carries its setup, and a
    # source is checked against the q of each problem it enters
    modules = [importlib.import_module(f"dne.{info.name}")
               for info in pkgutil.iter_modules(dne.__path__)
               if not info.name.startswith("_")]
    owners = {cls.__qualname__ for module in modules
              for cls in vars(module).values()
              if dataclasses.is_dataclass(cls) and cls.__module__ == module.__name__
              and "q" in {f.name for f in dataclasses.fields(cls)}}
    assert owners == {"EvolutionSetup"}


def test_harness_contract(monkeypatch):
    # the benchmark harness (perfbench/) loads a scenario, reads its five
    # views, wraps these two Mesh methods and times the module-level
    # `evolution.step` wherever a dne module binds it
    from dne import evolution, scenario
    assert inspect.isfunction(evolution.step)
    assert evolution.step.__module__ == "dne.evolution"
    for attr in ("element_means", "gradient_of"):
        assert inspect.isfunction(getattr(dne.Mesh, attr))
    for view in ("dimension", "resolution", "steps", "horizon"):
        assert isinstance(inspect.getattr_static(scenario.Scenario, view), property)
    config = Path(__file__).resolve().parent.parent / "configs" / "smoke_2d.cfg"
    loaded = scenario.load_scenario(str(config))
    setup = loaded.setup
    assert (loaded.dimension, loaded.resolution, loaded.steps, loaded.horizon) == (
        setup.mesh.dimension, setup.mesh.resolution, setup.steps, setup.horizon)
    assert isinstance(loaded.build_mesh(), dne.Mesh)
    # `Run.head(k)` calls the rebound step k times, solved and repeated steps
    # alike: default_1d's steps repeat their predecessor's from step 50 on
    config = Path(__file__).resolve().parent.parent / "configs" / "default_1d.cfg"
    full = scenario.load_scenario(str(config)).setup
    setup = dataclasses.replace(full, horizon=60 * full.dt, steps=60)
    original, calls = evolution.step, []

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(evolution, "step", counting)
    run = evolution.Run(setup)
    for k in (1, 30, 60):
        reports = run.head(k).reports
        assert len(calls) == k == len(reports)
    assert 0 < sum(r.repeated for r in reports) < 60
