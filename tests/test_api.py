import ast
import importlib
import inspect
import pkgutil

import pytest

import dne

# the solver's stopping policy and start values belong to dne.elliptic alone
FORBIDDEN = {"tolerance", "max_iterations", "initial_guess"}
# values no caller sets are module constants of checks, io_utils and operators
FIXED = {"hopf_floor", "corner_cells", "burn_in", "tol", "r_norms", "threshold"}


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
                 "dne.evolution.EvolutionSetup.create", "dne.checks.contraction_ratio",
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
