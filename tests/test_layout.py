"""Module boundaries of the package: no module imports another one's private names,
and the package exports only names its modules declare public."""
import ast
import dataclasses
import importlib
import inspect
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "halfspace_qed"


def _private_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return [
        f"{path.name}:{node.lineno}: from {'.' * node.level}{node.module or ''} import {alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level > 0
        for alias in node.names
        if alias.name.startswith("_")
    ]


def test_no_private_cross_module_imports():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 10
    found = [hit for path in modules for hit in _private_imports(path)]
    assert found == [], "imports of another module's private names:\n" + "\n".join(found)


def test_package_exports_are_declared_public():
    # every name the package root imports is in its module's __all__, and
    # every __all__ entry exists
    modules = {path.stem: importlib.import_module(f"halfspace_qed.{path.stem}")
               for path in sorted(PACKAGE.glob("*.py"))
               if path.stem not in ("__init__", "__main__")}
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    exported = [(node.module, alias.name) for node in tree.body
                if isinstance(node, ast.ImportFrom) and node.level == 1
                for alias in node.names]
    assert len(exported) > 20
    undeclared = [f"{mod}.{name}" for mod, name in exported if name not in modules[mod].__all__]
    assert undeclared == [], "exported but not in __all__: " + ", ".join(undeclared)
    missing = [f"{stem}.{name}" for stem, module in modules.items()
               for name in module.__all__ if not hasattr(module, name)]
    assert missing == [], "__all__ entries that do not exist: " + ", ".join(missing)


def _make_check_bounds(path: Path) -> list[tuple[int, ast.expr]]:
    """(line, bound) of each make_check(...) call of a module; the bound is
    the fifth argument or ``tol=``."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return [(node.lineno, bound) for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "make_check"
            for bound in node.args[4:5] + [kw.value for kw in node.keywords if kw.arg == "tol"]]


def _is_number(node: ast.expr) -> bool:
    if isinstance(node, ast.UnaryOp):
        node = node.operand
    return isinstance(node, ast.Constant) and isinstance(node.value, (int, float))


def test_each_quadrature_knob_has_one_config_key():
    # the config accepts exactly the quad.* keys, one per QuadratureSpec field,
    # so a knob cannot be retired in one place and left in the other; a run is
    # a spec and a seed, with no settings object of its own; and every check
    # bound is a DEFAULT_TOLERANCES constant, never a literal, in the one
    # module that builds check reports
    from halfspace_qed import config
    from halfspace_qed.spectral import QuadratureSpec

    fields = sorted(f.name for f in dataclasses.fields(QuadratureSpec))
    assert sorted(config._QUAD_FIELDS) == [f"quad.{name}" for name in fields]
    assert sorted(config._QUAD_FIELDS.values()) == fields
    for key in config._QUAD_FIELDS:
        config.spec_from_config({key: "1e-6"})
    for key in ("seed", *config.DEFAULT_TOLERANCES):
        with pytest.raises(config.ConfigError, match="unknown config key"):
            config.spec_from_config({key: "1e-6"})
    helpers = {"check_keys", "config_value", "quadrature_spec_from_config",
               "tolerances_from_config", "SuiteSettings", "settings_from_config"}
    assert helpers.isdisjoint(config.__all__)
    assert not any(hasattr(config, name) for name in helpers)
    bounds = {path.name: _make_check_bounds(path) for path in sorted(PACKAGE.glob("*.py"))}
    assert [name for name, found in bounds.items() if found] == ["verification.py"]
    found = [f"verification.py:{line}: {ast.unparse(b)}"
             for line, b in bounds["verification.py"] if _is_number(b)]
    assert found == [], "check bounds outside DEFAULT_TOLERANCES:\n" + "\n".join(found)


def _spectral_imports(path: Path) -> list[tuple[int, str]]:
    """(line, name) of each name a module imports from ``.spectral``, and of
    each import of the ``spectral`` module object itself (name 'spectral')."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return [(node.lineno, alias.name) for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level > 0
            for alias in node.names
            if node.module == "spectral" or (node.module is None and alias.name == "spectral")]


def test_spectral_has_one_integrator():
    # the quadrature engine has one entry point: the one public function of
    # spectral that takes a QuadratureSpec is ray_integral, and no package
    # module imports another integrating name, or the module itself
    from halfspace_qed import spectral

    integrators = [name for name in spectral.__all__
                   if inspect.isfunction(getattr(spectral, name))
                   and "spec" in inspect.signature(getattr(spectral, name)).parameters]
    assert integrators == ["ray_integral"]
    found = [f"{path.name}:{line}: {name}" for path in sorted(PACKAGE.glob("*.py"))
             if path.name != "spectral.py"
             for line, name in _spectral_imports(path) if name not in spectral.__all__]
    assert found == [], "imports of other names from spectral:\n" + "\n".join(found)
    assert "ray_integral" in {name for _, name in _spectral_imports(PACKAGE / "energy.py")}
