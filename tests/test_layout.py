"""Module boundaries of the package: no module imports another one's private names,
and the package exports only names its modules declare public."""
import ast
import dataclasses
import importlib
from pathlib import Path

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


def test_each_quadrature_knob_has_one_config_key():
    # every quad.* key sets exactly one QuadratureSpec field and every field
    # has one key, so a knob cannot be retired in one place and left in the
    # other; the config module exports only its format, not its helpers
    from halfspace_qed import config
    from halfspace_qed.spectral import QuadratureSpec

    quad_keys = sorted(key for key in config._KNOWN_KEYS if key.startswith("quad."))
    assert quad_keys == sorted(config._QUAD_FIELDS)
    mapped = sorted(config._QUAD_FIELDS.values())
    assert mapped == sorted(f.name for f in dataclasses.fields(QuadratureSpec))
    assert len(set(mapped)) == len(mapped)
    helpers = {"check_keys", "config_value", "quadrature_spec_from_config",
               "tolerances_from_config"}
    assert helpers.isdisjoint(config.__all__)
    assert not any(hasattr(config, name) for name in helpers)
