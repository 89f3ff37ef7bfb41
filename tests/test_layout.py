"""Module boundaries of the package: no module imports another one's private names,
and the package exports only names its modules declare public."""
import ast
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
