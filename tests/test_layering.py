"""Each module of the package imports only modules below it in one order."""

import ast
from pathlib import Path

import pytest

import gle_spectra

LAYERS = ("errors", "errorfn", "quad", "kernels", "transforms", "spectra", "moments", "simulate", "cli")
PACKAGE = Path(gle_spectra.__file__).parent


def package_imports(path):
    """Modules of the package that ``path`` imports anywhere, function-local
    imports included."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1 and node.module:
                found.add(node.module.split(".")[0])
            elif node.level == 1:
                found.update(alias.name for alias in node.names)
            elif node.module and node.module.startswith("gle_spectra."):
                found.add(node.module.split(".")[1])
        elif isinstance(node, ast.Import):
            found.update(
                alias.name.split(".")[1]
                for alias in node.names
                if alias.name.startswith("gle_spectra.")
            )
    return found


def test_every_module_has_a_layer():
    modules = {p.stem for p in PACKAGE.glob("*.py")} - {"__init__"}
    assert modules == set(LAYERS)


@pytest.mark.parametrize("module", LAYERS)
def test_imports_follow_the_layer_order(module):
    below = set(LAYERS[: LAYERS.index(module)])
    assert package_imports(PACKAGE / f"{module}.py") <= below
