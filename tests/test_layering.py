"""Module layering: the model, metric and selector layers work on plain
arrays and know nothing of how a dataset is generated or split."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "alqsim"


def imported_modules(path):
    """Every module ``path`` imports, as a dotted name relative to the
    package for relative imports (``from . import x`` gives ``x``)."""
    names = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names.extend(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.module:
                names.append(node.module)
            else:
                names.extend(alias.name for alias in node.names)
    return names


@pytest.mark.parametrize("module", ["glm", "metrics", "strategies"])
def test_array_layers_do_not_import_datagen(module):
    imports = imported_modules(PACKAGE / f"{module}.py")
    assert imports, module  # the walk found the module's imports
    assert not [name for name in imports if "datagen" in name.split(".")]
