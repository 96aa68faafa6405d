"""Module layering: the package's import graph, pinned module by module.
The model, metric and selector layers work on plain arrays and know nothing
of how a dataset is generated or split; only the engine and the CLI combine
the layers."""

import ast
import json
import subprocess
import sys
import textwrap
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


# each module's in-package imports; a new module or edge is added here
ALLOWED_IMPORTS = {
    "errors": set(),
    "datagen": {"errors"},
    "glm": {"errors"},
    "metrics": {"errors"},
    "strategies": {"errors"},
    "simulation": {"datagen", "errors", "glm", "metrics", "strategies"},
    "cli": {"datagen", "errors", "metrics", "simulation", "strategies"},
    "__main__": {"cli"},
    "__init__": {"datagen", "errors", "glm", "metrics", "simulation",
                 "strategies"},
}


@pytest.mark.parametrize("module", sorted(ALLOWED_IMPORTS))
def test_package_imports_match_the_module_graph(module):
    assert {path.stem for path in PACKAGE.glob("*.py")} == set(ALLOWED_IMPORTS)
    imports = imported_modules(PACKAGE / f"{module}.py")
    package_names = {"alqsim", *ALLOWED_IMPORTS}
    internal = {name.split(".")[-1] for name in imports
                if name.split(".")[0] in package_names}
    assert internal == ALLOWED_IMPORTS[module]


def test_package_exports_resolve():
    import alqsim

    assert [name for name in alqsim.__all__ if not hasattr(alqsim, name)] == []


def fresh_output(script: str):
    """The JSON that a fresh interpreter running ``script`` prints last."""
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(script)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


LOADED = ("sorted(m for m in sys.modules"
          " if m.split('.')[0] == 'numpy' or m.startswith('alqsim.'))")


class TestLazyPackageRoot:
    """``import alqsim`` loads nothing; each export loads on first use."""

    def test_import_and_unknown_names_load_nothing(self):
        imported, message, cli, probed = fresh_output(f"""
            import json, sys
            import alqsim
            imported = {LOADED}
            try:
                alqsim.no_such_name
            except AttributeError as exc:
                message = str(exc)
            print(json.dumps([imported, message, hasattr(alqsim, "cli"), {LOADED}]))
        """)
        assert imported == []
        assert message == "module 'alqsim' has no attribute 'no_such_name'"
        assert cli is False
        assert probed == []

    def test_star_import_binds_each_name_from_its_defining_module(self):
        fit_is_glm_fit, misbound = fresh_output("""
            import json, sys
            import alqsim
            fit = alqsim.fit
            namespace = {}
            exec("from alqsim import *", namespace)
            import alqsim.glm
            print(json.dumps([fit is alqsim.glm.fit, [
                name for name in alqsim.__all__
                if name not in namespace or namespace[name] is not getattr(
                    sys.modules[namespace[name].__module__], name)]]))
        """)
        assert fit_is_glm_fit is True
        assert misbound == []
