"""Every name has one import path: the module that defines it, through its ``__all__``."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import forecast_uq

PACKAGE = Path(forecast_uq.__file__).parent


def module_name(path: Path) -> str:
    parts = path.relative_to(PACKAGE.parent).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


MODULES = {module_name(path): path for path in sorted(PACKAGE.rglob("*.py"))}


def declared_all(name: str):
    """The names listed in module ``name``'s ``__all__``, or None where it has none."""
    for node in ast.parse(MODULES[name].read_text()).body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            return set(ast.literal_eval(node.value))
    return None


def package_imports(name: str):
    """(source module, imported name) for each ``from <package module> import <name>`` in module ``name``."""
    path = MODULES[name]
    package = name if path.name == "__init__.py" else name.rpartition(".")[0]
    for node in ast.walk(ast.parse(path.read_text())):
        if not isinstance(node, ast.ImportFrom):
            continue
        source = node.module
        if node.level:  # relative: ``level - 1`` packages up from this one
            base = package.rsplit(".", node.level - 1)[0]
            source = f"{base}.{node.module}" if node.module else base
        if source in MODULES:
            yield from ((source, alias.name) for alias in node.names)


@pytest.mark.parametrize("name", MODULES)
def test_every_public_name_imported_from_a_module_is_in_its_all(name):
    missing = [
        f"{source}.{imported}"
        for source, imported in package_imports(name)
        if not imported.startswith("_") and (exported := declared_all(source)) is not None
        and imported not in exported
    ]
    assert not missing, f"{name} imports names missing from their module's __all__: {missing}"


def test_the_nn_package_defines_no_name():
    # so a kernel name has one import path: from forecast_uq.nn.tensor, .layers or .optim
    body = ast.parse(MODULES["forecast_uq.nn"].read_text()).body
    assert len(body) == 1 and isinstance(body[0].value, ast.Constant)  # the docstring alone


def loaded_after(statement: str) -> list[str]:
    """The package modules a fresh interpreter has loaded after running ``statement``."""
    script = f"{statement}\nimport sys\nprint(sorted(n for n in sys.modules if n.startswith('forecast_uq')))"
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)})
    assert done.returncode == 0, done.stderr
    return ast.literal_eval(done.stdout)


def test_the_losses_load_only_the_tensor_module():
    assert loaded_after("import forecast_uq.losses") == [
        "forecast_uq", "forecast_uq.losses", "forecast_uq.nn", "forecast_uq.nn.tensor"]


def test_the_cli_loads_every_kernel_module_the_benchmark_tracer_reads():
    loaded = loaded_after("import forecast_uq.cli")
    assert {"forecast_uq.nn.tensor", "forecast_uq.nn.layers", "forecast_uq.nn.optim"} <= set(loaded)
