"""Every function the benchmark tracer wraps by name still exists in the package.

``perfbench/tracer.py`` looks its targets up by module and dotted attribute
when it installs; a renamed or removed target makes the traced benchmark
fail at start. Reading its ``TARGETS`` here moves that failure into the
unit tests.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def tracer_targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.TARGETS


TARGETS = tracer_targets()


@pytest.mark.parametrize("span, module_name, attr", TARGETS, ids=[t[0] for t in TARGETS])
def test_tracer_target_resolves(span, module_name, attr):
    owner = importlib.import_module(module_name)
    for part in attr.split("."):
        assert hasattr(owner, part), f"{span}: {module_name} has no {attr}"
        owner = getattr(owner, part)
    assert callable(owner), f"{span}: {module_name}.{attr} is not callable"
