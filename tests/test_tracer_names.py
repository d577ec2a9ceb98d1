"""Every function the benchmark's ``--trace 1`` run wraps still exists, so a
renamed or deleted traced function fails here, not only in a traced run."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "handbench" / "tracer.py"


def _layers():
    spec = importlib.util.spec_from_file_location("handbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return [(module, name) for module, names in tracer.LAYERS.items()
            for name in names]


@pytest.mark.parametrize("module, name", _layers())
def test_traced_name_resolves_on_handkit(module, name):
    owner = importlib.import_module(f"handkit.{module}")
    for part in name.split("."):
        owner = getattr(owner, part)
    assert callable(owner)
