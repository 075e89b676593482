"""The benchmark tracer wraps library names by attribute; each must exist."""

import importlib.util
from pathlib import Path

import pytest

_TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", _TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "target", load_tracer().targets(), ids=lambda t: f"{t[1].__name__}.{t[2]}"
)
def test_traced_name_resolves(target):
    """A renamed or dropped binding would crash every traced benchmark run."""
    layer, owner, attr, _ = target
    # Class attributes are read through __dict__, as Tracer.installed does.
    found = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
    assert callable(found), f"{layer}: {owner.__name__}.{attr} is missing"
