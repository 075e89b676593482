"""Fixtures shared by the test modules."""

import pytest

from edrep.matstore import ProductChain


@pytest.fixture
def validation_calls(monkeypatch):
    """A list that gains one entry per ``ProductChain.validate_stochastic`` call."""
    calls = []
    original = ProductChain.validate_stochastic

    def counting(self, *args, **kwargs):
        calls.append(1)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(ProductChain, "validate_stochastic", counting)
    return calls
