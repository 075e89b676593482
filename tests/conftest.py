"""Fixtures shared by the test modules."""

import pytest

from edrep.matstore import ProductChain


@pytest.fixture
def validation_calls(monkeypatch):
    """A list that gains one entry per check that
    ``ProductChain.validate_stochastic`` runs on the operator; a call on a
    chain that already passed returns without a check and adds none."""
    calls = []
    original = ProductChain._check_stochastic

    def counting(self, *args, **kwargs):
        calls.append(1)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(ProductChain, "_check_stochastic", counting)
    return calls
