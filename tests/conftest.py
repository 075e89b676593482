"""Fixtures shared by the test modules."""

import pytest
from hypothesis import settings

from edrep.matstore import ProductChain

# Examples run the numerical kernels, whose time varies with the machine's
# load; no property test has a deadline.
settings.register_profile("edrep", deadline=None)
settings.load_profile("edrep")


@pytest.fixture
def validation_calls(monkeypatch):
    """A list that gains one entry per check that
    ``ProductChain.validate_stochastic`` runs on the operator; a call on a
    chain that already passed returns without a check and adds none."""
    calls = []
    original = ProductChain.validate_stochastic

    def counting(self):
        if not self._stochastic:
            calls.append(1)
        return original(self)

    monkeypatch.setattr(ProductChain, "validate_stochastic", counting)
    return calls
