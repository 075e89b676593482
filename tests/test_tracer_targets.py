"""The benchmark tracer wraps library names by attribute; each must exist,
and the training loops must call through the bindings it wraps."""

import importlib.util
from pathlib import Path

import pytest
import scipy.sparse as sp

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


def counted(monkeypatch, module, names):
    """Calls per name, counted through the module's own bindings, as the
    tracer wraps them."""
    calls = dict.fromkeys(names, 0)
    for name in names:

        def counting(*args, _name=name, _original=getattr(module, name), **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)
    return calls


def small_operator():
    from edrep.matstore import row_normalize

    base = sp.random(40, 40, density=0.2, random_state=0, format="csr")
    return row_normalize(base + sp.eye(40))


def test_two_pass_fit_reaches_every_traced_loop_binding(monkeypatch):
    """A loop routed around one of these bindings would leave its layer
    empty in every traced run."""
    from edrep import optimizer

    names = ("kmeans_label", "class_moments", "zeta_matrix", "sphere_step", "mixture_loss")
    calls = counted(monkeypatch, optimizer, names)
    optimizer.fit(small_operator(), optimizer.OptimizerConfig(d=3, n_epochs=2, kappa=2))
    assert all(calls.values()), calls


def test_fit_exact_reaches_the_traced_exact_z(monkeypatch):
    from edrep import optimizer

    calls = counted(monkeypatch, optimizer, ("exact_z",))
    optimizer.fit_exact(small_operator(), optimizer.OptimizerConfig(d=3, n_epochs=2))
    assert calls["exact_z"] > 0


def test_fit_reaches_the_traced_chain_apply(monkeypatch):
    """The operator check is the fit's one call of the public product, so
    the traced ``matstore.apply`` layer is not empty on a fit workload."""
    from edrep import optimizer
    from edrep.matstore import ProductChain

    calls = []
    original = ProductChain.apply

    def counting(self, X):
        calls.append(X.shape)
        return original(self, X)

    monkeypatch.setattr(ProductChain, "apply", counting)
    optimizer.fit(small_operator(), optimizer.OptimizerConfig(d=3, n_epochs=2))
    assert calls
