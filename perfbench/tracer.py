"""Span tracer that wraps the library's public names from outside.

The benchmark never edits the library.  Tracing replaces module-level
names (``edrep.optimizer.zeta_matrix``, ``edrep.graphs.row_normalize``,
...) and class attributes (``ProductChain.apply``) with timing wrappers,
so calls made from inside ``fit`` and the other library entry points are seen too.
Every name a function is bound to in the package is listed, because
``from .znorm import zeta_matrix`` copies the binding into the caller.

A span's self time is its duration minus the time its child spans
cover.  Spans stay in memory; ``summary`` folds them per layer.
"""

from __future__ import annotations

import functools
import os
import time
from collections import defaultdict
from contextlib import contextmanager


def _chain_gflop(chain, X):
    # 2 * nnz * d per factor pass.
    return 2.0 * chain.nnz * X.shape[1] / 1e9


def _chain_gbytes(chain, X):
    # Per factor pass: CSR values and column indices (12 B per nonzero),
    # row pointers (4 B per row), one read of the dense operand and one
    # write of the product (8 B per entry each).
    total = 0
    for f in chain.factors:
        rows, cols = f.shape
        total += 12 * f.nnz + 4 * (rows + 1) + 8 * X.shape[1] * (rows + cols)
    return total / 1e9


def _zeta_gflop(X, params):
    n, d = X.shape
    flops = 2.0 * n * d * params.kappa
    for a in range(params.kappa):
        if params.omega[a].any():
            flops += 2.0 * n * d * d + 2.0 * n * d
    return flops / 1e9


def _file_bytes(path):
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


def targets():
    """Return (layer, owner, attribute, counters) for every traced name.

    ``counters`` maps a metric name to a function of the call's
    arguments; it is evaluated after the call returns and summed.
    """
    from edrep import evaluate, graphs, io, matstore, mixture, optimizer, znorm

    chain = matstore.ProductChain
    flop = {"matstore.apply.gflop": lambda self, X, *a, **k: _chain_gflop(self, X),
            "matstore.apply.gbytes": lambda self, X, *a, **k: _chain_gbytes(self, X)}
    zeta = {"znorm.zeta_matrix.gflop": lambda X, params, *a, **k: _zeta_gflop(X, params)}
    read = {"io.read_bytes": lambda path, *a, **k: _file_bytes(path)}
    write = {"io.write_bytes": lambda path, *a, **k: _file_bytes(path)}
    table = [
        ("matstore.apply", chain, "apply", flop),
        ("matstore.apply_transpose", chain, "apply_transpose", {}),
        ("matstore.validate_stochastic", chain, "validate_stochastic", {}),
        ("matstore.chain_init", chain, "__init__", {}),
        ("matstore.row_normalize", matstore, "row_normalize", {}),
        ("matstore.row_normalize", graphs, "row_normalize", {}),
        ("mixture.kmeans_label", mixture, "kmeans_label", {}),
        ("mixture.kmeans_label", optimizer, "kmeans_label", {}),
        ("mixture.kmeans_label", evaluate, "kmeans_label", {}),
        ("mixture.class_moments", mixture, "class_moments", {}),
        ("mixture.class_moments", optimizer, "class_moments", {}),
        ("mixture.estimate_mixture", mixture, "estimate_mixture", {}),
        ("znorm.zeta_matrix", znorm, "zeta_matrix", zeta),
        ("znorm.zeta_matrix", optimizer, "zeta_matrix", zeta),
        ("znorm.exact_z", znorm, "exact_z", {}),
        ("znorm.exact_z", optimizer, "exact_z", {}),
        ("znorm.approx_z", znorm, "approx_z", {}),
        ("znorm.kernel_z", znorm, "kernel_z", {}),
        ("optimizer.fit", optimizer, "fit", {}),
        ("optimizer.fit", evaluate, "fit", {}),
        ("optimizer.sphere_step", optimizer, "sphere_step", {}),
        ("optimizer.mixture_loss", optimizer, "mixture_loss", {}),
        ("graphs.dcsbm_sample", graphs, "dcsbm_sample", {}),
        ("graphs.dcsbm_sample", evaluate, "dcsbm_sample", {}),
        ("graphs.walk_operator", graphs, "walk_operator", {}),
        ("graphs.walk_operator", evaluate, "walk_operator", {}),
        ("graphs.supra_adjacency", graphs, "supra_adjacency", {}),
        ("graphs.is_time_respecting", graphs.SupraGraph, "is_time_respecting", {}),
        ("evaluate.community_pipeline", evaluate, "community_pipeline", {}),
        ("evaluate.nmi", evaluate, "nmi", {}),
    ]
    for name in ("load_sparse_mm", "load_dense", "load_labels", "load_temporal_csv"):
        table.append(("io.load", io, name, read))
    for name in ("save_sparse_mm", "save_dense_binary", "save_labels"):
        table.append(("io.save", io, name, write))
    return table


def _kernel_layer(args, kwargs):
    variant = kwargs.get("variant", args[3] if len(args) > 3 else "?")
    return f"znorm.kernel_z.{variant}"


class Tracer:
    """Collects spans (layer, start, end, parent) and per-layer counters."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._child_time = []
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.counters = defaultdict(float)

    @contextmanager
    def span(self, layer):
        self._enter(layer)
        try:
            yield
        finally:
            self._exit()

    def _enter(self, layer):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([layer, time.perf_counter(), None, parent])
        self._stack.append(len(self.spans) - 1)
        self._child_time.append(0.0)

    def _exit(self):
        idx = self._stack.pop()
        children = self._child_time.pop()
        span = self.spans[idx]
        span[2] = time.perf_counter()
        duration = span[2] - span[1]
        self.self_time[span[0]] += duration - children
        self.calls[span[0]] += 1
        if self._child_time:
            self._child_time[-1] += duration

    def _wrap(self, layer, fn, counters):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name = _kernel_layer(args, kwargs) if layer == "znorm.kernel_z" else layer
            with self.span(name):
                result = fn(*args, **kwargs)
            for metric, count in counters.items():
                self.counters[metric] += count(*args, **kwargs)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Wrap every traced name for the duration of the block."""
        saved = []
        try:
            for layer, owner, attr, counters in targets():
                original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(layer, original, counters))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def summary(self):
        """Per-layer self time (``.s``), call count (``.calls``) and counters."""
        out = {}
        for layer, seconds in self.self_time.items():
            out[f"{layer}.s"] = seconds
            out[f"{layer}.calls"] = self.calls[layer]
        out.update(self.counters)
        return out

