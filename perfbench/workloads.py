"""The four benchmark workloads.

Each workload generates its inputs from the seed and writes them through
``edrep.io`` (``generate``), loads them and builds its operator
(``setup``), runs one timed operation (``op``), checks that operation's
output (``check``) and derives quality numbers from the outputs of the
first cycle of operations (``quality``).  A cycle visits every generated
instance once; a run always completes at least one cycle.

Sizes come in two scales: ``full`` is what the benchmark measures,
``tiny`` keeps the same code paths at a size the self-test runs in
seconds.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

import generators
from edrep import evaluate, graphs, matstore, mixture, optimizer, znorm
from edrep import io as eio
from edrep.optimizer import OptimizerConfig
from edrep.znorm import KernelFeatureMap

# Library functions are called through their modules, never imported by
# name, so that the tracer's wrappers see the calls.

UNIT_ROW_TOL = 1e-10
#: Random-feature count and seed of the kernel baselines, and the
#: clustering seed of the mixture, as in acceptance criterion 1.
FEATURES = 1000
ALGO_SEED = 7


def instance_seed(seed: int, k: int) -> int:
    """Instance 0 uses the run seed itself; later instances derive from it."""
    if k == 0:
        return seed
    return int(np.random.SeedSequence([seed, k]).generate_state(1)[0])


def rel_err_p50(estimate, reference) -> float:
    return float(np.median(np.abs(estimate.values - reference.values) / reference.values))


def embedding_error(result, sample: int, seed: int) -> float:
    """Median relative error of the mixture Z for a seeded sample of rows
    of a fitted embedding, against all its rows as keys, with the fit's
    own labels."""
    X = result.X
    rng = np.random.default_rng([seed, 1])
    rows = np.sort(rng.choice(X.shape[0], size=min(sample, X.shape[0]), replace=False))
    reference = znorm.exact_z(X[rows], X)
    estimate = znorm.approx_z(X[rows], mixture.estimate_mixture(X, result.labels))
    return rel_err_p50(estimate, reference)


def check_fit(result, kappa: int):
    fails = []
    drift = float(np.abs(np.linalg.norm(result.X, axis=1) - 1.0).max())
    if not drift <= UNIT_ROW_TOL:
        fails.append(f"embedding rows are off the unit sphere by {drift:.3e}")
    if not np.all(np.isfinite(result.log[:, :3])):
        fails.append("training log holds non-finite epochs, rates or losses")
    counts = np.bincount(result.labels.labels, minlength=kappa + 1)[1:]
    if result.labels.kappa != kappa or counts.size != kappa or counts.min() == 0:
        fails.append(f"labels do not fill {kappa} classes: counts {counts.tolist()}")
    return fails


def check_z(name, estimate):
    v = estimate.values
    if np.all(np.isfinite(v)) and np.all(v > 0):
        return []
    return [f"{name} Z values are not all finite and positive"]


def _corrupt_fit(result):
    result.X = result.X.copy()
    result.X[0] *= 1.5


def _mean(values):
    return float(np.mean(values))


class FitWalk:
    """``walk_operator`` then the two-pass ``fit`` at kappa = 8 on a
    planted-partition graph: the linear-time training at scale."""

    name = "fit-walk-100k"
    SIZES = {
        "full": dict(n=100_000, q=8, degree=10.0, ratio=5.0, epochs=3, sample=2000),
        "tiny": dict(n=2000, q=8, degree=10.0, ratio=5.0, epochs=2, sample=200),
    }
    W, D, KAPPA = 3, 32, 8
    instances = 1

    def __init__(self, scale):
        self.p = self.SIZES[scale]

    def generate(self, seed, root: Path):
        p = self.p
        adj, truth = generators.planted_partition(p["n"], p["q"], p["degree"], p["ratio"], seed)
        eio.save_sparse_mm(root / "adjacency.mtx", adj)
        eio.save_labels(root / "truth.txt", truth)

    def setup(self, root: Path):
        A = eio.load_sparse_mm(root / "adjacency.mtx")
        graphs.walk_operator(A, self.W).validate_stochastic()
        return {"A": A}

    def op(self, state, k):
        chain = graphs.walk_operator(state["A"], self.W)
        cfg = OptimizerConfig(d=self.D, n_epochs=self.p["epochs"], kappa=self.KAPPA, seed=0)
        return optimizer.fit(chain, cfg)

    def check(self, state, out):
        return check_fit(out, self.KAPPA)

    corrupt = staticmethod(_corrupt_fit)

    def quality(self, state, outs, seed, root):
        result = outs[0]
        q = {"logz_rel_err_p50": embedding_error(result, self.p["sample"], seed)}
        truth = eio.load_labels(root / "truth.txt")
        q["fit_loss"] = float(result.log[-1, 2])
        q["nmi_labels_vs_planted"] = evaluate.nmi(result.labels, truth)
        return q

    def working_set(self, state):
        A = state["A"]
        return {
            "X_mb": A.shape[0] * self.D * 8 / 1e6,
            "csr_factor_mb": (A.data.nbytes + A.indices.nbytes + A.indptr.nbytes) / 1e6,
            "factors": self.W,
            "nnz_per_factor": int(A.nnz),
        }


class EstimateZ:
    """Exact, mixture and random-feature normalizers on the criterion-1
    instance: all dense, no sparse products."""

    name = "estimate-z-20k"
    SIZES = {
        "full": dict(n=20000, d=100, queries=1000, kappa=5, features=FEATURES, instances=6),
        "tiny": dict(n=2000, d=20, queries=100, kappa=5, features=100, instances=2),
    }

    def __init__(self, scale):
        self.p = self.SIZES[scale]
        self.instances = self.p["instances"]

    def generate(self, seed, root: Path):
        p = self.p
        for k in range(self.instances):
            Y, sample, _ = generators.criterion1_embedding(
                instance_seed(seed, k), n=p["n"], d=p["d"], queries=p["queries"]
            )
            eio.save_dense_binary(root / f"keys{k}.edr1", Y)
            eio.save_labels(root / f"queries{k}.txt", sample)

    def setup(self, root: Path):
        return {
            "Y": [eio.load_dense(root / f"keys{k}.edr1") for k in range(self.instances)],
            "queries": [eio.load_labels(root / f"queries{k}.txt") for k in range(self.instances)],
        }

    def op(self, state, k):
        i = k % self.instances
        Y = state["Y"][i]
        X = Y[state["queries"][i]]
        out = {"exact": znorm.exact_z(X, Y)}
        labels = mixture.kmeans_label(Y, self.p["kappa"], seed=ALGO_SEED)
        out["mixture"] = znorm.approx_z(X, mixture.estimate_mixture(Y, labels))
        fmap = KernelFeatureMap.from_seed(Y.shape[1], self.p["features"], ALGO_SEED)
        out["performer"] = znorm.kernel_z(X, Y, fmap, "performer")
        out["rfa"] = znorm.kernel_z(X, Y, fmap, "rfa")
        return out

    def check(self, state, out):
        return [msg for name, est in out.items() for msg in check_z(name, est)]

    @staticmethod
    def corrupt(out):
        est = out["mixture"]
        values = est.values.copy()
        values[0] = -1.0
        object.__setattr__(est, "values", values)

    def quality(self, state, outs, seed, root):
        per = [
            {
                "logz_rel_err_p50": rel_err_p50(o["mixture"], o["exact"]),
                "performer_rel_err_p50": rel_err_p50(o["performer"], o["exact"]),
                "rfa_rel_err_p50": rel_err_p50(o["rfa"], o["exact"]),
            }
            for o in outs
        ]
        q = {key: _mean([p[key] for p in per]) for key in per[0]}
        q["per_instance"] = per
        return q

    def working_set(self, state):
        Y = state["Y"][0]
        return {"Y_mb": Y.nbytes / 1e6, "queries": int(state["queries"][0].size)}


class DcsbmGrid:
    """``dcsbm_benchmark`` on a small hardness grid: O(n^2) sampling,
    10-restart k-means and per-call overheads at a size that fits in L2."""

    name = "dcsbm-grid-5k"
    SIZES = {
        "full": dict(n=5000, epochs=25, sample=5000, ops=2),
        "tiny": dict(n=2000, epochs=3, sample=100, ops=2),
    }
    Q, C, ALPHAS, W, D, SEEDS_PER_OP = 4, 10.0, (2.5, 4.0), 3, 32, 2

    def __init__(self, scale):
        self.p = self.SIZES[scale]
        self.instances = self.p["ops"]

    def generate(self, seed, root: Path):
        count = self.instances * self.SEEDS_PER_OP
        seeds = np.random.SeedSequence(seed).generate_state(count) % (2**31)
        eio.save_labels(root / "grid_seeds.txt", seeds.astype(np.int64))

    def setup(self, root: Path):
        return {"seeds": eio.load_labels(root / "grid_seeds.txt")}

    def op(self, state, k):
        i = k % self.instances
        seeds = state["seeds"][i * self.SEEDS_PER_OP : (i + 1) * self.SEEDS_PER_OP]
        fits = []
        traced_fit = evaluate.fit

        def keep(*args, **kwargs):
            fits.append(traced_fit(*args, **kwargs))
            return fits[-1]

        evaluate.fit = keep
        try:
            rows = evaluate.dcsbm_benchmark(
                n=self.p["n"], q=self.Q, c=self.C, alphas=self.ALPHAS,
                seeds=[int(s) for s in seeds], w=self.W,
                cfg=OptimizerConfig(d=self.D, n_epochs=self.p["epochs"], kappa=1),
            )
        finally:
            evaluate.fit = traced_fit
        return {"rows": rows, "fits": fits}

    def check(self, state, out):
        fails = [msg for result in out["fits"] for msg in check_fit(result, 1)]
        expected = len(self.ALPHAS) * self.SEEDS_PER_OP
        if len(out["rows"]) != expected or len(out["fits"]) != expected:
            fails.append(f"grid returned {len(out['rows'])} rows, expected {expected}")
        for alpha, s, score, _ in out["rows"]:
            if not 0.0 <= score <= 1.0:
                fails.append(f"NMI {score!r} at alpha={alpha}, seed={s} lies outside [0, 1]")
        return fails

    @staticmethod
    def corrupt(out):
        alpha, s, _, wall = out["rows"][0]
        out["rows"][0] = (alpha, s, 1.5, wall)

    def quality(self, state, outs, seed, root):
        fits = [f for o in outs for f in o["fits"]]
        per = [embedding_error(f, self.p["sample"], seed) for f in fits]
        q = {"logz_rel_err_p50": _mean(per), "logz_rel_err_p50_per_instance": per}
        q["nmi_mean"] = float(np.mean([row[2] for o in outs for row in o["rows"]]))
        q["fit_loss"] = float(np.mean([f.log[-1, 2] for f in fits]))
        q["nmi_per_instance"] = [[row[0], row[1], row[2]] for o in outs for row in o["rows"]]
        return q

    def working_set(self, state):
        n = self.p["n"]
        return {"X_mb": n * self.D * 8 / 1e6, "dense_sample_block_mb": 256 * n * 8 / 1e6}


class TemporalSupra:
    """The temporal CSV reader, the supra graph and a kappa = 1 fit on its
    directed operator."""

    name = "temporal-supra"
    SIZES = {
        "full": dict(nodes=250, snapshots=3000, contacts=100_000, groups=10, epochs=5, sample=1000),
        "tiny": dict(nodes=40, snapshots=200, contacts=2000, groups=4, epochs=2, sample=100),
    }
    D = 32
    instances = 1

    def __init__(self, scale):
        self.p = self.SIZES[scale]

    def generate(self, seed, root: Path):
        p = self.p
        i, j, t, w, _ = generators.contact_list(
            seed, nodes=p["nodes"], snapshots=p["snapshots"], contacts=p["contacts"], groups=p["groups"]
        )
        # A header starting with '#' is skipped by the reader.
        eio.save_table_csv(root / "contacts.csv", zip(i, j, t, w), header=["# i", "j", "t", "w"])

    def setup(self, root: Path):
        edges = eio.load_temporal_csv(root / "contacts.csv")
        supra = graphs.supra_adjacency(edges)
        matstore.ProductChain([matstore.row_normalize(supra.adjacency)]).validate_stochastic()
        return {"path": root / "contacts.csv", "edges": edges}

    def op(self, state, k):
        edges = eio.load_temporal_csv(state["path"])
        supra = graphs.supra_adjacency(edges)
        respecting = supra.is_time_respecting()
        P = matstore.row_normalize(supra.adjacency)
        result = optimizer.fit(P, OptimizerConfig(d=self.D, n_epochs=self.p["epochs"], kappa=1, seed=0))
        return {"supra": supra, "respecting": respecting, "fit": result}

    def check(self, state, out):
        fails = check_fit(out["fit"], 1)
        if out["respecting"] is not True:
            fails.append("supra graph has an edge that does not point forward in time")
        active = activations(state["edges"])
        nodes = np.asarray(out["supra"].nodes, dtype=np.int64).reshape(-1, 2)
        if not np.array_equal(nodes, active):
            fails.append(
                f"supra node set ({nodes.shape[0]} nodes) differs from the "
                f"{active.shape[0]} (node, t) activations"
            )
        return fails

    @staticmethod
    def corrupt(out):
        _corrupt_fit(out["fit"])

    def quality(self, state, outs, seed, root):
        result = outs[0]["fit"]
        q = {"logz_rel_err_p50": embedding_error(result, self.p["sample"], seed)}
        q["fit_loss"] = float(result.log[-1, 2])
        q["supra_nodes"] = outs[0]["supra"].n_nodes
        q["supra_nnz"] = int(outs[0]["supra"].adjacency.nnz)
        q["contacts"] = int(state["edges"].n_records)
        return q

    def working_set(self, state):
        rows = activations(state["edges"]).shape[0]
        return {"X_mb": rows * self.D * 8 / 1e6, "supra_rows": rows, "contacts": int(state["edges"].n_records)}


def activations(edges):
    """Sorted distinct (node, t) pairs at which a node has a contact."""
    nodes = np.concatenate([edges.i, edges.j])
    times = np.concatenate([edges.t, edges.t])
    return np.unique(np.column_stack([nodes, times]), axis=0)


WORKLOADS = {cls.name: cls for cls in (FitWalk, EstimateZ, DcsbmGrid, TemporalSupra)}
