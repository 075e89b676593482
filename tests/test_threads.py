"""What ``estimate-z``, ``fit`` and ``fit-exact`` reproduce across BLAS
thread counts.

Each case runs the command line in a fresh interpreter, because
``--threads`` caps the BLAS pools only before numpy loads; every run
must exit 0 with nothing on stderr.  The same thread count must give
every output byte for byte.  Across 1 and 2 threads the exact and
mixture Z and ``fit``'s embedding, labels and losses must be
byte-equal too; the kernel Z and ``fit-exact``'s embedding and losses
must hold the bounds their tests state.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import edrep
from edrep import io as eio
from edrep.graphs import DcsbmParams, dcsbm_sample
from edrep.matstore import row_normalize, unit_rows
from edrep.optimizer import LOG_COLUMNS
from edrep.znorm import KernelFeatureMap

_SEED = 3
#: While tr(X'PX) went through a BLAS dot, ``fit``'s log at this seed moved
#: by 1 ulp in one row between 1 and 2 threads (so did seed 9's; seeds 0-3
#: and 5-8 kept their bits), which the byte-equality test below catches.
_FIT_SEED = 4
_FEATURES = 300
_RUNS = {"one": 1, "two": 2, "two-again": 2}
_NODES, _DIM = 2000, 16


def _cli_runs(root: Path, seed: int, *args: str) -> dict[str, Path]:
    """The output directory of each of the ``_RUNS`` of one command line,
    each run checked to exit 0 and to write nothing to stderr."""
    src = str(Path(edrep.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = {}
    for name, threads in _RUNS.items():
        out[name] = root / name
        done = subprocess.run(
            [sys.executable, "-m", "edrep.cli", *args, "--seed", str(seed),
             "--threads", str(threads), "--out", str(out[name])],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert (done.returncode, done.stderr) == (0, ""), f"{name} run: {done.stderr}"
    return out


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """The output directory of each run, by name: one ``estimate-z`` of all
    four methods on 6000 unit keys in d = 50, 200 sampled queries."""
    root = tmp_path_factory.mktemp("threads")
    keys = unit_rows(np.random.default_rng(_SEED).standard_normal((6000, 50)))
    embedding = root / "keys.edr1"
    eio.save_dense_binary(embedding, keys)
    return keys, _cli_runs(
        root, _SEED, "estimate-z", "--embedding", str(embedding), "--methods",
        "exact,mixture,performer,rfa", "--kappa", "4", "--features", str(_FEATURES),
        "--samples", "200",
    )


@pytest.fixture(scope="module")
def fits(tmp_path_factory):
    """The output directories of each run, by command and name: 5 epochs in
    d = 16 (``fit`` two-pass at kappa = 4) on the window-3 walk over a
    2000-node, four-class block-model graph, given as a manifest that
    names one factor file three times."""
    root = tmp_path_factory.mktemp("fits")
    graph = dcsbm_sample(
        DcsbmParams(n=_NODES, q=4, c=10, alpha=3, theta_recipe="unit", seed=_FIT_SEED)
    )
    eio.save_sparse_mm(root / "P.mtx", row_normalize(graph.adjacency))
    walk = root / "walk.json"
    walk.write_text('{"factors": ["P.mtx", "P.mtx", "P.mtx"], "weights": [0.5, 0.25, 0.25]}')
    common = ["--operator", str(walk), "--dim", str(_DIM), "--epochs", "5"]
    return {
        "fit": _cli_runs(root / "fit", _FIT_SEED, "fit", *common, "--kappa", "4"),
        "fit-exact": _cli_runs(root / "fit-exact", _FIT_SEED, "fit-exact", *common),
    }


def _files(directory: Path) -> dict[str, bytes]:
    """Every output file's bytes; run_config.txt without its ``out`` line,
    the one line that names the directory."""
    files = {p.name: p.read_bytes() for p in sorted(directory.iterdir())}
    lines = files["run_config.txt"].splitlines(keepends=True)
    files["run_config.txt"] = b"".join(l for l in lines if not l.startswith(b"out = "))
    return files


def _z(directory: Path, method: str) -> np.ndarray:
    return np.loadtxt(directory / f"z_{method}.csv", delimiter=",", skiprows=1)


def test_same_thread_count_gives_the_same_bytes(runs):
    _, out = runs
    assert _files(out["two"]) == _files(out["two-again"])


@pytest.mark.parametrize("name", ["z_exact.csv", "z_mixture.csv"])
def test_exact_and_mixture_z_are_byte_equal_across_thread_counts(runs, name):
    _, out = runs
    assert (out["one"] / name).read_bytes() == (out["two"] / name).read_bytes()


@pytest.mark.parametrize("method", ["performer", "rfa"])
def test_kernel_z_holds_its_bound_across_thread_counts(runs, method):
    """The runs differ only in how BLAS splits the projections V W' and
    the query product phi @ mass across threads; every elementwise pass
    runs in the calling thread.  A projection then moves by a few ulps of
    P, the largest sum of |w_jk y_ak| over the keys, exp turns that into a
    relative change of as many ulps times P in each term, and the terms'
    sum moves by that much of S, the sum of their magnitudes (Z itself for
    performer; far above Z where rfa's signed terms cancel).  That is the
    8 (1 + P)-ulp bound of ``test_wide_keys_stay_within_ulps_of_one_product``,
    here between two thread counts instead of against one product.  Seen
    on this instance's keys at seeds 0-4: 0-2 of 200 rows differ per map,
    each by 1 ulp of Z, at most 0.10 (1 + P) ulps of S."""
    keys, out = runs
    one, two = _z(out["one"], method), _z(out["two"], method)
    assert one[:, 0].tolist() == two[:, 0].tolist()
    W = KernelFeatureMap.from_seed(keys.shape[1], _FEATURES, _SEED).W
    P = 1 + (np.abs(keys) @ np.abs(W).T).max()
    X = keys[one[:, 0].astype(int)]
    scale = 1 / np.sqrt(_FEATURES)
    if method == "performer":
        S = one[:, 1]
    else:
        # sum_a sum_j |cos| |cos| + |sin| |sin|, each key and query scaled
        # by its exp(|v|^2 / 2) and each feature by 1/sqrt(D).
        def halves(V):
            grow = np.exp(0.5 * np.sum(V * V, axis=1))[:, None]
            proj = V @ W.T
            return np.abs(np.cos(proj)) * grow * scale, np.abs(np.sin(proj)) * grow * scale

        cos_y, sin_y = halves(keys)
        cos_x, sin_x = halves(X)
        S = cos_x @ cos_y.sum(axis=0) + sin_x @ sin_y.sum(axis=0)
    assert np.all(np.abs(one[:, 1] - two[:, 1]) <= 8 * P * np.spacing(S))


@pytest.mark.parametrize("command", ["fit", "fit-exact"])
def test_same_thread_count_gives_the_same_fit(fits, command):
    assert _files(fits[command]["two"]) == _files(fits[command]["two-again"])


def test_fit_embedding_and_labels_are_byte_equal_across_thread_counts(fits):
    """The gradient's pieces keep their bits: the sparse products are split
    by rows into bitwise-serial ranges, and the mixture normalizer's
    products, whose inner dimension is d, and p0'X gave the same bits at 1
    and 2 threads.  Seen in 45 of 45 instances (n from 500 to 5000, d of
    8, 16 and 32, seeds 0-2); at d = 100 the class covariances can
    differ."""
    one, two = fits["fit"]["one"], fits["fit"]["two"]
    for name in ("embedding.edr1", "labels.txt"):
        assert (one / name).read_bytes() == (two / name).read_bytes(), name


def test_fit_exact_embedding_holds_its_bound_across_thread_counts(fits):
    """The exact term's products with the keys, each over a key chunk of
    2048 to 4095 rows, take their tiles by thread count and move a term
    entry by up to 2.4e-16 of the largest; every epoch carries such a
    change into the next, which adds about 1e-15 per epoch (2.9e-14 after
    25 epochs at n = 3000, d = 32).  So 5 epochs are held to 1e-13,
    fifty times the 1.9e-15 seen in 27 instances (n to 3000, d to 32);
    1.0e-15 here."""
    one, two = (eio.load_dense(fits["fit-exact"][k] / "embedding.edr1") for k in ("one", "two"))
    assert np.abs(one - two).max() <= 1e-13


@pytest.mark.parametrize("command", ["fit", "fit-exact"])
def test_training_losses_hold_their_bound_across_thread_counts(fits, command):
    """A loss is -tr(X'PX) + sum_i log Z_i + tr(X'1 p0'X).  At a fixed
    embedding each term has the same bits at 1 and 2 threads (tr(X'PX) is
    summed by einsum in the calling thread), so a loss moves only because
    the embedding does, and ``fit``'s, whose embedding keeps its bits, must
    keep theirs.  An embedding that moves by delta per entry moves each of
    the three terms by at most 2 n sqrt(d) delta to first order (unit
    rows, row-stochastic P, p0 summing to 1).  The two runs then round
    different inputs: a sum of N terms is off by at most N eps times the
    sum of their magnitudes, which for tr(X'PX) (n d terms, magnitudes
    summing to at most n) is n^2 d eps in each run and dwarfs the other
    terms' rounding.  So a ``fit-exact`` loss moves by at most
    2 n^2 d eps + 6 n sqrt(d) delta (2.8e-8 here, where its losses keep
    their bits)."""
    one, two = (fits[command][k] for k in ("one", "two"))
    logs = [np.loadtxt(d / "training_log.csv", delimiter=",", skiprows=1) for d in (one, two)]
    column = LOG_COLUMNS.index("exact_loss" if command == "fit-exact" else "approx_loss")
    assert logs[0][:, :2].tobytes() == logs[1][:, :2].tobytes()
    X = [eio.load_dense(d / "embedding.edr1") for d in (one, two)]
    delta = np.abs(X[0] - X[1]).max()
    eps = np.finfo(float).eps
    bound = 2 * _NODES**2 * _DIM * eps + 6 * _NODES * np.sqrt(_DIM) * delta if delta else 0.0
    assert np.all(np.abs(logs[0][:, column] - logs[1][:, column]) <= bound)
