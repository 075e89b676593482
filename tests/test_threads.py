"""What ``estimate-z`` reproduces across BLAS thread counts.

Each case runs the command line in a fresh interpreter, because
``--threads`` caps the BLAS pools only before numpy loads.  The same
thread count must give every output byte for byte; across 1 and 2
threads the exact and mixture Z must be byte-equal too, and the kernel
Z within the bound of ``test_kernel_z_holds_its_bound_across_thread_counts``.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import edrep
from edrep import io as eio
from edrep.matstore import unit_rows
from edrep.znorm import KernelFeatureMap

_SEED = 3
_FEATURES = 300
_RUNS = {"one": 1, "two": 2, "two-again": 2}


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """The output directory of each run, by name: one ``estimate-z`` of all
    four methods on 6000 unit keys in d = 50, 200 sampled queries."""
    root = tmp_path_factory.mktemp("threads")
    keys = unit_rows(np.random.default_rng(_SEED).standard_normal((6000, 50)))
    embedding = root / "keys.edr1"
    eio.save_dense_binary(embedding, keys)
    src = str(Path(edrep.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = {}
    for name, threads in _RUNS.items():
        out[name] = root / name
        subprocess.run(
            [sys.executable, "-m", "edrep.cli", "estimate-z", "--embedding", str(embedding),
             "--methods", "exact,mixture,performer,rfa", "--kappa", "4",
             "--features", str(_FEATURES), "--samples", "200", "--seed", str(_SEED),
             "--threads", str(threads), "--out", str(out[name])],
            env=env, capture_output=True, timeout=300, check=True,
        )
    return keys, out


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
