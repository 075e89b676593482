"""Command-line front door.

Subcommands: estimate-z, fit, fit-exact, dcsbm-bench, deviation, supra,
concentration.  Every option can come from a flat key = value config
file (--config); explicit flags win over the file, the file wins over
built-in defaults.  EDREP_SEED provides the default seed.  Exit codes:
0 success, 1 usage error, 2 invalid input or output, 3 numeric error.

Every handler checks its options, and builds its config objects, before
its first expensive call; checks that need the input run right after it
is loaded.  It returns the directory it wrote its outputs into, and
main writes the resolved configuration there as run_config.txt.

Heavy numerical imports happen inside the command handlers so that
--threads can cap BLAS pools before they initialize; the same cap sizes
the row split of the sparse chain products.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .errors import NumericError, ValidationError, check_whole

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_NUMERIC = 3

_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


class _Parser(argparse.ArgumentParser):
    """argparse with usage failures mapped to exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


class _UsageError(Exception):
    pass


# Per-subcommand option tables: name -> (type, default, help).  A default
# of None marks a required option; "ENV_SEED" defers to EDREP_SEED.
_OUT = {"out": (str, None, "output directory")}

_COMMON = {
    **_OUT,
    "seed": (int, "ENV_SEED", "random seed (default: EDREP_SEED or 0)"),
}

_TRAIN_OPTS = {
    "dim": (int, 32, "embedding dimension"),
    "eta0": (float, 0.7, "initial learning rate in (0, 1]"),
    "epochs": (int, 25, "number of training epochs"),
}

_FIT_OPTS = {**_TRAIN_OPTS, "kappa": (int, 1, "mixture order")}

_OPTION_TABLES = {
    "estimate-z": {
        "embedding": (str, None, "dense embedding file (.csv or .edr1)"),
        "methods": (str, "exact,mixture", "comma list: exact,mixture,performer,rfa"),
        "kappa": (int, 1, "mixture order for the mixture method"),
        "features": (int, 1000, "random feature count D for the kernel methods"),
        "samples": (int, 1000, "number of row indices to sample"),
        **_COMMON,
    },
    "fit": {
        "operator": (str, None, "row-stochastic operator (.mtx) or chain manifest (.json)"),
        **_FIT_OPTS,
        "checkpoint-every": (int, 0, "write the embedding every k epochs (0: off)"),
        **_COMMON,
    },
    "fit-exact": {
        "operator": (str, None, "row-stochastic operator (.mtx) or chain manifest (.json)"),
        **_TRAIN_OPTS,
        **_COMMON,
    },
    "dcsbm-bench": {
        "n": (int, 5000, "node count"),
        "q": (int, 4, "community count"),
        "c": (float, 10.0, "expected average degree"),
        "alphas": (str, "0.5,1.5,2.5,4.0", "comma list of hardness values"),
        "seeds": (int, 10, "number of seeds per hardness value"),
        "w": (int, 3, "walk window"),
        "theta-recipe": (str, "powerlaw", "unit or powerlaw"),
        **_FIT_OPTS,
        **_COMMON,
    },
    "deviation": {
        "n": (int, 500, "node count of the comparison graph"),
        "kappas": (str, "1,8", "comma list of mixture orders to compare"),
        "nb-r": (int, 3, "negative binomial r parameter"),
        "nb-p": (float, 0.3, "negative binomial p parameter"),
        **_TRAIN_OPTS,
        **_COMMON,
    },
    "supra": {
        "input": (str, None, "temporal edge CSV (i, j, t, w)"),
        **_OUT,
    },
    "concentration": {
        "d": (int, 20, "key vector dimension"),
        "m-grid": (str, "500,2000", "comma list of key counts"),
        "repeats": (int, 200, "independent draws per key count"),
        **_COMMON,
    },
}


def _build_parser() -> _Parser:
    parser = _Parser(prog="edrep", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name, table in _OPTION_TABLES.items():
        p = sub.add_parser(name, description=f"edrep {name}")
        for opt, (typ, default, help_text) in table.items():
            p.add_argument(f"--{opt}", type=typ, default=None, help=help_text)
        p.add_argument("--config", type=str, default=None, help="flat key = value config file")
        p.add_argument("--threads", type=int, default=None, help="cap BLAS and sparse-product worker threads")
    return parser


def _read_config_file(path: str) -> dict[str, str]:
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise _UsageError(f"cannot read config file {path}: {exc}") from exc
    out = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise _UsageError(f"{path}:{lineno}: expected key = value")
        if "\0" in line:
            raise _UsageError(f"{path}:{lineno}: a line may not hold a NUL byte")
        key, _, value = line.partition("=")
        out[key.strip()] = value.strip()
    return out


def _resolve(command: str, args: argparse.Namespace) -> dict:
    table = _OPTION_TABLES[command]
    resolved = {opt: default for opt, (_, default, _) in table.items()}
    if args.config:
        for key, raw in _read_config_file(args.config).items():
            if key not in table:
                raise _UsageError(f"unknown config key {key!r} for {command}")
            typ = table[key][0]
            try:
                resolved[key] = typ(raw)
            except ValueError as exc:
                raise _UsageError(f"config key {key!r}: {exc}") from exc
    for opt in table:
        flag_value = getattr(args, opt.replace("-", "_"), None)
        if flag_value is not None:
            resolved[opt] = flag_value
    if resolved.get("seed") == "ENV_SEED":
        try:
            resolved["seed"] = int(os.environ.get("EDREP_SEED", "0"))
        except ValueError as exc:
            raise _UsageError(f"EDREP_SEED is not an integer: {exc}") from exc
    check_whole(resolved.get("seed", 0), "seed", 0)
    missing = [opt for opt, value in resolved.items() if value is None]
    if missing:
        raise _UsageError(
            f"missing required option(s) for {command}: "
            + ", ".join(f"--{m}" for m in missing)
        )
    # The output directory is made at the first write, under its nearest existing ancestor.
    ancestor = Path(resolved["out"])
    while not os.path.exists(ancestor):
        ancestor = ancestor.parent
    if not os.path.isdir(ancestor):
        raise ValidationError(f"--out {resolved['out']}: {ancestor} is not a directory")
    return resolved


def _write_manifest(out_dir: Path, command: str, resolved: dict) -> None:
    lines = [f"command = {command}"]
    lines += [f"{k} = {resolved[k]}" for k in sorted(resolved)]
    (out_dir / "run_config.txt").write_text("\n".join(lines) + "\n")


def _out_dir(resolved: dict) -> Path:
    """The output directory, made when the first file goes into it."""
    out_dir = Path(resolved["out"])
    out_dir.mkdir(parents=True, exist_ok=True)
    return out_dir


def _comma_list(resolved: dict, option: str, typ) -> list:
    """The values of a comma-list option; none at all is out of range."""
    try:
        values = [typ(tok.strip()) for tok in str(resolved[option]).split(",") if tok.strip()]
    except ValueError as exc:
        raise _UsageError(f"--{option}: {exc}") from exc
    if not values:
        raise ValidationError(f"--{option} needs at least one value")
    return values


def _optimizer_config(resolved: dict, kappa: int | None = None):
    """The training options as an OptimizerConfig; the mixture order is
    ``kappa`` if given, else the --kappa option, else 1."""
    from .optimizer import OptimizerConfig

    return OptimizerConfig(
        d=resolved["dim"],
        eta0=resolved["eta0"],
        n_epochs=resolved["epochs"],
        kappa=resolved.get("kappa", 1) if kappa is None else kappa,
        seed=resolved["seed"],
    )


def _cmd_estimate_z(resolved: dict) -> Path:
    import numpy as np

    from . import io as eio
    from .mixture import check_kappa, estimate_mixture, kmeans_label
    from .znorm import KernelFeatureMap, approx_z, error_cdf, exact_z, kernel_z

    methods = _comma_list(resolved, "methods", str)
    bad = set(methods) - {"exact", "mixture", "performer", "rfa"}
    if bad:
        raise ValidationError(f"unknown estimation method(s): {sorted(bad)}")
    check_whole(resolved["samples"], "--samples", 1)
    check_whole(resolved["features"], "--features", 1)
    emb = eio.load_dense(resolved["embedding"])
    n, d = emb.shape
    check_kappa(resolved["kappa"], n, "the embedding")
    if {"performer", "rfa"} & set(methods):
        fmap = KernelFeatureMap.from_seed(d, resolved["features"], resolved["seed"])
    rng = np.random.default_rng(resolved["seed"])
    count = min(resolved["samples"], n)
    idx = np.sort(rng.choice(n, size=count, replace=False))
    queries = emb[idx]

    estimates = {}
    for method in methods:
        if method == "exact":
            estimates[method] = exact_z(queries, emb)
        elif method == "mixture":
            labels = kmeans_label(emb, resolved["kappa"], seed=resolved["seed"])
            estimates[method] = approx_z(queries, estimate_mixture(emb, labels))
        else:
            estimates[method] = kernel_z(queries, emb, fmap, method)

    out_dir = _out_dir(resolved)
    for method, est in estimates.items():
        eio.save_table_csv(
            out_dir / f"z_{method}.csv",
            zip(idx.tolist(), est.values),
            header=["index", "z"],
        )
    if "exact" in estimates:
        for method, est in estimates.items():
            if method == "exact":
                continue
            table = error_cdf(estimates["exact"], est)
            eio.save_table_csv(
                out_dir / f"error_cdf_{method}.csv",
                table,
                header=["relative_error", "cumulative_fraction"],
            )
    return out_dir


def _run_fit(resolved: dict, exact: bool) -> Path:
    from . import io as eio
    from .mixture import check_kappa
    from .optimizer import LOG_COLUMNS, fit, fit_exact

    cfg = _optimizer_config(resolved)
    every = check_whole(resolved.get("checkpoint-every", 0), "--checkpoint-every", 0)
    # The reader checks that the operator is row-stochastic.
    chain = eio.load_operator(resolved["operator"])
    check_kappa(cfg.kappa, chain.shape[0], "the operator")

    on_epoch = None
    if every:
        def on_epoch(t, X):
            if (t + 1) % every == 0:
                eio.save_dense_binary(_out_dir(resolved) / f"embedding_epoch{t + 1:04d}.edr1", X)

    result = (fit_exact if exact else fit)(chain, cfg, on_epoch=on_epoch)
    out_dir = _out_dir(resolved)
    eio.save_dense_binary(out_dir / "embedding.edr1", result.X)
    eio.save_table_csv(
        out_dir / "training_log.csv",
        [(int(epoch), eta, al, xl) for epoch, eta, al, xl in result.log],
        header=list(LOG_COLUMNS),
    )
    eio.save_labels(out_dir / "labels.txt", result.labels)
    return out_dir


def _cmd_dcsbm_bench(resolved: dict) -> Path:
    from . import io as eio
    from .evaluate import dcsbm_benchmark

    alphas = _comma_list(resolved, "alphas", float)
    check_whole(resolved["seeds"], "--seeds", 1)
    # The benchmark checks its whole grid before it samples a graph.
    rows = dcsbm_benchmark(
        n=resolved["n"],
        q=resolved["q"],
        c=resolved["c"],
        alphas=alphas,
        seeds=range(resolved["seed"], resolved["seed"] + resolved["seeds"]),
        w=resolved["w"],
        cfg=_optimizer_config(resolved),
        theta_recipe=resolved["theta-recipe"],
    )
    out_dir = _out_dir(resolved)
    eio.save_table_csv(
        out_dir / "bench.csv", rows, header=["alpha", "seed", "nmi", "wall_time"]
    )
    return out_dir


def _cmd_deviation(resolved: dict) -> Path:
    from . import io as eio
    from .evaluate import deviation_ct
    from .graphs import negative_binomial_graph
    from .matstore import as_chain, row_normalize
    from .mixture import check_kappa
    from .optimizer import fit, fit_exact

    kappas = _comma_list(resolved, "kappas", int)
    reference_cfg = _optimizer_config(resolved)
    configs = [_optimizer_config(resolved, kappa) for kappa in kappas]
    for kappa in kappas:
        check_kappa(kappa, resolved["n"], "the comparison graph")
    # One chain serves every run: it is validated, and its transpose
    # built, once.
    operator = as_chain(
        row_normalize(
            negative_binomial_graph(
                resolved["n"], r=resolved["nb-r"], p=resolved["nb-p"], seed=resolved["seed"]
            )
        )
    )
    reference = fit_exact(operator, reference_cfg, record_trajectory=True)
    rows = []
    for cfg in configs:
        run = fit(operator, cfg, record_trajectory=True)
        ct = deviation_ct(run.trajectory, reference.trajectory)
        rows += [(cfg.kappa, epoch, value) for epoch, value in enumerate(ct)]
    out_dir = _out_dir(resolved)
    eio.save_table_csv(out_dir / "deviation.csv", rows, header=["kappa", "epoch", "ct"])
    return out_dir


def _cmd_supra(resolved: dict) -> Path:
    from . import io as eio
    from .graphs import supra_adjacency

    edges = eio.load_temporal_csv(resolved["input"])
    graph = supra_adjacency(edges)
    if not graph.is_time_respecting():
        raise NumericError("supra graph violates time ordering; this is a bug")
    out_dir = _out_dir(resolved)
    eio.save_sparse_mm(out_dir / "supra.mtx", graph.adjacency)
    eio.save_table_csv(
        out_dir / "supra_nodes.csv",
        [(k, node, t) for k, (node, t) in enumerate(graph.nodes.tolist())],
        header=["index", "node", "time"],
    )
    print(
        f"supra graph: {graph.n_nodes} temporal nodes, "
        f"{graph.adjacency.nnz} edges, time-respecting order verified"
    )
    return out_dir


def _cmd_concentration(resolved: dict) -> Path:
    import numpy as np

    from . import io as eio
    from .znorm import concentration_probe

    d = check_whole(resolved["d"], "--d", 1)
    m_grid = _comma_list(resolved, "m-grid", int)
    rng = np.random.default_rng(resolved["seed"])
    x = rng.standard_normal(d)
    x /= np.linalg.norm(x)

    def sampler(m, gen):
        Y = gen.standard_normal((m, d))
        return Y / np.linalg.norm(Y, axis=1)[:, None]

    # The probe checks the key counts and repeats before it draws.
    table = concentration_probe(
        sampler, x, m_grid=m_grid, repeats=resolved["repeats"], seed=resolved["seed"]
    )
    out_dir = _out_dir(resolved)
    eio.save_table_csv(out_dir / "concentration.csv", table, header=["m", "mean", "std"])
    return out_dir


_HANDLERS = {
    "estimate-z": _cmd_estimate_z,
    "fit": lambda resolved: _run_fit(resolved, exact=False),
    "fit-exact": lambda resolved: _run_fit(resolved, exact=True),
    "dcsbm-bench": _cmd_dcsbm_bench,
    "deviation": _cmd_deviation,
    "supra": _cmd_supra,
    "concentration": _cmd_concentration,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.threads is not None:
        if args.threads < 1:
            print("edrep: error: --threads must be positive", file=sys.stderr)
            return EXIT_USAGE
        for var in _THREAD_VARS:
            os.environ[var] = str(args.threads)

    try:
        resolved = _resolve(args.command, args)
        out_dir = _HANDLERS[args.command](resolved)
        _write_manifest(out_dir, args.command, resolved)
        return EXIT_OK
    except _UsageError as exc:
        print(f"edrep: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValidationError as exc:
        print(f"edrep: validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except NumericError as exc:
        print(f"edrep: numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except MemoryError as exc:
        print(f"edrep: validation error: cannot allocate: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        # An error on opening names its file; one while writing only the error.
        path = exc.filename or resolved["out"]
        print(f"edrep: validation error: cannot write {path}: {exc.strerror or exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
