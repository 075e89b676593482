"""Subcommand contracts: exit codes, outputs, determinism, config resolution."""

import os

import numpy as np
import pytest
import scipy.io as spio
import scipy.sparse as sp

from edrep import cli, evaluate, graphs, optimizer, znorm
from edrep import io as eio
from edrep.cli import EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, EXIT_VALIDATION, main
from edrep.matstore import product_threads, row_normalize


@pytest.fixture
def embedding_csv(tmp_path):
    X = np.random.default_rng(0).standard_normal((100, 8)) * 0.4
    path = tmp_path / "emb.csv"
    eio.save_dense_csv(path, X)
    return path


@pytest.fixture
def operator_mtx(tmp_path):
    P = row_normalize(
        sp.random(200, 200, density=0.05, random_state=1, format="csr") + sp.eye(200)
    )
    path = tmp_path / "P.mtx"
    eio.save_sparse_mm(path, P)
    return path


def run(*argv):
    return main([str(a) for a in argv])


class TestEstimateZ:
    def test_mixture_smoke_produces_outputs(self, embedding_csv, tmp_path):
        out = tmp_path / "out"
        code = run(
            "estimate-z", "--embedding", embedding_csv, "--methods", "exact,mixture",
            "--kappa", 1, "--out", out, "--seed", 3,
        )
        assert code == EXIT_OK
        assert (out / "z_exact.csv").exists()
        assert (out / "z_mixture.csv").exists()
        assert (out / "error_cdf_mixture.csv").exists()
        assert (out / "run_config.txt").exists()

    def test_default_sample_count_is_one_thousand(self, embedding_csv, tmp_path):
        out = tmp_path / "out"
        run("estimate-z", "--embedding", embedding_csv, "--out", out)
        manifest = (out / "run_config.txt").read_text()
        assert "samples = 1000" in manifest

    def test_reruns_are_byte_identical(self, embedding_csv, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            code = run(
                "estimate-z", "--embedding", embedding_csv,
                "--methods", "exact,mixture,performer,rfa",
                "--features", 64, "--out", out, "--seed", 5,
            )
            assert code == EXIT_OK
        for name in ("z_exact.csv", "z_mixture.csv", "z_performer.csv",
                     "error_cdf_rfa.csv"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_unreadable_embedding_exits_nonzero_without_outputs(self, tmp_path):
        out = tmp_path / "out"
        code = run(
            "estimate-z", "--embedding", tmp_path / "missing.csv", "--out", out
        )
        assert code == EXIT_VALIDATION
        assert not out.exists()

    def test_unknown_method_is_a_validation_error(self, embedding_csv, tmp_path):
        code = run(
            "estimate-z", "--embedding", embedding_csv,
            "--methods", "exact,nystrom", "--out", tmp_path / "o",
        )
        assert code == EXIT_VALIDATION


class TestFit:
    def test_fit_with_defaults_writes_unit_row_embedding(self, operator_mtx, tmp_path):
        out = tmp_path / "run"
        code = run("fit", "--operator", operator_mtx, "--out", out, "--seed", 2)
        assert code == EXIT_OK
        X = eio.load_dense_binary(out / "embedding.edr1")
        assert X.shape == (200, 32)
        assert np.abs(np.linalg.norm(X, axis=1) - 1.0).max() <= 1e-10
        log = (out / "training_log.csv").read_text().splitlines()
        assert log[0] == "epoch,eta,approx_loss,exact_loss"
        assert len(log) == 1 + 25 + 1  # header, default epochs, final row

    def test_missing_operator_exits_without_partial_outputs(self, tmp_path):
        out = tmp_path / "run"
        code = run("fit", "--operator", tmp_path / "nope.mtx", "--out", out)
        assert code == EXIT_VALIDATION
        assert not out.exists()

    def test_same_seed_gives_identical_embedding_bytes(self, operator_mtx, tmp_path):
        blobs = []
        for name in ("a", "b"):
            out = tmp_path / name
            code = run(
                "fit", "--operator", operator_mtx, "--dim", 6, "--epochs", 4,
                "--out", out, "--seed", 11,
            )
            assert code == EXIT_OK
            blobs.append((out / "embedding.edr1").read_bytes())
        assert blobs[0] == blobs[1]

    def test_checkpoints_written_on_schedule(self, operator_mtx, tmp_path):
        out = tmp_path / "run"
        run(
            "fit", "--operator", operator_mtx, "--dim", 4, "--epochs", 4,
            "--checkpoint-every", 2, "--out", out,
        )
        assert (out / "embedding_epoch0002.edr1").exists()
        assert (out / "embedding_epoch0004.edr1").exists()

    def test_chain_manifest_operator(self, operator_mtx, tmp_path):
        manifest = operator_mtx.parent / "chain.json"
        manifest.write_text(
            '{"factors": ["P.mtx", "P.mtx"], "weights": [0.5, 0.5]}'
        )
        out = tmp_path / "run"
        code = run(
            "fit", "--operator", manifest, "--dim", 4, "--epochs", 3, "--out", out
        )
        assert code == EXIT_OK

    def test_fit_exact_smoke(self, operator_mtx, tmp_path):
        out = tmp_path / "run"
        code = run(
            "fit-exact", "--operator", operator_mtx, "--dim", 4, "--epochs", 3,
            "--out", out,
        )
        assert code == EXIT_OK
        X = eio.load_dense_binary(out / "embedding.edr1")
        assert np.abs(np.linalg.norm(X, axis=1) - 1.0).max() <= 1e-10

    @pytest.mark.parametrize(
        "command", [("fit", "--kappa", 2), ("fit-exact",)], ids=["fit", "fit-exact"]
    )
    def test_operator_validated_once(self, command, operator_mtx, tmp_path, validation_calls):
        code = run(
            *command, "--operator", operator_mtx, "--dim", 4, "--epochs", 2,
            "--out", tmp_path / "run",
        )
        assert code == EXIT_OK
        assert len(validation_calls) == 1

    def test_non_stochastic_operator_reports_rows(self, tmp_path, capsys):
        bad = sp.csr_matrix(np.array([[0.5, 0.5], [0.4, 0.4]]))
        path = tmp_path / "bad.mtx"
        eio.save_sparse_mm(path, bad)
        code = run("fit", "--operator", path, "--out", tmp_path / "o")
        assert code == EXIT_VALIDATION
        assert "row-stochastic" in capsys.readouterr().err

    def test_complex_operator_rejected(self, tmp_path, capsys):
        """A complex MatrixMarket operator whose real part is
        row-stochastic used to train on that real part and exit 0."""
        P = sp.csr_matrix(np.array([[0.5 + 5j, 0.5], [0.25, 0.75 - 7j]]))
        path = tmp_path / "complex.mtx"
        spio.mmwrite(str(path), P)
        code = run("fit", "--operator", path, "--dim", 2, "--out", tmp_path / "o")
        assert code == EXIT_VALIDATION
        assert "must hold real numbers, got dtype complex128" in capsys.readouterr().err


class TestDcsbmBench:
    def test_one_alpha_runs_one_row_per_seed(self, tmp_path):
        out = tmp_path / "bench"
        code = run(
            "dcsbm-bench", "--n", 300, "--q", 2, "--c", 8, "--alphas", "2.5",
            "--seeds", 2, "--epochs", 5, "--dim", 8, "--theta-recipe", "unit",
            "--out", out,
        )
        assert code == EXIT_OK
        rows = (out / "bench.csv").read_text().splitlines()
        assert rows[0] == "alpha,seed,nmi,wall_time"
        assert len(rows) == 3

    def test_undetectable_hardness_rows_score_near_zero(self, tmp_path):
        out = tmp_path / "bench"
        code = run(
            "dcsbm-bench", "--n", 300, "--q", 2, "--c", 8, "--alphas", "0.5",
            "--seeds", 3, "--epochs", 5, "--dim", 8, "--theta-recipe", "unit",
            "--out", out,
        )
        assert code == EXIT_OK
        for line in (out / "bench.csv").read_text().splitlines()[1:]:
            assert float(line.split(",")[2]) < 0.05

    def test_nmi_column_deterministic_across_reruns(self, tmp_path):
        tables = []
        for name in ("a", "b"):
            out = tmp_path / name
            run(
                "dcsbm-bench", "--n", 200, "--q", 2, "--c", 8, "--alphas", "2.0",
                "--seeds", 2, "--epochs", 4, "--dim", 6, "--theta-recipe", "unit",
                "--out", out,
            )
            lines = (out / "bench.csv").read_text().splitlines()[1:]
            tables.append([line.rsplit(",", 1)[0] for line in lines])  # drop wall time
        assert tables[0] == tables[1]


class TestSupra:
    def test_toy_contacts_give_four_by_four_matrix(self, tmp_path, capsys):
        src = tmp_path / "edges.csv"
        src.write_text("1,2,1,1.0\n1,2,2,2.0\n")
        out = tmp_path / "out"
        code = run("supra", "--input", src, "--out", out)
        assert code == EXIT_OK
        A = eio.load_sparse_mm(out / "supra.mtx")
        assert A.shape == (4, 4)
        assert "time-respecting order verified" in capsys.readouterr().out

    def test_empty_input_is_an_error(self, tmp_path):
        src = tmp_path / "edges.csv"
        src.write_text("")
        code = run("supra", "--input", src, "--out", tmp_path / "out")
        assert code == EXIT_VALIDATION


@pytest.mark.parametrize("under", ["", "x"], ids=["file", "under-file"])
@pytest.mark.parametrize("command", ["supra", "fit"])
def test_out_that_cannot_be_a_directory_is_a_validation_error(
    command, under, operator_mtx, tmp_path, capsys
):
    """An --out that is a file, or a path under one, is refused before
    any work starts; a fit would otherwise die at its first checkpoint."""
    src = tmp_path / "edges.csv"
    src.write_text("1,2,1,1.0\n")
    afile = tmp_path / "afile"
    afile.write_text("keep\n")
    argv = {
        "supra": ("supra", "--input", src),
        "fit": ("fit", "--operator", operator_mtx, "--epochs", 2, "--checkpoint-every", 1),
    }[command]
    before = sorted(tmp_path.rglob("*"))
    assert run(*argv, "--out", afile / under) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert "validation error" in err and str(afile) in err and "Traceback" not in err
    assert sorted(tmp_path.rglob("*")) == before and afile.read_text() == "keep\n"


def test_failed_write_is_one_line_naming_the_path(tmp_path, capsys, monkeypatch):
    src = tmp_path / "edges.csv"
    src.write_text("1,2,1,1.0\n")
    target = tmp_path / "out" / "run_config.txt"

    def full_disk(out_dir, command, resolved):
        raise OSError(28, "No space left on device", str(target))

    monkeypatch.setattr(cli, "_write_manifest", full_disk)
    assert run("supra", "--input", src, "--out", tmp_path / "out") == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and str(target) in err and "No space left" in err


@pytest.mark.parametrize(
    "command, option, name, content",
    [
        ("supra", "--input", "edges.csv", b"x,3,1,1.0\n"),
        ("estimate-z", "--embedding", "emb.csv", b"0.1,0.2\nfive,0.3\n"),
        ("estimate-z", "--embedding", "emb.edr1", b"EDR1\x02\x00"),
        ("fit", "--operator", "chain.json", b'{"weights": [1.0]}'),
        ("fit", "--operator", "chain.json", b'["P.mtx"]'),
        ("fit", "--operator", "chain.json", b'{"factors": ["P.mtx"], "weights": ["x"]}'),
        ("fit", "--operator", "chain.json",
         b'{"factors": ["P.mtx", "P.mtx"], "weights": [1.5, -0.5]}'),
        ("fit", "--operator", "chain.json", b'{"factors": ["P\xff.mtx"]}'),
        ("fit", "--operator", "chain.json",
         b'{"factors": ["P.mtx", "P.mtx"], "weights": [[1], [1, 2]]}'),
        ("estimate-z", "--embedding", "emb.csv", b""),
        ("estimate-z", "--embedding", "emb.edr1",
         b"EDR1" + np.array([0, 5], dtype="<u8").tobytes()),
    ],
    ids=["supra-word", "csv-word", "edr1-short", "manifest-no-factors",
         "manifest-list", "manifest-word-weight", "manifest-negative-weight",
         "manifest-not-utf8", "manifest-ragged-weights", "csv-empty", "edr1-no-rows"],
)
def test_malformed_input_file_is_a_validation_error(
    command, option, name, content, operator_mtx, tmp_path, capsys
):
    path = tmp_path / name
    path.write_bytes(content)
    out = tmp_path / "out"
    assert run(command, option, path, "--out", out) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert "validation error" in err and name in err and "Traceback" not in err
    assert not out.exists()


class TestConcentration:
    def test_writes_three_column_table(self, tmp_path):
        out = tmp_path / "out"
        code = run(
            "concentration", "--d", 5, "--m-grid", "50,200", "--repeats", 20,
            "--out", out,
        )
        assert code == EXIT_OK
        lines = (out / "concentration.csv").read_text().splitlines()
        assert lines[0] == "m,mean,std"
        assert len(lines) == 3


class TestDeviation:
    def test_writes_per_epoch_deviation_rows(self, tmp_path):
        out = tmp_path / "out"
        code = run(
            "deviation", "--n", 60, "--kappas", "1,2", "--epochs", 4,
            "--dim", 4, "--out", out,
        )
        assert code == EXIT_OK
        lines = (out / "deviation.csv").read_text().splitlines()
        assert lines[0] == "kappa,epoch,ct"
        assert len(lines) == 1 + 2 * 5  # two runs, epochs 0..4 each

    def test_operator_validated_and_transposed_once(self, tmp_path, validation_calls, monkeypatch):
        from edrep.matstore import ProductChain

        builds = []
        transposes = ProductChain._transposes

        def counting(self):
            if self._transposed is None:
                builds.append(1)
            return transposes(self)

        monkeypatch.setattr(ProductChain, "_transposes", counting)
        code = run(
            "deviation", "--n", 40, "--kappas", "1,2,4", "--epochs", 2,
            "--dim", 3, "--out", tmp_path / "out",
        )
        assert code == EXIT_OK
        assert len(validation_calls) == 1
        assert len(builds) == 1


class TestConfigResolution:
    def test_flags_override_config_file(self, embedding_csv, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("methods = mixture\nkappa = 2\nsamples = 50\n")
        out = tmp_path / "out"
        code = run(
            "estimate-z", "--embedding", embedding_csv, "--config", cfg,
            "--kappa", 1, "--out", out,
        )
        assert code == EXIT_OK
        manifest = (out / "run_config.txt").read_text()
        assert "kappa = 1" in manifest  # flag wins
        assert "samples = 50" in manifest  # config beats default

    def test_unknown_config_key_is_usage_error(self, embedding_csv, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("granularity = 3\n")
        code = run(
            "estimate-z", "--embedding", embedding_csv, "--config", cfg,
            "--out", tmp_path / "o",
        )
        assert code == EXIT_USAGE

    def test_config_that_is_not_utf8_is_usage_error(self, embedding_csv, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(b"seed = \xff\n")
        out = tmp_path / "o"
        code = run("estimate-z", "--embedding", embedding_csv, "--config", cfg, "--out", out)
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert "bad.cfg" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "text, match",
        [("samples\n", "expected key = value"), ("samples = many\n", "config key 'samples'")],
        ids=["no-equals", "unparsable-value"],
    )
    def test_malformed_config_line_is_usage_error(
        self, text, match, embedding_csv, tmp_path, capsys
    ):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text)
        out = tmp_path / "o"
        code = run("estimate-z", "--embedding", embedding_csv, "--config", cfg, "--out", out)
        assert code == EXIT_USAGE
        assert match in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, line",
        [("estimate-z", "embedding = a\0.edr1"), ("supra", "out = o\0b")],
        ids=["estimate-z-embedding", "supra-out"],
    )
    def test_nul_byte_in_config_is_usage_error(self, command, line, tmp_path, capsys, monkeypatch):
        """No flag or environment variable can carry a NUL, so the config
        reader is the one place that rejects it, before open or mkdir would."""
        monkeypatch.chdir(tmp_path)
        (tmp_path / "edges.csv").write_text("1,2,1,1.0\n")
        (tmp_path / "run.cfg").write_text(line + "\n")
        argv = {"estimate-z": ("--out", "o"), "supra": ("--input", "edges.csv")}[command]
        assert run(command, "--config", "run.cfg", *argv) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("edrep: error: run.cfg:1:") and err.count("\n") == 1, err
        assert sorted(os.listdir(tmp_path)) == ["edges.csv", "run.cfg"]

    def test_config_skips_blank_and_comment_lines(self, embedding_csv, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# methods = exact\n\n   \nmethods = mixture\n")
        out = tmp_path / "out"
        code = run("estimate-z", "--embedding", embedding_csv, "--config", cfg, "--out", out)
        assert code == EXIT_OK
        assert "methods = mixture" in (out / "run_config.txt").read_text()

    def test_unknown_flag_is_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run("fit", "--operatr", "P.mtx", "--out", tmp_path / "o")
        assert exc.value.code == EXIT_USAGE
        assert "--operatr" in capsys.readouterr().err

    def test_missing_required_option_is_usage_error(self, tmp_path):
        assert run("estimate-z", "--out", tmp_path / "o") == EXIT_USAGE

    def test_env_seed_is_default(self, embedding_csv, tmp_path, monkeypatch):
        monkeypatch.setenv("EDREP_SEED", "17")
        out = tmp_path / "out"
        run("estimate-z", "--embedding", embedding_csv, "--methods", "mixture",
            "--out", out)
        assert "seed = 17" in (out / "run_config.txt").read_text()

    def test_non_integer_env_seed_is_usage_error(
        self, embedding_csv, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.setenv("EDREP_SEED", "seven")
        code = run("estimate-z", "--embedding", embedding_csv, "--out", tmp_path / "o")
        assert code == EXIT_USAGE
        assert "EDREP_SEED is not an integer" in capsys.readouterr().err

    def test_thread_flag_sets_every_cap(self, embedding_csv, tmp_path, monkeypatch):
        for var in cli._THREAD_VARS:
            monkeypatch.setenv(var, "7")
        code = run(
            "estimate-z", "--embedding", embedding_csv, "--methods", "mixture",
            "--out", tmp_path / "o", "--threads", 1,
        )
        assert code == EXIT_OK
        assert [os.environ[var] for var in cli._THREAD_VARS] == ["1"] * 4
        assert product_threads() == 1

    def test_thread_flag_must_be_positive(self, embedding_csv, tmp_path):
        code = run(
            "estimate-z", "--embedding", embedding_csv, "--out", tmp_path / "o",
            "--threads", 0,
        )
        assert code == EXIT_USAGE

    def test_writes_stay_inside_output_directory(self, tmp_path, monkeypatch):
        workdir = tmp_path / "cwd"
        workdir.mkdir()
        monkeypatch.chdir(workdir)
        X = np.random.default_rng(1).standard_normal((30, 4)) * 0.3
        eio.save_dense_csv(workdir / "emb.csv", X)
        before = {p.name for p in workdir.iterdir()}
        code = run(
            "estimate-z", "--embedding", "emb.csv", "--methods", "mixture",
            "--samples", 10, "--out", "results",
        )
        assert code == EXIT_OK
        after = {p.name for p in workdir.iterdir()}
        assert after - before == {"results"}

    def test_overflow_maps_to_numeric_exit(self, tmp_path, capsys):
        """The exact method's guard rejects these scalar products; the
        mixture's Z overflows.  Neither run may warn before its one error
        line."""
        X = np.full((3, 2), 30.0)
        path = tmp_path / "big.csv"
        eio.save_dense_csv(path, X)
        for method in ("exact", "mixture"):
            code = run(
                "estimate-z", "--embedding", path, "--methods", method,
                "--out", tmp_path / method,
            )
            assert code == EXIT_NUMERIC, method
            err = capsys.readouterr().err
            assert err.startswith("edrep: numeric error:") and err.count("\n") == 1, err

    @pytest.mark.parametrize(
        "argv",
        [
            ("estimate-z", "--samples", -1),
            ("estimate-z", "--samples", 0),
            ("deviation", "--nb-r", 0),
            ("deviation", "--nb-p", 1.5),
            ("deviation", "--nb-p", 0),
            ("deviation", "--nb-p", 1),
            ("concentration", "--d", 0),
            ("dcsbm-bench", "--seeds", 0),
            ("dcsbm-bench", "--alphas", ","),
            ("deviation", "--kappas", ","),
            ("deviation", "--n", 0),
            ("concentration", "--m-grid", ","),
            ("concentration", "--m-grid", 0),
            ("concentration", "--m-grid", -5),
            ("deviation", "--n", 20, "--nb-p", 1e-20),
        ],
        ids=["samples-negative", "samples-zero", "nb-r-zero", "nb-p-above-one",
             "nb-p-zero", "nb-p-one", "d-zero", "seeds-zero", "alphas-empty", "kappas-empty",
             "n-zero", "m-grid-empty", "m-grid-zero", "m-grid-negative", "nb-p-beyond-numpy"],
    )
    def test_out_of_range_number_is_a_validation_error(
        self, argv, embedding_csv, tmp_path, capsys
    ):
        out = tmp_path / "out"
        extra = ("--embedding", embedding_csv) if argv[0] == "estimate-z" else ()
        code = run(*argv, *extra, "--out", out)
        assert code == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("edrep: validation error:") and err.count("\n") == 1, err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [("dcsbm-bench", "--alphas", "1,x"), ("deviation", "--kappas", "1,y")],
        ids=["alphas", "kappas"],
    )
    def test_unparsable_list_item_is_a_usage_error(self, argv, tmp_path, capsys):
        out = tmp_path / "out"
        assert run(*argv, "--out", out) == EXIT_USAGE
        err = capsys.readouterr().err
        assert f"{argv[1]}:" in err and "Traceback" not in err
        assert not out.exists()


_EXPENSIVE = ("fit", "fit_exact", "dcsbm_sample", "negative_binomial_graph", "exact_z")


@pytest.fixture
def expensive_calls(monkeypatch):
    """A list that gains the name of every call to one of the expensive
    library functions, wherever a module has imported it."""
    calls = []
    for name in _EXPENSIVE:
        for module in (optimizer, evaluate, graphs, znorm):
            original = getattr(module, name, None)
            if original is None:
                continue

            def counting(*args, _name=name, _original=original, **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, name, counting)
    return calls


_GRID = ("--n", 600, "--theta-recipe", "unit", "--seeds", 1, "--epochs", 2, "--dim", 4)


@pytest.mark.parametrize(
    "argv",
    [
        ("deviation", "--n", 200, "--kappas", "1,0"),
        ("dcsbm-bench", *_GRID, "--alphas", "1,-2"),
        ("dcsbm-bench", *_GRID, "--alphas", "1", "--w", 0),
        ("estimate-z", "--methods", "exact,performer", "--features", 0),
        ("estimate-z", "--methods", "exact,mixture", "--kappa", 0),
        ("estimate-z", "--methods", ","),
        ("fit", "--checkpoint-every", -1),
        ("fit", "--kappa", 201),
        ("dcsbm-bench", *_GRID, "--alphas", "1", "--kappa", 601),
        ("deviation", "--n", 20, "--kappas", "1,21"),
        ("estimate-z", "--methods", "exact,mixture", "--kappa", 101),
        ("estimate-z", "--methods", "performer", "--features", 2, "--kappa", -5),
        ("estimate-z", "--methods", "exact", "--features", -3),
        ("dcsbm-bench", *_GRID, "--alphas", "1,4"),
        ("dcsbm-bench", *_GRID, "--alphas", "1", "--c", "nan"),
        ("dcsbm-bench", *_GRID, "--alphas", "1", "--c", "inf"),
        ("dcsbm-bench", *_GRID, "--alphas", "nan"),
        ("dcsbm-bench", *_GRID, "--alphas", "1", "--c", "1e308"),
        ("dcsbm-bench", *_GRID, "--q", 600, "--c", 0.5, "--alphas", "0.1"),
        ("fit", "--dim", 0),
        ("fit", "--epochs", 0),
        ("fit", "--seed", -1),
        ("dcsbm-bench", *_GRID, "--alphas", "1", "--seed", -1),
        ("estimate-z", "--methods", "exact", "--seed", -1),
        ("deviation", "--n", 200, "--seed", -1),
        ("concentration", "--m-grid", 10, "--repeats", 2, "--seed", -1),
    ],
    ids=["deviation-kappa-zero", "dcsbm-alpha-negative", "dcsbm-window-zero",
         "estimate-z-features-zero", "estimate-z-kappa-zero", "estimate-z-no-method",
         "fit-checkpoint-negative", "fit-kappa-above-rows", "dcsbm-kappa-above-n",
         "deviation-kappa-above-n", "estimate-z-kappa-above-rows",
         "estimate-z-unused-kappa-negative", "estimate-z-unused-features-negative",
         "dcsbm-late-alpha-needs-negative-c-out", "dcsbm-c-nan", "dcsbm-c-inf",
         "dcsbm-alpha-nan", "dcsbm-c-overflow", "dcsbm-q-near-n", "fit-dim-zero", "fit-epochs-zero", "fit-seed-negative",
         "dcsbm-seed-negative", "estimate-z-seed-negative", "deviation-seed-negative",
         "concentration-seed-negative"],
)
def test_every_option_is_checked_before_any_work(
    argv, embedding_csv, operator_mtx, expensive_calls, tmp_path, capsys
):
    inputs = {"estimate-z": ("--embedding", embedding_csv), "fit": ("--operator", operator_mtx)}
    out = tmp_path / "out"
    code = run(*argv, *inputs.get(argv[0], ()), "--out", out)
    assert code == EXIT_VALIDATION, capsys.readouterr().err
    assert expensive_calls == []
    assert not out.exists()


@pytest.mark.parametrize("source", ["env", "config"])
def test_negative_seed_from_env_or_config_fails_before_any_work(
    source, expensive_calls, tmp_path, monkeypatch, capsys
):
    argv = ("deviation", "--n", 200)
    if source == "env":
        monkeypatch.setenv("EDREP_SEED", "-1")
    else:
        config = tmp_path / "run.cfg"
        config.write_text("seed = -1\n")
        argv += ("--config", config)
    out = tmp_path / "out"
    assert run(*argv, "--out", out) == EXIT_VALIDATION
    assert "seed must be non-negative, got -1" in capsys.readouterr().err
    assert expensive_calls == []
    assert not out.exists()


def _read_cases(embedding, operator, tmp_path):
    edges = tmp_path / "edges.csv"
    edges.write_text("1,2,1,1.0\n1,2,2,2.0\n")
    training = ("--dim", 3, "--epochs", 2, "--eta0", 0.5)
    return {
        "estimate-z": ("--embedding", embedding, "--methods", "exact,mixture,performer,rfa",
                       "--kappa", 2, "--features", 16, "--samples", 10),
        "fit": ("--operator", operator, *training, "--kappa", 2, "--checkpoint-every", 1),
        "fit-exact": ("--operator", operator, *training),
        "dcsbm-bench": ("--n", 100, "--q", 2, "--c", 8, "--alphas", "2", "--seeds", 1,
                        "--w", 2, "--theta-recipe", "unit", *training, "--kappa", 1),
        "deviation": ("--n", 40, "--kappas", "1,2", "--nb-r", 3, "--nb-p", 0.3, *training),
        "supra": ("--input", edges),
        "concentration": ("--d", 3, "--m-grid", "10,20", "--repeats", 5),
    }


@pytest.mark.parametrize("command", list(cli._OPTION_TABLES))
def test_every_option_is_read(command, embedding_csv, operator_mtx, tmp_path, monkeypatch):
    """A run that sets every option of a subcommand reads every one of
    them: an option that no code reads must not be settable."""
    seen = set()

    class Recording(dict):
        def __getitem__(self, key):
            seen.add(key)
            return super().__getitem__(key)

        def get(self, key, default=None):
            seen.add(key)
            return super().get(key, default)

    handler = cli._HANDLERS[command]
    monkeypatch.setitem(cli._HANDLERS, command, lambda resolved: handler(Recording(resolved)))
    # Listing the options in run_config.txt is not a read.
    write = cli._write_manifest
    monkeypatch.setattr(
        cli, "_write_manifest",
        lambda out_dir, name, resolved: write(out_dir, name, dict(resolved.items())),
    )
    argv = _read_cases(embedding_csv, operator_mtx, tmp_path)[command]
    assert run(command, *argv, "--out", tmp_path / "out") == EXIT_OK
    assert sorted(set(cli._OPTION_TABLES[command]) - seen) == []
