import dataclasses
import hashlib
import json
import time

import numpy as np
import pytest

from topic_compose import (
    PaddConfig,
    TliConfig,
    normalize_corpus,
    read_composition_tsv,
    read_corpus_tsv,
    write_corpus_tsv,
    write_dense_tsv,
)
from topic_compose.cli import main

from conftest import random_corpus, random_model, write_model


def run(*argv):
    return main([str(a) for a in argv])


def digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def model_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("model")
    write_model(d, random_model(N=12, K=3, seed=11))
    return d


@pytest.fixture(scope="module")
def corpus_path(tmp_path_factory):
    d = tmp_path_factory.mktemp("corpus")
    p = d / "corpus.tsv"
    write_corpus_tsv(str(p), random_corpus(N=12, M=20, seed=5))
    return p


class TestSynth:
    def test_writes_outputs_and_manifest(self, model_dir, tmp_path):
        out = tmp_path / "synth"
        assert run("synth", "--model", model_dir, "--out", out,
                   "--docs", 15, "--len", "30", "--seed", 3) == 0
        for name in ("corpus.tsv", "Wstar.tsv", "Astar.tsv", "manifest.json"):
            assert (out / name).exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["subcommand"] == "synth"
        assert manifest["seed"] == 3
        assert manifest["config"]["docs"] == 15
        assert sorted(manifest["input_digests"]) == [str(model_dir / "A.tsv"),
                                                     str(model_dir / "B.tsv")]
        assert "corpus.tsv" in manifest["outputs"]
        assert manifest["elapsed_seconds"] >= 0

    def test_same_seed_reproduces_bytes(self, model_dir, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert run("synth", "--model", model_dir, "--out", out,
                       "--docs", 25, "--len", "poisson:20", "--seed", 42) == 0
            outs.append(out)
        for fname in ("corpus.tsv", "Wstar.tsv", "Astar.tsv"):
            assert digest(outs[0] / fname) == digest(outs[1] / fname)

    def test_different_seed_differs(self, model_dir, tmp_path):
        for seed, name in ((1, "a"), (2, "b")):
            assert run("synth", "--model", model_dir, "--out", tmp_path / name,
                       "--docs", 25, "--seed", seed) == 0
        assert digest(tmp_path / "a" / "corpus.tsv") != digest(tmp_path / "b" / "corpus.tsv")

    def test_logistic_normal_requires_mu_sigma(self, model_dir, tmp_path, capsys):
        code = run("synth", "--model", model_dir, "--out", tmp_path / "o",
                   "--docs", 5, "--prior", "logistic-normal")
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_logistic_normal_from_files(self, model_dir, tmp_path):
        mu = tmp_path / "mu.tsv"
        sigma = tmp_path / "sigma.tsv"
        write_dense_tsv(str(mu), np.zeros((3, 1)))
        write_dense_tsv(str(sigma), np.eye(3) * 0.4)
        out = tmp_path / "ln"
        assert run("synth", "--model", model_dir, "--out", out, "--docs", 10,
                   "--prior", "logistic-normal", "--mu", mu, "--sigma", sigma) == 0
        corpus = read_corpus_tsv(str(out / "corpus.tsv"))
        assert corpus.M == 10
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["input_digests"][str(mu)] == digest(mu)

    def test_indefinite_sigma_is_runtime_error_without_output(self, model_dir, tmp_path,
                                                               capsys):
        mu, sigma = tmp_path / "mu.tsv", tmp_path / "sigma.tsv"
        write_dense_tsv(str(mu), np.zeros((3, 1)))
        write_dense_tsv(str(sigma), np.diag([1.0, 1.0, -1.0]))
        assert run("synth", "--model", model_dir, "--out", tmp_path / "o", "--docs", 5,
                   "--prior", "logistic-normal", "--mu", mu, "--sigma", sigma) == 1
        assert "semidefinite" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_missing_model_flag_is_usage_error(self, tmp_path):
        assert run("synth", "--out", tmp_path / "o", "--docs", 5) == 2

    def test_zero_docs_is_usage_error(self, model_dir, tmp_path):
        assert run("synth", "--model", model_dir, "--out", tmp_path / "o",
                   "--docs", 0) == 2


class TestInfer:
    def test_spi_identity_model_returns_word_frequencies(self, tmp_path, identity_model):
        mdir = tmp_path / "model"
        write_model(mdir, identity_model(4))
        corpus = random_corpus(N=4, M=9, seed=2)
        cpath = tmp_path / "corpus.tsv"
        write_corpus_tsv(str(cpath), corpus)
        out = tmp_path / "spi"
        assert run("infer", "--method", "spi", "--model", mdir,
                   "--corpus", cpath, "--out", out) == 0
        W = read_composition_tsv(str(out / "W.tsv"))
        np.testing.assert_allclose(W.W, normalize_corpus(corpus).toarray(), atol=1e-12)

    def test_tli_manifest_records_inverse_magnitude(self, model_dir, corpus_path, tmp_path):
        out = tmp_path / "tli"
        assert run("infer", "--method", "tli", "--model", model_dir,
                   "--corpus", corpus_path, "--out", out) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["method"] == "tli"
        assert manifest["config"]["inverse_magnitude"] >= 1.0
        assert 0.0 <= manifest["config"]["inverse_bias"] <= 1e-6
        W = read_composition_tsv(str(out / "W.tsv"))
        np.testing.assert_allclose(W.W.sum(axis=0), 1.0, atol=1e-9)

    def test_padd_writes_diagnostics(self, model_dir, corpus_path, tmp_path):
        out = tmp_path / "padd"
        assert run("infer", "--method", "padd", "--model", model_dir,
                   "--corpus", corpus_path, "--out", out,
                   "--master-iters", 3) == 0
        diag = (out / "diagnostics.tsv").read_text().splitlines()
        assert diag[0] == ("round\ttau\tconstraint_gap\tmean_loss\tdual_norm\t"
                           "mean_final_step\tdocs_converged\tprox_min_eig")
        assert len(diag) == 4
        manifest = json.loads((out / "manifest.json").read_text())
        assert "diagnostics.tsv" in manifest["outputs"]
        assert manifest["config"]["master_iters"] == 3
        assert manifest["config"]["slave_tol"] == PaddConfig().slave_tol
        assert "relaxation" not in manifest["config"]
        assert "dual_stop_tol" not in manifest["config"]

    def test_padd_zero_master_iters_is_usage_error(self, model_dir, corpus_path, tmp_path):
        assert run("infer", "--method", "padd", "--model", model_dir,
                   "--corpus", corpus_path, "--out", tmp_path / "o",
                   "--master-iters", 0) == 2

    @pytest.mark.parametrize("flag", [("--tau-schedule", "constant"),
                                      ("--ridge-eps", "1e-8"),
                                      ("--warm-start-previous",),
                                      ("--gamma", "3.0"),
                                      ("--lambda", "1.5"),
                                      ("--slave-iters", "40")])
    def test_padd_removed_flags_are_usage_errors(self, model_dir, corpus_path,
                                                 tmp_path, flag):
        assert run("infer", "--method", "padd", "--model", model_dir,
                   "--corpus", corpus_path, "--out", tmp_path / "o", *flag) == 2

    def test_tli_removed_solver_flag_is_usage_error(self, model_dir, corpus_path, tmp_path):
        assert run("infer", "--method", "tli", "--model", model_dir, "--corpus", corpus_path,
                   "--out", tmp_path / "o", "--tli-solver", "lp") == 2

    def test_padd_indefinite_prox_is_runtime_error(self, model_dir, corpus_path,
                                                   tmp_path, capsys):
        code = run("infer", "--method", "padd", "--model", model_dir,
                   "--corpus", corpus_path, "--out", tmp_path / "o",
                   "--tau0", "1e4", "--master-iters", 6)
        assert code == 1
        assert "positive definite" in capsys.readouterr().err

    def test_padd_indefinite_slave_quadratic_is_runtime_error(
            self, model_dir, corpus_path, tmp_path, capsys):
        # Q turns indefinite at round 2 while Q + I stays positive definite
        code = run("infer", "--method", "padd", "--model", model_dir,
                   "--corpus", corpus_path, "--out", tmp_path / "o",
                   "--tau0", "30", "--master-iters", 6)
        assert code == 1
        assert "Q at master round 2 is not positive definite" in capsys.readouterr().err

    def test_rand_is_seeded(self, model_dir, corpus_path, tmp_path):
        for name in ("a", "b"):
            assert run("infer", "--method", "rand", "--model", model_dir,
                       "--corpus", corpus_path, "--out", tmp_path / name,
                       "--seed", 7) == 0
        assert digest(tmp_path / "a" / "W.tsv") == digest(tmp_path / "b" / "W.tsv")

    def test_missing_corpus_file_is_runtime_error(self, model_dir, tmp_path, capsys):
        code = run("infer", "--method", "spi", "--model", model_dir,
                   "--corpus", tmp_path / "nope.tsv", "--out", tmp_path / "o")
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_skewed_model_file_is_runtime_error(self, corpus_path, tmp_path, capsys):
        mdir = tmp_path / "model"
        write_model(mdir, random_model(N=12, K=2, seed=11))
        write_dense_tsv(mdir / "A.tsv", [[0.5, 0.5], [0.0, 0.0]])
        code = run("infer", "--method", "spi", "--model", mdir,
                   "--corpus", corpus_path, "--out", tmp_path / "o")
        assert code == 1
        assert str(mdir / "A.tsv") in capsys.readouterr().err

    def test_unknown_method_is_usage_error(self, model_dir, corpus_path, tmp_path):
        assert run("infer", "--method", "magic", "--model", model_dir,
                   "--corpus", corpus_path, "--out", tmp_path / "o") == 2

    def test_vocabulary_mismatch_names_method(self, model_dir, tmp_path, capsys):
        cpath = tmp_path / "corpus.tsv"
        write_corpus_tsv(str(cpath), random_corpus(N=9, M=4, seed=1))
        code = run("infer", "--method", "spi", "--model", model_dir,
                   "--corpus", cpath, "--out", tmp_path / "o")
        assert code == 1
        assert "spi:" in capsys.readouterr().err


class TestEval:
    @pytest.fixture()
    def truth_pred(self, tmp_path):
        rng = np.random.default_rng(0)
        W = rng.dirichlet(np.full(3, 0.5), size=8).T
        tpath = tmp_path / "truth.tsv"
        write_dense_tsv(str(tpath), W)
        return tpath, W

    def test_perfect_prediction(self, truth_pred, tmp_path, identity_model):
        tpath, W = truth_pred
        out = tmp_path / "report.tsv"
        assert run("eval", "--truth", tpath, "--pred", tpath, "--out", out) == 0
        rows = [line.split("\t") for line in out.read_text().splitlines()]
        assert rows[0] == ["metric", "mean", "std"]
        table = {r[0]: float(r[1]) for r in rows[1:]}
        assert table["precision"] == 1.0
        assert table["recall"] == 1.0
        assert table["f1"] == 1.0
        assert table["l1_error"] == 0.0
        assert table["linf_error"] == 0.0
        assert "prior_dist" not in table
        assert (tmp_path / "report.per_doc.tsv").exists()

    def test_report_row_order_is_stable(self, truth_pred, tmp_path):
        tpath, _ = truth_pred
        out = tmp_path / "report.tsv"
        prior = tmp_path / "prior.tsv"
        write_dense_tsv(str(prior), np.eye(3) / 3)
        assert run("eval", "--truth", tpath, "--pred", tpath, "--out", out,
                   "--prior", prior) == 0
        names = [line.split("\t")[0] for line in out.read_text().splitlines()]
        assert names == ["metric", "precision", "recall", "f1", "l1_error",
                         "linf_error", "hellinger", "kl", "nonsupp_mass",
                         "prior_dist"]

    def test_per_doc_rows_are_one_based(self, truth_pred, tmp_path):
        tpath, W = truth_pred
        out = tmp_path / "report.tsv"
        per_doc = tmp_path / "docs.tsv"
        assert run("eval", "--truth", tpath, "--pred", tpath, "--out", out,
                   "--per-doc", per_doc) == 0
        lines = per_doc.read_text().splitlines()
        assert lines[0].startswith("doc\tprecision")
        assert len(lines) == 1 + W.shape[1]
        assert [line.split("\t")[0] for line in lines[1:]] == [
            str(m + 1) for m in range(W.shape[1])
        ]

    def test_two_evals_into_one_directory_keep_both_tables(self, truth_pred, tmp_path):
        tpath, W = truth_pred
        pred = tmp_path / "pred.tsv"
        write_dense_tsv(str(pred), np.full(W.shape, 1.0 / W.shape[0]))
        for report, p in (("a", tpath), ("b", pred)):
            assert run("eval", "--truth", tpath, "--pred", p,
                       "--out", tmp_path / f"{report}.tsv") == 0
        a, b = ((tmp_path / f"{r}.per_doc.tsv").read_text() for r in "ab")
        assert a != b and not (tmp_path / "per_doc.tsv").exists()
        for report in "ab":
            manifest = json.loads((tmp_path / f"{report}.manifest.json").read_text())
            assert manifest["outputs"] == [f"{report}.tsv", f"{report}.per_doc.tsv"]

    def test_topic_count_mismatch_is_runtime_error(self, truth_pred, tmp_path, capsys):
        tpath, _ = truth_pred
        rng = np.random.default_rng(1)
        other = tmp_path / "pred.tsv"
        write_dense_tsv(str(other), rng.dirichlet(np.ones(5), size=8).T)
        code = run("eval", "--truth", tpath, "--pred", other,
                   "--out", tmp_path / "report.tsv")
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_manifest_written_next_to_report(self, truth_pred, tmp_path):
        tpath, _ = truth_pred
        out = tmp_path / "report.tsv"
        assert run("eval", "--truth", tpath, "--pred", tpath, "--out", out) == 0
        manifest = json.loads((tmp_path / "report.manifest.json").read_text())
        assert manifest["subcommand"] == "eval"
        assert manifest["seed"] is None
        assert manifest["config"]["prominent_mass"] == 0.8

    def test_inputs_sharing_a_basename_keep_both_digests(self, tmp_path):
        rng = np.random.default_rng(2)
        paths = [tmp_path / run_dir / "W.tsv" for run_dir in ("runA", "runB")]
        for path in paths:
            path.parent.mkdir()
            write_dense_tsv(str(path), rng.dirichlet(np.ones(3), size=6).T)
        out = tmp_path / "report.tsv"
        assert run("eval", "--truth", paths[0], "--pred", paths[1], "--out", out) == 0
        manifest = json.loads((tmp_path / "report.manifest.json").read_text())
        assert manifest["input_digests"] == {str(p): digest(p) for p in paths}
        assert manifest["config"]["truth"] in manifest["input_digests"]

    def test_prominent_mass_flag_is_usage_error(self, truth_pred, tmp_path):
        tpath, _ = truth_pred
        assert run("eval", "--truth", tpath, "--pred", tpath,
                   "--out", tmp_path / "o" / "report.tsv",
                   "--prominent-mass", "0.5") == 2
        assert not (tmp_path / "o").exists()


class TestParser:
    def test_no_subcommand_is_usage_error(self):
        assert run() == 2

    def test_unknown_subcommand_is_usage_error(self):
        assert run("train") == 2

    def test_bad_length_spec_is_usage_error(self, model_dir, tmp_path):
        assert run("synth", "--model", model_dir, "--out", tmp_path / "o",
                   "--docs", 5, "--len", "poisson:abc") == 2

    @pytest.mark.parametrize("spec", ["abc", "0", "poisson:0.5", "3000000000",
                                      "poisson:nan"])
    def test_length_outside_the_model_range_is_usage_error(self, model_dir,
                                                           tmp_path, spec):
        assert run("synth", "--model", model_dir, "--out", tmp_path / "o",
                   "--docs", 5, "--len", spec) == 2
        assert not (tmp_path / "o").exists()

    def test_length_spec_recorded_as_parsed(self, model_dir, tmp_path):
        out = tmp_path / "o"
        assert run("synth", "--model", model_dir, "--out", out,
                   "--docs", 5, "--len", "poisson:20") == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["len"] == "PoissonLength(mean=20.0)"

    def test_threads_environment_variable_is_ignored(self, model_dir, corpus_path,
                                                     tmp_path, monkeypatch):
        monkeypatch.setenv("TOPIC_COMPOSE_THREADS", "many")
        assert run("synth", "--model", model_dir, "--out", tmp_path / "s",
                   "--docs", 5) == 0
        assert run("infer", "--method", "spi", "--model", model_dir,
                   "--corpus", corpus_path, "--out", tmp_path / "i") == 0
        for name in ("s", "i"):
            manifest = json.loads((tmp_path / name / "manifest.json").read_text())
            assert manifest["config"]["threads"] == 1

    @pytest.mark.parametrize("method, config", [("padd", PaddConfig()),
                                                ("tli", TliConfig())])
    def test_flag_defaults_are_the_library_defaults(self, model_dir, corpus_path,
                                                    tmp_path, method, config):
        out = tmp_path / method
        assert run("infer", "--method", method, "--model", model_dir,
                   "--corpus", corpus_path, "--out", out) == 0
        recorded = json.loads((out / "manifest.json").read_text())["config"]
        expected = dataclasses.asdict(config)
        assert {k: recorded[k] for k in expected} == expected

    @pytest.mark.parametrize("argv", [
        ("synth", "--docs", 5, "--seed", "x"),
        ("synth", "--docs", 5, "--alpha-scale", "x"),
        ("infer", "--method", "padd", "--corpus", "c.tsv", "--tau0", "x"),
        ("infer", "--method", "tli", "--corpus", "c.tsv", "--threshold-divisor", "x"),
    ])
    def test_non_numeric_value_is_usage_error(self, model_dir, tmp_path, argv):
        assert run(*argv, "--model", model_dir, "--out", tmp_path / "o") == 2
        assert not (tmp_path / "o").exists()

    def test_help_exits_zero(self, capsys):
        assert run("--help") == 0
        assert "synth" in capsys.readouterr().out


def test_pipeline_keeps_every_manifest(model_dir, tmp_path):
    """The README's flow: infer and eval share one run directory, and two
    evals into it keep their own manifests."""
    data, run_dir = tmp_path / "data", tmp_path / "run"
    assert run("synth", "--model", model_dir, "--out", data, "--docs", 20, "--seed", 4) == 0
    assert run("infer", "--method", "spi", "--model", model_dir,
               "--corpus", data / "corpus.tsv", "--out", run_dir) == 0
    infer_manifest = (run_dir / "manifest.json").read_text()
    for report in ("report.tsv", "report2.tsv"):
        assert run("eval", "--truth", data / "Wstar.tsv", "--pred", run_dir / "W.tsv",
                   "--prior", model_dir / "A.tsv", "--out", run_dir / report) == 0
    assert (run_dir / "manifest.json").read_text() == infer_manifest
    assert json.loads(infer_manifest)["subcommand"] == "infer"
    assert json.loads((data / "manifest.json").read_text())["subcommand"] == "synth"
    for report in ("report", "report2"):
        manifest = json.loads((run_dir / f"{report}.manifest.json").read_text())
        assert manifest["subcommand"] == "eval"
        assert manifest["outputs"] == [f"{report}.tsv", f"{report}.per_doc.tsv"]


def test_smoke_pipeline(tmp_path):
    """synth -> all four infer methods -> eval on a small but non-toy corpus,
    end to end, well under half a minute."""
    t0 = time.perf_counter()
    mdir = tmp_path / "model"
    write_model(mdir, random_model(N=100, K=5, seed=17, concentration=0.05))
    synth_dir = tmp_path / "data"
    assert run("synth", "--model", mdir, "--out", synth_dir, "--docs", 500,
               "--len", "poisson:60", "--seed", 1) == 0
    reports = {}
    for method in ("spi", "tli", "padd", "rand"):
        out = tmp_path / method
        argv = ["infer", "--method", method, "--model", mdir,
                "--corpus", synth_dir / "corpus.tsv", "--out", out]
        if method == "padd":
            argv += ["--master-iters", 5]
        assert run(*argv) == 0
        report = tmp_path / f"report_{method}.tsv"
        assert run("eval", "--truth", synth_dir / "Wstar.tsv",
                   "--pred", out / "W.tsv", "--prior", mdir / "A.tsv",
                   "--out", report) == 0
        rows = [line.split("\t") for line in report.read_text().splitlines()[1:]]
        reports[method] = {r[0]: float(r[1]) for r in rows}
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    # every real estimator should easily beat the seeded random baseline
    for method in ("spi", "tli", "padd"):
        assert reports[method]["f1"] > reports["rand"]["f1"]
        assert reports[method]["hellinger"] < reports["rand"]["hellinger"]
