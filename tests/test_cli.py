import argparse
import dataclasses
import hashlib
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from topic_compose import (
    PaddConfig,
    PaddDiagnostics,
    TliConfig,
    TopicModel,
    load_model,
    normalize_corpus,
    padd_infer,
    read_composition_tsv,
    read_corpus_tsv,
    tli_compute_inverse,
    tli_infer,
    write_corpus_tsv,
    write_dense_tsv,
)
from topic_compose import cli
from topic_compose.cli import build_parser, main
import topic_compose.padd as padd_module
from topic_compose.padd import PRICE_CAP

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
        mu = tmp_path / "mu.tsv"
        write_dense_tsv(str(mu), np.zeros((3, 1)))
        for paths in ((), (mu,)):
            code = run("synth", "--model", model_dir, "--out", tmp_path / "o",
                       "--docs", 5, "--logistic-normal", *paths)
            assert code == 2
            assert "argument --logistic-normal: expected 2 arguments" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("prior, flag", [("dirichlet", "--mu"), ("dirichlet", "--sigma"),
                                             ("dirichlet", "--prior"),
                                             ("dirichlet", "--logistic-normal"),
                                             ("logistic-normal", "--alpha-scale")])
    def test_flag_of_the_other_prior_is_usage_error(self, model_dir, tmp_path, capsys,
                                                    prior, flag):
        # the files do not exist, so a run that read one would exit 1, not 2
        mu, sigma = tmp_path / "mu.tsv", tmp_path / "sigma.tsv"
        argv = ["synth", "--model", model_dir, "--out", tmp_path / "o", "--docs", 5]
        # a Dirichlet run takes no prior flag, or --alpha-scale, which at its
        # own default still names a Dirichlet run
        given = {"dirichlet": ["--alpha-scale", 5.0] if flag == "--logistic-normal" else [],
                 "logistic-normal": ["--logistic-normal", mu, sigma]}[prior]
        value = {"--mu": [mu], "--sigma": [sigma], "--prior": ["dirichlet"],
                 "--alpha-scale": [5.0], "--logistic-normal": [mu, sigma]}[flag]
        assert run(*argv, *given, flag, *value) == 2
        err = capsys.readouterr().err
        if given:
            assert f"argument {flag}: not allowed with argument {given[0]}" in err
        else:
            # --logistic-normal MU SIGMA says what --prior, --mu and --sigma did
            assert f"unrecognized arguments: {flag} {value[0]}" in err
        assert not (tmp_path / "o").exists()

    def test_alpha_scale_defaults_to_five(self, model_dir, tmp_path):
        for name, flags in (("default", ()), ("explicit", ("--alpha-scale", 5.0))):
            assert run("synth", "--model", model_dir, "--out", tmp_path / name,
                       "--docs", 5, *flags) == 0
        for name in ("default", "explicit"):
            manifest = json.loads((tmp_path / name / "manifest.json").read_text())
            assert manifest["config"]["alpha"] == [5.0 / 3] * 3
        assert (digest(tmp_path / "default" / "corpus.tsv")
                == digest(tmp_path / "explicit" / "corpus.tsv"))

    @pytest.mark.parametrize("metavar, mu_shape, sigma_shape", [
        ("MU", (4, 1), (3, 3)),
        ("SIGMA", (3, 1), (2, 2)),
    ])
    def test_wrong_size_prior_file_is_runtime_error_naming_it(
            self, model_dir, tmp_path, capsys, metavar, mu_shape, sigma_shape):
        mu, sigma = tmp_path / "mu.tsv", tmp_path / "sigma.tsv"
        write_dense_tsv(str(mu), np.zeros(mu_shape))
        write_dense_tsv(str(sigma), np.eye(*sigma_shape))
        assert run("synth", "--model", model_dir, "--out", tmp_path / "o", "--docs", 5,
                   "--logistic-normal", mu, sigma) == 1
        bad = mu if metavar == "MU" else sigma
        assert f"error: {bad}: --logistic-normal {metavar} needs" in capsys.readouterr().err

    @pytest.mark.parametrize("mu_shape, code", [((2, 2), 1), ((1, 4), 0), ((4, 1), 0)],
                             ids=["2x2", "1xK", "Kx1"])
    def test_mu_must_be_a_vector(self, tmp_path, capsys, mu_shape, code):
        mdir, mu, sigma = tmp_path / "model", tmp_path / "mu.tsv", tmp_path / "sigma.tsv"
        write_model(mdir, random_model(N=12, K=4, seed=11))
        write_dense_tsv(str(mu), np.zeros(mu_shape))
        write_dense_tsv(str(sigma), np.eye(4) * 0.4)
        assert run("synth", "--model", mdir, "--out", tmp_path / "o", "--docs", 5,
                   "--logistic-normal", mu, sigma) == code
        if code:
            assert (f"error: {mu}: --logistic-normal MU needs a 4x1 or 1x4 matrix "
                    "for 4 topics, "
                    "got shape (2, 2)") in capsys.readouterr().err
            assert not (tmp_path / "o").exists()

    def test_logistic_normal_from_files(self, model_dir, tmp_path):
        mu = tmp_path / "mu.tsv"
        sigma = tmp_path / "sigma.tsv"
        write_dense_tsv(str(mu), np.zeros((3, 1)))
        write_dense_tsv(str(sigma), np.eye(3) * 0.4)
        out = tmp_path / "ln"
        assert run("synth", "--model", model_dir, "--out", out, "--docs", 10,
                   "--logistic-normal", mu, sigma) == 0
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
                   "--logistic-normal", mu, sigma) == 1
        assert "semidefinite" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_ragged_model_file_is_runtime_error_naming_it(self, tmp_path, capsys):
        mdir = tmp_path / "model"
        write_model(mdir, random_model(N=12, K=2, seed=11))
        (mdir / "B.tsv").write_text("2\t2\n0.5\t0.5\n0.5\n")
        assert run("synth", "--model", mdir, "--out", tmp_path / "o", "--docs", 5) == 1
        assert f"{mdir / 'B.tsv'}: line 3" in capsys.readouterr().err

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
        assert manifest["results"]["inverse_magnitude"] >= 1.0
        assert 0.0 <= manifest["results"]["inverse_bias"] <= 1e-6
        W = read_composition_tsv(str(out / "W.tsv"))
        np.testing.assert_allclose(W.W.sum(axis=0), 1.0, atol=1e-9)

    def test_padd_writes_diagnostics(self, model_dir, corpus_path, tmp_path):
        # into the manifest's results, every float exactly as the library returns it
        out = tmp_path / "padd"
        assert run("infer", "--method", "padd", "--model", model_dir,
                   "--corpus", corpus_path, "--out", out) == 0
        assert sorted(p.name for p in out.iterdir()) == ["W.tsv", "manifest.json"]
        manifest = json.loads((out / "manifest.json").read_text())
        _, diagnostics = padd_infer(load_model(str(model_dir)),
                                    read_corpus_tsv(str(corpus_path)))
        assert manifest["results"] == vars(diagnostics)
        assert manifest["outputs"] == ["W.tsv"]
        assert "master_iters" not in manifest["config"]
        assert "slave_tol" not in manifest["config"]
        assert "relaxation" not in manifest["config"]
        assert "dual_stop_tol" not in manifest["config"]

    @pytest.mark.parametrize("flag", [("--tau-schedule", "constant"),
                                      ("--ridge-eps", "1e-8"),
                                      ("--warm-start-previous",),
                                      ("--gamma", "3.0"),
                                      ("--lambda", "1.5"),
                                      ("--slave-iters", "40"),
                                      ("--diagnostics", "d.tsv"),
                                      ("--tau0", "1.0"),
                                      ("--master-iters", "3")])
    def test_padd_removed_flags_are_usage_errors(self, model_dir, corpus_path,
                                                 tmp_path, flag):
        assert run("infer", "--method", "padd", "--model", model_dir,
                   "--corpus", corpus_path, "--out", tmp_path / "o", *flag) == 2
        assert not (tmp_path / "o").exists()

    def test_tli_removed_solver_flag_is_usage_error(self, model_dir, corpus_path, tmp_path):
        # the left inverse is always the exact LP: no solver choice, no bias
        # budget, and the threshold's divisor is a constant
        for flag in (("--tli-solver", "lp"), ("--delta", "0"), ("--threshold-divisor", "4.5")):
            assert run("infer", "--method", "tli", "--model", model_dir, "--corpus",
                       corpus_path, "--out", tmp_path / "o", *flag) == 2
            assert not (tmp_path / "o").exists()

    def test_padd_large_tau0_is_capped(self, model_dir, corpus_path, tmp_path, monkeypatch):
        # a first step that would make Q indefinite is capped instead of failing
        out = tmp_path / "o"
        monkeypatch.setattr(padd_module, "FIRST_STEP", 500.0)
        assert run("infer", "--method", "padd", "--model", model_dir,
                   "--corpus", corpus_path, "--out", out) == 0
        results = json.loads((out / "manifest.json").read_text())["results"]
        B = load_model(model_dir).B
        lo = np.linalg.eigvalsh(B.T @ B)[0]
        assert results["tau"][1] == 500.0
        assert max(results["dual_norm"]) <= PRICE_CAP * lo * (1.0 + 1e-12)
        assert min(results["prox_min_eig"]) >= (1.0 - PRICE_CAP) * lo * (1.0 - 1e-12)

    def test_padd_indefinite_prox_is_runtime_error(self, corpus_path, tmp_path, capsys):
        # a repeated topic makes B^T B singular, which no step can mend
        mdir = tmp_path / "model"
        base = random_model(N=12, K=2, seed=11)
        write_model(mdir, TopicModel(B=np.column_stack([base.B, base.B[:, :1]]),
                                     A=np.full((3, 3), 1.0 / 9)))
        code = run("infer", "--method", "padd", "--model", mdir,
                   "--corpus", corpus_path, "--out", tmp_path / "o")
        assert code == 1
        assert "Q = B^T B is not positive definite" in capsys.readouterr().err

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

    def test_unreadable_corpus_is_runtime_error_naming_it(self, model_dir, tmp_path,
                                                          capsys):
        corpus = tmp_path / "corpus.tsv"
        corpus.write_text("1\t12\t1\n1\t1\tx\n")
        code = run("infer", "--method", "spi", "--model", model_dir,
                   "--corpus", corpus, "--out", tmp_path / "o")
        assert code == 1
        assert f"{corpus}: line 2" in capsys.readouterr().err

    def test_skewed_model_file_is_runtime_error(self, corpus_path, tmp_path, capsys):
        mdir = tmp_path / "model"
        write_model(mdir, random_model(N=12, K=2, seed=11))
        write_dense_tsv(mdir / "A.tsv", [[0.5, 0.5], [0.0, 0.0]])
        code = run("infer", "--method", "spi", "--model", mdir,
                   "--corpus", corpus_path, "--out", tmp_path / "o")
        assert code == 1
        assert str(mdir / "A.tsv") in capsys.readouterr().err

    @pytest.mark.parametrize("b00, message", [
        (1 / 12 + 0.01, "column 0 of B sums to 1.01"),
        (-0.5, "B has a negative entry -0.5 at index (0, 0)"),
    ], ids=["column-sum", "negative"])
    def test_invalid_model_file_is_runtime_error_naming_it(
            self, corpus_path, tmp_path, capsys, b00, message):
        mdir = tmp_path / "model"
        mdir.mkdir()
        B = np.full((12, 2), 1 / 12)
        B[0, 0] = b00
        write_dense_tsv(mdir / "B.tsv", B)
        write_dense_tsv(mdir / "A.tsv", np.eye(2) / 2)
        code = run("infer", "--method", "spi", "--model", mdir,
                   "--corpus", corpus_path, "--out", tmp_path / "o")
        assert code == 1
        err = capsys.readouterr().err
        assert f"error: {mdir}: {message}" in err
        assert "np.float64" not in err

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

    def test_non_composition_file_is_runtime_error_naming_it(
            self, model_dir, truth_pred, tmp_path, capsys):
        # a K x K moment is not a composition matrix: its columns sum to ~1/K
        tpath, _ = truth_pred
        code = run("eval", "--truth", model_dir / "A.tsv", "--pred", tpath,
                   "--out", tmp_path / "report.tsv")
        assert code == 1
        err = capsys.readouterr().err
        assert f"error: {model_dir / 'A.tsv'}: composition column" in err
        assert "np.float64" not in err
        assert not (tmp_path / "report.tsv").exists()

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
        per_doc = tmp_path / "report.per_doc.tsv"
        assert run("eval", "--truth", tpath, "--pred", tpath, "--out", out) == 0
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

    def test_per_doc_in_a_new_directory(self, truth_pred, tmp_path):
        # eval into a new directory writes the report, the table and the manifest there
        tpath, _ = truth_pred
        assert run("eval", "--truth", tpath, "--pred", tpath,
                   "--out", tmp_path / "run" / "r.tsv") == 0
        assert sorted(p.name for p in (tmp_path / "run").iterdir()) == [
            "r.manifest.json", "r.per_doc.tsv", "r.tsv"]

    def test_manifest_records_outputs_relative_to_itself(self, truth_pred, tmp_path):
        tpath, _ = truth_pred
        assert run("eval", "--truth", tpath, "--pred", tpath,
                   "--out", tmp_path / "run" / "r.tsv") == 0
        manifest = json.loads((tmp_path / "run" / "r.manifest.json").read_text())
        assert manifest["outputs"] == ["r.tsv", "r.per_doc.tsv"]
        assert all((tmp_path / "run" / name).is_file() for name in manifest["outputs"])
        assert manifest["results"] == {}

    def test_topic_count_mismatch_is_runtime_error(self, truth_pred, tmp_path, capsys):
        tpath, _ = truth_pred
        rng = np.random.default_rng(1)
        other = tmp_path / "pred.tsv"
        write_dense_tsv(str(other), rng.dirichlet(np.ones(5), size=8).T)
        code = run("eval", "--truth", tpath, "--pred", other,
                   "--out", tmp_path / "report.tsv")
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_wrong_shape_prior_is_runtime_error_naming_it(self, truth_pred, model_dir,
                                                           tmp_path, capsys):
        tpath, _ = truth_pred
        assert run("eval", "--truth", tpath, "--pred", tpath, "--prior",
                   model_dir / "B.tsv", "--out", tmp_path / "report.tsv") == 1
        err = capsys.readouterr().err
        assert f"error: {model_dir / 'B.tsv'}: --prior needs a 3x3 matrix" in err

    def test_non_finite_prior_is_runtime_error_without_report(self, truth_pred, tmp_path,
                                                              capsys):
        tpath, _ = truth_pred
        prior = tmp_path / "prior.tsv"
        A0 = np.eye(3) / 3
        A0[1, 2] = np.nan
        write_dense_tsv(str(prior), A0)
        out = tmp_path / "report.tsv"
        assert run("eval", "--truth", tpath, "--pred", tpath, "--prior", prior,
                   "--out", out) == 1
        assert "must be a finite 3x3 matrix" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("truth, pred, name, value", [
        ([[1.0, 0.2], [0.0, 0.8], [0.0, 0.0]],
         [[0.0, 0.2], [0.5000003, 0.8], [0.5000003, 0.0]], "nonsupp_mass", 1.0000006),
        ([[0.0], [1.0]], [[1.0 + 5e-7], [0.0]], "linf_error", 1.0 + 5e-7),
    ], ids=["nonsupp_mass", "linf_error"])
    def test_compositions_off_by_their_sum_tolerance_are_scored(self, tmp_path, truth,
                                                                pred, name, value):
        paths = tmp_path / "truth.tsv", tmp_path / "pred.tsv"
        for path, W in zip(paths, (truth, pred)):
            write_dense_tsv(str(path), np.array(W))
        out = tmp_path / "report.tsv"
        assert run("eval", "--truth", paths[0], "--pred", paths[1], "--out", out) == 0
        rows = (tmp_path / "report.per_doc.tsv").read_text().splitlines()
        first = dict(zip(rows[0].split("\t"), rows[1].split("\t")))
        assert float(first[name]) == pytest.approx(value, abs=1e-15)

    def test_manifest_written_next_to_report(self, truth_pred, tmp_path):
        tpath, _ = truth_pred
        out = tmp_path / "report.tsv"
        assert run("eval", "--truth", tpath, "--pred", tpath, "--out", out) == 0
        manifest = json.loads((tmp_path / "report.manifest.json").read_text())
        assert manifest["subcommand"] == "eval"
        assert manifest["seed"] is None
        assert "prominent_mass" not in manifest["config"]

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

    def test_per_doc_flag_is_usage_error(self, truth_pred, tmp_path):
        # the per-document table always sits beside the report
        tpath, _ = truth_pred
        assert run("eval", "--truth", tpath, "--pred", tpath,
                   "--out", tmp_path / "o" / "report.tsv",
                   "--per-doc", tmp_path / "p" / "pd.tsv") == 2
        assert not (tmp_path / "o").exists() and not (tmp_path / "p").exists()


@pytest.mark.parametrize("case", ["eval-out-is-pred", "eval-out-is-truth",
                                  "infer-corpus-in-out"])
def test_output_naming_an_input_is_runtime_error(model_dir, corpus_path, tmp_path,
                                                 capsys, case):
    rng = np.random.default_rng(3)
    run_dir = tmp_path / "run"
    run_dir.mkdir()
    if case == "infer-corpus-in-out":
        target = run_dir / "W.tsv"
        target.write_bytes(corpus_path.read_bytes())
        argv = ("infer", "--method", "spi", "--model", model_dir, "--corpus", target,
                "--out", run_dir)
        manifest = run_dir / "manifest.json"
    else:
        truth, pred = run_dir / "Wstar.tsv", run_dir / "W.tsv"
        for path in (truth, pred):
            write_dense_tsv(str(path), rng.dirichlet(np.ones(3), size=6).T)
        target = pred if case == "eval-out-is-pred" else truth
        argv = ("eval", "--truth", truth, "--pred", pred, "--out", target)
        manifest = target.with_suffix(".manifest.json")
    before = target.read_bytes()
    assert run(*argv) == 1
    assert f"error: {target}: output would overwrite an input" in capsys.readouterr().err
    assert target.read_bytes() == before
    assert not manifest.exists()


# Each file the CLI reads, by its flag or model file name: a value its dtype
# cannot hold, a value that makes what is built from the file invalid, and
# how that error starts. Either goes in the first field of line 2.
BAD_FIELDS = {
    "B.tsv": ("1_0", "-0.5", "B has a negative entry"),
    "A.tsv": ("1_0", "0.5", "entries of A sum to"),
    "--corpus": ("99999999999999999999", "21", "document index out of range [0, 20)"),
    "MU": ("1_0", "nan", "--logistic-normal MU must be a finite 3x1 or 1x3 matrix"),
    "SIGMA": ("1_0", "-1", "--logistic-normal SIGMA: sigma is not positive semidefinite"),
    "--truth": ("1_0", "2", "composition column 0 sums to"),
    "--pred": ("1_0", "2", "composition column 0 sums to"),
    "--prior": ("1_0", "nan", "--prior must be a finite 3x3 matrix"),
}
# every defect in every file, and one that only a corpus can have
BAD_INPUTS = [(name, defect) for defect in ("byte-after-bad-line", "header", "field",
                                            "record", "huge-size")
              for name in BAD_FIELDS] + [("--corpus", "more-documents-than-entries")]
HUGE = "99999999999999999999"  # above int64


@pytest.mark.parametrize("name, defect", BAD_INPUTS, ids=[f"{n}-{d}" for n, d in BAD_INPUTS])
def test_bad_input_file_is_runtime_error_naming_it(tmp_path, capsys, name, defect):
    mdir, out = tmp_path / "model", tmp_path / "o"
    write_model(mdir, random_model(N=12, K=3, seed=11))
    files = {"B.tsv": mdir / "B.tsv", "A.tsv": mdir / "A.tsv",
             "--corpus": tmp_path / "corpus.tsv", "MU": tmp_path / "mu.tsv",
             "SIGMA": tmp_path / "sigma.tsv", "--truth": tmp_path / "truth.tsv",
             "--pred": tmp_path / "pred.tsv", "--prior": tmp_path / "prior.tsv"}
    write_corpus_tsv(str(files["--corpus"]), random_corpus(N=12, M=20, seed=5))
    write_dense_tsv(str(files["MU"]), np.zeros((3, 1)))
    write_dense_tsv(str(files["SIGMA"]), np.eye(3) * 0.4)
    rng = np.random.default_rng(3)
    for n in ("--truth", "--pred"):
        write_dense_tsv(str(files[n]), rng.dirichlet(np.ones(3), size=8).T)
    write_dense_tsv(str(files["--prior"]), np.eye(3) / 3)
    argv = {"B.tsv": ["infer", "--method", "spi", "--model", mdir,
                      "--corpus", files["--corpus"], "--out", out],
            "MU": ["synth", "--model", mdir, "--out", out, "--docs", 5,
                   "--logistic-normal", files["MU"], files["SIGMA"]],
            "--truth": ["eval", "--truth", files["--truth"], "--pred", files["--pred"],
                        "--prior", files["--prior"], "--out", out / "report.tsv"]}
    argv["A.tsv"] = argv["--corpus"] = argv["B.tsv"]
    argv["SIGMA"] = argv["MU"]
    argv["--pred"] = argv["--prior"] = argv["--truth"]

    path = files[name]
    header, first, *rest = path.read_text().splitlines(keepends=True)
    rest = "".join(rest)
    unreadable, invalid, record_error = BAD_FIELDS[name]
    dtype = "int64" if name == "--corpus" else "float64"
    cols = first.count("\t") + 1
    text, named, error = {
        "byte-after-bad-line": (header + "1\t2\t3\t4\t5\n" + first + rest + "caf\u00e9\n",
                                path, f"line 2: expected {cols} fields, got 5"),
        "header": ("a" + header.lstrip("0123456789") + first + rest,
                   path, "malformed header ['a', "),
        "field": (header + re.sub(r"^[^\t\n]*", unreadable, first) + rest,
                  path, f"line 2: cannot read '{unreadable}' as {dtype}"),
        # what a model file builds is named by the model's directory
        "record": (header + re.sub(r"^[^\t\n]*", invalid, first) + rest,
                   mdir if path.parent == mdir else path, record_error),
        # a size no array can have: a matrix's rows, or a corpus's N, whose
        # M * N would overflow the int64 entry keys
        "huge-size": ((re.sub(r"\t\d+", f"\t{HUGE}", header, count=1) + first + rest, path,
                       f"corpus dimensions M=20, N={HUGE} have M*N >= 2**63")
                      if name == "--corpus" else
                      (f"{HUGE}\t0\n", path, "Maximum allowed dimension exceeded")),
        # the 20 documents leave document 20 empty, found without an array of M
        "more-documents-than-entries": (re.sub(r"^\d+", "1000000000000000", header) + first
                                        + rest, path, "document 20 is empty"),
    }[defect]
    path.write_bytes(text.encode("utf-8"))
    assert run(*argv[name]) == 1
    assert f"error: {named}: {error}" in capsys.readouterr().err
    assert not out.exists()


def _snapshot(*dirs):
    """Each file's bytes by path, over the files in `dirs`."""
    return {p: p.read_bytes() for d in dirs for p in d.iterdir()}


def _pipeline(model_dir, data, run_dir):
    """synth into `data`, then infer and eval into `run_dir`, as README's flow."""
    return [
        ("synth", "--model", model_dir, "--out", data, "--docs", 6, "--seed", 2),
        ("infer", "--method", "spi", "--model", model_dir, "--corpus", data / "corpus.tsv",
         "--out", run_dir),
        ("eval", "--truth", data / "Wstar.tsv", "--pred", run_dir / "W.tsv",
         "--out", run_dir / "report.tsv"),
    ]


@pytest.mark.parametrize("case", ["eval-over-an-evals-table", "eval-over-infers-manifest",
                                  "infer-into-synths-directory"])
def test_output_over_another_runs_file_is_runtime_error(model_dir, tmp_path, capsys, case):
    data, run_dir = tmp_path / "data", tmp_path / "run"
    synth, infer, evaluate = _pipeline(model_dir, data, run_dir)
    for argv in (synth, infer, evaluate):
        assert run(*argv) == 0
    target = {"eval-over-an-evals-table": run_dir / "report.per_doc.tsv",
              "eval-over-infers-manifest": run_dir / "manifest.json",
              "infer-into-synths-directory": data / "manifest.json"}[case]
    argv = infer[:-1] + (data,) if case.startswith("infer") else evaluate[:-1] + (target,)
    before = _snapshot(data, run_dir)
    capsys.readouterr()
    assert run(*argv) == 1
    assert f"error: {target}: exists, and " in capsys.readouterr().err
    # no file changed and none was made
    assert _snapshot(data, run_dir) == before


def test_rerun_into_the_same_place_succeeds(model_dir, tmp_path):
    data, run_dir = tmp_path / "data", tmp_path / "run"
    steps = _pipeline(model_dir, data, run_dir)
    for argv in steps:
        assert run(*argv) == 0
    before = _snapshot(data, run_dir)
    for argv in steps:
        assert run(*argv) == 0
    after = _snapshot(data, run_dir)
    assert after.keys() == before.keys()
    # a manifest records the run's time; every other file is byte-identical
    assert all(after[p] == before[p] for p in before if not p.name.endswith("manifest.json"))


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
        # no flag sets a solver setting: infer writes the W that the library's
        # defaults give, and records none of their fields
        out = tmp_path / method
        assert run("infer", "--method", method, "--model", model_dir,
                   "--corpus", corpus_path, "--out", out) == 0
        model, corpus = load_model(str(model_dir)), read_corpus_tsv(str(corpus_path))
        if method == "padd":
            comp, _ = padd_infer(model, corpus, config)
        else:
            comp = tli_infer(tli_compute_inverse(model, config), model, corpus, config)
        assert read_composition_tsv(str(out / "W.tsv")).W.tobytes() == comp.W.tobytes()
        recorded = json.loads((out / "manifest.json").read_text())["config"]
        assert not set(dataclasses.asdict(config)) & set(recorded)

    def test_infer_flags_are_its_inputs_seed_and_threads(self):
        # each estimator runs at the library's settings, so infer has no solver flag
        args = build_parser().parse_args(["infer", "--method", "padd", "--model", "m",
                                          "--corpus", "c", "--out", "o"])
        assert set(vars(args)) - {"subcommand", "func"} == {
            "method", "model", "corpus", "out", "seed", "threads"}

    @pytest.mark.parametrize("argv", [
        ("synth", "--docs", 5, "--seed", "x"),
        ("synth", "--docs", 5, "--alpha-scale", "x"),
        ("infer", "--method", "padd", "--corpus", "c.tsv", "--threads", "x"),
        ("infer", "--method", "tli", "--corpus", "c.tsv", "--seed", "x"),
    ])
    def test_non_numeric_value_is_usage_error(self, model_dir, tmp_path, argv):
        assert run(*argv, "--model", model_dir, "--out", tmp_path / "o") == 2
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("argv, flag", [
        (("synth", "--docs", 5, "--alpha-scale", "-1"), "--alpha-scale"),
        (("synth", "--docs", 5, "--alpha-scale", "inf"), "--alpha-scale"),
        (("infer", "--method", "tli", "--threshold-divisor", "0"), "--threshold-divisor"),
        (("infer", "--method", "tli", "--threshold-divisor", "inf"), "--threshold-divisor"),
        (("infer", "--method", "tli", "--threads", "0"), "--threads"),
        (("synth", "--docs", 0), "--docs"),
    ])
    def test_out_of_range_value_is_usage_error(self, model_dir, corpus_path, tmp_path,
                                               capsys, argv, flag):
        # the range check runs while the flags are parsed, so no output
        # directory is made
        corpus = ("--corpus", corpus_path) if argv[0] == "infer" else ()
        assert run(*argv, *corpus, "--model", model_dir, "--out", tmp_path / "o") == 2
        err = capsys.readouterr().err
        if flag == "--threshold-divisor":
            # the divisor is the constant TliConfig.threshold_divisor, so the
            # flag is refused whatever its value
            assert f"unrecognized arguments: {flag}" in err
        else:
            assert f"argument {flag}: " in err
        if flag == "--alpha-scale":
            # the flag is one number, so the reason names it, not a vector
            assert "total concentration must be positive and finite" in err
        assert not (tmp_path / "o").exists()

    def test_help_exits_zero(self, capsys):
        assert run("--help") == 0
        assert "synth" in capsys.readouterr().out

    def test_readme_cli_section_names_every_flag(self):
        # README's CLI section, up to the next level-2 heading, names exactly
        # the parser's flags, so a flag added or removed shows up here
        text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        start = text.index("\n## CLI\n")
        section = text[start:text.index("\n## ", start + 1)]
        parser = build_parser()
        subparsers = next(a for a in parser._actions
                          if isinstance(a, argparse._SubParsersAction))
        flags = {option for p in (parser, *subparsers.choices.values())
                 for action in p._actions for option in action.option_strings
                 if option.startswith("--")}
        assert set(re.findall(r"--[a-z][a-z0-9-]*", section)) == flags


def test_module_entry_point_prints_usage():
    path = [str(Path(__file__).resolve().parent.parent / "src"), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    proc = subprocess.run([sys.executable, "-m", "topic_compose.cli", "synth", "--help"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0
    usage = " ".join(proc.stdout.split())
    assert "[--alpha-scale ALPHA_SCALE | --logistic-normal MU SIGMA]" in usage


def test_broken_pipe_exits_one_without_manifest(model_dir, tmp_path, monkeypatch, capsys):
    def closed_pipe(*args):
        raise BrokenPipeError
    monkeypatch.setattr(cli, "write_corpus_tsv", closed_pipe)
    out = tmp_path / "o"
    assert run("synth", "--model", model_dir, "--out", out, "--docs", 5) == 1
    assert not (out / "manifest.json").exists()
    assert capsys.readouterr().err == ""


def test_pipeline_keeps_every_manifest(model_dir, tmp_path):
    """The README's flow: infer and eval share one run directory, and two
    evals into it keep their own manifests."""
    data, run_dir = tmp_path / "data", tmp_path / "run"
    before = {}  # manifest path -> SHA-256 of each input before its command ran

    def run_and_digest(manifest, *argv):
        read = [value for flag, value in zip(argv, argv[1:])
                if flag in ("--corpus", "--truth", "--pred", "--prior")]
        if "--model" in argv:
            read += [model_dir / "B.tsv", model_dir / "A.tsv"]
        before[manifest] = {str(p): digest(p) for p in read}
        return run(*argv)

    assert run_and_digest(data / "manifest.json", "synth", "--model", model_dir,
                          "--out", data, "--docs", 20, "--seed", 4) == 0
    assert run_and_digest(run_dir / "manifest.json", "infer", "--method", "spi",
                          "--model", model_dir, "--corpus", data / "corpus.tsv",
                          "--out", run_dir) == 0
    infer_manifest = (run_dir / "manifest.json").read_text()
    for report in ("report", "report2"):
        assert run_and_digest(run_dir / f"{report}.manifest.json", "eval",
                              "--truth", data / "Wstar.tsv", "--pred", run_dir / "W.tsv",
                              "--prior", model_dir / "A.tsv",
                              "--out", run_dir / f"{report}.tsv") == 0
    assert (run_dir / "manifest.json").read_text() == infer_manifest
    assert json.loads(infer_manifest)["subcommand"] == "infer"
    assert json.loads((data / "manifest.json").read_text())["subcommand"] == "synth"
    for report in ("report", "report2"):
        manifest = json.loads((run_dir / f"{report}.manifest.json").read_text())
        assert manifest["subcommand"] == "eval"
        assert manifest["outputs"] == [f"{report}.tsv", f"{report}.per_doc.tsv"]
    for path, digests in before.items():
        manifest = json.loads(path.read_text())
        # every output is a bare name of a file beside its manifest
        for name in manifest["outputs"]:
            assert os.path.basename(name) == name and (path.parent / name).is_file()
        assert manifest["input_digests"] == digests


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


# every key of each run's manifest config, then of its results
MANIFEST_KEYS = {
    "synth-dirichlet": ({"model", "docs", "len", "threads", "prior", "alpha"}, set()),
    "synth-logistic-normal": ({"model", "docs", "len", "threads", "prior", "mu", "sigma"},
                              set()),
    "infer-spi": ({"method", "model", "corpus", "threads"}, set()),
    "infer-rand": ({"method", "model", "corpus", "threads"}, set()),
    "infer-tli": ({"method", "model", "corpus", "threads"},
                  {"inverse_magnitude", "inverse_bias"}),
    "infer-padd": ({"method", "model", "corpus", "threads"},
                   {f.name for f in dataclasses.fields(PaddDiagnostics)}),
    "eval": ({"truth", "pred", "prior"}, set()),
}


@pytest.mark.parametrize("case", sorted(MANIFEST_KEYS))
def test_manifest_records_only_what_a_user_sets(model_dir, corpus_path, tmp_path, case):
    """Each manifest's config holds only the run's flags, and its results
    what the solver reports; the library's constants are pinned by version."""
    mu, sigma, truth = tmp_path / "mu.tsv", tmp_path / "sigma.tsv", tmp_path / "truth.tsv"
    write_dense_tsv(str(mu), np.zeros((3, 1)))
    write_dense_tsv(str(sigma), np.eye(3) * 0.4)
    write_dense_tsv(str(truth), np.full((3, 4), 1.0 / 3.0))
    name, _, variant = case.partition("-")
    out = tmp_path / "o"
    argv = {
        "synth": ["synth", "--model", model_dir, "--out", out, "--docs", 5]
        + (["--logistic-normal", mu, sigma] if variant == "logistic-normal" else []),
        "infer": ["infer", "--method", variant, "--model", model_dir,
                  "--corpus", corpus_path, "--out", out],
        "eval": ["eval", "--truth", truth, "--pred", truth, "--prior", model_dir / "A.tsv",
                 "--out", out / "report.tsv"],
    }[name]
    assert run(*argv) == 0
    manifest = out / ("report.manifest.json" if name == "eval" else "manifest.json")
    recorded = json.loads(manifest.read_text())
    assert (set(recorded["config"]), set(recorded["results"])) == MANIFEST_KEYS[case]
