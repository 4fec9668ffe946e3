"""The three benchmark workloads.

Each workload builds its inputs from the seed before anything is timed,
then offers `setup()` (timed as set-up), `request(slot, span)` (one timed
request on pool slot `slot`) and `check(slot, output)` (run after the
request's timer stops; raises CheckFailed). `quality()` gives the scores
of the distinct batches seen so far.

padd-k10   PADD at K=10 on a correlated corpus: the master/slave loop and
           the simplex projection take nearly all request time; no LP and
           no file I/O.
tli-k50    TLI at K=50: set-up solves one LP per topic, a request is only
           corpus normalization and one matmul, so padd and simplex are
           never entered.
cli-pipeline  synth -> infer spi -> eval through `cli.main`: TSV writes and
           reads, manifests, the per-document sampler and the per-document
           eval loop; the solver is a small share.
"""

import hashlib
from contextlib import nullcontext

import numpy as np

import topic_compose.cli as tc_cli
import topic_compose.estimators as tc_estimators
import topic_compose.metrics as tc_metrics
import topic_compose.model as tc_model
import topic_compose.padd as tc_padd

import inputs
from checks import (UNSCORED, CheckFailed, check_composition, f1_per_doc,
                    l1_per_doc, prior_dist, require)

WORKERS = 2  # worker threads handed to the program; the box has 2 cores


def _read_dense(path):
    with open(path, "r", encoding="ascii") as fh:
        rows, cols = (int(v) for v in fh.readline().split())
        X = np.loadtxt(fh, dtype=np.float64, delimiter="\t", ndmin=2)
    require(X.shape == (rows, cols), f"{path.name}: body {X.shape} != header {(rows, cols)}")
    return X


class _BatchWorkload:
    """A model loaded from TSV and a pool of document batches handed to the
    library directly."""

    setup_repeats = 8  # each set-up serves about one PADD request
    # A model load takes a few milliseconds, so each set-up sample is the
    # mean of a burst of loads long enough to span the machine's speed
    # swings, which last about a second.
    setup_burst = 256
    trace_setup = True

    def __init__(self, seed, work, smoke):
        self.inputs = self.make_inputs(seed, smoke)
        self.pool = len(self.inputs.batches)
        b = self.inputs.batches[0]
        self.K, self.M = b.truth.shape
        self.docs_per_request = self.M
        self.model_dir = work / "model"
        self.model_dir.mkdir(parents=True)
        inputs.write_model(self.model_dir, self.inputs)
        self.refs = {}      # slot -> first output W, for the repeat check
        self.verdict = {}   # slot -> failure message of the first check, or None
        self.scores = {}    # slot -> (per-doc f1, per-doc l1, W)

    def corpus(self, slot):
        b = self.inputs.batches[slot]
        return tc_model.Corpus(docs=b.docs, words=b.words, counts=b.counts, M=b.M, N=b.N)

    def setup(self):
        self.model = tc_model.load_model(str(self.model_dir))

    def check(self, slot, comp):
        check_composition(comp, tc_model.CompositionMatrix, self.K, self.M)
        if slot in self.refs:
            require(comp.W.tobytes() == self.refs[slot].tobytes(),
                    f"repeat of batch {slot} is not bit-identical")
        else:
            W = self.refs[slot] = comp.W.copy()
            truth = self.inputs.batches[slot].truth
            self.scores[slot] = (f1_per_doc(truth, W), l1_per_doc(truth, W), W)
            try:
                self.first_check(slot, comp.W, truth)
                self.verdict[slot] = None
            except CheckFailed as exc:
                self.verdict[slot] = str(exc)
        require(self.verdict[slot] is None, f"batch {slot}: {self.verdict[slot]}")

    def quality(self):
        slots = sorted(self.scores)
        if not slots:
            return dict(UNSCORED)
        W = np.concatenate([self.scores[s][2] for s in slots], axis=1)
        return {
            "f1": float(np.concatenate([self.scores[s][0] for s in slots]).mean()),
            "l1": float(np.concatenate([self.scores[s][1] for s in slots]).mean()),
            "prior_dist": prior_dist(self.model.A, W),
        }


class PaddK10(_BatchWorkload):
    name = "padd-k10"

    @staticmethod
    def make_inputs(seed, smoke):
        if smoke:
            return inputs.padd_k10(seed, N=200, docs=256, pool=1)
        return inputs.padd_k10(seed)

    def request(self, slot, span):
        with span("model.corpus_build"):
            corpus = self.corpus(slot)
        comp, _ = tc_padd.padd_infer(self.model, corpus, tc_padd.PaddConfig(),
                                     threads=WORKERS)
        return comp

    def first_check(self, slot, W, truth):
        """PADD beats SPI on F1 and is no further from A (acceptance
        criteria 6 and 7)."""
        spi = tc_estimators.spi_infer(self.model, self.corpus(slot)).W
        f1_padd, f1_spi = f1_per_doc(truth, W).mean(), f1_per_doc(truth, spi).mean()
        require(f1_padd > f1_spi, f"PADD f1 {f1_padd:.4f} <= SPI f1 {f1_spi:.4f}")
        pd_padd, pd_spi = prior_dist(self.model.A, W), prior_dist(self.model.A, spi)
        require(pd_padd <= pd_spi,
                f"PADD prior_dist {pd_padd:.5f} > SPI prior_dist {pd_spi:.5f}")


class TliK50(_BatchWorkload):
    name = "tli-k50"
    setup_repeats = 2  # each set-up solves K linear programs
    setup_burst = 1

    @staticmethod
    def make_inputs(seed, smoke):
        if smoke:
            return inputs.tli_k50(seed, N=100, K=10, docs=256, pool=1)
        return inputs.tli_k50(seed)

    def setup(self):
        super().setup()
        self.config = tc_estimators.TliConfig()
        self.inverse = tc_estimators.tli_compute_inverse(self.model, self.config,
                                                         threads=WORKERS)

    def request(self, slot, span):
        with span("model.corpus_build"):
            corpus = self.corpus(slot)
        return tc_estimators.tli_infer(self.inverse, self.model, corpus, self.config)

    def first_check(self, slot, W, truth):
        rand = tc_metrics.random_baseline(self.K, self.M, seed=slot).W
        f1_tli, f1_rand = f1_per_doc(truth, W).mean(), f1_per_doc(truth, rand).mean()
        require(f1_tli > f1_rand, f"TLI f1 {f1_tli:.4f} <= random f1 {f1_rand:.4f}")


class CliPipeline:
    """One request is `synth`, `infer --method spi` and `eval --prior`
    through `cli.main` in this process, on one of the pool's synth seeds."""

    name = "cli-pipeline"
    setup_repeats = 8
    setup_burst = 1
    # Set-up is a warm-up cycle of the request itself, so its layers are
    # counted per request and not traced a second time.
    trace_setup = False
    REPORT_TOL = 1e-9  # the report's means against the benchmark's own scores

    def __init__(self, seed, work, smoke):
        self.inputs = (inputs.cli_pipeline(seed, N=100, K=6, pool=1) if smoke
                       else inputs.cli_pipeline(seed))
        self.pool = len(self.inputs.pool_seeds)
        self.K = self.inputs.B.shape[1]
        self.docs_per_request = 200 if smoke else 2000
        self.work = work
        self.model_dir = work / "model"
        self.model_dir.mkdir(parents=True)
        inputs.write_model(self.model_dir, self.inputs)
        self.refs = {}      # slot -> SHA-256 of W.tsv from the first cycle
        self.scores = {}    # slot -> report means

    def _cycle(self, slot, span):
        m = self.model_dir
        data = self.work / f"slot{slot}" / "data"
        run = self.work / f"slot{slot}" / "run"
        steps = (
            ["synth", "--model", str(m), "--out", str(data),
             "--docs", str(self.docs_per_request), "--len", "poisson:150",
             "--threads", str(WORKERS), "--seed", str(self.inputs.pool_seeds[slot])],
            ["infer", "--method", "spi", "--model", str(m),
             "--corpus", str(data / "corpus.tsv"), "--out", str(run),
             "--threads", str(WORKERS)],
            ["eval", "--truth", str(data / "Wstar.tsv"), "--pred", str(run / "W.tsv"),
             "--prior", str(m / "A.tsv"), "--out", str(run / "report.tsv")],
        )
        codes = []
        for argv in steps:
            with span("cli.main"):
                codes.append(tc_cli.main(argv))
        return codes

    def setup(self):
        codes = self._cycle(0, lambda name: nullcontext())
        if codes != [0, 0, 0]:
            raise RuntimeError(f"warm-up cycle exit codes {codes}")

    def request(self, slot, span):
        return self._cycle(slot, span)

    def check(self, slot, codes):
        require(codes == [0, 0, 0], f"cli exit codes {codes}")
        run = self.work / f"slot{slot}" / "run"
        report = {}
        with open(run / "report.tsv", "r", encoding="ascii") as fh:
            require(fh.readline().split() == ["metric", "mean", "std"], "bad report header")
            for line in fh:
                name, mean, _ = line.split("\t")
                report[name] = float(mean)
        for name in ("f1", "l1_error", "prior_dist"):
            require(np.isfinite(report.get(name, np.nan)), f"report lacks {name}")
        w_hash = hashlib.sha256((run / "W.tsv").read_bytes()).digest()
        if slot in self.refs:
            require(w_hash == self.refs[slot], f"repeat of pool seed {slot} is not bit-identical")
            require(report == self.scores[slot], f"repeat of pool seed {slot} changed the report")
            return
        self.scores[slot] = report
        W = _read_dense(run / "W.tsv")
        try:
            comp = tc_model.CompositionMatrix(W)
        except ValueError as exc:
            raise CheckFailed(f"W.tsv is not a composition matrix: {exc}") from None
        check_composition(comp, tc_model.CompositionMatrix, self.K, self.docs_per_request)
        truth = _read_dense(run.parent / "data" / "Wstar.tsv")
        f1 = float(f1_per_doc(truth, W).mean())
        l1 = float(l1_per_doc(truth, W).mean())
        require(abs(f1 - report["f1"]) <= self.REPORT_TOL,
                f"report f1 {report['f1']!r} != benchmark f1 {f1!r}")
        require(abs(l1 - report["l1_error"]) <= self.REPORT_TOL,
                f"report l1 {report['l1_error']!r} != benchmark l1 {l1!r}")
        self.refs[slot] = w_hash

    def quality(self):
        slots = sorted(self.scores)
        if not slots:
            return dict(UNSCORED)
        return {
            "f1": float(np.mean([self.scores[s]["f1"] for s in slots])),
            "l1": float(np.mean([self.scores[s]["l1_error"] for s in slots])),
            "prior_dist": float(np.mean([self.scores[s]["prior_dist"] for s in slots])),
        }


WORKLOADS = {w.name: w for w in (PaddK10, TliK50, CliPipeline)}
