"""Command-line front-end: synthesize corpora, infer compositions, evaluate.

`synth` and `infer` write `manifest.json` into their output directory and
`eval` writes one named after its report (`report.tsv` gets
`report.manifest.json`), so a pipeline run into one directory keeps every
manifest. A manifest records the fully resolved configuration, the SHA-256
digest of each input keyed by its path as given, and timing, so any run can
be reproduced bit-for-bit from it. Flag defaults are the library's own
(`PaddConfig`, `TliConfig`, `SynthConfig`); `--threads` is the only source of
the worker count and defaults to 1. Exit codes: 0 success, 1 runtime
failure, 2 usage error.
"""

import argparse
import dataclasses
import hashlib
import json
import os
import sys
import time

import numpy as np

from . import __version__
from .estimators import TliConfig, tli_compute_inverse, tli_infer, spi_infer
from .metrics import (
    evaluate_compositions,
    random_baseline,
    write_per_doc_tsv,
    write_report_tsv,
)
from .model import (
    load_model,
    read_composition_tsv,
    read_corpus_tsv,
    read_dense_tsv,
    write_composition_tsv,
    write_corpus_tsv,
    write_dense_tsv,
)
from .padd import PaddConfig, padd_infer
from .synth import (
    DirichletPrior,
    FixedLength,
    LogisticNormalPrior,
    PoissonLength,
    SynthConfig,
    synthesize,
)

INFER_METHODS = ("spi", "tli", "padd", "rand")


def _positive_int(text):
    try:
        v = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
    if v < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {v}")
    return v


def _length(text):
    """--len value: an integer or poisson:<mean>; the length models own the
    range rule."""
    try:
        if text.startswith("poisson:"):
            return PoissonLength(float(text[len("poisson:"):]))
        return FixedLength(int(text))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"expects an integer or poisson:<mean>, got {text!r} ({exc})"
        ) from None


def _sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _write_manifest(path, subcommand, config, inputs, outputs, seed, elapsed):
    manifest = {
        "subcommand": subcommand,
        "version": __version__,
        "config": config,
        "seed": seed,
        "input_digests": {p: _sha256(p) for p in inputs},
        "outputs": [os.path.basename(p) for p in outputs],
        "elapsed_seconds": elapsed,
    }
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="ascii") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    os.replace(tmp, path)


def _model_inputs(model_dir):
    return [os.path.join(model_dir, "B.tsv"), os.path.join(model_dir, "A.tsv")]


def cmd_synth(args):
    t0 = time.perf_counter()
    model = load_model(args.model)
    if args.prior == "dirichlet":
        prior = DirichletPrior.symmetric(model.K, args.alpha_scale)
        prior_cfg = {"prior": "dirichlet", "alpha": prior.alpha.tolist()}
    else:
        if args.mu is None or args.sigma is None:
            raise ValueError("--prior logistic-normal requires --mu and --sigma")
        mu = read_dense_tsv(args.mu).ravel()
        sigma = read_dense_tsv(args.sigma)
        prior = LogisticNormalPrior(mu=mu, sigma=sigma)
        prior_cfg = {"prior": "logistic-normal", "mu": args.mu, "sigma": args.sigma}
    config = SynthConfig(prior=prior, docs=args.docs, doc_length=args.len, seed=args.seed)
    out = synthesize(model, config, threads=args.threads)
    os.makedirs(args.out, exist_ok=True)
    corpus_path = os.path.join(args.out, "corpus.tsv")
    wstar_path = os.path.join(args.out, "Wstar.tsv")
    astar_path = os.path.join(args.out, "Astar.tsv")
    write_corpus_tsv(corpus_path, out.corpus)
    write_composition_tsv(wstar_path, out.Wstar)
    write_dense_tsv(astar_path, out.Astar)
    resolved = {
        "model": args.model,
        "docs": args.docs,
        "len": repr(args.len),
        "threads": args.threads,
        **prior_cfg,
    }
    inputs = _model_inputs(args.model) + (
        [args.mu, args.sigma] if args.prior == "logistic-normal" else []
    )
    _write_manifest(
        os.path.join(args.out, "manifest.json"), "synth", resolved, inputs,
        [corpus_path, wstar_path, astar_path],
        args.seed, time.perf_counter() - t0,
    )
    return 0


def cmd_infer(args):
    t0 = time.perf_counter()
    model = load_model(args.model)
    corpus = read_corpus_tsv(args.corpus)
    os.makedirs(args.out, exist_ok=True)
    w_path = os.path.join(args.out, "W.tsv")
    outputs = [w_path]
    resolved = {
        "method": args.method,
        "model": args.model,
        "corpus": args.corpus,
        "threads": args.threads,
    }
    try:
        if args.method == "spi":
            comp = spi_infer(model, corpus)
        elif args.method == "tli":
            tcfg = TliConfig(
                delta=args.delta,
                threshold_divisor=args.threshold_divisor,
            )
            inverse = tli_compute_inverse(model, tcfg, threads=args.threads)
            comp = tli_infer(inverse, model, corpus, tcfg)
            resolved.update(
                dataclasses.asdict(tcfg),
                inverse_magnitude=inverse.magnitude,
                inverse_bias=inverse.bias,
            )
        elif args.method == "padd":
            pcfg = PaddConfig(master_iters=args.master_iters, tau0=args.tau0)
            comp, diagnostics = padd_infer(model, corpus, pcfg, threads=args.threads)
            diag_path = args.diagnostics or os.path.join(args.out, "diagnostics.tsv")
            diagnostics.write_tsv(diag_path)
            outputs.append(diag_path)
            resolved.update(dataclasses.asdict(pcfg))
        else:
            comp = random_baseline(model.K, corpus.M, seed=args.seed)
    except (ValueError, RuntimeError) as exc:
        raise RuntimeError(f"{args.method}: {exc}") from exc
    write_composition_tsv(w_path, comp)
    _write_manifest(
        os.path.join(args.out, "manifest.json"), "infer", resolved,
        _model_inputs(args.model) + [args.corpus],
        outputs, args.seed, time.perf_counter() - t0,
    )
    return 0


def cmd_eval(args):
    t0 = time.perf_counter()
    truth = read_composition_tsv(args.truth)
    pred = read_composition_tsv(args.pred)
    prior = None if args.prior is None else read_dense_tsv(args.prior)
    report = evaluate_compositions(truth, pred, prior=prior)
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    stem = os.path.splitext(args.out)[0]
    per_doc = args.per_doc or stem + ".per_doc.tsv"
    write_report_tsv(report, args.out)
    write_per_doc_tsv(report, per_doc)
    resolved = {
        "truth": args.truth,
        "pred": args.pred,
        "prior": args.prior,
        "prominent_mass": report.prominent_mass,
    }
    inputs = [args.truth, args.pred] + ([args.prior] if args.prior else [])
    _write_manifest(
        stem + ".manifest.json", "eval", resolved, inputs,
        [args.out, per_doc], None, time.perf_counter() - t0,
    )
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="topic-compose",
        description="Infer document topic compositions for spectral topic models.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    ps = sub.add_parser("synth", help="generate a corpus with known compositions")
    ps.add_argument("--model", required=True, help="directory with B.tsv and A.tsv")
    ps.add_argument("--out", required=True, help="output directory")
    ps.add_argument("--docs", type=_positive_int, required=True, help="documents to draw")
    ps.add_argument("--prior", choices=("dirichlet", "logistic-normal"),
                    default="dirichlet")
    ps.add_argument("--alpha-scale", type=float, default=5.0,
                    help="total Dirichlet concentration, split evenly over topics")
    ps.add_argument("--mu", help="TSV vector for the logistic-normal mean")
    ps.add_argument("--sigma", help="TSV matrix for the logistic-normal covariance")
    ps.add_argument("--len", type=_length, default="150",
                    help="document length: integer or poisson:<mean>")
    ps.add_argument("--seed", type=int, default=SynthConfig.seed)
    ps.add_argument("--threads", type=_positive_int, default=1)
    ps.set_defaults(func=cmd_synth)

    pi = sub.add_parser("infer", help="estimate compositions for a corpus")
    pi.add_argument("--method", choices=INFER_METHODS, required=True)
    pi.add_argument("--model", required=True, help="directory with B.tsv and A.tsv")
    pi.add_argument("--corpus", required=True, help="corpus TSV")
    pi.add_argument("--out", required=True, help="output directory")
    pi.add_argument("--seed", type=int, default=0,
                    help="only the rand method consumes randomness")
    pi.add_argument("--threads", type=_positive_int, default=1)
    pi.add_argument("--delta", type=float, default=TliConfig.delta,
                    help="tli: allowed bias of the left inverse")
    pi.add_argument("--threshold-divisor", type=float, default=TliConfig.threshold_divisor,
                    help="tli: scales down the worst-case noise threshold")
    pi.add_argument("--master-iters", type=_positive_int, default=PaddConfig.master_iters)
    pi.add_argument("--tau0", type=float, default=PaddConfig.tau0,
                    help="padd: initial dual step size")
    pi.add_argument("--diagnostics", default=None,
                    help="padd: path for the per-round diagnostics TSV")
    pi.set_defaults(func=cmd_infer)

    pe = sub.add_parser("eval", help="score predicted compositions against truth")
    pe.add_argument("--truth", required=True)
    pe.add_argument("--pred", required=True)
    pe.add_argument("--prior", default=None,
                    help="optional topic-topic moment TSV for prior_dist")
    pe.add_argument("--out", required=True, help="report TSV path")
    pe.add_argument("--per-doc", default=None,
                    help="per-document TSV path (default: --out with .per_doc.tsv, "
                         "so run/report.tsv writes run/report.per_doc.tsv)")
    pe.set_defaults(func=cmd_eval)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else int(exc.code)
    try:
        return args.func(args)
    except BrokenPipeError:
        return 1
    except (ValueError, RuntimeError, OSError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry():
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    entry()
