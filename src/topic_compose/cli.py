"""Command-line front-end: synthesize corpora, infer compositions, evaluate.

Every subcommand writes a `manifest.json` next to its outputs recording the
fully resolved configuration, input digests and timing, so any run can be
reproduced bit-for-bit from its manifest. Exit codes: 0 success, 1 runtime
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
from .padd import PaddConfig, PaddDiagnostics, padd_infer
from .parallel import resolve_threads
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


def _any_int(text):
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None


def _any_float(text):
    try:
        return float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a number") from None


def _parse_length(text):
    if text.startswith("poisson:"):
        try:
            mean = float(text[len("poisson:"):])
        except ValueError:
            raise argparse.ArgumentTypeError(f"bad poisson mean in {text!r}") from None
        if mean < 1.0:
            raise argparse.ArgumentTypeError("poisson mean must be >= 1")
        return PoissonLength(mean)
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"--len expects an integer or poisson:<mean>, got {text!r}"
        ) from None
    if n < 1:
        raise argparse.ArgumentTypeError("fixed length must be >= 1")
    return FixedLength(n)


def _length_spec(text):
    # validate eagerly so a malformed value is a usage error, but keep the
    # original string for the manifest
    _parse_length(text)
    return text


def _sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _write_manifest(directory, subcommand, config, inputs, outputs, seed, elapsed):
    manifest = {
        "subcommand": subcommand,
        "version": __version__,
        "config": config,
        "seed": seed,
        "input_digests": {os.path.basename(p): _sha256(p) for p in inputs},
        "outputs": [os.path.basename(p) for p in outputs],
        "elapsed_seconds": elapsed,
    }
    path = os.path.join(directory, "manifest.json")
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="ascii") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    os.replace(tmp, path)
    return path


def _model_inputs(model_dir):
    return [os.path.join(model_dir, "B.tsv"), os.path.join(model_dir, "A.tsv")]


def cmd_synth(args):
    t0 = time.perf_counter()
    threads = resolve_threads(args.threads)
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
    length = _parse_length(args.len)
    config = SynthConfig(prior=prior, docs=args.docs, doc_length=length, seed=args.seed)
    out = synthesize(model, config, threads=threads)
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
        "len": args.len,
        "threads": threads,
        **prior_cfg,
    }
    inputs = _model_inputs(args.model) + (
        [args.mu, args.sigma] if args.prior == "logistic-normal" else []
    )
    _write_manifest(
        args.out, "synth", resolved, inputs,
        [corpus_path, wstar_path, astar_path],
        args.seed, time.perf_counter() - t0,
    )
    return 0


def cmd_infer(args):
    t0 = time.perf_counter()
    threads = resolve_threads(args.threads)
    model = load_model(args.model)
    corpus = read_corpus_tsv(args.corpus)
    os.makedirs(args.out, exist_ok=True)
    w_path = os.path.join(args.out, "W.tsv")
    outputs = [w_path]
    resolved = {
        "method": args.method,
        "model": args.model,
        "corpus": args.corpus,
        "threads": threads,
    }
    try:
        if args.method == "spi":
            comp = spi_infer(model, corpus)
        elif args.method == "tli":
            tcfg = TliConfig(
                delta=args.delta,
                threshold_divisor=args.threshold_divisor,
                solver=args.tli_solver,
            )
            inverse = tli_compute_inverse(model, tcfg, threads=threads)
            comp = tli_infer(inverse, model, corpus, tcfg)
            resolved.update(
                dataclasses.asdict(tcfg),
                inverse_magnitude=inverse.magnitude,
                inverse_bias=inverse.bias,
            )
        elif args.method == "padd":
            pcfg = PaddConfig(
                loss_weight=args.gamma,
                relaxation=args.dr_relaxation,
                master_iters=args.master_iters,
                slave_iters=args.slave_iters,
                tau0=args.tau0,
            )
            diagnostics = PaddDiagnostics()
            comp, _ = padd_infer(
                model, corpus, pcfg, threads=threads, diagnostics=diagnostics
            )
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
        args.out, "infer", resolved,
        _model_inputs(args.model) + [args.corpus],
        outputs, args.seed, time.perf_counter() - t0,
    )
    return 0


def cmd_eval(args):
    t0 = time.perf_counter()
    truth = read_composition_tsv(args.truth)
    pred = read_composition_tsv(args.pred)
    prior = None if args.prior is None else read_dense_tsv(args.prior)
    report = evaluate_compositions(
        truth, pred, prior=prior, prominent_mass=args.prominent_mass
    )
    out_dir = os.path.dirname(os.path.abspath(args.out))
    os.makedirs(out_dir, exist_ok=True)
    per_doc = args.per_doc or os.path.join(out_dir, "per_doc.tsv")
    write_report_tsv(report, args.out)
    write_per_doc_tsv(report, per_doc)
    resolved = {
        "truth": args.truth,
        "pred": args.pred,
        "prior": args.prior,
        "prominent_mass": args.prominent_mass,
    }
    inputs = [args.truth, args.pred] + ([args.prior] if args.prior else [])
    _write_manifest(
        out_dir, "eval", resolved, inputs, [args.out, per_doc],
        None, time.perf_counter() - t0,
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
    ps.add_argument("--alpha-scale", type=_any_float, default=5.0,
                    help="total Dirichlet concentration, split evenly over topics")
    ps.add_argument("--mu", help="TSV vector for the logistic-normal mean")
    ps.add_argument("--sigma", help="TSV matrix for the logistic-normal covariance")
    ps.add_argument("--len", type=_length_spec, default="150",
                    help="document length: integer or poisson:<mean>")
    ps.add_argument("--seed", type=_any_int, default=0)
    ps.add_argument("--threads", type=_positive_int, default=None)
    ps.set_defaults(func=cmd_synth)

    pi = sub.add_parser("infer", help="estimate compositions for a corpus")
    pi.add_argument("--method", choices=INFER_METHODS, required=True)
    pi.add_argument("--model", required=True, help="directory with B.tsv and A.tsv")
    pi.add_argument("--corpus", required=True, help="corpus TSV")
    pi.add_argument("--out", required=True, help="output directory")
    pi.add_argument("--seed", type=_any_int, default=0,
                    help="only the rand method consumes randomness")
    pi.add_argument("--threads", type=_positive_int, default=None)
    pi.add_argument("--delta", type=_any_float, default=0.0,
                    help="tli: allowed bias of the left inverse")
    pi.add_argument("--threshold-divisor", type=_any_float, default=4.5,
                    help="tli: scales down the worst-case noise threshold")
    pi.add_argument("--tli-solver", choices=("lp", "pseudoinverse"), default="lp")
    pi.add_argument("--gamma", type=_any_float, default=3.0,
                    help="padd: reconstruction loss weight")
    pi.add_argument("--lambda", dest="dr_relaxation", type=_any_float, default=1.9,
                    help="padd: Douglas-Rachford relaxation, in (0, 2)")
    pi.add_argument("--master-iters", type=_positive_int, default=15)
    pi.add_argument("--slave-iters", type=_positive_int, default=150)
    pi.add_argument("--tau0", type=_any_float, default=1.0,
                    help="padd: initial dual step size")
    pi.add_argument("--diagnostics", default=None,
                    help="padd: path for the per-round diagnostics TSV")
    pi.set_defaults(func=cmd_infer)

    pe = sub.add_parser("eval", help="score predicted compositions against truth")
    pe.add_argument("--truth", required=True)
    pe.add_argument("--pred", required=True)
    pe.add_argument("--prior", default=None,
                    help="optional topic-topic moment TSV for prior_dist")
    pe.add_argument("--prominent-mass", type=_any_float, default=0.8)
    pe.add_argument("--out", required=True, help="report TSV path")
    pe.add_argument("--per-doc", default=None,
                    help="per-document TSV path (default: per_doc.tsv next to --out)")
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
