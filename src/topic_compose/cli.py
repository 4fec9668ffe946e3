"""Command-line front-end: synthesize corpora, infer compositions, evaluate.

`synth` and `infer` write `manifest.json` into their output directory, so
they need separate ones, and `eval` writes one named after its report
(`report.tsv` gets `report.manifest.json`), so it can share infer's. Every
output sits beside its manifest, and a run replaces only files that an
earlier run of the same subcommand recorded in that manifest. A manifest
records the fully resolved configuration, the SHA-256 digest of each input
keyed by its path as given, each output's name, the solver's `results` and
timing, so any run can be reproduced bit-for-bit from it. Each subcommand
returns what its manifest records; `main` times it and writes the
manifest. `infer` runs each estimator at the library's own settings and
takes no solver flag; `--threads` is the only source of the worker count
and defaults to 1.
Exit codes: 0 success, 1 runtime failure (an output that would overwrite
an input or another run's file included), 2 usage error.
"""

import argparse
import hashlib
import json
import os
import sys
import time

import numpy as np

from . import __version__
from .estimators import tli_compute_inverse, tli_infer, spi_infer
from .metrics import (
    evaluate_compositions,
    random_baseline,
    write_per_doc_tsv,
    write_report_tsv,
)
from .model import (
    from_file,
    load_model,
    read_composition_tsv,
    read_corpus_tsv,
    read_dense_tsv,
    write_composition_tsv,
    write_corpus_tsv,
    write_dense_tsv,
)
from .padd import padd_infer
from .synth import (
    DirichletPrior,
    FixedLength,
    LogisticNormalPrior,
    PoissonLength,
    synthesize,
)

INFER_METHODS = ("spi", "tli", "padd", "rand")
ALPHA_SCALE = 5.0  # synth's Dirichlet concentration when --alpha-scale is not given


def _positive_int(text):
    try:
        v = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
    if v < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {v}")
    return v


def _alpha_scale(text):
    """--alpha-scale value: a float that DirichletPrior accepts as a total
    concentration; argparse then names the flag and exits 2 before any file
    is read or written."""
    try:
        DirichletPrior.symmetric(1, float(text))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return float(text)


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


def _check_overwrite(subcommand, manifest, inputs, outputs):
    """Raise ValueError naming the first path the command would write, its
    manifest included, that it reads, or that already exists and is not
    that manifest or an output it lists from an earlier run of the same
    subcommand; called before any file is read or directory made. Every
    output sits beside the manifest, so a bare name identifies it."""
    read = {os.path.realpath(p) for p in inputs}
    try:
        with open(manifest, encoding="ascii") as fh:
            record = json.load(fh)
        same = record["subcommand"] == subcommand
        owned = [os.path.basename(manifest), *record["outputs"]] if same else []
    except (OSError, ValueError, KeyError, TypeError):
        owned = []
    for path in [manifest, *outputs]:
        if os.path.realpath(path) in read:
            raise ValueError(f"{path}: output would overwrite an input")
        if os.path.exists(path) and os.path.basename(path) not in owned:
            raise ValueError(f"{path}: exists, and {manifest} records no {subcommand} run "
                             "that wrote it")


def _write_manifest(path, subcommand, config, inputs, outputs, results, seed, elapsed):
    manifest = {
        "subcommand": subcommand,
        "version": __version__,
        "config": config,
        "seed": seed,
        "input_digests": {p: _sha256(p) for p in inputs},
        "outputs": [os.path.basename(p) for p in outputs],
        "results": results,
        "elapsed_seconds": elapsed,
    }
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="ascii") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    os.replace(tmp, path)


def _read_shaped_tsv(path, flag, K, *shapes):
    """The finite matrix in the file given to `flag`, whose shape must be
    one of `shapes`; another file raises ValueError naming it and flag."""
    X = read_dense_tsv(path)
    wanted = " or ".join(f"{r}x{c}" for r, c in shapes)
    if X.shape not in shapes:
        raise ValueError(f"{path}: {flag} needs a {wanted} matrix for {K} topics, "
                         f"got shape {X.shape}")
    if not np.isfinite(X).all():
        raise ValueError(f"{path}: {flag} must be a finite {wanted} matrix, "
                         "got a non-finite entry")
    return X


def _model_inputs(model_dir):
    return [os.path.join(model_dir, "B.tsv"), os.path.join(model_dir, "A.tsv")]


def cmd_synth(args):
    manifest = os.path.join(args.out, "manifest.json")
    inputs = _model_inputs(args.model) + (args.logistic_normal or [])
    outputs = [os.path.join(args.out, n) for n in ("corpus.tsv", "Wstar.tsv", "Astar.tsv")]
    _check_overwrite(args.subcommand, manifest, inputs, outputs)
    model = load_model(args.model)
    if args.logistic_normal is None:
        alpha_scale = ALPHA_SCALE if args.alpha_scale is None else args.alpha_scale
        prior = DirichletPrior.symmetric(model.K, alpha_scale)
        prior_cfg = {"prior": "dirichlet", "alpha": prior.alpha.tolist()}
    else:
        K = model.K
        mu_path, sigma_path = args.logistic_normal
        mu = _read_shaped_tsv(mu_path, "--logistic-normal MU", K, (K, 1), (1, K))
        sigma = _read_shaped_tsv(sigma_path, "--logistic-normal SIGMA", K, (K, K))
        # mu and sigma are finite and shaped, so what is left to reject is sigma's
        prior = from_file(f"{sigma_path}: --logistic-normal SIGMA", LogisticNormalPrior, mu, sigma)
        prior_cfg = {"prior": "logistic-normal", "mu": mu_path, "sigma": sigma_path}
    out = synthesize(model, prior, args.docs, args.len, seed=args.seed, threads=args.threads)
    os.makedirs(args.out, exist_ok=True)
    corpus_path, wstar_path, astar_path = outputs
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
    return manifest, resolved, inputs, outputs, {}


def cmd_infer(args):
    manifest, w_path = (os.path.join(args.out, name) for name in ("manifest.json", "W.tsv"))
    inputs = _model_inputs(args.model) + [args.corpus]
    _check_overwrite(args.subcommand, manifest, inputs, [w_path])
    model = load_model(args.model)
    corpus = read_corpus_tsv(args.corpus)
    os.makedirs(args.out, exist_ok=True)
    results = {}
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
            inverse = tli_compute_inverse(model, threads=args.threads)
            comp = tli_infer(inverse, model, corpus)
            results = {"inverse_magnitude": inverse.magnitude, "inverse_bias": inverse.bias}
        elif args.method == "padd":
            comp, diagnostics = padd_infer(model, corpus, threads=args.threads)
            results = vars(diagnostics)
        else:
            comp = random_baseline(model.K, corpus.M, seed=args.seed)
    except (ValueError, RuntimeError) as exc:
        raise RuntimeError(f"{args.method}: {exc}") from exc
    write_composition_tsv(w_path, comp)
    return manifest, resolved, inputs, [w_path], results


def cmd_eval(args):
    stem = os.path.splitext(args.out)[0]
    inputs = [args.truth, args.pred] + ([args.prior] if args.prior else [])
    manifest, outputs = stem + ".manifest.json", [args.out, stem + ".per_doc.tsv"]
    _check_overwrite(args.subcommand, manifest, inputs, outputs)
    truth = read_composition_tsv(args.truth)
    pred = read_composition_tsv(args.pred)
    K = truth.K
    prior = None if args.prior is None else _read_shaped_tsv(args.prior, "--prior", K, (K, K))
    report = evaluate_compositions(truth, pred, prior=prior)
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    write_report_tsv(report, args.out)
    write_per_doc_tsv(report, outputs[1])
    resolved = {
        "truth": args.truth,
        "pred": args.pred,
        "prior": args.prior,
    }
    return manifest, resolved, inputs, outputs, {}


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
    prior = ps.add_mutually_exclusive_group()
    prior.add_argument("--alpha-scale", type=_alpha_scale, default=None,
                       help="dirichlet, the default prior: total concentration, split "
                            f"evenly over topics (default {ALPHA_SCALE})")
    prior.add_argument("--logistic-normal", nargs=2, metavar=("MU", "SIGMA"),
                       help="logistic-normal prior: mean and covariance TSV files")
    ps.add_argument("--len", type=_length, default="150",
                    help="document length: integer or poisson:<mean>")
    ps.add_argument("--seed", type=int, default=0)
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
    pi.set_defaults(func=cmd_infer)

    pe = sub.add_parser("eval", help="score predicted compositions against truth")
    pe.add_argument("--truth", required=True)
    pe.add_argument("--pred", required=True)
    pe.add_argument("--prior", default=None,
                    help="optional topic-topic moment TSV for prior_dist")
    pe.add_argument("--out", required=True, help="report TSV; per-doc table, manifest beside it")
    pe.set_defaults(func=cmd_eval)
    return parser


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else int(exc.code)
    try:
        t0 = time.perf_counter()
        path, config, inputs, outputs, results = args.func(args)
        # eval consumes no randomness and has no --seed
        _write_manifest(path, args.subcommand, config, inputs, outputs, results,
                        getattr(args, "seed", None), time.perf_counter() - t0)
        return 0
    except BrokenPipeError:
        return 1
    except (ValueError, RuntimeError, OSError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry():
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    entry()
