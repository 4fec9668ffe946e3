"""Print SHA-256 prefixes of the program's outputs on the benchmark's inputs.

    PYTHONPATH=src python3 tools/output_digests.py --seed 1 --slots 0-7 --threads 2

For each workload's model (bench/inputs.py, read back from its TSV files
as the benchmark reads it), one `tli.Bdagger` line, slot `-`, for TLI's
left inverse. For each pool slot of the padd-k10 and tli-k50 inputs, one
line each for SPI's, TLI's and PADD's W and for PADD's diagnostics, as the
JSON of their fields with sorted keys, which is how a manifest's `results`
records them; for the cli-pipeline inputs, one line
for each file that `synth`, `infer --method spi` and `eval --prior` write
through cli.main, as the benchmark runs them, except the manifests, which
record paths and timing. Two source trees whose runs print the same lines give
byte-identical outputs: point PYTHONPATH at each tree's src/ and diff the
output. The program is imported from PYTHONPATH, and its location goes to
stderr. Writes only into a temporary directory.
"""

import os

# BLAS is pinned to one thread before NumPy loads, as the benchmark pins it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
import inputs  # noqa: E402

import topic_compose  # noqa: E402
from topic_compose import cli, estimators, model, padd  # noqa: E402

DIGEST_CHARS = 16


def digest(data):
    return hashlib.sha256(data).hexdigest()[:DIGEST_CHARS]


def slot_range(text):
    first, _, last = text.partition("-")
    return range(int(first), int(last or first) + 1)


def batch_digests(name, data, slots, threads, work):
    work.mkdir()
    inputs.write_model(work, data)
    m = model.load_model(str(work))
    inverse = estimators.tli_compute_inverse(m, threads=threads)
    yield name, "-", "tli.Bdagger", digest(inverse.Bdagger.tobytes())
    for slot in slots:
        b = data.batches[slot]
        corpus = model.Corpus(docs=b.docs, words=b.words, counts=b.counts, M=b.M, N=b.N)
        comp, diagnostics = padd.padd_infer(m, corpus, threads=threads)
        yield name, slot, "spi.W", digest(estimators.spi_infer(m, corpus).W.tobytes())
        yield name, slot, "tli.W", digest(
            estimators.tli_infer(inverse, m, corpus).W.tobytes())
        yield name, slot, "padd.W", digest(comp.W.tobytes())
        yield name, slot, "padd.diagnostics", digest(
            json.dumps(vars(diagnostics), sort_keys=True).encode())


def cli_digests(data, slots, threads, work):
    m = work / "model"
    m.mkdir(parents=True)
    inputs.write_model(m, data)
    loaded = model.load_model(str(m))
    inverse = estimators.tli_compute_inverse(loaded, threads=threads)
    yield "cli-pipeline", "-", "tli.Bdagger", digest(inverse.Bdagger.tobytes())
    for slot in slots:
        out = work / f"slot{slot}"
        steps = (
            ["synth", "--model", str(m), "--out", str(out / "data"), "--docs", "2000",
             "--len", "poisson:150", "--threads", str(threads),
             "--seed", str(data.pool_seeds[slot])],
            ["infer", "--method", "spi", "--model", str(m),
             "--corpus", str(out / "data" / "corpus.tsv"), "--out", str(out / "run"),
             "--threads", str(threads)],
            ["eval", "--truth", str(out / "data" / "Wstar.tsv"),
             "--pred", str(out / "run" / "W.tsv"), "--prior", str(m / "A.tsv"),
             "--out", str(out / "run" / "report.tsv")],
        )
        for argv in steps:
            if cli.main(argv) != 0:
                raise SystemExit(f"cli-pipeline slot {slot}: `{argv[0]}` failed")
        for path in (out / "data" / "corpus.tsv", out / "data" / "Wstar.tsv",
                     out / "data" / "Astar.tsv", out / "run" / "W.tsv",
                     out / "run" / "report.tsv", out / "run" / "report.per_doc.tsv"):
            yield "cli-pipeline", slot, path.name, digest(path.read_bytes())


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--slots", type=slot_range, default=slot_range(f"0-{inputs.POOL - 1}"),
                   help="pool slots as FIRST-LAST or one slot (default: all)")
    p.add_argument("--threads", type=int, default=1)
    args = p.parse_args(argv)
    print(f"program: {Path(topic_compose.__file__).parent}", file=sys.stderr)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        runs = [
            batch_digests("padd-k10", inputs.padd_k10(args.seed), args.slots,
                          args.threads, tmp / "padd-k10"),
            batch_digests("tli-k50", inputs.tli_k50(args.seed), args.slots,
                          args.threads, tmp / "tli-k50"),
            cli_digests(inputs.cli_pipeline(args.seed), args.slots, args.threads,
                        tmp / "cli-pipeline"),
        ]
        for run in runs:
            for row in run:
                print(*row, sep="\t", flush=True)


if __name__ == "__main__":
    main()
