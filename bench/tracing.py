"""Spans around calls into each topic_compose layer, recorded from outside.

`installed(tracer)` rebinds the names each module looks up at call time
(for example `topic_compose.padd.project_simplex_columns` or
`scipy.optimize.linprog`) to wrappers that open a span, call the original
with the same arguments, and record counts at the same boundary. Nothing
under src/ changes; the originals are restored on exit.

A span records its name, start, end, parent span and request id. Spans
opened in a worker thread hang under the `parallel.map` span that started
the chunk, so a request's spans form one tree across threads. Spans are
kept in memory, appended under a lock, and written out at the end.
"""

import functools
import itertools
import json
import os
import threading
import time
from contextlib import contextmanager

import scipy.optimize

import topic_compose.cli as tc_cli
import topic_compose.estimators as tc_estimators
import topic_compose.model as tc_model
import topic_compose.padd as tc_padd
import topic_compose.synth as tc_synth

SETUP = "setup"  # request id of spans recorded during set-up


class Tracer:
    def __init__(self):
        self.spans = []
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _state(self):
        loc = self._local
        if not hasattr(loc, "stack"):
            loc.stack, loc.rid = [], None
        return loc

    def set_request(self, rid):
        """Tag spans opened from now on in this thread; None leaves them
        out of the layer metrics (work done by the benchmark's checks)."""
        self._state().rid = rid

    @contextmanager
    def span(self, name, **attrs):
        st = self._state()
        with self._lock:
            sid = next(self._ids)
        rec = {"id": sid, "parent": st.stack[-1] if st.stack else None,
               "rid": st.rid, "name": name, "attrs": attrs}
        st.stack.append(sid)
        rec["start"] = time.perf_counter()
        try:
            yield attrs
        except BaseException as exc:
            attrs["error"] = type(exc).__name__
            raise
        finally:
            rec["end"] = time.perf_counter()
            st.stack.pop()
            with self._lock:
                self.spans.append(rec)

    def carry(self, fn):
        """Wrap a chunk function so that, in whichever thread runs it, its
        spans hang under the span open here and share its request id."""
        st = self._state()
        parent, rid = st.stack[-1], st.rid

        def run(chunk):
            loc = self._state()
            saved = loc.stack, loc.rid
            loc.stack, loc.rid = [parent], rid
            try:
                with self.span("parallel.chunk"):
                    return fn(chunk)
            finally:
                loc.stack, loc.rid = saved

        return run

    def write(self, path):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="ascii") as fh:
            for rec in sorted(self.spans, key=lambda r: r["start"]):
                fh.write(json.dumps(rec, sort_keys=True) + "\n")


def _timed(tracer, name, fn, after=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name) as attrs:
            result = fn(*args, **kwargs)
            if after is not None:
                after(attrs, args, kwargs, result)
            return result
    return wrapper


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else (args[index] if len(args) > index else None)


def _file_bytes(index, name):
    def after(attrs, args, kwargs, result):
        attrs["bytes"] = os.path.getsize(_arg(args, kwargs, index, name))
    return after


def _columns(attrs, args, kwargs, result):
    attrs["columns"] = int(result.shape[1])


def _lp_counts(attrs, args, kwargs, result):
    rows = 0
    for index, name in ((1, "A_ub"), (3, "A_eq")):
        A = _arg(args, kwargs, index, name)
        if A is not None:
            rows += A.shape[0]
    attrs["rows"] = rows
    attrs["failed"] = int(result.status != 0)


def _padd_counts(attrs, args, kwargs, result):
    config = _arg(args, kwargs, 2, "config") or tc_padd.PaddConfig()
    diag = result[1]
    attrs["slave_iters"] = config.slave_iters
    attrs["rounds"] = len(diag.rounds)
    attrs["gap_first"] = diag.constraint_gap[0] if diag.rounds else 0.0
    attrs["gap_last"] = diag.constraint_gap[-1] if diag.rounds else 0.0


def _map_wrapper(tracer, site, fn):
    @functools.wraps(fn)
    def wrapper(total, chunk, work, threads):
        with tracer.span("parallel.map", site=site, threads=threads,
                         chunks=len(range(0, total, chunk))):
            return fn(total, chunk, tracer.carry(work), threads)
    return wrapper


def _patches(tracer):
    """(owner, attribute, wrapper factory) for every traced name."""
    def timed(name, after=None):
        return lambda fn: _timed(tracer, name, fn, after)

    def mapped(site):
        return lambda fn: _map_wrapper(tracer, site, fn)

    return [
        (tc_model, "load_model", timed("model.load")),
        (tc_padd, "normalize_corpus", timed("model.normalize")),
        (tc_padd, "word_topic_posterior", timed("model.posterior")),
        (tc_padd, "project_simplex_columns", timed("simplex.project", _columns)),
        (tc_padd, "map_chunks", mapped("padd")),
        (tc_padd, "padd_infer", timed("padd.infer", _padd_counts)),
        (tc_estimators, "normalize_corpus", timed("model.normalize")),
        (tc_estimators, "word_topic_posterior", timed("model.posterior")),
        (tc_estimators, "map_chunks", mapped("estimators")),
        (tc_estimators, "tli_infer", timed("estimators.tli_apply")),
        (tc_estimators, "tli_compute_inverse", timed("estimators.inverse")),
        (scipy.optimize, "linprog", timed("estimators.lp", _lp_counts)),
        (tc_synth, "map_chunks", mapped("synth")),
        (tc_cli, "load_model", timed("model.load")),
        (tc_cli, "read_corpus_tsv", timed("model.read", _file_bytes(0, "path"))),
        (tc_cli, "read_composition_tsv", timed("model.read", _file_bytes(0, "path"))),
        (tc_cli, "read_dense_tsv", timed("model.read", _file_bytes(0, "path"))),
        (tc_cli, "write_corpus_tsv", timed("model.write", _file_bytes(0, "path"))),
        (tc_cli, "write_composition_tsv", timed("model.write", _file_bytes(0, "path"))),
        (tc_cli, "write_dense_tsv", timed("model.write", _file_bytes(0, "path"))),
        (tc_cli, "spi_infer", timed("estimators.spi")),
        (tc_cli, "synthesize", timed("synth.synthesize")),
        (tc_cli, "evaluate_compositions", timed("metrics.evaluate")),
        (tc_cli, "write_report_tsv", timed("metrics.write")),
        (tc_cli, "write_per_doc_tsv", timed("metrics.write")),
        (tc_cli, "cmd_synth", timed("cli.synth")),
        (tc_cli, "cmd_infer", timed("cli.infer")),
        (tc_cli, "cmd_eval", timed("cli.eval")),
    ]


@contextmanager
def installed(tracer):
    """Rebind every traced name to its wrapper while the block runs."""
    saved = []
    try:
        for owner, attr, make in _patches(tracer):
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, make(original))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# per-layer metrics

PER_LAYER = (
    ("model.load_s", "s"),
    ("model.corpus_build_s", "s"),
    ("model.normalize_s", "s"),
    ("model.posterior_s", "s"),
    ("model.read_s", "s"),
    ("model.write_s", "s"),
    ("model.bytes_read", "bytes"),
    ("model.bytes_written", "bytes"),
    ("simplex.project_s", "s"),
    ("simplex.calls", "count"),
    ("simplex.columns", "count"),
    ("padd.infer_s", "s"),
    ("padd.slave_wall_s", "s"),
    ("padd.master_self_s", "s"),
    ("padd.rounds", "count"),
    ("padd.dr_iters", "count"),
    ("padd.iter_cap_frac", "1"),
    ("padd.gap_ratio", "1"),
    ("estimators.inverse_s", "s"),
    ("estimators.lp_s", "s"),
    ("estimators.lp_calls", "count"),
    ("estimators.lp_rows", "count"),
    ("estimators.lp_failed", "count"),
    ("estimators.tli_apply_s", "s"),
    ("estimators.spi_s", "s"),
    ("parallel.calls", "count"),
    ("parallel.chunks", "count"),
    ("parallel.busy_s", "s"),
    ("parallel.wall_s", "s"),
    ("parallel.utilization", "1"),
    ("synth.synthesize_s", "s"),
    ("metrics.evaluate_s", "s"),
    ("metrics.write_s", "s"),
    ("cli.synth_s", "s"),
    ("cli.infer_s", "s"),
    ("cli.eval_s", "s"),
    ("cli.self_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.overhead_frac", "1"),
)


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans, requests):
    """Per-layer numbers for one traced set-up plus one average request.

    Spans recorded during set-up count once; spans of the traced requests
    count 1/requests each; spans with no request id (the benchmark's own
    checks) do not count. Ratios are taken over the same weighted sums.
    """
    by_id = {s["id"]: s for s in spans}
    children, by_name = {}, {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
        by_name.setdefault(s["name"], []).append(s)

    def weight(s):
        if s["rid"] == SETUP:
            return 1.0
        return 1.0 / requests if isinstance(s["rid"], int) else 0.0

    def dur(s):
        return s["end"] - s["start"]

    def self_time(s):
        return dur(s) - sum(dur(c) for c in children.get(s["id"], ()))

    def named(name, **match):
        return [s for s in by_name.get(name, ()) if weight(s)
                and all(s["attrs"].get(k) == v for k, v in match.items())]

    def seconds(name, **match):
        return sum(weight(s) * dur(s) for s in named(name, **match))

    def count(name, **match):
        return sum(weight(s) for s in named(name, **match))

    def attr(name, key):
        return sum(weight(s) * s["attrs"].get(key, 0) for s in named(name))

    padd_maps = named("parallel.map", site="padd")
    padd_chunks = [c for m in padd_maps for c in children.get(m["id"], ())]
    dr_iters = sum(
        weight(c) * (sum(1 for g in children.get(c["id"], ())
                         if g["name"] == "simplex.project") - 1)
        for c in padd_chunks
    )
    iter_cap = sum(
        weight(m) * m["attrs"]["chunks"]
        * by_id[m["parent"]]["attrs"].get("slave_iters", 0)
        for m in padd_maps if m["parent"] in by_id
    )
    infers = named("padd.infer")
    maps = named("parallel.map")
    lp_calls = count("estimators.lp")
    return {
        "model.load_s": seconds("model.load"),
        "model.corpus_build_s": seconds("model.corpus_build"),
        "model.normalize_s": seconds("model.normalize"),
        "model.posterior_s": seconds("model.posterior"),
        "model.read_s": seconds("model.read"),
        "model.write_s": seconds("model.write"),
        "model.bytes_read": attr("model.read", "bytes"),
        "model.bytes_written": attr("model.write", "bytes"),
        "simplex.project_s": seconds("simplex.project"),
        "simplex.calls": count("simplex.project"),
        "simplex.columns": attr("simplex.project", "columns"),
        "padd.infer_s": seconds("padd.infer"),
        "padd.slave_wall_s": seconds("parallel.map", site="padd"),
        "padd.master_self_s": sum(weight(s) * self_time(s) for s in infers),
        "padd.rounds": attr("padd.infer", "rounds"),
        "padd.dr_iters": dr_iters,
        "padd.iter_cap_frac": _ratio(dr_iters, iter_cap),
        "padd.gap_ratio": _ratio(
            sum(_ratio(s["attrs"]["gap_last"], s["attrs"]["gap_first"]) for s in infers),
            len(infers)),
        "estimators.inverse_s": seconds("estimators.inverse"),
        "estimators.lp_s": seconds("estimators.lp"),
        "estimators.lp_calls": lp_calls,
        "estimators.lp_rows": _ratio(attr("estimators.lp", "rows"), lp_calls),
        "estimators.lp_failed": attr("estimators.lp", "failed"),
        "estimators.tli_apply_s": seconds("estimators.tli_apply"),
        "estimators.spi_s": seconds("estimators.spi"),
        "parallel.calls": count("parallel.map"),
        "parallel.chunks": attr("parallel.map", "chunks"),
        "parallel.busy_s": seconds("parallel.chunk"),
        "parallel.wall_s": seconds("parallel.map"),
        "parallel.utilization": _ratio(
            seconds("parallel.chunk"),
            sum(weight(m) * dur(m) * m["attrs"]["threads"] for m in maps)),
        "synth.synthesize_s": seconds("synth.synthesize"),
        "metrics.evaluate_s": seconds("metrics.evaluate"),
        "metrics.write_s": seconds("metrics.write"),
        "cli.synth_s": seconds("cli.synth"),
        "cli.infer_s": seconds("cli.infer"),
        "cli.eval_s": seconds("cli.eval"),
        "cli.self_s": sum(
            weight(s) * self_time(s)
            for name in ("cli.main", "cli.synth", "cli.infer", "cli.eval")
            for s in named(name)),
    }
