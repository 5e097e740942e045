"""Request-scoped span tracing installed from outside the program.

The benchmark measures per-layer time without touching ``src/``: it wraps
public functions of each ``repro`` layer at run time
(:func:`install_program_tracing`) and removes the wrappers again
(:meth:`Tracer.uninstall`), so the untraced windows of a traced run
execute the program's own code objects.

A span records its name, start, end, busy time, the busy time of its
children, its parent span and the request it belongs to.  Busy time is
end minus start, except for an iterator's span, which is busy only
inside its ``next()`` calls.  The root span of a request starts when the
HTTP handler begins parsing a request (the idle wait for the next request
on a keep-alive connection is not part of it) and ends when the response
has been written; child spans find their parent through a per-thread
stack, because one HTTP worker thread serves one connection.
Lazily consumed results (the row iterator of a SELECT, the serializer's
byte stream) are traced per ``next()`` call: each slice is charged to the
span that is current when the slice runs, so the self time of every span
(busy minus children) stays exact even though the work happens after the
function that created the iterator returned.

Spans stay in memory and are written out when the run ends.
"""

from __future__ import annotations

import functools
import itertools
import json
import statistics
import sys
import threading
from collections import defaultdict
from time import perf_counter
from typing import Callable, Dict, Iterator, List, Optional

__all__ = ["Span", "Tracer", "install_program_tracing", "layer_metrics"]


class Span:
    __slots__ = ("sid", "parent", "rid", "name", "start", "end", "busy",
                 "child", "attrs")

    def __init__(self, sid: int, parent: int, rid: int, name: str,
                 start: float) -> None:
        self.sid = sid
        self.parent = parent
        self.rid = rid
        self.name = name
        self.start = start
        self.end = start
        self.busy = 0.0
        self.child = 0.0
        self.attrs: Optional[dict] = None

    @property
    def self_time(self) -> float:
        return max(0.0, self.busy - self.child)

    def set(self, key: str, value) -> None:
        if self.attrs is None:
            self.attrs = {}
        self.attrs[key] = value

    def get(self, key: str, default=None):
        return default if self.attrs is None else self.attrs.get(key, default)

    def as_dict(self) -> dict:
        return {"id": self.sid, "parent": self.parent, "request": self.rid,
                "name": self.name, "start": self.start, "end": self.end,
                "busy": self.busy, "self": self.self_time,
                "attrs": self.attrs or {}}


class Tracer:
    """Collects spans from every thread of one process."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._patches: list = []

    # ------------------------------------------------------------------
    # Span bookkeeping
    # ------------------------------------------------------------------
    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _new_span(self, name: str, stack: List[Span], start: float) -> Span:
        sid = next(self._ids)
        parent = stack[-1] if stack else None
        if parent is None:
            return Span(sid, 0, sid, name, start)
        return Span(sid, parent.sid, parent.rid, name, start)

    def begin(self, name: str) -> Span:
        stack = self._stack()
        span = self._new_span(name, stack, perf_counter())
        stack.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = perf_counter()
        elapsed = span.end - span.start
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        elif span in stack:
            stack.remove(span)
        span.busy += elapsed
        if stack:
            stack[-1].child += elapsed
        self.spans.append(span)

    def iterate(self, name: str, iterator: Iterator,
                on_item: Optional[Callable[[Span, object], None]] = None,
                span: Optional[Span] = None) -> Iterator:
        """Trace a lazily consumed iterator, one slice per ``next()``."""
        recorded = span is not None
        try:
            while True:
                stack = self._stack()
                started = perf_counter()
                if span is None:
                    span = self._new_span(name, stack, started)
                stack.append(span)
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    span.end = perf_counter()
                    elapsed = span.end - started
                    stack.pop()
                    span.busy += elapsed
                    if stack:
                        stack[-1].child += elapsed
                if on_item is not None:
                    on_item(span, item)
                yield item
        finally:
            close = getattr(iterator, "close", None)
            if close is not None:
                close()
            if span is not None and not recorded:
                self.spans.append(span)

    # ------------------------------------------------------------------
    # Wrapping
    # ------------------------------------------------------------------
    def wrap(self, name: str, function: Callable,
             annotate: Optional[Callable] = None) -> Callable:
        """A traced stand-in for ``function``.

        ``annotate(span, result, args, kwargs)`` stores facts about the
        call (rows returned, bytes written) on the span.
        """
        tracer = self

        @functools.wraps(function)
        def traced(*args, **kwargs):
            span = tracer.begin(name)
            try:
                result = function(*args, **kwargs)
            finally:
                tracer.end(span)
            if annotate is not None:
                annotate(span, result, args, kwargs)
            return result

        return traced

    def patch(self, owner, attr: str, replacement: Callable) -> None:
        """Set ``owner.attr`` (class or module) and remember how to undo it."""
        had_own = attr in vars(owner)
        original = vars(owner).get(attr) if had_own else getattr(owner, attr)
        setattr(owner, attr, replacement)
        self._patches.append((owner, attr, had_own, original))

    def patch_method(self, cls, attr: str, name: str,
                     annotate: Optional[Callable] = None) -> None:
        self.patch(cls, attr, self.wrap(name, getattr(cls, attr), annotate))

    def patch_function(self, module, attr: str, name: str) -> None:
        """Replace a module-level function everywhere ``repro`` imported it."""
        original = getattr(module, attr)
        traced = self.wrap(name, original)
        for module_name, loaded in list(sys.modules.items()):
            if not module_name.startswith("repro") or loaded is None:
                continue
            for key, value in list(vars(loaded).items()):
                if value is original:
                    self.patch(loaded, key, traced)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, had_own, original = self._patches.pop()
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    # ------------------------------------------------------------------
    def drain(self) -> List[Span]:
        spans, self.spans = self.spans, []
        return spans

    @staticmethod
    def write(spans: List[Span], path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in spans:
                handle.write(json.dumps(span.as_dict()))
                handle.write("\n")


def _sized(result) -> int:
    try:
        return len(result)
    except TypeError:
        return 1


def install_program_tracing(tracer: Tracer, server=None) -> None:
    """Wrap the public entry points of every ``repro`` layer.

    ``server`` is the running :class:`~repro.server.KGNetHTTPServer`; its
    request handler class carries the per-request root span.
    """
    from repro import datasets
    from repro.gml import transform
    from repro.gml.train import trainer
    from repro.kgnet.api.envelopes import APIRequest
    from repro.kgnet.api.router import APIRouter
    from repro.kgnet.gmlaas.service import GMLaaS
    from repro.kgnet.kgmeta.governor import KGMetaGovernor
    from repro.kgnet.meta_sampler import MetaSampler
    from repro.kgnet.sparqlml.optimizer import SPARQLMLOptimizer
    from repro.kgnet.sparqlml.parser import SPARQLMLParser
    from repro.kgnet.sparqlml.rewriter import SPARQLMLRewriter
    from repro.kgnet.sparqlml.service import SPARQLMLService
    from repro.server import service
    from repro.sparql import optimizer
    from repro.sparql.endpoint import SPARQLEndpoint
    from repro.sparql.evaluator import QueryEvaluator
    from repro.sparql.functions import UDFRegistry
    from repro.sparql.parser import SPARQLParser
    from repro.storage import bulkload, checkpoint
    from repro.storage.engine import StorageEngine
    from repro.storage.wal import WriteAheadLog

    # -- server: the root span covers parse → response written ------------
    if server is not None:
        handler_cls = server.RequestHandlerClass
        local = threading.local()
        handle_one = handler_cls.handle_one_request
        parse_request = handler_cls.parse_request

        def traced_handle_one_request(handler):
            local.root = None
            local.armed = True
            try:
                handle_one(handler)
            finally:
                root, local.root, local.armed = local.root, None, False
                if root is not None:
                    tracer.end(root)

        def traced_parse_request(handler):
            # Only a request whose handle_one_request is wrapped may open a
            # root: one already blocked in readline when tracing was
            # installed would never close it.
            if getattr(local, "armed", False) and local.root is None:
                local.root = tracer.begin("server.request")
            return parse_request(handler)

        tracer.patch(handler_cls, "handle_one_request", traced_handle_one_request)
        tracer.patch(handler_cls, "parse_request", traced_parse_request)

    def envelope_bytes(span, response, args, kwargs):
        request = args[1]
        body = response.body
        if request.path.startswith("/kgnet/v1") and isinstance(body, (bytes, bytearray)):
            span.set("envelope_bytes", len(body))

    tracer.patch_method(service.ServiceHandler, "handle", "server.handle",
                        envelope_bytes)

    # -- kgnet.api ---------------------------------------------------------
    def dispatch_op(span, response, args, kwargs):
        request = args[1]
        op = request.op if isinstance(request, APIRequest) else (
            request.get("op") if isinstance(request, dict) else None)
        span.set("op", str(op))

    tracer.patch_method(APIRouter, "dispatch", "kgnet.api.dispatch", dispatch_op)

    # -- sparql --------------------------------------------------------------
    tracer.patch_method(SPARQLParser, "parse", "sparql.parse")
    tracer.patch_function(optimizer, "reorder_group_elements", "sparql.optimize")
    tracer.patch_method(UDFRegistry, "call", "sparql.udf")

    stream_select = QueryEvaluator.stream_select

    def count_row(span, _row):
        span.set("rows", span.get("rows", 0) + 1)

    def traced_stream_select(evaluator, query):
        span = tracer.begin("sparql.execute")
        try:
            variables, rows = stream_select(evaluator, query)
        finally:
            tracer.end(span)
        span.set("rows", 0)
        return variables, tracer.iterate("sparql.execute", iter(rows),
                                         count_row, span=span)

    tracer.patch(QueryEvaluator, "stream_select", traced_stream_select)

    serialize_result = service.serialize_result

    def count_bytes(span, fragment):
        span.set("bytes", span.get("bytes", 0) + len(fragment))

    def traced_serialize_result(result, media_type):
        return tracer.iterate("sparql.serialize",
                              iter(serialize_result(result, media_type)),
                              count_bytes)

    tracer.patch(service, "serialize_result", traced_serialize_result)

    # -- kgnet.sparqlml ------------------------------------------------------
    tracer.patch_method(
        SPARQLMLService, "execute_select", "kgnet.sparqlml.select",
        lambda span, report, a, k: span.set("rows", len(report.results)))
    tracer.patch_method(SPARQLMLParser, "parse_select", "kgnet.sparqlml.parse")
    tracer.patch_method(KGMetaGovernor, "find_models", "kgnet.sparqlml.select_model")
    tracer.patch_method(SPARQLMLOptimizer, "select_model",
                        "kgnet.sparqlml.select_model")
    tracer.patch_method(SPARQLMLRewriter, "rewrite", "kgnet.sparqlml.rewrite")
    tracer.patch_method(
        SPARQLMLOptimizer, "choose_plan", "kgnet.sparqlml.choose_plan",
        lambda span, plan, a, k: span.set("plan", plan.plan))

    # -- kgnet.gmlaas ----------------------------------------------------------
    for attr in ("infer_node_class", "infer_node_class_dictionary",
                 "infer_links", "infer_similar_entities", "infer_batch"):
        tracer.patch_method(
            GMLaaS, attr, "kgnet.gmlaas.infer",
            lambda span, result, a, k: span.set("predictions", _sized(result)))
    tracer.patch_method(
        GMLaaS, "train", "kgnet.gmlaas.train",
        lambda span, response, a, k: span.set("peak_bytes",
                                              response.peak_memory_bytes))

    # -- kgnet.meta_sampler / kgnet.kgmeta -------------------------------------
    def kg_share(span, result, args, kwargs):
        report = result[1]
        if report.num_kg_triples:
            span.set("kg_share", report.num_subgraph_triples / report.num_kg_triples)

    tracer.patch_method(MetaSampler, "extract", "kgnet.meta_sampler.extract",
                        kg_share)
    tracer.patch_method(KGMetaGovernor, "register_model", "kgnet.kgmeta.register")

    # -- gml --------------------------------------------------------------------
    for attr in ("to_node_classification_data", "to_link_prediction_data"):
        tracer.patch_method(transform.RDFGraphTransformer, attr, "gml.transform")
    for cls in (trainer.FullBatchNodeClassificationTrainer,
                trainer.SamplingNodeClassificationTrainer,
                trainer.KGETrainer, trainer.MorsETrainer):
        tracer.patch_method(
            cls, "train", "gml.train.fit",
            lambda span, result, a, k: span.set("epochs", result.num_epochs))

    # -- storage ------------------------------------------------------------
    tracer.patch_method(WriteAheadLog, "commit", "storage.wal.commit",
                        lambda span, seq, a, k: span.set("seq", seq))

    def checkpoint_size(span, info, args, kwargs):
        span.set("bytes", info.bytes)
        span.set("triples", info.triples)

    tracer.patch_method(StorageEngine, "checkpoint", "storage.checkpoint",
                        checkpoint_size)
    tracer.patch_function(checkpoint, "read_checkpoint", "storage.restore")

    # -- rdf ----------------------------------------------------------------
    tracer.patch_method(SPARQLEndpoint, "apply_update", "rdf.update_apply")
    tracer.patch_method(SPARQLEndpoint, "load", "rdf.load")
    tracer.patch_function(bulkload, "stream_load", "rdf.load")

    # -- datasets -----------------------------------------------------------
    for attr in ("generate_dblp_kg", "generate_yago_kg"):
        tracer.patch_function(datasets, attr, "datasets.generate")


# ----------------------------------------------------------------------
# Aggregation
# ----------------------------------------------------------------------

def _mean(values) -> float:
    values = list(values)
    return statistics.fmean(values) if values else 0.0


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(spans: List[Span], setup_spans: List[Span],
                  counters: Dict[str, float]) -> Dict[str, float]:
    """Reduce one traced phase to the per-layer metrics.

    ``*_ms`` metrics are the mean self time per call of the named span (or
    per SPARQL-ML query, for spans a query makes several of); ``counters``
    carries metrics from the program's own counters over the traced windows.
    A layer a workload never reaches reports 0 (e.g. storage on
    ``sparqlml_mixed``).
    """
    by_name: Dict[str, List[Span]] = defaultdict(list)
    for span in spans:
        by_name[span.name].append(span)

    def mean_self_ms(name: str) -> float:
        return 1e3 * _mean(span.self_time for span in by_name[name])

    def total_self(name: str) -> float:
        return sum(span.self_time for span in by_name[name])

    selects = by_name["kgnet.sparqlml.select"]
    select_ids = {span.sid for span in selects}
    parents = {span.sid: span.parent for span in spans}

    def under_select(span: Span) -> Optional[int]:
        sid = span.parent
        for _ in range(64):
            if sid in select_ids:
                return sid
            sid = parents.get(sid, 0)
            if not sid:
                return None
        return None

    ml_infers = [span for span in by_name["kgnet.gmlaas.infer"]
                 if under_select(span) is not None]
    executes = by_name["sparql.execute"]
    execute_rows = sum(span.get("rows", 0) for span in executes)
    plans = by_name["kgnet.sparqlml.choose_plan"]
    commits = [span for span in by_name["storage.wal.commit"]
               if span.get("seq") is not None]
    epochs = [1e3 * span.busy / span.get("epochs")
              for span in by_name["gml.train.fit"] if span.get("epochs")]
    envelope = [span.get("envelope_bytes") for span in by_name["server.handle"]
                if span.get("envelope_bytes") is not None]
    peaks = [span.get("peak_bytes") / 1e6 for span in by_name["kgnet.gmlaas.train"]]
    dispatch_by_op: Dict[str, List[float]] = defaultdict(list)
    for span in by_name["kgnet.api.dispatch"]:
        dispatch_by_op[span.get("op")].append(span.self_time)

    setup_by_name: Dict[str, List[Span]] = defaultdict(list)
    for span in setup_spans:
        setup_by_name[span.name].append(span)
    checkpoints = setup_by_name["storage.checkpoint"]

    metrics = {
        "server.wire_ms": mean_self_ms("server.request"),
        "server.handle_ms": mean_self_ms("server.handle"),
        "server.requests": float(len(by_name["server.request"])),
        "kgnet.api.response_bytes": _mean(envelope),
        "sparql.parse_ms": mean_self_ms("sparql.parse"),
        "sparql.optimize_ms": mean_self_ms("sparql.optimize"),
        "sparql.execute_ms": mean_self_ms("sparql.execute"),
        "sparql.execute_us_per_row": 1e6 * _ratio(total_self("sparql.execute"),
                                                  execute_rows),
        "sparql.rows_out": _ratio(execute_rows, len(executes)),
        "sparql.serialize_ms": mean_self_ms("sparql.serialize"),
        "sparql.bytes_out": _mean(span.get("bytes", 0)
                                  for span in by_name["sparql.serialize"]),
        "kgnet.sparqlml.parse_ms": mean_self_ms("kgnet.sparqlml.parse"),
        "kgnet.sparqlml.select_model_ms": 1e3 * _ratio(
            total_self("kgnet.sparqlml.select_model"), len(selects)),
        "kgnet.sparqlml.rewrite_ms": 1e3 * _ratio(
            total_self("kgnet.sparqlml.rewrite"), len(selects)),
        "kgnet.sparqlml.dictionary_plan_share": _ratio(
            sum(1 for span in plans if span.get("plan") == "dictionary"),
            len(plans)),
        "kgnet.gmlaas.infer_ms": mean_self_ms("kgnet.gmlaas.infer"),
        "kgnet.gmlaas.calls_per_query": _ratio(len(ml_infers), len(selects)),
        "kgnet.gmlaas.useful_ratio": _ratio(
            sum(span.get("rows", 0) for span in selects),
            sum(span.get("predictions", 0) for span in ml_infers)),
        "kgnet.gmlaas.train_ms": mean_self_ms("kgnet.gmlaas.train"),
        "kgnet.gmlaas.traced_peak_mb": statistics.median(peaks) if peaks else 0.0,
        "kgnet.meta_sampler.extract_ms": 1e3 * _mean(
            span.busy for span in by_name["kgnet.meta_sampler.extract"]),
        "kgnet.meta_sampler.kg_share": _mean(
            span.get("kg_share", 0.0)
            for span in by_name["kgnet.meta_sampler.extract"]),
        "kgnet.kgmeta.register_ms": 1e3 * _mean(
            span.busy for span in by_name["kgnet.kgmeta.register"]),
        "gml.transform_ms": mean_self_ms("gml.transform"),
        "gml.train.fit_ms": mean_self_ms("gml.train.fit"),
        "gml.train.ms_per_epoch": _mean(epochs),
        "storage.wal.commit_ms": 1e3 * _mean(span.busy for span in commits),
        "storage.checkpoint_ms": 1e3 * _mean(span.busy for span in checkpoints),
        "storage.checkpoint.bytes_per_triple": _ratio(
            sum(span.get("bytes", 0) for span in checkpoints),
            sum(span.get("triples", 0) for span in checkpoints)),
        "rdf.update_apply_ms": mean_self_ms("rdf.update_apply"),
        "rdf.load_ms": 1e3 * sum(span.busy for span in setup_by_name["rdf.load"]),
        "datasets.generate_ms": 1e3 * sum(
            span.busy for span in setup_by_name["datasets.generate"]),
        "tracing.spans": float(len(spans)),
    }
    for op in ("sparql", "sparqlml_select", "infer_links", "train"):
        metrics[f"kgnet.api.dispatch_ms.{op}"] = 1e3 * _mean(dispatch_by_op[op])
    metrics.update(counters)
    return metrics
