"""The benchmark's server process: set up one workload's platform and serve it.

Run by ``perfbench/run.py`` as a child process (never by hand)::

    python3 perfbench/server.py --workload NAME --trace 0|1 --setups K \
        --data-dir DIR

It builds the platform ``K`` times, timing each build from KG generation
until a :class:`~repro.server.KGNetHTTPServer` is accepting (the median is
``setup_s``), keeps the last one serving, and prints one JSON line on
stdout with the port, the set-up intervals (``time.monotonic`` pairs) and
the reference answers only the trained models know.  It then obeys JSON commands on stdin, one per line,
answering each with one JSON line: ``trace_on``/``trace_off`` (install or
remove the tracing wrappers), ``trace_report`` (per-layer metrics of the
traced windows), ``models`` (prediction maps of the paper-venue models) and
``stop``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
from collections import defaultdict
from time import monotonic
from typing import Dict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from repro import datasets  # noqa: E402
from repro.gml.tasks import TaskType  # noqa: E402
from repro.kgnet import KGNet  # noqa: E402
from repro.rdf.terms import IRI, RDF_TYPE  # noqa: E402
from repro.rdf.io import serialize_ntriples  # noqa: E402
from repro.server import KGNetHTTPServer  # noqa: E402
from repro.storage import StorageEngine  # noqa: E402

from perfbench import workloads as W  # noqa: E402
from perfbench.trace import Tracer, install_program_tracing, layer_metrics  # noqa: E402

DBLP_PUBLICATION = W.DBLP + "Publication"


def dblp_config() -> datasets.DBLPConfig:
    return datasets.DBLPConfig(scale=W.SCALE, seed=W.KG_SEED)


def yago_config() -> datasets.YAGOConfig:
    return datasets.YAGOConfig(scale=W.SCALE, seed=W.KG_SEED)


class Deployment:
    """One built platform and the server in front of it."""

    def __init__(self, platform: KGNet, storage=None, triples: int = 0) -> None:
        self.platform = platform
        self.storage = storage
        self.triples = triples
        self.server = KGNetHTTPServer(("127.0.0.1", 0), router=platform.api).start()

    def close(self) -> None:
        self.server.stop()
        if self.storage is not None:
            self.storage.close()


def build(workload: str, directory: str) -> Deployment:
    """Generate the workload's KG(s), load, train or checkpoint, and serve."""
    if workload == "sparqlml_mixed":
        graph = datasets.generate_dblp_kg(dblp_config())
        platform = KGNet()
        platform.load_graph(graph)
        platform.train_sparqlml(W.TRAIN_DBLP_NC)
        platform.train_sparqlml(W.TRAIN_DBLP_LP)
        return Deployment(platform, triples=len(graph))
    if workload == "train_gml":
        dblp = datasets.generate_dblp_kg(dblp_config())
        yago = datasets.generate_yago_kg(yago_config())
        platform = KGNet()
        platform.load_graph(dblp)
        platform.load_graph(yago)
        # The model the concurrent Fig 2 queries use until retraining lands.
        platform.train_sparqlml(W.TRAIN_DBLP_NC)
        return Deployment(platform, triples=len(dblp) + len(yago))
    if workload == "update_durable":
        graph = datasets.generate_dblp_kg(dblp_config())
        storage = StorageEngine(directory)  # fsync on every commit (default)
        platform = KGNet(storage=storage)
        storage.bulk_load(serialize_ntriples(graph), fmt="ntriples")
        return Deployment(platform, storage=storage, triples=len(graph))
    raise ValueError(f"unknown workload {workload!r}")


def prediction_maps(platform: KGNet) -> dict:
    """Prediction maps of every paper-venue model, keyed by model URI."""
    maps = {}
    for uri, outcome in list(platform.gmlaas.outcomes.items()):
        target = outcome.task.target_node_type
        if target is not None and target.value == DBLP_PUBLICATION:
            stored = platform.gmlaas.model_store.get(uri)
            maps[uri] = dict(stored.artifact("prediction_map", {}))
    return maps


def reference_answers(workload: str, deployment: Deployment) -> dict:
    """What only the trained models know: their predictions."""
    platform = deployment.platform
    answers = {"predictions": prediction_maps(platform)}
    if workload == "sparqlml_mixed":
        lp_uri = next(uri for uri, outcome in platform.gmlaas.outcomes.items()
                      if outcome.task.task_type == TaskType.LINK_PREDICTION)
        authors = platform.graph.subjects(RDF_TYPE, IRI(W.DBLP + "Person"))
        answers["lp_model"] = lp_uri
        answers["links"] = {author.value: platform.gmlaas.infer_links(
            lp_uri, author.value, k=10) for author in authors}
    return answers


def counters(deployment: Deployment) -> Dict[str, float]:
    """The program's own counters, flattened to ``section.key``."""
    endpoint = deployment.platform.endpoint
    sections = {"result_cache": endpoint.result_cache.stats(),
                "plan_cache": endpoint.cache_info()}
    if deployment.storage is not None:
        sections["wal"] = deployment.storage.stats().get("wal", {})
    flat = {f"{section}.{key}": float(value)
            for section, values in sections.items()
            for key, value in values.items()
            if isinstance(value, (int, float)) and not isinstance(value, bool)}
    flat["udf_calls"] = float(endpoint.total_udf_calls())
    return flat


def counter_metrics(deltas: Dict[str, float]) -> Dict[str, float]:
    """Per-layer metrics from counter deltas summed over the traced windows.

    A counter the deployment does not have (the WAL without storage) reads 0.
    """
    def delta(key: str) -> float:
        return deltas.get(key, 0.0)

    def hit_rate(section: str) -> float:
        # A lookup that finds a stale entry counts as an invalidation, not
        # a miss; both are lookups that did not hit.
        hits = delta(f"{section}.hits")
        lookups = (hits + delta(f"{section}.misses")
                   + delta(f"{section}.invalidations"))
        return hits / lookups if lookups else 0.0

    ops = delta("wal.ops_logged")
    return {
        "server.result_cache.hit_rate": hit_rate("result_cache"),
        "server.result_cache.evictions": delta("result_cache.evictions"),
        "server.result_cache.invalidations": delta("result_cache.invalidations"),
        "sparql.plan_cache.hit_rate": hit_rate("plan_cache"),
        "sparql.udf_calls": delta("udf_calls"),
        "storage.wal.commits": delta("wal.commits"),
        "storage.wal.bytes_per_op": delta("wal.bytes_written") / ops if ops else 0.0,
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=W.WORKLOADS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setups", type=int, default=3)
    parser.add_argument("--data-dir", required=True)
    args = parser.parse_args()

    # Protocol lines go to the original stdout; anything else the program
    # might print goes to stderr and cannot corrupt them.
    channel = os.fdopen(os.dup(1), "w", buffering=1)
    os.dup2(2, 1)

    def send(message: dict) -> None:
        channel.write(json.dumps(message) + "\n")

    tracer = Tracer() if args.trace else None
    setup_times = []
    deployment = None
    for attempt in range(args.setups):
        if deployment is not None:
            deployment.close()
            deployment = None
            gc.collect()
        if tracer is not None and attempt == args.setups - 1:
            install_program_tracing(tracer)
        directory = os.path.join(args.data_dir, f"setup-{attempt}")
        started = monotonic()
        deployment = build(args.workload, directory)
        setup_times.append((started, monotonic()))
    setup_spans = []
    if tracer is not None:
        tracer.uninstall()
        setup_spans = tracer.drain()

    send({"ready": True,
          "base_url": deployment.server.base_url,
          "setup_intervals": setup_times,
          "triples": deployment.triples,
          "entities": len(set(deployment.platform.graph.subjects())),
          "result_cache_entries": deployment.platform.endpoint.result_cache.maxsize,
          "data_dir": deployment.storage.directory if deployment.storage else None,
          **reference_answers(args.workload, deployment)})

    # Counter deltas are summed over the traced windows only, the interval
    # the spans cover.
    traced_deltas: Dict[str, float] = defaultdict(float)
    opened: Dict[str, float] = {}
    for line in sys.stdin:
        command = json.loads(line).get("cmd")
        if command == "trace_on":
            opened = counters(deployment)
            install_program_tracing(tracer, deployment.server)
            send({"ok": True})
        elif command == "trace_off":
            tracer.uninstall()
            for key, value in counters(deployment).items():
                traced_deltas[key] += value - opened.get(key, 0.0)
            send({"ok": True})
        elif command == "trace_report":
            spans = tracer.drain()
            metrics = layer_metrics(spans, setup_spans,
                                    counter_metrics(traced_deltas))
            Tracer.write(setup_spans + spans, os.path.join(
                os.path.dirname(args.data_dir), f"spans-{args.workload}.jsonl"))
            send({"layers": metrics})
        elif command == "models":
            send({"predictions": prediction_maps(deployment.platform)})
        elif command == "stop":
            deployment.close()
            send({"stopped": True})
            break
    return 0


if __name__ == "__main__":
    sys.exit(main())
