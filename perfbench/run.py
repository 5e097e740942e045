"""KGNet end-to-end benchmark: SPARQL-ML serving, TrainGML, durable updates.

Run from the repository root::

    python3 perfbench/run.py --workload sparqlml_mixed --seed 1 --seconds 20 --trace 0

The platform runs as a :class:`~repro.server.KGNetHTTPServer` in a child
process (``perfbench/server.py``); this process is the load generator, with
at most two HTTP connections.  Every answer is checked against expectations
computed from the generated inputs.  The last line of stdout is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``: the end-to-end
metrics of ``BENCHMARK.json`` (``--trace 0``) or its per-layer metrics
(``--trace 1``).  The line before it is the full record: provenance, every
request class with its sample count, and the workload's own metrics.
See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter, defaultdict
from time import monotonic
from typing import Callable, Dict, List, Optional

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_DIR = os.path.join(ROOT, ".perfbench_run")
sys.path.insert(0, ROOT)

from perfbench import workloads as W  # noqa: E402

#: Default and held-out seeds (see README: a claim made on the default seed
#: is confirmed on the held-out one).
DEFAULT_SEED = 1
HELD_OUT_SEED = 2027

#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 3
#: Untimed, checked requests that fill the caches before timing starts.
WARMUP_SECONDS = 1.0
#: Fig 2 queries per second sent open-loop beside training (train_gml).
#: This and the next are unverified assumptions (README, "Traffic
#: assumptions").
TRAIN_QUERY_RATE = 10.0
#: Every n-th open-loop Fig 2 query covers all papers instead of one author's.
TRAIN_FULL_QUERY_EVERY = 20
#: A timed phase is cut into this many equal windows.  Each latency is
#: scaled by the host's slowness over its window, and rates are the median
#: over windows, so host speed is tracked at the scale it drifts on.
WINDOWS = 5
#: Hard limit on one run; the server process is killed past it.
WATCHDOG_SECONDS = 170.0
#: CPU seconds of one ``perfbench/calibrate.py`` probe at the reference
#: speed every reported time is scaled to.
REFERENCE_PROBE_S = 0.5e-3

#: Request classes whose latency is ``primary`` / ``read`` per workload.
PRIMARY = {"sparqlml_mixed": ("sparqlml", "sparqlml_all"),
           "train_gml": ("train",),
           "update_durable": ("update",)}
READS = {"sparqlml_mixed": ("point", "join", "groupby"),
         "train_gml": ("sparqlml",),
         "update_durable": ("point", "join", "groupby")}

PROTOCOL_SELECTS = ("point", "join", "groupby")


def declared_metrics(kind: str) -> Dict[str, str]:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics that
    ``BENCHMARK.json`` declares; the result line reports exactly these."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return {metric["name"]: metric["unit"] for metric in json.load(handle)[kind]}


def reported(kind: str, values: Dict[str, float]) -> dict:
    declared = declared_metrics(kind)
    missing = sorted(set(declared) - set(values))
    if missing:
        raise RuntimeError(f"no value measured for {kind} metrics {missing}")
    return {name: {"value": float(values[name]), "unit": unit}
            for name, unit in declared.items()}


def program_present() -> bool:
    return all(os.path.isfile(os.path.join(ROOT, path))
               for path in ("src/repro/__init__.py", "benchmarks/harness.py"))


# ----------------------------------------------------------------------
# The server process
# ----------------------------------------------------------------------

class ServerProcess:
    """The child running the platform; talks JSON lines over stdin/stdout."""

    def __init__(self, workload: str, trace: int, setups: int,
                 data_dir: str) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(ROOT, "perfbench", "server.py"),
             "--workload", workload, "--trace", str(trace),
             "--setups", str(setups), "--data-dir", data_dir],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        self.watchdog = threading.Timer(WATCHDOG_SECONDS, self.proc.kill)
        self.watchdog.daemon = True
        self.watchdog.start()
        self.usage = None

    def read(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("the server process exited unexpectedly")
        return json.loads(line)

    def call(self, cmd: str) -> dict:
        self.proc.stdin.write(json.dumps({"cmd": cmd}) + "\n")
        self.proc.stdin.flush()
        return self.read()

    def stop(self) -> None:
        """Stop serving and reap the child, keeping its resource usage."""
        try:
            self.call("stop")
        finally:
            self._reap()

    def kill(self) -> None:
        if self.usage is None:
            self.proc.kill()
            self._reap()

    def _reap(self) -> None:
        # os.wait4, not Popen.wait: it also returns the child's rusage, whose
        # ru_maxrss is the server's peak RSS.  Nothing else may reap the
        # child first, so Popen.poll() is never called.
        if self.usage is None:
            try:
                self.proc.stdin.close()
            except OSError:
                pass
            self.proc.stdout.read()
            self.proc.stdout.close()
            _, status, self.usage = os.wait4(self.proc.pid, 0)
            self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.watchdog.cancel()


class Calibrator:
    """Runs ``perfbench/calibrate.py`` for the whole run (see its docstring)."""

    def __init__(self, directory: str) -> None:
        self.path = os.path.join(directory, "speed.txt")
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(ROOT, "perfbench", "calibrate.py"),
             self.path])
        self.samples: List[tuple] = []

    def stop(self) -> None:
        if self.proc.returncode is not None:
            return
        self.proc.terminate()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        with open(self.path, encoding="utf-8") as handle:
            for line in handle:
                parts = line.split()
                if len(parts) == 4:
                    self.samples.append((float(parts[0]), float(parts[1]),
                                         int(parts[2]), int(parts[3])))

    def stolen(self, start: float, end: float) -> float:
        """Share of the CPU time wanted over ``[start, end]`` that the
        hypervisor gave to other guests (0 without ``/proc/stat``), capped
        so a few ticks in a short interval cannot blow up the scale."""
        inside = [sample for sample in self.samples if start <= sample[0] <= end]
        if len(inside) < 2:
            return 0.0
        steal = inside[-1][2] - inside[0][2]
        busy = inside[-1][3] - inside[0][3]
        return min(steal / busy, 0.9) if busy > 0 else 0.0

    def slowness(self, start: float, end: float) -> float:
        """How much slower than the reference the host ran over ``[start, end]``.

        The median probe time relative to the reference (how fast a core
        ran), divided by the share of wanted CPU time not stolen.  Above 1
        the host ran slower than the reference speed; a time divided by it
        (a rate multiplied by it) is the reference-speed value.
        """
        probes = [sample[1] for sample in self.samples if start <= sample[0] <= end]
        if not probes:
            probes = [sample[1] for sample in self.samples]
        return (statistics.median(probes) / REFERENCE_PROBE_S
                / (1.0 - self.stolen(start, end)))


# ----------------------------------------------------------------------
# Load generation
# ----------------------------------------------------------------------

class Tally:
    """What one connection saw: latencies per class, failures, wrong answers."""

    def __init__(self) -> None:
        #: class -> [(completion time, latency seconds)]
        self.latency: Dict[str, List[tuple]] = defaultdict(list)
        self.attempted: Counter = Counter()
        self.failed: Counter = Counter()
        self.wrong: Counter = Counter()
        self.errors: List[str] = []

    def merge(self, other: "Tally") -> None:
        for cls, values in other.latency.items():
            self.latency[cls].extend(values)
        self.attempted.update(other.attempted)
        self.failed.update(other.failed)
        self.wrong.update(other.wrong)
        self.errors.extend(other.errors)

    def timed(self, cls: str, call: Callable, check: Callable,
              due: Optional[float] = None):
        """Send one request; latency runs from ``due`` when it is given."""
        self.attempted[cls] += 1
        started = monotonic()
        try:
            answer = call()
        except Exception as exc:  # noqa: BLE001 — a failed request is counted
            self.failed[cls] += 1
            if len(self.errors) < 5:
                self.errors.append(f"{cls}: {exc!r}")
            return None
        done = monotonic()
        self.latency[cls].append((done, done - (started if due is None else due)))
        if check is not None and not check(answer):
            self.wrong[cls] += 1
        return answer


def run_threads(loops: List[Callable[[Tally], None]],
                during: Optional[Callable[[], None]] = None) -> List[Tally]:
    """Run one load loop per connection; ``during`` runs meanwhile."""
    tallies = [Tally() for _ in loops]
    threads = [threading.Thread(target=loop, args=(tally,), daemon=True)
               for loop, tally in zip(loops, tallies)]
    for thread in threads:
        thread.start()
    if during is not None:
        during()
    for thread in threads:
        thread.join()
    return tallies


class Phase:
    """One timed phase: merged tallies plus its ``time.monotonic`` interval."""

    def __init__(self, tallies: List[Tally], start: float, end: float) -> None:
        self.tally = Tally()
        for tally in tallies:
            self.tally.merge(tally)
        self.start = start
        self.end = end
        self.seconds = end - start

    def samples(self, classes, start: float = float("-inf"),
                end: float = float("inf")) -> List[float]:
        """Sorted latencies of ``classes`` completed within ``[start, end)``."""
        return sorted(latency for cls in classes
                      for done, latency in self.tally.latency.get(cls, ())
                      if start <= done < end)

    def completed(self, classes=None, start: float = float("-inf"),
                  end: float = float("inf")) -> int:
        return sum(1 for cls, values in self.tally.latency.items()
                   if classes is None or cls in classes
                   for done, _ in values if start <= done < end)

    def windows(self) -> List[tuple]:
        width = self.seconds / WINDOWS
        return [(self.start + i * width, self.start + (i + 1) * width)
                for i in range(WINDOWS)]


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------

class Workload:
    def __init__(self, args, ready: dict, index) -> None:
        self.args = args
        self.ready = ready
        self.index = index
        self.predictions: Dict[str, Dict[str, str]] = ready["predictions"]

    def check_fig2(self, op, answer) -> bool:
        models = answer.get("models") or []
        if len(models) != 1 or models[0] not in self.predictions:
            return False
        return W.check_fig2(self.index, op, answer, self.predictions[models[0]])

    def check_select(self, op):
        return lambda bindings: W.check_select(self.index, op, bindings)


class SparqlmlMixed(Workload):
    def __init__(self, *a) -> None:
        super().__init__(*a)
        self.streams = [W.mixed_ops(self.index, self.args.seed, c)
                        for c in (0, 1)]
        self.links = self.ready["links"]
        self.lp_model = self.ready["lp_model"]

    def send(self, tally: Tally, client, op) -> None:
        if op.cls in PROTOCOL_SELECTS:
            tally.timed(op.cls, lambda: client.protocol_select(op.text),
                        self.check_select(op))
        elif op.cls.startswith("sparqlml"):
            tally.timed(op.cls, lambda: client.query(op.text),
                        lambda answer: self.check_fig2(op, answer))
        else:
            tally.timed(op.cls, lambda: client.infer_links(self.lp_model, op.key, k=10),
                        lambda got: W.check_links(self.links[op.key], got))

    def loops(self, clients, seconds: float):
        def loop(connection: int):
            def run(tally: Tally) -> None:
                deadline = monotonic() + seconds
                stream = self.streams[connection]
                while monotonic() < deadline:
                    self.send(tally, clients[connection], next(stream))
            return run
        return [loop(0), loop(1)]


class UpdateDurable(Workload):
    def __init__(self, *a) -> None:
        super().__init__(*a)
        self.updates = W.UpdateStream(self.index, self.args.seed)
        self.reads = W.hot_ops(self.index, self.args.seed)
        self.acked: Dict[int, str] = {}

    def apply(self, tally: Tally, client) -> None:
        op = self.updates.next_op()

        def check(payload) -> bool:
            result = payload.get("result") or {}
            return result.get("affected_triples") == len(self.updates.batches[op.batch])

        if tally.timed("update", lambda: client.protocol_update(op.text), check):
            self.acked[op.batch] = op.key

    def loops(self, clients, seconds: float):
        def writer(tally: Tally) -> None:
            deadline = monotonic() + seconds
            while monotonic() < deadline:
                self.apply(tally, clients[0])

        def reader(tally: Tally) -> None:
            deadline = monotonic() + seconds
            while monotonic() < deadline:
                op = next(self.reads)
                tally.timed(op.cls, lambda: clients[1].protocol_select(op.text),
                            self.check_select(op))
        return [writer, reader]

    def expected_state(self) -> set:
        """Base KG plus every acknowledged insert not acknowledged deleted."""
        state = self.index.triple_keys()
        for batch, kind in self.acked.items():
            if kind == "insert":
                state.update(self.updates.batches[batch])
        return state


class TrainGML(Workload):
    def __init__(self, *a) -> None:
        super().__init__(*a)
        self.authors = W.Zipf(self.index.author_pool(),
                              random.Random(self.args.seed * 7 + 3))
        self.answers: List = []
        self.quality: Dict[str, List[float]] = defaultdict(list)
        #: Per round of TRAIN_CYCLE, the (start, end) of each request.
        self.rounds: List[List[tuple]] = []

    def loops(self, clients, seconds: float):
        done = threading.Event()

        def trainer(tally: Tally) -> None:
            deadline = monotonic() + seconds
            try:
                while monotonic() < deadline:
                    requests = []
                    for name, metric, text in W.TRAIN_CYCLE:
                        started = monotonic()
                        report = tally.timed(
                            "train", lambda: clients[0].train(query=text),
                            lambda report: W.check_train(name, metric, report))
                        requests.append((started, monotonic()))
                        if report is not None:
                            self.quality[name].append(report["metrics"][metric])
                    self.rounds.append(requests)
            finally:
                done.set()

        def queries(tally: Tally) -> None:
            start = monotonic()
            lateness = []
            sent = 0
            while not done.is_set():
                due = start + sent / TRAIN_QUERY_RATE
                wait = due - monotonic()
                if wait > 0 and done.wait(wait):
                    break
                lateness.append(monotonic() - due)
                sent += 1
                if sent % TRAIN_FULL_QUERY_EVERY == 0:
                    op = W.Op("sparqlml_all", W.fig2_query())
                else:
                    author = self.authors.draw()
                    op = W.Op("sparqlml", W.fig2_query(author), author)
                answer = tally.timed(op.cls, lambda: clients[1].query(op.text),
                                     None, due=due)
                if answer is not None:
                    self.answers.append((op, answer))
            self.lateness = sorted(lateness)
        return [trainer, queries]

    def check_answers(self, tally: Tally, predictions: dict) -> None:
        """Fig 2 rows against the maps of the models that answered them."""
        self.predictions = predictions
        for op, answer in self.answers:
            if not self.check_fig2(op, answer):
                tally.wrong[op.cls] += 1
        self.answers = []


WORKLOAD_CLASSES = {"sparqlml_mixed": SparqlmlMixed, "train_gml": TrainGML,
                    "update_durable": UpdateDurable}


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------

def provenance(args, ready: dict, index) -> dict:
    import numpy
    sha = None
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True, timeout=10,
                                 check=True).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": sha,
        "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED,
        "workload": args.workload,
        "run_seconds": args.seconds,
        "setups": SETUPS if not args.trace else 1,
        "triples": ready["triples"],
        "entities": ready["entities"],
        "typed_entity_pool": len(index.typed),
        "result_cache_entries": ready["result_cache_entries"],
        "flush_policy": ("fsync on every WAL commit (StorageEngine default)"
                         if args.workload == "update_durable" else "in-memory"),
    }


def class_table(phase: Phase, percentile) -> dict:
    table = {}
    tally = phase.tally
    for cls in sorted(tally.attempted):
        values = sorted(latency for _, latency in tally.latency.get(cls, ()))
        row = {"attempted": tally.attempted[cls], "failed": tally.failed[cls],
               "wrong": tally.wrong[cls], "n": len(values)}
        if values:
            row["p50_ms"] = 1e3 * percentile(values, 0.50)
            row["p99_ms"] = 1e3 * percentile(values, 0.99)
        table[cls] = row
    return table


def summary(name: str, values: List[float], percentile, quantile: float,
            unit: str = "ms", scale: float = 1e3) -> dict:
    ordered = sorted(values)
    return {"value": scale * percentile(ordered, quantile) if ordered else None,
            "unit": unit, "n": len(ordered), "stat": name}


def end_to_end(workload: str, phase: Phase, percentile, extra: dict,
               slowness: Callable[[float, float], float]) -> Dict[str, float]:
    """The gated metrics; ``slowness(start, end)`` scales times to the
    reference CPU speed (see :meth:`Calibrator.slowness`)."""
    def over_windows(value) -> float:
        return statistics.median(value(start, end, slowness(start, end))
                                 for start, end in phase.windows())

    def p50(classes) -> float:
        # Each latency is scaled by the probe over its own window.
        scaled = []
        for start, end in phase.windows():
            slow = slowness(start, end)
            scaled.extend(latency / slow
                          for latency in phase.samples(classes, start, end))
        return 1e3 * percentile(sorted(scaled), 0.50)

    if workload == "train_gml":
        # Trainings take seconds: each is scaled by the probe over its own
        # interval, and a round's mean request time is one sample.
        primary = 1e3 * statistics.median(
            statistics.fmean((end - start) / slowness(start, end)
                             for start, end in requests)
            for requests in extra["rounds"])
        # The queries arrive open-loop at a fixed rate; only the closed-loop
        # trainings say how fast the server works.
        ops = (phase.completed(("train",)) / phase.seconds
               * slowness(phase.start, phase.end))
    else:
        primary = p50(PRIMARY[workload])
        ops = over_windows(lambda start, end, slowness:
                           phase.completed(None, start, end) / (end - start) * slowness)
    return {
        "setup_s": statistics.median(extra["setup_s"]),
        "ops_per_s": ops,
        "primary_p50_ms": primary,
        "read_p50_ms": p50(READS[workload]),
        "peak_rss_mb": extra["peak_rss_mb"],
    }


def workload_metrics(workload: str, phase: Phase, percentile, extra: dict) -> dict:
    """The workload's own end-to-end metrics, each with its sample count.

    Latencies here are as measured; ``setup_s`` and ``restart_s`` are at the
    reference speed, like every gated metric.
    """
    sparql = phase.samples(PROTOCOL_SELECTS)
    ml = phase.samples(("sparqlml", "sparqlml_all"))
    metrics = {}
    if workload in ("sparqlml_mixed", "update_durable"):
        metrics["sparql_p50_ms"] = summary("p50", sparql, percentile, 0.50)
        metrics["sparql_p99_ms"] = summary("p99", sparql, percentile, 0.99)
    if workload == "sparqlml_mixed":
        metrics["sparqlml_p50_ms"] = summary("p50", ml, percentile, 0.50)
        metrics["sparqlml_p99_ms"] = summary("p99", ml, percentile, 0.99)
        metrics["infer_p50_ms"] = summary("p50", phase.samples(("infer",)),
                                          percentile, 0.50)
    if workload == "update_durable":
        updates = phase.samples(("update",))
        metrics["update_p50_ms"] = summary("p50", updates, percentile, 0.50)
        metrics["update_p99_ms"] = summary("p99", updates, percentile, 0.99)
        metrics["restart_s"] = {"value": statistics.median(extra["restart_s"]),
                                "unit": "s", "n": len(extra["restart_s"]),
                                "stat": "median, reference speed"}
    if workload == "train_gml":
        metrics["train_s"] = summary("p50", phase.samples(("train",)), percentile,
                                     0.50, unit="s", scale=1.0)
        metrics["sparqlml_p50_ms"] = summary("p50 from due time", ml, percentile, 0.50)
        metrics["generator_late_p50_ms"] = summary("p50", extra["lateness"],
                                                   percentile, 0.50)
        metrics["generator_late_max_ms"] = summary("max", extra["lateness"],
                                                   percentile, 1.0)
        quality = extra["quality"]
        nc = [statistics.fmean(quality[name]) for name, metric, _ in
              W.TRAIN_CYCLE if metric == "accuracy" and quality.get(name)]
        lp = [value for name, metric, _ in W.TRAIN_CYCLE if metric == "hits@10"
              for value in quality.get(name, ())]
        metrics["nc_accuracy"] = {"value": statistics.fmean(nc) if nc else None,
                                  "unit": "ratio", "n": len(nc)}
        metrics["lp_hits_at_10"] = {"value": statistics.fmean(lp) if lp else None,
                                    "unit": "ratio", "n": len(lp)}
    tally = phase.tally
    attempted = sum(tally.attempted.values())
    metrics["error_rate"] = {
        "value": (sum(tally.failed.values()) + sum(tally.wrong.values()))
        / max(attempted, 1), "unit": "ratio", "n": attempted}
    metrics["ops_per_s"] = {"value": phase.completed() / phase.seconds,
                            "unit": "op/s", "n": phase.completed()}
    metrics["peak_rss_mb"] = {"value": extra["peak_rss_mb"], "unit": "MB", "n": 1}
    return metrics


# ----------------------------------------------------------------------
# The run
# ----------------------------------------------------------------------

def reopen(data_dir: str, times: int):
    """Fresh StorageEngine.open() calls: intervals, final state, replayed ops."""
    from repro.storage import StorageEngine

    intervals, state, replay_ops = [], None, 0
    for attempt in range(times):
        engine = StorageEngine(data_dir)
        started = monotonic()
        dataset = engine.open()
        intervals.append((started, monotonic()))
        replay_ops = engine.recovered_ops
        if attempt == times - 1:
            state = {(W.term_key(s), W.term_key(p), W.term_key(o))
                     for s, p, o in dataset.default_graph}
        engine.close()
    return intervals, state, replay_ops


def run(args) -> dict:
    from benchmarks.harness import percentile
    from repro import datasets

    config = datasets.DBLPConfig(scale=W.SCALE, seed=W.KG_SEED)
    index = W.KGIndex(datasets.generate_dblp_kg(config))

    data_dir = os.path.join(RUN_DIR, f"{args.workload}-{os.getpid()}")
    os.makedirs(data_dir, exist_ok=True)
    calibrator = Calibrator(data_dir)
    try:
        return measure(args, data_dir, index, calibrator, percentile)
    finally:
        calibrator.stop()


def measure(args, data_dir: str, index, calibrator: Calibrator, percentile) -> dict:
    from repro.server import RemoteClient
    from perfbench.trace import Tracer

    server = ServerProcess(args.workload, args.trace,
                           1 if args.trace else SETUPS, data_dir)
    clients = []
    try:
        ready = server.read()
        workload = WORKLOAD_CLASSES[args.workload](args, ready, index)
        clients = [RemoteClient(ready["base_url"], timeout=60.0) for _ in range(2)]
        warmup = Tally()
        if args.workload != "train_gml":
            for tally in run_threads(workload.loops(clients, WARMUP_SECONDS)):
                warmup.merge(tally)

        def timed_phase(seconds: float, during=None) -> Phase:
            started = monotonic()
            tallies = run_threads(workload.loops(clients, seconds), during)
            return Phase(tallies, started, monotonic())

        windows: List[tuple] = []

        def alternate_tracing() -> None:
            # Untraced and traced windows alternate (A B A B), so drift of
            # the host or of the data between them cancels out of the
            # tracing overhead.
            width = args.seconds / 2
            start = monotonic()
            for window in range(4):
                traced = window % 2 == 1
                if traced:
                    server.call("trace_on")
                opened = monotonic()
                time.sleep(max(0.0, start + (window + 1) * width - monotonic()))
                if traced:
                    server.call("trace_off")
                windows.append((opened, monotonic(), traced))

        layers = None
        if args.trace:
            phase = timed_phase(2 * args.seconds, alternate_tracing)
            layers = server.call("trace_report")["layers"]
        else:
            phase = timed_phase(args.seconds)
        if args.workload == "train_gml":
            workload.check_answers(phase.tally, server.call("models")["predictions"])
        server.stop()
    finally:
        for client in clients:
            client.close()
        server.kill()

    extra = {"peak_rss_mb": server.usage.ru_maxrss / 1024.0}
    if args.workload == "train_gml":
        extra.update(rounds=workload.rounds, lateness=workload.lateness,
                     quality=workload.quality)
    restart = Tally()
    if args.workload == "update_durable":
        tracer = None
        if args.trace:
            from repro.storage import checkpoint
            tracer = Tracer()
            tracer.patch_function(checkpoint, "read_checkpoint", "storage.restore")
        try:
            restarts, state, replay_ops = reopen(ready["data_dir"],
                                                 1 if args.trace else SETUPS)
        finally:
            if tracer is not None:
                tracer.uninstall()
        extra["restart_intervals"] = restarts
        restart.attempted["restart"] += 1
        if state != workload.expected_state():
            restart.wrong["restart"] += 1
        if layers is not None:
            layers["storage.restore_ms"] = 1e3 * statistics.fmean(
                span.busy for span in tracer.drain())
            layers["storage.replay_ops"] = float(replay_ops)

    # Host speed drifts; times are scaled by the probe over the same interval.
    calibrator.stop()

    def calibrated(intervals) -> List[float]:
        return [(end - start) / calibrator.slowness(start, end)
                for start, end in intervals]

    extra["setup_s"] = calibrated(ready["setup_intervals"])
    raw_setup = [end - start for start, end in ready["setup_intervals"]]
    if "restart_intervals" in extra:
        extra["restart_s"] = calibrated(extra["restart_intervals"])
    slowness = calibrator.slowness(phase.start, phase.end)

    # Correctness covers every request sent, warm-up and traced ones too.
    checked = Tally()
    for tally in (warmup, phase.tally, restart):
        checked.merge(tally)
    attempted = sum(checked.attempted.values())
    failed = sum(checked.failed.values()) + sum(checked.wrong.values())

    record = {
        "record": "perfbench",
        "provenance": provenance(args, ready, index),
        "setup_s": extra["setup_s"],
        "speed": {"reference_probe_s": REFERENCE_PROBE_S,
                  "phase_slowness": slowness,
                  "phase_stolen": calibrator.stolen(phase.start, phase.end),
                  "probes": len(calibrator.samples)},
        "classes": class_table(phase, percentile),
        "metrics": workload_metrics(args.workload, phase, percentile, extra),
        "errors": checked.errors,
        "wrong": dict(checked.wrong),
    }
    if args.trace:
        def mean_latency(traced: bool) -> float:
            latencies = []
            for start, end, is_traced in windows:
                if is_traced == traced:
                    slow = calibrator.slowness(start, end)
                    latencies.extend(latency / slow for values in phase.tally.latency.values()
                                     for done, latency in values if start <= done < end)
            return statistics.fmean(latencies)
        layers["tracing.overhead_pct"] = 100.0 * (
            mean_latency(True) / mean_latency(False) - 1.0)
        # Only update_durable restarts; elsewhere the layer is not reached.
        layers.setdefault("storage.restore_ms", 0.0)
        layers.setdefault("storage.replay_ops", 0.0)
        metrics = reported("per_layer", layers)
    else:
        values = end_to_end(args.workload, phase, percentile, extra,
                            calibrator.slowness)
        record["uncalibrated"] = end_to_end(args.workload, phase, percentile,
                                            dict(extra, setup_s=raw_setup),
                                            lambda start, end: 1.0)
        metrics = reported("end_to_end", values)
    return {"record": record,
            "result": {"correct": failed == 0, "attempted": attempted,
                       "failed": failed, "metrics": metrics}}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=W.WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not program_present():
        print("perfbench: the KGNet sources (src/repro, benchmarks/harness.py) "
              "are not in this checkout; nothing to benchmark", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    try:
        outcome = run(args)
    finally:
        shutil.rmtree(os.path.join(RUN_DIR, f"{args.workload}-{os.getpid()}"),
                      ignore_errors=True)
    print(json.dumps(outcome["record"]))
    print(json.dumps(outcome["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
