"""Training loops for the supported GML methods.

Three trainers cover the paper's method families:

* :class:`FullBatchNodeClassificationTrainer` — RGCN / GCN / GAT trained on
  the whole (sub)graph every epoch ("full propagation" in Fig 5),
* :class:`SamplingNodeClassificationTrainer` — GraphSAINT / ShaDow-SAINT
  mini-batch training over sampled subgraphs,
* :class:`KGETrainer` and :class:`MorsETrainer` — link-prediction training
  with negative sampling (transductive KGE and inductive MorsE).

Every trainer measures elapsed time and peak memory with
:class:`~repro.gml.train.budget.ResourceMonitor` and can enforce a
:class:`~repro.gml.train.budget.TaskBudget`, because those numbers are what
the paper's evaluation (Figs 13-15) reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.exceptions import BudgetExceededError, TrainingError
from repro.gml.autograd import Tensor, cross_entropy, no_grad
from repro.gml.data import GraphData, TriplesData
from repro.gml.kge.base import KGEModel, ranking_metrics
from repro.gml.kge.morse import MorsE
from repro.gml.nn.models import NodeClassifier
from repro.gml.nn.optim import Adam, Optimizer, clip_grad_norm
from repro.gml.sampling.base import SubgraphSampler
from repro.gml.sampling.negative import EdgeSubKGSampler, TripleBatchSampler
from repro.gml.train.budget import ResourceMonitor, ResourceUsage, TaskBudget
from repro.gml.train.estimator import METHOD_PROFILES, MethodCostEstimator
from repro.gml.train.metrics import accuracy, classification_report

__all__ = [
    "TrainingResult",
    "FullBatchNodeClassificationTrainer",
    "SamplingNodeClassificationTrainer",
    "KGETrainer",
    "MorsETrainer",
]


@dataclass
class TrainingResult:
    """Everything the platform records about one training run."""

    method: str
    task_type: str
    metrics: Dict[str, float]
    usage: ResourceUsage
    num_epochs: int
    history: List[Dict[str, float]] = field(default_factory=list)
    inference_seconds: float = 0.0
    model: object = None
    stopped_early: bool = False

    @property
    def score(self) -> float:
        """The headline metric (accuracy for NC, Hits@10 for LP)."""
        for key in ("accuracy", "hits@10", "mrr", "f1_macro"):
            if key in self.metrics:
                return float(self.metrics[key])
        return 0.0

    def as_dict(self) -> Dict[str, object]:
        return {
            "method": self.method,
            "task_type": self.task_type,
            "num_epochs": self.num_epochs,
            "stopped_early": self.stopped_early,
            "inference_seconds": round(self.inference_seconds, 6),
            **{f"metric_{k}": round(float(v), 6) for k, v in self.metrics.items()},
            **self.usage.as_dict(),
        }


class _BaseTrainer:
    """Shared budget handling."""

    def __init__(self, budget: Optional[TaskBudget] = None,
                 enforce_budget: bool = False) -> None:
        self.budget = budget or TaskBudget()
        self.enforce_budget = enforce_budget

    def _check_budget(self, monitor: ResourceMonitor) -> bool:
        """Return True when training should stop (budget exhausted)."""
        if not self.enforce_budget:
            return False
        try:
            monitor.check()
        except BudgetExceededError:
            return True
        return False


class FullBatchNodeClassificationTrainer(_BaseTrainer):
    """Full-graph training of a :class:`NodeClassifier` (RGCN / GCN / GAT)."""

    def __init__(self, model: NodeClassifier, data: GraphData,
                 epochs: int = 40, learning_rate: float = 0.01,
                 weight_decay: float = 5e-4, grad_clip: float = 5.0,
                 budget: Optional[TaskBudget] = None,
                 enforce_budget: bool = False,
                 method_name: str = "rgcn") -> None:
        super().__init__(budget, enforce_budget)
        if data.labeled_nodes().size == 0:
            raise TrainingError("dataset has no labelled nodes")
        self.model = model
        self.data = data
        self.epochs = epochs
        self.grad_clip = grad_clip
        self.method_name = method_name
        self.optimizer: Optimizer = Adam(model.parameters(), lr=learning_rate,
                                         weight_decay=weight_decay)

    def train(self) -> TrainingResult:
        data = self.data
        train_nodes = np.flatnonzero(data.train_mask)
        history: List[Dict[str, float]] = []
        stopped_early = False
        estimator = MethodCostEstimator(hidden_dim=64)
        estimate = (estimator.estimate(self.method_name, data, epochs=self.epochs)
                    if self.method_name in METHOD_PROFILES else None)
        with ResourceMonitor(self.budget) as monitor:
            for epoch in range(self.epochs):
                self.model.train()
                self.optimizer.zero_grad()
                logits = self.model.forward(data)
                loss = cross_entropy(logits[train_nodes], data.labels[train_nodes])
                loss.backward()
                clip_grad_norm(self.optimizer.parameters, self.grad_clip)
                self.optimizer.step()
                if epoch % 5 == 0 or epoch == self.epochs - 1:
                    val_acc = self._evaluate_mask(data.val_mask)
                    history.append({"epoch": epoch, "loss": float(loss.item()),
                                    "val_accuracy": val_acc})
                if self._check_budget(monitor):
                    stopped_early = True
                    break
        metrics, inference_seconds = self._final_metrics()
        usage = monitor.usage
        if estimate is not None:
            usage.estimated_memory_bytes = int(estimate.memory_bytes)
        return TrainingResult(
            method=self.method_name, task_type="node_classification",
            metrics=metrics, usage=usage, num_epochs=self.epochs,
            history=history, inference_seconds=inference_seconds,
            model=self.model, stopped_early=stopped_early)

    def _evaluate_mask(self, mask: np.ndarray) -> float:
        nodes = np.flatnonzero(mask)
        if nodes.size == 0:
            return 0.0
        self.model.eval()
        predictions = self.model.predict(self.data, nodes)
        return accuracy(self.data.labels[nodes], predictions)

    def _final_metrics(self) -> (Dict[str, float], float):
        import time as _time
        self.model.eval()
        test_nodes = np.flatnonzero(self.data.test_mask)
        if test_nodes.size == 0:
            test_nodes = self.data.labeled_nodes()
        started = _time.perf_counter()
        predictions = self.model.predict(self.data, test_nodes)
        inference_seconds = _time.perf_counter() - started
        report = classification_report(self.data.labels[test_nodes], predictions,
                                       num_classes=self.data.num_classes)
        report["val_accuracy"] = self._evaluate_mask(self.data.val_mask)
        return report, inference_seconds


class SamplingNodeClassificationTrainer(_BaseTrainer):
    """Mini-batch training over sampled subgraphs (GraphSAINT / ShaDow)."""

    def __init__(self, model: NodeClassifier, data: GraphData,
                 sampler: SubgraphSampler, epochs: int = 20,
                 learning_rate: float = 0.01, weight_decay: float = 5e-4,
                 grad_clip: float = 5.0, budget: Optional[TaskBudget] = None,
                 enforce_budget: bool = False,
                 method_name: str = "graph_saint") -> None:
        super().__init__(budget, enforce_budget)
        self.model = model
        self.data = data
        self.sampler = sampler
        self.epochs = epochs
        self.grad_clip = grad_clip
        self.method_name = method_name
        self.optimizer: Optimizer = Adam(model.parameters(), lr=learning_rate,
                                         weight_decay=weight_decay)

    def train(self) -> TrainingResult:
        history: List[Dict[str, float]] = []
        stopped_early = False
        with ResourceMonitor(self.budget) as monitor:
            for epoch in range(self.epochs):
                self.model.train()
                epoch_loss = 0.0
                batches = 0
                for batch in self.sampler:
                    sub = batch.data
                    # Only train on labelled *training* nodes inside the batch;
                    # for ShaDow batches restrict further to the root nodes.
                    candidates = np.flatnonzero(sub.train_mask & (sub.labels >= 0))
                    if batch.root_nodes is not None:
                        candidates = candidates[np.isin(candidates, batch.root_nodes)]
                    if candidates.size == 0:
                        continue
                    self.optimizer.zero_grad()
                    logits = self.model.forward(sub)
                    weight = None
                    if batch.node_weight is not None:
                        weight = batch.node_weight[candidates]
                    loss = cross_entropy(logits[candidates], sub.labels[candidates],
                                         weight=weight)
                    loss.backward()
                    clip_grad_norm(self.optimizer.parameters, self.grad_clip)
                    self.optimizer.step()
                    epoch_loss += float(loss.item())
                    batches += 1
                if epoch % 5 == 0 or epoch == self.epochs - 1:
                    val_acc = self._evaluate_mask(self.data.val_mask)
                    history.append({"epoch": epoch,
                                    "loss": epoch_loss / max(1, batches),
                                    "val_accuracy": val_acc})
                if self._check_budget(monitor):
                    stopped_early = True
                    break
        metrics, inference_seconds = self._final_metrics()
        return TrainingResult(
            method=self.method_name, task_type="node_classification",
            metrics=metrics, usage=monitor.usage, num_epochs=self.epochs,
            history=history, inference_seconds=inference_seconds,
            model=self.model, stopped_early=stopped_early)

    def _evaluate_mask(self, mask: np.ndarray) -> float:
        nodes = np.flatnonzero(mask)
        if nodes.size == 0:
            return 0.0
        self.model.eval()
        predictions = self.model.predict(self.data, nodes)
        return accuracy(self.data.labels[nodes], predictions)

    def _final_metrics(self):
        import time as _time
        self.model.eval()
        test_nodes = np.flatnonzero(self.data.test_mask)
        if test_nodes.size == 0:
            test_nodes = self.data.labeled_nodes()
        started = _time.perf_counter()
        predictions = self.model.predict(self.data, test_nodes)
        inference_seconds = _time.perf_counter() - started
        report = classification_report(self.data.labels[test_nodes], predictions,
                                       num_classes=self.data.num_classes)
        report["val_accuracy"] = self._evaluate_mask(self.data.val_mask)
        return report, inference_seconds


class KGETrainer(_BaseTrainer):
    """Negative-sampling training of a transductive KGE model."""

    def __init__(self, model: KGEModel, data: TriplesData, epochs: int = 50,
                 batch_size: int = 1024, num_negatives: int = 8,
                 learning_rate: float = 0.05, budget: Optional[TaskBudget] = None,
                 enforce_budget: bool = False, method_name: str = "kge",
                 seed: int = 0) -> None:
        super().__init__(budget, enforce_budget)
        self.model = model
        self.data = data
        self.epochs = epochs
        self.method_name = method_name
        self.batch_sampler = TripleBatchSampler(
            data, batch_size=batch_size, num_negatives=num_negatives, seed=seed)
        self.optimizer: Optimizer = Adam(model.parameters(), lr=learning_rate)

    def train(self) -> TrainingResult:
        history: List[Dict[str, float]] = []
        stopped_early = False
        with ResourceMonitor(self.budget) as monitor:
            for epoch in range(self.epochs):
                epoch_loss = 0.0
                batches = 0
                for positives, negatives in self.batch_sampler:
                    self.optimizer.zero_grad()
                    loss = self.model.loss(positives, negatives)
                    loss.backward()
                    self.optimizer.step()
                    epoch_loss += float(loss.item())
                    batches += 1
                if epoch % 10 == 0 or epoch == self.epochs - 1:
                    history.append({"epoch": epoch,
                                    "loss": epoch_loss / max(1, batches)})
                if self._check_budget(monitor):
                    stopped_early = True
                    break
        metrics, inference_seconds = self._final_metrics()
        return TrainingResult(
            method=self.method_name, task_type="link_prediction",
            metrics=metrics, usage=monitor.usage, num_epochs=self.epochs,
            history=history, inference_seconds=inference_seconds,
            model=self.model, stopped_early=stopped_early)

    def _final_metrics(self):
        import time as _time
        test_triples = self.data.split("test")
        if test_triples.shape[0] > 200:
            test_triples = test_triples[:200]
        started = _time.perf_counter()
        ranks = []
        all_triples = self.data.triples
        grouped: Dict[tuple, List[int]] = {}
        for head, relation, tail in all_triples:
            grouped.setdefault((int(head), int(relation)), []).append(int(tail))
        for head, relation, tail in test_triples:
            known = np.asarray(grouped.get((int(head), int(relation)), []), dtype=np.int64)
            ranks.append(self.model.rank_tail(int(head), int(relation), int(tail),
                                              filtered_tails=known))
        inference_seconds = _time.perf_counter() - started
        return ranking_metrics(np.asarray(ranks)), inference_seconds


class MorsETrainer(_BaseTrainer):
    """Meta-training of the inductive MorsE model over sampled sub-KGs."""

    def __init__(self, model: MorsE, data: TriplesData, epochs: int = 20,
                 triples_per_subkg: int = 2000, subkgs_per_epoch: int = 4,
                 num_negatives: int = 8, learning_rate: float = 0.05,
                 budget: Optional[TaskBudget] = None, enforce_budget: bool = False,
                 method_name: str = "morse", seed: int = 0) -> None:
        super().__init__(budget, enforce_budget)
        self.model = model
        self.data = data
        self.epochs = epochs
        self.method_name = method_name
        self.subkg_sampler = EdgeSubKGSampler(
            data, triples_per_subkg=triples_per_subkg,
            num_subkgs=subkgs_per_epoch, seed=seed)
        from repro.gml.sampling.negative import NegativeSampler
        self.negative_sampler_seed = seed
        self.num_negatives = num_negatives
        self.optimizer: Optimizer = Adam(model.parameters(), lr=learning_rate)

    def train(self) -> TrainingResult:
        from repro.gml.sampling.negative import NegativeSampler
        history: List[Dict[str, float]] = []
        stopped_early = False
        with ResourceMonitor(self.budget) as monitor:
            for epoch in range(self.epochs):
                epoch_loss = 0.0
                batches = 0
                for local_triples, _, num_local in self.subkg_sampler:
                    negative_sampler = NegativeSampler(
                        num_local, num_negatives=self.num_negatives,
                        seed=self.negative_sampler_seed + epoch)
                    negatives = negative_sampler.corrupt(local_triples)
                    self.optimizer.zero_grad()
                    entity_embeddings = self.model.compose_entity_embeddings(
                        local_triples, num_local)
                    loss = self.model.loss(entity_embeddings, local_triples, negatives)
                    loss.backward()
                    self.optimizer.step()
                    epoch_loss += float(loss.item())
                    batches += 1
                if epoch % 5 == 0 or epoch == self.epochs - 1:
                    history.append({"epoch": epoch,
                                    "loss": epoch_loss / max(1, batches)})
                if self._check_budget(monitor):
                    stopped_early = True
                    break
        metrics, inference_seconds = self._final_metrics()
        return TrainingResult(
            method=self.method_name, task_type="link_prediction",
            metrics=metrics, usage=monitor.usage, num_epochs=self.epochs,
            history=history, inference_seconds=inference_seconds,
            model=self.model, stopped_early=stopped_early)

    def _final_metrics(self):
        import time as _time
        train_triples = self.data.split("train")
        entity_embeddings = self.model.materialise_entities(
            train_triples, self.data.num_entities)
        test_triples = self.data.split("test")
        if test_triples.shape[0] > 200:
            test_triples = test_triples[:200]
        started = _time.perf_counter()
        metrics = self.model.evaluate(entity_embeddings, test_triples,
                                      all_triples=self.data.triples)
        inference_seconds = _time.perf_counter() - started
        return metrics, inference_seconds
