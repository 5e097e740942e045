"""The GML Inference Manager.

The paper's GMLaaS receives HTTP calls from the RDF engine's UDFs, runs the
requested model and serialises the result back as JSON (§IV-A).  The
:class:`GMLInferenceManager` is that component: every public method counts as
one "HTTP call" (so the query-plan experiments can report call counts), takes
plain strings/URIs in, and returns JSON-serialisable Python structures.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, List, Optional

import numpy as np

from repro.exceptions import InferenceError, ModelNotFoundError
from repro.gml.tasks import TaskType
from repro.kgnet.gmlaas.embedding_store import EmbeddingStore
from repro.kgnet.gmlaas.model_store import ModelStore, StoredModel
from repro.rdf.terms import IRI

__all__ = ["GMLInferenceManager"]


class GMLInferenceManager:
    """Serves predictions from stored models (the REST inference endpoint).

    Safe to call from many serving threads: the HTTP-call counters are
    lock-protected (bare ``+=`` would lose updates under contention), and
    the per-model artefact reads are pure lookups into append-only stores.
    """

    def __init__(self, model_store: ModelStore,
                 embedding_store: Optional[EmbeddingStore] = None) -> None:
        self.model_store = model_store
        self.embedding_store = embedding_store or EmbeddingStore()
        #: Number of inference requests served (each equals one HTTP call in
        #: the paper's architecture).
        self.http_calls = 0
        self.calls_by_model: Dict[str, int] = {}
        self._counters_lock = threading.Lock()
        self._thread_calls = threading.local()
        #: Simulated per-call latency of the HTTP hop between the RDF engine
        #: and GMLaaS (seconds).  Zero by default; the concurrent-load
        #: benchmark sets it to model the paper's deployment, where every
        #: inference call is a real network round-trip — it is exactly what
        #: the batched routes and in-flight coalescing amortise away.
        self.call_latency_seconds = 0.0

    # ------------------------------------------------------------------
    def _record_call(self, model_uri: str) -> None:
        with self._counters_lock:
            self.http_calls += 1
            self.calls_by_model[model_uri] = self.calls_by_model.get(model_uri, 0) + 1
        local = self._thread_calls
        local.count = getattr(local, "count", 0) + 1
        if self.call_latency_seconds > 0.0:
            time.sleep(self.call_latency_seconds)

    def thread_http_calls(self) -> int:
        """Calls made so far by the *current* thread.

        A request's own call count is this value's difference across the
        request; ``http_calls`` would also count what requests on other
        threads made meanwhile.  Never reset, so differences stay exact.
        """
        return getattr(self._thread_calls, "count", 0)

    def reset_counters(self) -> None:
        with self._counters_lock:
            self.http_calls = 0
            self.calls_by_model.clear()

    def _stored(self, model_uri) -> StoredModel:
        try:
            return self.model_store.get(model_uri)
        except ModelNotFoundError:
            raise
    # ------------------------------------------------------------------
    # Node classification
    # ------------------------------------------------------------------
    def get_node_class(self, model_uri, node_iri) -> Optional[str]:
        """Predicted class of one node (one HTTP call)."""
        key = model_uri.value if isinstance(model_uri, IRI) else str(model_uri)
        self._record_call(key)
        stored = self._stored(model_uri)
        if stored.task_type != TaskType.NODE_CLASSIFICATION:
            raise InferenceError(f"model {key!r} is not a node classifier")
        prediction_map: Dict[str, str] = stored.artifact("prediction_map", {})
        node_key = node_iri.value if isinstance(node_iri, IRI) else str(node_iri)
        return prediction_map.get(node_key)

    def get_node_class_dictionary(self, model_uri,
                                  node_iris: Optional[List[str]] = None) -> Dict[str, str]:
        """Predictions for all (or the requested) target nodes in one HTTP call.

        This is the inner sub-select of the paper's Fig 12 plan: one call
        returns the whole dictionary and the outer query looks values up.
        """
        key = model_uri.value if isinstance(model_uri, IRI) else str(model_uri)
        self._record_call(key)
        stored = self._stored(model_uri)
        if stored.task_type != TaskType.NODE_CLASSIFICATION:
            raise InferenceError(f"model {key!r} is not a node classifier")
        prediction_map: Dict[str, str] = dict(stored.artifact("prediction_map", {}))
        if node_iris is not None:
            wanted = {str(iri) for iri in node_iris}
            prediction_map = {node: cls for node, cls in prediction_map.items()
                              if node in wanted}
        return prediction_map

    # ------------------------------------------------------------------
    # Link prediction
    # ------------------------------------------------------------------
    def get_predicted_links(self, model_uri, source_iri, k: int = 10) -> List[Dict[str, object]]:
        """Top-k predicted destination entities for one source node."""
        key = model_uri.value if isinstance(model_uri, IRI) else str(model_uri)
        self._record_call(key)
        stored = self._stored(model_uri)
        return self._links_for(stored, key, source_iri, k)

    def get_predicted_links_batch(self, model_uri, source_iris,
                                  k: int = 10) -> Dict[str, List[Dict[str, object]]]:
        """Top-k predicted links for many source nodes in *one* HTTP call.

        The batched route amortises the per-call dispatch overhead: the model
        artefacts are fetched once and the whole batch is scored against them.
        """
        key = model_uri.value if isinstance(model_uri, IRI) else str(model_uri)
        self._record_call(key)
        stored = self._stored(model_uri)
        return {str(source): self._links_for(stored, key, source, k)
                for source in source_iris}

    def _links_for(self, stored: StoredModel, key: str, source_iri,
                   k: int) -> List[Dict[str, object]]:
        if stored.task_type != TaskType.LINK_PREDICTION:
            raise InferenceError(f"model {key!r} is not a link predictor")
        entity_index: Dict[str, int] = stored.artifact("entity_index", {})
        embeddings: np.ndarray = stored.artifact("entity_embeddings")
        candidates: np.ndarray = stored.artifact("candidate_tails")
        entity_names: List[str] = stored.artifact("entity_names", [])
        target_relation: int = stored.artifact("target_relation", 0)
        source_key = source_iri.value if isinstance(source_iri, IRI) else str(source_iri)
        source_id = entity_index.get(source_key)
        if source_id is None or embeddings is None or candidates is None:
            return []
        scores = self._score_tails(stored, embeddings, source_id, target_relation,
                                   candidates)
        order = np.argsort(-scores)[:k]
        return [{"entity": entity_names[int(candidates[i])],
                 "score": float(scores[int(i)]),
                 "rank": rank}
                for rank, i in enumerate(order)]

    @staticmethod
    def _score_tails(stored: StoredModel, embeddings: np.ndarray, source_id: int,
                     relation: int, candidates: np.ndarray) -> np.ndarray:
        model = stored.model
        relation_matrix = getattr(model, "relation_embeddings", None)
        if relation_matrix is None:
            raise InferenceError("stored link-prediction model has no relation embeddings")
        relation_vector = relation_matrix.weight.data[relation]
        head = embeddings[source_id]
        tails = embeddings[candidates]
        decoder = getattr(model, "decoder", "distmult")
        if decoder == "transe" or model.__class__.__name__.lower() == "transe":
            margin = getattr(model, "margin", 6.0)
            return margin - np.abs(head[None, :] + relation_vector[None, :] - tails).sum(axis=1)
        return (head * relation_vector) @ tails.T

    # ------------------------------------------------------------------
    # Entity similarity
    # ------------------------------------------------------------------
    def index_embeddings(self, model_uri, collection: Optional[str] = None) -> str:
        """Register a model's entity embeddings in the embedding store."""
        stored = self._stored(model_uri)
        embeddings = stored.artifact("entity_embeddings")
        names = stored.artifact("entity_names", [])
        if embeddings is None or not len(names):
            raise InferenceError("model has no entity embeddings to index")
        collection = collection or (model_uri.value if isinstance(model_uri, IRI)
                                    else str(model_uri))
        self.embedding_store.create_collection(collection, names, embeddings)
        return collection

    def get_similar_entities(self, model_uri, entity_iri, k: int = 10) -> List[Dict[str, object]]:
        """Top-k most similar entities by embedding cosine similarity."""
        key = model_uri.value if isinstance(model_uri, IRI) else str(model_uri)
        self._record_call(key)
        return self._similar_for(model_uri, key, entity_iri, k)

    def get_similar_entities_batch(self, model_uri, entity_iris,
                                   k: int = 10) -> Dict[str, List[Dict[str, object]]]:
        """Similarity search for many entities in *one* HTTP call.

        Per-entity failures (an entity missing from the collection) yield an
        empty result list instead of aborting the batch: under in-flight
        coalescing one client's unknown entity must not fail its batch
        neighbours.  Model-level failures (no embeddings to index) still
        raise for the whole batch, matching the single-entity route.
        """
        key = model_uri.value if isinstance(model_uri, IRI) else str(model_uri)
        self._record_call(key)
        if not self.embedding_store.has_collection(key):
            self.index_embeddings(model_uri, key)
        results: Dict[str, List[Dict[str, object]]] = {}
        for entity in entity_iris:
            try:
                results[str(entity)] = self._similar_for(model_uri, key, entity, k)
            except InferenceError:
                results[str(entity)] = []
        return results

    def _similar_for(self, model_uri, collection: str, entity_iri,
                     k: int) -> List[Dict[str, object]]:
        if not self.embedding_store.has_collection(collection):
            self.index_embeddings(model_uri, collection)
        entity_key = entity_iri.value if isinstance(entity_iri, IRI) else str(entity_iri)
        try:
            results = self.embedding_store.similar_to(collection, entity_key, k=k)
        except Exception as exc:
            raise InferenceError(f"similarity search failed: {exc}") from exc
        return [{"entity": r.key, "score": r.score, "rank": r.rank} for r in results]
