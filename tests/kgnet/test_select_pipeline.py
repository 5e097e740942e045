"""The SPARQL-ML SELECT pipeline: parse the text once, evaluate the rewrite.

``SPARQLMLService.execute_select`` tokenizes and parses the request text
exactly once, picks a model, rewrites the AST and hands that AST straight to
the endpoint.  The rewritten *text* only goes into the report, so these
tests pin down that running the AST answers exactly what running the text
would, that KGMeta changes are seen by the very next SELECT (nothing is
memoised on query text), and that a report's call counts belong to its own
query even while other threads serve queries too.
"""

from __future__ import annotations

import threading

import pytest

import repro.sparql.parser as sparql_parser
from repro.datasets import (
    dblp_author_affiliation_task,
    dblp_author_similarity_task,
    dblp_paper_venue_task,
)
from repro.exceptions import ModelNotFoundError
from repro.gml.tasks import TaskSpec, TaskType
from repro.kgnet import KGNet, ModelMetadata, TrainingManagerConfig
from repro.kgnet.kgmeta import ontology as O
from repro.kgnet.kgmeta.governor import KGMetaGovernor
from repro.rdf import DBLP, IRI
from repro.sparql import SPARQLEndpoint

FIG2_SELECT = """
prefix dblp: <https://www.dblp.org/>
prefix kgnet: <https://www.kgnet.com/>
select ?title ?venue
where {
?paper a dblp:Publication.
?paper dblp:title ?title.
?paper ?NodeClassifier ?venue.
?NodeClassifier a kgnet:NodeClassifier.
?NodeClassifier kgnet:TargetNode dblp:Publication.
?NodeClassifier kgnet:NodeLabel dblp:publishedIn.}
"""

FIG10_LINK_SELECT = """
prefix dblp: <https://www.dblp.org/>
prefix kgnet: <https://www.kgnet.com/>
select ?author ?affiliation
where { ?author a dblp:Person.
?author ?LinkPredictor ?affiliation.
?LinkPredictor a kgnet:LinkPredictor.
?LinkPredictor kgnet:SourceNode dblp:Person.
?LinkPredictor kgnet:DestinationNode dblp:Affiliation.
?LinkPredictor kgnet:TopK-Links 3.}
"""

SIMILARITY_SELECT = """
prefix dblp: <https://www.dblp.org/>
prefix kgnet: <https://www.kgnet.com/>
select ?author ?similar
where { ?author a dblp:Person.
?author ?Similarity ?similar.
?Similarity a kgnet:EntitySimilarityModel.
?Similarity kgnet:EntityNode dblp:Person.
?Similarity kgnet:TopK-Links 4.}
"""

PLAIN_SELECT = """
prefix dblp: <https://www.dblp.org/>
select ?paper ?title where { ?paper dblp:title ?title . }
"""

FIG9_DELETE = """
prefix dblp: <https://www.dblp.org/>
prefix kgnet: <https://www.kgnet.com/>
delete {?NodeClassifier ?p ?o}
where {
?NodeClassifier a kgnet:NodeClassifier.
?NodeClassifier kgnet:TargetNode dblp:Publication.
?NodeClassifier kgnet:NodeLabel dblp:publishedIn.}
"""

#: (query, forced plan, expected plan) for every rewrite the service makes.
PLANS = [
    (FIG2_SELECT, "dictionary", "dictionary"),
    (FIG2_SELECT, "per_instance", "per_instance"),
    (FIG10_LINK_SELECT, None, None),
    (SIMILARITY_SELECT, None, None),
]


def _quick_config() -> TrainingManagerConfig:
    return TrainingManagerConfig(
        feature_dim=16, hidden_dim=16, embedding_dim=16,
        epochs_full_batch=4, epochs_sampling=3, epochs_kge=4,
        learning_rate=0.05, seed=0)


@pytest.fixture(scope="module")
def platform(dblp_graph):
    """NC, LP and entity-similarity models over the small DBLP KG."""
    platform = KGNet(training_config=_quick_config())
    platform.load_graph(dblp_graph)
    platform.train_task(dblp_paper_venue_task(), method="rgcn")
    platform.train_task(dblp_author_affiliation_task(), method="morse",
                        meta_sampling="d2h1")
    platform.train_task(dblp_author_similarity_task(), method="distmult")
    return platform


@pytest.fixture()
def tokenize_calls(monkeypatch):
    """Count every SPARQL tokenization (the first step of every parse)."""
    calls = []
    original = sparql_parser.tokenize

    def counting(text):
        calls.append(text)
        return original(text)

    monkeypatch.setattr(sparql_parser, "tokenize", counting)
    return calls


class TestParseOnce:
    @pytest.mark.parametrize("query,force_plan,_plan", PLANS)
    def test_one_tokenize_per_select(self, platform, tokenize_calls,
                                     query, force_plan, _plan):
        report = platform.query(query, force_plan=force_plan)
        assert len(report.results) > 0
        assert tokenize_calls == [query]

    def test_one_tokenize_through_the_generic_route(self, platform,
                                                    tokenize_calls):
        # The "sparqlml" route classifies the text, then executes it with
        # the kind it found: still one parse in total.
        report = platform.execute(FIG2_SELECT)
        assert len(report.results) > 0
        assert tokenize_calls == [FIG2_SELECT]

    def test_plain_select_is_parsed_once_too(self, platform, tokenize_calls):
        service = platform.sparqlml
        report = service.execute_select(PLAIN_SELECT)
        assert len(report.results) == len(list(platform.graph.triples(
            None, DBLP["title"], None)))
        assert report.rewritten == []
        assert tokenize_calls == [PLAIN_SELECT]

    def test_classification_runs_once(self, platform, monkeypatch):
        parser = platform.sparqlml.parser
        kinds = []
        original = parser.classify
        monkeypatch.setattr(parser, "classify",
                            lambda text: kinds.append(text) or original(text))
        platform.execute(FIG2_SELECT)
        assert kinds == [FIG2_SELECT]


class TestRewrittenASTMatchesText:
    @pytest.mark.parametrize("query,force_plan,plan", PLANS)
    def test_rows_equal_running_the_rewritten_text(self, platform, query,
                                                   force_plan, plan):
        report = platform.sparqlml.execute_select(query, force_plan=force_plan)
        if plan is not None:
            assert [p.plan for p in report.plans] == [plan]
        final = report.rewritten[-1]
        from_text = platform.endpoint.query(final.text)
        assert report.results.variables == from_text.variables
        assert report.results.to_python() == from_text.to_python()
        assert len(report.results) > 0

    def test_statistics_record_the_rewritten_text(self, platform):
        report = platform.sparqlml.execute_select(FIG2_SELECT,
                                                  force_plan="dictionary")
        statistics = platform.endpoint.thread_statistics()
        assert statistics.query == report.rewritten[-1].text
        assert statistics.num_results == len(report.results)


class TestKGMetaChangesAreSeen:
    def test_register_and_delete_between_selects(self, fresh_platform):
        with pytest.raises(ModelNotFoundError):
            fresh_platform.query(FIG2_SELECT)
        trained = fresh_platform.train_task(dblp_paper_venue_task(),
                                            method="rgcn")
        report = fresh_platform.query(FIG2_SELECT)
        assert [m.uri.value for m in report.models] == [trained.model_uri]
        deletion = fresh_platform.delete_models(FIG9_DELETE)
        assert deletion.deleted_models == [trained.model_uri]
        with pytest.raises(ModelNotFoundError):
            fresh_platform.query(FIG2_SELECT)


class TestPerQueryCallCounts:
    def test_concurrent_dictionary_reports_count_their_own_calls(self, platform):
        """Two threads, each report says exactly its one dictionary call."""
        manager = platform.gmlaas.inference_manager
        # A simulated HTTP hop keeps each call in flight long enough for
        # the other thread's calls to land inside this query's window.
        manager.call_latency_seconds = 0.002
        start = threading.Barrier(2)
        outcomes = []
        errors = []

        def worker():
            try:
                start.wait()
                for _ in range(15):
                    report = platform.query(FIG2_SELECT,
                                            force_plan="dictionary")
                    statistics = platform.endpoint.thread_statistics()
                    outcomes.append((report.http_calls, statistics.udf_calls,
                                     len(report.results)))
            except Exception as exc:  # pragma: no cover - surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(2)]
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            manager.call_latency_seconds = 0.0
        assert not errors
        assert len(outcomes) == 30
        for http_calls, udf_calls, rows in outcomes:
            assert http_calls == 1
            # One getNodeClass for the dictionary, one getKeyValue per row.
            assert udf_calls == 1 + rows

    def test_concurrent_infer_batch_counts_its_own_call(self, platform):
        model = next(m for m in platform.list_models()
                     if m.task_type == TaskType.NODE_CLASSIFICATION)
        papers = [p.value for p in platform.graph.subjects(
            None, DBLP["publishedIn"])][:5]
        manager = platform.gmlaas.inference_manager
        manager.call_latency_seconds = 0.002
        start = threading.Barrier(2)
        counts = []

        def worker():
            start.wait()
            for _ in range(15):
                response = platform._dispatch("infer_batch",
                                              model_uri=model.uri.value,
                                              inputs=papers, mode="class")
                counts.append(response.result["http_calls"])

        threads = [threading.Thread(target=worker) for _ in range(2)]
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            manager.call_latency_seconds = 0.0
        assert counts == [1] * 30


def _nc_metadata(uri: str, target: IRI, label: IRI) -> ModelMetadata:
    return ModelMetadata(uri=IRI(uri), task_type=TaskType.NODE_CLASSIFICATION,
                         model_class=O.NODE_CLASSIFIER, method="rgcn",
                         accuracy=0.5, target_node_type=target,
                         label_predicate=label)


def _nc_task(name: str, target: IRI, label: IRI) -> TaskSpec:
    return TaskSpec(task_type=TaskType.NODE_CLASSIFICATION, name=name,
                    target_node_type=target, label_predicate=label)


class TestFindModels:
    """``find_models`` filters first, then describes; same answer as before."""

    @pytest.fixture()
    def governor(self):
        governor = KGMetaGovernor(SPARQLEndpoint())
        shapes = [
            ("m/c", DBLP["Publication"], DBLP["publishedIn"]),
            ("m/a", DBLP["Publication"], DBLP["publishedIn"]),
            ("m/b", DBLP["Person"], DBLP["affiliation"]),
            ("m/d", DBLP["Publication"], DBLP["authoredBy"]),
            ("m/e", DBLP["Person"], DBLP["publishedIn"]),
        ]
        for suffix, target, label in shapes:
            governor.register_model(
                _nc_task(suffix.replace("/", "_"), target, label),
                _nc_metadata(O.MODEL_URI_PREFIX + suffix, target, label))
        return governor

    @staticmethod
    def _describe_then_filter(governor, model_class, constraints):
        """The reference: describe every model of the class, then filter."""
        graph = governor.graph
        return [metadata for metadata in governor.list_models(model_class)
                if all(value is None
                       or any(True for _ in graph.triples(metadata.uri, p, value))
                       for p, value in (constraints or {}).items())]

    @pytest.mark.parametrize("constraints,expected", [
        (None, ["m/a", "m/b", "m/c", "m/d", "m/e"]),
        ({}, ["m/a", "m/b", "m/c", "m/d", "m/e"]),
        ({O.TARGET_NODE: None, O.NODE_LABEL: None},
         ["m/a", "m/b", "m/c", "m/d", "m/e"]),
        ({O.TARGET_NODE: DBLP["Publication"], O.NODE_LABEL: None},
         ["m/a", "m/c", "m/d"]),
        ({O.TARGET_NODE: DBLP["Publication"], O.NODE_LABEL: DBLP["publishedIn"]},
         ["m/a", "m/c"]),
        ({O.NODE_LABEL: DBLP["publishedIn"]}, ["m/a", "m/c", "m/e"]),
        ({O.TARGET_NODE: DBLP["Venue"]}, []),
    ])
    def test_same_models_same_order_as_describe_then_filter(
            self, governor, monkeypatch, constraints, expected):
        reference = self._describe_then_filter(governor, O.NODE_CLASSIFIER,
                                               constraints)
        described = []
        original = governor.describe
        monkeypatch.setattr(governor, "describe",
                            lambda uri: described.append(uri) or original(uri))
        found = governor.find_models(O.NODE_CLASSIFIER, constraints)
        assert found == reference
        assert [m.uri.value for m in found] == [
            O.MODEL_URI_PREFIX + suffix for suffix in expected]
        # Only the matching models were described.
        assert described == [m.uri for m in found]

    def test_other_model_classes_are_not_candidates(self, governor):
        assert governor.find_models(O.LINK_PREDICTOR) == []
