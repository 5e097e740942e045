"""Unit tests for the meta-sampler (task-specific subgraph extraction)."""

import json
import os
import subprocess
import sys

import pytest

from repro.exceptions import MetaSamplingError
from repro.gml.tasks import TaskSpec, TaskType
from repro.kgnet import MetaSampler, MetaSamplingConfig
from repro.rdf import DBLP, Graph, Literal, RDF_TYPE


class TestMetaSamplingConfig:
    def test_labels(self):
        assert MetaSamplingConfig(1, 1).label == "d1h1"
        assert MetaSamplingConfig(2, 2).label == "d2h2"

    def test_from_label(self):
        config = MetaSamplingConfig.from_label("d2h1")
        assert config.direction == 2 and config.hops == 1

    def test_from_label_invalid(self):
        with pytest.raises(MetaSamplingError):
            MetaSamplingConfig.from_label("h1d1")

    def test_defaults_follow_paper(self):
        """Paper §IV-B.2: d1h1 for node classification, d2h1 for link prediction."""
        assert MetaSamplingConfig.default_for_task(TaskType.NODE_CLASSIFICATION).label == "d1h1"
        assert MetaSamplingConfig.default_for_task(TaskType.LINK_PREDICTION).label == "d2h1"

    def test_invalid_parameters(self):
        with pytest.raises(MetaSamplingError):
            MetaSamplingConfig(direction=3)
        with pytest.raises(MetaSamplingError):
            MetaSamplingConfig(hops=0)


class TestMetaSamplerExtraction:
    def test_subgraph_smaller_than_kg(self, dblp_graph, paper_venue_task):
        sampler = MetaSampler(MetaSamplingConfig(1, 1))
        subgraph, report = sampler.extract(dblp_graph, paper_venue_task)
        assert 0 < len(subgraph) < len(dblp_graph)
        assert report.num_subgraph_triples == len(subgraph)
        assert report.num_kg_triples == len(dblp_graph)
        assert 0 < report.triple_reduction < 1
        assert report.config_label == "d1h1"

    def test_label_edges_preserved(self, dblp_graph, paper_venue_task):
        sampler = MetaSampler(MetaSamplingConfig(1, 1))
        subgraph, _ = sampler.extract(dblp_graph, paper_venue_task)
        kg_labels = dblp_graph.count(None, paper_venue_task.label_predicate, None)
        sub_labels = subgraph.count(None, paper_venue_task.label_predicate, None)
        assert sub_labels == kg_labels

    def test_target_types_preserved(self, dblp_graph, paper_venue_task):
        sampler = MetaSampler(MetaSamplingConfig(1, 1))
        subgraph, _ = sampler.extract(dblp_graph, paper_venue_task)
        assert subgraph.count(None, RDF_TYPE, paper_venue_task.target_node_type) == \
            dblp_graph.count(None, RDF_TYPE, paper_venue_task.target_node_type)

    def test_d1_excludes_incoming_only_nodes(self, dblp_graph, paper_venue_task):
        """Nodes only reachable via incoming edges (events, datasets) are pruned."""
        sampler = MetaSampler(MetaSamplingConfig(1, 1))
        subgraph, _ = sampler.extract(dblp_graph, paper_venue_task)
        assert subgraph.count(None, RDF_TYPE, DBLP["ConferenceEvent"]) == 0
        assert dblp_graph.count(None, RDF_TYPE, DBLP["ConferenceEvent"]) > 0

    def test_d2_includes_incoming_edges(self, dblp_graph, paper_venue_task):
        d1, _ = MetaSampler(MetaSamplingConfig(1, 1)).extract(dblp_graph, paper_venue_task)
        d2, _ = MetaSampler(MetaSamplingConfig(2, 1)).extract(dblp_graph, paper_venue_task)
        assert len(d2) > len(d1)
        assert d2.count(None, DBLP["presentsPaper"], None) > 0

    def test_more_hops_grow_the_subgraph(self, dblp_graph, paper_venue_task):
        h1, _ = MetaSampler(MetaSamplingConfig(1, 1)).extract(dblp_graph, paper_venue_task)
        h2, _ = MetaSampler(MetaSamplingConfig(1, 2)).extract(dblp_graph, paper_venue_task)
        assert len(h2) >= len(h1)

    def test_link_prediction_keeps_target_edges(self, dblp_graph, author_affiliation_task):
        sampler = MetaSampler(MetaSamplingConfig(2, 1))
        subgraph, _ = sampler.extract(dblp_graph, author_affiliation_task)
        assert subgraph.count(None, author_affiliation_task.target_predicate, None) == \
            dblp_graph.count(None, author_affiliation_task.target_predicate, None)

    def test_subgraph_is_subset_of_kg(self, dblp_graph, paper_venue_task):
        subgraph, _ = MetaSampler().extract(dblp_graph, paper_venue_task)
        assert all(triple in dblp_graph for triple in subgraph)

    def test_override_config_at_extract_time(self, dblp_graph, paper_venue_task):
        sampler = MetaSampler(MetaSamplingConfig(1, 1))
        _, report = sampler.extract(dblp_graph, paper_venue_task,
                                    MetaSamplingConfig(2, 1))
        assert report.config_label == "d2h1"

    def test_missing_target_type_raises(self, dblp_graph):
        task = TaskSpec(task_type=TaskType.NODE_CLASSIFICATION,
                        target_node_type=DBLP["Nonexistent"],
                        label_predicate=DBLP["publishedIn"])
        with pytest.raises(MetaSamplingError):
            MetaSampler().extract(dblp_graph, task)

    def test_literals_kept_or_dropped(self, dblp_graph, paper_venue_task):
        with_literals, _ = MetaSampler(MetaSamplingConfig(1, 1, include_literals=True)) \
            .extract(dblp_graph, paper_venue_task)
        without_literals, _ = MetaSampler(MetaSamplingConfig(1, 1, include_literals=False)) \
            .extract(dblp_graph, paper_venue_task)
        assert len(with_literals) > len(without_literals)

    def test_report_as_dict(self, dblp_graph, paper_venue_task):
        _, report = MetaSampler().extract(dblp_graph, paper_venue_task)
        payload = report.as_dict()
        assert payload["config"] == "d1h1"
        assert payload["num_subgraph_triples"] < payload["num_kg_triples"]


#: Extract the DBLP author-affiliation subgraph and transform it for link
#: prediction, then print the resulting TriplesData as JSON.
_EXTRACT_AND_TRANSFORM = """
import json
from repro.datasets import DBLPConfig, dblp_author_affiliation_task, generate_dblp_kg
from repro.gml.transform import RDFGraphTransformer
from repro.kgnet import MetaSampler, MetaSamplingConfig

task = dblp_author_affiliation_task()
graph = generate_dblp_kg(DBLPConfig(scale=0.25, seed=3))
config = MetaSamplingConfig.default_for_task(task.task_type)
subgraph, _ = MetaSampler(config).extract(graph, task)
data, _ = RDFGraphTransformer(feature_dim=16, seed=0).to_link_prediction_data(
    subgraph, task.target_predicate)
print(json.dumps({
    "triples": data.triples.tolist(), "train": data.train_idx.tolist(),
    "valid": data.valid_idx.tolist(), "test": data.test_idx.tolist(),
    "entities": data.entity_names, "relations": data.relation_names,
    "target_relation": data.target_relation}))
"""


class TestMetaSamplerDeterminism:
    def test_link_prediction_data_independent_of_hash_seed(self):
        """String hashing differs per process; the extracted data must not."""
        src = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir, "src")
        outputs = []
        for hash_seed in ("0", "1"):
            env = dict(os.environ, PYTHONPATH=os.path.abspath(src),
                       PYTHONHASHSEED=hash_seed)
            result = subprocess.run([sys.executable, "-c", _EXTRACT_AND_TRANSFORM],
                                    env=env, capture_output=True, text=True, timeout=120)
            assert result.returncode == 0, result.stderr
            outputs.append(json.loads(result.stdout))
        assert outputs[0]["triples"], "the extraction produced no triples"
        assert outputs[0] == outputs[1]


class TestMetaSamplerSPARQL:
    def test_to_sparql_mentions_target_type(self, paper_venue_task):
        sampler = MetaSampler(MetaSamplingConfig(1, 1))
        query = sampler.to_sparql(paper_venue_task)
        assert "CONSTRUCT" in query
        assert paper_venue_task.target_node_type.n3() in query

    def test_bidirectional_sparql_has_union(self, paper_venue_task):
        query = MetaSampler(MetaSamplingConfig(2, 1)).to_sparql(paper_venue_task)
        assert "UNION" in query

    def test_entity_similarity_task_seed(self):
        task = TaskSpec(task_type=TaskType.ENTITY_SIMILARITY,
                        entity_node_type=DBLP["Person"])
        assert task.seed_node_type == DBLP["Person"]
