"""Property-based fuzzing of the SPARQL-ML rewriter (paper Figs 11-12).

The invariant: for *any* well-formed SPARQL-ML SELECT with one user-defined
predicate, the rewriter must emit plain SPARQL that

* parses with the stock SPARQL parser,
* round-trips through the serializer (serialize(parse(text)) is a fixed
  point, so the emitted text is canonical, not accidentally parseable),
* contains no trace of the user-defined predicate (neither the predicate
  variable nor its kgnet: constraint triples),
* keeps every non-UDP pattern of the original WHERE clause, and
* leaves the input AST unchanged (the rewrite shares nodes with it).

Hypothesis generates random queries over that grammar; the corpus under
``tests/fixtures/sparqlml_corpus/`` pins down known shapes as regression
anchors (each file is one `.rq` query; failures there reproduce without
hypothesis).
"""

from __future__ import annotations

import os
import re
from typing import List, Tuple

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.kgnet.sparqlml.optimizer import SPARQLMLOptimizer
from repro.kgnet.sparqlml.parser import SPARQLMLParser
from repro.kgnet.sparqlml.rewriter import SPARQLMLRewriter
from repro.rdf import IRI
from repro.sparql.ast import SelectQuery
from repro.sparql.parser import parse_query
from repro.sparql.serializer import serialize_select

CORPUS_DIR = os.path.join(os.path.dirname(__file__), "..", "fixtures",
                          "sparqlml_corpus")

SETTINGS = settings(max_examples=50, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])

EX = "http://example.org/"
MODEL_URI = IRI("https://www.kgnet.com/model/fuzz/1")

#: model class -> (kgnet: constraint properties it may carry, supports TopK)
MODEL_CLASSES = {
    "NodeClassifier": (["TargetNode", "NodeLabel"], False),
    "LinkPredictor": (["SourceNode", "DestinationNode"], True),
    "EntitySimilarityModel": (["TargetNode"], True),
}

_NAMES = st.from_regex(r"[a-z][a-zA-Z0-9_]{0,8}", fullmatch=True)


@st.composite
def sparqlml_queries(draw) -> Tuple[str, str]:
    """A random SPARQL-ML SELECT plus the model class it uses."""
    model_class = draw(st.sampled_from(sorted(MODEL_CLASSES)))
    constraint_props, supports_topk = MODEL_CLASSES[model_class]
    subject = "s_" + draw(_NAMES)
    output = "out_" + draw(_NAMES)
    udp = "M_" + draw(_NAMES)
    node_type = "Type" + draw(_NAMES)

    patterns: List[str] = [f"?{subject} a ex:{node_type} ."]
    extra_vars: List[str] = []
    for index in range(draw(st.integers(min_value=0, max_value=3))):
        variable = f"x{index}_{draw(_NAMES)}"
        obj = draw(st.sampled_from(
            [f"?{variable}", f"ex:Const{index}", str(draw(st.integers(0, 99)))]))
        if obj.startswith("?"):
            extra_vars.append(variable)
        patterns.append(f"?{subject} ex:p{index} {obj} .")
    patterns.append(f"?{subject} ?{udp} ?{output} .")
    patterns.append(f"?{udp} a kgnet:{model_class} .")
    for prop in draw(st.sets(st.sampled_from(constraint_props))):
        patterns.append(f"?{udp} kgnet:{prop} ex:{node_type} .")
    if supports_topk and draw(st.booleans()):
        patterns.append(f"?{udp} kgnet:TopK-Links "
                        f"{draw(st.integers(min_value=1, max_value=50))} .")

    projectable = [subject, output] + extra_vars
    if draw(st.booleans()):
        projection = "*"
    else:
        chosen = draw(st.lists(st.sampled_from(projectable), min_size=1,
                               max_size=len(projectable), unique=True))
        projection = " ".join(f"?{name}" for name in chosen)
    modifier = draw(st.sampled_from(["", " limit 10"]))
    distinct = draw(st.sampled_from(["", "distinct "]))
    text = (
        "prefix ex: <http://example.org/>\n"
        "prefix kgnet: <https://www.kgnet.com/>\n"
        f"select {distinct}{projection}\n"
        "where {\n  " + "\n  ".join(patterns) + "\n}" + modifier
    )
    return text, model_class


def _assert_rewrite_is_sound(text: str, force_plan: str = None) -> None:
    ml_parser = SPARQLMLParser()
    query, predicates = ml_parser.parse_select(text)
    assert len(predicates) == 1, "generator must produce exactly one UDP"
    predicate = predicates[0]
    plan = SPARQLMLOptimizer().choose_plan(100, 100, force_plan=force_plan)
    before = serialize_select(query)
    rewritten = SPARQLMLRewriter().rewrite(query, predicate, MODEL_URI, plan)

    # 0. The input is untouched, and the AST the endpoint evaluates is the
    #    one the reported text describes.
    assert serialize_select(query) == before
    assert serialize_select(rewritten.query) == rewritten.text

    # 1. Plain SPARQL: the stock parser accepts it.
    reparsed = parse_query(rewritten.text)
    assert isinstance(reparsed, SelectQuery)

    # 2. Canonical: serialize(parse(text)) is a fixed point.
    first = serialize_select(reparsed)
    assert serialize_select(parse_query(first)) == first

    # 3. Fully lowered: no predicate variable, no kgnet: constraints, and a
    #    second SPARQL-ML analysis finds nothing left to rewrite.
    variable_token = re.compile(
        re.escape(predicate.variable.n3()) + r"(?![A-Za-z0-9_])")
    assert not variable_token.search(rewritten.text)
    assert "kgnet:TargetNode" not in rewritten.text
    assert "kgnet:SourceNode" not in rewritten.text
    assert not ml_parser.extract_predicates(reparsed.where)

    # 4. Non-UDP patterns survive: every original data triple that does not
    #    mention the predicate variable is still present in the reparsed AST.
    surviving = {(p.subject, p.predicate, p.object)
                 for p in reparsed.where.triple_patterns()}
    for pattern in query.where.triple_patterns():
        if predicate.variable in (pattern.subject, pattern.predicate,
                                  pattern.object):
            continue
        assert (pattern.subject, pattern.predicate, pattern.object) in surviving


class TestRewriterFuzz:
    @SETTINGS
    @given(case=sparqlml_queries())
    def test_random_queries_rewrite_to_sound_sparql(self, case):
        text, _model_class = case
        _assert_rewrite_is_sound(text)

    @SETTINGS
    @given(case=sparqlml_queries())
    def test_node_classifier_dictionary_plan_is_sound_too(self, case):
        text, model_class = case
        if model_class != "NodeClassifier":
            return  # dictionary vs per-instance only exists for NC
        _assert_rewrite_is_sound(text, force_plan="dictionary")

    @SETTINGS
    @given(case=sparqlml_queries())
    def test_classifier_queries_classify_as_select(self, case):
        text, _model_class = case
        assert SPARQLMLParser().classify(text) == "select"


def _corpus_files() -> List[str]:
    return sorted(name for name in os.listdir(CORPUS_DIR)
                  if name.endswith(".rq"))


class TestRegressionCorpus:
    def test_corpus_is_present(self):
        assert len(_corpus_files()) >= 8

    @pytest.mark.parametrize("filename", _corpus_files())
    def test_corpus_query_rewrites_soundly(self, filename):
        with open(os.path.join(CORPUS_DIR, filename)) as handle:
            text = handle.read()
        _assert_rewrite_is_sound(text)

    @pytest.mark.parametrize("filename", [name for name in _corpus_files()
                                          if "_nc_" in name])
    def test_nc_corpus_queries_support_both_plans(self, filename):
        with open(os.path.join(CORPUS_DIR, filename)) as handle:
            text = handle.read()
        _assert_rewrite_is_sound(text, force_plan="per_instance")
        _assert_rewrite_is_sound(text, force_plan="dictionary")
