"""Compiled expressions against the tree-walking interpreter.

The query evaluator runs :func:`~repro.sparql.functions.compile_expression`
closures; the frozen reference evaluator keeps
:func:`~repro.sparql.functions.evaluate_expression`.  These tests hold the
two to the same answers:

* a Hypothesis differential over random expression trees (every operator,
  ``IN``/``NOT IN``, ``IF``/``COALESCE``/``BOUND``, ``EXISTS``, the
  builtins, a counting UDF, an unknown function, bound and unbound
  variables): each case gives an equal term or the same exception type,
  with equal UDF call counts;
* typed errors still surface per row, so an expression over zero rows
  never fails;
* the UDF-result memo belongs to one evaluation;
* per-query UDF and inference-call counts of every SPARQL-ML plan equal
  what the interpreter makes on the same rewritten query.

``KGNET_STRESS=1`` scales the Hypothesis example count for the CI job.
"""

from __future__ import annotations

import gc
import os
import weakref
from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.datasets import (
    dblp_author_affiliation_task,
    dblp_author_similarity_task,
    dblp_paper_venue_task,
)
from repro.exceptions import QueryError, UDFError
from repro.kgnet import KGNet, TrainingManagerConfig
from repro.kgnet.sparqlml.optimizer import SPARQLMLOptimizer
from repro.kgnet.sparqlml.parser import SPARQLMLParser
from repro.kgnet.sparqlml.rewriter import (
    UDF_GET_KEY_VALUE,
    UDF_GET_LINK_PRED,
    UDF_GET_NODE_CLASS,
    UDF_GET_SIMILAR,
    UDF_GET_TOPK_LINKS,
    SPARQLMLRewriter,
)
from repro.rdf import BNode, Dataset, Graph, IRI, Literal, Variable
from repro.rdf.terms import XSD_BOOLEAN, XSD_DOUBLE
from repro.sparql import (
    QueryEvaluator,
    ReferenceQueryEvaluator,
    SPARQLEndpoint,
    SPARQLParser,
    Solution,
)
from repro.sparql.ast import (
    Aggregate,
    BinaryOp,
    ConstantExpr,
    ExistsExpr,
    FunctionCall,
    GroupPattern,
    InExpr,
    UnaryOp,
    VariableExpr,
)
from repro.sparql.functions import (
    EvaluationContext,
    OpaqueValue,
    UDFRegistry,
    compile_expression,
    effective_boolean_value,
    evaluate_expression,
)

STRESS = bool(os.environ.get("KGNET_STRESS"))
SETTINGS = settings(max_examples=2000 if STRESS else 200, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])

EX = "http://e/"
COUNTING_UDF = "ex:count"
MISSING_UDF = "ex:missing"

# ---------------------------------------------------------------------------
# Random expression trees
# ---------------------------------------------------------------------------

#: ?a ?b ?c may be bound; ?u never is.
VARIABLES = [Variable("a"), Variable("b"), Variable("c"), Variable("u")]

VALUES = [
    Literal(0), Literal(1), Literal(-2), Literal(2.5), Literal("nan", datatype=XSD_DOUBLE),
    Literal(""), Literal("0"), Literal("abc"), Literal("a.c"), Literal("*"),
    Literal("en"), Literal("EN-gb"), Literal("Paper", language="en-GB"),
    Literal("true", datatype=XSD_BOOLEAN), Literal("false", datatype=XSD_BOOLEAN),
    Literal(EX + "x"), IRI(EX + "x"), IRI(EX + "y"), BNode("b1"),
]

#: Builtin name -> (min, max) argument count drawn.
BUILTIN_ARITY = {
    "STR": (1, 1), "REGEX": (2, 3), "SUBSTR": (2, 3), "LANGMATCHES": (2, 2),
    "UCASE": (1, 1), "LCASE": (1, 1), "STRLEN": (1, 1), "CONTAINS": (2, 2),
    "STRSTARTS": (2, 2), "STRENDS": (2, 2), "CONCAT": (0, 3), "ABS": (1, 1),
    "CEIL": (1, 1), "FLOOR": (1, 1), "ROUND": (1, 1), "ISIRI": (1, 1),
    "ISURI": (1, 1), "ISLITERAL": (1, 1), "ISBLANK": (1, 1),
    "ISNUMERIC": (1, 1), "DATATYPE": (1, 1), "LANG": (1, 1), "IRI": (1, 1),
    "URI": (1, 1), "XSD_INTEGER_CAST": (1, 1),
}

LOGICAL = ["&&", "||", "=", "!=", "<", "<=", ">", ">="]
ARITHMETIC = ["+", "-", "*", "/"]

#: Shared so the OpaqueValue both implementations wrap compares equal.
SHARED_DICTIONARY = {"k": "v"}


def counting_udf(*args):
    """Deterministic in its arguments; returns every kind a UDF may return."""
    key = "|".join(str(arg) for arg in args)
    return [
        EX + f"r{len(key)}",          # a well-formed IRI string
        EX + key,                      # an IRI string that may be malformed
        key,                           # a plain string
        len(key),                      # a number
        None,                          # unbound
        SHARED_DICTIONARY,             # an opaque value
        len(key) % 2 == 0,             # a boolean
    ][len(key) % 7]


NUMBERS = [Literal(0), Literal(1), Literal(-2), Literal(2.5)]

leaves = st.one_of(
    st.sampled_from(VALUES).map(ConstantExpr),
    st.sampled_from(NUMBERS).map(ConstantExpr),
    st.sampled_from(VARIABLES).map(VariableExpr),
)


def _builtin_calls(children):
    def call(name):
        low, high = BUILTIN_ARITY[name]
        return st.lists(children, min_size=low, max_size=high).map(
            lambda args: FunctionCall(name, tuple(args)))
    return st.sampled_from(sorted(BUILTIN_ARITY)).flatmap(call)


def _extend(children):
    args = st.lists(children, max_size=2).map(tuple)
    # Any error propagates to the top, so error-prone nodes (arithmetic on
    # non-numbers, unknown functions) are drawn less often than the ones
    # that always yield a value.  An aggregate anywhere fails the whole
    # tree; TestCompiledSemantics covers it on its own.
    total = [
        st.builds(UnaryOp, st.just("!"), children),
        st.builds(BinaryOp, st.sampled_from(LOGICAL), children, children),
        st.builds(InExpr, children, st.lists(children, max_size=3).map(tuple),
                  st.booleans()),
        st.builds(lambda c, t, f: FunctionCall("IF", (c, t, f)),
                  children, children, children),
        st.lists(children, min_size=1, max_size=3).map(
            lambda values: FunctionCall("COALESCE", tuple(values))),
        st.sampled_from(VARIABLES).map(
            lambda v: FunctionCall("BOUND", (VariableExpr(v),))),
        _builtin_calls(children),
        args.map(lambda values: FunctionCall(COUNTING_UDF, values)),
        st.builds(ExistsExpr, st.just(GroupPattern([])), st.booleans()),
    ]
    partial = [
        st.builds(UnaryOp, st.sampled_from(["-", "+"]), children),
        st.builds(BinaryOp, st.sampled_from(ARITHMETIC), children, children),
        args.map(lambda values: FunctionCall(MISSING_UDF, values)),
    ]
    return st.one_of(*total, *total, *total, *partial)


expressions = st.recursive(leaves, _extend, max_leaves=12)

solutions = st.fixed_dictionaries(
    {}, optional={variable: st.sampled_from(VALUES)
                  for variable in VARIABLES[:3]}).map(Solution)


def _context() -> EvaluationContext:
    udfs = UDFRegistry()
    udfs.register(COUNTING_UDF, counting_udf)
    # EXISTS { } holds exactly when ?a is bound: enough to tell the
    # negated form apart and to see the solution reach the callback.
    return EvaluationContext(
        udfs=udfs,
        exists_evaluator=lambda pattern, solution: Variable("a") in solution)


def _outcome(thunk):
    try:
        value = thunk()
    except Exception as exc:  # every exception type is part of the contract
        return ("raises", type(exc))
    return ("value", type(value), value)


@SETTINGS
@given(expr=expressions, rows=st.lists(solutions, min_size=1, max_size=4))
def test_compiled_matches_interpreter(expr, rows):
    compiled_context = _context()
    interpreted_context = _context()
    compiled = compile_expression(expr, compiled_context)  # never raises
    for solution in rows:
        expected = _outcome(lambda: evaluate_expression(
            expr, solution, interpreted_context))
        assert _outcome(lambda: compiled(solution)) == expected
    assert compiled_context.udf_calls == interpreted_context.udf_calls
    assert compiled_context.udfs.call_counts == interpreted_context.udfs.call_counts


class TestCompiledSemantics:
    def test_and_or_short_circuit_skip_the_udf(self):
        context = _context()
        call = FunctionCall(COUNTING_UDF, ())
        false = ConstantExpr(Literal("false", datatype=XSD_BOOLEAN))
        true = ConstantExpr(Literal("true", datatype=XSD_BOOLEAN))
        compile_expression(BinaryOp("&&", false, call), context)(Solution())
        compile_expression(BinaryOp("||", true, call), context)(Solution())
        assert context.udf_calls == 0
        compile_expression(BinaryOp("&&", true, call), context)(Solution())
        assert context.udf_calls == 1
        assert context.udfs.call_counts == {COUNTING_UDF: 1}

    def test_aggregate_outside_grouping_raises_when_called(self):
        expr = BinaryOp("||", ConstantExpr(Literal(1)),
                        Aggregate("COUNT", VariableExpr(Variable("a"))))
        compiled = compile_expression(expr, _context())
        assert compiled(Solution()) == evaluate_expression(expr, Solution())
        with pytest.raises(QueryError):
            compile_expression(expr.right, _context())(Solution())
        with pytest.raises(QueryError):
            evaluate_expression(expr.right, Solution())

    def test_unknown_function_evaluates_its_arguments_then_raises(self):
        context = _context()
        expr = FunctionCall(MISSING_UDF, (FunctionCall(COUNTING_UDF, ()),))
        compiled = compile_expression(expr, context)
        assert context.udf_calls == 0
        with pytest.raises(UDFError):
            compiled(Solution())
        assert context.udf_calls == 1

    def test_arithmetic_evaluates_both_operands_before_converting(self):
        # "abc" + ex:count(): the right operand's UDF call happens before
        # the left operand fails to convert, exactly as in the interpreter.
        expr = BinaryOp("+", ConstantExpr(Literal("abc")),
                        FunctionCall(COUNTING_UDF, ()))
        for run in (lambda c: compile_expression(expr, c)(Solution()),
                    lambda c: evaluate_expression(expr, Solution(), c)):
            context = _context()
            with pytest.raises(QueryError):
                run(context)
            assert context.udf_calls == 1

    def test_in_evaluates_every_choice(self):
        # 1 IN (1, ex:count()): a match on the first choice still calls the
        # UDF in the second, exactly as in the interpreter.
        expr = InExpr(ConstantExpr(Literal(1)),
                      (ConstantExpr(Literal(1)), FunctionCall(COUNTING_UDF, ())))
        for run in (lambda c: compile_expression(expr, c)(Solution()),
                    lambda c: evaluate_expression(expr, Solution(), c)):
            context = _context()
            assert effective_boolean_value(run(context))
            assert context.udf_calls == 1

    def test_udf_registered_after_compile_is_not_seen(self):
        # Names resolve at compile time, once per evaluation.
        context = _context()
        compiled = compile_expression(FunctionCall("ex:late", ()), context)
        context.udfs.register("ex:late", lambda: "x")
        with pytest.raises(UDFError):
            compiled(Solution())


# ---------------------------------------------------------------------------
# End to end through the endpoint
# ---------------------------------------------------------------------------

@pytest.fixture()
def endpoint():
    graph = Graph()
    for index in range(3):
        graph.add(IRI(f"{EX}s{index}"), IRI(EX + "p"), Literal(f"v{index}"))
    endpoint = SPARQLEndpoint()
    endpoint.load(graph)
    return endpoint


class TestTypedErrorsStayPerRow:
    @pytest.mark.parametrize("query", [
        "SELECT (<http://e/nope>(?o) AS ?x) WHERE { ?s <http://e/none> ?o }",
        "SELECT ?s WHERE { ?s <http://e/none> ?o FILTER(<http://e/nope>(?o)) }",
        "SELECT ?s WHERE { ?s <http://e/none> ?o BIND(<http://e/nope>(?o) AS ?x) }",
        "SELECT ?s WHERE { ?s <http://e/none> ?o } ORDER BY <http://e/nope>(?o)",
        "SELECT (COUNT(?o) AS ?n) WHERE { ?s <http://e/none> ?o } "
        "GROUP BY (<http://e/nope>(?o))",
    ])
    def test_unknown_function_over_zero_rows_returns_nothing(self, endpoint, query):
        result = endpoint.query(query)
        assert result.solutions in ([], [Solution()])

    @pytest.mark.parametrize("query", [
        "SELECT (<http://e/nope>(?o) AS ?x) WHERE { ?s <http://e/p> ?o }",
        "SELECT ?s WHERE { ?s <http://e/p> ?o FILTER(<http://e/nope>(?o)) }",
    ])
    def test_unknown_function_over_rows_raises(self, endpoint, query):
        with pytest.raises(UDFError):
            endpoint.query(query)


class TestMemoBelongsToOneEvaluation:
    def test_changed_udf_output_is_seen_by_the_next_query(self, endpoint):
        outputs = {"prefix": EX + "first/"}
        endpoint.register_udf("ex:label",
                              lambda value: outputs["prefix"] + str(value))
        query = ("SELECT ?o (<ex:label>(?o) AS ?x) "
                 "WHERE { ?s <http://e/p> ?o }")
        first = {str(s[Variable("o")]): s[Variable("x")]
                 for s in endpoint.query(query)}
        assert first == {f"v{i}": IRI(f"{EX}first/v{i}") for i in range(3)}
        outputs["prefix"] = "not an iri "
        second = {str(s[Variable("o")]): s[Variable("x")]
                  for s in endpoint.query(query)}
        assert second == {f"v{i}": Literal(f"not an iri v{i}") for i in range(3)}

    def test_each_call_reaches_the_udf(self, endpoint):
        # The memo maps a returned string to its term; it never skips a call.
        calls = []
        endpoint.register_udf("ex:same", lambda value: calls.append(value) or EX + "k")
        result = endpoint.query("SELECT (<ex:same>(?o) AS ?x) "
                                "WHERE { ?s <http://e/p> ?o }")
        assert [s[Variable("x")] for s in result] == [IRI(EX + "k")] * 3
        assert len(calls) == 3
        assert endpoint.thread_statistics().udf_calls == 3

    def test_compiled_call_sites_do_not_share_a_memo(self):
        context = _context()
        context.udfs.register("ex:iri", lambda: EX + "k")
        call = FunctionCall("ex:iri", ())
        terms = [compile_expression(call, context)(Solution()) for _ in range(2)]
        # Equal terms, built separately by each compiled call site.
        assert terms[0] == terms[1]
        assert terms[0] is not terms[1]


# ---------------------------------------------------------------------------
# Per-query call counts of every SPARQL-ML plan
# ---------------------------------------------------------------------------

CORPUS_DIR = os.path.join(os.path.dirname(__file__), "..", "fixtures",
                          "sparqlml_corpus")
CORPUS = sorted(name for name in os.listdir(CORPUS_DIR) if name.endswith(".rq"))
CORPUS_EX = "http://example.org/"
MODEL_URI = IRI("https://www.kgnet.com/model/stub/1")


def _stub_endpoint():
    """The corpus dataset with stub SPARQL-ML UDFs that count their calls."""
    from tests.storage.test_differential import _populate
    dataset = Dataset()
    _populate(dataset)
    endpoint = SPARQLEndpoint(dataset=dataset)
    inference_calls = Counter()

    def node_class(model, node):
        inference_calls["total"] += 1
        key = str(node)
        if isinstance(node, IRI) and "/" not in key[len(CORPUS_EX):]:
            return {"dictionary": True}  # a type: the whole dictionary
        return f"{CORPUS_EX}class/{len(key) % 3}"

    def key_value(dictionary, key):
        assert isinstance(dictionary, OpaqueValue)
        return f"{CORPUS_EX}class/{len(str(key)) % 3}"

    def links(model, source, k=None):
        inference_calls["total"] += 1
        return f"{CORPUS_EX}link/{len(str(source)) % 4}"

    for name, function in ((UDF_GET_NODE_CLASS, node_class),
                           (UDF_GET_KEY_VALUE, key_value),
                           (UDF_GET_LINK_PRED, links),
                           (UDF_GET_TOPK_LINKS, links),
                           (UDF_GET_SIMILAR, links)):
        endpoint.register_udf(name, function)
    return endpoint, inference_calls


def _rewrite(text: str, force_plan):
    query, predicates = SPARQLMLParser().parse_select(text)
    plan = SPARQLMLOptimizer().choose_plan(100, 100, force_plan=force_plan)
    return SPARQLMLRewriter().rewrite(query, predicates[0], MODEL_URI, plan)


def _rows(result) -> Counter:
    return Counter(tuple(sorted((v.name, str(s.get(v))) for v in result.variables))
                   for s in result.solutions)


@pytest.mark.parametrize("force_plan", ["dictionary", "per_instance"])
@pytest.mark.parametrize("name", CORPUS)
def test_corpus_call_counts_match_the_interpreter(name, force_plan):
    with open(os.path.join(CORPUS_DIR, name), encoding="utf-8") as handle:
        rewritten = _rewrite(handle.read(), force_plan)
    endpoint, inference_calls = _stub_endpoint()

    result = endpoint.run_query(rewritten.query, rewritten.text)
    engine_udf_calls = endpoint.thread_statistics().udf_calls
    engine_inference_calls = inference_calls["total"]
    assert engine_udf_calls == endpoint.udfs.total_calls()

    endpoint.udfs.reset_counts()
    graph = endpoint.dataset.snapshot().union()
    expected = ReferenceQueryEvaluator(graph, udfs=endpoint.udfs).evaluate(
        rewritten.query)
    assert _rows(result) == _rows(expected)
    assert sum(_rows(result).values()) > 0, f"{name} must not be vacuous"
    assert engine_udf_calls == endpoint.udfs.total_calls() > 0
    assert engine_inference_calls == inference_calls["total"] - engine_inference_calls
    if UDF_GET_KEY_VALUE in rewritten.text:
        # The dictionary plan: one dictionary call, then one local lookup
        # per row (paper Fig 12).  Other tasks ignore the forced plan.
        assert engine_inference_calls == 1


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

LP_TOPK_SELECT = """
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


@pytest.mark.parametrize("query,force_plan", [
    (FIG2_SELECT, "dictionary"),
    (FIG2_SELECT, "per_instance"),
    (LP_TOPK_SELECT, None),
    (SIMILARITY_SELECT, None),
], ids=["dictionary", "per_instance", "lp_topk", "similarity"])
def test_select_report_counts_match_the_interpreter(platform, query, force_plan):
    report = platform.sparqlml.execute_select(query, force_plan=force_plan)
    udf_calls = platform.endpoint.thread_statistics().udf_calls
    rows = len(report.results)
    assert rows > 0

    gmlaas = platform.gmlaas
    udfs = platform.endpoint.udfs
    http_before = gmlaas.thread_http_calls()
    udf_before = udfs.total_calls()
    expected = ReferenceQueryEvaluator(platform.graph, udfs=udfs).evaluate(
        report.rewritten[-1].query)
    assert _rows(report.results) == _rows(expected)
    assert report.http_calls == gmlaas.thread_http_calls() - http_before
    assert udf_calls == udfs.total_calls() - udf_before
    if force_plan == "dictionary":
        assert (report.http_calls, udf_calls) == (1, 1 + rows)
    else:
        # One inference call per row of the per-row UDF plans.
        assert report.http_calls == udf_calls == rows


def test_evaluation_leaves_no_reference_cycle():
    """The evaluator and its compiled closures are freed on return.

    A cycle through the evaluation context would leave every query's
    closures to the cyclic garbage collector.
    """
    graph = Graph()
    for index in range(3):
        graph.add(IRI(f"{EX}s{index}"), IRI(EX + "p"), Literal(index))
    udfs = UDFRegistry()
    udfs.register(COUNTING_UDF, counting_udf)
    query = SPARQLParser(
        "SELECT ?s (COUNT(?o) AS ?n) (SAMPLE(<ex:count>(?o)) AS ?x) WHERE { "
        "?s <http://e/p> ?o FILTER(EXISTS { ?s <http://e/p> ?o }) "
        "BIND(?o + 1 AS ?next) } GROUP BY ?s HAVING (SUM(?o) >= 1) "
        "ORDER BY ?s").parse_query()
    gc.collect()
    gc.disable()
    try:
        evaluator = QueryEvaluator(graph, udfs=udfs)
        assert len(evaluator.evaluate(query)) == 2
        freed = weakref.ref(evaluator)
        del evaluator
        assert freed() is None
    finally:
        gc.enable()
