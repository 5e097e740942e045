"""Unit tests for SPARQL query evaluation (SELECT / ASK / CONSTRUCT)."""

import pytest

from repro.rdf import DBLP, Graph, IRI, Literal, Variable
from repro.sparql import SPARQLEndpoint
from repro.sparql.evaluator import estimate_pattern_cardinality, reorder_patterns
from repro.sparql.ast import TriplePattern
from repro.rdf.terms import RDF_TYPE

PREFIXES = "PREFIX dblp: <https://www.dblp.org/>\n"


class TestBasicGraphPatterns:
    def test_single_pattern(self, endpoint):
        result = endpoint.select(PREFIXES + "SELECT ?p WHERE { ?p a dblp:Publication . }")
        assert len(result) == 2

    def test_join_two_patterns(self, endpoint):
        result = endpoint.select(PREFIXES + """
            SELECT ?p ?t WHERE { ?p a dblp:Publication . ?p dblp:title ?t . }""")
        assert len(result) == 2
        titles = {sol.get_value("t").lexical for sol in result}
        assert titles == {"Graph Machine Learning", "Knowledge Graphs"}

    def test_join_across_subjects(self, endpoint):
        result = endpoint.select(PREFIXES + """
            SELECT ?p ?aff WHERE {
              ?p dblp:authoredBy ?a . ?a dblp:affiliation ?aff . }""")
        assert len(result) == 1
        assert result[0].get_value("aff") == DBLP["affiliation/mit"]

    def test_no_match_returns_empty(self, endpoint):
        result = endpoint.select(PREFIXES + "SELECT ?x WHERE { ?x a dblp:Venue . }")
        assert len(result) == 0

    def test_constant_subject(self, endpoint):
        result = endpoint.select(PREFIXES + """
            SELECT ?t WHERE { dblp:paper/1 dblp:title ?t . }""")
        assert len(result) == 1

    def test_repeated_variable_in_pattern(self, endpoint):
        # ?x ?p ?x matches nothing in the tiny graph (no self loops).
        result = endpoint.select("SELECT ?x WHERE { ?x ?p ?x . }")
        assert len(result) == 0

    def test_predicate_variable(self, endpoint):
        result = endpoint.select(PREFIXES + """
            SELECT DISTINCT ?pred WHERE { dblp:paper/1 ?pred ?o . }""")
        assert len(result) == 4

    def test_select_star_binds_all_variables(self, endpoint):
        result = endpoint.select(PREFIXES + "SELECT * WHERE { ?s dblp:title ?t . }")
        assert {v.name for v in result.variables} == {"s", "t"}


class TestSolutionModifiers:
    def test_distinct(self, endpoint):
        result = endpoint.select(PREFIXES + """
            SELECT DISTINCT ?type WHERE { ?s a ?type . }""")
        assert len(result) == 2

    def test_order_by_ascending(self, endpoint):
        result = endpoint.select(PREFIXES + """
            SELECT ?t WHERE { ?p dblp:title ?t . } ORDER BY ?t""")
        titles = [sol.get_value("t").lexical for sol in result]
        assert titles == sorted(titles)

    def test_order_by_descending(self, endpoint):
        result = endpoint.select(PREFIXES + """
            SELECT ?t WHERE { ?p dblp:title ?t . } ORDER BY DESC(?t)""")
        titles = [sol.get_value("t").lexical for sol in result]
        assert titles == sorted(titles, reverse=True)

    def test_limit_and_offset(self, endpoint):
        all_rows = endpoint.select("SELECT ?s WHERE { ?s ?p ?o . } ORDER BY ?s")
        page = endpoint.select("SELECT ?s WHERE { ?s ?p ?o . } ORDER BY ?s LIMIT 3 OFFSET 2")
        assert len(page) == 3
        assert page.rows() == all_rows.rows()[2:5]

    def test_limit_zero(self, endpoint):
        assert len(endpoint.select("SELECT ?s WHERE { ?s ?p ?o . } LIMIT 0")) == 0


class TestOptionalUnionMinus:
    def test_optional_keeps_unmatched_rows(self, endpoint):
        result = endpoint.select(PREFIXES + """
            SELECT ?p ?v WHERE {
              ?p a dblp:Publication .
              OPTIONAL { ?p dblp:publishedIn ?v . } }""")
        assert len(result) == 2
        venues = [sol.get_value("v") for sol in result]
        assert venues.count(None) == 1

    def test_union_combines_alternatives(self, endpoint):
        result = endpoint.select(PREFIXES + """
            SELECT ?x WHERE {
              { ?x a dblp:Publication . } UNION { ?x a dblp:Person . } }""")
        assert len(result) == 4

    def test_minus_removes_matching(self, endpoint):
        result = endpoint.select(PREFIXES + """
            SELECT ?x WHERE { ?x a dblp:Publication .
                              MINUS { ?x dblp:publishedIn ?v . } }""")
        assert len(result) == 1
        assert result[0].get_value("x") == DBLP["paper/2"]

    def test_values_restricts_bindings(self, endpoint):
        result = endpoint.select(PREFIXES + """
            SELECT ?t WHERE {
              VALUES ?p { dblp:paper/1 }
              ?p dblp:title ?t . }""")
        assert len(result) == 1
        assert result[0].get_value("t").lexical == "Graph Machine Learning"

    def test_bind_adds_variable(self, endpoint):
        result = endpoint.select(PREFIXES + """
            SELECT ?p ?label WHERE { ?p dblp:title ?t . BIND(UCASE(STR(?t)) AS ?label) }""")
        labels = {sol.get_value("label").lexical for sol in result}
        assert labels == {"GRAPH MACHINE LEARNING", "KNOWLEDGE GRAPHS"}

    def test_subselect_limits_inner(self, endpoint):
        result = endpoint.select(PREFIXES + """
            SELECT ?t WHERE {
              { SELECT ?p WHERE { ?p a dblp:Publication . } LIMIT 1 }
              ?p dblp:title ?t . }""")
        assert len(result) == 1


class TestAskConstruct:
    def test_ask_true(self, endpoint):
        assert endpoint.ask(PREFIXES + "ASK { ?p a dblp:Publication . }") is True

    def test_ask_false(self, endpoint):
        assert endpoint.ask(PREFIXES + "ASK { ?p a dblp:Venue . }") is False

    def test_construct_builds_graph(self, endpoint):
        graph = endpoint.query(PREFIXES + """
            CONSTRUCT { ?p dblp:label ?t } WHERE { ?p dblp:title ?t . }""")
        assert isinstance(graph, Graph)
        assert len(graph) == 2


class TestJoinOrderOptimization:
    def test_cardinality_estimate_uses_indexes(self, tiny_graph):
        type_pattern = TriplePattern(Variable("s"), RDF_TYPE, DBLP["Publication"])
        all_pattern = TriplePattern(Variable("s"), Variable("p"), Variable("o"))
        assert estimate_pattern_cardinality(tiny_graph, type_pattern) == 2
        assert estimate_pattern_cardinality(tiny_graph, all_pattern) == len(tiny_graph)

    def test_bound_variables_reduce_estimate(self, tiny_graph):
        pattern = TriplePattern(Variable("s"), DBLP["title"], Variable("t"))
        unbound = estimate_pattern_cardinality(tiny_graph, pattern)
        bound = estimate_pattern_cardinality(tiny_graph, pattern, bound={Variable("s")})
        assert bound < unbound

    def test_reorder_puts_selective_pattern_first(self, tiny_graph):
        patterns = [
            TriplePattern(Variable("s"), Variable("p"), Variable("o")),
            TriplePattern(Variable("s"), RDF_TYPE, DBLP["Person"]),
        ]
        ordered = reorder_patterns(tiny_graph, patterns)
        assert ordered[0].object == DBLP["Person"]

    def test_reorder_prefers_connected_patterns(self, tiny_graph):
        patterns = [
            TriplePattern(Variable("a"), DBLP["affiliation"], Variable("aff")),
            TriplePattern(Variable("p"), RDF_TYPE, DBLP["Publication"]),
            TriplePattern(Variable("p"), DBLP["authoredBy"], Variable("a")),
        ]
        ordered = reorder_patterns(tiny_graph, patterns)
        # After the first pattern, the next one must share a variable with it.
        first_vars = set(ordered[0].variables())
        second_vars = set(ordered[1].variables())
        assert first_vars & second_vars

    def test_optimized_and_unoptimized_agree(self, tiny_graph):
        query = PREFIXES + """
            SELECT ?p ?a ?aff WHERE {
              ?p a dblp:Publication . ?p dblp:authoredBy ?a .
              ?a dblp:affiliation ?aff . }"""
        optimized = SPARQLEndpoint(optimize_joins=True)
        optimized.load(tiny_graph)
        baseline = SPARQLEndpoint(optimize_joins=False)
        baseline.load(tiny_graph)
        opt_rows = {frozenset(sol.items()) for sol in optimized.select(query)}
        base_rows = {frozenset(sol.items()) for sol in baseline.select(query)}
        assert opt_rows == base_rows

    def test_optimizer_reduces_pattern_lookups(self, dblp_graph):
        query = PREFIXES + """
            SELECT ?p ?v WHERE {
              ?p ?any ?x . ?p a dblp:Publication . ?p dblp:publishedIn ?v . }"""
        optimized = SPARQLEndpoint(optimize_joins=True)
        optimized.load(dblp_graph)
        baseline = SPARQLEndpoint(optimize_joins=False)
        baseline.load(dblp_graph)
        optimized.select(query)
        baseline.select(query)
        assert optimized.history[-1].pattern_lookups <= baseline.history[-1].pattern_lookups


class TestBatchedJoinsDifferential:
    """Batched id-space joins vs. the naive reference, row for row.

    ``optimize_joins=True`` folds single-occurrence join variables into
    set-intersections over the term-id space; ``optimize_joins=False`` is
    the straightforward nested-loop reference.  Both must produce the same
    *multiset* of solutions on a corpus chosen to exercise every fold
    shape: star joins, chains, ground seeds, empty intersections, and
    repeated variables (which must NOT fold).
    """

    EX = "http://example.org/batched/"

    @pytest.fixture(scope="class")
    def corpus_graph(self):
        ex = self.EX
        graph = Graph()
        for i in range(40):
            node = IRI(f"{ex}n{i}")
            graph.add(node, IRI(f"{ex}kind"), IRI(f"{ex}K{i % 3}"))
            graph.add(node, IRI(f"{ex}score"), Literal(i % 7))
            if i % 2 == 0:
                graph.add(node, IRI(f"{ex}links"), IRI(f"{ex}n{(i + 1) % 40}"))
            if i % 5 == 0:
                graph.add(node, IRI(f"{ex}tag"), Literal("special"))
        # Duplicate-producing fan-out: several labels per node.
        for i in range(0, 40, 4):
            graph.add(IRI(f"{ex}n{i}"), IRI(f"{ex}label"), Literal(f"a{i}"))
            graph.add(IRI(f"{ex}n{i}"), IRI(f"{ex}label"), Literal(f"b{i}"))
        return graph

    QUERIES = [
        # Star join: one subject, many single-occurrence object variables.
        "SELECT ?x ?k ?s WHERE { ?x <EXkind> ?k . ?x <EXscore> ?s . }",
        "SELECT ?x WHERE { ?x <EXkind> <EXK0> . ?x <EXtag> ?t . }",
        # Chain: object of one pattern is subject of the next.
        "SELECT ?a ?c WHERE { ?a <EXlinks> ?b . ?b <EXlinks> ?c . }",
        "SELECT ?a ?l WHERE { ?a <EXlinks> ?b . ?b <EXlabel> ?l . }",
        # Ground seed: constant subject narrows the join up front.
        "SELECT ?k ?s WHERE { <EXn0> <EXkind> ?k . <EXn0> <EXscore> ?s . }",
        # Empty intersection: tagged nodes of a kind nothing has.
        "SELECT ?x WHERE { ?x <EXkind> <EXnope> . ?x <EXtag> ?t . }",
        # Repeated variable inside one pattern must not fold incorrectly.
        "SELECT ?x WHERE { ?x <EXlinks> ?x . }",
        # Duplicate rows from label fan-out: multiset equality matters.
        "SELECT ?k WHERE { ?x <EXlabel> ?l . ?x <EXkind> ?k . }",
        # Three-way mix of star and chain.
        "SELECT ?x ?k ?c WHERE { ?x <EXkind> ?k . ?x <EXlinks> ?c . "
        "?c <EXtag> ?t . }",
    ]

    @pytest.mark.parametrize("template", QUERIES)
    def test_batched_matches_reference(self, corpus_graph, template):
        from collections import Counter
        query = template.replace("<EX", f"<{self.EX}")
        batched = SPARQLEndpoint(optimize_joins=True)
        batched.load(corpus_graph)
        reference = SPARQLEndpoint(optimize_joins=False)
        reference.load(corpus_graph)
        batched_rows = Counter(
            frozenset(sol.items()) for sol in batched.select(query))
        reference_rows = Counter(
            frozenset(sol.items()) for sol in reference.select(query))
        assert batched_rows == reference_rows

    def test_fold_actually_reduces_index_work(self, corpus_graph):
        query = (f"SELECT ?x ?k ?s WHERE {{ ?x <{self.EX}kind> ?k . "
                 f"?x <{self.EX}score> ?s . ?x <{self.EX}tag> ?t . }}")
        batched = SPARQLEndpoint(optimize_joins=True)
        batched.load(corpus_graph)
        reference = SPARQLEndpoint(optimize_joins=False)
        reference.load(corpus_graph)
        assert batched.select(query) is not None
        assert reference.select(query) is not None
        assert (batched.history[-1].pattern_lookups
                < reference.history[-1].pattern_lookups)


class TestEmptyPrefix:
    def test_empty_prefix_query_end_to_end(self):
        graph = Graph()
        graph.add(IRI("http://e/a"), IRI("http://e/p"), IRI("http://e/b"))
        graph.add(IRI("http://e/a"), IRI("http://e/p"), Literal(1))
        graph.add(IRI("http://e/c"), IRI("http://e/p"), IRI("http://e/d"))
        endpoint = SPARQLEndpoint()
        endpoint.load(graph)
        result = endpoint.select("PREFIX : <http://e/> SELECT ?o WHERE { :a :p ?o }")
        assert {row.get_value("o") for row in result} == {IRI("http://e/b"), Literal(1)}
        asked = endpoint.ask("PREFIX : <http://e/> ASK { :c :p :d }")
        assert asked is True
