"""Unit tests for the SPARQL parser (query and update forms)."""

import pytest

from repro.exceptions import ParseError
from repro.rdf import DBLP, IRI, Literal, Variable
from repro.rdf.terms import RDF_TYPE
from repro.sparql.ast import (
    Aggregate,
    AskQuery,
    BGP,
    BindPattern,
    ClearUpdate,
    ConstructQuery,
    DeleteDataUpdate,
    FilterPattern,
    FunctionCall,
    InsertDataUpdate,
    ModifyUpdate,
    OptionalPattern,
    SelectQuery,
    SubSelectPattern,
    UnionPattern,
    ValuesPattern,
)
from repro.sparql.parser import parse, parse_query, parse_update


PREFIXES = "PREFIX dblp: <https://www.dblp.org/>\nPREFIX kgnet: <https://www.kgnet.com/>\n"


class TestSelectParsing:
    def test_simple_select(self):
        query = parse_query(PREFIXES + "SELECT ?s ?o WHERE { ?s dblp:title ?o . }")
        assert isinstance(query, SelectQuery)
        assert [i.output_variable.name for i in query.select_items] == ["s", "o"]
        bgp = query.where.elements[0]
        assert isinstance(bgp, BGP) and len(bgp.triples) == 1

    def test_select_star(self):
        query = parse_query("SELECT * WHERE { ?s ?p ?o . }")
        assert query.select_all

    def test_prefix_expansion_in_patterns(self):
        query = parse_query(PREFIXES + "SELECT ?s WHERE { ?s a dblp:Publication . }")
        triple = query.where.elements[0].triples[0]
        assert triple.predicate == RDF_TYPE
        assert triple.object == DBLP["Publication"]

    def test_distinct_and_modifiers(self):
        query = parse_query(
            "SELECT DISTINCT ?s WHERE { ?s ?p ?o . } ORDER BY DESC(?s) LIMIT 5 OFFSET 2")
        assert query.distinct
        assert query.limit == 5 and query.offset == 2
        assert query.order_by[0].descending

    def test_order_by_plain_variable(self):
        query = parse_query("SELECT ?s WHERE { ?s ?p ?o . } ORDER BY ?s")
        assert not query.order_by[0].descending

    def test_predicate_object_lists(self):
        query = parse_query(PREFIXES + """
            SELECT ?p WHERE { ?p a dblp:Publication ; dblp:title ?t ;
                              dblp:authoredBy ?a , ?b . }""")
        assert len(query.where.elements[0].triples) == 4

    def test_filter_expression(self):
        query = parse_query("SELECT ?s WHERE { ?s ?p ?o . FILTER(?o > 3) }")
        assert isinstance(query.where.elements[1], FilterPattern)

    def test_filter_function_without_parens_wrapper(self):
        query = parse_query('SELECT ?s WHERE { ?s ?p ?o . FILTER REGEX(STR(?o), "x") }')
        filter_pattern = query.where.elements[1]
        assert isinstance(filter_pattern.expression, FunctionCall)
        assert filter_pattern.expression.name == "REGEX"

    def test_optional(self):
        query = parse_query(PREFIXES + """
            SELECT ?s WHERE { ?s a dblp:Publication .
                              OPTIONAL { ?s dblp:title ?t . } }""")
        assert isinstance(query.where.elements[1], OptionalPattern)

    def test_union(self):
        query = parse_query(PREFIXES + """
            SELECT ?x WHERE { { ?x a dblp:Publication . } UNION { ?x a dblp:Person . } }""")
        union = query.where.elements[0]
        assert isinstance(union, UnionPattern) and len(union.alternatives) == 2

    def test_bind(self):
        query = parse_query('SELECT ?y WHERE { ?s ?p ?o . BIND(STR(?o) AS ?y) }')
        bind = query.where.elements[1]
        assert isinstance(bind, BindPattern) and bind.variable == Variable("y")

    def test_values_inline_data(self):
        query = parse_query(PREFIXES + """
            SELECT ?v WHERE { VALUES ?v { dblp:a dblp:b } ?v ?p ?o . }""")
        values = query.where.elements[0]
        assert isinstance(values, ValuesPattern)
        assert len(values.rows) == 2

    def test_subselect(self):
        query = parse_query(PREFIXES + """
            SELECT ?t WHERE {
              { SELECT ?s WHERE { ?s a dblp:Publication . } LIMIT 3 }
              ?s dblp:title ?t . }""")
        assert isinstance(query.where.elements[0], SubSelectPattern)
        assert query.where.elements[0].query.limit == 3

    def test_aggregate_with_alias(self):
        query = parse_query("SELECT (COUNT(?s) AS ?n) WHERE { ?s ?p ?o . }")
        item = query.select_items[0]
        assert isinstance(item.expression, Aggregate)
        assert item.alias == Variable("n")

    def test_group_by(self):
        query = parse_query(
            "SELECT ?p (COUNT(?s) AS ?n) WHERE { ?s ?p ?o . } GROUP BY ?p")
        assert len(query.group_by) == 1

    def test_projection_expression_requires_alias(self):
        with pytest.raises(ParseError):
            parse_query("SELECT STR(?s) WHERE { ?s ?p ?o . }")

    def test_udf_call_with_virtuoso_style_alias(self):
        query = parse_query(PREFIXES + """
            SELECT ?title sql:UDFS.getNodeClass(dblp:m1, ?paper) as ?venue
            WHERE { ?paper dblp:title ?title . }""")
        assert len(query.select_items) == 2
        call = query.select_items[1].expression
        assert isinstance(call, FunctionCall)
        assert call.name == "sql:UDFS.getNodeClass"
        assert query.select_items[1].alias == Variable("venue")

    def test_from_clause(self):
        query = parse_query("SELECT ?s FROM <https://x.org/g> WHERE { ?s ?p ?o . }")
        assert query.from_graphs == [IRI("https://x.org/g")]

    def test_empty_projection_rejected(self):
        with pytest.raises(ParseError):
            parse_query("SELECT WHERE { ?s ?p ?o . }")

    def test_missing_closing_brace(self):
        with pytest.raises(ParseError):
            parse_query("SELECT ?s WHERE { ?s ?p ?o .")

    def test_user_defined_predicate_variable(self):
        """The paper's Fig 2 query parses as ordinary SPARQL."""
        query = parse_query(PREFIXES + """
            SELECT ?title ?venue WHERE {
              ?paper a dblp:Publication .
              ?paper dblp:title ?title .
              ?paper ?NodeClassifier ?venue .
              ?NodeClassifier a kgnet:NodeClassifier .
              ?NodeClassifier kgnet:TargetNode dblp:Publication .
              ?NodeClassifier kgnet:NodeLabel dblp:venue . }""")
        assert len(query.where.triple_patterns()) == 6


class TestAskConstruct:
    def test_ask(self):
        query = parse_query(PREFIXES + "ASK { ?s a dblp:Publication . }")
        assert isinstance(query, AskQuery)

    def test_construct(self):
        query = parse_query(PREFIXES + """
            CONSTRUCT { ?s dblp:label ?t } WHERE { ?s dblp:title ?t . }""")
        assert isinstance(query, ConstructQuery)
        assert len(query.template) == 1


class TestUpdateParsing:
    def test_insert_data(self):
        updates = parse_update(PREFIXES + """
            INSERT DATA { dblp:p1 a dblp:Publication . dblp:p1 dblp:title "X" . }""")
        assert isinstance(updates[0], InsertDataUpdate)
        assert len(updates[0].triples) == 2

    def test_insert_data_into_named_graph(self):
        updates = parse_update(PREFIXES + """
            INSERT DATA { GRAPH <https://x.org/g> { dblp:a dblp:p dblp:b . } }""")
        assert updates[0].graph == IRI("https://x.org/g")

    def test_delete_data(self):
        updates = parse_update(PREFIXES + "DELETE DATA { dblp:a dblp:p dblp:b . }")
        assert isinstance(updates[0], DeleteDataUpdate)

    def test_delete_where(self):
        updates = parse_update(PREFIXES + "DELETE WHERE { ?s dblp:title ?t . }")
        update = updates[0]
        assert isinstance(update, ModifyUpdate)
        assert len(update.delete_template) == 1
        assert not update.insert_template

    def test_delete_insert_where(self):
        updates = parse_update(PREFIXES + """
            DELETE { ?s dblp:old ?o } INSERT { ?s dblp:new ?o } WHERE { ?s dblp:old ?o . }""")
        update = updates[0]
        assert update.delete_template and update.insert_template

    def test_virtuoso_insert_into_where(self):
        """The paper's Fig 8 INSERT INTO <g> { ... } WHERE { ... } form."""
        updates = parse_update(PREFIXES + """
            INSERT INTO <https://www.kgnet.com/> { ?s ?p ?o } WHERE { ?s ?p ?o . }""")
        update = updates[0]
        assert isinstance(update, ModifyUpdate)
        assert update.graph == IRI("https://www.kgnet.com/")

    def test_clear(self):
        updates = parse_update("CLEAR GRAPH <https://x.org/g>")
        assert isinstance(updates[0], ClearUpdate)
        assert updates[0].graph == IRI("https://x.org/g")

    def test_with_clause(self):
        updates = parse_update(PREFIXES +
                               "WITH <https://x.org/g> DELETE { ?s ?p ?o } WHERE { ?s ?p ?o . }")
        assert updates[0].graph == IRI("https://x.org/g")

    def test_multiple_updates_separated_by_semicolon(self):
        updates = parse_update(PREFIXES + """
            INSERT DATA { dblp:a dblp:p dblp:b . } ;
            DELETE DATA { dblp:a dblp:p dblp:b . }""")
        assert len(updates) == 2

    def test_empty_update_rejected(self):
        with pytest.raises(ParseError):
            parse_update("   ")


class TestParseDispatch:
    def test_parse_returns_query_for_select(self):
        assert isinstance(parse("SELECT ?s WHERE { ?s ?p ?o . }"), SelectQuery)

    def test_parse_returns_updates_for_insert(self):
        result = parse(PREFIXES + "INSERT DATA { dblp:a dblp:p dblp:b . }")
        assert isinstance(result, list)


class TestEmptyPrefix:
    def test_declared_and_used(self):
        query = parse_query("PREFIX : <http://e/> SELECT ?o WHERE { :a :p ?o }")
        assert query.prefixes[""] == "http://e/"
        pattern = query.where.elements[0].triples[0]
        assert pattern.subject == IRI("http://e/a")
        assert pattern.predicate == IRI("http://e/p")
        assert pattern.object == Variable("o")

    def test_beside_named_prefixes_and_in_expressions(self):
        query = parse_query(PREFIXES + "PREFIX : <http://e/>\n"
                            "SELECT ?s WHERE { ?s dblp:title ?t . ?s :p :o "
                            "FILTER(?s != :x) }")
        bgp = query.where.elements[0]
        assert bgp.triples[1].object == IRI("http://e/o")
        assert query.prefixes[""] == "http://e/"
