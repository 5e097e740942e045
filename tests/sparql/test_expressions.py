"""Unit tests for FILTER expressions, built-in functions and aggregates."""

import pytest

from repro.exceptions import QueryError, UDFError
from repro.rdf import DBLP, Graph, IRI, Literal, Variable
from repro.sparql import ReferenceQueryEvaluator, SPARQLEndpoint, Solution, UDFRegistry
from repro.sparql.functions import (
    OpaqueValue,
    compile_expression,
    effective_boolean_value,
    evaluate_expression,
    term_to_number,
    EvaluationContext,
    TRUE,
    FALSE,
)
from repro.sparql.parser import SPARQLParser

PREFIXES = "PREFIX dblp: <https://www.dblp.org/>\n"


def _expr(text: str):
    """Parse a standalone expression by wrapping it in a FILTER."""
    parser = SPARQLParser(f"SELECT ?x WHERE {{ ?x ?p ?o . FILTER({text}) }}")
    query = parser.parse_query()
    return query.where.elements[1].expression


def _eval(text: str, bindings=None, udfs=None):
    solution = Solution(bindings or {})
    context = EvaluationContext(udfs=udfs)
    return evaluate_expression(_expr(text), solution, context)


@pytest.fixture()
def numbers_endpoint():
    graph = Graph()
    for index, year in enumerate([1999, 2005, 2010, 2020, 2020]):
        paper = DBLP[f"p{index}"]
        graph.add(paper, DBLP["year"], Literal(year))
        graph.add(paper, DBLP["venue"], DBLP[f"venue{index % 2}"])
        graph.add(paper, DBLP["title"], Literal(f"Paper {index}"))
    endpoint = SPARQLEndpoint()
    endpoint.load(graph)
    return endpoint


class TestOperators:
    def test_comparisons_numeric(self):
        assert _eval("3 < 5") == TRUE
        assert _eval("5 <= 5") == TRUE
        assert _eval("7 > 9") == FALSE
        assert _eval("2 = 2.0") == TRUE
        assert _eval("2 != 3") == TRUE

    def test_comparison_strings(self):
        assert _eval('"abc" < "abd"') == TRUE

    def test_arithmetic(self):
        assert term_to_number(_eval("2 + 3 * 4")) == 14
        assert term_to_number(_eval("(2 + 3) * 4")) == 20
        assert term_to_number(_eval("10 / 4")) == pytest.approx(2.5)
        assert term_to_number(_eval("7 - 10")) == -3

    def test_division_by_zero_raises(self):
        with pytest.raises(QueryError):
            _eval("1 / 0")

    def test_logical_and_or_not(self):
        assert _eval("1 < 2 && 3 < 4") == TRUE
        assert _eval("1 > 2 || 3 < 4") == TRUE
        assert _eval("!(1 > 2)") == TRUE
        assert _eval("1 > 2 && 3 < 4") == FALSE

    def test_unary_minus(self):
        assert term_to_number(_eval("-(3) + 5")) == 2

    def test_in_operator(self):
        bindings = {Variable("x"): Literal(3)}
        assert _eval("?x IN (1, 2, 3)", bindings) == TRUE
        assert _eval("?x NOT IN (1, 2)", bindings) == TRUE

    def test_comparison_with_unbound_is_false(self):
        assert _eval("?missing > 3") == FALSE


class TestBuiltins:
    def test_str_and_case_functions(self):
        bindings = {Variable("x"): DBLP["Publication"]}
        assert _eval("STR(?x)", bindings) == Literal("https://www.dblp.org/Publication")
        assert _eval('UCASE("abc")') == Literal("ABC")
        assert _eval('LCASE("ABC")') == Literal("abc")

    def test_strlen_contains_starts_ends(self):
        assert term_to_number(_eval('STRLEN("hello")')) == 5
        assert _eval('CONTAINS("hello", "ell")') == TRUE
        assert _eval('STRSTARTS("hello", "he")') == TRUE
        assert _eval('STRENDS("hello", "lo")') == TRUE

    def test_concat(self):
        assert _eval('CONCAT("a", "b", "c")') == Literal("abc")

    def test_regex(self):
        assert _eval('REGEX("KGNet platform", "platform")') == TRUE
        assert _eval('REGEX("KGNet", "kgnet", "i")') == TRUE
        assert _eval('REGEX("KGNet", "missing")') == FALSE

    def test_numeric_builtins(self):
        assert term_to_number(_eval("ABS(-4)")) == 4
        assert term_to_number(_eval("CEIL(2.1)")) == 3
        assert term_to_number(_eval("FLOOR(2.9)")) == 2
        assert term_to_number(_eval("ROUND(2.5)")) == 2  # banker's rounding

    def test_type_checks(self):
        bindings = {Variable("x"): DBLP["a"], Variable("y"): Literal(3)}
        assert _eval("ISIRI(?x)", bindings) == TRUE
        assert _eval("ISLITERAL(?y)", bindings) == TRUE
        assert _eval("ISNUMERIC(?y)", bindings) == TRUE
        assert _eval("ISBLANK(?x)", bindings) == FALSE

    def test_bound_and_coalesce_and_if(self):
        bindings = {Variable("x"): Literal(1)}
        assert _eval("BOUND(?x)", bindings) == TRUE
        assert _eval("BOUND(?y)", bindings) == FALSE
        assert _eval('COALESCE(?y, "fallback")', bindings) == Literal("fallback")
        assert _eval('IF(?x = 1, "yes", "no")', bindings) == Literal("yes")

    def test_datatype_and_lang(self):
        assert _eval("DATATYPE(3)").local_name() == "integer"
        assert _eval('LANG("x")') == Literal("")

    def test_iri_constructor(self):
        assert _eval('IRI("https://x.org/a")') == IRI("https://x.org/a")

    def test_unknown_function_raises(self):
        with pytest.raises(UDFError):
            _eval("NOSUCHFUNCTION(1)")


class TestEffectiveBooleanValue:
    def test_boolean_literals(self):
        assert effective_boolean_value(TRUE) is True
        assert effective_boolean_value(FALSE) is False

    def test_numbers(self):
        assert effective_boolean_value(Literal(0)) is False
        assert effective_boolean_value(Literal(2)) is True

    def test_strings(self):
        assert effective_boolean_value(Literal("")) is False
        assert effective_boolean_value(Literal("x")) is True

    def test_none_is_false(self):
        assert effective_boolean_value(None) is False


class TestUDFRegistry:
    def test_register_and_call(self):
        registry = UDFRegistry()
        registry.register("sql:UDFS.double", lambda x: float(str(x)) * 2)
        assert registry.call("sql:UDFS.double", Literal(2)) == 4.0
        assert registry.total_calls() == 1
        assert registry.total_calls("sql:UDFS.double") == 1

    def test_alias_lookup_case_insensitive(self):
        registry = UDFRegistry()
        registry.register("sql:UDFS.f", lambda: 1, aliases=["f"])
        assert "SQL:UDFS.F" in registry
        assert "F" in registry

    def test_unknown_udf_raises(self):
        with pytest.raises(UDFError):
            UDFRegistry().call("nope")

    def test_reset_counts(self):
        registry = UDFRegistry()
        registry.register("f", lambda: 1)
        registry.call("f")
        registry.reset_counts()
        assert registry.total_calls() == 0

    def test_udf_in_expression_and_opaque_results(self):
        registry = UDFRegistry()
        registry.register("sql:UDFS.getDict", lambda: {"a": "b"})
        value = _eval("sql:UDFS.getDict()", udfs=registry)
        assert isinstance(value, OpaqueValue)
        assert value.value == {"a": "b"}

    def test_udf_string_results_coerced_to_terms(self):
        registry = UDFRegistry()
        registry.register("sql:UDFS.venue", lambda: "https://www.dblp.org/venue/ICDE")
        assert _eval("sql:UDFS.venue()", udfs=registry) == DBLP["venue/ICDE"]


class TestAggregates:
    def test_count_all_rows(self, numbers_endpoint):
        result = numbers_endpoint.select(PREFIXES +
                                         "SELECT (COUNT(?p) AS ?n) WHERE { ?p dblp:year ?y . }")
        assert result[0].get_value("n").to_python() == 5

    def test_count_distinct(self, numbers_endpoint):
        result = numbers_endpoint.select(PREFIXES +
                                         "SELECT (COUNT(DISTINCT ?y) AS ?n) WHERE { ?p dblp:year ?y . }")
        assert result[0].get_value("n").to_python() == 4

    def test_sum_avg_min_max(self, numbers_endpoint):
        result = numbers_endpoint.select(PREFIXES + """
            SELECT (SUM(?y) AS ?total) (AVG(?y) AS ?mean)
                   (MIN(?y) AS ?low) (MAX(?y) AS ?high)
            WHERE { ?p dblp:year ?y . }""")
        row = result[0]
        assert row.get_value("total").to_python() == 1999 + 2005 + 2010 + 2020 + 2020
        assert row.get_value("mean").to_python() == pytest.approx(2010.8)
        assert row.get_value("low").to_python() == 1999
        assert row.get_value("high").to_python() == 2020

    def test_group_by_counts_per_group(self, numbers_endpoint):
        result = numbers_endpoint.select(PREFIXES + """
            SELECT ?venue (COUNT(?p) AS ?n) WHERE { ?p dblp:venue ?venue . }
            GROUP BY ?venue ORDER BY DESC(?n)""")
        assert len(result) == 2
        counts = sorted(row.get_value("n").to_python() for row in result)
        assert counts == [2, 3]

    def test_group_concat_and_sample(self, numbers_endpoint):
        result = numbers_endpoint.select(PREFIXES + """
            SELECT ?venue (GROUP_CONCAT(?t; SEPARATOR=", ") AS ?titles)
                   (SAMPLE(?t) AS ?one)
            WHERE { ?p dblp:venue ?venue . ?p dblp:title ?t . } GROUP BY ?venue""")
        assert len(result) == 2
        for row in result:
            assert ", " in row.get_value("titles").lexical or \
                row.get_value("titles").lexical.startswith("Paper")
            assert row.get_value("one") is not None

    def test_count_on_empty_result(self, numbers_endpoint):
        result = numbers_endpoint.select(PREFIXES + """
            SELECT (COUNT(?p) AS ?n) WHERE { ?p dblp:missing ?x . }""")
        assert result[0].get_value("n").to_python() == 0


def _both(text: str, bindings=None):
    """``text`` evaluated by the interpreter and by the compiled closure."""
    expr = _expr(text)
    solution = Solution(bindings or {})
    interpreted = evaluate_expression(expr, solution, EvaluationContext())
    compiled = compile_expression(expr, EvaluationContext())(solution)
    assert compiled == interpreted
    return interpreted


class TestSubstr:
    """SUBSTR per SPARQL 1.1 §17.4.3.3 (XPath fn:substring positions)."""

    @pytest.mark.parametrize("call,expected", [
        ('SUBSTR("foobar", 4)', Literal("bar")),
        ('SUBSTR("foobar", 4, 1)', Literal("b")),
        ('SUBSTR("foobar", 1)', Literal("foobar")),
        ('SUBSTR("foobar", 7)', Literal("")),
        ('SUBSTR("foobar", 0, 3)', Literal("fo")),
        ('SUBSTR("foobar", -1, 3)', Literal("f")),
        ('SUBSTR("12345", 1.5, 2.6)', Literal("234")),
        ('SUBSTR("foobar", 2, 0)', Literal("")),
        ('SUBSTR("foobar", 3, -1)', Literal("")),
        ('SUBSTR("foo"@en, 1, 1)', Literal("f", language="en")),
        ('SUBSTR("motor car"@en-GB, 6)', Literal(" car", language="en-gb")),
    ])
    def test_positions_and_language(self, call, expected):
        result = _both(call)
        assert result == expected
        assert result.language == expected.language

    def test_non_string_source_is_an_error(self):
        with pytest.raises(QueryError):
            _eval("SUBSTR(12345, 1)")
        with pytest.raises(QueryError):
            _eval("SUBSTR(?x, 1)", {Variable("x"): DBLP["a"]})

    def test_in_a_query(self, numbers_endpoint):
        result = numbers_endpoint.select(PREFIXES + """
            SELECT (SUBSTR(?t, 1, 5) AS ?head) WHERE { ?p dblp:title ?t . }""")
        assert {row.get_value("head") for row in result} == {Literal("Paper")}


class TestLangMatches:
    """langMatches per SPARQL 1.1 §17.4.3.8 (RFC 4647 basic filtering)."""

    @pytest.mark.parametrize("tag,language_range,expected", [
        ("en", "en", True),
        ("en-US", "en", True),
        ("EN-us", "en-US", True),
        ("en", "EN", True),
        ("en", "en-US", False),
        ("english", "en", False),
        ("fr", "en", False),
        ("en", "*", True),
        ("fr-CA", "*", True),
        ("", "*", False),
        ("", "en", False),
    ])
    def test_ranges(self, tag, language_range, expected):
        assert _both(f'LANGMATCHES("{tag}", "{language_range}")') == \
            (TRUE if expected else FALSE)

    def test_with_lang_of_a_literal(self):
        bindings = {Variable("x"): Literal("chat", language="fr-BE")}
        assert _both('langMatches(lang(?x), "FR")', bindings) == TRUE
        assert _both('langMatches(lang(?x), "fr-be")', bindings) == TRUE
        assert _both('langMatches(lang(?x), "de")', bindings) == FALSE

    def test_filter_in_a_query(self):
        graph = Graph()
        for index, language in enumerate(["en", "en-GB", "fr", None]):
            graph.add(DBLP[f"p{index}"], DBLP["title"],
                      Literal(f"t{index}", language=language))
        endpoint = SPARQLEndpoint()
        endpoint.load(graph)
        english = endpoint.select(PREFIXES + """
            SELECT ?t WHERE { ?p dblp:title ?t FILTER(langMatches(lang(?t), "en")) }""")
        assert sorted(row.get_value("t").lexical for row in english) == ["t0", "t1"]
        tagged = endpoint.select(PREFIXES + """
            SELECT ?t WHERE { ?p dblp:title ?t FILTER(langMatches(lang(?t), "*")) }""")
        assert sorted(row.get_value("t").lexical for row in tagged) == ["t0", "t1", "t2"]


HAVING_DATA = [("s1", 1), ("s1", 2), ("s2", 3), ("s3", 4), ("s3", 5), ("s3", 6)]


@pytest.fixture()
def having_graph():
    """?s e:p ?o with s1 -> 2 values, s2 -> 1 value, s3 -> 3 values."""
    graph = Graph()
    for subject, value in HAVING_DATA:
        graph.add(IRI("http://e/" + subject), IRI("http://e/p"), Literal(value))
    return graph


def _having_rows(graph, text):
    """Rows of ``text`` from the engine and from the reference evaluator."""
    endpoint = SPARQLEndpoint()
    endpoint.load(graph)
    query = SPARQLParser(text).parse_query()
    reference = ReferenceQueryEvaluator(graph).evaluate(query)
    out = []
    for result in (endpoint.select(text), reference):
        out.append(sorted(tuple(str(row.get(v)) for v in result.variables)
                          for row in result))
    return out


class TestHaving:
    """HAVING filters groups after grouping, in both evaluators."""

    @pytest.mark.parametrize("modifier,expected", [
        # The group with one value is dropped.
        ("GROUP BY ?s HAVING (COUNT(?o) > 1)",
         [("http://e/s1", "2"), ("http://e/s3", "3")]),
        # Several constraints must all hold.
        ("GROUP BY ?s HAVING (COUNT(?o) > 1) (COUNT(?o) < 3)",
         [("http://e/s1", "2")]),
        # An aggregate that the SELECT does not project.
        ("GROUP BY ?s HAVING (SUM(?o) >= 3 && MIN(?o) != 4)",
         [("http://e/s1", "2"), ("http://e/s2", "1")]),
        # A group key.
        ("GROUP BY ?s HAVING (?s = <http://e/s2>)", [("http://e/s2", "1")]),
        # No group passes.
        ("GROUP BY ?s HAVING (COUNT(?o) > 3)", []),
    ])
    def test_group_by_having(self, having_graph, modifier, expected):
        text = ("SELECT ?s (COUNT(?o) AS ?n) WHERE { ?s <http://e/p> ?o } "
                + modifier)
        for rows in _having_rows(having_graph, text):
            assert rows == expected

    def test_with_prefixed_names(self, having_graph):
        text = ("PREFIX e: <http://e/> SELECT ?s (COUNT(?o) AS ?n) "
                "WHERE { ?s e:p ?o } GROUP BY ?s HAVING (COUNT(?o) > 1)")
        for rows in _having_rows(having_graph, text):
            assert rows == [("http://e/s1", "2"), ("http://e/s3", "3")]

    @pytest.mark.parametrize("bound,expected", [
        (5, [("6",)]),     # the one implicit group passes
        (6, []),           # it is filtered out: no row at all
    ])
    def test_having_without_group_by(self, having_graph, bound, expected):
        text = ("SELECT (COUNT(*) AS ?n) WHERE { ?s <http://e/p> ?o } "
                f"HAVING (COUNT(*) > {bound})")
        for rows in _having_rows(having_graph, text):
            assert rows == expected

    def test_having_inside_a_subselect_under_optional(self, having_graph):
        # The sub-select re-runs per outer row; its HAVING still applies.
        text = ("SELECT ?x ?s WHERE { VALUES ?x { 1 2 } OPTIONAL { { "
                "SELECT ?s WHERE { ?s <http://e/p> ?o } GROUP BY ?s "
                "HAVING (COUNT(?o) = 3) } } }")
        for rows in _having_rows(having_graph, text):
            assert rows == [("1", "http://e/s3"), ("2", "http://e/s3")]
