"""Unit tests for the SPARQL tokenizer."""

import pytest

from repro.exceptions import ParseError
from repro.sparql.tokenizer import Token, tokenize


def kinds(text):
    return [t.kind for t in tokenize(text) if t.kind != "EOF"]


def values(text):
    return [t.value for t in tokenize(text) if t.kind != "EOF"]


class TestTokenizer:
    def test_keywords_case_insensitive(self):
        tokens = tokenize("select Select SELECT")
        assert all(t.is_keyword("SELECT") for t in tokens[:-1])

    def test_variables_both_sigils(self):
        assert kinds("?x $y") == ["VAR", "VAR"]

    def test_iri_and_qname(self):
        assert kinds("<https://x.org/a> dblp:Publication") == ["IRI", "QNAME"]

    def test_qname_with_dots(self):
        tokens = tokenize("sql:UDFS.getNodeClass(?x)")
        assert tokens[0].kind == "QNAME"
        assert tokens[0].value == "sql:UDFS.getNodeClass"

    def test_string_literals(self):
        assert kinds('"hello" \'world\'') == ["STRING", "STRING"]

    def test_langtag_and_datatype(self):
        assert kinds('"x"@en "3"^^xsd:integer') == \
            ["STRING", "LANGTAG", "STRING", "DOUBLE_CARET", "QNAME"]

    def test_numbers(self):
        assert kinds("42 3.14 -7 1e5") == ["NUMBER"] * 4

    def test_operators(self):
        assert values("<= >= != && || = < > + - * /") == \
            ["<=", ">=", "!=", "&&", "||", "=", "<", ">", "+", "-", "*", "/"]

    def test_punctuation(self):
        assert kinds("{ } ( ) . ; ,") == ["PUNCT"] * 7

    def test_comments_skipped(self):
        assert kinds("?x # a comment\n?y") == ["VAR", "VAR"]

    def test_blank_node(self):
        assert kinds("_:b1") == ["BNODE"]

    def test_a_keyword(self):
        tokens = tokenize("?s a ?o")
        assert tokens[1].is_keyword("A")

    def test_names_vs_keywords(self):
        tokens = tokenize("regex bound myFunction")
        assert [t.kind for t in tokens[:-1]] == ["NAME", "NAME", "NAME"]

    def test_line_and_column_tracking(self):
        tokens = tokenize("?x\n  ?y")
        assert tokens[0].line == 1
        assert tokens[1].line == 2
        assert tokens[1].column >= 3

    def test_eof_token_appended(self):
        assert tokenize("?x")[-1].kind == "EOF"

    def test_unexpected_character_raises(self):
        with pytest.raises(ParseError):
            tokenize("?x @@ ?y")

    def test_empty_input(self):
        assert kinds("") == []

    def test_empty_prefix_declaration(self):
        assert kinds("PREFIX : <http://e/>") == ["KEYWORD", "QNAME", "IRI"]
        assert values("PREFIX : <http://e/>")[1] == ":"

    def test_empty_prefix_names(self):
        assert kinds(":a :p ?o") == ["QNAME", "QNAME", "VAR"]
        assert values(":a :p.x :b") == [":a", ":p.x", ":b"]
        assert values("{ :a :p :b . }")[-2:] == [".", "}"]
