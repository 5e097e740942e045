"""Expression evaluation: SPARQL built-in functions and operators.

The evaluator delegates every expression node to :func:`evaluate_expression`.
User-defined functions (the paper's ``sql:UDFS.getNodeClass`` and
``sql:UDFS.getKeyValue``) are resolved through a :class:`UDFRegistry` owned by
the endpoint, which is how KGNet interfaces trained models with the RDF
engine (paper §III-B and §IV-B.3).
"""

from __future__ import annotations

import re
import threading
from typing import Callable, Dict, List, Optional

from repro.exceptions import QueryError, UDFError
from repro.rdf.terms import (
    IRI,
    BNode,
    Literal,
    Term,
    Variable,
    XSD_BOOLEAN,
    XSD_DOUBLE,
    XSD_INTEGER,
    XSD_STRING,
)
from repro.sparql.ast import (
    Aggregate,
    BinaryOp,
    ConstantExpr,
    ExistsExpr,
    Expression,
    FunctionCall,
    InExpr,
    UnaryOp,
    VariableExpr,
)
from repro.sparql.results import Solution

__all__ = [
    "UDFRegistry",
    "EvaluationContext",
    "OpaqueValue",
    "evaluate_expression",
    "effective_boolean_value",
    "term_to_number",
    "TRUE",
    "FALSE",
]

TRUE = Literal("true", datatype=XSD_BOOLEAN)
FALSE = Literal("false", datatype=XSD_BOOLEAN)


class OpaqueValue(Term):
    """A non-RDF Python value flowing through a query as a binding.

    Virtuoso lets UDFs return SQL values (e.g. the dictionary of predicted
    venues built by the inner sub-select of paper Fig 12).  ``OpaqueValue``
    is the equivalent here: it wraps an arbitrary Python object so a later
    UDF (``sql:UDFS.getKeyValue``) can consume it.
    """

    __slots__ = ("value",)
    _sort_rank = 4

    def __init__(self, value: object) -> None:
        object.__setattr__(self, "value", value)

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("OpaqueValue is immutable")

    def n3(self) -> str:
        return f'"<opaque:{type(self.value).__name__}>"'

    def __repr__(self) -> str:
        return f"OpaqueValue({type(self.value).__name__})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, OpaqueValue) and other.value is self.value

    def __hash__(self) -> int:
        return hash(("OpaqueValue", id(self.value)))

    def __reduce__(self):
        return (OpaqueValue, (self.value,))

    def __deepcopy__(self, memo):
        return self

    def __copy__(self):
        return self


class UDFRegistry:
    """Registry of user-defined functions callable from SPARQL expressions.

    Functions are registered under one or more names (their prefixed form,
    e.g. ``sql:UDFS.getNodeClass``, and optionally a bare local name).  Each
    call is counted so the SPARQL-ML query-plan experiments can report the
    number of UDF/HTTP calls each execution plan makes (paper Figs 11-12).
    """

    def __init__(self) -> None:
        self._functions: Dict[str, Callable[..., object]] = {}
        self.call_counts: Dict[str, int] = {}
        # Concurrent queries share one registry through the endpoint; the
        # count increment is read-modify-write and needs the lock.
        self._counts_lock = threading.Lock()

    def register(self, name: str, function: Callable[..., object],
                 aliases: Optional[List[str]] = None) -> None:
        for key in [name] + list(aliases or []):
            self._functions[self._normalise(key)] = function

    def unregister(self, name: str) -> None:
        self._functions.pop(self._normalise(name), None)

    @staticmethod
    def _normalise(name: str) -> str:
        return name.strip().lower()

    def lookup(self, name: str) -> Optional[Callable[..., object]]:
        return self._functions.get(self._normalise(name))

    def __contains__(self, name: str) -> bool:
        return self._normalise(name) in self._functions

    def call(self, name: str, *args: object) -> object:
        function = self.lookup(name)
        if function is None:
            raise UDFError(f"unknown user-defined function {name!r}")
        key = self._normalise(name)
        with self._counts_lock:
            self.call_counts[key] = self.call_counts.get(key, 0) + 1
        return function(*args)

    def total_calls(self, name: Optional[str] = None) -> int:
        if name is not None:
            return self.call_counts.get(self._normalise(name), 0)
        return sum(self.call_counts.values())

    def reset_counts(self) -> None:
        with self._counts_lock:
            self.call_counts.clear()


class EvaluationContext:
    """Everything an expression may need at evaluation time."""

    def __init__(self, udfs: Optional[UDFRegistry] = None,
                 exists_evaluator: Optional[Callable] = None) -> None:
        self.udfs = udfs or UDFRegistry()
        #: Callback used to evaluate EXISTS { ... } sub-patterns; injected by
        #: the query evaluator to avoid a circular import.
        self.exists_evaluator = exists_evaluator
        #: UDF calls made through this context.  One context belongs to one
        #: evaluation, so this counts one query's calls only, unlike the
        #: registry's process-wide ``call_counts``.
        self.udf_calls = 0


# ---------------------------------------------------------------------------
# Value conversions
# ---------------------------------------------------------------------------

def term_to_number(term: Optional[Term]) -> float:
    if isinstance(term, Literal):
        try:
            return float(term.lexical)
        except ValueError as exc:
            raise QueryError(f"literal {term.lexical!r} is not numeric") from exc
    raise QueryError(f"cannot convert {term!r} to a number")


def _make_numeric_literal(value: float) -> Literal:
    if float(value).is_integer():
        return Literal(str(int(value)), datatype=XSD_INTEGER)
    return Literal(repr(float(value)), datatype=XSD_DOUBLE)


def effective_boolean_value(term: Optional[Term]) -> bool:
    """SPARQL effective boolean value (EBV) rules, simplified."""
    if term is None:
        return False
    if isinstance(term, Literal):
        if term.datatype == XSD_BOOLEAN:
            return term.lexical in ("true", "1")
        if term.is_numeric():
            try:
                return float(term.lexical) != 0.0
            except ValueError:
                return False
        return bool(term.lexical)
    # IRIs / blank nodes are errors per spec; treating them as true is the
    # most useful behaviour for this engine.
    return True


def _boolean(value: bool) -> Literal:
    return TRUE if value else FALSE


def _compare(op: str, left: Term, right: Term) -> bool:
    if isinstance(left, Literal) and isinstance(right, Literal) and \
            left.is_numeric() and right.is_numeric():
        lv, rv = float(left.lexical), float(right.lexical)
    elif isinstance(left, Literal) and isinstance(right, Literal):
        lv, rv = left.lexical, right.lexical
    else:
        lv, rv = (left.n3() if left is not None else ""), (right.n3() if right is not None else "")
    if op == "=":
        if isinstance(left, Literal) and isinstance(right, Literal) and \
                left.is_numeric() and right.is_numeric():
            return float(left.lexical) == float(right.lexical)
        return left == right
    if op == "!=":
        return not _compare("=", left, right)
    if op == "<":
        return lv < rv
    if op == "<=":
        return lv <= rv
    if op == ">":
        return lv > rv
    if op == ">=":
        return lv >= rv
    raise QueryError(f"unknown comparison operator {op!r}")


# ---------------------------------------------------------------------------
# Built-in function implementations
# ---------------------------------------------------------------------------

def _builtin_str(args: List[Optional[Term]]) -> Term:
    term = args[0]
    if isinstance(term, Literal):
        return Literal(term.lexical)
    if isinstance(term, IRI):
        return Literal(term.value)
    if term is None:
        raise QueryError("STR() of an unbound value")
    return Literal(term.n3())


def _builtin_regex(args: List[Optional[Term]]) -> Term:
    text = args[0]
    pattern = args[1]
    flags_term = args[2] if len(args) > 2 else None
    if not isinstance(text, Literal) or not isinstance(pattern, Literal):
        return FALSE
    flags = 0
    if isinstance(flags_term, Literal) and "i" in flags_term.lexical:
        flags |= re.IGNORECASE
    return _boolean(re.search(pattern.lexical, text.lexical, flags) is not None)


_BUILTINS: Dict[str, Callable[[List[Optional[Term]]], Term]] = {
    "STR": _builtin_str,
    "REGEX": _builtin_regex,
    "UCASE": lambda args: Literal(str(args[0]).upper()),
    "LCASE": lambda args: Literal(str(args[0]).lower()),
    "STRLEN": lambda args: Literal(len(str(args[0]))),
    "CONTAINS": lambda args: _boolean(str(args[1]) in str(args[0])),
    "STRSTARTS": lambda args: _boolean(str(args[0]).startswith(str(args[1]))),
    "STRENDS": lambda args: _boolean(str(args[0]).endswith(str(args[1]))),
    "CONCAT": lambda args: Literal("".join(str(a) for a in args)),
    "ABS": lambda args: _make_numeric_literal(abs(term_to_number(args[0]))),
    "CEIL": lambda args: _make_numeric_literal(float(__import__("math").ceil(term_to_number(args[0])))),
    "FLOOR": lambda args: _make_numeric_literal(float(__import__("math").floor(term_to_number(args[0])))),
    "ROUND": lambda args: _make_numeric_literal(float(round(term_to_number(args[0])))),
    "ISIRI": lambda args: _boolean(isinstance(args[0], IRI)),
    "ISURI": lambda args: _boolean(isinstance(args[0], IRI)),
    "ISLITERAL": lambda args: _boolean(isinstance(args[0], Literal)),
    "ISBLANK": lambda args: _boolean(isinstance(args[0], BNode)),
    "ISNUMERIC": lambda args: _boolean(isinstance(args[0], Literal) and args[0].is_numeric()),
    "DATATYPE": lambda args: args[0].datatype if isinstance(args[0], Literal) else IRI("urn:error"),
    "LANG": lambda args: Literal(args[0].language or "") if isinstance(args[0], Literal) else Literal(""),
    "IRI": lambda args: IRI(str(args[0])),
    "URI": lambda args: IRI(str(args[0])),
    "XSD_INTEGER_CAST": lambda args: Literal(int(float(str(args[0])))),
}


# ---------------------------------------------------------------------------
# Expression evaluation
# ---------------------------------------------------------------------------

def evaluate_expression(expr: Expression, solution: Solution,
                        context: Optional[EvaluationContext] = None) -> Optional[Term]:
    """Evaluate ``expr`` against ``solution``; returns None for unbound errors."""
    context = context or EvaluationContext()

    if isinstance(expr, ConstantExpr):
        return expr.value

    if isinstance(expr, VariableExpr):
        return solution.get(expr.variable)

    if isinstance(expr, UnaryOp):
        value = evaluate_expression(expr.operand, solution, context)
        if expr.op == "!":
            return _boolean(not effective_boolean_value(value))
        number = term_to_number(value)
        return _make_numeric_literal(-number if expr.op == "-" else number)

    if isinstance(expr, BinaryOp):
        if expr.op == "&&":
            left = evaluate_expression(expr.left, solution, context)
            if not effective_boolean_value(left):
                return FALSE
            right = evaluate_expression(expr.right, solution, context)
            return _boolean(effective_boolean_value(right))
        if expr.op == "||":
            left = evaluate_expression(expr.left, solution, context)
            if effective_boolean_value(left):
                return TRUE
            right = evaluate_expression(expr.right, solution, context)
            return _boolean(effective_boolean_value(right))
        left = evaluate_expression(expr.left, solution, context)
        right = evaluate_expression(expr.right, solution, context)
        if expr.op in ("=", "!=", "<", "<=", ">", ">="):
            if left is None or right is None:
                return FALSE
            return _boolean(_compare(expr.op, left, right))
        lv, rv = term_to_number(left), term_to_number(right)
        if expr.op == "+":
            return _make_numeric_literal(lv + rv)
        if expr.op == "-":
            return _make_numeric_literal(lv - rv)
        if expr.op == "*":
            return _make_numeric_literal(lv * rv)
        if expr.op == "/":
            if rv == 0:
                raise QueryError("division by zero in FILTER expression")
            return _make_numeric_literal(lv / rv)
        raise QueryError(f"unknown operator {expr.op!r}")

    if isinstance(expr, InExpr):
        value = evaluate_expression(expr.operand, solution, context)
        members = [evaluate_expression(choice, solution, context) for choice in expr.choices]
        found = any(value is not None and member is not None and
                    _compare("=", value, member) for member in members)
        return _boolean(found != expr.negated)

    if isinstance(expr, ExistsExpr):
        if context.exists_evaluator is None:
            raise QueryError("EXISTS is not available in this context")
        exists = context.exists_evaluator(expr.pattern, solution)
        return _boolean(exists != expr.negated)

    if isinstance(expr, Aggregate):
        raise QueryError("aggregate used outside GROUP BY evaluation")

    if isinstance(expr, FunctionCall):
        name = expr.name.upper()
        if name == "BOUND":
            inner = expr.args[0]
            if not isinstance(inner, VariableExpr):
                raise QueryError("BOUND expects a variable")
            return _boolean(inner.variable in solution)
        if name in ("IF",):
            condition = evaluate_expression(expr.args[0], solution, context)
            branch = expr.args[1] if effective_boolean_value(condition) else expr.args[2]
            return evaluate_expression(branch, solution, context)
        if name == "COALESCE":
            for arg in expr.args:
                value = evaluate_expression(arg, solution, context)
                if value is not None:
                    return value
            return None
        args = [evaluate_expression(arg, solution, context) for arg in expr.args]
        if name in _BUILTINS:
            return _BUILTINS[name](args)
        # Fall back to user-defined functions registered with the endpoint.
        if expr.name in context.udfs:
            context.udf_calls += 1
            result = context.udfs.call(expr.name, *args)
            return _coerce_udf_result(result)
        raise UDFError(f"unknown function {expr.name!r}")

    raise QueryError(f"cannot evaluate expression node {type(expr).__name__}")


def _coerce_udf_result(result: object) -> Optional[Term]:
    """Coerce a UDF return value into an RDF term (dicts become literals)."""
    if result is None:
        return None
    if isinstance(result, Term):
        return result
    if isinstance(result, bool):
        return _boolean(result)
    if isinstance(result, (int, float)):
        return _make_numeric_literal(float(result))
    if isinstance(result, str):
        if result.startswith(("http://", "https://", "urn:")):
            try:
                return IRI(result)
            except Exception:
                # Not a single well-formed IRI (e.g. a comma-joined top-k
                # list from getTopKLinks): keep it as a plain literal.
                return Literal(result)
        return Literal(result)
    if isinstance(result, (dict, list, tuple, set)):
        # Dictionaries (e.g. the venue dictionary of Fig 12) flow through the
        # query as opaque values so a later UDF (getKeyValue) can consume them.
        return OpaqueValue(result)
    return Literal(str(result))
