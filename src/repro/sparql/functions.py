"""Expression evaluation: SPARQL built-in functions and operators.

Two implementations of the same semantics live here.
:func:`compile_expression` resolves an expression tree once into nested
closures; the query evaluator compiles each expression site once per
evaluation and calls the closure per row.  :func:`evaluate_expression` walks
the tree per call; the frozen reference evaluator uses it, so the two stay
independent implementations that the differential tests compare.
User-defined functions (the paper's ``sql:UDFS.getNodeClass`` and
``sql:UDFS.getKeyValue``) are resolved through a :class:`UDFRegistry` owned by
the endpoint, which is how KGNet interfaces trained models with the RDF
engine (paper §III-B and §IV-B.3).
"""

from __future__ import annotations

import math
import re
import threading
from typing import Callable, Dict, List, Optional, Sequence

from repro.exceptions import QueryError, UDFError
from repro.rdf.terms import (
    IRI,
    BNode,
    Literal,
    RDF_LANGSTRING,
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
    "CompiledExpression",
    "compile_expression",
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

    def resolve(self, name: str) -> Optional[Callable[..., object]]:
        """``name`` resolved once: a callable that counts each call, or None.

        The name is normalised and looked up here, so a caller that invokes
        the result per row pays neither again.
        """
        key = self._normalise(name)
        function = self._functions.get(key)
        if function is None:
            return None
        counts = self.call_counts
        lock = self._counts_lock

        def counted(*args: object) -> object:
            with lock:
                counts[key] = counts.get(key, 0) + 1
            return function(*args)

        return counted

    def call(self, name: str, *args: object) -> object:
        function = self.resolve(name)
        if function is None:
            raise UDFError(f"unknown user-defined function {name!r}")
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


def _string_literal(term: Optional[Term], function: str) -> Literal:
    if isinstance(term, Literal) and term.datatype in (XSD_STRING, RDF_LANGSTRING):
        return term
    raise QueryError(f"{function}() expects a string literal, got {term!r}")


def _xpath_round(value: float) -> float:
    """``fn:round``: halves round towards positive infinity."""
    return float(math.floor(value + 0.5)) if math.isfinite(value) else value


def _builtin_substr(args: List[Optional[Term]]) -> Term:
    """``SUBSTR(source, start[, length])`` per SPARQL 1.1 §17.4.3.3.

    Positions are 1-based and follow XPath ``fn:substring``: the result
    keeps the characters at positions ``p`` with ``round(start) <= p <
    round(start) + round(length)``.  The language tag is kept.
    """
    source = _string_literal(args[0], "SUBSTR")
    start = _xpath_round(term_to_number(args[1]))
    end = start + _xpath_round(term_to_number(args[2])) if len(args) > 2 else math.inf
    text = "".join(char for position, char in enumerate(source.lexical, 1)
                   if start <= position < end)
    return Literal(text, language=source.language)


def _builtin_langmatches(args: List[Optional[Term]]) -> Term:
    """``langMatches(tag, range)`` per SPARQL 1.1 §17.4.3.8.

    RFC 4647 basic filtering, case-insensitive: ``"*"`` matches every
    non-empty tag; any other range matches the tag itself and the tags that
    extend it with a ``-`` subtag.
    """
    tag = _string_literal(args[0], "LANGMATCHES").lexical.lower()
    language_range = _string_literal(args[1], "LANGMATCHES").lexical.lower()
    if language_range == "*":
        return _boolean(tag != "")
    return _boolean(tag == language_range or tag.startswith(language_range + "-"))


_BUILTINS: Dict[str, Callable[[List[Optional[Term]]], Term]] = {
    "STR": _builtin_str,
    "REGEX": _builtin_regex,
    "SUBSTR": _builtin_substr,
    "LANGMATCHES": _builtin_langmatches,
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


# ---------------------------------------------------------------------------
# Expression compilation
# ---------------------------------------------------------------------------

#: A compiled expression: one solution in, its value (None when unbound) out.
CompiledExpression = Callable[[Solution], Optional[Term]]

_COMPARISONS = frozenset(("=", "!=", "<", "<=", ">", ">="))


def compile_expression(expr: Expression,
                       context: Optional[EvaluationContext] = None
                       ) -> CompiledExpression:
    """Resolve ``expr`` once into nested closures over a solution.

    The result computes what :func:`evaluate_expression` computes, call for
    call: the same short-circuiting, the same UDF calls (counted in
    ``context.udf_calls`` and the registry's ``call_counts``) and the same
    typed errors, raised when the closure runs rather than here, so an
    expression over zero rows never fails.  Function names are resolved
    here instead of per row.  A UDF call site coerces string results
    through a memo it owns, so the memo lives as long as the closure.
    """
    return _compile(expr, context or EvaluationContext())


def _raising(make_error: Callable[[], Exception],
             operands: Sequence[CompiledExpression] = ()) -> CompiledExpression:
    """A closure that evaluates ``operands`` (for their side effects) and raises."""
    def fail(solution: Solution) -> Optional[Term]:
        for operand in operands:
            operand(solution)
        raise make_error()
    return fail


def _compile(expr: Expression, context: EvaluationContext) -> CompiledExpression:
    if isinstance(expr, ConstantExpr):
        constant = expr.value
        return lambda solution: constant
    if isinstance(expr, VariableExpr):
        variable = expr.variable
        return lambda solution: solution.get(variable)
    if isinstance(expr, UnaryOp):
        return _compile_unary(expr, context)
    if isinstance(expr, BinaryOp):
        return _compile_binary(expr, context)
    if isinstance(expr, InExpr):
        return _compile_in(expr, context)
    if isinstance(expr, ExistsExpr):
        return _compile_exists(expr, context)
    if isinstance(expr, Aggregate):
        return _raising(lambda: QueryError("aggregate used outside GROUP BY evaluation"))
    if isinstance(expr, FunctionCall):
        return _compile_call(expr, context)
    node = type(expr).__name__
    return _raising(lambda: QueryError(f"cannot evaluate expression node {node}"))


def _compile_unary(expr: UnaryOp, context: EvaluationContext) -> CompiledExpression:
    operand = _compile(expr.operand, context)
    if expr.op == "!":
        return lambda solution: FALSE if effective_boolean_value(operand(solution)) else TRUE
    negate = expr.op == "-"

    def numeric(solution: Solution) -> Optional[Term]:
        number = term_to_number(operand(solution))
        return _make_numeric_literal(-number if negate else number)
    return numeric


def _compile_binary(expr: BinaryOp, context: EvaluationContext) -> CompiledExpression:
    op = expr.op
    left = _compile(expr.left, context)
    right = _compile(expr.right, context)
    if op == "&&":
        def conjunction(solution: Solution) -> Optional[Term]:
            if not effective_boolean_value(left(solution)):
                return FALSE
            return TRUE if effective_boolean_value(right(solution)) else FALSE
        return conjunction
    if op == "||":
        def disjunction(solution: Solution) -> Optional[Term]:
            if effective_boolean_value(left(solution)):
                return TRUE
            return TRUE if effective_boolean_value(right(solution)) else FALSE
        return disjunction
    if op in _COMPARISONS:
        def comparison(solution: Solution) -> Optional[Term]:
            left_value = left(solution)
            right_value = right(solution)
            if left_value is None or right_value is None:
                return FALSE
            return TRUE if _compare(op, left_value, right_value) else FALSE
        return comparison

    def arithmetic(solution: Solution) -> Optional[Term]:
        left_value = left(solution)
        right_value = right(solution)
        lv, rv = term_to_number(left_value), term_to_number(right_value)
        if op == "+":
            return _make_numeric_literal(lv + rv)
        if op == "-":
            return _make_numeric_literal(lv - rv)
        if op == "*":
            return _make_numeric_literal(lv * rv)
        if op == "/":
            if rv == 0:
                raise QueryError("division by zero in FILTER expression")
            return _make_numeric_literal(lv / rv)
        raise QueryError(f"unknown operator {op!r}")
    return arithmetic


def _compile_in(expr: InExpr, context: EvaluationContext) -> CompiledExpression:
    operand = _compile(expr.operand, context)
    choices = tuple(_compile(choice, context) for choice in expr.choices)
    negated = expr.negated

    def membership(solution: Solution) -> Optional[Term]:
        value = operand(solution)
        members = [choice(solution) for choice in choices]
        found = value is not None and any(
            member is not None and _compare("=", value, member)
            for member in members)
        return _boolean(found != negated)
    return membership


def _compile_exists(expr: ExistsExpr, context: EvaluationContext) -> CompiledExpression:
    pattern = expr.pattern
    negated = expr.negated

    def exists(solution: Solution) -> Optional[Term]:
        if context.exists_evaluator is None:
            raise QueryError("EXISTS is not available in this context")
        return _boolean(context.exists_evaluator(pattern, solution) != negated)
    return exists


def _compile_call(expr: FunctionCall, context: EvaluationContext) -> CompiledExpression:
    name = expr.name.upper()
    if name == "BOUND":
        inner = expr.args[0] if expr.args else None
        if not isinstance(inner, VariableExpr):
            return _raising(lambda: QueryError("BOUND expects a variable"))
        variable = inner.variable
        return lambda solution: TRUE if variable in solution else FALSE
    args = tuple(_compile(arg, context) for arg in expr.args)
    if name == "IF":
        def conditional(solution: Solution) -> Optional[Term]:
            branch = args[1] if effective_boolean_value(args[0](solution)) else args[2]
            return branch(solution)
        return conditional
    if name == "COALESCE":
        def coalesce(solution: Solution) -> Optional[Term]:
            for arg in args:
                value = arg(solution)
                if value is not None:
                    return value
            return None
        return coalesce
    builtin = _BUILTINS.get(name)
    if builtin is not None:
        return lambda solution: builtin([arg(solution) for arg in args])
    function = context.udfs.resolve(expr.name)
    if function is None:
        unknown = expr.name
        return _raising(lambda: UDFError(f"unknown function {unknown!r}"), args)
    coerced: Dict[str, Optional[Term]] = {}

    def call_udf(solution: Solution) -> Optional[Term]:
        values = [arg(solution) for arg in args]
        context.udf_calls += 1
        result = function(*values)
        if type(result) is str:
            term = coerced.get(result)
            if term is None:
                term = coerced[result] = _coerce_udf_result(result)
            return term
        return _coerce_udf_result(result)
    return call_udf


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
