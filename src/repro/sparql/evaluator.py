"""SPARQL query and update evaluation over :class:`repro.rdf.graph.Graph`.

The evaluator runs basic graph patterns as a *streaming, dictionary-encoded
pipeline*: every BGP is compiled once (constants interned to integer ids,
variables assigned dense slots, patterns greedily reordered by maintained
cardinality statistics) and then evaluated as a chain of index-nested-loop
scan/join generators over id-space bindings — the shape of the Sage engine's
``ScanIterator`` / ``IndexJoinIterator`` pipeline.  Ids are decoded back to
:class:`~repro.rdf.terms.Term` objects only when a fully-joined row leaves
the BGP, so intermediate results are integer slot arrays instead of per-row
``Solution`` dictionaries.

Group-level operators (FILTER / OPTIONAL / UNION / MINUS / BIND / VALUES /
sub-SELECT) are lazy generators as well, which lets LIMIT, ASK and EXISTS
stop consuming the pipeline as soon as they have what they need.  Grouping
and ORDER BY materialize, as they must.

Compiled BGPs can be cached across executions through a :class:`QueryPlan`
(the endpoint's plan cache stores one per query text); a plan transparently
recompiles itself when the graph object or its mutation epoch changes.

Every operator cooperates with an optional per-query
:class:`~repro.sparql.execution.ExecutionContext`: the hot join loops tick an
amortised checkpoint (one call per 256 iterations, so preemptability costs
the happy path almost nothing) and every other operator checkpoints per row,
letting a deadline, cancellation event, or work budget stop a hostile query
with a typed :class:`~repro.exceptions.QueryInterrupted` subclass.
:meth:`QueryEvaluator.stream_select` exposes the SELECT pipeline *lazily*
(variables + unconsumed row iterator) so the scheduler can suspend and resume
consumption mid-query without losing cursor state.
"""

from __future__ import annotations

import threading
import weakref
from collections import OrderedDict
from itertools import islice
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.exceptions import QueryError, UpdateError
from repro.rdf.dataset import Dataset
from repro.rdf.graph import Graph
from repro.rdf.terms import (
    IRI,
    BNode,
    Literal,
    Term,
    Triple,
    Variable,
    XSD_DOUBLE,
    XSD_INTEGER,
)
from repro.sparql.ast import (
    Aggregate,
    AlternativePath,
    AskQuery,
    BGP,
    BindPattern,
    BinaryOp,
    ClearUpdate,
    ClosurePattern,
    ConstructQuery,
    DeleteDataUpdate,
    Expression,
    FilterPattern,
    FunctionCall,
    GroupPattern,
    InExpr,
    InsertDataUpdate,
    InversePath,
    LinkPath,
    MinusPattern,
    ModifyUpdate,
    MulPath,
    NegatedPath,
    NegatedPathPattern,
    OptionalPattern,
    PathPattern,
    Query,
    SelectItem,
    SelectQuery,
    SequencePath,
    SubSelectPattern,
    TriplePattern,
    UnaryOp,
    UnionPattern,
    Update,
    ValuesPattern,
    VariableExpr,
)
from repro.sparql.execution import ExecutionContext
from repro.sparql.optimizer import (
    estimate_pattern_cardinality,
    reorder_group_elements,
    reorder_patterns,
)
from repro.sparql.paths import invert_path, normalize_path, rewrite_path_pattern
from repro.sparql.functions import (
    CompiledExpression,
    EvaluationContext,
    UDFRegistry,
    compile_expression,
    effective_boolean_value,
)
from repro.sparql.results import ResultSet, Solution

# ``reorder_patterns`` / ``estimate_pattern_cardinality`` grew up here and
# moved to :mod:`repro.sparql.optimizer`; they stay re-exported for the
# existing import sites.
__all__ = ["QueryEvaluator", "QueryPlan", "reorder_patterns",
           "estimate_pattern_cardinality"]


# ---------------------------------------------------------------------------
# Compiled BGPs and cached plans
# ---------------------------------------------------------------------------

class _CompiledBGP:
    """A BGP compiled to id space.

    ``specs`` holds one ``((s_const, s_slot), (p_const, p_slot),
    (o_const, o_slot))`` entry per kept (reordered) triple pattern, where
    exactly one of ``const`` (an interned term id) and ``slot`` (a variable
    slot index) is set per component.  ``empty`` marks a BGP containing a
    constant the dictionary has never interned — it cannot match anything.

    ``intersectors`` runs parallel to ``specs``: each entry is a tuple of
    ``(spec, unbound_position)`` pairs for patterns *folded out* of the
    backtracking join by :func:`_fold_intersectors` — enforced batch-at-a-
    time as id-set intersections at the level that binds their join
    variable, instead of one nested-loop level per pattern.  ``var_slots``
    still covers every variable of the original BGP (folded patterns never
    introduce new variables), so emitted rows are unchanged.
    """

    __slots__ = ("specs", "var_slots", "slot_vars", "num_slots", "empty",
                 "intersectors")

    def __init__(self, specs, var_slots: Dict[Variable, int], empty: bool,
                 intersectors=None) -> None:
        self.specs = specs
        self.var_slots = var_slots
        self.slot_vars = tuple(var_slots)  # slot index -> Variable
        self.num_slots = len(var_slots)
        self.empty = empty
        self.intersectors = (intersectors if intersectors is not None
                             else ((),) * len(specs))


def _fold_intersectors(specs):
    """Fold single-join-variable patterns into the level binding them.

    A pattern whose components are all bound by earlier levels — except a
    *join* variable ``v`` appearing exactly once — contributes no new
    bindings and at most one match per candidate value of ``v``: it is a
    membership test, not a scan.  Instead of spending a backtracking level
    probing it once per candidate, fold it into the level that binds ``v``:
    when that level enumerates candidates off one index set, every folded
    pattern narrows the whole set with a single C-level ``set & set``
    intersection (the canonical win is a star join: ``?s p1 o1 . ?s p2 o2 .
    ?s p3 ?name`` runs one scan plus one intersection, not a nested loop).

    Returns ``(kept_specs, intersectors)``, ``intersectors[i]`` being the
    ``(spec, unbound_position)`` pairs enforced at kept level ``i``.
    Multiset semantics are preserved exactly: a folded pattern's multiplicity
    per candidate is one (all other components ground), which is what set
    membership encodes.  Folding only considers *static* bindings — a level
    whose join variable arrives pre-bound at runtime (seeded input solution)
    degenerates to ground containment probes, handled by the runtime.
    """
    bound = set()            # slots statically bound by kept levels
    level_of_slot = {}       # slot -> kept level that first binds it
    target_slot = {}         # kept level -> its single new slot, if any
    kept = []
    intersectors = []
    for spec in specs:
        positions = [(index, slot) for index, (_, slot) in enumerate(spec)
                     if slot is not None]
        new = {slot for _, slot in positions if slot not in bound}
        if not new and positions:
            # Every variable already bound upstream: fold into the level
            # that binds the last of them, if that level enumerates exactly
            # that one variable (and it appears here exactly once — a
            # repeated variable needs the per-triple compatibility check).
            latest = max(level_of_slot[slot] for _, slot in positions)
            v = target_slot.get(latest)
            v_positions = [index for index, slot in positions if slot == v]
            if v is not None and len(v_positions) == 1:
                intersectors[latest] = intersectors[latest] + (
                    (spec, v_positions[0]),)
                continue
        level = len(kept)
        kept.append(spec)
        intersectors.append(())
        for _, slot in positions:
            if slot not in bound:
                bound.add(slot)
                level_of_slot[slot] = level
        if len(new) == 1:
            v = next(iter(new))
            if sum(1 for _, slot in positions if slot == v) == 1:
                target_slot[level] = v
    return kept, intersectors


def _compile_step(graph: Graph, path):
    """Compile a (normalized) path into an id-space successor function.

    The returned callable maps ``(node_id, tick)`` to an iterable of
    successor ids — one application of the path.  ``tick`` is the caller's
    amortised checkpoint hook; composite steps forward it into their inner
    loops so even a nested closure stays preemptable.  Constants the
    dictionary has never interned simply yield no successors.
    """
    lookup = graph.dictionary.lookup
    if isinstance(path, LinkPath):
        pid = lookup(path.iri)
        if pid is None:
            return lambda node, tick: ()
        object_ids = graph.object_ids
        return lambda node, tick: object_ids(node, pid)
    if isinstance(path, InversePath):
        inner = path.path
        if isinstance(inner, NegatedPath):
            # ^!(...) traverses the negated set's matching edges in reverse;
            # member-set swapping cannot express this (``!()`` matches every
            # forward edge, so ``^!()`` must match every reversed edge).
            forward_ids = {lookup(iri) for iri in inner.forward}
            forward_ids.discard(None)
            inverse_ids = {lookup(iri) for iri in inner.inverse}
            inverse_ids.discard(None)
            match_forward = inner.match_forward
            match_inverse = inner.match_inverse
            triples_ids = graph.triples_ids

            def inverse_negated_step(node, tick):
                out = set()
                if match_forward:
                    for subject, predicate, _ in triples_ids(None, None, node):
                        tick()
                        if predicate not in forward_ids:
                            out.add(subject)
                if match_inverse:
                    for _, predicate, obj in triples_ids(node, None, None):
                        tick()
                        if predicate not in inverse_ids:
                            out.add(obj)
                return out

            return inverse_negated_step
        if not isinstance(inner, LinkPath):  # pragma: no cover - normalize_path
            return _compile_step(graph, normalize_path(path))
        pid = lookup(inner.iri)
        if pid is None:
            return lambda node, tick: ()
        subject_ids = graph.subject_ids
        return lambda node, tick: subject_ids(pid, node)
    if isinstance(path, SequencePath):
        steps = [_compile_step(graph, step) for step in path.steps]

        def seq_step(node, tick):
            frontier = {node}
            for step in steps:
                successors = set()
                for member in frontier:
                    tick()
                    successors.update(step(member, tick))
                frontier = successors
                if not frontier:
                    break
            return frontier

        return seq_step
    if isinstance(path, AlternativePath):
        branches = [_compile_step(graph, alt) for alt in path.alternatives]

        def alt_step(node, tick):
            out = set()
            for branch in branches:
                out.update(branch(node, tick))
            return out

        return alt_step
    if isinstance(path, MulPath):
        inner = _compile_step(graph, path.path)
        modifier = path.modifier

        def mul_step(node, tick):
            out = set()
            if modifier in ("*", "?"):
                out.add(node)
            if modifier == "?":
                out.update(inner(node, tick))
                return out
            seen = set()
            frontier = [node]
            while frontier:
                next_frontier = []
                for member in frontier:
                    tick()
                    for successor in inner(member, tick):
                        if successor not in seen:
                            seen.add(successor)
                            next_frontier.append(successor)
                frontier = next_frontier
            out.update(seen)
            return out

        return mul_step
    if isinstance(path, NegatedPath):
        forward_ids = {lookup(iri) for iri in path.forward}
        forward_ids.discard(None)
        inverse_ids = {lookup(iri) for iri in path.inverse}
        inverse_ids.discard(None)
        match_forward = path.match_forward
        match_inverse = path.match_inverse
        triples_ids = graph.triples_ids

        def negated_step(node, tick):
            out = set()
            if match_forward:
                for _, predicate, obj in triples_ids(node, None, None):
                    tick()
                    if predicate not in forward_ids:
                        out.add(obj)
            if match_inverse:
                for subject, predicate, _ in triples_ids(None, None, node):
                    tick()
                    if predicate not in inverse_ids:
                        out.add(subject)
            return out

        return negated_step
    raise QueryError(f"unsupported path expression {type(path).__name__}")


class _CompiledClosure:
    """A ``*``/``+``/``?`` closure compiled to id-space step functions.

    ``forward`` applies the inner path once subject→object; ``backward``
    applies the structural inverse (used when only the object endpoint is
    bound, so the BFS can run object→subject over the POS index instead of
    enumerating the node universe).
    """

    __slots__ = ("forward", "backward")

    def __init__(self, graph: Graph, element: ClosurePattern) -> None:
        path = normalize_path(element.path)
        self.forward = _compile_step(graph, path)
        self.backward = _compile_step(graph, normalize_path(invert_path(path)))


class _CompiledNegated:
    """A negated property set compiled to excluded-predicate id sets."""

    __slots__ = ("forward_ids", "inverse_ids", "match_forward", "match_inverse")

    def __init__(self, graph: Graph, element: NegatedPathPattern) -> None:
        lookup = graph.dictionary.lookup
        path = element.path
        self.forward_ids = {lookup(iri) for iri in path.forward}
        self.forward_ids.discard(None)
        self.inverse_ids = {lookup(iri) for iri in path.inverse}
        self.inverse_ids.discard(None)
        self.match_forward = path.match_forward
        self.match_inverse = path.match_inverse


class _PlanState:
    """Compiled artifacts bound to one (graph identity, epoch, statistics
    epoch, optimize flag) target: compiled BGPs/closures/negated sets and
    cost-ordered group element lists."""

    __slots__ = ("graph_ref", "compiled")

    def __init__(self, graph: Graph) -> None:
        self.graph_ref = weakref.ref(graph)
        self.compiled: Dict[int, _CompiledBGP] = {}


class QueryPlan:
    """Reusable compilation state for one parsed query.

    Maps BGP nodes (by identity — the plan lives next to its AST in the
    endpoint's cache) to their compiled form, *per evaluation target*:
    :meth:`state_for` hands each evaluator the compiled-BGP store bound to
    its exact (graph object, mutation epoch, join-optimization flag), so a
    cached plan can never serve ids or join orders compiled under different
    conditions.

    Keying by target makes the plan safe under concurrency: two readers
    evaluating the same cached query against *different* pinned snapshots
    (e.g. across a writer's commit) get independent compiled state instead
    of clobbering one shared dict — the stale-plan race the differential
    concurrency suite checks for.  Graphs are held via weakref and verified
    by identity, so a recycled ``id()`` can never alias a dead graph's
    compiled ids.  A handful of states is retained LRU-style; with per-epoch
    snapshot caching the steady state is one live entry per target graph.
    """

    __slots__ = ("_lock", "_states")

    #: Retained (graph, epoch, flag) states; evicted oldest-first.
    MAX_STATES = 4

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._states: "OrderedDict[Tuple, _PlanState]" = OrderedDict()

    def state_for(self, graph: Graph, optimize_joins: bool) -> _PlanState:
        """The compiled-BGP store for exactly this graph object and epoch.

        The key also carries the graph's *statistics epoch*: cost-based
        join orders are a function of the optimizer statistics, so a
        statistics refresh must invalidate cached orderings even if it were
        ever decoupled from the triple-set mutation counter.
        """
        key = (id(graph), graph.epoch,
               getattr(graph, "stats_epoch", None), optimize_joins)
        with self._lock:
            state = self._states.get(key)
            if state is not None and state.graph_ref() is graph:
                self._states.move_to_end(key)
                return state
            state = _PlanState(graph)
            self._states[key] = state
            self._states.move_to_end(key)
            while len(self._states) > self.MAX_STATES:
                self._states.popitem(last=False)
            return state


# ---------------------------------------------------------------------------
# The evaluator
# ---------------------------------------------------------------------------

class QueryEvaluator:
    """Evaluates parsed SPARQL queries against a graph (or dataset)."""

    def __init__(self, graph: Graph, udfs: Optional[UDFRegistry] = None,
                 optimize_joins: bool = True,
                 plan: Optional[QueryPlan] = None,
                 execution: Optional[ExecutionContext] = None) -> None:
        self.graph = graph
        self.udfs = udfs or UDFRegistry()
        self.optimize_joins = optimize_joins
        self.plan = plan
        #: Cooperative-interruption state; ``None`` runs unguarded (the
        #: legacy embedded path pays zero per-row overhead).
        self.execution = execution
        #: Resolved lazily on first BGP: the plan's compiled store for this
        #: exact (graph, epoch) target.
        self._plan_state: Optional[Dict[int, _CompiledBGP]] = None
        # The context reaches this evaluator only through a weak proxy.  A
        # bound method would close a cycle (evaluator -> compiled closures
        # -> context -> evaluator), so every query's closures would wait for
        # the cyclic garbage collector instead of being freed on return, and
        # their count would move the collector's schedule under other work.
        evaluator = weakref.proxy(self)
        self.context = EvaluationContext(
            udfs=self.udfs,
            exists_evaluator=lambda pattern, solution:
                evaluator._evaluate_exists(pattern, solution))
        #: Compiled expression sites, keyed by the AST node's identity.  The
        #: node is kept alive beside its closure so its id cannot be reused.
        #: A FILTER inside OPTIONAL or EXISTS re-enters its group once per
        #: outer row; this table keeps it compiled once per evaluation (the
        #: endpoint builds one evaluator per evaluation).
        self._sites: Dict[int, Tuple[Expression, Callable]] = {}
        #: Number of triple-pattern index lookups performed (for benchmarks).
        self.pattern_lookups = 0

    # -- public API ---------------------------------------------------------
    def evaluate(self, query: Query):
        if isinstance(query, SelectQuery):
            return self.evaluate_select(query)
        if isinstance(query, AskQuery):
            return self.evaluate_ask(query)
        if isinstance(query, ConstructQuery):
            return self.evaluate_construct(query)
        raise QueryError(f"unsupported query type {type(query).__name__}")

    def evaluate_select(self, query: SelectQuery) -> ResultSet:
        variables, solutions = self.stream_select(query)
        return ResultSet(variables, solutions)

    def stream_select(self, query: SelectQuery
                      ) -> Tuple[List[Variable], Iterator[Solution]]:
        """Evaluate a SELECT lazily: ``(variables, unconsumed row iterator)``.

        The returned iterator is the suspension point for time-sliced
        scheduling: the consumer can stop pulling rows mid-query and resume
        later with all generator cursor state intact.  Materialising
        operators (GROUP BY / aggregates / ORDER BY / SELECT ``*``) cannot
        be sliced — they drain their input eagerly when the iterator is
        first pulled, under the execution context's deadline/cancellation
        checkpoints.
        """
        project_hint = self._projection_hint(query)
        if project_hint is not None:
            # Single-BGP bare-variable SELECT: the join emits rows that
            # already carry exactly the projected variables, so the
            # projection step below reduces to an identity pass.
            solutions: Iterable[Solution] = self._stream_bgp(
                query.where.elements[0], iter((Solution(),)),
                project=project_hint)
        else:
            solutions = self._evaluate_group(query.where, iter((Solution(),)))
        # One guarded checkpoint per row leaving the lazy pattern pipeline:
        # everything downstream (grouping, sort, projection) inherits
        # interruptibility from it while it drains.
        solutions = self._guard(solutions)
        solutions = self._apply_grouping(query, solutions)
        solutions = self._apply_order(query, solutions)
        variables, solutions = self._apply_projection(query, solutions)
        if query.distinct or query.reduced:
            solutions = self._distinct(solutions, variables)
        solutions = self._apply_slice(query, solutions)
        return variables, self._count_rows(solutions)

    def _guard(self, solutions: Iterable[Solution]) -> Iterable[Solution]:
        """Checkpoint the execution context once per row pulled."""
        context = self.execution
        if context is None:
            return solutions
        checkpoint = context.checkpoint

        def guarded() -> Iterator[Solution]:
            for solution in solutions:
                checkpoint()
                yield solution

        return guarded()

    def _count_rows(self, solutions: Iterable[Solution]) -> Iterable[Solution]:
        """Account final result rows on the execution context."""
        context = self.execution
        if context is None:
            return solutions
        count_row = context.count_row

        def counted() -> Iterator[Solution]:
            for solution in solutions:
                count_row()
                yield solution

        return counted()

    @staticmethod
    def _projection_hint(query: SelectQuery) -> Optional[frozenset]:
        """The set of variables a single-BGP bare SELECT actually needs.

        Safe only when nothing downstream of the BGP (ORDER BY, GROUP BY,
        HAVING, other group elements, expression projections) could read a
        variable the projection drops.
        """
        if (query.select_all or query.order_by or query.group_by
                or query.having):
            return None
        if len(query.where.elements) != 1 or not isinstance(
                query.where.elements[0], BGP):
            return None
        for item in query.select_items:
            if not isinstance(item.expression, VariableExpr) or item.alias is not None:
                return None
        return frozenset(item.expression.variable for item in query.select_items)

    def evaluate_ask(self, query: AskQuery) -> bool:
        # Consume a single solution from the pipeline, then stop.
        for _ in self._guard(self._evaluate_group(query.where,
                                                  iter((Solution(),)))):
            return True
        return False

    def evaluate_construct(self, query: ConstructQuery) -> Graph:
        solutions = self._guard(
            self._evaluate_group(query.where, iter((Solution(),))))
        if query.limit is not None:
            solutions = islice(solutions, query.limit)
        result = Graph(namespaces=self.graph.namespaces.copy())
        for solution in solutions:
            for template in query.template:
                triple = _instantiate(template, solution)
                if triple is not None and triple.is_ground():
                    result.add(triple)
        return result

    # -- group pattern evaluation -------------------------------------------
    def _group_elements(self, group: GroupPattern) -> Sequence:
        """The group's elements in cost order (cached per plan target).

        Contiguous runs of join-commutative elements (BGPs, path patterns,
        closures, negated property sets) are reordered smallest-estimated-
        cardinality-first with bound-variable propagation, so e.g. an
        unanchored transitive closure runs after the patterns that bind one
        of its endpoints.  FILTER / OPTIONAL / MINUS / BIND / VALUES / UNION
        / sub-SELECT elements never move.  The ordering is cached in the
        plan store under the *group's* identity (disjoint from the BGP /
        closure entries, which key their own AST nodes).
        """
        elements = group.elements
        if not self.optimize_joins or len(elements) < 2:
            return elements
        store = self._plan_store()
        if store is not None:
            ordered = store.get(id(group))
            if ordered is not None:
                return ordered
        ordered = reorder_group_elements(self.graph, elements)
        if store is not None:
            store[id(group)] = ordered
        return ordered

    def _evaluate_group(self, group: GroupPattern,
                        solutions: Iterator[Solution]) -> Iterator[Solution]:
        """Chain one lazy operator per group element over ``solutions``."""
        stream = solutions
        for element in self._group_elements(group):
            if isinstance(element, BGP):
                stream = self._stream_bgp(element, stream)
            elif isinstance(element, PathPattern):
                stream = self._stream_path(element, stream)
            elif isinstance(element, ClosurePattern):
                stream = self._stream_closure(element, stream)
            elif isinstance(element, NegatedPathPattern):
                stream = self._stream_negated(element, stream)
            elif isinstance(element, FilterPattern):
                stream = self._stream_filter(element.expression, stream)
            elif isinstance(element, OptionalPattern):
                stream = self._stream_optional(element, stream)
            elif isinstance(element, UnionPattern):
                stream = self._stream_union(element, stream)
            elif isinstance(element, MinusPattern):
                stream = self._stream_minus(element, stream)
            elif isinstance(element, BindPattern):
                stream = self._stream_bind(element, stream)
            elif isinstance(element, ValuesPattern):
                stream = self._stream_values(element, stream)
            elif isinstance(element, SubSelectPattern):
                stream = self._stream_subselect(element, stream)
            else:  # pragma: no cover - defensive
                raise QueryError(f"unsupported pattern element {type(element).__name__}")
        return stream

    # -- BGP compilation ----------------------------------------------------
    def _plan_store(self) -> Optional[Dict[int, object]]:
        """The plan's compiled-pattern store for this (graph, epoch) target.

        Shared by BGPs, closures and negated-set patterns: entries are keyed
        by AST-node identity, and the store itself is keyed by (graph object,
        mutation epoch), so every compiled artifact is epoch-invalidated the
        same way.
        """
        store = self._plan_state
        if store is None and self.plan is not None:
            store = self._plan_state = self.plan.state_for(
                self.graph, self.optimize_joins).compiled
        return store

    def _compiled_bgp(self, bgp: BGP) -> _CompiledBGP:
        store = self._plan_store()
        if store is not None:
            compiled = store.get(id(bgp))
            if compiled is not None:
                return compiled
        compiled = self._compile_bgp(bgp)
        if store is not None:
            # Concurrent evaluators may both compile the same BGP; either
            # result is correct for this (graph, epoch) and the dict write
            # is atomic, so last-writer-wins is benign.
            store[id(bgp)] = compiled
        return compiled

    def _compiled_closure(self, element: ClosurePattern) -> _CompiledClosure:
        store = self._plan_store()
        if store is not None:
            compiled = store.get(id(element))
            if compiled is not None:
                return compiled
        compiled = _CompiledClosure(self.graph, element)
        if store is not None:
            store[id(element)] = compiled
        return compiled

    def _compiled_negated(self, element: NegatedPathPattern) -> _CompiledNegated:
        store = self._plan_store()
        if store is not None:
            compiled = store.get(id(element))
            if compiled is not None:
                return compiled
        compiled = _CompiledNegated(self.graph, element)
        if store is not None:
            store[id(element)] = compiled
        return compiled

    def _compile_bgp(self, bgp: BGP) -> _CompiledBGP:
        graph = self.graph
        patterns = list(bgp.triples)
        if self.optimize_joins and len(patterns) > 1:
            patterns = reorder_patterns(graph, patterns)
        lookup = graph.dictionary.lookup
        var_slots: Dict[Variable, int] = {}
        specs = []
        empty = False
        for pattern in patterns:
            spec = []
            for term in pattern:
                if isinstance(term, Variable):
                    slot = var_slots.setdefault(term, len(var_slots))
                    spec.append((None, slot))
                else:
                    term_id = lookup(term)
                    if term_id is None:
                        # Constant never stored: the whole BGP is empty.
                        empty = True
                    spec.append((term_id, None))
            specs.append(tuple(spec))
        if self.optimize_joins and not empty and len(specs) > 1:
            kept, intersectors = _fold_intersectors(specs)
            return _CompiledBGP(tuple(kept), var_slots, empty,
                                tuple(intersectors))
        return _CompiledBGP(tuple(specs), var_slots, empty)

    # -- streaming operators -------------------------------------------------
    def _stream_bgp(self, bgp: BGP, solutions: Iterator[Solution],
                    project: Optional[frozenset] = None) -> Iterator[Solution]:
        compiled = self._compiled_bgp(bgp)
        if compiled.empty:
            return
        graph = self.graph
        dictionary = graph.dictionary
        lookup = dictionary.lookup
        decode = dictionary.decode
        triples_ids = graph.triples_ids
        specs = compiled.specs
        num_patterns = len(specs)
        last_level = num_patterns - 1
        seed_items = tuple(compiled.var_slots.items())
        # Emitted rows carry every BGP variable unless a projection hint
        # restricts them (single-BGP SELECT fast path).
        slot_items = seed_items if project is None else tuple(
            item for item in seed_items if item[0] in project)
        slot_vars = compiled.slot_vars
        lookups = 0
        execution = self.execution
        checkpoint = execution.checkpoint if execution is not None else None
        # Amortised interruption ticks shared by both hot loops (the
        # backtracking join and the generic leaf scan): one checkpoint call
        # per 256 iterations keeps the per-iteration cost to an increment
        # and a bitmask test.
        ticks = 0

        # Iterative index-nested-loop join (one frame, no recursion): per
        # level we keep the running scan, the slots that were unbound when
        # the scan started, and the slots bound by the scan element being
        # explored.  The per-level state and the closures below are shared
        # across input solutions; the backtracking loop leaves every
        # `pending` entry cleared on exit, so no reset between solutions is
        # needed beyond re-seeding `env`.
        env: List[Optional[int]] = [None] * compiled.num_slots
        scans = [None] * num_patterns
        unbound = [()] * num_patterns
        pending = [()] * num_patterns
        # For levels with exactly one unbound slot the scan iterates the
        # completing index set directly (ids, no triple tuples);
        # single_slot[level] records which slot those ids bind.
        single_slot = [None] * num_patterns

        def resolve(level: int):
            """Resolve pattern ``level`` under ``env``: (s, p, o, unbound)."""
            (s_const, s_slot), (p_const, p_slot), (o_const, o_slot) = specs[level]
            s = s_const if s_slot is None else env[s_slot]
            p = p_const if p_slot is None else env[p_slot]
            o = o_const if o_slot is None else env[o_slot]
            unb = []
            if s_slot is not None and s is None:
                unb.append((0, s_slot))
            if p_slot is not None and p is None:
                unb.append((1, p_slot))
            if o_slot is not None and o is None:
                unb.append((2, o_slot))
            return s, p, o, unb

        def direct_values(s, p, o, position: int):
            """The index set completing a pattern with one unbound position."""
            if position == 2:
                return graph.object_ids(s, p)
            if position == 0:
                return graph.subject_ids(p, o)
            return graph.predicate_ids(s, o)

        intersectors = compiled.intersectors
        contains_ids = graph.contains_ids

        def resolve_ground(ispec):
            """Resolve a folded spec under ``env`` (join component → None)."""
            (s_const, s_slot), (p_const, p_slot), (o_const, o_slot) = ispec
            return (s_const if s_slot is None else env[s_slot],
                    p_const if p_slot is None else env[p_slot],
                    o_const if o_slot is None else env[o_slot])

        def intersect_values(level: int, values):
            """Narrow a level's candidate id set by its folded patterns.

            One ``set & set`` per folded pattern replaces one index probe
            per candidate per pattern inside the join loop.  Intersection
            allocates a fresh set every time — the stored index sets the
            graph hands out are never mutated.  Interruption cost is
            charged batch-at-a-time: one checkpoint call carries the whole
            intersection's work amount, keeping deadline/cancel latency
            bounded by a single batch instead of ticking per element.
            """
            for ispec, position in intersectors[level]:
                if not values:
                    break
                s, p, o = resolve_ground(ispec)
                probe = direct_values(s, p, o, position)
                if not probe:
                    return ()
                if checkpoint is not None:
                    checkpoint(min(len(values), len(probe)))
                values = values & probe
            return values

        def intersectors_hold(level: int) -> bool:
            """Folded patterns as ground containment probes.

            Taken when the level's join variable arrived pre-bound at
            runtime (seeded by the input solution), so there is no
            candidate set to intersect — each folded pattern is fully
            ground and holds iff the store contains its triple.
            """
            for ispec, _ in intersectors[level]:
                s, p, o = resolve_ground(ispec)
                if checkpoint is not None:
                    checkpoint(1)
                if not contains_ids(s, p, o):
                    return False
            return True

        def start_scan(level: int) -> None:
            s, p, o, unb = resolve(level)
            if len(unb) == 1:
                position, slot = unb[0]
                single_slot[level] = slot
                values = direct_values(s, p, o, position)
                if intersectors[level]:
                    values = intersect_values(level, values)
                scans[level] = iter(values)
                return
            single_slot[level] = None
            unbound[level] = unb
            if intersectors[level] and not unb \
                    and not intersectors_hold(level):
                scans[level] = iter(())
                return
            scans[level] = triples_ids(s, p, o)

        def emit_leaf(solution: Solution) -> Iterator[Solution]:
            """Resolve the innermost pattern under ``env`` and emit one
            decoded row per match.

            With a single unbound slot the completing ids come straight off
            an index set (no triple tuples), and the invariant part of each
            row is prebuilt once — the per-id work is one dict copy (which
            reuses cached key hashes) plus one insert.
            """
            s, p, o, unb = resolve(last_level)
            if len(unb) == 1:
                position, leaf_slot = unb[0]
                values = direct_values(s, p, o, position)
                if intersectors[last_level]:
                    values = intersect_values(last_level, values)
                if not values:
                    return
                base = Solution(solution)
                for var, slot in slot_items:
                    if slot != leaf_slot:
                        base[var] = decode(env[slot])
                leaf_var = slot_vars[leaf_slot]
                if project is not None and leaf_var not in project:
                    # Projection drops the leaf variable: emit one
                    # (duplicate) row per match, multiset semantics.
                    yield base
                    for _ in range(len(values) - 1):
                        yield Solution(base)
                    return
                if len(values) == 1:
                    # base is not reused: bind in place, skip the copy.
                    for value in values:
                        base[leaf_var] = decode(value)
                    yield base
                    return
                for value in values:
                    row = Solution(base)
                    row[leaf_var] = decode(value)
                    yield row
                return
            # Zero unbound slots (containment probe) or two/three unbound
            # slots (possibly a repeated variable): generic scan, binding
            # and undoing slots per element.  This is where a cross-product
            # adversary spends its life, so it ticks the amortised
            # checkpoint.  A leaf with folded patterns can only land here
            # fully ground (its join variable was seeded): the folds become
            # containment probes.
            nonlocal ticks
            if intersectors[last_level] and not intersectors_hold(last_level):
                return
            for triple_ids_row in triples_ids(s, p, o):
                ticks += 1
                if checkpoint is not None and not ticks & 255:
                    checkpoint(256)
                bound_here = []
                compatible = True
                for position, slot in unb:
                    value = triple_ids_row[position]
                    current = env[slot]
                    if current is None:
                        env[slot] = value
                        bound_here.append(slot)
                    elif current != value:
                        compatible = False
                        break
                if compatible:
                    row = Solution(solution)
                    for var, slot in slot_items:
                        row[var] = decode(env[slot])
                    yield row
                for slot in bound_here:
                    env[slot] = None

        try:
            for solution in solutions:
                for index in range(compiled.num_slots):
                    env[index] = None
                dead = False
                for var, slot in seed_items:
                    term = solution.get(var)
                    if term is not None:
                        term_id = lookup(term)
                        if term_id is None:
                            # Bound to a term the store has never seen: the
                            # conjunction cannot match for this solution.
                            dead = True
                            break
                        env[slot] = term_id
                if dead:
                    continue
                if num_patterns == 0:
                    yield Solution(solution)
                    continue
                if num_patterns == 1:
                    lookups += 1
                    yield from emit_leaf(solution)
                    continue

                lookups += 1
                start_scan(0)
                level = 0
                while level >= 0:
                    ticks += 1
                    if checkpoint is not None and not ticks & 255:
                        checkpoint(256)
                    # Undo bindings from the element previously explored at
                    # this level before pulling the next one.
                    for slot in pending[level]:
                        env[slot] = None
                    pending[level] = ()
                    item = next(scans[level], None)
                    if item is None:
                        level -= 1
                        continue
                    slot = single_slot[level]
                    if slot is not None:
                        # Direct index-set scan: item is the completing id.
                        env[slot] = item
                        pending[level] = (slot,)
                    else:
                        compatible = True
                        unb = unbound[level]
                        if unb:
                            bound_here = []
                            for position, bind_slot in unb:
                                value = item[position]
                                current = env[bind_slot]
                                if current is None:
                                    env[bind_slot] = value
                                    bound_here.append(bind_slot)
                                elif current != value:
                                    # Same variable twice in one pattern bound
                                    # to two different values by this triple.
                                    compatible = False
                                    break
                            pending[level] = bound_here
                        if not compatible:
                            continue
                    lookups += 1
                    if level == last_level - 1:
                        yield from emit_leaf(solution)
                    else:
                        level += 1
                        start_scan(level)
        finally:
            self.pattern_lookups += lookups

    # -- property paths ------------------------------------------------------
    def _stream_path(self, element: PathPattern,
                     solutions: Iterator[Solution]) -> Iterator[Solution]:
        """Evaluate a property-path pattern by lowering it to plain algebra.

        ``seq``/``alt``/``inv`` become BGPs and unions (compiled and cached
        like any other), ``*``/``+``/``?`` become closure iterators and
        ``!(...)`` a negated-set scan.  Fresh join variables introduced by
        the rewrite are stripped from emitted rows so they can never leak
        into projections (``SELECT *`` discovers variables from rows).
        """
        group, fresh = rewrite_path_pattern(element)
        stream = self._evaluate_group(group, solutions)
        if not fresh:
            return stream

        def stripped() -> Iterator[Solution]:
            for row in stream:
                present = [var for var in fresh if var in row]
                if present:
                    row = Solution(row)
                    for var in present:
                        del row[var]
                yield row

        return stripped()

    def _stream_closure(self, element: ClosurePattern,
                        solutions: Iterator[Solution]) -> Iterator[Solution]:
        """Streaming id-space BFS closure (``path*`` / ``path+`` / ``path?``).

        Per the SPARQL 1.1 ALP semantics each input solution contributes
        every *distinct* endpoint pair once; a bound subject runs a forward
        BFS over the SPO index, a bound object a backward BFS over POS via
        the inverted path, and two unbound endpoints enumerate the node
        universe.  Zero-length paths (``*``/``?``) match a bound endpoint
        even when the term is absent from the graph.  The frontier loop
        ticks the execution context's amortised checkpoint, so closures over
        cycle-heavy graphs honor deadline/cancel/budget and can be sliced by
        the scheduler.
        """
        compiled = self._compiled_closure(element)
        graph = self.graph
        dictionary = graph.dictionary
        lookup = dictionary.lookup
        decode = dictionary.decode
        execution = self.execution
        checkpoint = execution.checkpoint if execution is not None else None
        ticks = 0

        def tick() -> None:
            nonlocal ticks
            ticks += 1
            if checkpoint is not None and not ticks & 255:
                checkpoint(256)

        modifier = element.modifier
        subject = element.subject
        object_ = element.object
        s_is_var = isinstance(subject, Variable)
        o_is_var = isinstance(object_, Variable)
        same_var = s_is_var and o_is_var and subject is object_

        def directed(step, solution: Solution, start_term: Term,
                     end_term: Optional[Term],
                     bind_var: Optional[Variable]) -> Iterator[Solution]:
            """Emit pairs from a closure anchored at ``start_term``."""
            start_id = lookup(start_term)
            end_id = None
            if modifier in ("*", "?"):
                # Zero-length path: the bound endpoint matches itself even
                # when the term does not occur in the graph.
                if end_term is not None:
                    if end_term == start_term:
                        yield Solution(solution)
                else:
                    row = Solution(solution)
                    row[bind_var] = start_term
                    yield row
            if start_id is None:
                return  # unknown term: no edges, zero-length handled above
            if end_term is not None:
                end_id = lookup(end_term)
                if end_id is None:
                    return
            if modifier == "?":
                seen = set()
                for successor in step(start_id, tick):
                    tick()
                    if successor in seen:
                        continue
                    seen.add(successor)
                    if successor == start_id:
                        continue  # (x, x) already emitted as zero-length
                    if end_id is not None:
                        if successor == end_id:
                            yield Solution(solution)
                            return
                    else:
                        row = Solution(solution)
                        row[bind_var] = decode(successor)
                        yield row
                return
            skip_start = modifier == "*"
            seen = set()
            frontier = [start_id]
            while frontier:
                next_frontier = []
                for node in frontier:
                    tick()
                    for successor in step(node, tick):
                        tick()
                        if successor in seen:
                            continue
                        seen.add(successor)
                        next_frontier.append(successor)
                        if skip_start and successor == start_id:
                            continue  # zero-length pair already emitted
                        if end_id is not None:
                            if successor == end_id:
                                yield Solution(solution)
                                return
                        else:
                            row = Solution(solution)
                            row[bind_var] = decode(successor)
                            yield row
                frontier = next_frontier

        def unbound_pairs(solution: Solution) -> Iterator[Solution]:
            """Both endpoints unbound: every node of the graph is a start."""
            step = compiled.forward
            for node in self._node_ids(graph):
                tick()
                if modifier in ("*", "?"):
                    term = decode(node)
                    row = Solution(solution)
                    row[subject] = term
                    if not same_var:
                        row[object_] = term
                    yield row
                if modifier == "?":
                    seen = set()
                    for successor in step(node, tick):
                        tick()
                        if successor in seen or successor == node:
                            continue
                        seen.add(successor)
                        if same_var:
                            continue  # needs successor == node, emitted above
                        row = Solution(solution)
                        row[subject] = decode(node)
                        row[object_] = decode(successor)
                        yield row
                    continue
                seen = set()
                frontier = [node]
                while frontier:
                    next_frontier = []
                    for member in frontier:
                        tick()
                        for successor in step(member, tick):
                            tick()
                            if successor in seen:
                                continue
                            seen.add(successor)
                            next_frontier.append(successor)
                            if modifier == "*" and successor == node:
                                continue  # zero-length pair already emitted
                            if same_var:
                                if successor == node:
                                    row = Solution(solution)
                                    row[subject] = decode(node)
                                    yield row
                                continue
                            row = Solution(solution)
                            row[subject] = decode(node)
                            row[object_] = decode(successor)
                            yield row
                    frontier = next_frontier

        for solution in solutions:
            if checkpoint is not None:
                checkpoint()
            s_term = solution.get(subject) if s_is_var else subject
            o_term = solution.get(object_) if o_is_var else object_
            if s_term is not None:
                yield from directed(compiled.forward, solution, s_term, o_term,
                                    object_ if o_term is None else None)
            elif o_term is not None:
                yield from directed(compiled.backward, solution, o_term, None,
                                    subject)
            else:
                yield from unbound_pairs(solution)

    def _stream_negated(self, element: NegatedPathPattern,
                        solutions: Iterator[Solution]) -> Iterator[Solution]:
        """Negated property set: scan edges whose predicate is not excluded.

        Bag semantics (one row per matching triple per direction), matching
        the SPARQL 1.1 definition where ``!(...)`` is an edge step, not a
        closure.
        """
        compiled = self._compiled_negated(element)
        graph = self.graph
        dictionary = graph.dictionary
        lookup = dictionary.lookup
        decode = dictionary.decode
        triples_ids = graph.triples_ids
        execution = self.execution
        checkpoint = execution.checkpoint if execution is not None else None
        ticks = 0
        subject = element.subject
        object_ = element.object
        s_is_var = isinstance(subject, Variable)
        o_is_var = isinstance(object_, Variable)
        same_var = s_is_var and o_is_var and subject is object_
        forward_ids = compiled.forward_ids
        inverse_ids = compiled.inverse_ids

        for solution in solutions:
            if checkpoint is not None:
                checkpoint()
            s_term = solution.get(subject) if s_is_var else subject
            o_term = solution.get(object_) if o_is_var else object_
            s_id = lookup(s_term) if s_term is not None else None
            o_id = lookup(o_term) if o_term is not None else None
            if (s_term is not None and s_id is None) or \
                    (o_term is not None and o_id is None):
                continue  # bound to a term the store has never seen
            if compiled.match_forward:
                for s, predicate, o in triples_ids(s_id, None, o_id):
                    ticks += 1
                    if checkpoint is not None and not ticks & 255:
                        checkpoint(256)
                    if predicate in forward_ids:
                        continue
                    if same_var and s != o:
                        continue
                    row = Solution(solution)
                    if s_term is None:
                        row[subject] = decode(s)
                    if o_term is None and not same_var:
                        row[object_] = decode(o)
                    yield row
            if compiled.match_inverse:
                # The path matches (s, o) when a triple (o, p, s) exists
                # with p outside the inverse exclusion set.
                for o, predicate, s in triples_ids(o_id, None, s_id):
                    ticks += 1
                    if checkpoint is not None and not ticks & 255:
                        checkpoint(256)
                    if predicate in inverse_ids:
                        continue
                    if same_var and s != o:
                        continue
                    row = Solution(solution)
                    if s_term is None:
                        row[subject] = decode(s)
                    if o_term is None and not same_var:
                        row[object_] = decode(o)
                    yield row

    @staticmethod
    def _node_ids(graph: Graph):
        """All subject/object ids of the graph (the RDF 'node' universe)."""
        node_ids = getattr(graph, "node_ids", None)
        if node_ids is not None:
            return node_ids()
        out = set()
        for s, _, o in graph.triples_ids(None, None, None):
            out.add(s)
            out.add(o)
        return out

    def _stream_filter(self, expression: Expression,
                       solutions: Iterator[Solution]) -> Iterator[Solution]:
        execution = self.execution
        test = self._compile(expression)
        for solution in solutions:
            if execution is not None:
                execution.checkpoint()
            if effective_boolean_value(test(solution)):
                yield solution

    def _stream_optional(self, element: OptionalPattern,
                         solutions: Iterator[Solution]) -> Iterator[Solution]:
        execution = self.execution
        for solution in solutions:
            if execution is not None:
                execution.checkpoint()
            matched = False
            for extended in self._evaluate_group(element.pattern, iter((solution,))):
                matched = True
                yield extended
            if not matched:
                yield solution

    def _stream_union(self, element: UnionPattern,
                      solutions: Iterator[Solution]) -> Iterator[Solution]:
        base = list(self._guard(solutions))
        for alternative in element.alternatives:
            yield from self._guard(
                self._evaluate_group(alternative, iter(base)))

    def _stream_minus(self, element: MinusPattern,
                      solutions: Iterator[Solution]) -> Iterator[Solution]:
        execution = self.execution
        excluded = None
        for solution in solutions:
            if execution is not None:
                execution.checkpoint()
            if excluded is None:
                excluded = list(self._guard(
                    self._evaluate_group(element.pattern,
                                         iter((Solution(),)))))
            remove = False
            for other in excluded:
                shared = set(solution) & set(other)
                if shared and all(solution[v] == other[v] for v in shared):
                    remove = True
                    break
            if not remove:
                yield solution

    def _stream_bind(self, element: BindPattern,
                     solutions: Iterator[Solution]) -> Iterator[Solution]:
        execution = self.execution
        value_of = self._compile(element.expression)
        for solution in solutions:
            if execution is not None:
                execution.checkpoint()
            value = value_of(solution)
            extended = Solution(solution)
            if value is not None:
                if element.variable in extended and extended[element.variable] != value:
                    continue
                extended[element.variable] = value
            yield extended

    def _stream_values(self, element: ValuesPattern,
                       solutions: Iterator[Solution]) -> Iterator[Solution]:
        value_solutions: List[Solution] = []
        for row in element.rows:
            sol = Solution()
            for var, term in zip(element.variables, row):
                if term is not None:
                    sol[var] = term
            value_solutions.append(sol)
        execution = self.execution
        for solution in solutions:
            if execution is not None:
                execution.checkpoint()
            for value_sol in value_solutions:
                merged = solution.merged(value_sol)
                if merged is not None:
                    yield merged

    def _stream_subselect(self, element: SubSelectPattern,
                          solutions: Iterator[Solution]) -> Iterator[Solution]:
        execution = self.execution
        sub_result = None
        for solution in solutions:
            if execution is not None:
                execution.checkpoint()
            if sub_result is None:
                sub_result = self.evaluate_select(element.query)
            for sub_sol in sub_result.solutions:
                merged_sol = solution.merged(sub_sol)
                if merged_sol is not None:
                    yield merged_sol

    def _evaluate_exists(self, pattern: GroupPattern, solution: Solution) -> bool:
        # Stop at the first witness instead of materialising every match.
        for _ in self._guard(self._evaluate_group(pattern,
                                                  iter((Solution(solution),)))):
            return True
        return False

    # -- expression sites ------------------------------------------------------
    def _site(self, expression: Expression,
              build: Callable[[], Callable]) -> Callable:
        """The callable built for ``expression``'s site in this evaluation."""
        entry = self._sites.get(id(expression))
        if entry is None:
            entry = self._sites[id(expression)] = (expression, build())
        return entry[1]

    def _compile(self, expression: Expression) -> CompiledExpression:
        return self._site(expression,
                          lambda: compile_expression(expression, self.context))

    def _compile_having(self, condition: Expression
                        ) -> Callable[[Solution, List[Solution]], bool]:
        """HAVING ``condition`` as ``holds(group_row, members)``.

        Each aggregate in the condition is lifted out into a placeholder
        variable, bound per group to the aggregate over the group's members;
        the rest of the condition is compiled once like any other site.
        """
        def build() -> Callable[[Solution, List[Solution]], bool]:
            lifted: List[Tuple[Variable, Aggregate]] = []
            test = compile_expression(_lift_aggregates(condition, lifted),
                                      self.context)
            aggregates = [(placeholder, aggregate, self._compile_argument(aggregate))
                          for placeholder, aggregate in lifted]
            compute = self._compute_aggregate  # a staticmethod: holds no self

            def holds(row: Solution, members: List[Solution]) -> bool:
                bound = Solution(row)
                for placeholder, aggregate, value_of in aggregates:
                    value = compute(aggregate, value_of, members)
                    if value is not None:
                        bound[placeholder] = value
                return effective_boolean_value(test(bound))
            return holds
        return self._site(condition, build)

    # -- grouping / aggregation ----------------------------------------------
    def _apply_grouping(self, query: SelectQuery,
                        solutions: Iterable[Solution]) -> Iterable[Solution]:
        has_aggregate = any(
            isinstance(item.expression, Aggregate) for item in query.select_items
        )
        if not query.group_by and not has_aggregate and not query.having:
            return solutions  # passthrough: keep the pipeline lazy
        keys = [self._compile(expr) for expr in query.group_by]
        having = [self._compile_having(condition) for condition in query.having]
        groups: Dict[Tuple, List[Solution]] = {}
        empty = True
        for solution in solutions:
            empty = False
            key = tuple(value_of(solution) for value_of in keys)
            groups.setdefault(key, []).append(solution)
        if empty and not query.group_by:
            groups[()] = []
        aggregated: List[Solution] = []
        for key, members in groups.items():
            row = Solution()
            for expr, value in zip(query.group_by, key):
                if isinstance(expr, VariableExpr) and value is not None:
                    row[expr.variable] = value
            for item in query.select_items:
                if isinstance(item.expression, Aggregate):
                    target = item.alias or Variable(f"agg_{len(row)}")
                    value = self._compute_aggregate(
                        item.expression, self._compile_argument(item.expression),
                        members)
                    if value is not None:
                        row[target] = value
            if all(holds(row, members) for holds in having):
                aggregated.append(row)
        return aggregated

    def _compile_argument(self, aggregate: Aggregate
                          ) -> Optional[CompiledExpression]:
        """The aggregate's compiled argument; None for ``COUNT(*)``."""
        return None if aggregate.expr is None else self._compile(aggregate.expr)

    @staticmethod
    def _compute_aggregate(aggregate: Aggregate,
                           value_of: Optional[CompiledExpression],
                           members: List[Solution]) -> Optional[Term]:
        values: List[Term] = []
        if value_of is None:
            values = [Literal(1)] * len(members)
        else:
            for member in members:
                value = value_of(member)
                if value is not None:
                    values.append(value)
        if aggregate.distinct:
            unique: List[Term] = []
            seen = set()
            for value in values:
                if value not in seen:
                    seen.add(value)
                    unique.append(value)
            values = unique
        name = aggregate.name
        if name == "COUNT":
            return Literal(len(values), datatype=XSD_INTEGER)
        if not values:
            return None
        if name == "SAMPLE":
            return values[0]
        if name == "GROUP_CONCAT":
            return Literal(aggregate.separator.join(str(v) for v in values))
        if name in ("MIN", "MAX"):
            keyed = sorted(values, key=lambda t: (t.sort_key()
                           if not (isinstance(t, Literal) and t.is_numeric())
                           else (2, float(t.lexical))))
            numeric = [v for v in values if isinstance(v, Literal) and v.is_numeric()]
            if numeric and len(numeric) == len(values):
                chosen = min(numeric, key=lambda t: float(t.lexical)) if name == "MIN" \
                    else max(numeric, key=lambda t: float(t.lexical))
                return chosen
            return keyed[0] if name == "MIN" else keyed[-1]
        numbers = [float(v.lexical) for v in values
                   if isinstance(v, Literal) and v.is_numeric()]
        if not numbers:
            return None
        if name == "SUM":
            total = sum(numbers)
            return Literal(int(total)) if float(total).is_integer() else Literal(total)
        if name == "AVG":
            return Literal(sum(numbers) / len(numbers), datatype=XSD_DOUBLE)
        raise QueryError(f"unsupported aggregate {name!r}")

    # -- projection / modifiers ----------------------------------------------
    def _apply_projection(self, query: SelectQuery,
                          solutions: Iterable[Solution]) -> Tuple[List[Variable], Iterable[Solution]]:
        if query.select_all:
            # Variable discovery needs every solution; materialise.
            materialized = list(solutions)
            variables: List[Variable] = []
            for solution in materialized:
                for var in solution:
                    if var not in variables:
                        variables.append(var)
            if not variables:
                variables = query.projected_variables()
            return variables, materialized
        variables = []
        for item in query.select_items:
            try:
                variables.append(item.output_variable)
            except ValueError:
                variables.append(Variable(f"expr{len(variables)}"))
        if all(isinstance(item.expression, VariableExpr) and item.alias is None
               for item in query.select_items):
            # Bare-variable projection (the hot case): plain binding copies,
            # no per-row expression dispatch.
            sources = [item.expression.variable for item in query.select_items]
            return variables, self._project_bare(variables, sources, solutions)
        return variables, map(
            self._row_projector(variables, query.select_items), solutions)

    @staticmethod
    def _project_bare(variables: List[Variable], sources: List[Variable],
                      solutions: Iterable[Solution]) -> Iterator[Solution]:
        pairs = list(zip(variables, sources))
        unique = set(variables)
        width = len(unique)
        for solution in solutions:
            if len(solution) == width and unique.issubset(solution):
                # The solution binds exactly the projected variables:
                # projection is the identity, skip the row rebuild.
                yield solution
                continue
            row = Solution()
            for variable, source in pairs:
                value = solution.get(source)
                if value is not None:
                    row[variable] = value
            yield row

    def _row_projector(self, variables: List[Variable],
                       select_items: List[SelectItem]
                       ) -> Callable[[Solution], Solution]:
        """Build one output row per solution, each item compiled once."""
        columns: List[Tuple[Variable, CompiledExpression]] = []
        for variable, item in zip(variables, select_items):
            if isinstance(item.expression, Aggregate):
                # Aggregates were already folded in during grouping.
                value_of = compile_expression(VariableExpr(variable), self.context)
            else:
                value_of = self._compile(item.expression)
            columns.append((variable, value_of))

        def project(solution: Solution) -> Solution:
            row = Solution()
            for variable, value_of in columns:
                value = value_of(solution)
                if value is not None:
                    row[variable] = value
            return row
        return project

    def _apply_order(self, query: SelectQuery,
                     solutions: Iterable[Solution]) -> Iterable[Solution]:
        if not query.order_by:
            return solutions

        def order_key(value_of: CompiledExpression, solution: Solution) -> Tuple:
            value = value_of(solution)
            if value is None:
                return (0, "")
            if isinstance(value, Literal) and value.is_numeric():
                return (1, float(value.lexical))
            return (2, value.n3())

        # Decorate-sort-undecorate: every sort key is computed exactly once
        # per solution, then stable sorts compose from the last condition to
        # the first (each with its own direction).
        keys = [self._compile(condition.expression) for condition in query.order_by]
        decorated = [
            ([order_key(value_of, solution) for value_of in keys], solution)
            for solution in solutions
        ]
        for index in reversed(range(len(query.order_by))):
            descending = query.order_by[index].descending
            decorated.sort(key=lambda entry: entry[0][index], reverse=descending)
        return [solution for _, solution in decorated]

    def _distinct(self, solutions: Iterable[Solution],
                  variables: Optional[List[Variable]] = None) -> Iterator[Solution]:
        """Lazy hash-based dedup over tuples of projected bindings."""
        seen = set()
        if variables:
            for solution in solutions:
                key = tuple(solution.get(var) for var in variables)
                if key not in seen:
                    seen.add(key)
                    yield solution
        else:
            for solution in solutions:
                key = frozenset(solution.items())
                if key not in seen:
                    seen.add(key)
                    yield solution

    def _apply_slice(self, query: SelectQuery,
                     solutions: Iterable[Solution]) -> Iterable[Solution]:
        start = query.offset or 0
        if query.limit is None and not start:
            return solutions
        end = start + query.limit if query.limit is not None else None
        # islice stops pulling from the pipeline once the page is full, so
        # LIMIT short-circuits the whole scan/join chain upstream.
        return islice(iter(solutions), start, end)

    # -- updates --------------------------------------------------------------
    def apply_update(self, update: Update, dataset: Optional[Dataset] = None) -> int:
        """Apply a single update operation.

        When ``dataset`` is provided, graph-targeted operations (``INSERT INTO
        <g>``, ``GRAPH <g> {}``) go to the corresponding named graph; otherwise
        everything applies to the evaluator's graph.  Returns the number of
        affected triples.
        """
        def target(graph_iri: Optional[IRI]) -> Graph:
            if dataset is not None and graph_iri is not None:
                return dataset.graph(graph_iri)
            if dataset is not None:
                return dataset.default_graph
            return self.graph

        if isinstance(update, InsertDataUpdate):
            graph = target(update.graph)
            return sum(1 for triple in update.triples if graph.add(triple))
        if isinstance(update, DeleteDataUpdate):
            graph = target(update.graph)
            return sum(graph.remove(*triple) for triple in update.triples)
        if isinstance(update, ClearUpdate):
            graph = target(update.graph)
            count = len(graph)
            graph.clear()
            return count
        if isinstance(update, ModifyUpdate):
            # Materialise the WHERE solutions *before* mutating: the lazy
            # pipeline must not keep scanning indexes we are rewriting.
            solutions = list(self._guard(
                self._evaluate_group(update.where, iter((Solution(),)))))
            if self.execution is not None:
                # Last exit before mutation: a deadline or cancellation that
                # trips here aborts with the graph untouched; past this point
                # the update runs to completion, so no reader ever observes a
                # half-applied MODIFY.
                self.execution.checkpoint(0)
            graph = target(update.graph)
            affected = 0
            for solution in solutions:
                for template in update.delete_template:
                    triple = _instantiate(template, solution)
                    if triple is not None and triple.is_ground():
                        affected += graph.remove(*triple)
                for template in update.insert_template:
                    triple = _instantiate(template, solution)
                    if triple is not None and triple.is_ground():
                        if graph.add(triple):
                            affected += 1
            return affected
        raise UpdateError(f"unsupported update type {type(update).__name__}")


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------

def _lift_aggregates(expr: Expression,
                     lifted: List[Tuple[Variable, Aggregate]]) -> Expression:
    """``expr`` with each aggregate replaced by a fresh placeholder variable.

    The ``(placeholder, aggregate)`` pairs are appended to ``lifted``.  A
    placeholder's name starts with ``.``, which no parsed variable can.
    """
    def lift(node: Expression) -> Expression:
        if isinstance(node, Aggregate):
            placeholder = Variable(f".having{len(lifted)}")
            lifted.append((placeholder, node))
            return VariableExpr(placeholder)
        if isinstance(node, UnaryOp):
            return UnaryOp(node.op, lift(node.operand))
        if isinstance(node, BinaryOp):
            return BinaryOp(node.op, lift(node.left), lift(node.right))
        if isinstance(node, InExpr):
            return InExpr(lift(node.operand),
                          tuple(lift(choice) for choice in node.choices),
                          node.negated)
        if isinstance(node, FunctionCall):
            return FunctionCall(node.name, tuple(lift(arg) for arg in node.args))
        return node
    return lift(expr)


def _instantiate(pattern: TriplePattern, solution: Solution) -> Optional[Triple]:
    """Substitute bindings into a triple template; None when a var is unbound."""
    terms = []
    for term in pattern:
        if isinstance(term, Variable):
            value = solution.get(term)
            if value is None:
                return None
            terms.append(value)
        else:
            terms.append(term)
    return Triple(*terms)
