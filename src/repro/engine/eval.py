"""The plan interpreter: correlated iterator evaluation of logical plans.

Each operator consumes a stream of input solutions and produces a stream
of extended solutions.  Basic graph patterns run index nested-loop joins
over the active graph's hash indexes — the execution strategy of the
main-memory host DBMS (dissertation section 5.4.4) — with triple-pattern
order fixed beforehand by the cost-based optimizer.
"""

from __future__ import annotations

import heapq
from typing import Dict, Iterable, Iterator, List, Optional

from repro import context
from repro.arrays.nma import NumericArray
from repro.arrays.proxy import ArrayProxy
from repro.exceptions import EvaluationError, QueryError
from repro.governor import current_scope
from repro.lifecycle import current_deadline
from repro.rdf.term import BlankNode, Literal, URI, term_key
from repro.sparql import ast
from repro.algebra import logical
from repro.algebra.translator import Translator
from repro.algebra.logical import (
    BGP, Distinct, Extend, Filter, GraphScope, Group, Join, LeftJoin, Minus,
    OrderBy, PathScan, Project, Slice, SubQuery, Union, Unit, ValuesTable,
)
from repro.engine import aggregates as agg
from repro.engine import idjoin
from repro.engine import paths as path_eval
from repro.engine.bindings import Bindings
from repro.engine.expr import Evaluator
from repro.engine.functions import to_term
from repro.engine.udf import FunctionRegistry
from repro import observability as obs

#: Plan-node class name -> operator span label.  Unit is deliberately
#: absent: a one-row constant source earns no span of its own.
_OP_LABELS = {
    "BGP": "bgp",
    "PathScan": "path",
    "ValuesTable": "values",
    "Join": "join",
    "LeftJoin": "leftjoin",
    "Minus": "minus",
    "Union": "union",
    "Filter": "filter",
    "Extend": "extend",
    "GraphScope": "graph",
    "Group": "aggregate",
    "Project": "project",
    "Distinct": "distinct",
    "OrderBy": "orderby",
    "TopK": "topk",
    "Slice": "slice",
    "SubQuery": "subquery",
}


class QueryEngine:
    """Evaluates logical plans against a dataset.

    One engine is shared by every query, on every thread: it carries
    the dataset and the function registry (UDFs, foreign functions) and
    nothing a query mutates.  What belongs to one request — its FROM /
    FROM NAMED dataset view, its memo of translated EXISTS / view
    sub-plans, its trace — lives in the request context
    (:mod:`repro.context`).
    """

    def __init__(self, dataset, functions=None):
        self.dataset = dataset
        self.functions = functions or FunctionRegistry()

    def _dataset(self):
        """The dataset this request evaluates against: its FROM / FROM
        NAMED view when it has one, else the whole dataset."""
        ctx = context.current()
        view = None if ctx is None else ctx.dataset_view
        return self.dataset if view is None else view

    # -- public API -------------------------------------------------------------

    def run(self, plan, graph=None, initial=None):
        """Evaluate a plan; yields Bindings.

        The request deadline (when one is installed) is polled once
        per produced solution, so a query generating an unbounded
        solution stream is cancellable between results.
        """
        if graph is None:
            graph = self._dataset().default_graph
        inputs = [initial if initial is not None else Bindings.EMPTY]
        deadline = current_deadline()
        for solution in self._eval(plan, iter(inputs), graph):
            if deadline is not None:
                deadline.check()
            yield solution

    # -- dispatcher --------------------------------------------------------------

    def _eval(self, node, inputs, graph):
        type_name = type(node).__name__
        method = getattr(self, "_eval_" + type_name, None)
        if method is None:
            raise QueryError("cannot evaluate plan node %r" % (node,))
        label = _OP_LABELS.get(type_name)
        ctx = context.current()
        if label is None or ctx is None or ctx.trace is None:
            return method(node, inputs, graph)
        return self._eval_traced(ctx, node, label, method, inputs, graph)

    def _eval_traced(self, ctx, node, label, method, inputs, graph):
        """Evaluate one operator under its trace span.

        Each plan node owns exactly one span per trace (re-evaluations —
        an OPTIONAL's right side runs once per left row — fold into it
        via ``calls``).  Timing is *inclusive* per pulled row, EXPLAIN
        ANALYZE style: the span is also installed as the request
        context's current span for the duration of each ``next()``, so
        storage spans triggered by this operator nest beneath it.  Only
        the query thread mutates these counters, so they stay lock-free.
        """
        span_ = ctx.trace.operator_span(node, label, ctx.span)
        span_.calls += 1
        counters = span_.counters

        def counted():
            for item in inputs:
                counters["rows_in"] = counters.get("rows_in", 0) + 1
                yield item

        stream = method(node, counted(), graph)
        clock = obs._clock
        advance = stream.__next__
        counters.setdefault("rows_out", 0)
        while True:
            previous = ctx.span
            ctx.span = span_
            started = clock()
            try:
                item = advance()
            except StopIteration:
                return
            finally:
                span_.elapsed += clock() - started
                ctx.span = previous
            counters["rows_out"] += 1
            yield item

    # -- leaves -------------------------------------------------------------------

    def _eval_Unit(self, node, inputs, graph):
        yield from inputs

    def _eval_BGP(self, node, inputs, graph):
        patterns = node.patterns
        deadline = current_deadline()
        matcher = idjoin.matcher_for(
            patterns, graph, getattr(node, "keep", None)
        )
        for bindings in inputs:
            if deadline is not None:
                deadline.check()
            if matcher is not None:
                try:
                    # the ID-space join runs eagerly inside solve(), so
                    # a Fallback can only escape before the first row
                    yield from matcher.solve(bindings)
                    continue
                except idjoin.Fallback:
                    pass
            yield from self._match_patterns(
                patterns, 0, bindings, graph, deadline
            )

    def _match_patterns(self, patterns, index, bindings, graph,
                        deadline=None):
        if index == len(patterns):
            yield bindings
            return
        pattern = patterns[index]
        for extended in self._match_one(pattern, bindings, graph, deadline):
            yield from self._match_patterns(
                patterns, index + 1, extended, graph, deadline
            )

    def _match_one(self, pattern, bindings, graph, deadline=None):
        subject = self._resolve(pattern.subject, bindings)
        predicate = self._resolve(pattern.predicate, bindings)
        value = self._resolve(pattern.value, bindings)
        for triple in graph.triples(subject, predicate, value):
            # poll inside the innermost scan: a selective pattern over a
            # large graph may iterate long without producing a solution
            if deadline is not None and deadline.expired():
                deadline.check()
            extended = bindings
            consistent = True
            for component, found in (
                (pattern.subject, triple.subject),
                (pattern.predicate, triple.property),
                (pattern.value, triple.value),
            ):
                if isinstance(component, ast.Var):
                    existing = extended.get(component.name)
                    if existing is None:
                        extended = extended.extended(component.name, found)
                    elif existing != found:
                        consistent = False
                        break
            if consistent:
                yield extended

    def _resolve(self, component, bindings):
        if isinstance(component, ast.Var):
            return bindings.get(component.name)
        return component

    def _eval_PathScan(self, node, inputs, graph):
        deadline = current_deadline()
        for bindings in inputs:
            subject = self._resolve(node.subject, bindings)
            value = self._resolve(node.value, bindings)
            for found_subject, found_value in path_eval.eval_path(
                graph, node.path, subject, value
            ):
                if deadline is not None and deadline.expired():
                    deadline.check()
                extended = bindings
                consistent = True
                for component, found in (
                    (node.subject, found_subject),
                    (node.value, found_value),
                ):
                    if isinstance(component, ast.Var):
                        existing = extended.get(component.name)
                        if existing is None:
                            extended = extended.extended(
                                component.name, found
                            )
                        elif existing != found:
                            consistent = False
                            break
                if consistent:
                    yield extended

    def _eval_ValuesTable(self, node, inputs, graph):
        names = [v.name for v in node.variables]
        for bindings in inputs:
            for row in node.rows:
                extended = bindings
                consistent = True
                for name, term in zip(names, row):
                    if term is None:
                        continue                  # UNDEF
                    existing = extended.get(name)
                    if existing is None:
                        extended = extended.extended(name, term)
                    elif existing != term:
                        consistent = False
                        break
                if consistent:
                    yield extended

    # -- binary operators ----------------------------------------------------------

    def _eval_Join(self, node, inputs, graph):
        left_stream = self._eval(node.left, inputs, graph)
        yield from self._eval(node.right, left_stream, graph)

    def _eval_LeftJoin(self, node, inputs, graph):
        # OPTIONAL can multiply rows; charging each emitted solution
        # bounds join-output amplification under a resource scope
        scope = current_scope()
        ebv = Evaluator(self, graph).ebv
        left_stream = self._eval(node.left, inputs, graph)
        for solution in left_stream:
            if scope is not None:
                scope.charge_rows(1, "leftjoin")
            matched = False
            for extended in self._eval(
                node.right, iter([solution]), graph
            ):
                if node.condition is not None:
                    try:
                        if not ebv(node.condition, extended):
                            continue
                    except EvaluationError:
                        continue
                matched = True
                yield extended
            if not matched:
                yield solution

    def _eval_Minus(self, node, inputs, graph):
        scope = current_scope()
        right_solutions = []
        for right in self._eval(node.right, iter([Bindings.EMPTY]), graph):
            if scope is not None:
                scope.charge_rows(1, "minus buffer")
            right_solutions.append(right)
        for solution in self._eval(node.left, inputs, graph):
            excluded = False
            for right in right_solutions:
                if solution.shares_variable(right) and \
                        solution.compatible(right):
                    excluded = True
                    break
            if not excluded:
                yield solution

    def _eval_Union(self, node, inputs, graph):
        for bindings in inputs:
            for branch in node.branches:
                yield from self._eval(branch, iter([bindings]), graph)

    # -- unary operators -------------------------------------------------------------

    def _eval_Filter(self, node, inputs, graph):
        ebv = Evaluator(self, graph).ebv
        for solution in self._eval(node.input, inputs, graph):
            try:
                if ebv(node.expr, solution):
                    yield solution
            except EvaluationError:
                continue

    def _eval_Extend(self, node, inputs, graph):
        name = node.var.name
        evaluator = Evaluator(self, graph)
        for solution in self._eval(node.input, inputs, graph):
            value = evaluator.evaluate_or_none(node.expr, solution)
            if value is None:
                # SciSPARQL section 4.1.2: an array dereference whose
                # subscript variables are unbound *enumerates* the valid
                # subscripts, binding both the index variables and the
                # dereferenced value
                enumerated = False
                if isinstance(node.expr, ast.ArraySubscript):
                    for extension, element in self._enumerate_subscripts(
                        evaluator, node.expr, solution
                    ):
                        enumerated = True
                        extension[name] = _storable(element)
                        yield solution.extended_many(extension.items())
                if enumerated:
                    continue
                yield solution            # BIND error leaves var unbound
                continue
            stored = _storable(value)
            existing = solution.get(name)
            if existing is not None:
                if existing == stored:
                    yield solution
                continue                  # incompatible rebind: drop
            yield solution.extended(name, stored)

    def _eval_GraphScope(self, node, inputs, graph):
        dataset = self._dataset()
        if isinstance(node.graph, ast.Var):
            name = node.graph.name
            for bindings in inputs:
                bound = bindings.get(name)
                if bound is not None:
                    target = dataset.graph(bound, create=False)
                    if target is not None:
                        yield from self._eval(
                            node.input, iter([bindings]), target
                        )
                    continue
                for graph_name, target in dataset.named_graphs().items():
                    extended = bindings.extended(name, graph_name)
                    yield from self._eval(
                        node.input, iter([extended]), target
                    )
        else:
            target = dataset.graph(node.graph, create=False)
            if target is None:
                return
            yield from self._eval(node.input, inputs, graph=target)

    def _eval_Group(self, node, inputs, graph):
        scope = current_scope()
        evaluator = Evaluator(self, graph)
        solutions = []
        for solution in self._eval(node.input, inputs, graph):
            if scope is not None:
                scope.charge_rows(1, "group buffer")
            solutions.append(solution)
        key_exprs = []
        key_names = []
        for expr, alias in node.group_by:
            key_exprs.append(expr)
            if alias is not None:
                key_names.append(alias.name)
            elif isinstance(expr, ast.Var):
                key_names.append(expr.name)
            else:
                key_names.append(None)
        groups: Dict[object, List[Bindings]] = {}
        group_keys: Dict[object, tuple] = {}
        for solution in solutions:
            key_values = []
            for expr in key_exprs:
                value = evaluator.evaluate_or_none(expr, solution)
                key_values.append(
                    _storable(value) if value is not None else None
                )
            key = tuple(
                _hashable(value) for value in key_values
            )
            groups.setdefault(key, []).append(solution)
            group_keys[key] = tuple(key_values)
        if not groups and not node.group_by:
            groups[()] = []
            group_keys[()] = ()
        for key, members in groups.items():
            out = {}
            for name, value in zip(key_names, group_keys[key]):
                if name is not None and value is not None:
                    out[name] = value
            for agg_name, aggregate in node.aggregates.items():
                try:
                    out[agg_name] = _storable(
                        self._compute_aggregate(
                            evaluator, aggregate, members
                        )
                    )
                except EvaluationError:
                    continue             # aggregate error -> unbound
            yield Bindings(out)

    def _compute_aggregate(self, evaluator, aggregate, members):
        values = []
        if aggregate.expr is None:       # COUNT(*)
            values = [True] * len(members)
        else:
            for solution in members:
                value = evaluator.evaluate_or_none(
                    aggregate.expr, solution
                )
                if value is not None:
                    values.append(value)
        return agg.compute(
            aggregate.name, values, aggregate.distinct, aggregate.separator
        )

    def _eval_Project(self, node, inputs, graph):
        names = set(node.variables)
        issuperset = names.issuperset
        for solution in self._eval(node.input, inputs, graph):
            # a solution binding only projected variables passes
            # through untouched (the common SELECT-everything case)
            if issuperset(solution._values):
                yield solution
            else:
                yield solution.project(names)

    def _eval_Distinct(self, node, inputs, graph):
        scope = current_scope()
        seen = set()
        for solution in self._eval(node.input, inputs, graph):
            if solution not in seen:
                # only *retained* solutions grow the hash state; a
                # stream of duplicates costs nothing against the budget
                if scope is not None:
                    scope.charge_rows(1, "distinct hash state")
                seen.add(solution)
                yield solution

    def _sort_key_fn(self, keys, graph):
        """The ORDER BY sort-key callable for one ``keys`` spec."""
        evaluate = Evaluator(self, graph).evaluate_or_none

        def sort_key(solution):
            key = []
            for expr, ascending in keys:
                value = evaluate(expr, solution)
                if value is None:
                    component = (0,)
                else:
                    try:
                        component = term_key(to_term(value))
                    except EvaluationError:
                        component = (0,)
                key.append(_Directional(component, ascending))
            return key

        return sort_key

    def _eval_OrderBy(self, node, inputs, graph):
        scope = current_scope()
        solutions = []
        for solution in self._eval(node.input, inputs, graph):
            if scope is not None:
                scope.charge_rows(1, "orderby buffer")
            solutions.append(solution)
        solutions.sort(key=self._sort_key_fn(node.keys, graph))
        yield from solutions

    def _eval_TopK(self, node, inputs, graph):
        # fused OrderBy -> Slice: a bounded heap keeps the limit+offset
        # smallest solutions (nsmallest is stable, matching sort+slice),
        # so a million-row ORDER BY ... LIMIT 10 never fully sorts
        offset = node.offset or 0
        if node.limit <= 0:
            return
        scope = current_scope()
        if scope is not None:
            # the bounded heap holds at most limit+offset solutions
            scope.charge_rows(node.limit + offset, "topk heap")
        top = heapq.nsmallest(
            node.limit + offset,
            self._eval(node.input, inputs, graph),
            key=self._sort_key_fn(node.keys, graph),
        )
        yield from top[offset:]

    def _eval_Slice(self, node, inputs, graph):
        stream = self._eval(node.input, inputs, graph)
        offset = node.offset or 0
        produced = 0
        for index, solution in enumerate(stream):
            if index < offset:
                continue
            if node.limit is not None and produced >= node.limit:
                return
            produced += 1
            yield solution

    def _eval_SubQuery(self, node, inputs, graph):
        scope = current_scope()
        results = []
        for result in self._eval(node.plan, iter([Bindings.EMPTY]), graph):
            if scope is not None:
                scope.charge_rows(1, "subquery buffer")
            results.append(result)
        for bindings in inputs:
            for result in results:
                if bindings.compatible(result):
                    yield bindings.merge(result)

    def _enumerate_subscripts(self, evaluator, expr, solution):
        """Enumerate valid values of unbound subscript variables.

        For ``?a[?i, 2]`` with ``?i`` unbound, yields one
        ({'i': Literal(k)}, element) pair per valid 1-based index k.
        Yields nothing when the base is unbound, not an array, or the
        subscripts contain no plain unbound variables.
        """
        import itertools
        base = evaluator.evaluate_or_none(expr.base, solution)
        if isinstance(base, ArrayProxy):
            base = base.resolve()
        if not isinstance(base, NumericArray):
            return
        free = []
        for position, sub in enumerate(expr.subscripts):
            if isinstance(sub, ast.Var) and solution.get(sub.name) is None:
                if position >= base.ndim:
                    return
                free.append((position, sub.name))
        if not free:
            return
        names = []
        ranges = []
        seen = set()
        for position, name in free:
            if name in seen:
                continue
            seen.add(name)
            names.append(name)
            ranges.append(range(1, base.shape[position] + 1))
        for combo in itertools.product(*ranges):
            extension = {
                name: Literal(index) for name, index in zip(names, combo)
            }
            extended = solution.extended_many(extension.items())
            value = evaluator.evaluate_or_none(expr, extended)
            if value is not None:
                yield dict(extension), value

    # -- correlated helpers for the expression evaluator ----------------------------

    @staticmethod
    def _memoized(node, translate):
        """``translate(Translator(), node)``, once per request.

        The memo lives in the request context, so it dies with the AST
        it describes; entries keep their node, so an ``id()`` cannot be
        reused by another node while the memo is alive.
        """
        ctx = context.current()
        memo = None if ctx is None else ctx.plans
        if memo is None:
            return translate(Translator(), node)
        entry = memo.get(id(node))
        if entry is None:
            entry = memo[id(node)] = (node, translate(Translator(), node))
        return entry[1]

    def exists(self, pattern, bindings, graph):
        """EXISTS {...}: correlated evaluation with the current solution
        against ``graph``, the active graph of the enclosing operator."""
        plan = self._memoized(pattern, Translator.translate_pattern)
        for _ in self._eval(plan, iter([bindings]), graph):
            return True
        return False

    def call_view(self, function, args):
        """Apply a parameterized view (query-bodied UDF).

        Parameters are pre-bound; following DAPLEX semantics the result is
        the bag of values of the (single) projected variable, returned as
        a Python list — or the single value when the bag has exactly one
        element.
        """
        plan, names = self._memoized(
            function.body, Translator.translate_select
        )
        initial = Bindings({
            param.name: _storable(value)
            for param, value in zip(function.params, args)
        })
        results = list(self._eval(
            plan, iter([initial]), self._dataset().default_graph
        ))
        if len(names) == 1:
            values = [
                solution.get(names[0]) for solution in results
                if solution.get(names[0]) is not None
            ]
            from repro.engine.functions import runtime
            values = [runtime(value) for value in values]
            if len(values) == 1:
                return values[0]
            return values
        return [solution.as_dict() for solution in results]


class _Directional:
    """Sort-key wrapper flipping comparisons for DESC keys."""

    __slots__ = ("key", "ascending")

    def __init__(self, key, ascending):
        self.key = key
        self.ascending = ascending

    def __lt__(self, other):
        if self.ascending:
            return self.key < other.key
        return other.key < self.key

    def __eq__(self, other):
        return self.key == other.key


def _storable(value):
    """Convert a runtime value into the canonical binding representation
    (terms for scalars; arrays, proxies, and callables pass through)."""
    if isinstance(value, (URI, BlankNode, Literal, NumericArray,
                          ArrayProxy)):
        return value
    if isinstance(value, (bool, int, float, str)):
        return Literal(value)
    return value


def _hashable(value):
    try:
        hash(value)
        return value
    except TypeError:
        return repr(value)
