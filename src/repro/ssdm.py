"""SSDM — the Scientific SPARQL Database Manager facade.

The entry point a downstream user works with (dissertation chapter 5): a
main-memory RDF-with-Arrays store plus the full query pipeline

    parse → translate → rewrite → cost-optimize → evaluate

with optional external array storage behind the ASEI.  Typical use::

    from repro import SSDM
    ssdm = SSDM()
    ssdm.load_turtle_text('@prefix : <http://ex.org/> . :m :val ((1 2) (3 4)) .')
    result = ssdm.execute('PREFIX : <http://ex.org/> SELECT ?a[2,1] WHERE { ?s :val ?a }')
    result.rows   # [(3,)]
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro import context
from repro.arrays.nma import NumericArray
from repro.arrays.proxy import ArrayProxy
from repro.exceptions import (
    QueryError, ReplicaLaggingError, SciSparqlError, SnapshotGoneError,
)
from repro.mvcc import SnapshotManager
from repro.rdf.dataset import Dataset
from repro.rdf.graph import Graph
from repro.rdf.term import BlankNode, Literal
from repro.sparql import ast
from repro.sparql.parser import Parser
from repro.algebra.translator import Translator, translate
from repro.algebra.rewriter import rewrite
from repro.algebra.optimizer import optimize
from repro.engine.bindings import Bindings
from repro.engine.eval import QueryEngine, _storable
from repro.engine.udf import FunctionRegistry
from repro.engine.update import execute_update, instantiate
from repro.lifecycle import Deadline, current_deadline
from repro import observability as obs


class QueryResult:
    """The result of a SELECT query: named columns and value rows.

    Values are runtime values: Python scalars for plain literals, URIs /
    blank nodes / typed literals as terms, and arrays as
    :class:`NumericArray` (or lazy :class:`ArrayProxy` when the value
    still lives in external storage).
    """

    def __init__(self, columns, rows):
        self.columns = list(columns)
        self.rows = rows

    def __len__(self):
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)

    def column(self, name):
        """All values of one column, in row order."""
        index = self.columns.index(name)
        return [row[index] for row in self.rows]

    def scalar(self):
        """The single value of a one-row, one-column result."""
        if len(self.rows) != 1 or len(self.columns) != 1:
            raise QueryError(
                "expected a 1x1 result, got %dx%d"
                % (len(self.rows), len(self.columns))
            )
        return self.rows[0][0]

    def resolved(self):
        """A copy with every ArrayProxy resolved to a resident array."""
        rows = [
            tuple(
                value.resolve() if isinstance(value, ArrayProxy) else value
                for value in row
            )
            for row in self.rows
        ]
        return QueryResult(self.columns, rows)

    def as_dicts(self):
        return [dict(zip(self.columns, row)) for row in self.rows]

    def __repr__(self):
        return "QueryResult(columns=%r, rows=%d)" % (
            self.columns, len(self.rows)
        )


class SSDM:
    """A Scientific SPARQL Database Manager instance.

    Parameters
    ----------
    array_store:
        Optional ASEI back-end (:class:`repro.storage.ArrayStore`).  When
        set, arrays larger than ``externalize_threshold`` elements loaded
        or inserted into the store are shipped to the back-end and
        represented by proxies (the *back-end scenario* of chapter 6).
    externalize_threshold:
        Element-count cutoff above which arrays are externalized
        (default 64; irrelevant without an ``array_store``).
    journal:
        Optional :class:`~repro.storage.durability.DatasetJournal`.
        When set, every update appends its concrete delta to the
        write-ahead log *before* mutating the dataset; use
        :meth:`open` to construct an instance that also replays the
        log on startup (crash recovery).
    """

    def __init__(self, array_store=None, externalize_threshold=64,
                 journal=None):
        self.dataset = Dataset()
        self.functions = FunctionRegistry()
        self.engine = QueryEngine(self.dataset, self.functions)
        self.array_store = array_store
        self.externalize_threshold = int(externalize_threshold)
        self.journal = journal
        #: :class:`~repro.replication.ReplicationState` when this
        #: instance is served as a replication-aware node (the server
        #: sets it); None for embedded use.
        self.replication = None
        #: :class:`~repro.governor.ResourceGovernor` when this instance
        #: is served with admission control (the server sets it); None
        #: for embedded use, where callers may open
        #: ``get_governor().scope(...)`` around ``execute`` themselves.
        self.governor = None
        #: The :class:`~repro.observability.QueryTrace` of the most
        #: recent :meth:`execute` call on this instance (best-effort
        #: under concurrency: server threads each trace their own
        #: request, but ``last_trace`` holds whichever finished last).
        self.last_trace = None
        self.prefixes: Dict[str, str] = {}
        #: MVCC snapshot registry: every read statement pins an
        #: immutable dataset version at its admission seq, so reads
        #: never block behind (or observe half of) an update.
        self.mvcc = SnapshotManager()
        self.dataset.snapshots = self.mvcc
        # prime the published version so concurrent readers always
        # have a consistent state to pin, even before the first write
        self.dataset.publish(0)

    @classmethod
    def open(cls, path, array_store=None, faults=None, fsync=True,
             **kwargs):
        """A durable SSDM: WAL-journaled updates plus crash recovery.

        ``path`` is the journal directory (created on demand) holding
        ``wal.log``.  The log is recovered immediately — truncated at
        the first torn or checksum-failing record, then replayed into
        the fresh dataset — so after a crash the instance reopens in
        the exact state the last fsync'd update left behind.

        ``array_store`` should be a *persistent* back-end
        (:class:`~repro.storage.FileArrayStore` /
        :class:`~repro.storage.SqlArrayStore`); the journal references
        externalized arrays by store id rather than copying chunks into
        the log.  ``faults`` threads a
        :class:`~repro.storage.FaultPlan` into the journal's append
        path for crash-recovery testing.
        """
        from repro.storage.durability import DatasetJournal

        journal = DatasetJournal(
            path, array_store=array_store, faults=faults, fsync=fsync
        )
        instance = cls(
            array_store=array_store, journal=journal, **kwargs
        )
        if faults is not None:
            instance.dataset.set_faults(faults)
        journal.replay(instance.dataset)
        return instance

    def snapshot(self):
        """Compact the journal to the dataset's current state.

        Long logs replay slowly; a snapshot rewrites the log as one
        CLEAR ALL record plus one insert record per non-empty graph
        (atomically, so a crash mid-snapshot keeps the old log).
        Returns the new last sequence number, or None without a
        journal.
        """
        if self.journal is None:
            return None
        return self.journal.snapshot(self.dataset)

    def close(self):
        """Release the journal's file handle (safe to call twice)."""
        if self.journal is not None:
            self.journal.close()

    @classmethod
    def with_triple_store(cls, graph, **kwargs):
        """An SSDM whose default graph is a custom triple store.

        Used with :class:`repro.storage.sqlgraph.SqlTripleGraph` for the
        full back-end scenario of chapter 6 (both metadata triples and
        array chunks live in the RDBMS)::

            ssdm = SSDM.with_triple_store(SqlTripleGraph("data.db"))
        """
        instance = cls(**kwargs)
        instance.dataset.default_graph = graph
        if instance.array_store is None:
            instance.array_store = getattr(graph, "array_store", None)
        return instance

    # -- configuration ------------------------------------------------------------

    def prefix(self, name, base):
        """Register a persistent namespace prefix for all queries."""
        self.prefixes[name] = base
        return self

    def register_function(self, name, fn, cost=1.0, fanout=1.0):
        """Expose a Python callable as a SciSPARQL foreign function."""
        return self.functions.register_foreign(name, fn, cost, fanout)

    def stats(self):
        """Storage-traffic and buffer-pool counters of this instance.

        Returns a dict with a ``storage`` block (the array store's
        :class:`~repro.storage.asei.StorageStats` snapshot, or None
        without an ``array_store``), a ``buffer_pool`` block (the chunk
        pool's hit/miss/prefetch counters), a ``graph`` block (term
        dictionary size plus the default graph's permutation-index
        footprint, when the store exposes them), and the store's
        ``last_resolve`` statistics when a resolve has happened.
        """
        from repro.storage.bufferpool import shared_pool

        store = self.array_store
        pool = getattr(store, "buffer_pool", None)
        if pool is None:
            pool = shared_pool()
        graph = self.dataset.default_graph
        index_stats = getattr(graph, "index_stats", None)
        graph_block = dict(index_stats() if index_stats else {})
        graph_block["dictionary"] = self.dataset.term_dictionary.stats()
        return {
            "graph": graph_block,
            "storage": store.stats.snapshot() if store is not None else None,
            "buffer_pool": pool.stats(),
            "metrics": obs.metrics().snapshot(),
            "last_resolve": getattr(store, "last_resolve_stats", None),
            "durability": {
                "journal": (
                    self.journal.stats() if self.journal is not None
                    else None
                ),
                "last_verify": getattr(store, "last_verify", None),
            },
            "replication": (
                dict(
                    self.replication.snapshot(),
                    wal_seq=(
                        self.journal.last_seq if self.journal is not None
                        else None
                    ),
                )
                if self.replication is not None else None
            ),
            "governor": (
                self.governor.snapshot()
                if self.governor is not None else None
            ),
            "mvcc": self._mvcc_stats(),
        }

    def _mvcc_stats(self):
        """Snapshot-isolation counters for the ``stats`` surface."""
        block = self.mvcc.stats()
        block["published_seq"] = self.dataset.published_seq
        consolidations = self.dataset.default_graph._flushes
        for graph in self.dataset.named_graphs().values():
            consolidations += graph._flushes
        block["consolidations"] = int(consolidations)
        return block

    @property
    def graph(self):
        return self.dataset.default_graph

    # -- data entry ----------------------------------------------------------------

    def add(self, subject, prop, value, graph=None):
        """Insert one triple, externalizing large array values."""
        target = self.dataset.graph(graph)
        target.add(subject, prop, self._store_array(value))
        return self

    def _store_array(self, value):
        """Ship a resident array to the back-end when configured."""
        if (
            self.array_store is not None
            and isinstance(value, NumericArray)
            and value.element_count > self.externalize_threshold
        ):
            return self.array_store.put(value)
        return value

    def load_turtle_text(self, text, graph=None, consolidate=True):
        """Load Turtle data; RDF collections of numbers consolidate into
        arrays (section 5.3.2).  Returns the number of triples added."""
        from repro.loaders.turtle import load_turtle_text
        return load_turtle_text(
            self, text, graph=graph, consolidate=consolidate
        )

    def load_turtle(self, path, graph=None, consolidate=True):
        with open(path) as handle:
            return self.load_turtle_text(
                handle.read(), graph=graph, consolidate=consolidate
            )

    def load_data_cube(self, graph=None):
        """Consolidate RDF Data Cube observations already loaded in the
        graph into arrays (section 5.3.3)."""
        from repro.loaders.datacube import consolidate_data_cube
        return consolidate_data_cube(self, graph=graph)

    def link_file(self, subject, prop, path, graph=None):
        """Attach an external array file (.npy) as a lazy file link."""
        from repro.loaders.filelink import link_npy
        return link_npy(self, subject, prop, path, graph=graph)

    # -- the query pipeline ----------------------------------------------------------

    def parse(self, text):
        return Parser(text, prefixes=self.prefixes).parse()

    def plan(self, text_or_ast, graph=None):
        """Translate + rewrite + optimize; returns (plan, columns)."""
        query = (
            self.parse(text_or_ast) if isinstance(text_or_ast, str)
            else text_or_ast
        )
        with obs.span("plan"):
            plan, columns = translate(query)
            with obs.span("rewrite"):
                plan = rewrite(plan)
            target = self.dataset.graph(None) if graph is None else graph
            plan = optimize(plan, target)
        return plan, columns

    def explain(self, text, objectlog=False, costs=False, analyze=False):
        """The optimized logical plan, pretty-printed.

        With ``objectlog=True`` renders the Datalog-style DNF rules of
        the translated query instead (the ObjectLog form of section
        5.4.4 the host DBMS optimizes).  With ``costs=True``, BGP lines
        are followed by per-pattern cardinality estimates in the order
        the optimizer chose.  With ``analyze=True`` the query is
        *executed* and the plan is followed by the recorded span tree —
        per-phase and per-operator wall times, row counts, and storage
        counters (EXPLAIN ANALYZE).
        """
        plan, columns = self.plan(text)
        if objectlog:
            from repro.algebra.objectlog import to_objectlog
            return to_objectlog(plan, columns)
        text_out = plan.explain()
        if costs:
            from repro.algebra.cost import CostModel
            from repro.algebra.logical import BGP
            from repro.algebra.objectlog import _term
            model = CostModel(self.dataset.default_graph)
            lines = [text_out, "", "-- cost estimates --"]
            stack = [plan]
            while stack:
                node = stack.pop()
                if isinstance(node, BGP):
                    for pattern, estimate in model.annotate_bgp(
                        node.patterns
                    ):
                        lines.append(
                            "  %s %s %s  ~%.1f" % (
                                _term(pattern.subject),
                                _term(pattern.predicate),
                                _term(pattern.value),
                                estimate,
                            )
                        )
                stack.extend(node.children())
            text_out = "\n".join(lines)
        if analyze:
            result, trace = self._request(text)
            lines = [text_out, ""]
            if trace is not None:
                lines.append(trace.render())
            else:
                lines.append("-- trace unavailable (tracing disabled) --")
            if isinstance(result, QueryResult):
                lines.append("-- %d row(s) --" % len(result))
            text_out = "\n".join(lines)
        return text_out

    def execute(self, text, bindings=None, deadline=None, timeout=None,
                at_seq=None):
        """Parse and execute any SciSPARQL statement.

        Returns a :class:`QueryResult` for SELECT, ``bool`` for ASK, a
        :class:`Graph` for CONSTRUCT / DESCRIBE, an update count for
        updates, and the registered function for DEFINE FUNCTION.

        ``deadline`` (a :class:`~repro.lifecycle.Deadline`) or
        ``timeout`` (seconds) bound the execution: the engine, APR, and
        ASEI loops poll the deadline cooperatively and abort with
        :class:`~repro.exceptions.RequestTimeoutError` once it expires.
        Without either, the deadline of the enclosing request context
        (the SSDM server installs one per request) still applies.

        ``at_seq`` pins a read statement to the *exact* MVCC version
        published at that WAL seq: ahead of the applied state raises
        :class:`~repro.exceptions.ReplicaLaggingError` (retryable —
        the replica is catching up), behind the retention window raises
        :class:`~repro.exceptions.SnapshotGoneError`.  Without it,
        reads pin the latest published version at admission.
        """
        return self._request(text, bindings, deadline, timeout, at_seq)[0]

    def _request(self, text, bindings=None, deadline=None, timeout=None,
                 at_seq=None):
        """Run one statement in its own request context; returns
        (result, trace).

        The context derives from the enclosing one, so a nested execute
        (a user-defined function issuing a sub-query) keeps its
        caller's deadline, budget and snapshot — one statement never
        mixes two versions — while getting its own trace, plan memo
        and dataset view.
        """
        if deadline is None and timeout is not None:
            deadline = Deadline(timeout)
        if deadline is None:
            deadline = current_deadline()
        else:
            deadline.check()
        with obs.trace_query(text, deadline=deadline, dataset_view=None,
                             plans={}) as trace:
            if trace is not None:
                self.last_trace = trace
            return self._execute(text, bindings, at_seq), trace

    def _execute(self, text, bindings, at_seq):
        """Parse and run one statement inside its request context."""
        with obs.span("parse"):
            statement = self.parse(text)
        if isinstance(statement, ast.SelectQuery):
            run = self._run_select
        elif isinstance(statement, ast.AskQuery):
            run = self._run_ask
        elif isinstance(statement, ast.ConstructQuery):
            run = self._run_construct
        elif isinstance(statement, ast.DescribeQuery):
            run = self._run_describe
        else:
            run = None
        if run is not None:
            ctx = context.current()
            if ctx.snapshot is not None and at_seq is None:
                return run(statement, bindings)
            # pin the statement to one immutable dataset version, which
            # the graph read paths route through
            with self.mvcc.reading(self._resolve_version(at_seq)) as pin:
                ctx.snapshot = pin
                return run(statement, bindings)
        if at_seq is not None:
            raise QueryError("at_seq applies to read statements only")
        if isinstance(statement, ast.FunctionDefinition):
            return self.functions.define(
                statement.name, statement.params, statement.body
            )
        if isinstance(statement, (ast.InsertData, ast.DeleteData,
                                  ast.Modify, ast.ClearGraph)):
            with obs.span("execute"):
                return execute_update(
                    self.engine, self.dataset, statement,
                    store_array=self._store_array,
                    journal=self.journal,
                )
        raise QueryError("cannot execute %r" % (statement,))

    def _resolve_version(self, at_seq):
        dataset = self.dataset
        current = dataset.capture()
        if at_seq is None or at_seq == current.seq:
            return current
        if at_seq > current.seq:
            raise ReplicaLaggingError(
                "requested seq %d is ahead of applied seq %d"
                % (at_seq, current.seq)
            )
        retained = self.mvcc.retained(at_seq)
        if retained is None:
            raise SnapshotGoneError(
                "version at seq %d is no longer retained "
                "(applied seq is %d)" % (at_seq, current.seq)
            )
        return retained

    def select(self, text, bindings=None):
        result = self.execute(text, bindings)
        if not isinstance(result, QueryResult):
            raise QueryError("not a SELECT query")
        return result

    def ask(self, text):
        result = self.execute(text)
        if not isinstance(result, bool):
            raise QueryError("not an ASK query")
        return result

    # -- internals -----------------------------------------------------------------

    def _run_select(self, query, bindings=None):
        columns, solutions = self._prepare(query, bindings)
        budget = context.current().budget
        rows = []
        append = rows.append
        with obs.span("execute") as timing:
            for solution in solutions:
                if budget is not None:
                    budget.charge_rows(1, "result materialization")
                get = solution.mapping().get
                append(tuple([_output(get(name)) for name in columns]))
            if timing is not None:
                timing.add("rows", len(rows))
        return QueryResult(columns, rows)

    def _prepare(self, query, bindings):
        """Plan ``query``, honouring its dataset clauses.

        ``FROM`` graphs merge into the query's active default graph;
        ``FROM NAMED`` restricts which named graphs GRAPH patterns see
        (section 3.3.4).  Both become the ``dataset_view`` of this
        request's context — never state on the shared engine — so
        concurrent queries cannot see each other's clauses.  Returns
        (columns, solutions): the engine's lazy solution stream, to be
        consumed under the caller's ``execute`` span.
        """
        graph = self.dataset.default_graph
        from_graphs = getattr(query, "from_graphs", None) or []
        from_named = getattr(query, "from_named", None) or []
        if from_graphs or from_named:
            graph = Graph()
            for name in from_graphs:
                source = self.dataset.graph(name, create=False)
                if source is not None:
                    graph.update(source.triples())
            context.current().dataset_view = _RestrictedDataset(
                self.dataset, from_named or None, graph
            )
        plan, columns = self.plan(query, graph)
        if bindings is not None:
            bindings = Bindings({
                name: _storable(value) for name, value in bindings.items()
            })
        return columns, self.engine.run(plan, graph, bindings)

    def _run_ask(self, query, bindings=None):
        _, solutions = self._prepare(query, bindings)
        with obs.span("execute"):
            for _ in solutions:
                return True
        return False

    def _run_construct(self, query, bindings=None):
        _, solutions = self._prepare(query, bindings)
        out = Graph()
        with obs.span("execute"):
            for solution in solutions:
                fresh: Dict[str, BlankNode] = {}
                for template in query.template:
                    triple = instantiate(template, solution, fresh)
                    if triple is not None:
                        out.add(*triple)
        return out

    def _run_describe(self, query, bindings=None):
        out = Graph()
        targets = []
        if query.where is not None:
            _, solutions = self._prepare(query, bindings)
            with obs.span("execute"):
                for solution in solutions:
                    for term in query.terms:
                        if isinstance(term, ast.Var):
                            value = solution.get(term.name)
                            if value is not None:
                                targets.append(value)
                        else:
                            targets.append(term)
        else:
            targets = [
                term for term in query.terms
                if not isinstance(term, ast.Var)
            ]
        for target in targets:
            for triple in self.dataset.default_graph.triples(target):
                out.add_triple(triple)
        return out


class _RestrictedDataset:
    """A query-scoped view of a dataset (FROM / FROM NAMED clauses).

    ``named`` is the list of graph names visible to GRAPH patterns
    (None = all of the base dataset's named graphs); the default graph
    is replaced by the merged FROM graph.
    """

    def __init__(self, base, named, default_graph):
        self._base = base
        self._named = None if named is None else set(named)
        self.default_graph = default_graph

    def graph(self, name=None, create=False):
        if name is None:
            return self.default_graph
        if self._named is not None and name not in self._named:
            return None
        return self._base.graph(name, create=False)

    def named_graphs(self):
        graphs = self._base.named_graphs()
        if self._named is None:
            return graphs
        return {
            name: graph for name, graph in graphs.items()
            if name in self._named
        }


def _output(value):
    """Convert a stored binding to the user-facing runtime value.

    Inlines :func:`repro.engine.functions.runtime` — this runs once per
    result cell, so the extra call per cell is measurable on large
    results.
    """
    if isinstance(value, Literal):
        if value.lang is None and isinstance(
            value.value, (int, float, bool, str)
        ):
            return value.value
    return value
