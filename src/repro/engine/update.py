"""SPARQL Update execution (INSERT/DELETE DATA, DELETE/INSERT WHERE).

Updates run against the dataset held by an SSDM instance; WHERE clauses go
through the same translate → rewrite → optimize → evaluate pipeline as
queries, and all deletions/insertions are collected before being applied
(the standard snapshot semantics of SPARQL Update).
"""

from __future__ import annotations

from typing import List

from repro.exceptions import QueryError
from repro.rdf.term import BlankNode, Literal, URI
from repro.sparql import ast
from repro.algebra.translator import Translator
from repro.algebra.rewriter import rewrite
from repro.algebra.optimizer import optimize
from repro.engine.bindings import Bindings
from repro.engine.eval import _storable
from repro.storage.durability import invalidate_pooled


def execute_update(engine, dataset, update, store_array=None, journal=None):
    """Execute one update AST; returns the number of triples affected.

    ``store_array`` is an optional callable mapping a resident array to
    its stored representation (SSDM passes its back-end hook so inserted
    arrays land in external storage).

    ``journal`` is an optional
    :class:`~repro.storage.durability.DatasetJournal`.  The concrete
    delta of the update — the triples actually inserted and deleted,
    with array values already externalized so proxies carry their final
    store ids — is appended (and fsync'd) *before* the dataset mutates.
    A crash before the append loses the whole update; a crash after it
    replays the whole update: never half of one.  Array chunks are
    shipped to the back-end before the append, so the worst crash
    outcome is an orphaned (unreferenced) array, which ``verify()``
    surfaces — never a journal record pointing at missing chunks.
    """
    if isinstance(update, ast.InsertData):
        graph = dataset.graph(update.graph)
        insertions = [
            (s, p, store_array(v) if store_array is not None else v)
            for s, p, v in _instantiate_all(update.triples, Bindings.EMPTY)
        ]
        seq = None
        if journal is not None:
            seq = journal.log_update(
                "insert", update.graph, insert=insertions,
                dictionary=dataset.term_dictionary,
            )
        with dataset.writing(seq):
            for triple in insertions:
                graph.add(*triple)
        return len(insertions)
    if isinstance(update, ast.DeleteData):
        graph = dataset.graph(update.graph)
        deletions = _instantiate_all(update.triples, Bindings.EMPTY)
        seq = None
        if journal is not None:
            seq = journal.log_update(
                "delete", update.graph, delete=deletions
            )
        count = 0
        with dataset.writing(seq):
            for triple in deletions:
                if graph.remove(triple[0], triple[1], triple[2]):
                    invalidate_pooled(triple[2])
                    count += 1
        return count
    if isinstance(update, ast.Modify):
        graph = dataset.graph(update.graph)
        plan = rewrite(Translator().translate_pattern(update.where))
        plan = optimize(plan, graph)
        solutions = list(engine.run(plan, graph=graph))
        deletions = []
        insertions = []
        for solution in solutions:
            deletions.extend(
                _instantiate_all(update.delete_template, solution,
                                 skip_unbound=True)
            )
            insertions.extend(
                (s, p, store_array(v) if store_array is not None else v)
                for s, p, v in _instantiate_all(
                    update.insert_template, solution, skip_unbound=True
                )
            )
        seq = None
        if journal is not None:
            seq = journal.log_update(
                "modify", update.graph,
                insert=insertions, delete=deletions,
                dictionary=dataset.term_dictionary,
            )
        count = 0
        with dataset.writing(seq):
            for triple in deletions:
                if graph.remove(*triple):
                    invalidate_pooled(triple[2])
                    count += 1
            for triple in insertions:
                graph.add(*triple)
                count += 1
        return count
    if isinstance(update, ast.ClearGraph):
        if update.graph == "ALL":
            seq = None
            if journal is not None:
                seq = journal.log_update("clear", "ALL")
            count = len(dataset)
            with dataset.writing(seq):
                for graph in [dataset.default_graph] + list(
                    dataset.named_graphs().values()
                ):
                    _invalidate_graph_arrays(graph)
                    graph.clear()
            return count
        graph = dataset.graph(update.graph, create=False)
        if graph is None:
            return 0
        seq = None
        if journal is not None:
            seq = journal.log_update("clear", update.graph)
        count = len(graph)
        with dataset.writing(seq):
            _invalidate_graph_arrays(graph)
            graph.clear()
        return count
    raise QueryError("unsupported update %r" % (update,))


def _invalidate_graph_arrays(graph):
    """Invalidate pooled chunks of every array value in a graph."""
    for triple in list(graph.triples()):
        invalidate_pooled(triple.value)


def _instantiate_all(templates, bindings, skip_unbound=False):
    """Instantiate template triples against one solution.

    Parser-generated anonymous variables (blank-node shorthand) become
    fresh blank nodes, one per (template, solution) combination.
    """
    fresh = {}
    out = []
    for template in templates:
        triple = instantiate(template, bindings, fresh)
        if triple is None:
            if skip_unbound:
                continue
            raise QueryError(
                "unbound variable in update template %r" % (template,)
            )
        out.append(triple)
    return out


def instantiate(template, bindings, fresh):
    """One template triple under ``bindings``, or None when a variable
    is unbound or a component is not a legal term for its position;
    ``fresh`` maps parser-generated anonymous variables to the blank
    nodes minted for this solution (shared with CONSTRUCT)."""
    components = []
    for index, component in enumerate(
        (template.subject, template.predicate, template.value)
    ):
        if isinstance(component, ast.Var):
            if component.name.startswith("_anon"):
                value = fresh.setdefault(component.name, BlankNode())
            else:
                value = bindings.get(component.name)
                if value is None:
                    return None
            components.append(value)
        else:
            components.append(component)
    subject, predicate, value = components
    if not isinstance(subject, (URI, BlankNode)) or not isinstance(
        predicate, URI
    ):
        return None
    return (subject, predicate, value)
