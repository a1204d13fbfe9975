"""Scientific SPARQL (SciSPARQL / SSDM) — a faithful Python reproduction.

Reproduces "Scientific SPARQL: Semantic Web Queries over Scientific Data"
(Andrejev & Risch, ICDE Workshops 2012) and the surrounding SSDM system
from Andrejev's dissertation: the RDF-with-Arrays data model, the
SciSPARQL query language (SPARQL 1.1 + arrays, UDFs, closures,
second-order functions), the query processing pipeline, and scalable
external array storage with lazy proxy resolution.

Quick start::

    from repro import SSDM
    ssdm = SSDM()
    ssdm.load_turtle_text(
        '@prefix : <http://example.org/> . :m :val ((1 2) (3 4)) .'
    )
    print(ssdm.execute(
        'PREFIX : <http://example.org/> '
        'SELECT ?a[2,1] WHERE { ?s :val ?a }'
    ).rows)
"""

from repro.ssdm import SSDM, QueryResult
from repro.rdf import (
    URI, BlankNode, Literal, Graph, Dataset, Namespace,
    RDF, RDFS, XSD, FOAF, QB, OWL,
)
from repro.arrays import NumericArray, ArrayProxy, Span
from repro.storage import (
    MemoryArrayStore, FileArrayStore, SqlArrayStore,
    APRResolver, Strategy,
    DatasetJournal, WriteAheadLog, FaultPlan, SimulatedCrash,
)
from repro.exceptions import (
    SciSparqlError, ParseError, QueryError, EvaluationError, StorageError,
    CorruptionError,
    RequestTimeoutError, RequestCancelledError, ServerOverloadedError,
    ConnectionClosedError, ResourceExhaustedError,
    ReadOnlyError, FencedError, ReplicaLaggingError,
)
from repro.governor import (
    ResourceGovernor, ResourceScope, CircuitBreaker, AdmissionQueue,
    current_scope, resource_scope, get_governor,
)
from repro.lifecycle import Deadline, current_deadline, deadline_scope
from repro.observability import (
    MetricsRegistry, QueryTrace, SlowQueryLog,
    metrics, set_tracing, slow_query_log,
)
from repro.replication import (
    ReplicationState, ReplicationClient, ReplicaSetClient, start_replica,
)

__version__ = "1.0.0"

__all__ = [
    "SSDM",
    "QueryResult",
    "URI",
    "BlankNode",
    "Literal",
    "Graph",
    "Dataset",
    "Namespace",
    "RDF",
    "RDFS",
    "XSD",
    "FOAF",
    "QB",
    "OWL",
    "NumericArray",
    "ArrayProxy",
    "Span",
    "MemoryArrayStore",
    "FileArrayStore",
    "SqlArrayStore",
    "APRResolver",
    "Strategy",
    "DatasetJournal",
    "WriteAheadLog",
    "FaultPlan",
    "SimulatedCrash",
    "SciSparqlError",
    "ParseError",
    "QueryError",
    "EvaluationError",
    "StorageError",
    "CorruptionError",
    "RequestTimeoutError",
    "RequestCancelledError",
    "ServerOverloadedError",
    "ConnectionClosedError",
    "ResourceExhaustedError",
    "ResourceGovernor",
    "ResourceScope",
    "CircuitBreaker",
    "AdmissionQueue",
    "current_scope",
    "resource_scope",
    "get_governor",
    "ReadOnlyError",
    "FencedError",
    "ReplicaLaggingError",
    "ReplicationState",
    "ReplicationClient",
    "ReplicaSetClient",
    "start_replica",
    "Deadline",
    "current_deadline",
    "deadline_scope",
    "MetricsRegistry",
    "QueryTrace",
    "SlowQueryLog",
    "metrics",
    "set_tracing",
    "slow_query_log",
    "__version__",
]
