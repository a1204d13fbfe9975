"""FROM / FROM NAMED dataset clauses (section 3.3.4)."""

import sys
import threading

import pytest

from repro import SSDM, Literal, URI
from repro.client import SSDMClient, SSDMServer
from repro.engine import idjoin
from repro.rdf.hashgraph import HashIndexGraph


@pytest.fixture
def multi(ssdm):
    ssdm.load_turtle_text("@prefix ex: <http://e/> . ex:a ex:p 0 .")
    ssdm.load_turtle_text(
        "@prefix ex: <http://e/> . ex:a ex:p 1 .",
        graph=URI("http://g/one"),
    )
    ssdm.load_turtle_text(
        "@prefix ex: <http://e/> . ex:a ex:p 2 .",
        graph=URI("http://g/two"),
    )
    return ssdm


class TestFrom:
    def test_from_replaces_default(self, multi):
        r = multi.execute(
            "SELECT ?v FROM <http://g/one> WHERE { ?s ?p ?v }"
        )
        assert r.column("v") == [1]

    def test_from_merges_multiple(self, multi):
        r = multi.execute(
            "SELECT ?v FROM <http://g/one> FROM <http://g/two> "
            "WHERE { ?s ?p ?v } ORDER BY ?v"
        )
        assert r.column("v") == [1, 2]

    def test_from_unknown_graph_empty(self, multi):
        r = multi.execute(
            "SELECT ?v FROM <http://g/none> WHERE { ?s ?p ?v }"
        )
        assert r.rows == []

    def test_without_from_uses_default(self, multi):
        r = multi.execute("SELECT ?v WHERE { ?s ?p ?v }")
        assert r.column("v") == [0]

    def test_state_restored_after_query(self, multi):
        multi.execute("SELECT ?v FROM <http://g/one> WHERE { ?s ?p ?v }")
        r = multi.execute("SELECT ?v WHERE { ?s ?p ?v }")
        assert r.column("v") == [0]
        assert multi.engine.dataset is multi.dataset

    def test_ask_with_from(self, multi):
        assert multi.execute(
            "ASK FROM <http://g/two> { ?s ?p 2 }"
        ) is True
        assert multi.execute(
            "ASK FROM <http://g/two> { ?s ?p 0 }"
        ) is False


class TestFromNamed:
    def test_from_named_restricts_graph_patterns(self, multi):
        r = multi.execute(
            "SELECT ?g ?v FROM NAMED <http://g/one> "
            "WHERE { GRAPH ?g { ?s ?p ?v } }"
        )
        assert r.rows == [(URI("http://g/one"), 1)]

    def test_from_named_hides_other_graphs(self, multi):
        r = multi.execute(
            "SELECT ?v FROM NAMED <http://g/one> "
            "WHERE { GRAPH <http://g/two> { ?s ?p ?v } }"
        )
        assert r.rows == []

    def test_from_named_empties_default(self, multi):
        # with only FROM NAMED, the query's default graph is empty
        r = multi.execute(
            "SELECT ?v FROM NAMED <http://g/one> WHERE { ?s ?p ?v }"
        )
        assert r.rows == []

    def test_from_and_from_named_combine(self, multi):
        r = multi.execute(
            "SELECT ?v ?w FROM <http://g/one> FROM NAMED <http://g/two> "
            "WHERE { ?s ?p ?v GRAPH <http://g/two> { ?s ?p ?w } }"
        )
        assert r.rows == [(1, 2)]

    def test_construct_with_from(self, multi):
        g = multi.execute(
            "PREFIX ex: <http://e/> "
            "CONSTRUCT { ?s ex:copy ?v } FROM <http://g/two> "
            "WHERE { ?s ex:p ?v }"
        )
        assert len(g) == 1


# -- EXISTS inside GRAPH tests the active graph ------------------------------

EX = "http://e/"
G1 = URI("http://g/one")


def _exists_fixture(ssdm, oracle):
    """``ex:a`` has ``ex:q`` only in <g/one>; ``ex:b`` only in the
    default graph — so the two graphs disagree on every EXISTS."""
    if oracle:
        ssdm.dataset.default_graph = HashIndexGraph()
        ssdm.dataset._named[G1] = HashIndexGraph(name=G1)
    default, named = ssdm.dataset.default_graph, ssdm.dataset.graph(G1)
    for subject in ("a", "b"):
        named.add(URI(EX + subject), URI(EX + "p"), Literal(1))
    named.add(URI(EX + "a"), URI(EX + "q"), Literal(7))
    default.add(URI(EX + "b"), URI(EX + "q"), Literal(7))
    return ssdm


@pytest.fixture(params=["fast", "interpreter", "oracle"])
def engine_variant(request):
    """The ID-space fast path, the per-row interpreter over the same
    graphs, and the interpreter over the ``HashIndexGraph`` oracle."""
    idjoin.set_enabled(request.param == "fast")
    try:
        yield request.param
    finally:
        idjoin.set_enabled(True)


class TestExistsInsideGraph:
    QUERY = (
        "PREFIX ex: <http://e/> SELECT ?s WHERE { GRAPH <http://g/one> "
        "{ ?s ex:p ?o FILTER %s { ?s ex:q ?x } } }"
    )

    def test_exists_matches_the_named_graph(self, ssdm, engine_variant):
        _exists_fixture(ssdm, engine_variant == "oracle")
        result = ssdm.execute(self.QUERY % "EXISTS")
        assert result.column("s") == [URI(EX + "a")]

    def test_not_exists_matches_the_named_graph(self, ssdm, engine_variant):
        _exists_fixture(ssdm, engine_variant == "oracle")
        result = ssdm.execute(self.QUERY % "NOT EXISTS")
        assert result.column("s") == [URI(EX + "b")]

    def test_exists_outside_graph_still_tests_default(self, ssdm,
                                                      engine_variant):
        _exists_fixture(ssdm, engine_variant == "oracle")
        result = ssdm.execute(
            "PREFIX ex: <http://e/> SELECT ?s WHERE { "
            "GRAPH <http://g/one> { ?s ex:p ?o } "
            "FILTER EXISTS { ?s ex:q ?x } }"
        )
        assert result.column("s") == [URI(EX + "b")]


# -- dataset clauses are per request, not per engine --------------------------

RESTRICTED = (
    "SELECT ?v FROM NAMED <http://g/one> WHERE { GRAPH ?g { ?s ?p ?v } }"
)
UNRESTRICTED = (
    "SELECT DISTINCT ?g WHERE { GRAPH ?g { ?s ?p ?v } } ORDER BY ?g"
)
BOTH = [URI("http://g/one"), URI("http://g/two")]


@pytest.fixture
def bulky(multi):
    """``multi`` with enough triples in <g/one> that the restricted
    query spends most of its time evaluating, i.e. with its dataset
    view installed."""
    graph = multi.dataset.graph(URI("http://g/one"))
    for i in range(400):
        graph.add(URI("http://e/s%d" % i), URI("http://e/p"), Literal(i))
    return multi


def _race(restricted, unrestricted, rounds=200):
    """Loop ``restricted()`` on one thread while this thread checks that
    ``unrestricted()`` keeps seeing both named graphs; returns the
    wrong answers observed."""
    stop = threading.Event()
    errors = []

    def hammer():
        try:
            while not stop.is_set():
                restricted()
        except Exception as error:      # noqa: BLE001 - reported below
            errors.append(error)

    thread = threading.Thread(target=hammer)
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    wrong = []
    try:
        thread.start()
        for _ in range(rounds):
            seen = unrestricted()
            if seen != BOTH:
                wrong.append(seen)
    finally:
        stop.set()
        thread.join(timeout=10.0)
        sys.setswitchinterval(previous)
    assert not thread.is_alive()
    assert errors == []
    return wrong


class TestConcurrentDatasetViews:
    @pytest.mark.parametrize("fast_path", [True, False])
    def test_from_named_does_not_leak_across_threads(self, bulky,
                                                     fast_path):
        multi = bulky
        idjoin.set_enabled(fast_path)
        try:
            wrong = _race(
                lambda: multi.execute(RESTRICTED),
                lambda: multi.execute(UNRESTRICTED).column("g"),
            )
        finally:
            idjoin.set_enabled(True)
        assert wrong == []

    def test_from_named_does_not_leak_across_connections(self, bulky):
        server = SSDMServer(bulky, port=0).start()
        port = server.server_address[1]
        one = SSDMClient("127.0.0.1", port)
        two = SSDMClient("127.0.0.1", port)
        try:
            wrong = _race(
                lambda: one.query(RESTRICTED),
                lambda: two.query(UNRESTRICTED).column("g"),
                rounds=100,
            )
        finally:
            one.close()
            two.close()
            server.stop()
        assert wrong == []
