"""Tests for the query network builder/validator."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dsps import GraphError, QueryGraph
from repro.dsps.operator import SinkOperator, SourceOperator, StatelessMapOperator
from repro.dsps.operator import Emit


class TinySource(SourceOperator):
    def generate(self):
        yield (1.0, Emit(payload=1, size=100))


def _src():
    return [TinySource()]


def _mapop():
    return [StatelessMapOperator(lambda x: x)]


def _sink():
    return [SinkOperator()]


def chain_graph():
    g = QueryGraph()
    g.add_hau("s", _src, is_source=True)
    g.add_hau("m", _mapop)
    g.add_hau("k", _sink, is_sink=True)
    g.connect("s", "m")
    g.connect("m", "k")
    return g


def test_valid_chain_passes():
    g = chain_graph()
    g.validate()
    assert g.sources() == ["s"]
    assert g.sinks() == ["k"]
    assert g.upstream("m") == ["s"]
    assert g.downstream("m") == ["k"]
    assert len(g) == 3


def test_duplicate_hau_rejected():
    g = QueryGraph()
    g.add_hau("a", _mapop)
    with pytest.raises(GraphError):
        g.add_hau("a", _mapop)


def test_unknown_endpoint_rejected():
    g = QueryGraph()
    g.add_hau("a", _mapop)
    with pytest.raises(GraphError):
        g.connect("a", "b")


def test_duplicate_edge_rejected():
    g = chain_graph()
    with pytest.raises(GraphError):
        g.connect("s", "m")


def test_cycle_rejected():
    g = QueryGraph()
    g.add_hau("s", _src, is_source=True)
    g.add_hau("a", _mapop)
    g.add_hau("b", _mapop)
    g.add_hau("k", _sink, is_sink=True)
    g.connect("s", "a")
    g.connect("a", "b")
    g.connect("b", "a", src_port=1, dst_port=1)
    g.connect("b", "k")
    with pytest.raises(GraphError, match="cycle"):
        g.validate()


def test_source_with_inbound_rejected():
    g = QueryGraph()
    g.add_hau("s1", _src, is_source=True)
    g.add_hau("s2", _src, is_source=True)
    g.add_hau("k", _sink, is_sink=True)
    g.connect("s1", "s2")
    g.connect("s2", "k")
    with pytest.raises(GraphError, match="inbound"):
        g.validate()


def test_sink_with_outbound_rejected():
    g = QueryGraph()
    g.add_hau("s", _src, is_source=True)
    g.add_hau("k", _sink, is_sink=True)
    g.add_hau("m", _mapop)
    g.connect("s", "k")
    g.connect("k", "m")
    g.connect("m", "m2") if False else None
    with pytest.raises(GraphError):
        g.validate()


def test_orphan_hau_rejected():
    g = chain_graph()
    g.add_hau("orphan", _mapop)
    with pytest.raises(GraphError):
        g.validate()


def test_no_sources_rejected():
    g = QueryGraph()
    g.add_hau("a", _mapop)
    g.add_hau("b", _mapop)
    g.connect("a", "b")
    with pytest.raises(GraphError):
        g.validate()


def test_noncontiguous_input_ports_rejected():
    g = QueryGraph()
    g.add_hau("s", _src, is_source=True)
    g.add_hau("j", _mapop)
    g.connect("s", "j", dst_port=1)  # port 0 missing
    with pytest.raises(GraphError, match="ports"):
        g.validate()


def test_bad_routing_mode_rejected():
    g = chain_graph()
    with pytest.raises(GraphError):
        g.connect("s", "k", src_port=1, routing="magic")


def test_topological_order_respects_edges():
    g = chain_graph()
    order = g.topological_order()
    assert order.index("s") < order.index("m") < order.index("k")


def test_fanout_and_ports():
    g = QueryGraph()
    g.add_hau("s", _src, is_source=True)
    g.add_hau("a", _mapop)
    g.add_hau("b", _mapop)
    g.add_hau("k", _sink, is_sink=True)
    g.connect("s", "a")
    g.connect("s", "b")
    g.connect("a", "k", dst_port=0)
    g.connect("b", "k", dst_port=1)
    g.validate()
    assert g.downstream("s") == ["a", "b"]
    assert len(g.in_edges("k")) == 2


# -- adjacency indexes --------------------------------------------------------

def _scan_queries(g, hau_id):
    """The definitional (whole-edge-list) answers the indexes must match."""
    outs = [e for e in g.edges if e.src == hau_id]
    ins = [e for e in g.edges if e.dst == hau_id]
    return outs, ins, sorted({e.src for e in ins}), sorted({e.dst for e in outs})


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.one_of(
            st.tuples(st.just("hau"), st.integers(0, 11)),
            st.tuples(
                st.just("edge"), st.integers(0, 11), st.integers(0, 11),
                st.integers(0, 2), st.integers(0, 2),
            ),
        ),
        max_size=60,
    )
)
def test_indexed_queries_equal_list_scans(ops):
    """After any add_hau/connect sequence (rejected calls included) the
    indexed queries return the list scans' elements in the same order."""
    g = QueryGraph()
    for op in ops:
        try:
            if op[0] == "hau":
                g.add_hau(f"h{op[1]}", _mapop)
            else:
                _, a, b, sp, dp = op
                if a < b:  # forward edges only: a DAG by construction
                    g.connect(f"h{a}", f"h{b}", src_port=sp, dst_port=dp)
        except GraphError:
            pass  # duplicate HAU / unknown endpoint / duplicate edge
        for hau_id in g.haus:
            outs, ins, ups, downs = _scan_queries(g, hau_id)
            assert g.out_edges(hau_id) == outs
            assert g.in_edges(hau_id) == ins
            assert g.upstream(hau_id) == ups
            assert g.downstream(hau_id) == downs
            assert [g.in_edge_index(e) for e in ins] == list(range(len(ins)))


def test_query_results_are_copies():
    g = chain_graph()
    g.out_edges("s").clear()
    g.in_edges("m").clear()
    assert len(g.out_edges("s")) == len(g.in_edges("m")) == 1


def test_rejected_connect_leaves_indexes_untouched():
    g = chain_graph()
    for bad in (("s", "m"), ("s", "nope"), ("nope", "m")):
        with pytest.raises(GraphError):
            g.connect(*bad)
    with pytest.raises(GraphError):
        g.connect("s", "k", routing="magic")
    assert [e.edge_id for e in g.edges] == ["s[0]->m[0]", "m[0]->k[0]"]
    assert g.out_edges("s") == g.in_edges("m") == g.edges[:1]


def test_in_edge_index_matches_list_index_all_to_all():
    g = QueryGraph()
    srcs = [f"s{i}" for i in range(7)]
    dsts = [f"d{i}" for i in range(5)]
    for s in srcs:
        g.add_hau(s, _src, is_source=True)
    for d in dsts:
        g.add_hau(d, _sink, is_sink=True)
    for s in srcs:
        for d in dsts:
            g.connect(s, d, routing="hash")
    g.validate()
    for d in dsts:
        ins = g.in_edges(d)
        assert [e.src for e in ins] == srcs
        assert [g.in_edge_index(e) for e in ins] == [ins.index(e) for e in ins]


def test_empty_graph_rejected():
    with pytest.raises(GraphError, match="empty graph"):
        QueryGraph().validate()


def test_source_without_outbound_rejected():
    g = chain_graph()
    g.add_hau("idle", _src, is_source=True)
    with pytest.raises(GraphError, match="source idle has no outbound"):
        g.validate()


# -- cycles: every shape reads as a cycle -------------------------------------

def test_self_loop_rejected():
    g = chain_graph()
    g.connect("m", "m", src_port=1, dst_port=1)
    with pytest.raises(GraphError, match="cycle"):
        g.validate()
    with pytest.raises(GraphError, match="cycle"):
        g.topological_order()


def test_cycle_no_source_reaches_reads_as_a_cycle():
    """a <-> b hangs off nothing: it is a cycle, not "unreachable HAUs"
    (and not "no inbound edges": each has one)."""
    g = chain_graph()
    g.add_hau("a", _mapop)
    g.add_hau("b", _mapop)
    g.connect("a", "b")
    g.connect("b", "a")
    with pytest.raises(GraphError, match="cycle"):
        g.validate()


def test_topological_order_with_parallel_edges_and_a_diamond():
    g = QueryGraph()
    g.add_hau("s", _src, is_source=True)
    g.add_hau("a", _mapop)
    g.add_hau("b", _mapop)
    g.add_hau("k", _sink, is_sink=True)
    g.connect("s", "a")
    g.connect("s", "b")
    g.connect("a", "k", src_port=0, dst_port=0)
    g.connect("a", "k", src_port=1, dst_port=1)  # two edges, one pair
    g.connect("b", "k", dst_port=2)
    g.validate()
    order = g.topological_order()
    assert sorted(order) == ["a", "b", "k", "s"]
    assert all(order.index(e.src) < order.index(e.dst) for e in g.edges)
