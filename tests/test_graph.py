"""Graph store: statistics updates, transposition joins, memory accounting.

Edge and node updates are driven through the engine's backpropagation, which
holds the only copy of the moving-average updates, a node's first visit too.
"""

import statistics

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mcgs.envs import make_env
from mcgs.evaluators import UniformEvaluator
from mcgs.graph import (
    NEG_INF,
    GraphStore,
    Node,
    StoreFullError,
)
from mcgs.search import SearchConfig, SearchEngine, run_search

from helpers import expanded_node, fresh_key

_TTT = make_env("tictactoe")
_ENGINE = SearchEngine(_TTT, UniformEvaluator(_TTT), SearchConfig())


def _edge_update(node, sample):
    """Back one sample up edge 0 through the engine's backpropagation.

    The leaf value is given from the child's perspective, so the edge sees
    its negation: passing -sample makes the edge's new sample exactly sample.
    The visit counts in the edge total; virtual loss is not backprop's to lift.
    """
    total = node.edge_total
    _ENGINE._backpropagate([(node, 0)], -sample, Node(None))
    assert node.edge_total == total + 1
    assert node.evl[0] == 0


def test_first_edge_update_replaces_the_pessimistic_init():
    store = GraphStore()
    node = expanded_node(store, actions=[0, 1], q_init=-1.0)
    _edge_update(node, 0.5)
    assert node.en[0] == 1
    assert node.q[0] == 0.5
    _edge_update(node, 0.1)
    assert node.en[0] == 2
    assert node.q[0] == pytest.approx(0.3)
    assert node.q[1] == -1.0  # untouched sibling keeps its init


def test_edge_sma_worked_example():
    store = GraphStore()
    node = expanded_node(store, actions=[0])
    node.q[0] = 0.5
    node.en[0] = 3
    _edge_update(node, -0.1)
    assert node.en[0] == 4
    assert node.q[0] == pytest.approx(0.35)


def test_pruned_edge_counts_visits_but_keeps_neg_inf():
    store = GraphStore()
    node = expanded_node(store, actions=[0])
    node.q[0] = NEG_INF
    _edge_update(node, 0.9)
    assert node.en[0] == 1
    assert node.q[0] == NEG_INF
    assert (node.n, node.v) == (1, 0.9)  # the node still averages the sample


@given(st.lists(st.floats(min_value=-1.0, max_value=1.0), min_size=1, max_size=50))
def test_edge_sma_equals_the_running_mean(values):
    store = GraphStore()
    node = expanded_node(store, actions=[0])
    for v in values:
        _edge_update(node, v)
    assert node.en[0] == len(values)
    assert node.q[0] == pytest.approx(statistics.fmean(values), abs=1e-12)


def test_node_value_sma():
    # the node a simulation ends on, counted by the engine's backpropagation
    node = Node(None)
    _ENGINE._backpropagate([], 0.8, node)
    assert (node.n, node.v) == (1, 0.8)
    _ENGINE._backpropagate([], -0.2, node)
    assert node.n == 2
    assert node.v == pytest.approx(0.3)


def test_attach_edges_rejects_double_expansion():
    store = GraphStore()
    node = expanded_node(store, actions=[0, 1])
    with pytest.raises(ValueError):
        store.attach_edges(node, [2], [1.0], q_init=-1.0)


def test_lookup_is_shared_only_with_transpositions_on():
    state = make_env("nim:3").initial_state()
    shared = GraphStore(transpositions=True)
    a, existed_a = shared.lookup_or_insert(state, state)
    b, existed_b = shared.lookup_or_insert(state, state)
    assert a is b
    assert (existed_a, existed_b) == (False, True)
    assert shared.nodes == {state: a}

    split = GraphStore(transpositions=False)
    c, existed_c = split.lookup_or_insert(state, state)
    d, existed_d = split.lookup_or_insert(state, state)
    assert c is not d
    assert (existed_c, existed_d) == (False, False)
    assert split.nodes == {1: c, 2: d}  # serial keys in tree mode
    assert c.state is d.state is state


def test_link_counts_joins_and_in_degree():
    store = GraphStore()
    p1 = expanded_node(store, actions=[0], ply=0)
    p2 = expanded_node(store, actions=[0], ply=0)
    child, _ = store.lookup_or_insert(fresh_key(1), None)
    store.link(p1, 0, child, was_existing=False)
    store.link(p2, 0, child, was_existing=True)
    assert len(child.parents) == 2
    assert child.parents == (p1, p2)
    assert store.join_count == 1
    report = store.memory_report(7)  # the search's figure: the store keeps none
    assert list(report) == ["node_count", "edge_count", "trajectory_buffer_size",
                            "tree_equivalent_node_count", "transposition_join_count"]
    assert report["trajectory_buffer_size"] == 7
    assert report["node_count"] == 3
    assert report["edge_count"] == 2
    assert report["tree_equivalent_node_count"] == 4
    assert report["transposition_join_count"] == 1


def test_store_capacity_is_enforced():
    store = GraphStore(capacity=2)
    store.lookup_or_insert(fresh_key(0), None)
    store.lookup_or_insert(fresh_key(1), None)
    with pytest.raises(StoreFullError):
        store.lookup_or_insert(fresh_key(2), None)


def test_chain_game_allocates_no_joins():
    # Every position in the one-way chain is reached by exactly one line of
    # play, so the graph and its tree counterfactual coincide.
    env = make_env("leftright:16")
    config = SearchConfig(budget_amount=400, seed=3)
    result = run_search(env, UniformEvaluator(env), env.initial_state(), config)
    report = result.memory
    assert report["transposition_join_count"] == 0
    assert report["node_count"] == report["tree_equivalent_node_count"]
    assert report["node_count"] <= 2 * 16 + 1


def test_transpositions_shrink_the_tictactoe_graph(ttt):
    config = SearchConfig(budget_amount=2000, seed=5)
    result = run_search(ttt, UniformEvaluator(ttt), ttt.initial_state(), config)
    report = result.memory
    assert report["transposition_join_count"] > 0
    assert report["node_count"] < report["tree_equivalent_node_count"]
