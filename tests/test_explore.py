"""Disconnected exploration: branch depth law, branch picking, isolation."""

import random

import pytest

import mcgs.explore as explore
from mcgs.envs import make_env
from mcgs.evaluators import UniformEvaluator
from mcgs.explore import (
    EPS_GREEDY,
    best_path,
    execute_branch,
    make_plan,
    sample_branch_depth,
)
from mcgs.graph import NEG_INF, GraphStore
from mcgs.search import SearchConfig, SearchEngine
from mcgs.solver import SolverStatus

from helpers import attach_child, expanded_node, fresh_key


def test_branch_depth_examples():
    assert sample_branch_depth(0.0) == 0
    assert sample_branch_depth(0.3) == 0
    assert sample_branch_depth(0.5) == 0
    assert sample_branch_depth(0.75) == 1
    assert sample_branch_depth(0.875) == 2
    assert sample_branch_depth(0.9999, max_depth=3) == 3


def test_branch_depth_rejects_bad_draws():
    for bad in (-0.1, 1.0, 1.5):
        with pytest.raises(ValueError):
            sample_branch_depth(bad)


def test_branch_depth_follows_the_halving_law():
    rng = random.Random(123)
    counts = [0] * 24
    samples = 1_000_000
    for _ in range(samples):
        counts[sample_branch_depth(rng.random())] += 1
    for d in range(4):
        assert counts[d] / samples == pytest.approx(2.0 ** -(d + 1), abs=0.01)


def test_best_path_follows_visits_and_stops_at_the_frontier():
    store = GraphStore()
    root = expanded_node(store, actions=[0, 1])
    root.en = [5, 2]
    a = attach_child(store, root, 0, ply=1)
    store.attach_edges(a, [3, 4], [0.5, 0.5], q_init=-1.0)
    a.en = [3, 0]
    b = attach_child(store, a, 0, ply=2)  # unexpanded leaf
    nodes, actions = best_path(root)
    assert nodes == [root, a, b]
    assert actions == [0, 3]


def test_best_path_skips_pruned_and_breaks_ties_by_order():
    store = GraphStore()
    root = expanded_node(store, actions=[0, 1, 2])
    root.en = [9, 4, 4]
    root.q[0] = NEG_INF  # pruned despite being most visited
    attach_child(store, root, 1, ply=1)
    attach_child(store, root, 2, ply=1)
    nodes, actions = best_path(root)
    assert actions[0] == 1  # first stored edge wins the 4-4 tie


def test_best_path_stops_at_proven_and_unresolved_nodes():
    store = GraphStore()
    root = expanded_node(store, actions=[0])
    root.en = [7]
    solved = attach_child(store, root, 0, status=SolverStatus.WIN, eip=1, ply=1)
    store.attach_edges(solved, [9], [1.0], q_init=-1.0)
    solved.en = [5]  # expanded and visited, but proven: the walk stops here
    nodes, actions = best_path(root)
    assert nodes == [root, solved]
    assert actions == [0]

    lone = expanded_node(store, actions=[0])
    lone.en = [3]  # visited but never resolved to a child
    nodes, actions = best_path(lone)
    assert nodes == [lone] and actions == []


class _FixedRng:
    def __init__(self, r2, pick=0):
        self.r2 = r2
        self.pick = pick

    def random(self):
        return self.r2

    def randrange(self, n):
        return self.pick % n


def test_make_plan_lands_on_the_sampled_depth(ttt):
    engine = SearchEngine(ttt, UniformEvaluator(ttt), SearchConfig(budget_amount=400))
    engine.reset(ttt.initial_state())
    engine.search()
    root = engine._root
    nodes, actions = best_path(root)
    assert len(actions) >= 2

    engine.rng = _FixedRng(0.75)  # depth 1
    assert make_plan(engine, root) is nodes[1]

    engine.rng = _FixedRng(0.9999999)  # deeper than the path: clamped
    assert make_plan(engine, root) is nodes[-1]


def test_execute_branch_discards_settled_branch_nodes(ttt):
    engine = SearchEngine(ttt, UniformEvaluator(ttt), SearchConfig())
    engine.reset(ttt.initial_state())
    store = engine.store

    unexpanded, _ = store.lookup_or_insert(engine.env.state_key(ttt.initial_state()))
    terminal, _ = store.lookup_or_insert(fresh_key(9))
    terminal.status = SolverStatus.LOSS
    proven = expanded_node(store, actions=[0])
    proven.status = SolverStatus.DRAW

    for node in (terminal, proven, unexpanded):
        assert execute_branch(engine, node, EPS_GREEDY) is None


def test_first_unexplored_respects_prior_order_and_pruning():
    store = GraphStore()
    node = expanded_node(store, actions=[4, 2, 7], priors=[0.5, 0.3, 0.2])
    node.en = [3, 0, 0]
    assert explore._first_unexplored(node) == 1
    node.q[1] = NEG_INF
    assert explore._first_unexplored(node) == 2
    node.en = [1, 1, 1]
    assert explore._first_unexplored(node) is None


def test_first_forcing_prefers_checks_then_falls_back(ttt):
    engine = SearchEngine(ttt, UniformEvaluator(ttt), SearchConfig())
    state = ttt.initial_state()
    for move in (0, 4):
        state = ttt.apply(state, move)
    engine.reset(state)
    node = engine._root
    engine._expand(node, UniformEvaluator(ttt).evaluate(state))

    idx = explore._first_forcing(engine, node)
    assert ttt.is_forcing(state, node.actions[idx])

    # exhaust the forcing moves; the helper then falls back
    for j, action in enumerate(node.actions):
        if ttt.is_forcing(state, action):
            node.en[j] = 1
    idx = explore._first_forcing(engine, node)
    assert idx is not None
    assert not ttt.is_forcing(state, node.actions[idx])


def test_fallback_is_uniform_over_unpruned_edges(ttt):
    engine = SearchEngine(ttt, UniformEvaluator(ttt), SearchConfig())
    store = engine.store
    node = expanded_node(store, actions=[0, 1, 2])
    node.en = [1, 1, 1]  # nothing unexplored
    node.q[0] = NEG_INF
    engine.rng = _FixedRng(0.0, pick=1)
    assert explore._uniform_fallback(engine, node) == 2  # candidates are [1, 2]

    node.q[1] = node.q[2] = NEG_INF
    assert explore._uniform_fallback(engine, node) is None


def test_branch_trajectories_never_touch_ancestors(ttt):
    engine = SearchEngine(ttt, UniformEvaluator(ttt), SearchConfig(budget_amount=150))
    engine.reset(ttt.initial_state())
    engine.search()
    root = engine._root
    nodes, actions = best_path(root)
    assert len(nodes) >= 2

    engine.rng = _FixedRng(0.75)  # branch at depth 1
    branch = make_plan(engine, root)
    root_n = root.n
    root_en = list(root.en)
    idx = explore.execute_branch(engine, branch, EPS_GREEDY)
    assert idx is not None
    backprop = engine._backpropagate
    backed_up = []
    engine._backpropagate = lambda pairs, value: (backed_up.append(pairs),
                                                  backprop(pairs, value))
    descent = engine._descend(branch, idx)
    pairs = backed_up[0] if descent is None else descent[0]
    assert pairs[0] == (branch, idx)
    assert all(node is not root for node, _ in pairs)
    assert root.n == root_n
    assert root.en == root_en


def test_branch_rates_track_the_configured_epsilons(ttt, monkeypatch):
    calls = {"eps_greedy": 0, "forcing": 0}
    real = explore.execute_branch

    def counting(engine, node, kind):
        calls[kind] += 1
        return real(engine, node, kind)

    monkeypatch.setattr("mcgs.explore.execute_branch", counting)
    config = SearchConfig(budget_amount=20_000, terminal_solver=False, seed=2)
    engine = SearchEngine(ttt, UniformEvaluator(ttt), config)
    engine.reset(ttt.initial_state())
    engine.search()

    # 1% branch probability per simulation, two independent draws
    assert 140 <= calls["eps_greedy"] <= 260
    assert 140 <= calls["forcing"] <= 260


def test_branching_disabled_means_no_plans(ttt, monkeypatch):
    calls = []
    monkeypatch.setattr("mcgs.explore.make_plan",
                        lambda *a, **k: calls.append(a) or None)
    config = SearchConfig(budget_amount=2000, eps_greedy=False, check_enhance=False)
    engine = SearchEngine(ttt, UniformEvaluator(ttt), config)
    engine.reset(ttt.initial_state())
    engine.search()
    assert calls == []
