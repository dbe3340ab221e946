"""Disconnected exploration: branch depth law, branch picking, isolation."""

import random
from types import SimpleNamespace

import pytest

import mcgs.explore as explore
from mcgs.envs import make_env
from mcgs.evaluators import UniformEvaluator
from mcgs.explore import (
    EPS_GREEDY,
    FORCING,
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
    assert sample_branch_depth(0.9999) == 13


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


class _FixedRng:
    def __init__(self, r2, pick=0):
        self.r2 = r2
        self.pick = pick

    def random(self):
        return self.r2

    def randrange(self, n):
        return self.pick % n


def _plan(root, r2):
    """make_plan's branch node when the depth draw is r2."""
    return make_plan(SimpleNamespace(rng=_FixedRng(r2)), root)


def test_make_plan_follows_visits_and_stops_at_the_line_end():
    store = GraphStore()
    root = expanded_node(store, actions=[0, 1])
    root.en = [2, 5]
    attach_child(store, root, 0, ply=1)
    a = attach_child(store, root, 1, ply=1)
    store.attach_edges(a, [3, 4], [0.5, 0.5], q_init=-1.0)
    a.en = [3, 0]
    b = attach_child(store, a, 0, ply=2)  # unexpanded leaf
    assert _plan(root, 0.0) is root  # depth 0
    assert _plan(root, 0.75) is a  # depth 1
    assert _plan(root, 0.875) is b  # depth 2
    assert _plan(root, 0.9999999) is b  # depth 23, past the line's end


def test_make_plan_skips_pruned_edges_and_breaks_ties_by_order():
    store = GraphStore()
    root = expanded_node(store, actions=[0, 1, 2])
    root.en = [9, 4, 4]
    root.q[0] = NEG_INF  # pruned despite being most visited
    attach_child(store, root, 0, ply=1)
    first = attach_child(store, root, 1, ply=1)
    attach_child(store, root, 2, ply=1)
    assert _plan(root, 0.75) is first  # first stored edge wins the 4-4 tie


def test_make_plan_stops_at_proven_nodes_and_unresolved_edges():
    store = GraphStore()
    root = expanded_node(store, actions=[0])
    root.en = [7]
    solved = attach_child(store, root, 0, status=SolverStatus.WIN, eip=1, ply=1)
    store.attach_edges(solved, [9], [1.0], q_init=-1.0)
    solved.en = [5]  # expanded, visited and resolved, but proven: the walk stops here
    attach_child(store, solved, 0, ply=2)
    assert _plan(root, 0.99) is solved  # depth 6

    lone = expanded_node(store, actions=[0])
    lone.en = [3]  # visited but never resolved to a child
    assert _plan(lone, 0.99) is lone


def test_make_plan_lands_on_the_sampled_depth(ttt):
    engine = SearchEngine(ttt, UniformEvaluator(ttt), SearchConfig(budget_amount=400))
    engine.reset(ttt.initial_state())
    engine.search()
    root = engine._root
    top = root.child[max(range(len(root.en)), key=root.en.__getitem__)]
    assert top is not None and top.expanded

    engine.rng = _FixedRng(0.0)  # depth 0
    assert make_plan(engine, root) is root
    engine.rng = _FixedRng(0.75)  # depth 1
    assert make_plan(engine, root) is top


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


def test_first_unexplored_respects_prior_order_and_pruning(ttt):
    engine = SearchEngine(ttt, UniformEvaluator(ttt), SearchConfig())
    node = expanded_node(engine.store, actions=[4, 2, 7], priors=[0.5, 0.3, 0.2])
    node.en = [3, 0, 0]
    assert execute_branch(engine, node, EPS_GREEDY) == 1
    node.q[1] = NEG_INF
    assert execute_branch(engine, node, EPS_GREEDY) == 2


def test_first_forcing_prefers_checks_then_falls_back(ttt):
    engine = SearchEngine(ttt, UniformEvaluator(ttt), SearchConfig())
    state = ttt.initial_state()
    for move in (0, 4):
        state = ttt.apply(state, move)
    engine.reset(state)
    node = engine._root
    engine._expand(node, UniformEvaluator(ttt).evaluate(state))

    idx = execute_branch(engine, node, FORCING)
    assert ttt.is_forcing(state, node.actions[idx])

    # exhaust the forcing moves; the picker then falls back
    for j, action in enumerate(node.actions):
        if ttt.is_forcing(state, action):
            node.en[j] = 1
    idx = execute_branch(engine, node, FORCING)
    assert idx is not None
    assert not ttt.is_forcing(state, node.actions[idx])


def test_fallback_is_uniform_over_unpruned_edges(ttt):
    engine = SearchEngine(ttt, UniformEvaluator(ttt), SearchConfig())
    store = engine.store
    node = expanded_node(store, actions=[0, 1, 2])
    node.en = [1, 1, 1]  # every edge tried
    node.q[0] = NEG_INF
    engine.rng = _FixedRng(0.0, pick=1)
    for kind in (EPS_GREEDY, FORCING):
        assert execute_branch(engine, node, kind) == 2  # candidates are [1, 2]

    node.q[1] = node.q[2] = NEG_INF
    assert execute_branch(engine, node, EPS_GREEDY) is None


def test_branch_trajectories_never_touch_ancestors(ttt):
    engine = SearchEngine(ttt, UniformEvaluator(ttt), SearchConfig(budget_amount=150))
    engine.reset(ttt.initial_state())
    engine.search()
    root = engine._root
    engine.rng = _FixedRng(0.75)  # branch at depth 1
    branch = make_plan(engine, root)
    assert branch is not root
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



@pytest.mark.parametrize("feature, probability", [("eps_greedy", "epsilon_greedy"),
                                                  ("check_enhance", "epsilon_checks")])
def test_a_feature_that_is_off_never_branches_even_at_probability_1(
        ttt, monkeypatch, feature, probability):
    # The feature is off with its probability at 1; the other is on at 0.
    kinds = []
    real = explore.execute_branch
    monkeypatch.setattr("mcgs.explore.execute_branch",
                        lambda engine, node, kind: kinds.append(kind) or real(engine, node, kind))
    settings = dict(eps_greedy=True, check_enhance=True, epsilon_greedy=0.0, epsilon_checks=0.0)
    settings.update({feature: False, probability: 1.0})
    engine = SearchEngine(ttt, UniformEvaluator(ttt), SearchConfig(budget_amount=200, **settings))
    engine.reset(ttt.initial_state())
    engine.search()
    assert kinds == []
