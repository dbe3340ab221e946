"""Root move choice: visit policy, Q-gap boost, solver overrides, PV."""

import math
import random

import pytest

from mcgs.graph import NEG_INF, GraphStore
from mcgs.move_selection import (
    MovePolicy,
    _argmax_policy,
    _prior_policy,
    _visit_order,
    principal_variation,
    q_boost,
    select_move,
    visit_policy,
)
from mcgs.search import SearchConfig
from mcgs.solver import SolverStatus

from helpers import attach_child, expanded_node, fresh_key


class _Rng:
    def __init__(self, r):
        self.r = r

    def random(self):
        return self.r


def _node(store, en, q=None, actions=None, priors=None):
    actions = actions if actions is not None else list(range(len(en)))
    node = expanded_node(store, actions=actions, priors=priors)
    node.en = list(en)
    if q is not None:
        node.q = list(q)
    return node


def test_visit_policy_argmax_is_one_hot():
    node = _node(GraphStore(), en=[5, 9, 2])
    assert visit_policy(node, 0.0) == [0.0, 1.0, 0.0]


def test_visit_policy_argmax_tie_breaks():
    node = _node(GraphStore(), en=[5, 5], q=[0.2, 0.6])
    assert visit_policy(node, 0.0) == [0.0, 1.0]
    node = _node(GraphStore(), en=[5, 5], q=[0.4, 0.4], actions=[8, 3])
    assert visit_policy(node, 0.0) == [0.0, 1.0]  # same Q: lower action id


def test_visit_policy_ignores_pruned_edges():
    node = _node(GraphStore(), en=[9, 4], q=[NEG_INF, 0.1])
    assert visit_policy(node, 0.0) == [0.0, 1.0]
    assert visit_policy(node, 1.0) == [0.0, 1.0]


def test_visit_policy_requires_a_visited_child():
    node = _node(GraphStore(), en=[0, 0])
    with pytest.raises(ValueError):
        visit_policy(node, 0.0)
    with pytest.raises(ValueError):
        visit_policy(node, 1.0)


def test_visit_policy_temperature_examples():
    store = GraphStore()
    node = _node(store, en=[30, 10])
    assert visit_policy(node, 1.0) == pytest.approx([0.75, 0.25])
    assert visit_policy(node, 0.5) == pytest.approx([0.9, 0.1])
    root = math.sqrt(30) / (math.sqrt(30) + math.sqrt(10))
    assert visit_policy(node, 2.0) == pytest.approx([root, 1 - root])
    node = _node(store, en=[30, 0])
    assert visit_policy(node, 1.0) == [1.0, 0.0]  # unvisited stays at zero


def test_visit_policy_small_tau_with_thousands_of_visits_stays_finite():
    # 3000 ** 200 overflows a float; scaled by the top count it cannot
    node = _node(GraphStore(), en=[1200, 3000, 2990, 0], q=[0.1, 0.2, 0.3, 0.0])
    policy = visit_policy(node, 0.005)
    assert all(math.isfinite(p) for p in policy)
    assert sum(policy) == pytest.approx(1.0)
    assert max(range(4), key=policy.__getitem__) == 1
    assert policy[3] == 0.0


def test_top_two_ordering():
    store = GraphStore()
    node = _node(store, en=[3, 9, 5])
    assert _visit_order(node)[:2] == [1, 2]
    node = _node(store, en=[5, 5, 1], q=[0.1, 0.7, 0.0])
    assert _visit_order(node)[:2] == [1, 0]  # visit tie: higher Q first
    node = _node(store, en=[4, 0, 0])
    assert _visit_order(node) == [0]  # one visited edge: no runner-up


def test_q_boost_worked_example():
    store = GraphStore()
    node = _node(store, en=[30, 20, 10], q=[0.1, 0.3, 0.0])
    policy, boosted = q_boost(node, [0.6, 0.3, 0.1], q_weight=2.0)
    assert boosted
    # runner-up gains 2 * 0.2 * 0.6 = 0.24, then everything renormalizes
    assert policy == pytest.approx([0.6 / 1.24, 0.54 / 1.24, 0.1 / 1.24])
    assert sum(policy) == pytest.approx(1.0, abs=1e-9)


def test_q_boost_skips_when_the_favorite_is_better():
    store = GraphStore()
    node = _node(store, en=[30, 20], q=[0.5, 0.3])
    original = [0.7, 0.3]
    policy, boosted = q_boost(node, original, q_weight=2.0)
    assert not boosted
    assert policy == original


def test_q_boost_switch_threshold_is_exact():
    # From a one-hot visit policy the argmax flips exactly when
    # q_weight * q_delta exceeds 1; at equality the visit tie-break holds.
    store = GraphStore()
    cfg = SearchConfig(tau=0.0, q_boost=True, q_weight=2.0)
    node = _node(store, en=[10, 5], q=[0.0, 0.5])
    move = select_move(node, cfg, _Rng(0.0))
    assert move.action == 0  # 2 * 0.5 == 1: still the favorite
    assert move.source == "q_boost"  # boosted, though the favorite holds

    node = _node(store, en=[10, 5], q=[0.0, math.nextafter(0.5, 1.0)])
    move = select_move(node, cfg, _Rng(0.0))
    assert move.action == 1
    assert move.source == "q_boost"


def test_argmax_policy_tie_breaks():
    store = GraphStore()
    node = _node(store, en=[3, 5, 9], q=[0.0, 0.0, 0.0])
    assert _argmax_policy(node, [0.4, 0.4, 0.2]) == 1  # more visits
    node = _node(store, en=[5, 5], q=[0.1, 0.3])
    assert _argmax_policy(node, [0.5, 0.5]) == 1  # higher Q
    node = _node(store, en=[5, 5], q=[0.1, 0.1], actions=[6, 2])
    assert _argmax_policy(node, [0.5, 0.5]) == 1  # lower action id


def test_prior_policy_renormalizes_over_live_edges():
    store = GraphStore()
    node = _node(store, en=[0, 0, 0], priors=[0.5, 0.3, 0.2])
    node.q[0] = NEG_INF
    assert _prior_policy(node) == pytest.approx([0.0, 0.6, 0.4])

    node = _node(store, en=[0, 0], priors=[1.0, 0.0])
    node.q[0] = NEG_INF  # only a zero-prior edge stays live
    assert _prior_policy(node) == [0.0, 1.0]

    node = _node(store, en=[0, 0], priors=[0.6, 0.4])
    node.q = [NEG_INF, NEG_INF]
    assert _prior_policy(node) == [0.5, 0.5]


def test_select_move_rejects_terminal_nodes():
    store = GraphStore()
    node, _ = store.lookup_or_insert(fresh_key(9), None)
    node.status = SolverStatus.LOSS
    with pytest.raises(ValueError):
        select_move(node, SearchConfig(), _Rng(0.0))


def test_select_move_solver_override():
    store = GraphStore()
    node = _node(store, en=[4, 40], actions=[3, 7])
    attach_child(store, node, 0, status=SolverStatus.LOSS, eip=0)
    node.status = SolverStatus.WIN
    node.end_in_ply = 1
    move = select_move(node, SearchConfig(), _Rng(0.0))
    assert move.source == "solver"
    assert move.action == 3  # proven mate outranks the visit count
    assert move.policy == [1.0, 0.0]

    # with the solver off the node has no status, and visits decide
    node.status = SolverStatus.UNKNOWN
    move = select_move(node, SearchConfig(), _Rng(0.0))
    assert move.source == "visits"
    assert move.action == 7


def test_select_move_probe_only_status_falls_back_to_statistics():
    store = GraphStore()
    node = _node(store, en=[4, 40])
    node.status = SolverStatus.TB_WIN  # oracle said so; no proving child
    move = select_move(node, SearchConfig(), _Rng(0.0))
    assert move.source == "visits"
    assert move.action == 1


def test_select_move_prior_path_when_nothing_was_visited():
    store = GraphStore()
    node = _node(store, en=[0, 0, 0], priors=[0.2, 0.5, 0.3])
    move = select_move(node, SearchConfig(tau=0.0), _Rng(0.0))
    assert move.action == 1
    assert move.policy == pytest.approx([0.2, 0.5, 0.3])
    assert move.source == "prior"


def test_select_move_samples_the_cumulative_distribution():
    store = GraphStore()
    cfg = SearchConfig(tau=1.0, q_boost=False)
    node = _node(store, en=[60, 40])
    assert select_move(node, cfg, _Rng(0.59)).action == 0
    assert select_move(node, cfg, _Rng(0.61)).action == 1
    assert select_move(node, cfg, _Rng(0.999999)).action == 1


def test_select_move_sampling_never_falls_back_to_a_pruned_edge():
    store = GraphStore()
    cfg = SearchConfig(tau=1.0, q_boost=False)
    node = _node(store, en=[1] * 11, q=[0.0] * 10 + [NEG_INF])
    r = 1.0 - 2.0 ** -53
    move = select_move(node, cfg, _Rng(r))
    # Ten shares of 0.1 add up to no more than r, so no prefix sum passes it.
    assert sum(move.policy) <= r
    assert move.policy[10] == 0.0
    assert move.action == 9


def test_move_policy_defaults():
    move = MovePolicy(action=4)
    assert move.policy == []
    assert move.source == "visits"


def test_principal_variation_follows_visits():
    store = GraphStore()
    root = expanded_node(store, actions=[0, 1])
    root.en = [8, 2]
    a = attach_child(store, root, 0, ply=1)
    store.attach_edges(a, [5, 6], [0.5, 0.5], q_init=-1.0)
    a.en = [1, 4]
    b = attach_child(store, a, 1, ply=2)  # unexpanded: the line ends here
    assert principal_variation(root) == [0, 6]
    assert principal_variation(root, limit=1) == [0]


def test_principal_variation_prefers_the_proven_line():
    store = GraphStore()
    root = expanded_node(store, actions=[0, 1])
    root.en = [90, 1]
    popular = attach_child(store, root, 0, ply=1)
    mate = attach_child(store, root, 1, status=SolverStatus.LOSS, eip=0, ply=1)
    root.status = SolverStatus.WIN
    root.end_in_ply = 1
    assert principal_variation(root) == [1]
    root.status = SolverStatus.UNKNOWN  # the solver off
    assert principal_variation(root)[0] == 0


def test_principal_variation_stops_at_an_unresolved_child():
    store = GraphStore()
    root = expanded_node(store, actions=[0, 1])
    root.en = [3, 5]  # the most visited edge never resolved to a child
    attach_child(store, root, 0, ply=1)
    assert principal_variation(root) == [1]


def test_principal_variation_stops_where_no_live_edge_was_visited():
    store = GraphStore()
    root = expanded_node(store, actions=[0, 1])
    root.en = [4, 0]
    a = attach_child(store, root, 0, ply=1)
    store.attach_edges(a, [2, 3], [0.5, 0.5], q_init=-1.0)
    a.en = [6, 0]
    a.q[0] = NEG_INF  # visited, then pruned
    assert principal_variation(root) == [0]
    a.en = [0, 0]  # expanded, never visited
    assert principal_variation(root) == [0]


def test_principal_variation_breaks_ties_as_the_move_choice_does():
    # More visits, then higher Q, then the lower action id: the order the
    # move choice plays from, not the stored edge order.
    store = GraphStore()
    root = expanded_node(store, actions=[6, 2, 4])
    for j in range(3):
        attach_child(store, root, j, ply=1)
    root.en = [5, 5, 1]
    root.q = [0.3, 0.3, 0.9]
    assert principal_variation(root) == [2]
    root.q = [0.4, 0.3, 0.9]
    assert principal_variation(root) == [6]


def test_principal_variation_starts_with_the_plain_move_choice():
    rng = random.Random(5)
    config = SearchConfig(q_boost=False)
    store = GraphStore()
    for _ in range(200):
        k = rng.randrange(1, 5)
        root = expanded_node(store, actions=rng.sample(range(9), k))
        root.en = [rng.randrange(3) for _ in range(k)]
        root.en[0] += 1
        root.q = [rng.choice([-0.5, 0.0, 0.5]) for _ in range(k)]
        pv = principal_variation(root)
        assert pv == [select_move(root, config, _Rng(0.0)).action]
