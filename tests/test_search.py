"""Engine internals and end-to-end searches on the desk-scale games."""

import collections
import dataclasses
import itertools
import math
import random
import time
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mcgs.envs import make_env
from mcgs import search
from mcgs.evaluators import Evaluation, UniformEvaluator, apply_node_temperature, make_evaluator
from mcgs.graph import NEG_INF, GraphStore, StoreFullError
from mcgs.oracle import negamax_cache
from mcgs.search import (
    SearchConfig,
    SearchEngine,
    correction_value,
    cpuct,
    run_search,
)
from mcgs.solver import SolverStatus, is_real

from helpers import (PLAIN, FixedEvaluator, attach_child, check_invariants, expanded_node,
                     record_solves)

INF = float("inf")


def _engine(env, **overrides):
    config = SearchConfig(**overrides)
    return SearchEngine(env, UniformEvaluator(env), config)


# ----- exploration coefficient ------------------------------------------------


def test_cpuct_at_zero_visits_is_almost_c_init():
    assert cpuct(0) == pytest.approx(2.500051, abs=1e-6)


def test_cpuct_log_growth_hits_the_e_fold_point():
    total = 19652.0 * (math.e - 1.0) - 1.0
    assert cpuct(total) == pytest.approx(3.5, abs=1e-9)


def test_cpuct_is_monotone():
    assert cpuct(0) < cpuct(10_000) < cpuct(1_000_000)
    assert cpuct(0, c_base=1.0, c_init=0.0) == pytest.approx(math.log(2.0))


# ----- correction backups -----------------------------------------------------


def test_correction_value_worked_example_clips_to_the_floor():
    # Q = 0.8, V* = 0.2, N = 5: the exact landing sample is -2.8, far outside
    # the value range, so the backup saturates at -1.
    assert correction_value(0.8, 0.2, 5, -INF, INF) == pytest.approx(-2.8)
    assert correction_value(0.8, 0.2, 5) == -1.0


def test_correction_value_lands_the_average_exactly_when_unclipped():
    q, v_star, n = 0.8, 0.2, 5
    sample = correction_value(q, v_star, n, -INF, INF)
    assert q + (sample - q) / (n + 1) == pytest.approx(v_star, abs=1e-12)


def test_correction_value_edge_cases():
    assert correction_value(0.5, 0.25, 0) == 0.25  # no history: plain target
    assert correction_value(-0.9, 0.5, 5) == 1.0   # saturates upward


@given(
    st.floats(min_value=-1.0, max_value=1.0),
    st.floats(min_value=-1.0, max_value=1.0),
    st.integers(min_value=0, max_value=10_000),
)
def test_correction_value_fuzz(q, v_star, n):
    sample = correction_value(q, v_star, n, -INF, INF)
    assert q + (sample - q) / (n + 1) == pytest.approx(v_star, abs=1e-6)
    assert -1.0 <= correction_value(q, v_star, n) <= 1.0


# ----- configuration ----------------------------------------------------------


def test_default_configuration_values():
    cfg = SearchConfig()
    assert cfg.q_epsilon == 0.01
    assert cfg.q_weight == 2.0
    assert cfg.epsilon_greedy == 0.01
    assert cfg.epsilon_checks == 0.01
    assert cfg.c_puct_init == 2.5
    assert cfg.c_puct_base == 19652.0
    assert cfg.node_tau == 1.7
    assert cfg.tau == 0.0
    assert cfg.mini_batch_size == 16
    assert cfg.virtual_loss == 1.0
    assert cfg.q_init == -1.0
    assert cfg.budget == "simulations"
    assert cfg.budget_amount == 800
    assert cfg.transpositions and cfg.terminal_solver and cfg.eps_greedy
    assert cfg.check_enhance and cfg.q_boost


def test_config_roundtrip_through_dict():
    cfg = SearchConfig(budget="evaluations", budget_amount=512, seed=9, tau=0.5)
    assert SearchConfig.from_dict(dataclasses.asdict(cfg)) == cfg


def test_config_coerces_strings():
    cfg = SearchConfig.from_dict({
        "budget_amount": "400",
        "eps_greedy": "false",
        "q_boost": "ON",
        "c_puct_init": "3.0",
        "budget": "evaluations",
    })
    assert cfg.budget_amount == 400
    assert cfg.eps_greedy is False
    assert cfg.q_boost is True
    assert cfg.c_puct_init == 3.0


def test_config_rejects_unknown_keys_and_bad_bools():
    with pytest.raises(ValueError):
        SearchConfig.from_dict({"c_puct": 1.0})
    with pytest.raises(ValueError):
        SearchConfig.from_dict({"q_boost": "maybe"})


@pytest.mark.parametrize("field,value", [
    ("budget", "nodes"),
    ("budget_amount", 0),
    ("mini_batch_size", 0),
    ("node_tau", 0.0),
    ("tau", -0.1),
    ("epsilon_greedy", 1.5),
    ("epsilon_checks", -0.2),
    ("dirichlet_epsilon", 2.0),
    ("virtual_loss", -1.0),
    ("q_init", -3.0),
    ("capacity", 0),
    ("c_puct_base", 0.0),
    ("node_tau", float("nan")),
    ("q_weight", float("nan")),
    ("virtual_loss", INF),
    ("c_puct_init", INF),
    ("q_epsilon", -INF),
    # each field takes its annotated type; a bool is neither an int nor a float
    ("mini_batch_size", 2.5),
    ("budget_amount", 100.0),
    ("budget_amount", True),
    ("seed", "3"),
    ("tau", True),
    ("q_init", "0"),
    ("transpositions", "false"),
    ("q_boost", 1),
    ("budget", None),
    ("endgame_oracle", 3),
])
def test_config_validation_errors(field, value):
    cfg = SearchConfig(**{field: value})
    with pytest.raises(ValueError, match=f"^{field} must "):
        cfg.validate()


@pytest.mark.parametrize("field,value,message", [
    ("q_weight", -10.0, "q_weight must be >= 0"),  # would give negative probabilities
    ("tau", -0.1, "tau must be >= 0"),
    ("virtual_loss", -1.0, "virtual_loss must be >= 0"),
    ("q_epsilon", -0.01, "q_epsilon must be >= 0"),  # would early-stop at a zero gap
    ("dirichlet_alpha", 0.0, "dirichlet_alpha must be > 0"),  # gammavariate's domain
    ("dirichlet_alpha", -0.3, "dirichlet_alpha must be > 0"),
    # cpuct(N) * sqrt(N) would overflow and leave selection no live edge
    ("c_puct_init", -1e308, "c_puct_init must not exceed 1e300 in magnitude"),
    ("c_puct_init", 1e301, "c_puct_init must not exceed 1e300 in magnitude"),
    ("c_puct_base", 5e-324, "c_puct_base must be >= 1e-290"),
    # q_boost's mass would overflow into a NaN policy
    ("q_weight", 1.79e308, "q_weight must not exceed 1e300 in magnitude"),
    # gammavariate would never return; the noise total would overflow
    ("dirichlet_alpha", 1e308, "dirichlet_alpha must not exceed 1e300 in magnitude"),
    ("dirichlet_alpha", 8e307, "dirichlet_alpha must not exceed 1e300 in magnitude"),
    # evl * virtual_loss would overflow and leave selection no live edge
    ("virtual_loss", 1e308, "virtual_loss must not exceed 1e290"),
    ("virtual_loss", 5e307, "virtual_loss must not exceed 1e290"),
])
def test_config_range_errors_name_their_key(field, value, message):
    with pytest.raises(ValueError) as error:
        SearchConfig(**{field: value}).validate()
    assert str(error.value) == message


@pytest.mark.parametrize("overrides", [
    dict(c_puct_init=-1e300),
    dict(c_puct_init=1e300, c_puct_base=1e-290),
    dict(c_puct_base=1e-290, q_weight=1e300, tau=1.0),
    dict(dirichlet_epsilon=0.5, dirichlet_alpha=1e300),
    dict(mini_batch_size=64, virtual_loss=1e290),
])
def test_settings_at_their_bounds_search_with_finite_numbers(ttt, overrides):
    base, init = overrides.get("c_puct_base", 19652.0), overrides.get("c_puct_init", 2.5)
    assert math.isfinite(cpuct(2.0 ** 53, base, init) * math.sqrt(2.0 ** 53))
    assert math.isfinite(2.0 ** 53 * overrides.get("virtual_loss", 1.0))
    result = run_search(ttt, make_evaluator("oracle", ttt), ttt.initial_state(),
                        SearchConfig(budget_amount=300, seed=2, **overrides))
    numbers = [result.value] + result.policy + [
        x for a in result.actions for x in (a["prior"], a["q"]) if x is not None]
    assert all(math.isfinite(x) for x in numbers)
    assert sum(a["prior"] for a in result.actions) == pytest.approx(1.0)
    assert sum(result.policy) == pytest.approx(1.0)


# ----- evaluator output ---------------------------------------------------------


@pytest.mark.parametrize("evaluation,message", [
    (Evaluation(0.0, [0.05] * 20), "20 priors for 9 legal actions"),
    (Evaluation(0.0, [1.0]), "1 priors for 9 legal actions"),
    (Evaluation(0.0, [-0.1] + [1.1 / 8] * 8), "negative"),
    (Evaluation(0.0, [float("nan")] + [1 / 8] * 8), "non-finite"),
    (Evaluation(0.0, [INF] + [0.0] * 8), "non-finite"),
    (Evaluation(0.0, [0.0] * 9), "no mass"),
    (Evaluation(float("nan"), [1 / 9] * 9), "value nan"),
    (Evaluation(INF, [1 / 9] * 9), "value inf"),
    (Evaluation(1.5, [1 / 9] * 9), "value 1.5 outside"),
])
def test_bad_evaluator_output_is_rejected_naming_the_evaluator(ttt, evaluation, message):
    config = SearchConfig(budget_amount=32)
    with pytest.raises(ValueError, match="evaluator 'fixed' returned") as err:
        run_search(ttt, FixedEvaluator(evaluation), ttt.initial_state(), config)
    assert message in str(err.value)


@pytest.mark.parametrize("evaluation,message", [
    (Evaluation(0.0, dict.fromkeys(range(9), 1 / 9)), "priors of type dict, not a sequence"),
    (Evaluation(0.0, set(range(1, 10))), "priors of type set, not a sequence"),
    (Evaluation(0.0, (1 / 9 for _ in range(9))), "priors of type generator, not a sequence"),
    (Evaluation(0.0, "123456789"), "priors of type str, not a sequence"),
    (Evaluation(0.0, [None] * 9), "not an Evaluation of real numbers"),
    (Evaluation("0.5", [1 / 9] * 9), "not an Evaluation of real numbers"),
    (Evaluation(None, [1 / 9] * 9), "not an Evaluation of real numbers"),
    (Evaluation(0j, [1 / 9] * 9), "not an Evaluation of real numbers"),
    ((0.0, [1 / 9] * 9), "not an Evaluation of real numbers"),
    (Evaluation(Decimal("0.5"), [1 / 9] * 9), "not an Evaluation of real numbers (int or float)"),
    (Evaluation(0.0, [Decimal(1)] * 9), "not an Evaluation of real numbers (int or float)"),
    (Evaluation(Fraction(1, 2), [1 / 9] * 9), "not an Evaluation of real numbers (int or float)"),
    (Evaluation(0.0, [Fraction(1, 9)] * 9), "not an Evaluation of real numbers (int or float)"),
], ids=["dict", "set", "generator", "str", "none-priors", "str-value", "none-value",
        "complex-value", "plain-tuple", "decimal-value", "decimal-priors",
        "fraction-value", "fraction-priors"])
def test_evaluator_output_of_the_wrong_type_is_rejected_naming_the_evaluator(
        ttt, evaluation, message):
    # Each of these once searched on, summing a mapping's keys or a set's
    # elements as priors, or escaped as a TypeError or AttributeError. A
    # Decimal failed the float arithmetic with a bare TypeError, and a
    # Fraction value reached the result, which JSON cannot encode.
    config = SearchConfig(budget_amount=32)
    with pytest.raises(ValueError, match="evaluator 'fixed' returned") as err:
        run_search(ttt, FixedEvaluator(evaluation), ttt.initial_state(), config)
    assert message in str(err.value)


def test_an_already_expanded_leaf_counts_its_own_evaluation_again(ttt):
    # Two simulations of one flush wait on the same leaf: the first expands
    # it, and the second adds the leaf's own evaluator value once more.
    engine = SearchEngine(ttt, UniformEvaluator(ttt), SearchConfig())
    engine.reset(ttt.initial_state())
    root = engine._root
    engine._expand(root)
    child = engine._resolve_child(root, 0, ttt.apply(root.state, root.actions[0]))
    evaluator = _CountingEvaluator(FixedEvaluator(Evaluation(0.5, [1 / 8] * 8)))
    engine.evaluator = evaluator
    root.evl[0] = 2
    root.edge_total = 2
    for _ in range(2):
        engine._finish_eval(([(root, 0)], child))
    assert len(evaluator.states) == 1
    assert (child.n, child.v) == (2, 0.5)
    assert (root.en[0], root.evl[0], root.edge_total, root.q[0]) == (2, 0, 2, -0.5)


def test_eval_queue_partial_flush_and_empty_flush():
    queue = search.EvalQueue(mini_batch_size=16)
    for i in range(5):
        assert queue.submit(([], i)) is None
    assert len(queue) == 5
    assert [leaf for _, leaf in queue.flush()] == [0, 1, 2, 3, 4]
    assert len(queue) == 0
    assert queue.flush() == []


class _CountingEvaluator:
    """Forwards to an evaluator and records every state it is asked about."""

    def __init__(self, inner) -> None:
        self.inner = inner
        self.name = inner.name
        self.states = []

    def evaluate(self, state, actions):
        self.states.append(state)
        return self.inner.evaluate(state, actions)


def _expanded_states(engine) -> set:
    return {node.state for node in engine.store.nodes.values() if node.expanded}


def test_a_plain_tictactoe_search_evaluates_each_state_once():
    # The benchmark's ttt-plain search: 6,258 leaves reach the evaluator's
    # flush, 2,297 distinct states, one evaluator call each.
    env = make_env("tictactoe")
    evaluator = _CountingEvaluator(make_evaluator("heuristic", env))
    engine = SearchEngine(env, evaluator, SearchConfig(budget_amount=20_000, seed=11, **PLAIN))
    engine.reset(env.initial_state())
    result = engine.search()
    assert result.evaluations == 6_258
    assert len(evaluator.states) == len(set(evaluator.states)) == 2_297
    assert set(evaluator.states) == _expanded_states(engine)


@pytest.mark.parametrize("overrides", [{}, PLAIN], ids=["all_on", "plain"])
def test_an_engine_evaluates_each_state_once_across_searches(overrides):
    env = make_env("nim:3,4,5")
    evaluator = _CountingEvaluator(make_evaluator("deceptive", env))
    engine = SearchEngine(env, evaluator, SearchConfig(
        budget="evaluations", budget_amount=128, mini_batch_size=16, seed=2, **overrides))
    engine.reset(env.initial_state())
    evaluations = 0
    for _ in range(4):
        result = engine.search()
        evaluations += result.evaluations
        assert len(evaluator.states) == len(_expanded_states(engine))
        if result.selected_action is None:
            break
        engine.advance(result.selected_action)
    assert len(set(evaluator.states)) == len(evaluator.states) < evaluations


@pytest.mark.parametrize("overrides", [dict(eps_greedy=False, check_enhance=False), PLAIN],
                         ids=["graph", "tree"])
def test_a_state_twice_in_one_flush_is_checked_on_its_first_evaluation(
        ttt, monkeypatch, overrides):
    # Uniform priors: the tenth simulation of the first round finds every
    # root edge waiting and ties onto the first, so its leaf's state is
    # submitted twice. Its NaN value is rejected after one evaluator call.
    bad = ttt.apply(ttt.initial_state(), 0)

    class NanAtCellZero(UniformEvaluator):
        name = "nan-at-0"

        def evaluate(self, state, actions):
            evaluation = super().evaluate(state, actions)
            return evaluation._replace(value=math.nan) if state == bad else evaluation

    flushes = []

    class RecordingQueue(search.EvalQueue):
        def flush(self):
            flushes.append([leaf.state for _, leaf in self._pending])
            return super().flush()

    monkeypatch.setattr(search, "EvalQueue", RecordingQueue)
    evaluator = _CountingEvaluator(NanAtCellZero(ttt))
    engine = SearchEngine(ttt, evaluator, SearchConfig(
        budget_amount=100, mini_batch_size=16, **overrides))
    engine.reset(ttt.initial_state())
    with pytest.raises(ValueError, match="evaluator 'nan-at-0' returned value nan"):
        engine.search()
    assert flushes[-1].count(bad) == 2
    assert evaluator.states.count(bad) == 1


@pytest.mark.parametrize("transpositions", [True, False], ids=["graph", "tree"])
@pytest.mark.parametrize("mini_batch_size", [1, 16])
def test_every_evaluator_call_happens_inside_expand(transpositions, mini_batch_size):
    # Each call also gets a non-terminal state and exactly its legal actions:
    # an evaluator never sees a terminal state.
    env = make_env("nim:3,4,5")
    evaluator = make_evaluator("heuristic", env)
    engine = SearchEngine(env, evaluator, SearchConfig(
        budget="evaluations", budget_amount=64, mini_batch_size=mini_batch_size,
        transpositions=transpositions, seed=1))
    depth = [0]
    inside = []  # per evaluator call: whether an _expand call was running
    evaluate = evaluator.evaluate
    expand = engine._expand

    def watched_evaluate(state, actions):
        inside.append(depth[0] > 0)
        assert env.terminal_value(state) is None
        assert actions == env.legal_actions(state)
        return evaluate(state, actions)

    def watched_expand(node):
        depth[0] += 1
        try:
            return expand(node)
        finally:
            depth[0] -= 1

    evaluator.evaluate = watched_evaluate
    engine._expand = watched_expand
    engine.reset(env.initial_state())
    searches = 0
    for _ in range(4):  # a kept engine: later searches reuse the store
        result = engine.search()
        searches += 1
        if result.selected_action is None:
            break
        engine.advance(result.selected_action)
    assert searches > 1 and inside and all(inside)


@pytest.mark.parametrize("transpositions", [True, False], ids=["graph", "tree"])
@pytest.mark.parametrize("name", ["uniform", "heuristic", "oracle"])
def test_an_expansion_asks_the_env_for_legal_actions_once(ttt_table, name, transpositions):
    # The engine hands the evaluator the actions it asked the env for, so a
    # search makes one legal_actions call per evaluator call.
    env = make_env("tictactoe")
    negamax_cache(env).update(ttt_table)  # the oracle evaluator solves nothing anew
    evaluator = make_evaluator(name, env)
    calls = collections.Counter()
    for obj, attr in ((env, "legal_actions"), (evaluator, "evaluate")):
        method = getattr(obj, attr)

        def counted(*args, attr=attr, method=method):
            calls[attr] += 1
            return method(*args)

        setattr(obj, attr, counted)
    run_search(env, evaluator, env.initial_state(),
               SearchConfig(budget_amount=500, transpositions=transpositions, seed=3))
    assert calls["evaluate"] > 1 and calls["legal_actions"] == calls["evaluate"]


def _first_expansion(engine, state):
    """The state's expansion as the engine builds it: value, actions, priors."""
    actions = engine.env.legal_actions(state)
    evaluation = engine.evaluator.evaluate(state, actions)
    priors = apply_node_temperature(evaluation.priors, engine.config.node_tau)
    order = sorted(range(len(actions)), key=lambda j: -priors[j])
    return (evaluation.value, [actions[j] for j in order], [priors[j] for j in order])


def _two_nodes_of_one_state(engine, env, lines):
    """Place a tree-mode root at the end of each line; return the roots."""
    nodes = []
    for line in lines:
        engine.reset(env.initial_state())
        for action in line:
            engine.advance(action)
        nodes.append(engine._root)
    assert nodes[0] is not nodes[1] and nodes[0].state == nodes[1].state
    return nodes


def test_pruning_one_node_leaves_the_shared_priors_of_its_state_alone(ttt):
    engine = SearchEngine(ttt, make_evaluator("heuristic", ttt),
                          SearchConfig(transpositions=False, terminal_solver=True))
    first, second = _two_nodes_of_one_state(engine, ttt, [(0, 1, 2), (2, 1, 0)])
    engine._expand(first)
    engine._expand(second)
    expansion = engine._expansions[first.state]
    assert expansion == _first_expansion(engine, first.state)
    assert second.actions is first.actions and second.p is first.p
    loss = attach_child(engine.store, first, 0, status=SolverStatus.LOSS)
    engine.solver.note_link(first, loss)
    assert first.q[0] == NEG_INF and 0 not in first.live
    assert first.p is second.p is expansion[2] and second.q[0] != NEG_INF
    assert expansion == _first_expansion(engine, first.state)


def test_root_noise_leaves_the_shared_priors_of_its_state_alone(ttt):
    engine = SearchEngine(ttt, make_evaluator("heuristic", ttt), SearchConfig(
        budget_amount=50, dirichlet_epsilon=0.25, seed=4, **PLAIN))
    engine.reset(ttt.initial_state())
    engine.search()
    first = engine._root
    noised = list(first.p)
    engine.reset(ttt.initial_state())  # a second tree-mode node of the state
    engine.search()
    second = engine._root
    expansion = engine._expansions[ttt.initial_state()]
    assert second is not first and second.actions is first.actions
    assert expansion == _first_expansion(engine, ttt.initial_state())
    assert first.p == noised != expansion[2]
    assert second.p not in (noised, expansion[2])


def test_a_tree_mode_solver_search_prunes_no_shared_prior():
    # Pruning marks a node's own Q only: with no root noise, every node's
    # priors are its state's expansion list itself.
    env = make_env("tictactoe")
    engine = SearchEngine(env, make_evaluator("heuristic", env), SearchConfig(
        budget_amount=3_000, transpositions=False, terminal_solver=True, seed=5))
    engine.reset(env.initial_state())
    engine.search()
    pruned = 0
    for node in engine.store.nodes.values():
        if not node.expanded:
            continue
        expansion = engine._expansions[node.state]
        assert node.actions is expansion[1]
        assert node.p is expansion[2]
        pruned += NEG_INF in node.q
    assert pruned > 0
    for state, expansion in engine._expansions.items():
        assert expansion == _first_expansion(engine, state)


def test_a_tree_mode_search_shares_what_its_nodes_never_write(ttt):
    # Equal states are one object, a terminal's and an unexpanded node's too,
    # every k-edge node the solver has not narrowed reads one range(k),
    # back-references are tuples, and every unexpanded node's six edge slots
    # are one shared empty tuple.
    engine = SearchEngine(ttt, make_evaluator("heuristic", ttt),
                          SearchConfig(budget_amount=2_000, **PLAIN))
    engine.reset(ttt.initial_state())
    engine.search()
    states, lives, no_edges = {}, {}, set()
    for node in engine.store.nodes.values():
        assert type(node.parents) is tuple
        assert node.state is states.setdefault(node.state, node.state)
        if node.expanded:
            k = len(node.actions)
            assert node.live == range(k)
            assert node.live is lives.setdefault(k, node.live)
        else:
            assert node.child == ()
            no_edges.update(map(id, (node.actions, node.p, node.q, node.en, node.evl,
                                     node.child)))
    assert len(no_edges) == 1
    leaves = [node.state for node in engine.store.nodes.values() if not node.expanded]
    assert len(leaves) > len(set(leaves)) and len(lives) > 1


# ----- selection --------------------------------------------------------------


def _reference_scores(node, cfg):
    total = sum(n + v for n, v in zip(node.en, node.evl))
    scale = cpuct(total, cfg.c_puct_base, cfg.c_puct_init) * math.sqrt(total)
    scores = []
    for j in range(len(node.actions)):
        q = node.q[j]
        if q == NEG_INF:
            scores.append(-INF)
            continue
        m = node.en[j] + node.evl[j]
        if node.evl[j]:
            q = (node.en[j] * q - node.evl[j] * cfg.virtual_loss) / m
        scores.append(q + scale * node.p[j] / (1.0 + m))
    return scores


def test_selection_favors_the_unvisited_edge_at_low_totals(ttt):
    engine = _engine(ttt)
    node = expanded_node(engine.store, actions=[0, 1], priors=[0.5, 0.5])
    node.q[0] = 0.4
    node.en[0] = 10
    node.edge_total = 10
    assert engine._select_index(node) == 1


def test_selection_grows_the_scale_table_past_its_length_in_one_call(ttt, monkeypatch):
    monkeypatch.setattr(search, "_U_SCALES", {})
    engine = _engine(ttt, terminal_solver=False)
    cfg = engine.config
    node = expanded_node(engine.store, actions=[0, 1, 2], priors=[0.2, 0.5, 0.3])
    node.q = [0.1, -0.3, 0.05]
    node.en = [3000, 1200, 799]
    node.evl = [0, 1, 0]
    node.edge_total = 5000
    assert engine._u_scale == []
    picked = engine._select_index(node)
    scores = _reference_scores(node, cfg)
    assert scores[picked] == max(scores)
    assert len(engine._u_scale) > 5000
    for t, scale in enumerate(engine._u_scale):
        assert scale == cpuct(t, cfg.c_puct_base, cfg.c_puct_init) * math.sqrt(t)


def test_the_scale_table_stops_within_one_step_of_the_total_it_serves(ttt, monkeypatch):
    # Raised one selection at a time, the table grows 1,024 entries past
    # the total it must reach, never to twice its length.
    monkeypatch.setattr(search, "_U_SCALES", {})
    engine = _engine(ttt, terminal_solver=False)
    cfg = engine.config
    node = expanded_node(engine.store, actions=[0, 1])
    for total in range(3000):
        node.en[0] = node.edge_total = total
        engine._select_index(node)
        assert total < len(engine._u_scale) <= total + 1 + 1024
    assert len(engine._u_scale) == 3072
    for t, scale in enumerate(engine._u_scale):
        assert scale == cpuct(t, cfg.c_puct_base, cfg.c_puct_init) * math.sqrt(t)


def test_engines_with_the_same_puct_constants_share_one_scale_table(ttt, monkeypatch):
    monkeypatch.setattr(search, "_U_SCALES", {})
    first = _engine(ttt)
    assert _engine(ttt)._u_scale is first._u_scale
    assert _engine(ttt, c_puct_init=3.0)._u_scale is not first._u_scale
    assert _engine(ttt, c_puct_base=100.0)._u_scale is not first._u_scale
    # The shared table grows from the constants it was made for, so a config
    # edited afterwards cannot put foreign entries into it.
    first.config.c_puct_init = 9.0
    node = expanded_node(first.store, actions=[0, 1])
    node.en[0] = node.edge_total = 3000
    first._select_index(node)
    assert len(first._u_scale) > 3000
    assert all(scale == cpuct(t) * math.sqrt(t) for t, scale in enumerate(first._u_scale))


def test_selection_breaks_exact_ties_toward_the_lower_action(ttt):
    engine = _engine(ttt)
    node = expanded_node(engine.store, actions=[7, 3], priors=[0.5, 0.5])
    assert node.actions[engine._select_index(node)] == 3


def test_fresh_node_ties_on_q_init_because_the_u_term_vanishes(ttt):
    # With zero total visits sqrt(N) kills the prior term, so the very first
    # pick falls through to the action-id tie-break.
    engine = _engine(ttt)
    node = expanded_node(engine.store, actions=[1, 2, 0], priors=[0.7, 0.2, 0.1])
    assert node.actions[engine._select_index(node)] == 0


def test_virtual_loss_diverts_parallel_simulations(ttt):
    engine = _engine(ttt)
    node = expanded_node(engine.store, actions=[0, 1], priors=[0.5, 0.5])
    node.q = [0.6, 0.6]
    node.en = [5, 5]
    assert node.actions[engine._select_index(node)] == 0  # tie -> lower action
    node.evl[0] = 3  # three simulations already in flight
    assert node.actions[engine._select_index(node)] == 1


def _solved_edge_probe(engine, status):
    """Edge 0 looks best by far but leads to a child with `status`; edge 1
    leads to an unsolved child with a poor record. The solver then re-derives
    the node, as it does when a real search links a solved child."""
    node = expanded_node(engine.store, actions=[0, 1], priors=[0.9, 0.1])
    node.q = [1.0, -0.9]
    node.en = [10, 10]
    attach_child(engine.store, node, 0, status=status)
    attach_child(engine.store, node, 1)
    engine.solver.propagate(node)
    return node


@pytest.mark.parametrize("status", [SolverStatus.WIN, SolverStatus.LOSS,
                                    SolverStatus.DRAW], ids=lambda s: s.name)
def test_selection_skips_edges_into_real_solved_children(ttt, status):
    engine = _engine(ttt)
    node = _solved_edge_probe(engine, status)
    assert list(node.live) == [1]
    assert engine._select_index(node) == 1


@pytest.mark.parametrize("status", [SolverStatus.TB_WIN, SolverStatus.TB_DRAW],
                         ids=lambda s: s.name)
def test_selection_keeps_edges_into_probe_solved_children(ttt, status):
    engine = _engine(ttt)
    assert engine._select_index(_solved_edge_probe(engine, status)) == 0


def test_selection_returns_minus_one_when_every_edge_is_settled(ttt):
    engine = _engine(ttt)
    node = expanded_node(engine.store, actions=[0, 1, 2])
    attach_child(engine.store, node, 0, status=SolverStatus.WIN)
    attach_child(engine.store, node, 1, status=SolverStatus.DRAW)
    attach_child(engine.store, node, 2, status=SolverStatus.LOSS)  # pruned
    engine.solver.propagate(node)
    assert node.q[2] == NEG_INF
    assert node.live == ()
    assert engine._select_index(node) == -1


def _full_scan_pick(node, cfg, solver_on):
    """The PUCT pick from a scan of every edge: the best score, then the
    lowest action id; pruned edges and, with the solver on, edges into
    proven children are no candidates."""
    scores = _reference_scores(node, cfg)
    best = -1
    for j, score in enumerate(scores):
        child = node.child[j]
        if score == -INF or (solver_on and child is not None and is_real(child.status)):
            continue
        if (best < 0 or score > scores[best]
                or (score == scores[best] and node.actions[j] < node.actions[best])):
            best = j
    return best


_FUZZ_PRIORS = (0.4, 0.25, 0.25, math.nextafter(0.25, 0.0), 0.1, 1e-3, 0.0)
# Real statuses first: with the solver off a child gets one only as a terminal.
_FUZZ_STATUSES = (SolverStatus.WIN, SolverStatus.LOSS, SolverStatus.DRAW,
                  SolverStatus.TB_WIN, SolverStatus.TB_LOSS, SolverStatus.TB_DRAW)


@pytest.mark.parametrize("overrides", [
    {},
    {"terminal_solver": False, "q_init": 0.0, "virtual_loss": 3.0},
    {"c_puct_init": -3.0},
    {"c_puct_init": -1.0, "c_puct_base": 5.0, "terminal_solver": False},
    {"c_puct_init": 0.0, "c_puct_base": 1.0, "q_init": 0.5},
], ids=["default", "solver-off", "negative", "sign-change", "zero-init"])
def test_selection_picks_what_a_full_scan_picks(ttt, overrides):
    """Random edges: exact-tie priors, virtual loss, a drawn Q on unvisited
    edges too, and children of every status. A default-case node without a
    child selects as it would with the solver off."""
    import random

    engine = _engine(ttt, **overrides)
    cfg = engine.config
    solver_on = engine.solver is not None
    rng = random.Random(41)
    statuses = _FUZZ_STATUSES if solver_on else _FUZZ_STATUSES[:3]
    ties = 0
    for _ in range(4000):
        k = rng.randrange(1, 10)
        priors = [rng.choice(_FUZZ_PRIORS) if rng.random() < 0.6 else rng.random()
                  for _ in range(k)]
        node = expanded_node(engine.store, actions=rng.sample(range(3 * k), k),
                             priors=priors, q_init=cfg.q_init)
        for j in range(k):
            if rng.random() < 0.3:
                attach_child(engine.store, node, j, status=rng.choice(statuses))
            if rng.random() < 0.5:
                continue  # untried, as most edges are: the ties come from these
            node.en[j] = rng.choice((0, rng.randrange(1, 40)))
            node.evl[j] = rng.randrange(0, 3)
            if node.en[j] or rng.random() < 0.3:
                node.q[j] = rng.uniform(-1, 1)
        if solver_on:  # prunes the loss-like children and drops settled edges
            engine.solver.propagate(node)
        node.edge_total = sum(node.en) + sum(node.evl)
        expected = _full_scan_pick(node, cfg, solver_on)
        assert engine._select_index(node) == expected
        scores = _reference_scores(node, cfg)
        ties += sum(scores[j] == scores[expected] for j in node.live) > 1
    assert ties > 200


class _FullScanChecked(SearchEngine):
    """Checks every pick against `_full_scan_pick`, which reads q and the
    child statuses instead of the live list."""

    picks = 0

    def _select_index(self, node):
        picked = super()._select_index(node)
        assert picked == _full_scan_pick(node, self.config, self.solver is not None), node
        self.picks += 1
        return picked


@pytest.mark.parametrize("batch", [1, 5, 16])
@pytest.mark.parametrize("overrides", [
    {"dirichlet_epsilon": 0.25},
    {"terminal_solver": False},
    dict(PLAIN, dirichlet_epsilon=0.25),
], ids=["all-on-dirichlet", "solver-off", "plain-dirichlet"])
@pytest.mark.parametrize("game", ["tictactoe", "nim:2,3,4", "leftright:8"])
def test_every_search_pick_equals_a_full_scan(game, overrides, batch):
    _check_every_pick(_full_scan_engine(game, SearchConfig(
        budget_amount=150, mini_batch_size=batch, seed=batch, **overrides)))


@pytest.mark.parametrize("batch", [1, 5, 16])
@pytest.mark.parametrize("oracle", ["nim-xor", "table"])
def test_every_search_pick_with_an_endgame_oracle_equals_a_full_scan(oracle, batch):
    # The oracle gives TB statuses, whose edges stay live, and the proofs
    # that follow upgrade them to real ones, whose edges drop out.
    engine = _full_scan_engine("nim:2,3,4", SearchConfig(
        budget_amount=150, mini_batch_size=batch, seed=batch, endgame_oracle=oracle))
    upgraded = []
    recompute = engine.solver._recompute

    def recompute_noting_upgrades(node):
        was_tb = node.status >= SolverStatus.TB_WIN
        changed = recompute(node)
        if was_tb and is_real(node.status):
            upgraded.append(node)
        return changed

    engine.solver._recompute = recompute_noting_upgrades
    _check_every_pick(engine)
    assert upgraded


def _full_scan_engine(game, config):
    env = make_env(game)
    return _FullScanChecked(env, make_evaluator("heuristic", env), config)


def _check_every_pick(engine):
    engine.reset(engine.env.initial_state())
    for _ in range(6):
        result = engine.search()
        check_invariants(engine)
        if result.selected_action is None:
            break
        engine.advance(result.selected_action)
    assert engine.picks > 0


# ----- expansion --------------------------------------------------------------


def test_expansion_orders_edges_by_descending_prior():
    env = make_env("nim:1,1,1")
    evaluator = FixedEvaluator(Evaluation(0.25, [0.1, 0.7, 0.2]))
    engine = SearchEngine(env, evaluator, SearchConfig(node_tau=1.0))
    engine.reset(env.initial_state())
    root = engine._root
    assert engine._expand(root) == 0.25
    assert root.actions == [1, 2, 0]
    assert root.p == [0.7, 0.2, 0.1]
    assert root.q == [-1.0] * 3
    assert (root.n, root.v) == (0, 0.0)  # the backup counts the first visit
    assert root.expanded


@pytest.mark.parametrize("node_tau", [1.0, 1.0000001])
def test_expansion_renormalizes_priors_at_every_node_tau(node_tau):
    # The evaluator contract asks only for positive prior mass.
    env = make_env("nim:1,1")
    evaluator = FixedEvaluator(Evaluation(0.0, [2.0, 2.0]))
    engine = SearchEngine(env, evaluator, SearchConfig(node_tau=node_tau))
    engine.reset(env.initial_state())
    engine._expand(engine._root)
    assert engine._root.p == [0.5, 0.5]


def test_expansion_links_and_prunes_terminal_children(ttt):
    # X threatens 0-1-2: expanding this node immediately proves the win.
    engine = _engine(ttt)
    state = ttt.initial_state()
    for move in (0, 4, 1, 5):
        state = ttt.apply(state, move)
    engine.reset(state)
    root = engine._root
    engine._expand(root)
    idx = root.actions.index(2)
    assert root.child[idx] is not None
    assert root.child[idx].status == SolverStatus.LOSS  # the terminal, stamped
    assert root.status.name == "WIN"
    assert root.end_in_ply == 1
    assert root.q[idx] == NEG_INF  # the mating edge is a proven loss child


# ----- descent and early stops --------------------------------------------------


def _early_stop_setup(q_edge, edge_n, child_n, child_v, **overrides):
    """An engine whose root edge 1 is stale against its better-visited child."""
    env = make_env("leftright:8")
    engine = _engine(env, eps_greedy=False, check_enhance=False, **overrides)
    state = env.initial_state()
    engine.reset(state)
    root = engine._root
    engine._expand(root)  # uniform: value 0, priors [0.5, 0.5]
    idx = root.actions.index(1)
    child = engine._resolve_child(root, idx, env.apply(state, 1))
    child.n = child_n
    child.v = child_v
    root.q[idx] = q_edge
    root.en[idx] = edge_n
    return engine, root, idx


def _early_stop_probe(q_edge, edge_n, child_n, child_v, **overrides):
    """Descend the stale edge: (descent, early stops, values handed to backprop)."""
    engine, root, idx = _early_stop_setup(q_edge, edge_n, child_n, child_v, **overrides)
    backups = []
    engine._backpropagate = lambda pairs, value, leaf=None: backups.append(value)
    descent = engine._descend(root, forced_idx=idx)
    return descent, engine.stats.early_stops, backups


def test_early_stop_fires_on_a_stale_edge():
    descent, early, backups = _early_stop_probe(q_edge=0.2, edge_n=2, child_n=6, child_v=-0.5)
    assert descent is None and early == 1
    # v* = 0.5 from the parent's perspective; 0.5 + 2 * 0.3 = 1.1 clips to 1,
    # and the backup carries it from the child's side
    assert backups == [-1.0]


def test_early_stop_clips_the_worked_example_to_minus_one():
    descent, early, backups = _early_stop_probe(q_edge=0.8, edge_n=5, child_n=6, child_v=-0.2)
    assert descent is None and early == 1
    assert backups == [1.0]


def test_early_stop_value_inside_range_is_the_exact_landing_sample():
    descent, early, backups = _early_stop_probe(q_edge=0.2, edge_n=1, child_n=6, child_v=-0.3)
    assert descent is None and early == 1
    assert backups == [pytest.approx(-(0.3 + 1 * (0.3 - 0.2)))]


def _reaches_a_leaf(probe):
    descent, early, backups = probe
    return descent is not None and early == 0 and backups == []


def test_no_early_stop_inside_the_agreement_band():
    # |v* - q| <= q_epsilon: keep walking
    assert _reaches_a_leaf(_early_stop_probe(q_edge=0.495, edge_n=2, child_n=6, child_v=-0.5))


def test_no_early_stop_without_extra_child_visits():
    assert _reaches_a_leaf(_early_stop_probe(q_edge=0.2, edge_n=6, child_n=6, child_v=-0.5))


def test_no_early_stop_with_transpositions_off():
    assert _reaches_a_leaf(_early_stop_probe(q_edge=0.2, edge_n=2, child_n=6, child_v=-0.5,
                                             transpositions=False))


def test_resolving_onto_an_oracle_proven_loss_ends_on_its_settled_value():
    # A transposition resolves a fresh edge onto a TB_LOSS node: the edge is
    # pruned on the spot, and an early stop off its -inf Q would back up NaN.
    env = make_env("nim:1,1,2")
    engine = SearchEngine(env, UniformEvaluator(env), SearchConfig(
        mini_batch_size=2, budget_amount=10, eps_greedy=False, check_enhance=False,
        endgame_oracle="nim-xor"))
    engine.reset(env.initial_state())
    result = engine.search()
    assert math.isfinite(result.value)
    assert all(math.isfinite(node.v) for node in engine.store.nodes.values())


# ----- backpropagation ----------------------------------------------------------


def test_backprop_flips_the_leaf_value_once(ttt):
    engine = _engine(ttt)
    store = GraphStore()
    root = expanded_node(store, actions=[0])
    engine._backpropagate([(root, 0)], 0.6)
    assert root.en[0] == 1
    assert root.edge_total == 1
    assert root.q[0] == pytest.approx(-0.6)
    assert root.evl[0] == 0  # untouched: backprop lifts no virtual loss
    assert (root.n, root.v) == (1, pytest.approx(-0.6))


def test_backprop_lands_an_early_stop_edge_on_the_child_value():
    # dyadic values: the unclipped landing sample 0.75 is exact in binary
    engine, root, idx = _early_stop_setup(q_edge=0.25, edge_n=1, child_n=6, child_v=-0.5)
    backprop = engine._backpropagate
    backed_up = []
    engine._backpropagate = lambda pairs, value, leaf=None: (backed_up.append(list(pairs)),
                                                             backprop(pairs, value, leaf))
    child = root.child[idx]
    child_v = child.v
    assert engine._descend(root, forced_idx=idx) is None
    assert engine.stats.early_stops == 1
    assert backed_up == [[(root, idx)]]
    assert root.q[idx] == -child_v
    assert root.en[idx] == 2
    assert root.evl[idx] == 0
    assert child.v == child_v  # an early stop leaves the child untouched


def test_backprop_reanchors_above_a_join(ttt):
    engine = _engine(ttt)
    store = GraphStore()
    root = expanded_node(store, actions=[0])
    mid = expanded_node(store, actions=[0], ply=1)
    other = expanded_node(store, actions=[0])
    store.link(root, 0, mid, was_existing=False)
    store.link(other, 0, mid, was_existing=True)
    assert len(mid.parents) == 2

    mid.n, mid.v = 3, -0.1
    root.q[0], root.en[0] = 0.3, 4

    engine._backpropagate([(root, 0), (mid, 0)], 0.5)
    # mid's value moved to -0.2, so the edge above re-anchors on +0.2 and the
    # correction sample lands root's average exactly there.
    assert mid.v == pytest.approx(-0.2)
    assert root.q[0] == pytest.approx(0.2)
    assert root.en[0] == 5


def test_backprop_through_a_pruned_edge_above_a_join_averages_the_join_value_negated(ttt):
    engine = _engine(ttt)
    store = GraphStore()
    root = expanded_node(store, actions=[0])
    mid = expanded_node(store, actions=[0], ply=1)
    other = expanded_node(store, actions=[0])
    store.link(root, 0, mid, was_existing=False)
    store.link(other, 0, mid, was_existing=True)
    mid.n, mid.v = 3, -0.1
    root.n, root.v = 1, 0.0
    root.q[0] = NEG_INF

    engine._backpropagate([(root, 0), (mid, 0)], 0.5)
    # mid's value moved to -0.2. The pruned edge has no Q to correct, so
    # root's average takes qTarget = -mid.v = +0.2 itself as its sample.
    assert mid.v == pytest.approx(-0.2)
    assert (root.n, root.v) == (2, pytest.approx(0.1))
    assert (root.en[0], root.q[0]) == (1, NEG_INF)


def test_backprop_correction_saturates_at_the_value_floor(ttt):
    engine = _engine(ttt)
    store = GraphStore()
    root = expanded_node(store, actions=[0])
    mid = expanded_node(store, actions=[0], ply=1)
    other = expanded_node(store, actions=[0])
    store.link(root, 0, mid, was_existing=False)
    store.link(other, 0, mid, was_existing=True)

    mid.n, mid.v = 0, 0.0
    root.q[0], root.en[0] = 0.9, 5

    engine._backpropagate([(root, 0), (mid, 0)], -0.5)
    assert mid.v == pytest.approx(0.5)
    # raw landing sample is -7.5; the clipped -1 moves Q as far as it can
    assert root.q[0] == pytest.approx(0.9 + (-1.0 - 0.9) / 6)


def test_a_proven_root_counts_each_settled_simulation_at_its_status_value(ttt):
    # After 0,4,1,5 the side to move wins at once. With stop_when_solved off,
    # each simulation after the proof settles on the root itself: one root
    # visit and one terminal, whose sample is the WIN value +1, so the
    # root's search average moves toward it. A terminal's v never moves.
    state = ttt.initial_state()
    for action in (0, 4, 1, 5):
        state = ttt.apply(state, action)
    engine = SearchEngine(ttt, UniformEvaluator(ttt), SearchConfig(
        stop_when_solved=False, seed=1, budget_amount=100))
    engine.reset(state)
    engine.search()
    root = engine._root
    assert root.status == SolverStatus.WIN
    assert (root.n, root.v) == (100, pytest.approx(0.67))
    edges = list(root.en)
    engine.config.budget_amount = 1
    for _ in range(3):
        n, v = root.n, root.v
        result = engine.search()
        assert (result.simulations, result.terminal_trajectories) == (1, 1)
        assert root.n == n + 1
        assert root.v == v + (1.0 - v) / (n + 1)
    assert root.en == edges

    # With the solver off, nothing proves the root, and the descents settle
    # on the terminals themselves.
    engine = SearchEngine(ttt, UniformEvaluator(ttt), SearchConfig(
        terminal_solver=False, seed=1, budget_amount=100))
    engine.reset(state)
    assert engine.search().terminal_trajectories > 0
    terminals = [node for node in engine.store.nodes.values()
                 if ttt.terminal_value(node.state) is not None]
    assert max(node.n for node in terminals) > 1
    for node in terminals:
        assert node.v == ttt.terminal_value(node.state).score


# ----- virtual loss -------------------------------------------------------------


def _counts(engine):
    """Every expanded node's edge visits, virtual losses and edge total."""
    return {node: (list(node.en), list(node.evl), node.edge_total)
            for node in engine.store.nodes.values() if node.expanded}


def _assert_counted(engine, before, pairs, en_step, evl_step):
    """Each pair's edge moved by en_step and evl_step, its node's total by
    their sum, and every other count is as it was. A node expanded since
    `before` has only zero counts."""
    expected = {node: (list(en), list(evl), total) for node, (en, evl, total) in before.items()}
    for node, i in pairs:
        en, evl, total = expected[node]
        en[i] += en_step
        evl[i] += evl_step
        expected[node] = (en, evl, total + en_step + evl_step)
    after = _counts(engine)
    for node in after.keys() - expected.keys():
        en, evl, total = after.pop(node)
        assert not any(en) and not any(evl) and total == 0
    assert after == expected


def _record_backups(engine):
    """The list of path pairs that each later _backpropagate call receives."""
    backprop = engine._backpropagate
    seen = []
    engine._backpropagate = lambda pairs, value, leaf=None: (seen.append(list(pairs)),
                                                             backprop(pairs, value, leaf))
    return seen


def test_a_descent_ending_on_a_terminal_lays_no_virtual_loss(ttt):
    # X to move with 5 and 8 empty: 8 leaves O only 5, a full-board draw, so
    # the descent forced into 8 ends on a terminal two edges down.
    state = ttt.initial_state()
    for move in (4, 0, 1, 7, 6, 2, 3):
        state = ttt.apply(state, move)
    engine = _engine(ttt, budget_amount=20, **PLAIN)
    engine.reset(state)
    engine.search()
    root = engine._root
    idx = root.actions.index(8)
    assert root.child[idx].expanded
    before = _counts(engine)
    terminals = engine.stats.terminals
    backed_up = _record_backups(engine)
    assert engine._descend(root, forced_idx=idx) is None
    assert engine.stats.terminals == terminals + 1
    [pairs] = backed_up
    assert [node for node, _ in pairs] == [root, root.child[idx]]
    _assert_counted(engine, before, pairs, en_step=1, evl_step=0)
    check_invariants(engine)


def _stops_early(engine, node, i):
    """Whether a descent along edge i of node stops early there."""
    child = node.child[i]
    return (child is not None and child.status == SolverStatus.UNKNOWN
            and child.n > node.en[i]
            and abs(-child.v - node.q[i]) > engine.config.q_epsilon)


def test_a_descent_ending_in_an_early_stop_lays_no_virtual_loss():
    env = make_env("nim:2,3,4")
    engine = SearchEngine(env, make_evaluator("deceptive", env), SearchConfig(
        budget_amount=200, seed=1, eps_greedy=False, check_enhance=False))
    engine.reset(env.initial_state())
    engine.search()
    root = engine._root
    # a root edge into a node whose own pick stops early: a two-edge descent
    idx = next(j for j, child in enumerate(root.child)
               if child is not None and child.live and not _stops_early(engine, root, j)
               and _stops_early(engine, child, engine._select_index(child)))
    before = _counts(engine)
    early = engine.stats.early_stops
    backed_up = _record_backups(engine)
    assert engine._descend(root, forced_idx=idx) is None
    assert engine.stats.early_stops == early + 1
    [pairs] = backed_up
    assert len(pairs) == 2
    _assert_counted(engine, before, pairs, en_step=1, evl_step=0)
    check_invariants(engine)


def test_a_waiting_leaf_carries_one_virtual_loss_until_its_evaluation(ttt):
    engine = _engine(ttt, budget_amount=30, **PLAIN)
    engine.reset(ttt.initial_state())
    engine.search()
    before = _counts(engine)
    pairs, leaf = engine._descend(engine._root)
    assert len(pairs) >= 2
    _assert_counted(engine, before, pairs, en_step=0, evl_step=1)
    engine._finish_eval((pairs, leaf))
    _assert_counted(engine, before, pairs, en_step=1, evl_step=0)
    check_invariants(engine)


def test_a_full_store_mid_descent_leaves_the_counts_as_they_were(ttt):
    engine = _engine(ttt, budget_amount=30, **PLAIN)
    engine.reset(ttt.initial_state())
    engine.search()
    root = engine._root
    assert None not in root.child  # so the resolve that fails is below the root
    engine.store.capacity = len(engine.store.nodes)
    before = _counts(engine)
    with pytest.raises(StoreFullError):
        engine._descend(root)
    assert _counts(engine) == before
    check_invariants(engine)


def test_every_descent_of_a_search_touches_each_edge_once():
    # Leaves in flight, terminals, early stops and exploration branches: a
    # backed-up descent adds one visit to each of its edges, a waiting one
    # one virtual loss, and no other count moves. Only the backups count
    # visits: a node's n is its count as a backup's leaf plus its count in
    # backup paths, a new leaf's or the root's first visit included.
    env = make_env("nim:2,3,4")
    engine = SearchEngine(env, make_evaluator("deceptive", env),
                          SearchConfig(budget_amount=300, mini_batch_size=8, seed=5))
    descend = engine._descend
    backprop = engine._backpropagate
    kinds = set()
    visits = collections.Counter()

    def counted_backprop(pairs, value, leaf=None):
        visits.update(node for node, _ in pairs)
        if leaf is not None:
            visits[leaf] += 1
        backprop(pairs, value, leaf)

    def checked_descend(node, forced_idx=None):
        before = _counts(engine)
        early = engine.stats.early_stops
        backed_up = _record_backups(engine)
        descent = descend(node, forced_idx)
        engine._backpropagate = counted_backprop
        if descent is None:
            [pairs] = backed_up
            kinds.add("early stop" if engine.stats.early_stops > early else "settled")
            _assert_counted(engine, before, pairs, en_step=1, evl_step=0)
        else:
            assert backed_up == []
            kinds.add("leaf")
            _assert_counted(engine, before, descent[0], en_step=0, evl_step=1)
        return descent

    engine._descend = checked_descend
    engine._backpropagate = counted_backprop
    engine.reset(env.initial_state())
    engine.search()
    assert kinds == {"early stop", "settled", "leaf"}
    assert {node: node.n for node in engine.store.nodes.values() if node.n} == visits
    check_invariants(engine)


# ----- end-to-end searches ------------------------------------------------------


@pytest.mark.parametrize("overrides", [{}, PLAIN], ids=["solver", "plain"])
def test_search_at_a_terminal_root_returns_immediately(ttt, overrides):
    # The root's DRAW is the stamp its node got at creation, solver or not.
    state = ttt.initial_state()
    for move in (4, 0, 1, 7, 6, 2, 3, 5, 8):
        state = ttt.apply(state, move)
    assert ttt.terminal_value(state) is not None
    engine = _engine(ttt, **overrides)
    engine.reset(state)
    result = engine.search()
    assert result.stop_reason == "terminal_root"
    assert result.selected_action is None
    assert result.policy == [] and result.pv == []
    assert result.simulations == 0 and result.evaluations == 0
    assert result.root_status == "DRAW"


def test_single_simulation_budget_expands_only_the_root(ttt):
    result = run_search(ttt, UniformEvaluator(ttt), ttt.initial_state(),
                        SearchConfig(budget_amount=1))
    assert result.stop_reason == "budget"
    assert result.simulations == 1
    assert result.evaluations == 1
    assert result.selected_action in range(9)
    assert len(result.actions) == 9


def test_simulation_budget_is_exact_without_the_solver(ttt):
    result = run_search(ttt, UniformEvaluator(ttt), ttt.initial_state(),
                        SearchConfig(budget_amount=200, terminal_solver=False))
    assert result.simulations == 200
    assert result.stop_reason == "budget"


def test_evaluation_budget_is_exact(ttt):
    config = SearchConfig(budget="evaluations", budget_amount=150,
                          terminal_solver=False)
    result = run_search(ttt, UniformEvaluator(ttt), ttt.initial_state(), config)
    assert result.evaluations == 150
    assert result.stop_reason == "budget"
    assert result.simulations >= result.evaluations


def test_millisecond_budget_stops_on_the_clock(ttt):
    config = SearchConfig(budget="milliseconds", budget_amount=50)
    result = run_search(ttt, UniformEvaluator(ttt), ttt.initial_state(), config)
    assert result.stop_reason == "budget"
    assert result.wall_ms >= 40.0


def test_millisecond_budget_breaks_the_round_on_the_clock(ttt, monkeypatch):
    # Every clock read moves 1 ms on, so the 5 ms budget runs out well inside
    # the first round of 64 leaves: only the check within the round stops it.
    ticks = itertools.count()
    monkeypatch.setattr(search.time, "perf_counter", lambda: next(ticks) / 1000.0)
    config = SearchConfig(budget="milliseconds", budget_amount=5, mini_batch_size=64,
                          terminal_solver=False, eps_greedy=False, check_enhance=False)
    result = run_search(ttt, UniformEvaluator(ttt), ttt.initial_state(), config)
    assert result.stop_reason == "budget"
    assert result.simulations < 65


def test_solver_stops_the_search_on_a_mate_in_one(ttt):
    state = ttt.initial_state()
    for move in (0, 4, 1, 5):
        state = ttt.apply(state, move)
    result = run_search(ttt, UniformEvaluator(ttt), state,
                        SearchConfig(budget_amount=10_000))
    assert result.stop_reason == "solved"
    assert result.root_status == "WIN"
    assert result.root_end_in_ply == 1
    assert result.selected_action == 2
    assert result.pv[0] == 2
    assert result.simulations < 10_000
    # the mating edge leads to a proven-loss child: pruned, policy overridden
    entry = next(a for a in result.actions if a["action"] == 2)
    assert entry["pruned"] is True
    assert entry["q"] is None
    assert entry["policy"] == 1.0


def test_stop_when_solved_off_spends_the_full_budget(ttt):
    state = ttt.initial_state()
    for move in (0, 4, 1, 5):
        state = ttt.apply(state, move)
    result = run_search(ttt, UniformEvaluator(ttt), state,
                        SearchConfig(budget_amount=300, stop_when_solved=False))
    assert result.stop_reason == "budget"
    assert result.simulations == 300
    assert result.root_status == "WIN"
    assert result.selected_action == 2


class _StopCheckedEverySimulation(SearchEngine):
    """The batching loop as it reads plainly: the stop rule checked before
    every simulation, with the leaves still in the queue counted as spent.
    The engine's loop turns the count budgets into per-round counts; both
    must stop on the same simulation."""

    def _stop_reason(self, root, queue, t0):
        config = self.config
        stats = self.stats
        if stats.store_full:
            return "store_full"
        if config.stop_when_solved and root.status in (SolverStatus.WIN, SolverStatus.LOSS,
                                                     SolverStatus.DRAW):
            return "solved"
        if config.budget == "simulations":
            spent = stats.evaluations + stats.terminals + stats.early_stops + len(queue)
        elif config.budget == "evaluations":
            spent = stats.evaluations + len(queue)
        else:
            spent = (time.perf_counter() - t0) * 1000.0
        return "budget" if spent >= config.budget_amount else None

    def _run(self, root, queue, t0):
        batch = queue.mini_batch_size
        stall_rounds = 0
        while True:
            reason = self._stop_reason(root, queue, t0)
            if reason is not None:
                return reason
            if stall_rounds >= search.STALL_ROUNDS:
                return "stalled"
            terminals_this_round = 0
            while (terminals_this_round < search.TERMINAL_CAP_FACTOR * batch
                   and self._stop_reason(root, queue, t0) is None):
                try:
                    descent = self._simulate(root)
                except StoreFullError:
                    self.stats.store_full = True
                    break
                if descent is None:
                    terminals_this_round += 1
                else:
                    queue.submit(descent)
                    if len(queue) == batch:
                        break
            flushed = queue.flush()
            self.stats.evaluations += len(flushed)
            self.stats.batch_peak = max(self.stats.batch_peak, len(flushed))
            for descent in flushed:
                self._finish_eval(descent)
            if self.config.budget == "evaluations":
                stall_rounds = 0 if flushed else stall_rounds + 1


@pytest.mark.parametrize("game, evaluator, overrides, reason", [
    ("tictactoe", "uniform", dict(budget_amount=300, mini_batch_size=4), "budget"),
    ("nim:3,4,5", "deceptive", dict(budget="evaluations", budget_amount=128), "budget"),
    ("nim:3,4,5", "deceptive", dict(budget="evaluations", budget_amount=64, **PLAIN), "budget"),
    ("nim:1,2,3", "deceptive", dict(budget="evaluations", budget_amount=1_000, **PLAIN),
     "stalled"),
    ("nim:2,3,4", "heuristic", dict(budget_amount=100_000, mini_batch_size=8), "solved"),
    ("nim:2,3,4", "heuristic", dict(budget="evaluations", budget_amount=100_000), "solved"),
    ("tictactoe", "heuristic", dict(budget_amount=2_000, capacity=60), "store_full"),
], ids=["simulations", "evaluations", "evaluations_plain", "stalled", "solved",
        "solved_evals", "store_full"])
def test_every_stop_fires_on_the_same_simulation_as_a_check_per_simulation(
        game, evaluator, overrides, reason):
    env = make_env(game)
    reasons = set()
    engines = [cls(env, make_evaluator(evaluator, env), SearchConfig(seed=3, **overrides))
               for cls in (SearchEngine, _StopCheckedEverySimulation)]
    for engine in engines:
        engine.reset(env.initial_state())
    for _ in range(4):
        results = [engine.search().to_dict() for engine in engines]
        for result in results:
            result.pop("wall_ms")
        assert results[0] == results[1]
        reasons.add(results[0]["stop_reason"])
        if results[0]["selected_action"] is None:
            break
        for engine in engines:
            engine.advance(results[0]["selected_action"])
    assert reason in reasons


def test_chain_game_walks_right():
    env = make_env("leftright:16")
    config = SearchConfig(budget="evaluations", budget_amount=512)
    result = run_search(env, UniformEvaluator(env), env.initial_state(), config)
    assert result.selected_action == 1
    assert result.stop_reason == "solved"
    assert result.root_status == "WIN"


def test_search_is_deterministic_for_a_fixed_seed(ttt):
    config = SearchConfig(budget_amount=300, tau=0.7, seed=42)
    a = run_search(ttt, UniformEvaluator(ttt), ttt.initial_state(), config)
    b = run_search(ttt, UniformEvaluator(ttt), ttt.initial_state(), config)
    da, db = a.to_dict(), b.to_dict()
    da.pop("wall_ms"), db.pop("wall_ms")
    assert da == db


def test_advance_reuses_the_subtree(ttt):
    engine = _engine(ttt, budget_amount=400)
    engine.reset(ttt.initial_state())
    first = engine.search()
    root = engine._root
    idx = root.actions.index(first.selected_action)
    child = root.child[idx]
    assert child is not None and child.n > 0
    carried = child.n
    nodes_before = len(engine.store.nodes)

    engine.advance(first.selected_action)
    assert engine._root is child
    assert engine._root.n == carried
    assert len(engine.store.nodes) == nodes_before  # nothing was rebuilt

    second = engine.search()
    assert second.ply == 1
    assert second.simulations > 0


def test_advance_through_a_mate_reaches_a_terminal_root(ttt):
    state = ttt.initial_state()
    for move in (0, 4, 1, 5):
        state = ttt.apply(state, move)
    engine = _engine(ttt, budget_amount=10_000)
    engine.reset(state)
    result = engine.search()
    assert result.root_status == "WIN"
    engine.advance(result.selected_action)
    final = engine.search()
    assert final.stop_reason == "terminal_root"
    assert final.root_status == "LOSS"  # the side to move has been mated
    assert final.value == -1.0
    with pytest.raises(ValueError, match="already over"):
        engine.advance(8)  # an empty square, but the game has ended


def test_advance_keeps_solved_statuses_and_pruning(ttt):
    state = ttt.initial_state()
    for move in (0, 4):
        state = ttt.apply(state, move)
    engine = _engine(ttt, budget_amount=2000, stop_when_solved=False)
    engine.reset(state)
    engine.search()
    root = engine._root
    pruned_before = [(root.actions[j], root.q[j] == NEG_INF)
                     for j in range(len(root.actions))]
    engine.advance(root.actions[0])
    engine.advance(engine._root.actions[0] if engine._root.expanded else 5)
    # walking back to the same store must not resurrect pruned edges
    for action, was_pruned in pruned_before:
        j = root.actions.index(action)
        assert (root.q[j] == NEG_INF) == was_pruned


def test_advance_rejects_an_illegal_action_with_the_env_error(ttt):
    engine = _engine(ttt, budget_amount=50)
    engine.reset(ttt.apply(ttt.initial_state(), 4))
    engine.search()
    with pytest.raises(ValueError, match="illegal tictactoe action 4"):
        engine.advance(4)

    # A proven root is still live: the game goes on, so the env rejects the move.
    state = ttt.initial_state()
    for move in (0, 3, 1):
        state = ttt.apply(state, move)
    engine = _engine(ttt, budget_amount=5000)
    engine.reset(state)
    assert engine.search().root_status == "LOSS"
    for action in (0, 42):
        with pytest.raises(ValueError, match=f"illegal tictactoe action {action}"):
            engine.advance(action)


def test_advance_into_a_full_store_places_the_root_and_stops_the_search(ttt):
    engine = _engine(ttt, budget_amount=500, capacity=5)
    engine.reset(ttt.initial_state())
    assert engine.search().stop_reason == "store_full"
    root = engine._root
    action = next(a for j, a in enumerate(root.actions) if root.child[j] is None)
    engine.advance(action)  # a child the store has no room for
    assert len(engine.store.nodes) == 6  # the root alone is placed past capacity
    assert root.child[root.actions.index(action)] is engine._root
    result = engine.search()
    assert result.stop_reason == "store_full"
    assert result.selected_action in ttt.legal_actions(engine._root.state)


def test_store_full_stops_gracefully(ttt):
    config = SearchConfig(budget_amount=500, capacity=5)
    result = run_search(ttt, UniformEvaluator(ttt), ttt.initial_state(), config)
    assert result.stop_reason == "store_full"
    assert result.memory["node_count"] <= 5
    assert result.selected_action is not None  # best-so-far still reported


def test_store_full_stops_an_evaluation_budget_search(ttt):
    # One-leaf rounds: the round that fills the store evaluates nothing, and
    # the next round's stop check reports the full store, not a stall.
    config = SearchConfig(budget="evaluations", budget_amount=500, capacity=5,
                          mini_batch_size=1)
    result = run_search(ttt, UniformEvaluator(ttt), ttt.initial_state(), config)
    assert result.stop_reason == "store_full"


@pytest.mark.parametrize("batch", [1, 16])
def test_trajectory_buffer_size_is_the_largest_batch_evaluated(ttt, batch):
    config = SearchConfig(budget_amount=200, mini_batch_size=batch, **PLAIN)
    result = run_search(ttt, UniformEvaluator(ttt), ttt.initial_state(), config)
    assert result.evaluations >= 16
    assert result.memory["trajectory_buffer_size"] == batch


def test_each_search_on_a_reused_engine_reports_its_own_largest_flush():
    env = make_env("nim:3,4,5")
    engine = SearchEngine(env, make_evaluator("heuristic", env),
                          SearchConfig(budget="evaluations", budget_amount=64, seed=1))
    engine.reset(env.initial_state())
    sizes = [engine.search().memory["trajectory_buffer_size"]]
    engine.config.budget_amount = 5  # every later flush holds at most 5 leaves
    for _ in range(100):
        result = engine.search()
        sizes.append(result.memory["trajectory_buffer_size"])
        if result.evaluations == 0:
            break
    assert result.stop_reason == "solved"  # a proven root: no round, no flush
    assert sizes[:2] == [16, 5]
    assert sizes[-1] == 0


def test_table_oracle_is_not_solved_without_the_solver(monkeypatch):
    solved = record_solves(monkeypatch, "mcgs.solver")
    env = make_env("nim:3,4,5")
    config = SearchConfig(budget_amount=50, endgame_oracle="table", **PLAIN)
    result = run_search(env, UniformEvaluator(env), env.initial_state(), config)
    assert result.simulations == 50
    calls = [key for key in solved if key == env.initial_state()]
    assert calls == []

    config = SearchConfig(budget_amount=50, endgame_oracle="table")
    run_search(env, UniformEvaluator(env), env.initial_state(), config)
    calls = [key for key in solved if key == env.initial_state()]
    assert len(calls) == 1  # the solver's first probe solves the game, once


def test_an_oracle_search_with_a_table_oracle_solves_each_state_once(monkeypatch):
    # The oracle evaluator and the table oracle solve into the env's one
    # negamax cache, so no state is solved twice.
    solved = record_solves(monkeypatch, "mcgs.evaluators", "mcgs.solver")
    env = make_env("tictactoe")
    config = SearchConfig(budget_amount=200, endgame_oracle="table", seed=1)
    result = run_search(env, make_evaluator("oracle", env), env.initial_state(), config)
    assert len(solved) == len(set(solved)) == 5478
    assert (result.selected_action, result.root_status) == (5, "TB_DRAW")


def _check_the_stall_bounce(engine, bounce):
    """Each later search on an exhausted root evaluates nothing: it backs up
    `bounce` terminals, STALL_ROUNDS rounds at the terminal cap, then stalls."""
    batch = engine.config.mini_batch_size
    assert bounce == search.STALL_ROUNDS * search.TERMINAL_CAP_FACTOR * batch
    for _ in range(2):
        result = engine.search()
        assert (result.stop_reason, result.evaluations) == ("stalled", 0)
        assert result.simulations == result.terminal_trajectories == bounce


def test_search_stalls_when_the_game_is_exhausted():
    env = make_env("leftright:4")
    # batch size 1 so duplicate leaves never share a collection round
    engine = _engine(env, budget="evaluations", budget_amount=100,
                     terminal_solver=False, mini_batch_size=1)
    engine.reset(env.initial_state())
    result = engine.search()
    assert result.stop_reason == "stalled"
    # exactly one evaluation per non-terminal position in the chain
    assert result.evaluations == 3
    _check_the_stall_bounce(engine, 64)


def test_a_plain_engine_bounces_on_an_exhausted_nim_root():
    env = make_env("nim:2,3")
    engine = SearchEngine(env, make_evaluator("heuristic", env), SearchConfig(
        budget="evaluations", budget_amount=500, mini_batch_size=16, **PLAIN))
    engine.reset(env.initial_state())
    result = engine.search()
    assert (result.stop_reason, result.evaluations) == ("stalled", 79)
    _check_the_stall_bounce(engine, 1024)


def test_dirichlet_noise_is_mixed_once_per_root_placement(ttt):
    engine = _engine(ttt, budget_amount=50, dirichlet_epsilon=0.25, seed=3)
    engine.reset(ttt.initial_state())
    engine.search()
    root = engine._root
    first = list(root.p)
    assert sum(first) == pytest.approx(1.0)
    engine.search()
    assert root.p == first  # a second search on the same root adds no noise

    action = root.actions[0]
    child = root.child[0]
    assert child is not None and child.expanded
    before = list(child.p)
    engine.advance(action)
    mixed = list(child.p)
    assert mixed != before
    assert sum(mixed) == pytest.approx(1.0)
    engine.search()
    assert child.p == mixed


def test_reset_onto_an_expanded_root_mixes_noise_once(ttt):
    engine = _engine(ttt, budget_amount=50, dirichlet_epsilon=0.25, seed=3)
    state = ttt.initial_state()
    engine.reset(state)
    engine.search()
    root = engine._root
    first = list(root.p)
    engine.reset(state)  # the same node, placed again
    assert engine._root is root
    mixed = list(root.p)
    assert mixed != first
    assert sum(mixed) == pytest.approx(1.0)
    engine.search()
    assert root.p == mixed


def test_dirichlet_noise_leaves_pruned_priors_alone(ttt):
    # X threatens 0-1-2: expansion proves the mate, pruning the mating edge
    # before the noise is mixed in.
    state = ttt.initial_state()
    for move in (0, 4, 1, 5):
        state = ttt.apply(state, move)
    engine = _engine(ttt, budget_amount=50, dirichlet_epsilon=0.25, seed=3)
    engine.reset(state)
    result = engine.search()
    root = engine._root
    idx = root.actions.index(2)
    assert root.q[idx] == NEG_INF
    # Uniform priors over five cells: the pruned edge keeps its 0.2 and gets
    # no noise, the mix keeps the four live edges' 0.8, and the output
    # reports the pruned prior as 0.
    assert root.p[idx] == 0.2
    assert all(p > 0 for j, p in enumerate(root.p) if j != idx)
    assert sum(p for j, p in enumerate(root.p) if j != idx) == pytest.approx(0.8)
    assert result.actions[idx]["pruned"] and result.actions[idx]["prior"] == 0.0


def test_root_noise_whose_draws_all_underflow_leaves_the_priors_alone():
    # At alpha 1e-5 both gamma draws of seed 0 are 0.0: the noise has no
    # direction, and the priors keep their mass.
    rng = random.Random(0)
    assert [rng.gammavariate(1e-5, 1.0) for _ in range(2)] == [0.0, 0.0]
    env = make_env("leftright:16")
    engine = _engine(env, dirichlet_epsilon=0.25, dirichlet_alpha=1e-5,
                     budget_amount=1, seed=0)
    engine.reset(env.initial_state())
    engine.search()
    assert engine._root.p == [0.5, 0.5]


def test_search_before_reset_raises(ttt):
    engine = _engine(ttt)
    with pytest.raises(RuntimeError):
        engine.search()
    with pytest.raises(RuntimeError):
        engine.advance(0)


def test_result_serializes_to_plain_types(ttt):
    import json

    result = run_search(ttt, UniformEvaluator(ttt), ttt.initial_state(),
                        SearchConfig(budget_amount=100))
    text = json.dumps(result.to_dict())
    assert '"selected_action"' in text
    assert '"memory"' in text


# ----- node states ---------------------------------------------------------------


@pytest.mark.parametrize("game, overrides", [
    ("nim:3,4,5", {}),
    ("tictactoe", {}),
    ("tictactoe", {"transpositions": False}),
    ("tictactoe", {"transpositions": False, "terminal_solver": False,
                   "eps_greedy": False, "check_enhance": False}),
])
def test_every_node_keeps_a_state_of_its_key(game, overrides):
    env = make_env(game)
    engine = _engine(env, budget_amount=1500, seed=5, **overrides)
    engine.reset(env.initial_state())
    result = engine.search()
    engine.advance(result.selected_action)
    engine.search()
    assert len(engine.store.nodes) > 100
    check_invariants(engine)


class _CountingEnv:
    """Delegates to an env and records every (state, action) it applies."""

    def __init__(self, env):
        self._env = env
        self.applied = []

    def __getattr__(self, name):
        return getattr(self._env, name)

    def apply(self, state, action):
        self.applied.append((state, action))
        return self._env.apply(state, action)


def _resolved_edges(store):
    return {(node.state, node.actions[j])
            for node in store.nodes.values()
            for j in range(len(node.actions)) if node.child[j] is not None}


def test_descent_applies_moves_only_on_unresolved_edges(ttt):
    env = _CountingEnv(ttt)
    engine = _engine(env, budget_amount=600, seed=2)
    engine.reset(ttt.initial_state())
    engine.search()
    resolved = _resolved_edges(engine.store)
    env.applied.clear()
    engine.search()
    assert env.applied  # the second search still resolved new edges
    assert not resolved & set(env.applied)


def test_search_on_a_resolved_graph_applies_no_moves():
    # Without the solver leftright:8 is never proven, so the second search
    # walks the fully resolved 15-state chain for its whole budget.
    env = _CountingEnv(make_env("leftright:8"))
    engine = _engine(env, budget_amount=300, terminal_solver=False)
    engine.reset(env.initial_state())
    engine.search()
    unresolved = [node for node in engine.store.nodes.values()
                  if node.status == SolverStatus.UNKNOWN
                  and (not node.expanded or None in node.child)]
    assert unresolved == []
    env.applied.clear()
    result = engine.search()
    assert result.simulations == 300
    assert env.applied == []
