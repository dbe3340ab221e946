"""Evaluator contracts: values in [-1, 1], priors aligned and normalized."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mcgs.envs import TTT_LINES, make_env
from mcgs.evaluators import (
    HeuristicEvaluator,
    OracleEvaluator,
    UniformEvaluator,
    apply_node_temperature,
    make_evaluator,
)

from helpers import reachable_states

LOOK_AHEAD_GAMES = ("tictactoe", "nim:3,4,5", "nim:2,0,3", "leftright:16")


def _evaluate(ev, state):
    """Evaluate as the engine does: a non-terminal state and its legal actions."""
    return ev.evaluate(state, ev.env.legal_actions(state))


def test_uniform_evaluator_is_flat_and_valueless(ttt):
    ev = UniformEvaluator(ttt)
    value, priors = _evaluate(ev, ttt.initial_state())
    assert value == 0.0
    assert priors == [1.0 / 9] * 9


def test_priors_align_with_legal_actions_on_random_positions(ttt):
    import random

    rng = random.Random(7)
    evaluators = [make_evaluator(n, ttt) for n in ("uniform", "heuristic", "deceptive", "oracle")]
    for _ in range(20):
        state = ttt.initial_state()
        while ttt.terminal_value(state) is None:
            for ev in evaluators:
                value, priors = _evaluate(ev, state)
                assert -1.0 <= value <= 1.0
                assert len(priors) == len(ttt.legal_actions(state))
                assert sum(priors) == pytest.approx(1.0)
                assert all(p >= 0.0 for p in priors)
            state = ttt.apply(state, rng.choice(ttt.legal_actions(state)))


def test_heuristic_counts_open_lines(ttt):
    ev = HeuristicEvaluator(ttt)
    assert _evaluate(ev, ttt.initial_state()).value == 0.0
    # After X takes the center, O sees four open opposing lines: -4/12 * 0.9.
    state = ttt.apply(ttt.initial_state(), 4)
    assert _evaluate(ev, state).value == pytest.approx(-0.3)


def test_deceptive_is_the_sign_flipped_heuristic(ttt):
    honest = HeuristicEvaluator(ttt)
    liar = HeuristicEvaluator(ttt, sign=-1.0)
    assert liar.name == "deceptive"
    state = ttt.apply(ttt.initial_state(), 4)
    assert _evaluate(liar, state).value == pytest.approx(0.3)

    h = _evaluate(honest, ttt.initial_state()).priors
    d = _evaluate(liar, ttt.initial_state()).priors
    # The honest prior peaks on the center; the flipped one peaks on an edge.
    assert max(range(9), key=h.__getitem__) == 4
    assert max(range(9), key=d.__getitem__) in (1, 3, 5, 7)
    assert d[1] == d[3] == d[5] == d[7]


def test_heuristic_prior_spots_an_immediate_win(ttt):
    state = ttt.initial_state()
    for move in (0, 4, 1, 5):
        state = ttt.apply(state, move)
    actions = ttt.legal_actions(state)
    priors = _evaluate(HeuristicEvaluator(ttt), state).priors
    # X completes the top row with 2; the winning child outscores any
    # heuristic value, so the softmax puts its peak there.
    best = actions[max(range(len(priors)), key=priors.__getitem__)]
    assert best == 2
    worst = actions[min(range(len(priors)), key=priors.__getitem__)]
    deceptive = _evaluate(HeuristicEvaluator(ttt, sign=-1.0), state).priors
    assert actions[min(range(len(deceptive)), key=deceptive.__getitem__)] == 2
    assert worst != 2


def test_nim_heuristic_reads_the_pile_parity():
    env = make_env("nim:3,4,5")
    assert _evaluate(HeuristicEvaluator(env), env.initial_state()).value == 0.9
    assert _evaluate(HeuristicEvaluator(env, sign=-1.0), env.initial_state()).value == -0.9
    balanced = env.apply(env.initial_state(), env.legal_actions(env.initial_state())[1])
    # removing 2 from pile 0: piles (1, 4, 5), xor = 0
    assert balanced.piles == (1, 4, 5)
    assert _evaluate(HeuristicEvaluator(env), balanced).value == -0.9


def test_leftright_heuristic_reads_distance_parity():
    env = make_env("leftright:16")
    ev = HeuristicEvaluator(env)
    start = env.initial_state()
    assert _evaluate(ev, start).value == 0.9
    assert _evaluate(ev, env.apply(start, 1)).value == -0.9


def test_heuristic_rejects_unknown_games(ttt):
    class Mystery:
        game_id = "mystery"

    with pytest.raises(ValueError):
        HeuristicEvaluator(Mystery())


def test_oracle_evaluator_matches_negamax(ttt, ttt_table):
    ev = OracleEvaluator(ttt)
    value, priors = _evaluate(ev, ttt.initial_state())
    assert value == 0.0
    entry = ttt_table[ttt.state_key(ttt.initial_state())]
    expected = [1.0 / len(entry.optimal_actions) if a in entry.optimal_actions else 0.0
                for a in range(9)]
    assert priors == expected

    # A position with a forced win gets value +1 and mass only on wins.
    state = ttt.initial_state()
    for move in (0, 4, 1, 5):
        state = ttt.apply(state, move)
    value, priors = _evaluate(ev, state)
    assert value == 1.0
    actions = ttt.legal_actions(state)
    wins = ttt_table[ttt.state_key(state)].optimal_actions
    for a, p in zip(actions, priors):
        assert (p > 0) == (a in wins)


def test_make_evaluator_names(ttt):
    for name in ("uniform", "heuristic", "deceptive", "oracle"):
        assert make_evaluator(name, ttt).name == name
    with pytest.raises(ValueError):
        make_evaluator("gnn", ttt)


def test_node_temperature_identity_and_errors():
    priors = [0.5, 0.3, 0.2]
    out = apply_node_temperature(priors, 1.0)
    assert out == priors
    assert out is not priors
    for bad in (0.0, -1.7):
        with pytest.raises(ValueError):
            apply_node_temperature(priors, bad)


def test_node_temperature_flattens_at_default_strength():
    out = apply_node_temperature([0.9, 0.1], 1.7)
    assert out[0] == pytest.approx(0.78457, abs=1e-4)
    assert out[1] == pytest.approx(0.21543, abs=1e-4)
    sharpened = apply_node_temperature([0.9, 0.1], 0.5)
    assert sharpened[0] > 0.9


@pytest.mark.parametrize("game, evaluator, line, node_tau, expected", [
    # The heuristic's largest start prior is the centre's; 0.003 keeps it
    # representable, 0.002 underflows all nine tempered priors.
    ("tictactoe", "heuristic", (), 0.003, [0.0] * 4 + [1.0] + [0.0] * 4),
    ("tictactoe", "heuristic", (), 0.002, [0.0] * 4 + [1.0] + [0.0] * 4),
    # Three optimal replies of a third each: (1/3) ** 1000 underflows.
    ("tictactoe", "oracle", (0, 1), 0.001, [0.0, 1 / 3, 1 / 3, 0.0, 1 / 3, 0.0, 0.0]),
], ids=["heuristic_0.003", "heuristic_0.002", "oracle_0.001"])
def test_node_temperature_near_zero_splits_the_mass_over_the_largest_priors(
        game, evaluator, line, node_tau, expected):
    env = make_env(game)
    state = env.initial_state()
    for action in line:
        state = env.apply(state, action)
    actions = env.legal_actions(state)
    priors = make_evaluator(evaluator, env).evaluate(state, actions).priors
    assert apply_node_temperature(priors, node_tau) == pytest.approx(expected, abs=1e-20)


@given(
    st.lists(st.floats(min_value=1e-6, max_value=1.0), min_size=2, max_size=9),
    st.floats(min_value=0.25, max_value=4.0),
)
def test_node_temperature_keeps_order_and_mass(weights, tau):
    total = sum(weights)
    priors = [w / total for w in weights]
    out = apply_node_temperature(priors, tau)
    assert sum(out) == pytest.approx(1.0)
    for i in range(len(priors)):
        for j in range(len(priors)):
            if priors[i] > priors[j]:
                assert out[i] >= out[j] - 1e-12


def _reference_score(env, state) -> float:
    """The heuristic score of a non-terminal state, from the mover's view."""
    if env.game_id == "tictactoe":
        mover = state.ply % 2 + 1
        w = 0
        for line in TTT_LINES:
            pieces = [state.board[c] for c in line]
            own = pieces.count(mover)
            opp = 3 - own - pieces.count(0)
            if own and not opp:
                w += 4 if own == 2 else 1
            elif opp and not own:
                w -= 4 if opp == 2 else 1
        return max(-0.9, min(0.9, 0.9 * w / 12.0))
    if env.game_id.startswith("nim"):
        x = 0
        for p in state.piles:
            x ^= p
        return 0.9 if x != 0 else -0.9
    return 0.9 if (env.length - 1 - state.pos) % 2 == 1 else -0.9


def _reference_evaluation(env, state, sign):
    """One ply by the docstring: build every child, score it, softmax at 0.5."""
    scores = []
    for action in env.legal_actions(state):
        child = env.apply(state, action)
        outcome = env.terminal_value(child)
        mine = -outcome.score if outcome is not None else -_reference_score(env, child)
        scores.append(sign * mine)
    top = max(scores)
    weights = [math.exp((s - top) / 0.5) for s in scores]
    total = sum(weights)
    return sign * _reference_score(env, state), [w / total for w in weights]


@pytest.mark.parametrize("game", LOOK_AHEAD_GAMES)
def test_heuristic_equals_its_one_ply_definition_bit_for_bit(game):
    env = make_env(game)
    states = [s for s in reachable_states(env).values() if env.terminal_value(s) is None]
    for sign in (1.0, -1.0):
        ev = HeuristicEvaluator(env, sign=sign)
        for state in states:
            value, priors = _evaluate(ev, state)
            ref_value, ref_priors = _reference_evaluation(env, state, sign)
            assert value.hex() == ref_value.hex(), state
            assert [p.hex() for p in priors] == [p.hex() for p in ref_priors], state
