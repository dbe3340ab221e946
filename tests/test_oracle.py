"""Ground-truth solver checks: negamax outcomes, distance semantics, limits."""

import pytest

from mcgs.envs import LEFT, RIGHT, Outcome, make_env
from mcgs.oracle import (
    OracleLimitError,
    negamax_solve,
    nim_xor_outcome,
    solved_table,
)

from helpers import reachable_states

RANK = {Outcome.WIN: 2, Outcome.DRAW: 1, Outcome.LOSS: 0}


def test_tictactoe_is_a_draw_in_nine_plies(ttt, ttt_table):
    entry = ttt_table[ttt.state_key(ttt.initial_state())]
    assert entry.outcome is Outcome.DRAW
    assert entry.distance == 9


def test_tictactoe_table_covers_every_reachable_state(ttt, ttt_table):
    assert len(ttt_table) == 5478
    assert set(reachable_states(ttt)) == set(ttt_table)


def test_terminal_entries_have_distance_zero_and_no_actions(ttt, ttt_table):
    terminal_count = 0
    for key, state in reachable_states(ttt).items():
        if ttt.terminal_value(state) is None:
            continue
        terminal_count += 1
        entry = ttt_table[key]
        assert entry.distance == 0
        assert entry.optimal_actions == ()
    assert terminal_count > 0


def test_distance_semantics_match_definition(ttt, ttt_table):
    # Recompute every non-terminal entry from its children: winners take the
    # shortest win, losers the longest line over all replies, draws the
    # shortest drawing continuation.
    states = reachable_states(ttt)
    for key, state in states.items():
        if ttt.terminal_value(state) is not None:
            continue
        entry = ttt_table[key]
        results = []
        for action in ttt.legal_actions(state):
            child = ttt_table[ttt.state_key(ttt.apply(state, action))]
            results.append((action, child.outcome.inverted, child.distance + 1))
        best = max(RANK[o] for _, o, _ in results)
        assert RANK[entry.outcome] == best
        assert entry.optimal_actions == tuple(
            a for a, o, _ in results if RANK[o] == best
        )
        if entry.outcome is Outcome.LOSS:
            assert entry.distance == max(d for _, _, d in results)
        else:
            assert entry.distance == min(
                d for _, o, d in results if RANK[o] == best
            )


def test_optimal_actions_reach_the_claimed_outcome(ttt, ttt_table):
    states = reachable_states(ttt)
    for key, state in states.items():
        entry = ttt_table[key]
        for action in entry.optimal_actions:
            child = ttt_table[ttt.state_key(ttt.apply(state, action))]
            assert child.outcome.inverted is entry.outcome


def test_nim_345_is_a_first_player_win():
    env = make_env("nim:3,4,5")
    entry = negamax_solve(env, env.initial_state())
    assert entry.outcome is Outcome.WIN
    assert nim_xor_outcome((3, 4, 5)) is Outcome.WIN


def test_negamax_agrees_with_xor_oracle_on_every_nim_state():
    env = make_env("nim:3,4,5")
    cache = {}
    for state in reachable_states(env).values():
        got = negamax_solve(env, state, cache=cache).outcome
        assert got is nim_xor_outcome(state.piles)


def test_xor_oracle_examples():
    assert nim_xor_outcome((1, 1)) is Outcome.LOSS
    assert nim_xor_outcome((2, 1)) is Outcome.WIN
    assert nim_xor_outcome(()) is Outcome.LOSS
    assert nim_xor_outcome((5,)) is Outcome.WIN


def test_leftright_chain_is_a_win_at_full_length():
    env = make_env("leftright:16")
    entry = negamax_solve(env, env.initial_state())
    assert entry.outcome is Outcome.WIN
    assert entry.distance == 15


def test_leftright_eight_reachable_set_and_outcome():
    env = make_env("leftright:8")
    assert len(reachable_states(env)) == 15
    entry = negamax_solve(env, env.initial_state())
    assert entry.outcome is Outcome.WIN
    assert entry.distance == 7


@pytest.mark.parametrize("length", [3000, 3001])
def test_leftright_deeper_than_the_recursion_limit(length):
    # Whoever steps onto the last cell wins: that is the first player exactly
    # when the length - 1 RIGHT moves are odd in number. The loser drags the
    # game out to the end, so the distance is length - 1 either way.
    env = make_env(f"leftright:{length}")
    cache = {}
    entry = negamax_solve(env, env.initial_state(), cache=cache)
    if length % 2 == 0:
        assert entry == (Outcome.WIN, length - 1, (RIGHT,))
    else:
        assert entry == (Outcome.LOSS, length - 1, (LEFT, RIGHT))
    assert len(cache) == 2 * (length - 1) + 1


def test_solve_node_limit_raises(ttt):
    with pytest.raises(OracleLimitError):
        negamax_solve(ttt, ttt.initial_state(), node_limit=100)


def test_solved_table_respects_node_limit():
    env = make_env("leftright:8")
    with pytest.raises(OracleLimitError):
        solved_table(env, node_limit=3)
    assert len(solved_table(env, node_limit=100)) == 15
