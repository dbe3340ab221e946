"""Environment contract: moves, terminals, keys, and the forcing predicate."""

import itertools
import random

import pytest

from mcgs.envs import LEFT, RIGHT, TTT_LINES, NimState, Outcome, make_env

from helpers import reachable_states


def test_tictactoe_initial_nine_actions(ttt):
    assert ttt.legal_actions(ttt.initial_state()) == list(range(9))


def test_nim_single_stone_single_action():
    env = make_env("nim:1")
    assert env.legal_actions(env.initial_state()) == [0]


def test_leftright_interior_two_actions():
    env = make_env("leftright:16")
    state = env.apply(env.apply(env.initial_state(), RIGHT), RIGHT)
    assert env.legal_actions(state) == [LEFT, RIGHT]


def test_tictactoe_center_move(ttt):
    state = ttt.apply(ttt.initial_state(), 4)
    assert state.board[4] == 1
    assert state.board.count(0) == 8
    assert state.ply == 1
    assert (state.ply & 1) == 1


def test_nim_take_three_from_first_pile():
    env = make_env("nim:3,4,5")
    # pile 0, take 3 -> action 0 * stride + (3 - 1) with stride 5
    state = env.apply(env.initial_state(), 2)
    assert state.piles == (0, 4, 5)
    assert env.decode(2) == (0, 3)


def test_apply_increments_ply_and_is_pure():
    for spec in ("tictactoe", "nim:3,4,5", "leftright:8"):
        env = make_env(spec)
        rng = random.Random(11)
        state = env.initial_state()
        while env.terminal_value(state) is None:
            action = rng.choice(env.legal_actions(state))
            nxt = env.apply(state, action)
            assert nxt.ply == state.ply + 1
            assert env.apply(state, action) == nxt  # purity
            state = nxt


def test_tictactoe_completed_line_is_loss_for_mover(ttt):
    state = ttt.initial_state()
    for move in (0, 3, 1, 4, 2):  # X takes the top row
        state = ttt.apply(state, move)
    assert (state.ply & 1) == 1  # O to move, facing the X line
    assert ttt.terminal_value(state) is Outcome.LOSS


def test_tictactoe_full_board_draw(ttt):
    state = ttt.initial_state()
    for move in (4, 0, 1, 7, 6, 2, 3, 5, 8):
        state = ttt.apply(state, move)
    assert state.board.count(0) == 0
    assert ttt.terminal_value(state) is Outcome.DRAW


def test_nim_exhausted_piles_lose():
    env = make_env("nim:1,1")
    state = env.initial_state()
    state = env.apply(state, 0)
    state = env.apply(state, 1)
    assert state.piles == (0, 0)
    assert env.terminal_value(state) is Outcome.LOSS  # last mover won


def test_outcome_value_mapping():
    assert Outcome.WIN.score == 1.0
    assert Outcome.LOSS.score == -1.0
    assert Outcome.DRAW.score == 0.0
    assert Outcome.WIN.inverted is Outcome.LOSS
    assert Outcome.DRAW.inverted is Outcome.DRAW


def test_transposed_move_orders_share_a_key(ttt):
    a = ttt.initial_state()
    for move in (0, 4, 8):
        a = ttt.apply(a, move)
    b = ttt.initial_state()
    for move in (8, 4, 0):
        b = ttt.apply(b, move)
    assert ttt.state_key(a) == ttt.state_key(b)
    assert ttt.state_key(a).ply == 3


def test_same_position_different_ply_differs():
    # nim:3 reaches (1,) either in one move (take 2) or two moves (1 + 1)
    env = make_env("nim:3")
    fast = env.apply(env.initial_state(), 1)
    slow = env.apply(env.apply(env.initial_state(), 0), 0)
    assert fast.piles == slow.piles == (1,)
    assert env.state_key(fast) != env.state_key(slow)


def test_trajectory_keys_strictly_increase_ply(ttt):
    rng = random.Random(3)
    state = ttt.initial_state()
    seen = set()
    while ttt.terminal_value(state) is None:
        key = ttt.state_key(state)
        assert key not in seen
        seen.add(key)
        state = ttt.apply(state, rng.choice(ttt.legal_actions(state)))


def test_tictactoe_hash_has_no_collisions(ttt):
    """Every reachable position must map to its own key."""
    seen = {}
    stack = [ttt.initial_state()]
    states = {}
    while stack:
        state = stack.pop()
        ident = (state.board, state.ply)
        if ident in states:
            continue
        states[ident] = state
        if ttt.terminal_value(state) is None:
            for action in ttt.legal_actions(state):
                stack.append(ttt.apply(state, action))
    assert len(states) == 5478
    for ident, state in states.items():
        key = ttt.state_key(state)
        assert seen.setdefault(key, ident) == ident, "hash collision"
    assert len(seen) == len(states)


def test_forcing_tictactoe_two_in_a_row(ttt):
    state = ttt.apply(ttt.apply(ttt.initial_state(), 0), 4)  # X0 O4, X to move
    assert ttt.is_forcing(state, 1)  # completes 0-1 with 2 open
    assert ttt.is_forcing(state, 2)  # completes 0-2 with 1 open
    assert not ttt.is_forcing(state, 5)


def test_forcing_tictactoe_is_a_two_and_an_empty_through_the_move(ttt):
    # The rule read off the board after the move: some line through the
    # moved cell holds two of the mover's pieces and one empty cell.
    pairs = 0
    for state in reachable_states(ttt).values():
        if ttt.terminal_value(state) is not None:
            continue
        for action in ttt.legal_actions(state):
            board = ttt.apply(state, action).board
            two = sorted((board[action], board[action], 0))
            expected = any(sorted(board[c] for c in line) == two
                           for line in TTT_LINES if action in line)
            assert ttt.is_forcing(state, action) == expected, (state, action)
            pairs += 1
    assert pairs == 16_167


def test_forcing_leftright_always_false():
    env = make_env("leftright:8")
    state = env.initial_state()
    assert not env.is_forcing(state, LEFT)
    assert not env.is_forcing(state, RIGHT)


def test_forcing_nim_one_pile_left():
    env = make_env("nim:2,0,0")
    state = env.initial_state()
    assert env.is_forcing(state, 0)      # take 1, leaves (1,0,0)
    assert not env.is_forcing(state, 1)  # take 2, leaves nothing


def test_legal_actions_on_terminal_raises():
    env = make_env("nim:1")
    terminal = env.apply(env.initial_state(), 0)
    with pytest.raises(ValueError):
        env.legal_actions(terminal)


def test_leftright_left_ends_game():
    env = make_env("leftright:8")
    state = env.apply(env.initial_state(), LEFT)
    assert env.terminal_value(state) is Outcome.WIN  # mover after the quitter


def test_make_env_rejects_unknown_id():
    with pytest.raises(ValueError):
        make_env("go:19")
    with pytest.raises(ValueError):
        make_env("leftright:1")


@pytest.mark.parametrize("spec", ["tictactoe:9", "tictactoe:", "nim:", "leftright:"])
def test_make_env_rejects_a_stray_or_empty_argument(spec):
    with pytest.raises(ValueError, match=f"game id {spec!r}"):
        make_env(spec)


@pytest.mark.parametrize("spec,game_id", [
    ("tictactoe", "tictactoe"), ("nim", "nim:3,4,5"), ("nim:3,4,5", "nim:3,4,5"),
    ("leftright", "leftright:16"), ("leftright:16", "leftright:16"),
])
def test_make_env_documented_forms(spec, game_id):
    assert make_env(spec).game_id == game_id


def test_nim_apply_agrees_with_decode_on_every_state_and_action():
    env = make_env("nim:3,4,5")
    stride = 5
    for piles in itertools.product(range(4), range(5), range(6)):
        state = NimState(piles, 7)
        for action in range(-1, len(piles) * stride + 1):
            pile, take = env.decode(action)
            if 0 <= pile < len(piles) and 1 <= take <= piles[pile]:
                expected = list(piles)
                expected[pile] -= take
                assert env.apply(state, action) == NimState(tuple(expected), 8)
            else:
                with pytest.raises(ValueError, match=f"illegal nim action {action} "):
                    env.apply(state, action)


@pytest.mark.parametrize("game", ["tictactoe", "nim:3,4,5", "nim:2,0,3", "leftright:16"])
def test_ending_moves_are_the_moves_to_a_terminal(game):
    env = make_env(game)
    rng = random.Random(5)
    for state in reachable_states(env).values():
        if env.terminal_value(state) is not None:
            continue
        actions = env.legal_actions(state)
        shuffled = rng.sample(actions, len(actions))
        for order in (actions, shuffled):
            expected = [j for j, action in enumerate(order)
                        if env.terminal_value(env.apply(state, action)) is not None]
            assert env.ending_moves(state, order) == expected, (state, order)
