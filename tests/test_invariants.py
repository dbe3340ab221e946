"""Bookkeeping invariants after every search, over random games and settings."""

from hypothesis import given, settings
from hypothesis import strategies as st

from mcgs.envs import make_env
from mcgs.evaluators import make_evaluator
from mcgs.search import SearchConfig, SearchEngine

from helpers import check_invariants

_nim = st.lists(st.integers(1, 4), min_size=1, max_size=3).map(
    lambda piles: "nim:" + ",".join(map(str, piles)))
_leftright = st.integers(2, 12).map(lambda n: f"leftright:{n}")
_probability = st.floats(0.0, 0.3)


@st.composite
def _setups(draw):
    game = draw(st.one_of(_nim, _leftright, st.just("tictactoe")))
    solver = draw(st.booleans())
    oracle = "none"
    if solver and game.startswith("nim:"):
        oracle = draw(st.sampled_from(["none", "nim-xor"]))
    evaluator = draw(st.sampled_from(["uniform", "heuristic", "deceptive"]))
    searches = draw(st.integers(1, 3))
    config = SearchConfig(
        seed=draw(st.integers(0, 10_000)),
        budget_amount=draw(st.integers(1, 200)),
        mini_batch_size=draw(st.sampled_from([1, 2, 8, 16])),
        transpositions=draw(st.booleans()),
        terminal_solver=solver,
        eps_greedy=draw(st.booleans()),
        check_enhance=draw(st.booleans()),
        epsilon_greedy=draw(_probability),
        epsilon_checks=draw(_probability),
        endgame_oracle=oracle,
        capacity=draw(st.sampled_from([2_000_000, 40])),
    )
    return game, evaluator, config, searches


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_setups())
def test_bookkeeping_invariants_hold_after_every_search(setup):
    game, evaluator, config, searches = setup
    env = make_env(game)
    engine = SearchEngine(env, make_evaluator(evaluator, env), config)
    engine.reset(env.initial_state())
    for _ in range(searches):
        result = engine.search()
        check_invariants(engine)
        assert result.simulations == (result.evaluations + result.terminal_trajectories
                                      + result.early_stop_trajectories)
        if result.selected_action is None:  # the root is terminal
            break
        engine.advance(result.selected_action)
