"""Match play: openings, scoring, confidence bounds, replayability."""

import collections
import hashlib
import json
import math
import random

import pytest

import mcgs.arena as arena
from mcgs.arena import (
    GameRecord,
    MatchConfig,
    MatchResult,
    elo_diff,
    generate_openings,
    move_log,
    play_game,
    play_match,
    scaling_report,
    wilson_bounds,
)
from mcgs.envs import Outcome, make_env
from mcgs.evaluators import Evaluation
from mcgs.oracle import negamax_cache, negamax_solve
from mcgs.search import SearchConfig, SearchEngine

from helpers import PLAIN, FixedEvaluator, record_solves
from reference_openings import reference_openings


def _match_config(game, budget=64, **kwargs):
    engine_a = SearchConfig(budget_amount=budget, **kwargs.pop("a", {}))
    engine_b = SearchConfig(budget_amount=budget, **kwargs.pop("b", {}))
    return MatchConfig(game=game, engine_a=engine_a, engine_b=engine_b,
                       evaluator_a="uniform", evaluator_b="uniform", **kwargs)


def test_elo_diff_reference_points():
    assert elo_diff(0.5) == 0.0
    assert elo_diff(0.75) == pytest.approx(190.848, abs=1e-3)
    assert elo_diff(0.25) == pytest.approx(-190.848, abs=1e-3)
    assert elo_diff(0.0) == -math.inf
    assert elo_diff(1.0) == math.inf
    for p in (0.1, 0.3, 0.62, 0.9):
        assert elo_diff(p) == pytest.approx(-elo_diff(1.0 - p), abs=1e-9)


def test_wilson_bounds_reference_points():
    low, high = wilson_bounds(10, 10)
    assert low == pytest.approx(0.7225, abs=1e-4)
    assert high == 1.0
    low, high = wilson_bounds(5, 10)
    assert low == pytest.approx(0.2366, abs=1e-4)
    assert high == pytest.approx(0.7634, abs=1e-4)
    assert low == pytest.approx(1.0 - high, abs=1e-12)
    assert wilson_bounds(0, 0) == (0.0, 1.0)
    # intervals tighten with more games at the same rate
    narrow = wilson_bounds(50, 100)
    assert narrow[0] > 0.2366 and narrow[1] < 0.7634


def test_openings_are_balanced_where_draws_exist(ttt, ttt_table):
    import random

    openings = generate_openings(ttt, plies=2, count=6, rng=random.Random(5))
    assert len(openings) == 6
    for line in openings:
        assert len(line) == 2
        state = ttt.initial_state()
        for action in line:
            state = ttt.apply(state, action)
        assert ttt_table[ttt.state_key(state)].outcome is Outcome.DRAW


def test_openings_fall_back_when_no_draws_exist():
    import random

    env = make_env("nim:3,4,5")
    openings = generate_openings(env, plies=2, count=5, rng=random.Random(1))
    assert len(openings) == 5
    for line in openings:
        assert len(line) == 2
        assert negamax_solve(env, _after(env, line)).outcome is not Outcome.DRAW


def _after(env, line):
    state = env.initial_state()
    for action in line:
        state = env.apply(state, action)
    return state


def test_openings_skip_lines_that_end_the_game_early():
    # In leftright a LEFT move ends the game: a line that plays one before
    # its last ply dies unfinished, one that ends on it reaches a terminal.
    # Only RIGHT, RIGHT, RIGHT survives.
    env = make_env("leftright:6")
    assert generate_openings(env, 3, 4, random.Random(5)) == [(1, 1, 1)] * 4


def test_openings_cycle_when_the_pool_is_small(ttt):
    import random

    openings = generate_openings(ttt, plies=1, count=40, rng=random.Random(3))
    assert len(openings) == 40
    assert len(set(openings)) <= 9
    empty = generate_openings(ttt, plies=0, count=3, rng=random.Random(3))
    assert empty == [(), (), ()]


def test_openings_are_deterministic_for_a_seeded_rng(ttt):
    import random

    a = generate_openings(ttt, plies=2, count=8, rng=random.Random(11))
    b = generate_openings(ttt, plies=2, count=8, rng=random.Random(11))
    assert a == b


# Cells (game, plies, count) on which the plain sampler spends more than
# about 0.05 s a seed, nearly all of it drawing every one of its
# max(200, 400 * count) attempts in a small line space. ONE_SEED cells run
# at seed 11 alone; SKIPPED cells cost over 0.15 s even at one seed.
ONE_SEED = {
    ("leftright:6", 0, 200), ("leftright:6", 3, 25), ("leftright:6", 4, 25),
    ("leftright:9", 0, 200), ("leftright:9", 3, 25), ("leftright:9", 4, 25),
    ("nim:1,1,1", 0, 200), ("nim:1,1,1", 2, 25), ("nim:1,1,1", 3, 25),
    ("nim:3,4,5", 1, 25), ("nim:3,4,5", 3, 200),
    ("tictactoe", 1, 25), ("tictactoe", 2, 25),
}
SKIPPED = {("nim:1,1,1", 4, 25)} | {
    (game, plies, 200)
    for game, plies_range in [("leftright:6", range(1, 5)), ("leftright:9", range(1, 5)),
                              ("nim:1,1,1", range(1, 5)), ("nim:3,4,5", range(3)),
                              ("tictactoe", range(4))]
    for plies in plies_range
}


@pytest.mark.parametrize("game", ["nim:3,4,5", "nim:1,1,1", "tictactoe",
                                  "leftright:6", "leftright:9"])
def test_openings_equal_the_plain_rejection_sampler(game):
    env = make_env(game)
    checked = errors = 0
    for plies in range(5):
        for count in (1, 5, 25, 200):
            cell = (game, plies, count)
            if cell in SKIPPED:
                continue
            for seed in (11,) if cell in ONE_SEED else (0, 1, 11):
                try:
                    expected = reference_openings(env, plies, count, random.Random(seed))
                except ValueError:
                    with pytest.raises(ValueError, match=f"^opening_plies {plies}: "):
                        generate_openings(env, plies, count, random.Random(seed))
                    errors += 1
                else:
                    got = generate_openings(env, plies, count, random.Random(seed))
                    assert got == expected, (plies, count, seed)
                checked += 1
    assert checked >= 36
    # nim:1,1,1 ends after three plies, so its longer lines all fail.
    assert errors == (13 if game == "nim:1,1,1" else 0)


class CountingEnv:
    """An env that counts what it is asked about each state and (state, action)."""

    def __init__(self, env):
        self.env = env
        self.asked = collections.Counter()

    def initial_state(self):
        return self.env.initial_state()

    def terminal_value(self, state):
        self.asked["terminal_value", state] += 1
        return self.env.terminal_value(state)

    def legal_actions(self, state):
        self.asked["legal_actions", state] += 1
        return self.env.legal_actions(state)

    def apply(self, state, action):
        self.asked["apply", state, action] += 1
        return self.env.apply(state, action)

    def state_key(self, state):
        return self.env.state_key(state)


def test_openings_ask_the_env_once_per_state_and_move(ttt, ttt_table):
    env = CountingEnv(ttt)
    # A solved cache leaves the balance check nothing to ask the env.
    negamax_cache(env).update(ttt_table)
    openings = generate_openings(env, 3, 200, random.Random(11))
    assert openings == generate_openings(ttt, 3, 200, random.Random(11))
    assert env.asked and max(env.asked.values()) == 1


class CountingRandom(random.Random):
    draws = 0

    def randrange(self, *args):
        self.draws += 1
        return super().randrange(*args)


def test_openings_stop_once_enough_balanced_lines_are_drawn(ttt):
    # 276 of tictactoe's 504 3-ply lines are balanced; 200 of them turn up
    # in about 550 attempts, long before the attempt limit of 80,000.
    rng = CountingRandom(11)
    generate_openings(ttt, 3, 200, rng)
    assert rng.draws < 3 * 1_000


@pytest.mark.parametrize("game,plies,lines", [
    ("nim:1,1,1", 4, 0), ("leftright:9", 3, 1), ("tictactoe", 1, 9)])
def test_openings_stop_once_every_unfinished_line_is_drawn(game, plies, lines):
    # None of these line spaces holds 200 balanced or 800 unfinished lines,
    # so only running dry ends the draw before its 80,000 attempts.
    env = make_env(game)
    rng = CountingRandom(11)
    if lines:
        assert len(set(generate_openings(env, plies, 200, rng))) == lines
    else:
        with pytest.raises(ValueError, match=(
                f"^opening_plies {plies}: no line of {plies} plies from the start of "
                f"{game} leaves the game unfinished$")):
            generate_openings(env, plies, 200, rng)
    assert 0 < rng.draws < 1_000


def test_match_config_requires_equal_budgets():
    config = _match_config("nim:1,1")
    config.engine_b.budget_amount = 128
    with pytest.raises(ValueError):
        config.validate()
    config.engine_b.budget_amount = 64
    config.engine_b.budget = "evaluations"
    with pytest.raises(ValueError):
        config.validate()


def test_match_config_validates_counts():
    config = _match_config("nim:1,1", opening_count=0)
    with pytest.raises(ValueError):
        config.validate()
    config = _match_config("nim:1,1", opening_plies=-1)
    with pytest.raises(ValueError):
        config.validate()


@pytest.mark.parametrize("plies,count,message", [
    (3, 0, "opening_count must be >= 1"),
    (3, -3, "opening_count must be >= 1"),
    (-1, 3, "opening_plies must be >= 0"),
])
def test_openings_reject_a_count_or_plies_out_of_range(ttt, plies, count, message):
    # A count of 0 or -3 once blamed the game ("no line ... left the game
    # unfinished"), and plies -1 returned three empty openings.
    with pytest.raises(ValueError) as error:
        generate_openings(ttt, plies, count, random.Random(0))
    assert str(error.value) == message


def test_a_match_on_no_openings_fails_naming_the_argument():
    # It once divided by its zero games.
    with pytest.raises(ValueError, match="^openings must hold at least one opening$"):
        play_match(_match_config("nim:1,1", budget=16), openings=[])


@pytest.mark.parametrize("key,value,message", [
    ("opening_count", 1.5, "opening_count must be int, got 1.5"),
    ("opening_plies", True, "opening_plies must be int, got True"),
    ("seed", "7", "seed must be int, got '7'"),
    ("evaluator_a", None, "evaluator_a must be str, got None"),
    ("game", 3, "game must be str, got 3"),
])
def test_match_config_type_errors_name_their_key(key, value, message):
    config = _match_config("nim:1,1")
    setattr(config, key, value)
    with pytest.raises(ValueError) as error:
        config.validate()
    assert str(error.value) == message


def test_match_config_from_dict_parses_text_as_search_config_does():
    engine = SearchConfig(budget_amount=16)
    config = MatchConfig.from_dict({"game": "nim:1,1", "opening_count": " 3", "seed": "7",
                                    "engine_a": engine, "engine_b": engine})
    assert (config.opening_count, config.seed, config.engine_a) == (3, 7, engine)
    for data, message in [
        ({"opening_plies": "x"}, "config key 'opening_plies': invalid literal for int()"),
        ({"engine_a": "x"}, "config key 'engine_a': cannot parse SearchConfig from 'x'"),
        ({"rounds": "3"}, "unknown config key 'rounds'"),
        ({"opening_count": "0"}, "opening_count must be >= 1"),
    ]:
        with pytest.raises(ValueError) as error:
            MatchConfig.from_dict(data)
        assert str(error.value).startswith(message)


def test_play_game_scores_the_forced_miniature():
    env = make_env("nim:1,1")
    config = _match_config("nim:1,1", budget=16)
    record = play_game(env, config, opening=(), first="A", seed_a=1, seed_b=2)
    assert record.score_a == 0.0  # whoever moves first loses nim 1+1
    assert len(record.moves) == 2
    assert record.plies == 2
    assert record.forfeited_by is None and record.error is None
    assert record.evaluations["A"] > 0 and record.evaluations["B"] > 0

    record = play_game(env, config, opening=(), first="B", seed_a=1, seed_b=2)
    assert record.score_a == 1.0


def test_match_scoring_and_counts_add_up():
    config = _match_config("nim:1,1", budget=16, opening_count=2, opening_plies=0)
    result = play_match(config)
    assert len(result.games) == 4
    assert (result.wins, result.draws, result.losses) == (2, 0, 2)
    assert result.score_rate == 0.5
    assert result.elo == 0.0
    assert result.rate_low < 0.5 < result.rate_high


def test_a_match_solves_the_oracle_table_once(monkeypatch):
    # Every game builds fresh engines on the match's one env; they share
    # that env's solved table instead of solving it per game.
    solved = record_solves(monkeypatch, "mcgs.solver")
    config = _match_config("nim:3,4,5", budget=32, opening_count=10,
                           a={"endgame_oracle": "table"})
    result = play_match(config)
    assert len(result.games) == 20
    calls = [key for key in solved if key == make_env("nim:3,4,5").initial_state()]
    assert len(calls) == 1


def test_an_oracle_match_solves_each_state_once(monkeypatch):
    # Every game builds fresh oracle evaluators on the match's one env; they
    # and the openings' balance check share that env's negamax cache instead
    # of re-solving the game per game or per opening set.
    solved = record_solves(monkeypatch, "mcgs.evaluators", "mcgs.arena")
    config = _match_config("tictactoe", opening_plies=1, opening_count=5, seed=1)
    config.evaluator_a = config.evaluator_b = "oracle"
    result = play_match(config)
    distinct = len(set(solved))
    assert len(solved) == distinct > 0
    record = json.dumps(result.to_dict(), sort_keys=True).encode()
    assert (result.wins, result.draws, result.losses) == (0, 10, 0)
    assert hashlib.sha256(record).hexdigest() == (
        "1a8488e6bcf284ff55803b289b09f2714794a10b98a692f418955cda6a060a81")


def test_identical_engines_score_exactly_half(ttt):
    config = _match_config("tictactoe", budget=64, opening_count=3, seed=7)
    result = play_match(config)
    assert len(result.games) == 6
    # seeds attach to the mover role, so each opening's color pair is the
    # same game twice with the labels exchanged
    assert result.score_rate == 0.5
    assert result.wins == result.losses
    for i in range(0, 6, 2):
        first, second = result.games[i], result.games[i + 1]
        assert first.moves == second.moves
        assert first.score_a == pytest.approx(1.0 - second.score_a)


def test_swapping_engine_labels_mirrors_the_match():
    budget = 64
    forward = MatchConfig(
        game="nim:3,4,5",
        engine_a=SearchConfig(budget_amount=budget),
        engine_b=SearchConfig(budget_amount=budget, **PLAIN),
        evaluator_a="uniform", evaluator_b="uniform",
        opening_count=3, seed=13,
    )
    backward = MatchConfig(
        game="nim:3,4,5",
        engine_a=SearchConfig(budget_amount=budget, **PLAIN),
        engine_b=SearchConfig(budget_amount=budget),
        evaluator_a="uniform", evaluator_b="uniform",
        opening_count=3, seed=13,
    )
    f = play_match(forward)
    b = play_match(backward)
    assert b.wins == f.losses and b.losses == f.wins and b.draws == f.draws
    assert b.score_rate == pytest.approx(1.0 - f.score_rate, abs=1e-12)
    assert b.elo == pytest.approx(-f.elo, abs=1e-9)
    # game 2g has the default engine moving first; after the relabel that is
    # game 2g+1, so pairs swap places with identical move sequences
    for g in range(0, len(f.games), 2):
        assert f.games[g].moves == b.games[g + 1].moves
        assert f.games[g + 1].moves == b.games[g].moves
        assert f.games[g].score_a == pytest.approx(1.0 - b.games[g + 1].score_a)
        assert f.games[g].opening == b.games[g].opening


def test_match_replays_byte_for_byte():
    config = _match_config("nim:3,4,5", budget=32, opening_count=2, seed=21)
    first = play_match(config).to_dict()
    second = play_match(config).to_dict()
    assert json.dumps(first) == json.dumps(second)


class _Bomb:
    name = "bomb"

    def __init__(self, env):
        self.env = env

    def evaluate(self, state, actions):
        raise RuntimeError("evaluator crashed")


def test_bad_evaluator_output_forfeits_the_game(monkeypatch):
    real = arena.make_evaluator
    monkeypatch.setattr(
        "mcgs.arena.make_evaluator",
        lambda name, env: (FixedEvaluator(Evaluation(0.0, [1.0]), name) if name == "one-prior"
                           else real(name, env)))
    env = make_env("nim:2,2")
    config = _match_config("nim:2,2", budget=16)
    config.evaluator_b = "one-prior"
    record = play_game(env, config, opening=(), first="B", seed_a=1, seed_b=2)
    assert record.forfeited_by == "B"
    assert "evaluator 'one-prior' returned 1 priors" in record.error


def test_engine_failure_forfeits_the_game(monkeypatch):
    real = arena.make_evaluator
    monkeypatch.setattr(
        "mcgs.arena.make_evaluator",
        lambda name, env: _Bomb(env) if name == "bomb" else real(name, env))
    env = make_env("nim:1,1")
    config = _match_config("nim:1,1", budget=16)
    config.evaluator_a = "bomb"
    record = play_game(env, config, opening=(), first="A", seed_a=1, seed_b=2)
    assert record.forfeited_by == "A"
    assert record.score_a == 0.0
    assert "RuntimeError" in record.error
    assert record.moves == []

    record = play_game(env, config, opening=(), first="B", seed_a=1, seed_b=2)
    assert record.forfeited_by == "A"  # B moved fine; A crashed on its turn
    assert record.score_a == 0.0
    assert len(record.moves) == 1


def test_an_illegal_move_forfeits_the_game(monkeypatch):
    class Cheat(SearchEngine):
        def search(self):
            result = super().search()
            if self.config.seed == 2:  # engine B
                result.selected_action = 9  # nim 2,2 has actions 0-3
            return result

    monkeypatch.setattr("mcgs.arena.SearchEngine", Cheat)
    env = make_env("nim:2,2")
    config = _match_config("nim:2,2", budget=16)
    record = play_game(env, config, opening=(), first="A", seed_a=1, seed_b=2)
    assert record.forfeited_by == "B"
    assert record.error == "ValueError: engine B produced illegal move 9"
    assert record.score_a == 1.0
    assert len(record.moves) == 1


def test_move_log_format():
    config = _match_config("nim:1,1", budget=16, opening_count=1, opening_plies=0)
    result = play_match(config)
    text = move_log(result, "nim:1,1")
    lines = text.splitlines()
    assert len(lines) == 4
    assert lines[0] == '[game 1 "nim:1,1" first:A 0-1]'
    assert lines[2] == '[game 2 "nim:1,1" first:B 1-0]'
    assert lines[1].startswith(" | ")
    assert len(lines[1].split("|")[1].split()) == 2
    assert text.endswith("\n")


def test_match_result_serializes_infinities():
    record = GameRecord(opening=[0], first="A", moves=[1, 2], score_a=1.0,
                        plies=3, evaluations={"A": 5, "B": 5},
                        simulations={"A": 9, "B": 9}, node_counts={"A": 4, "B": 4})
    result = MatchResult(games=[record], wins=1, draws=0, losses=0, score_rate=1.0,
                         rate_low=0.7, rate_high=1.0, elo=math.inf,
                         elo_low=190.0, elo_high=math.inf, seed=0)
    data = result.to_dict()
    assert list(data) == ["games", "wins", "draws", "losses", "score_rate", "rate_low",
                          "rate_high", "elo", "elo_low", "elo_high", "seed", "records"]
    assert data["games"] == 1
    assert data["elo"] == data["elo_high"] == "inf"
    assert data["elo_low"] == 190.0
    assert data["records"] == [record.to_dict()]
    json.dumps(data)
    lost = MatchResult(games=[], wins=0, draws=0, losses=1, score_rate=0.0,
                       rate_low=0.0, rate_high=0.3, elo=-math.inf,
                       elo_low=-math.inf, elo_high=-190.0, seed=0)
    assert lost.to_dict()["elo_low"] == "-inf"


def test_scaling_report_rows():
    rows = scaling_report("tictactoe", SearchConfig(), budgets=[32, 64],
                          opening_count=2, evaluator="uniform", seed=5)
    assert [row["budget"] for row in rows] == [32, 64]
    for row in rows:
        assert row["simulations"] == row["budget"]
        assert 0 < row["evaluations"] <= row["simulations"]
        assert 0.0 <= row["score_vs_reference"] <= 1.0
        assert row["node_count"] > 0
        assert row["tree_equivalent_node_count"] >= row["node_count"]
        assert "early_stops" in row and "terminal_trajectories" in row


def test_scaling_report_requires_ascending_budgets():
    with pytest.raises(ValueError):
        scaling_report("tictactoe", SearchConfig(), budgets=[64, 32])


def test_game_record_roundtrip():
    record = GameRecord(opening=[0], first="A", moves=[1, 2], score_a=1.0,
                        plies=3, evaluations={"A": 5, "B": 5},
                        simulations={"A": 9, "B": 9}, node_counts={"A": 4, "B": 4})
    data = record.to_dict()
    assert data["first"] == "A"
    assert data["forfeited_by"] is None
    json.dumps(data)
