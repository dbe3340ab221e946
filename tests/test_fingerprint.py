"""Behaviour fingerprints: seeded searches pinned to their exact counters.

A change that claims to leave behaviour alone must reproduce these numbers.
They match the fingerprints the benchmark (`mcgsbench/`) prints for the same
inputs with seed 1.
"""

import dataclasses
import hashlib
import json
import random

from mcgs import MatchConfig, SearchConfig, SearchEngine, make_env, make_evaluator, play_match
from mcgs.arena import generate_openings

from helpers import PLAIN


def _search(game, config):
    env = make_env(game)
    engine = SearchEngine(env, make_evaluator("heuristic", env), config)
    engine.reset(env.initial_state())
    result = engine.search()
    memory = result.memory
    return {
        "simulations": result.simulations,
        "evaluations": result.evaluations,
        "nodes": memory["node_count"],
        "joins": memory["transposition_join_count"],
        "early_stops": result.early_stop_trajectories,
        "terminals": result.terminal_trajectories,
        "action": result.selected_action,
        "status": result.root_status,
        "end_in_ply": result.root_end_in_ply,
    }


def test_nim_5678_proof_fingerprint():
    config = SearchConfig(budget="simulations", budget_amount=10**12, seed=1)
    assert _search("nim:5,6,7,8", config) == {
        "simulations": 15107, "evaluations": 7044, "nodes": 6541, "joins": 5083,
        "early_stops": 5363, "terminals": 2700, "action": 27,
        "status": "WIN", "end_in_ply": 23,
    }


def test_tictactoe_plain_fingerprint():
    config = SearchConfig(budget="simulations", budget_amount=20_000, seed=1, **PLAIN)
    assert _search("tictactoe", config) == {
        "simulations": 20000, "evaluations": 6258, "nodes": 7652, "joins": 0,
        "early_stops": 0, "terminals": 13742, "action": 4,
        "status": "UNKNOWN", "end_in_ply": 0,
    }


def test_nim_match_digest():
    game = "nim:3,4,5"
    openings = generate_openings(make_env(game), 3, 5, random.Random(1))
    plain = SearchConfig(budget="evaluations", budget_amount=256, **PLAIN)
    full = dataclasses.replace(plain, **{name: True for name in PLAIN})
    config = MatchConfig(game=game, engine_a=full, engine_b=plain,
                         evaluator_a="deceptive", evaluator_b="deceptive",
                         opening_plies=3, opening_count=5, seed=1)
    match = play_match(config, openings=openings)
    record = json.dumps(match.to_dict(), sort_keys=True).encode()
    assert (match.wins, match.draws, match.losses) == (7, 0, 3)
    assert hashlib.sha256(record).hexdigest() == (
        "f30e3c18aca77a5ba57ca2a12ebfb1963c03209c81acbf7b572b183bef07a1da")
