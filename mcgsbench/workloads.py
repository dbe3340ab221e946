"""The benchmark's workloads: seeded inputs, one repetition, correctness checks.

Each workload is a closed loop with one caller: a repetition (one proof, one
budgeted search or one whole match) starts after the previous one ends. The
seed only reaches the engine through `SearchConfig.seed`, or through
`MatchConfig.seed` and the opening set generated from it. NOTES.md records
why these three were chosen.

A workload splits its work so the harness can time only the part a user
waits for:

- `setup(mcgs, seed)` builds the inputs (counted in set-up time);
- `warmup_inputs(inputs)` is what the untimed warm-up repetition runs;
- `run(mcgs, inputs, pause)` is one timed repetition and returns its raw
  result; a workload of many searches calls `pause()` after each, where the
  harness may time its reference search outside the measured stretches;
- `summarize(mcgs, inputs, raw)` turns that into a `Rep` after the clock has
  stopped: the behaviour fingerprint, per-search figures and the checks that
  need no oracle;
- `oracle(mcgs, inputs)` and `verify(rep, oracle)` run once after all timing.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
from dataclasses import dataclass, field
from typing import Any

# Every enhancement off: the engine is bitwise tree-PUCT.
PLAIN = dict(transpositions=False, terminal_solver=False, eps_greedy=False,
             check_enhance=False, q_boost=False)
# A simulation budget no proof reaches; the search ends when the root is solved.
UNBOUNDED = 10**12
WARMUP_OPENINGS = 10


@dataclass
class Rep:
    """What one repetition leaves behind once its clock has stopped."""

    fingerprint: dict
    search_ms: list[float]  # per-search SearchResult.wall_ms; the harness scales it
    simulations: int
    evaluations: int
    early_stops: int
    terminals: int
    errors: list[str] = field(default_factory=list)
    answer: Any = None  # what verify() compares against the oracle


@dataclass
class SoloInputs:
    env: Any
    evaluator: Any
    config: Any
    state: Any


class Solo:
    """A workload whose repetition is one search from a fresh engine."""

    def warmup_inputs(self, inputs: SoloInputs) -> SoloInputs:
        return inputs

    def run(self, mcgs, inputs: SoloInputs, pause):
        # The engine class is looked up on mcgs.search at call time, so the
        # traced mode's instrumented subclass takes effect.
        engine = mcgs.search.SearchEngine(inputs.env, inputs.evaluator, inputs.config)
        engine.reset(inputs.state)
        return engine, engine.search()

    @staticmethod
    def _rep(result) -> Rep:
        memory = result.memory
        fingerprint = {
            "simulations": result.simulations,
            "evaluations": result.evaluations,
            "nodes": memory["node_count"],
            "joins": memory["transposition_join_count"],
            "early_stops": result.early_stop_trajectories,
            "terminals": result.terminal_trajectories,
            "selected_action": result.selected_action,
            "stop_reason": result.stop_reason,
            "root_status": result.root_status,
        }
        return Rep(fingerprint=fingerprint, search_ms=[result.wall_ms],
                   simulations=result.simulations, evaluations=result.evaluations,
                   early_stops=result.early_stop_trajectories,
                   terminals=result.terminal_trajectories)

    def oracle(self, mcgs, inputs):
        return None

    def verify(self, rep: Rep, oracle) -> list[str]:
        return []


class NimSolve(Solo):
    """Search nim from the start, every enhancement on, until the root is proven."""

    name = "nim-solve"

    def __init__(self, piles: tuple[int, ...] = (5, 6, 7, 8)) -> None:
        self.game = "nim:" + ",".join(str(p) for p in piles)

    def setup(self, mcgs, seed: int) -> SoloInputs:
        env = mcgs.make_env(self.game)
        config = mcgs.SearchConfig(budget="simulations", budget_amount=UNBOUNDED, seed=seed)
        return SoloInputs(env, mcgs.make_evaluator("heuristic", env), config,
                          env.initial_state())

    def summarize(self, mcgs, inputs: SoloInputs, raw) -> Rep:
        _, result = raw
        rep = self._rep(result)
        if result.stop_reason != "solved":
            rep.errors.append(f"stop_reason {result.stop_reason!r}, expected 'solved'")
        rep.answer = (result.root_status, result.root_end_in_ply, result.selected_action)
        return rep

    def oracle(self, mcgs, inputs: SoloInputs):
        entry = mcgs.negamax_solve(inputs.env, inputs.state)
        return entry, mcgs.oracle.nim_xor_outcome(inputs.state.piles)

    def verify(self, rep: Rep, oracle) -> list[str]:
        entry, xor_outcome = oracle
        status, end_in_ply, action = rep.answer
        errors = []
        if entry.outcome is not xor_outcome:
            errors.append(f"oracles disagree: negamax {entry.outcome.name}, "
                          f"xor {xor_outcome.name}")
        if status != xor_outcome.name:
            errors.append(f"root status {status}, expected {xor_outcome.name}")
        if end_in_ply != entry.distance:
            errors.append(f"root_end_in_ply {end_in_ply}, negamax distance {entry.distance}")
        if action not in entry.optimal_actions:
            errors.append(f"selected action {action} not in {entry.optimal_actions}")
        return errors


class TicTacToePlain(Solo):
    """Plain tree-PUCT on tictactoe to a fixed simulation budget."""

    name = "ttt-plain"

    def __init__(self, simulations: int = 20_000) -> None:
        self.simulations = simulations

    def setup(self, mcgs, seed: int) -> SoloInputs:
        env = mcgs.make_env("tictactoe")
        config = mcgs.SearchConfig(budget="simulations", budget_amount=self.simulations,
                                   seed=seed, **PLAIN)
        return SoloInputs(env, mcgs.make_evaluator("heuristic", env), config,
                          env.initial_state())

    def summarize(self, mcgs, inputs: SoloInputs, raw) -> Rep:
        engine, result = raw
        rep = self._rep(result)
        if result.stop_reason != "budget":
            rep.errors.append(f"stop_reason {result.stop_reason!r}, expected 'budget'")
        root_visits = sum(a["visits"] for a in result.actions)
        # The first simulation expands the root without traversing an edge.
        if root_visits != result.simulations - 1:
            rep.errors.append(f"root edge visits {root_visits}, "
                              f"expected {result.simulations - 1}")
        in_flight = sum(sum(node.evl) for node in engine.store.nodes.values())
        if in_flight:
            rep.errors.append(f"{in_flight} virtual losses left in flight")
        return rep


@dataclass
class MatchInputs:
    env: Any
    config: Any
    openings: list


class NimMatch:
    """A cut-down strength study: all-on versus plain on nim, equal eval budgets."""

    name = "nim-match"

    def __init__(self, openings: int = 200, evaluations: int = 256,
                 game: str = "nim:3,4,5") -> None:
        self.opening_count = openings
        self.evaluations = evaluations
        self.game = game

    def setup(self, mcgs, seed: int) -> MatchInputs:
        env = mcgs.make_env(self.game)
        openings = mcgs.arena.generate_openings(env, 3, self.opening_count, random.Random(seed))
        plain = mcgs.SearchConfig(budget="evaluations", budget_amount=self.evaluations,
                                  **PLAIN)
        full = dataclasses.replace(plain, transpositions=True, terminal_solver=True,
                                   eps_greedy=True, check_enhance=True, q_boost=True)
        config = mcgs.MatchConfig(game=self.game, engine_a=full, engine_b=plain,
                                  evaluator_a="deceptive", evaluator_b="deceptive",
                                  opening_plies=3, opening_count=self.opening_count,
                                  seed=seed)
        return MatchInputs(env, config, openings)

    def warmup_inputs(self, inputs: MatchInputs) -> MatchInputs:
        # A few openings warm the process up; a whole match would add its
        # full length to every run.
        return dataclasses.replace(inputs, openings=inputs.openings[:WARMUP_OPENINGS])

    def run(self, mcgs, inputs: MatchInputs, pause):
        arena = mcgs.arena
        base = arena.SearchEngine
        searches: list = []
        joins: list[int] = []  # per engine, as of its latest search

        class RecordingEngine(base):
            """Keeps each search's counters; matches expose no per-search data."""

            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                self.bench_slot = len(joins)
                joins.append(0)

            def search(self):
                result = super().search()
                searches.append((result.wall_ms, result.simulations, result.evaluations,
                                 result.early_stop_trajectories,
                                 result.terminal_trajectories))
                joins[self.bench_slot] = result.memory["transposition_join_count"]
                pause()
                return result

        arena.SearchEngine = RecordingEngine
        try:
            match = mcgs.play_match(inputs.config, openings=inputs.openings)
        finally:
            arena.SearchEngine = base
        return match, searches, sum(joins)

    def summarize(self, mcgs, inputs: MatchInputs, raw) -> Rep:
        match, searches, joins = raw
        env = inputs.env
        record = match.to_dict()
        digest = hashlib.sha256(json.dumps(record, sort_keys=True).encode()).hexdigest()
        sims = sum(s[1] for s in searches)
        evals = sum(s[2] for s in searches)
        early = sum(s[3] for s in searches)
        terminals = sum(s[4] for s in searches)
        fingerprint = {
            "searches": len(searches),
            "simulations": sims,
            "evaluations": evals,
            "nodes": sum(sum(g.node_counts.values()) for g in match.games),
            "joins": joins,
            "early_stops": early,
            "terminals": terminals,
            "wdl": [match.wins, match.draws, match.losses],
            "digest": digest[:16],
        }
        rep = Rep(fingerprint=fingerprint, search_ms=[s[0] for s in searches],
                  simulations=sims, evaluations=evals, early_stops=early,
                  terminals=terminals)
        expected_games = 2 * len(inputs.openings)
        if len(match.games) != expected_games:
            rep.errors.append(f"{len(match.games)} games, expected {expected_games}")
        for i, game in enumerate(match.games):
            if game.forfeited_by is not None:
                rep.errors.append(f"game {i} forfeited by {game.forfeited_by}: {game.error}")
                continue
            state = env.initial_state()
            for action in game.opening + game.moves:
                state = env.apply(state, action)
            if env.terminal_value(state) is None:
                rep.errors.append(f"game {i} ended on a non-terminal state")
        return rep

    def oracle(self, mcgs, inputs):
        return None

    def verify(self, rep: Rep, oracle) -> list[str]:
        return []


WORKLOADS = {w.name: w for w in (NimSolve(), TicTacToePlain(), NimMatch())}
