"""Engine-vs-engine matches over balanced opening sets.

Every opening is played twice with colors swapped, each game gets its own
engine instances with deterministically derived seeds, and results carry no
wall-clock data, so a match replays byte-for-byte from its config and seed.
"""

from __future__ import annotations

import dataclasses
import logging
import math
import random
from dataclasses import dataclass, field

from .envs import Outcome, make_env
from .evaluators import make_evaluator
from .oracle import negamax_cache, negamax_solve
from .search import ENHANCEMENTS, SearchConfig, SearchEngine, check_fields

log = logging.getLogger("mcgs.arena")

WILSON_Z = 1.96  # two-sided 95%


@dataclass
class MatchConfig:
    game: str = "nim:3,4,5"
    engine_a: SearchConfig = field(default_factory=SearchConfig)
    engine_b: SearchConfig = field(default_factory=SearchConfig)
    evaluator_a: str = "heuristic"
    evaluator_b: str = "heuristic"
    opening_plies: int = 2
    opening_count: int = 25  # games = 2 * opening_count
    seed: int = 0

    def validate(self) -> None:
        check_fields(self)
        self.engine_a.validate()
        self.engine_b.validate()
        if (self.engine_a.budget, self.engine_a.budget_amount) != (
                self.engine_b.budget, self.engine_b.budget_amount):
            raise ValueError("engines must receive identical per-move budgets")
        if self.opening_count < 1:
            raise ValueError("opening_count must be >= 1")
        if self.opening_plies < 0:
            raise ValueError("opening_plies must be >= 0")


@dataclass
class GameRecord:
    opening: list[int]
    first: str  # which engine moved first from the opening position
    moves: list[int]
    score_a: float  # 1 win, 0.5 draw, 0 loss, from A's side
    plies: int
    evaluations: dict
    simulations: dict
    node_counts: dict
    forfeited_by: str | None = None
    error: str | None = None

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


@dataclass
class MatchResult:
    games: list[GameRecord]
    wins: int
    draws: int
    losses: int
    score_rate: float
    rate_low: float
    rate_high: float
    elo: float
    elo_low: float
    elo_high: float
    seed: int

    def to_dict(self) -> dict:
        def _num(x: float):
            return x if math.isfinite(x) else repr(x)
        return {
            "games": len(self.games),
            "wins": self.wins,
            "draws": self.draws,
            "losses": self.losses,
            "score_rate": self.score_rate,
            "rate_low": self.rate_low,
            "rate_high": self.rate_high,
            "elo": _num(self.elo),
            "elo_low": _num(self.elo_low),
            "elo_high": _num(self.elo_high),
            "seed": self.seed,
            "records": [g.to_dict() for g in self.games],
        }


def elo_diff(score_rate: float) -> float:
    """Logistic Elo gap for a score rate; +/-inf at the degenerate rates."""
    if score_rate <= 0.0:
        return -math.inf
    if score_rate >= 1.0:
        return math.inf
    return -400.0 * math.log10(1.0 / score_rate - 1.0)


def wilson_bounds(score: float, games: int, z: float = WILSON_Z) -> tuple[float, float]:
    """Wilson score interval for a rate estimated as score/games."""
    if games <= 0:
        return 0.0, 1.0
    p = score / games
    z2 = z * z
    denom = 1.0 + z2 / games
    center = p + z2 / (2.0 * games)
    spread = z * math.sqrt(p * (1.0 - p) / games + z2 / (4.0 * games * games))
    return max(0.0, (center - spread) / denom), min(1.0, (center + spread) / denom)


def generate_openings(env, plies: int, count: int, rng: random.Random) -> list[tuple[int, ...]]:
    """Distinct random opening lines, preferring game-value-balanced ones.

    An opening is balanced when the position it reaches is a draw under
    optimal play. Games without draws (Nim) keep the full sample instead.
    The balance check solves into the env's shared negamax cache.
    """
    cache = negamax_cache(env)
    seen: set[tuple[int, ...]] = set()
    openings: list[tuple[int, ...]] = []
    attempts = 0
    limit = max(200, count * 400)
    while len(openings) < count * 4 and attempts < limit:
        attempts += 1
        state = env.initial_state()
        line: list[int] = []
        dead = False
        for _ in range(plies):
            if env.terminal_value(state) is not None:
                dead = True
                break
            actions = env.legal_actions(state)
            action = actions[rng.randrange(len(actions))]
            line.append(action)
            state = env.apply(state, action)
        if dead or env.terminal_value(state) is not None:
            continue
        key = tuple(line)
        if key in seen:
            continue
        seen.add(key)
        openings.append(key)
    balanced = [line for line in openings
                if _opening_outcome(env, line, cache) is Outcome.DRAW]
    pool = balanced if balanced else openings
    if not pool:
        raise ValueError("could not generate any openings")
    return [pool[i % len(pool)] for i in range(count)]


def _opening_outcome(env, line, cache) -> Outcome:
    state = env.initial_state()
    for action in line:
        state = env.apply(state, action)
    return negamax_solve(env, state, cache).outcome


def _score_for_a(outcome: Outcome, mover: str) -> float:
    s = outcome.score if mover == "A" else -outcome.score
    return (s + 1.0) / 2.0


def play_game(env, config: MatchConfig, opening: tuple[int, ...], first: str,
              seed_a: int, seed_b: int) -> GameRecord:
    state = env.initial_state()
    for action in opening:
        state = env.apply(state, action)
    engines = {
        "A": SearchEngine(env, make_evaluator(config.evaluator_a, env),
                          dataclasses.replace(config.engine_a, seed=seed_a)),
        "B": SearchEngine(env, make_evaluator(config.evaluator_b, env),
                          dataclasses.replace(config.engine_b, seed=seed_b)),
    }
    for engine in engines.values():
        engine.reset(state)
    moves: list[int] = []
    evaluations = {"A": 0, "B": 0}
    simulations = {"A": 0, "B": 0}
    mover = first
    forfeited_by = None
    error = None
    score_a = 0.5
    while True:
        outcome = env.terminal_value(state)
        if outcome is not None:
            score_a = _score_for_a(outcome, mover)
            break
        engine = engines[mover]
        try:
            result = engine.search()
            action = result.selected_action
            if action is None or action not in env.legal_actions(state):
                raise ValueError(f"engine {mover} produced illegal move {action!r}")
            evaluations[mover] += result.evaluations
            simulations[mover] += result.simulations
            state = env.apply(state, action)
            moves.append(action)
            for eng in engines.values():
                eng.advance(action)
        except Exception as exc:  # engine failure forfeits the game
            forfeited_by = mover
            error = f"{type(exc).__name__}: {exc}"
            score_a = 0.0 if mover == "A" else 1.0
            log.warning("game forfeited by %s after %d moves: %s",
                        mover, len(moves), error)
            break
        mover = "B" if mover == "A" else "A"
    return GameRecord(
        opening=list(opening),
        first=first,
        moves=moves,
        score_a=score_a,
        plies=len(opening) + len(moves),
        evaluations=evaluations,
        simulations=simulations,
        node_counts={name: eng.store.memory_report()["node_count"]
                     for name, eng in engines.items()},
        forfeited_by=forfeited_by,
        error=error,
    )


def play_match(config: MatchConfig, openings: list[tuple[int, ...]] | None = None) -> MatchResult:
    config.validate()
    env = make_env(config.game)
    rng = random.Random(config.seed)
    if openings is None:
        openings = generate_openings(env, config.opening_plies,
                                     config.opening_count, rng)
    games: list[GameRecord] = []
    wins = draws = losses = 0
    for g, opening in enumerate(openings):
        # Seeds attach to the mover role per opening, not to the engine
        # label, so relabeling A<->B replays the same games mirrored and
        # negates the Elo estimate exactly.
        game_seed = config.seed * 1_000_003 + g
        seed_first = game_seed * 2 + 1
        seed_second = game_seed * 2 + 2
        for first in ("A", "B"):
            record = play_game(env, config, opening, first,
                               seed_a=seed_first if first == "A" else seed_second,
                               seed_b=seed_first if first == "B" else seed_second)
            games.append(record)
            if record.score_a == 1.0:
                wins += 1
            elif record.score_a == 0.0:
                losses += 1
            else:
                draws += 1
    score = wins + 0.5 * draws
    rate = score / len(games)
    low, high = wilson_bounds(score, len(games))
    return MatchResult(
        games=games,
        wins=wins,
        draws=draws,
        losses=losses,
        score_rate=rate,
        rate_low=low,
        rate_high=high,
        elo=elo_diff(rate),
        elo_low=elo_diff(low),
        elo_high=elo_diff(high),
        seed=config.seed,
    )


def move_log(result: MatchResult, game: str) -> str:
    """Compact per-game log: header line plus space-separated move list."""
    lines = []
    for i, rec in enumerate(result.games):
        tag = {1.0: "1-0", 0.0: "0-1"}.get(rec.score_a, "1/2-1/2")
        note = f" forfeit:{rec.forfeited_by}" if rec.forfeited_by else ""
        lines.append(f"[game {i + 1} \"{game}\" first:{rec.first} {tag}{note}]")
        lines.append(" ".join(str(m) for m in rec.opening)
                     + (" | " if rec.moves else " |")
                     + " ".join(str(m) for m in rec.moves))
    return "\n".join(lines) + "\n"


def scaling_report(game: str, config: SearchConfig, budgets: list[int],
                   opening_count: int = 10, opening_plies: int = 2,
                   evaluator: str = "heuristic", seed: int = 0) -> list[dict]:
    """One row per budget: search statistics plus a score vs a fixed opponent.

    The reference opponent is a fixed configuration: the same engine with
    every enhancement turned off. Both sides receive the row's budget, per
    the equal-budget match rule.
    """
    if budgets != sorted(budgets):
        raise ValueError("budgets must be ascending")
    env = make_env(game)
    reference = dataclasses.replace(config, **dict.fromkeys(ENHANCEMENTS, False))
    rng = random.Random(seed)
    openings = generate_openings(env, opening_plies, opening_count, rng)
    rows: list[dict] = []
    for budget in budgets:
        probe_cfg = dataclasses.replace(config, budget_amount=budget, seed=seed)
        engine = SearchEngine(env, make_evaluator(evaluator, env), probe_cfg)
        engine.reset(env.initial_state())
        result = engine.search()
        match_cfg = MatchConfig(
            game=game,
            engine_a=dataclasses.replace(config, budget_amount=budget),
            engine_b=dataclasses.replace(reference, budget_amount=budget),
            evaluator_a=evaluator,
            evaluator_b=evaluator,
            opening_plies=opening_plies,
            opening_count=opening_count,
            seed=seed,
        )
        match = play_match(match_cfg, openings=openings)
        row = {
            "budget": budget,
            "evaluations": result.evaluations,
            "simulations": result.simulations,
            "early_stops": result.early_stop_trajectories,
            "terminal_trajectories": result.terminal_trajectories,
            "score_vs_reference": match.score_rate,
        }
        row.update(result.memory)
        rows.append(row)
    return rows
