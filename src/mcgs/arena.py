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
from .search import ENHANCEMENTS, SearchConfig, SearchEngine, Settings

log = logging.getLogger("mcgs.arena")

WILSON_Z = 1.96  # two-sided 95%


@dataclass
class MatchConfig(Settings):
    game: str = "nim:3,4,5"
    engine_a: SearchConfig = field(default_factory=SearchConfig)
    engine_b: SearchConfig = field(default_factory=SearchConfig)
    evaluator_a: str = "heuristic"
    evaluator_b: str = "heuristic"
    opening_plies: int = 2
    opening_count: int = 25  # games = 2 * opening_count
    seed: int = 0

    def validate(self) -> None:
        self.check_fields()
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
        """The fields in order with `games` as a count, then the records.

        An infinite Elo is written as its repr, which JSON can hold.
        """
        def _num(x):
            return repr(x) if isinstance(x, float) and not math.isfinite(x) else x
        out = {spec.name: _num(getattr(self, spec.name)) for spec in dataclasses.fields(self)}
        out["games"] = len(self.games)
        out["records"] = [g.to_dict() for g in self.games]
        return out


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

    Each attempt plays one random line of `plies` moves from the start (one
    `rng.randrange` a ply) and keeps it if it is new and leaves the game
    unfinished. An opening is balanced when the position it reaches is a
    draw under optimal play; the first `count` balanced lines are returned,
    cycled when fewer exist. Games without draws (Nim) use every kept line
    instead. The draw ends after 4 x `count` kept lines or max(200,
    400 x `count`) attempts, or as soon as `count` balanced lines are in
    hand or every unfinished line has been drawn, since later lines cannot
    change the answer. It leaves `rng` wherever it stopped.

    A memo asks the env about each position once: its terminal value, its
    legal actions and each child. Each kept line's end position is solved
    as it is drawn, into the env's shared negamax cache.

    The drawn prefixes form a trie. A prefix's entry is [open, parent
    entry, memo node, entry per action index], where open counts the
    continuations not yet closed; a whole line (it ends the game or has
    `plies` moves) has no continuations and is open until first drawn. A
    prefix closes once each continuation has closed, and the draw has run
    dry once the empty prefix closes.
    """
    if count < 1:
        raise ValueError("opening_count must be >= 1")
    if plies < 0:
        raise ValueError("opening_plies must be >= 0")
    cache = negamax_cache(env)
    memo: dict = {}  # state -> (state, terminal value, legal actions, child per action)

    def visit(state):
        node = memo.get(state)
        if node is None:
            terminal = env.terminal_value(state)
            actions = () if terminal is not None else env.legal_actions(state)
            node = memo[state] = (state, terminal, actions, [None] * len(actions))
        return node

    def enter(parent, node, depth: int) -> list:
        """A new trie entry for a prefix of `depth` moves that reaches `node`."""
        if depth == plies or node[1] is not None:
            return [1, parent, node, None]  # a whole line, open until drawn
        k = len(node[2])
        return [k, parent, node, [None] * k]

    trie = enter(None, visit(env.initial_state()), 0)
    openings: list[tuple[int, ...]] = []
    balanced: list[tuple[int, ...]] = []
    attempts = 0
    limit = max(200, count * 400)
    while trie[0] and len(openings) < count * 4 and attempts < limit:
        attempts += 1
        entry = trie
        line: list[int] = []
        for _ in range(plies):
            node = entry[2]
            actions = node[2]
            if not actions:  # the game is over
                break
            i = rng.randrange(len(actions))
            line.append(actions[i])
            sub = entry[3][i]
            if sub is None:
                children = node[3]
                child = children[i]
                if child is None:
                    child = children[i] = visit(env.apply(node[0], actions[i]))
                sub = entry[3][i] = enter(entry, child, len(line))
            entry = sub
        if not entry[0]:  # drawn before
            continue
        closing = entry  # it closes, and so does each ancestor it leaves nothing open in
        while closing is not None:
            closing[0] -= 1
            if closing[0]:
                break
            closing = closing[1]
        state, terminal, _, _ = entry[2]
        if terminal is not None:
            continue
        key = tuple(line)
        openings.append(key)
        if negamax_solve(env, state, cache).outcome is Outcome.DRAW:
            balanced.append(key)
            if len(balanced) == count:
                break
    pool = balanced if balanced else openings
    if not pool:
        found = ("leaves the game unfinished" if not trie[0]
                 else f"left the game unfinished in {attempts} random draws")
        raise ValueError(f"opening_plies {plies}: no line of {plies} plies from the start of "
                         f"{env.game_id} {found}")
    return [pool[i % len(pool)] for i in range(count)]


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
        node_counts={name: len(eng.store.nodes) for name, eng in engines.items()},
        forfeited_by=forfeited_by,
        error=error,
    )


def play_match(config: MatchConfig, openings: list[tuple[int, ...]] | None = None) -> MatchResult:
    config.validate()
    env = make_env(config.game)
    if openings is None:
        openings = generate_openings(env, config.opening_plies, config.opening_count,
                                     random.Random(config.seed))
    elif not openings:
        raise ValueError("openings must hold at least one opening")
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
    base = MatchConfig(game=game, engine_a=config, engine_b=reference,
                       evaluator_a=evaluator, evaluator_b=evaluator,
                       opening_plies=opening_plies, opening_count=opening_count,
                       seed=seed)
    base.validate()  # before the openings are drawn, so an error names its key
    openings = generate_openings(env, opening_plies, opening_count, random.Random(seed))
    rows: list[dict] = []
    for budget in budgets:
        probe_cfg = dataclasses.replace(config, budget_amount=budget, seed=seed)
        engine = SearchEngine(env, make_evaluator(evaluator, env), probe_cfg)
        engine.reset(env.initial_state())
        result = engine.search()
        match_cfg = dataclasses.replace(
            base,
            engine_a=dataclasses.replace(config, budget_amount=budget),
            engine_b=dataclasses.replace(reference, budget_amount=budget),
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
