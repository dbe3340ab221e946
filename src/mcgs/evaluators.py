"""Evaluators: map a non-terminal state to a value and priors over legal actions.

Values live in [-1, +1] from the perspective of the side to move. Priors are
aligned with env.legal_actions(state) order and sum to 1. Four families:

- uniform: value 0, flat priors (the no-information baseline)
- heuristic: deterministic closed-form score per game, priors from a softmax
  over one-ply child scores
- deceptive: the heuristic with its sign flipped throughout, for experiments
  on escaping misleading evaluations
- oracle: exact negamax value, priors uniform over the optimal moves

Evaluation requests can be routed through EvalQueue, which groups them into
synchronous mini-batches the way a GPU-backed evaluator would.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .envs import LeftRight, Nim, TicTacToe, TTT_LINES
from .oracle import SolvedEntry, negamax_solve
from .envs import StateKey

# Softmax temperature for heuristic move priors. Sharp enough that a
# sign-flipped heuristic produces genuinely misleading priors.
_PRIOR_TEMP = 0.5


class Evaluation(NamedTuple):
    value: float
    priors: list[float]


def apply_node_temperature(priors: list[float], node_tau: float) -> list[float]:
    """Flatten priors by raising them to 1/node_tau and renormalizing.

    node_tau > 1 flattens the distribution, < 1 sharpens it. Raises
    ValueError for node_tau <= 0.
    """
    if node_tau <= 0:
        raise ValueError(f"node_tau must be positive, got {node_tau}")
    if node_tau == 1.0:
        return list(priors)
    inv = 1.0 / node_tau
    flattened = [p ** inv for p in priors]
    total = sum(flattened)
    if total <= 0.0:
        return [1.0 / len(priors)] * len(priors)
    return [p / total for p in flattened]


def _softmax(scores: list[float], temperature: float) -> list[float]:
    top = max(scores)
    weights = [math.exp((s - top) / temperature) for s in scores]
    total = sum(weights)
    return [w / total for w in weights]


class UniformEvaluator:
    """Flat priors, zero value."""

    name = "uniform"

    def __init__(self, env) -> None:
        self.env = env

    def evaluate(self, state) -> Evaluation:
        k = len(self.env.legal_actions(state))
        return Evaluation(0.0, [1.0 / k] * k)


class HeuristicEvaluator:
    """Closed-form score per game, child-score softmax priors.

    sign=-1 gives the deceptive variant: the score (and hence the move
    ordering) is negated, so the evaluator actively points away from good
    play while remaining perfectly self-consistent.
    """

    def __init__(self, env, sign: float = 1.0) -> None:
        self.env = env
        self.sign = sign
        self.name = "heuristic" if sign > 0 else "deceptive"
        if isinstance(env, TicTacToe):
            self._raw = self._tictactoe_score
        elif isinstance(env, Nim):
            self._raw = self._nim_score
        elif isinstance(env, LeftRight):
            self._raw = self._leftright_score
        else:
            raise ValueError(f"no heuristic for game {getattr(env, 'game_id', env)!r}")

    @staticmethod
    def _tictactoe_score(state) -> float:
        """Weighted open-line count for the mover, scaled into [-0.9, 0.9]."""
        board = state.board
        mover = (state.ply & 1) + 1
        other = 3 - mover
        w = 0
        for a, b, c in TTT_LINES:
            own = (board[a] == mover) + (board[b] == mover) + (board[c] == mover)
            opp = (board[a] == other) + (board[b] == other) + (board[c] == other)
            if opp == 0 and own:
                w += 4 if own == 2 else 1
            elif own == 0 and opp:
                w -= 4 if opp == 2 else 1
        scaled = 0.9 * w / 12.0
        return max(-0.9, min(0.9, scaled))

    @staticmethod
    def _nim_score(state) -> float:
        x = 0
        for p in state.piles:
            x ^= p
        return 0.9 if x else -0.9

    def _leftright_score(self, state) -> float:
        remaining = self.env.length - 1 - state.pos
        return 0.9 if remaining & 1 else -0.9

    def evaluate(self, state) -> Evaluation:
        env = self.env
        sign = self.sign
        child_scores = []
        for action in env.legal_actions(state):
            child = env.apply(state, action)
            terminal = env.terminal_value(child)
            if terminal is not None:
                mine = -terminal.score
            else:
                mine = -self._raw(child)
            child_scores.append(sign * mine)
        value = sign * self._raw(state)
        return Evaluation(value, _softmax(child_scores, _PRIOR_TEMP))


class OracleEvaluator:
    """Exact negamax value; priors uniform over outcome-optimal moves."""

    name = "oracle"

    def __init__(self, env, cache: dict[StateKey, SolvedEntry] | None = None) -> None:
        self.env = env
        self.cache = cache if cache is not None else {}

    def evaluate(self, state) -> Evaluation:
        entry = negamax_solve(self.env, state, cache=self.cache)
        actions = self.env.legal_actions(state)
        optimal = set(entry.optimal_actions)
        share = 1.0 / len(optimal)
        priors = [share if a in optimal else 0.0 for a in actions]
        return Evaluation(float(entry.outcome.value), priors)


def make_evaluator(name: str, env):
    name = name.strip().lower()
    if name == "uniform":
        return UniformEvaluator(env)
    if name == "heuristic":
        return HeuristicEvaluator(env)
    if name == "deceptive":
        return HeuristicEvaluator(env, sign=-1.0)
    if name == "oracle":
        return OracleEvaluator(env)
    raise ValueError(f"unknown evaluator {name!r}")


class EvalQueue:
    """Synchronous mini-batch evaluation queue.

    submit() holds requests in FIFO order; the caller decides when a batch
    is full (mini_batch_size) and calls flush(), which evaluates whatever is
    pending and returns (token, evaluation) pairs in submission order.
    total_evaluated counts every evaluation ever returned, which is what
    evaluation budgets meter.
    """

    def __init__(self, evaluator, mini_batch_size: int) -> None:
        if mini_batch_size < 1:
            raise ValueError("mini_batch_size must be >= 1")
        self.evaluator = evaluator
        self.mini_batch_size = mini_batch_size
        self._pending: list[tuple[object, object]] = []
        self.total_evaluated = 0

    def __len__(self) -> int:
        return len(self._pending)

    def submit(self, state, token) -> None:
        self._pending.append((state, token))

    def flush(self) -> list[tuple[object, Evaluation]]:
        batch = self._pending
        self._pending = []
        evaluate = self.evaluator.evaluate
        results = [(token, evaluate(state)) for state, token in batch]
        self.total_evaluated += len(results)
        return results
