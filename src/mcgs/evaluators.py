"""Evaluators: map a non-terminal state to a value and priors over its actions.

Values live in [-1, +1] from the perspective of the side to move. Priors are
aligned with evaluate's `actions` argument and sum to 1. Four families:

- uniform: value 0, flat priors (the no-information baseline)
- heuristic: deterministic closed-form score per game, priors from a softmax
  over one-ply child scores
- deceptive: the heuristic with its sign flipped throughout, for experiments
  on escaping misleading evaluations
- oracle: exact negamax value, priors uniform over the optimal moves

The search calls evaluate(state, actions) once per distinct state it expands,
with the env.legal_actions(state) it asked for, in the env's order, so no
evaluator asks the env again. Its EvalQueue holds the leaves that wait.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .envs import LeftRight, Nim, TicTacToe, TTT_LINES
from .oracle import negamax_cache, negamax_solve

# Softmax temperature for heuristic move priors. Sharp enough that a
# sign-flipped heuristic produces genuinely misleading priors.
_PRIOR_TEMP = 0.5


class Evaluation(NamedTuple):
    value: float
    priors: list[float]


def apply_node_temperature(priors: list[float], node_tau: float) -> list[float]:
    """Flatten priors by raising them to 1/node_tau and renormalizing.

    node_tau > 1 flattens the distribution, < 1 sharpens it, and 1 only
    renormalizes it. Raises ValueError for node_tau <= 0.
    """
    if node_tau <= 0:
        raise ValueError(f"node_tau must be positive, got {node_tau}")
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

    def evaluate(self, state, actions) -> Evaluation:
        return Evaluation(0.0, [1.0 / len(actions)] * len(actions))


def _line_weight(own: int, opp: int) -> int:
    """Weight of one tictactoe line holding `own` mover and `opp` other pieces."""
    if opp == 0 and own:
        return 4 if own == 2 else 1
    if own == 0 and opp:
        return -4 if opp == 2 else -1
    return 0


# _line_weight tabulated as _LINE_WEIGHT[own][opp] for the counts a
# non-terminal board or one of its children can hold.
_LINE_WEIGHT = tuple(tuple(_line_weight(own, opp) for opp in range(3)) for own in range(3))

# Indices into TTT_LINES of the lines through each cell.
_CELL_LINES = tuple(
    tuple(i for i, line in enumerate(TTT_LINES) if cell in line) for cell in range(9)
)


def _scaled_line_weight(w: int) -> float:
    """A board's summed line weight, scaled into [-0.9, 0.9]."""
    scaled = 0.9 * w / 12.0
    return max(-0.9, min(0.9, scaled))


class HeuristicEvaluator:
    """Closed-form score per game, child-score softmax priors.

    A state's score is, per game, from the mover's view:
    - tictactoe: the summed weight of the eight lines (a line with only the
      mover's pieces counts +1 for one and +4 for two, the other side's
      likewise negative), scaled by 0.9/12 and clamped into [-0.9, 0.9]
    - nim: 0.9 when the xor of the piles is non-zero, else -0.9
    - leftright: 0.9 when an odd number of cells is left to the right end,
      else -0.9

    The value is the state's score. Each legal action's child score is the
    negated outcome score of the child when the move ends the game, and
    the negated score of the child otherwise; the priors are a softmax over
    them. Each game's look-ahead computes those child scores from the
    parent state in closed form, without building a child.

    sign=-1 gives the deceptive variant: the score (and hence the move
    ordering) is negated, so the evaluator actively points away from good
    play while remaining perfectly self-consistent.
    """

    def __init__(self, env, sign: float = 1.0) -> None:
        self.env = env
        self.sign = sign
        self.name = "heuristic" if sign > 0 else "deceptive"
        if isinstance(env, TicTacToe):
            self._look_ahead = self._tictactoe_look_ahead
        elif isinstance(env, Nim):
            self._look_ahead = self._nim_look_ahead
        elif isinstance(env, LeftRight):
            self._look_ahead = self._leftright_look_ahead
        else:
            raise ValueError(f"no heuristic for game {getattr(env, 'game_id', env)!r}")

    def _tictactoe_look_ahead(self, state, cells) -> tuple[float, list[float]]:
        board = state.board
        mover = (state.ply & 1) + 1
        other = 3 - mover
        w = 0
        # The child's mover is the other side, and a line's weight flips sign
        # with the side, so a child starts from -w. Per line, `gains` holds
        # what a mover piece played into it adds to that (the child counts
        # the line as own=opp, opp=own+1), or None when the piece completes
        # the line.
        gains = []
        for a, b, c in TTT_LINES:
            own = (board[a] == mover) + (board[b] == mover) + (board[c] == mover)
            opp = (board[a] == other) + (board[b] == other) + (board[c] == other)
            w += _LINE_WEIGHT[own][opp]
            if own == 2:
                gains.append(None)
            else:
                row = _LINE_WEIGHT[opp]
                gains.append(row[own + 1] - row[own])
        last = len(cells) == 1
        scores = []
        for cell in cells:
            child_w = -w
            for i in _CELL_LINES[cell]:
                gain = gains[i]
                if gain is None:
                    scores.append(1.0)
                    break
                child_w += gain
            else:
                scores.append(-0.0 if last else -_scaled_line_weight(child_w))
        return _scaled_line_weight(w), scores

    @staticmethod
    def _nim_look_ahead(state, actions) -> tuple[float, list[float]]:
        piles = state.piles
        x = 0
        total = 0
        for p in piles:
            x ^= p
            total += p
        scores = []
        for p in piles:  # the env's action order: pile by pile, taking 1..p
            rest = x ^ p
            scores += [1.0 if t == total else (-0.9 if rest ^ (p - t) else 0.9)
                       for t in range(1, p + 1)]
        return (0.9 if x else -0.9), scores

    def _leftright_look_ahead(self, state, actions) -> tuple[float, list[float]]:
        end = self.env.length - 1
        step = state.pos + 1
        if step == end:
            right = 1.0
        else:
            right = -0.9 if (end - step) & 1 else 0.9
        return (0.9 if (end - state.pos) & 1 else -0.9), [-1.0, right]  # LEFT, RIGHT

    def evaluate(self, state, actions) -> Evaluation:
        value, child_scores = self._look_ahead(state, actions)
        sign = self.sign
        return Evaluation(sign * value,
                          _softmax([sign * s for s in child_scores], _PRIOR_TEMP))


class OracleEvaluator:
    """Exact negamax value; priors uniform over outcome-optimal moves."""

    name = "oracle"

    def __init__(self, env) -> None:
        self.env = env
        self.cache = negamax_cache(env)

    def evaluate(self, state, actions) -> Evaluation:
        entry = negamax_solve(self.env, state, cache=self.cache)
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

