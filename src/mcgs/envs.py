"""Game environments: tictactoe, nim, and the LEFTRIGHT needle-in-a-haystack chain.

Environments are pure: states are immutable value objects, apply() returns a new
state and never mutates. All games alternate strictly between two players, with
player 0 moving at even plies. Terminal values are always reported from the
perspective of the side to move at the terminal state (the player who just got
mated sees LOSS).

A state is its own transposition key: state_key returns it unchanged, so two
positions share a graph node exactly when their states are equal. Every state
carries its ply, so states reached at different depths never share a node,
which keeps the search graph acyclic. state_key is the env's hook for that
identity rule: an env whose states carried more than the position (a move
history, say) would map them to what decides the game there.
"""

from __future__ import annotations

import enum
from typing import NamedTuple


class Outcome(enum.Enum):
    """Game result from the perspective of the side to move at the terminal state."""

    WIN = 1
    LOSS = -1
    DRAW = 0

    @property
    def score(self) -> float:
        """Scalar value: WIN -> +1.0, LOSS -> -1.0, DRAW -> 0.0."""
        return float(self.value)

    @property
    def inverted(self) -> "Outcome":
        """The same result seen by the other player."""
        if self is Outcome.WIN:
            return Outcome.LOSS
        if self is Outcome.LOSS:
            return Outcome.WIN
        return Outcome.DRAW


class TicTacToeState(NamedTuple):
    board: tuple[int, ...]  # 9 cells, 0 empty, 1 = X (player 0), 2 = O (player 1)
    ply: int


# Rows, columns, diagonals of the 3x3 board.
TTT_LINES = (
    (0, 1, 2), (3, 4, 5), (6, 7, 8),
    (0, 3, 6), (1, 4, 7), (2, 5, 8),
    (0, 4, 8), (2, 4, 6),
)


class TicTacToe:
    """Standard 3x3 tictactoe. Actions are cell indices 0..8."""

    game_id = "tictactoe"

    def initial_state(self) -> TicTacToeState:
        return TicTacToeState((0,) * 9, 0)

    def legal_actions(self, state: TicTacToeState) -> list[int]:
        if self.terminal_value(state) is not None:
            raise ValueError("legal_actions called on a terminal state")
        board = state.board
        return [c for c in range(9) if board[c] == 0]

    def apply(self, state: TicTacToeState, action: int) -> TicTacToeState:
        board = state.board
        if not 0 <= action < 9 or board[action] != 0:
            raise ValueError(f"illegal tictactoe action {action}")
        piece = (state.ply & 1) + 1
        new_board = board[:action] + (piece,) + board[action + 1:]
        return TicTacToeState(new_board, state.ply + 1)

    def terminal_value(self, state: TicTacToeState) -> Outcome | None:
        board = state.board
        mover_piece = (state.ply & 1) + 1
        for a, b, c in TTT_LINES:
            piece = board[a]
            if piece != 0 and piece == board[b] and piece == board[c]:
                return Outcome.WIN if piece == mover_piece else Outcome.LOSS
        if 0 not in board:
            return Outcome.DRAW
        return None

    def state_key(self, state: TicTacToeState) -> TicTacToeState:
        """The state's transposition key: the state itself, ply included."""
        return state

    def ending_moves(self, state: TicTacToeState, actions: list[int]) -> list[int]:
        """Indices j, ascending, of the actions whose move ends the game.

        A move ends it when it completes one of the mover's lines or fills
        the last empty cell.
        """
        board = state.board
        if board.count(0) == 1:
            return list(range(len(actions)))
        mover = (state.ply & 1) + 1
        wins = set()
        for line in TTT_LINES:
            pieces = [board[c] for c in line]
            if pieces.count(mover) == 2 and 0 in pieces:
                wins.add(line[pieces.index(0)])
        return [j for j, cell in enumerate(actions) if cell in wins]

    def is_forcing(self, state: TicTacToeState, action: int) -> bool:
        """True when the move makes a two-in-a-row threat through its cell.

        A line through the cell forces when its other two cells hold one
        mover piece and one empty cell.
        """
        board = state.board
        threat = {(state.ply & 1) + 1, 0}
        return any({board[c] for c in line if c != action} == threat
                   for line in TTT_LINES if action in line)


class NimState(NamedTuple):
    piles: tuple[int, ...]
    ply: int


class Nim:
    """Normal-play Nim: take 1..k stones from one pile, last mover wins.

    The player to move with every pile empty has no move and loses. Actions
    encode (pile, take) as pile_index * stride + (take - 1) with stride equal
    to the largest initial pile, so an action id means the same move in every
    state of one game instance.
    """

    def __init__(self, piles: tuple[int, ...] = (3, 4, 5)) -> None:
        if not piles or any(p < 0 for p in piles):
            raise ValueError(f"invalid nim piles {piles}")
        self.piles = tuple(piles)
        self.game_id = "nim:" + ",".join(str(p) for p in piles)
        self._stride = max(max(piles), 1)

    def initial_state(self) -> NimState:
        return NimState(self.piles, 0)

    def legal_actions(self, state: NimState) -> list[int]:
        if self.terminal_value(state) is not None:
            raise ValueError("legal_actions called on a terminal state")
        stride = self._stride
        actions = []
        for i, count in enumerate(state.piles):
            base = i * stride
            actions.extend(range(base, base + count))
        return actions

    def decode(self, action: int) -> tuple[int, int]:
        """Return (pile index, stones taken) for an action id."""
        return action // self._stride, action % self._stride + 1

    def apply(self, state: NimState, action: int) -> NimState:
        piles = state.piles
        pile, take = self.decode(action)
        if not 0 <= pile < len(piles) or not 1 <= take <= piles[pile]:
            raise ValueError(f"illegal nim action {action} in {piles}")
        return NimState(piles[:pile] + (piles[pile] - take,) + piles[pile + 1:],
                        state.ply + 1)

    def terminal_value(self, state: NimState) -> Outcome | None:
        if any(state.piles):
            return None
        return Outcome.LOSS  # no stones to take: the previous mover took the last one

    def state_key(self, state: NimState) -> NimState:
        """The state's transposition key: the state itself, ply included."""
        return state

    def ending_moves(self, state: NimState, actions: list[int]) -> list[int]:
        """Indices j, ascending, of the actions whose move ends the game.

        Only taking every stone left ends it, which one pile holding them
        all allows.
        """
        piles = state.piles
        total = sum(piles)
        if total not in piles:
            return []
        stride = self._stride
        return [j for j, action in enumerate(actions) if action % stride + 1 == total]

    def is_forcing(self, state: NimState, action: int) -> bool:
        """True when the move leaves exactly one non-empty pile."""
        pile, take = self.decode(action)
        nonempty = 0
        for i, count in enumerate(state.piles):
            if i == pile:
                count -= take
            if count:
                nonempty += 1
        return nonempty == 1


class LeftRightState(NamedTuple):
    pos: int  # cell index; -1 is the off-board state after a LEFT move
    ply: int


LEFT = 0
RIGHT = 1


class LeftRight:
    """Chain of L cells. RIGHT advances one cell; LEFT ends the game at once.

    The LEFT mover scores -1 (the resulting terminal is a WIN for the other
    player); reaching the rightmost cell scores +1 for the player who stepped
    onto it. Every interior cell offers exactly the two actions, and there is
    only one path rightward, which makes the game a needle in a haystack for
    an evaluator that cannot see the far end.
    """

    def __init__(self, length: int = 16) -> None:
        if length < 2:
            raise ValueError(f"leftright length must be >= 2, got {length}")
        self.length = length
        self.game_id = f"leftright:{length}"

    def initial_state(self) -> LeftRightState:
        return LeftRightState(0, 0)

    def legal_actions(self, state: LeftRightState) -> list[int]:
        if self.terminal_value(state) is not None:
            raise ValueError("legal_actions called on a terminal state")
        return [LEFT, RIGHT]

    def apply(self, state: LeftRightState, action: int) -> LeftRightState:
        if self.terminal_value(state) is not None or action not in (LEFT, RIGHT):
            raise ValueError(f"illegal leftright action {action}")
        pos = -1 if action == LEFT else state.pos + 1
        return LeftRightState(pos, state.ply + 1)

    def terminal_value(self, state: LeftRightState) -> Outcome | None:
        if state.pos < 0:
            return Outcome.WIN  # opponent stepped off to the left
        if state.pos == self.length - 1:
            return Outcome.LOSS  # opponent claimed the right end
        return None

    def state_key(self, state: LeftRightState) -> LeftRightState:
        """The state's transposition key: the state itself, ply included."""
        return state

    def ending_moves(self, state: LeftRightState, actions: list[int]) -> list[int]:
        """Indices j, ascending, of the actions whose move ends the game.

        LEFT always ends it; RIGHT ends it onto the rightmost cell.
        """
        right_ends = state.pos + 1 == self.length - 1
        return [j for j, action in enumerate(actions) if action == LEFT or right_ends]

    def is_forcing(self, state: LeftRightState, action: int) -> bool:
        return False


def make_env(spec: str):
    """Build an environment from its id string.

    Accepted forms: "tictactoe", "nim" or "nim:3,4,5", "leftright" or
    "leftright:16"; anything else after a ':', or nothing, is an error.
    """
    name, sep, arg = spec.partition(":")
    name = name.strip().lower()
    try:
        if sep and not arg:
            raise ValueError("nothing after ':'")
        if name == "tictactoe":
            if arg:
                raise ValueError("tictactoe takes no argument")
            return TicTacToe()
        if name == "nim":
            piles = tuple(int(p) for p in arg.split(",")) if arg else (3, 4, 5)
            return Nim(piles)
        if name == "leftright":
            return LeftRight(int(arg) if arg else 16)
    except ValueError as exc:
        raise ValueError(f"game id {spec!r}: {exc}") from None
    raise ValueError(f"unknown game id {spec!r}")
