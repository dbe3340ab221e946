"""Terminal solver: propagate proven WIN/LOSS/DRAW through the search DAG.

A node's status is the one record of what is proven. The engine stamps every
terminal node with its outcome when it creates the node, solver or not. The
solver derives every other status from the node's children (the MCTS-Solver
rules of Winands, Bjornsson & Saito, CG 2008), re-derived by one method
whenever a child changes and carried up the parents' back-references until
nothing changes. Each known child is ranked by what it proves for the parent:
LOSS 0, TB_LOSS 1, DRAW 2, TB_DRAW 3, WIN and TB_WIN 4. The lowest rank, the
shortest END_IN_PLY among its children breaking ties, decides:
- rank 0 or 1 proves WIN or TB_WIN at once, unknown siblings or not;
- once every child is known, rank 2 or 3 proves DRAW or TB_DRAW;
- once every child is known and all rank 4, the parent is lost: LOSS when
  every child is a real WIN, else TB_LOSS, at the longest END_IN_PLY.
The proof is one ply longer than its child's line. Because the first proven
mate is not always the shortest one, END_IN_PLY of WIN nodes may refine
downward as further LOSS children are proven; statuses move monotonically
from UNKNOWN to solved and never back. The same derivation prunes every edge
into a LOSS or TB_LOSS child, a proven win for the side to move, so
simulations stop re-entering a line with nothing left to learn: Q = -inf is
the one mark, as the solver writes no prior. It also keeps node.live, so
selection skips settled edges without a status test.

TB_* statuses come from an endgame oracle probe and behave like their real
counterparts for propagation and pruning, except that search keeps flowing
through TB nodes (their evaluator values still guide selection toward an
actual terminal) and a TB status may upgrade to the matching real status.
"""

from __future__ import annotations

import enum
from collections import deque

from .envs import Nim, Outcome
from .oracle import negamax_cache, negamax_solve, nim_xor_outcome

NEG_INF = float("-inf")


class SolverStatus(enum.IntEnum):
    UNKNOWN = 0
    WIN = 1
    LOSS = 2
    DRAW = 3
    TB_WIN = 4
    TB_LOSS = 5
    TB_DRAW = 6


def is_real(status) -> bool:
    return SolverStatus.UNKNOWN < status < SolverStatus.TB_WIN


# The one status table: the outcome each solved status proves, from the
# node's own perspective. Every other status mapping is derived from it.
_OUTCOME_CLASS = {
    SolverStatus.WIN: Outcome.WIN,
    SolverStatus.LOSS: Outcome.LOSS,
    SolverStatus.DRAW: Outcome.DRAW,
    SolverStatus.TB_WIN: Outcome.WIN,
    SolverStatus.TB_LOSS: Outcome.LOSS,
    SolverStatus.TB_DRAW: Outcome.DRAW,
}

# Scalar value of a settled node, on the outcome scale [-1, 1].
STATUS_VALUE = {s: o.score for s, o in _OUTCOME_CLASS.items()}

_REAL_FOR_OUTCOME = {o: s for s, o in _OUTCOME_CLASS.items() if is_real(s)}
_TB_FOR_OUTCOME = {o: s for s, o in _OUTCOME_CLASS.items() if not is_real(s)}
_SELECTABLE = frozenset((SolverStatus.UNKNOWN, SolverStatus.TB_WIN, SolverStatus.TB_DRAW))
# The child statuses that carry a proof to solved_move.
_REAL_LOSS = frozenset((SolverStatus.LOSS,))
_ANY_LOSS = frozenset((SolverStatus.LOSS, SolverStatus.TB_LOSS))
_ANY_DRAW = frozenset((SolverStatus.DRAW, SolverStatus.TB_DRAW))
# What a known child proves for its parent: the lowest rank decides (see the
# module docstring), and _PROVES is the parent's status for each rank below 4.
_RANK = {
    SolverStatus.LOSS: 0, SolverStatus.TB_LOSS: 1,
    SolverStatus.DRAW: 2, SolverStatus.TB_DRAW: 3,
    SolverStatus.WIN: 4, SolverStatus.TB_WIN: 4,
}
_PROVES = (SolverStatus.WIN, SolverStatus.TB_WIN, SolverStatus.DRAW, SolverStatus.TB_DRAW)


def status_for_outcome(outcome: Outcome) -> SolverStatus:
    """Real solved status matching a terminal outcome."""
    return _REAL_FOR_OUTCOME[outcome]


class SolverContradictionError(RuntimeError):
    """A propagation step tried to change a node's proven outcome class."""


class NimXorOracle:
    """Endgame oracle for Nim built on the Sprague-Grundy XOR rule."""

    def probe(self, state) -> SolverStatus | None:
        return _TB_FOR_OUTCOME[nim_xor_outcome(state.piles)]


class TableOracle:
    """Synthetic tablebase: the exhaustive solve restricted to ply >= min_ply.

    The first probe solves the initial state into the env's shared negamax
    cache, which then holds every reachable state; the oracle evaluators and
    the openings' balance check solve into the same cache.
    """

    def __init__(self, env, min_ply: int = 0) -> None:
        self.env = env
        self.min_ply = min_ply
        self.table = None

    def probe(self, state) -> SolverStatus | None:
        if state.ply < self.min_ply:
            return None
        if self.table is None:
            self.table = negamax_cache(self.env)
            negamax_solve(self.env, self.env.initial_state(), self.table)
        entry = self.table.get(self.env.state_key(state))
        if entry is None:
            return None
        return _TB_FOR_OUTCOME[entry.outcome]


def make_endgame_oracle(spec: str | None, env):
    """Build an endgame oracle from its id: "none", "nim-xor", "table[:<game>[:<min_ply>]]".

    The oracle must fit the searched game: "nim-xor" needs Nim, and a table's
    <game> must equal env.game_id. A table spec may not end in ':'. Raises
    ValueError otherwise.
    """
    text = (spec or "").strip().lower()
    if text in ("", "none"):
        return None
    if text == "nim-xor":
        if not isinstance(env, Nim):
            raise ValueError(f"endgame oracle 'nim-xor' needs a nim game, not {env.game_id!r}")
        return NimXorOracle()
    kind, _, rest = text.partition(":")
    if kind == "table":
        if text.endswith(":"):
            raise ValueError(f"endgame oracle {spec!r}: nothing after ':'")
        if rest and not (rest + ":").startswith(env.game_id + ":"):
            raise ValueError(f"endgame oracle {spec!r} names another game than {env.game_id!r}; "
                             f"expected table:{env.game_id}[:<min_ply>]")
        min_ply = rest[len(env.game_id) + 1:] or "0"
        if not min_ply.isdigit():
            raise ValueError(f"endgame oracle {spec!r}: min_ply must be a non-negative integer")
        return TableOracle(env, min_ply=int(min_ply))
    raise ValueError(f"unknown endgame oracle {spec!r}")


class TerminalSolver:
    """Solved statuses over a graph store's nodes, derived from children.

    Terminal nodes arrive stamped by the engine. The engine reports link and
    expansion events; each one feeds `propagate`, whose `_recompute` is the
    only code that reads a node's children: it derives status and
    END_IN_PLY, prunes edges into loss-like children (Q = -inf), keeps
    node.live, and reports a change so the parents are re-derived in turn.
    """

    def __init__(self, endgame_oracle=None) -> None:
        self.endgame_oracle = endgame_oracle
        self.nodes_solved = 0

    def mark_terminal(self, node) -> None:
        """Count a freshly created terminal node, which the engine stamped."""
        self.nodes_solved += 1

    def note_link(self, parent, child) -> None:
        """Re-derive a parent whose edge just resolved onto a solved child."""
        if child.status != SolverStatus.UNKNOWN:
            self.propagate(parent)

    def probe_expanded(self, node) -> None:
        """Probe the endgame oracle for a node that just expanded."""
        if self.endgame_oracle is None or node.status != SolverStatus.UNKNOWN:
            return
        status = self.endgame_oracle.probe(node.state)
        if status is None:
            return
        node.status = status
        node.end_in_ply = 0
        self.nodes_solved += 1
        for parent in node.parents:
            self.propagate(parent)

    def propagate(self, seed) -> None:
        """Re-derive statuses up the DAG from a seed node until quiescent."""
        queue = deque([seed])
        while queue:
            node = queue.popleft()
            if self._recompute(node):
                queue.extend(node.parents)

    def _recompute(self, node) -> bool:
        """Re-derive one node's status from its children; prune loss-like ones.

        The same pass keeps node.live: pruned edges and edges into real-proven
        children, whose values are exact, drop out; TB_WIN and TB_DRAW ones stay.

        Returns whether the node's status or END_IN_PLY changed.
        """
        if not node.expanded:  # a terminal, or a leaf not yet evaluated
            return False
        best_rank, best_eip = 4, 0  # the lowest (rank, END_IN_PLY) below rank 4
        max_eip = 0
        all_known = True
        all_real_wins = True
        kept = 0  # live edges: unresolved or into a _SELECTABLE child
        for j, child in enumerate(node.child):
            if child is None or child.status == SolverStatus.UNKNOWN:
                all_known = False
                kept += 1
                continue
            st = child.status
            eip = child.end_in_ply
            rank = _RANK[st]
            if rank < best_rank or rank == best_rank and eip < best_eip:
                best_rank, best_eip = rank, eip
            if rank < 2:
                node.q[j] = NEG_INF
            if st != SolverStatus.WIN:
                all_real_wins = False
                if st in _SELECTABLE:
                    kept += 1
            if eip > max_eip:
                max_eip = eip
        if kept != len(node.live):
            node.live = tuple(j for j, child in enumerate(node.child)
                              if child is None or child.status in _SELECTABLE)

        if best_rank < 2 or all_known and best_rank < 4:
            new_status, new_eip = _PROVES[best_rank], best_eip + 1
        elif all_known:
            new_status = SolverStatus.LOSS if all_real_wins else SolverStatus.TB_LOSS
            new_eip = max_eip + 1
        else:
            return False

        current = node.status
        if current == SolverStatus.UNKNOWN:
            self.nodes_solved += 1
        elif _OUTCOME_CLASS[current] is not _OUTCOME_CLASS[new_status]:
            raise SolverContradictionError(
                f"node {node.state} proven {current.name} re-derived as {new_status.name}"
            )
        elif is_real(current) and not is_real(new_status):
            return False  # keep the stronger real proof
        elif current == new_status and new_eip == node.end_in_ply:
            return False
        node.status = new_status
        node.end_in_ply = new_eip
        return True


def solved_move(node) -> int | None:
    """Best proven action at a solved node, or None.

    The proof's children qualify and one key ranks them, the first edge
    winning a tie: WIN plays the fastest mate (a LOSS child, or a TB_LOSS one
    under a TB_WIN, with minimal END_IN_PLY), LOSS the longest resistance
    (any known child, maximal END_IN_PLY), DRAW the drawing child with the
    most visits. None means nothing is proven here: the node is UNKNOWN, or
    no child carries the proof (an oracle probe's status).
    """
    status = node.status
    if status == SolverStatus.UNKNOWN:
        return None
    outcome = _OUTCOME_CLASS[status]
    kids = node.child
    if outcome is Outcome.WIN:
        proof = _REAL_LOSS if is_real(status) else _ANY_LOSS
        rank = lambda j: kids[j].end_in_ply
    elif outcome is Outcome.LOSS:
        proof = _OUTCOME_CLASS  # every known status
        rank = lambda j: -kids[j].end_in_ply
    else:
        proof = _ANY_DRAW
        rank = lambda j: -node.en[j]
    edges = [j for j, child in enumerate(kids) if child is not None and child.status in proof]
    return node.actions[min(edges, key=rank)] if edges else None
