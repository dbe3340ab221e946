"""Terminal solver: propagate proven WIN/LOSS/DRAW through the search DAG.

Statuses move monotonically from UNKNOWN to solved and never back. A node
becomes WIN the moment one child is proven LOSS; it becomes LOSS or DRAW only
once all children are known. END_IN_PLY tracks the proven line length: wins
take the shortest proven mate, losses the longest resistance. Because the
first proven mate is not always the shortest one, END_IN_PLY of WIN nodes may
refine downward as further LOSS children are proven; statuses themselves are
frozen. Edges into proven-LOSS children are pruned (Q = -inf, prior = 0) so
simulations stop re-entering refuted lines.

TB_* statuses come from an endgame oracle probe and behave like their real
counterparts for propagation and pruning, except that search keeps flowing
through TB nodes (their evaluator values still guide selection toward an
actual terminal) and a TB status may upgrade to the matching real status.
"""

from __future__ import annotations

import enum
from collections import deque

from .envs import Outcome
from .oracle import solved_table

NEG_INF = float("-inf")


class SolverStatus(enum.IntEnum):
    UNKNOWN = 0
    WIN = 1
    LOSS = 2
    DRAW = 3
    TB_WIN = 4
    TB_LOSS = 5
    TB_DRAW = 6


_REAL_FOR_OUTCOME = {
    Outcome.WIN: SolverStatus.WIN,
    Outcome.LOSS: SolverStatus.LOSS,
    Outcome.DRAW: SolverStatus.DRAW,
}

_TB_FOR_OUTCOME = {
    Outcome.WIN: SolverStatus.TB_WIN,
    Outcome.LOSS: SolverStatus.TB_LOSS,
    Outcome.DRAW: SolverStatus.TB_DRAW,
}

# Scalar value of a settled node, from its own perspective. UNKNOWN is only
# read for a node whose every edge is pruned: each child is a proven loss for
# the opponent, so the node itself is a win.
STATUS_VALUE = {
    SolverStatus.UNKNOWN: 1.0,
    SolverStatus.WIN: 1.0,
    SolverStatus.LOSS: -1.0,
    SolverStatus.DRAW: 0.0,
    SolverStatus.TB_WIN: 1.0,
    SolverStatus.TB_LOSS: -1.0,
    SolverStatus.TB_DRAW: 0.0,
}

_OUTCOME_CLASS = {
    SolverStatus.WIN: Outcome.WIN,
    SolverStatus.LOSS: Outcome.LOSS,
    SolverStatus.DRAW: Outcome.DRAW,
    SolverStatus.TB_WIN: Outcome.WIN,
    SolverStatus.TB_LOSS: Outcome.LOSS,
    SolverStatus.TB_DRAW: Outcome.DRAW,
}


def status_for_outcome(outcome: Outcome) -> SolverStatus:
    """Real solved status matching a terminal outcome."""
    return _REAL_FOR_OUTCOME[outcome]


def is_solved(status) -> bool:
    return status != SolverStatus.UNKNOWN


def is_real(status) -> bool:
    return SolverStatus.UNKNOWN < status < SolverStatus.TB_WIN


def is_loss_like(status) -> bool:
    return status == SolverStatus.LOSS or status == SolverStatus.TB_LOSS


class SolverContradictionError(RuntimeError):
    """A propagation step tried to change a node's proven outcome class."""


class NimXorOracle:
    """Endgame oracle for Nim built on the Sprague-Grundy XOR rule."""

    def __init__(self, env) -> None:
        self.env = env

    def probe(self, state) -> SolverStatus | None:
        x = 0
        for p in state.piles:
            x ^= p
        return SolverStatus.TB_WIN if x else SolverStatus.TB_LOSS


class TableOracle:
    """Synthetic tablebase: the exhaustive solve restricted to ply >= min_ply."""

    def __init__(self, env, min_ply: int = 0) -> None:
        self.env = env
        self.min_ply = min_ply
        self.table = solved_table(env)

    def probe(self, state) -> SolverStatus | None:
        if state.ply < self.min_ply:
            return None
        entry = self.table.get(self.env.state_key(state))
        if entry is None:
            return None
        return _TB_FOR_OUTCOME[entry.outcome]


def make_endgame_oracle(spec: str | None, env):
    """Build an endgame oracle from its id: "none", "nim-xor", "table:<game>[:<min_ply>]"."""
    if spec is None or spec.strip().lower() in ("", "none"):
        return None
    parts = spec.strip().lower().split(":")
    if parts[0] == "nim-xor":
        return NimXorOracle(env)
    if parts[0] == "table":
        min_ply = int(parts[2]) if len(parts) > 2 else 0
        return TableOracle(env, min_ply=min_ply)
    raise ValueError(f"unknown endgame oracle {spec!r}")


class TerminalSolver:
    """Solved-status bookkeeping over a graph store's nodes.

    The engine reports link and expansion events; the solver maintains
    status, END_IN_PLY, unknown_children_count, pruning, and propagation
    to parents via the nodes' back-references.
    """

    def __init__(self, endgame_oracle=None) -> None:
        self.endgame_oracle = endgame_oracle
        self.nodes_solved = 0

    def mark_terminal(self, node, outcome: Outcome) -> None:
        """Stamp a freshly created terminal node with its proven status."""
        node.status = _REAL_FOR_OUTCOME[outcome]
        node.end_in_ply = 0
        self.nodes_solved += 1

    def note_link(self, parent, idx, child) -> None:
        """Account for an edge that just resolved onto a solved child."""
        if child.status == SolverStatus.UNKNOWN:
            return
        parent.unknown_children_count -= 1
        if is_loss_like(child.status):
            prune_edge(parent, idx)
        self.propagate(parent)

    def probe_expanded(self, node, state) -> None:
        """Probe the endgame oracle for a node that just expanded."""
        if self.endgame_oracle is None or node.status != SolverStatus.UNKNOWN:
            return
        status = self.endgame_oracle.probe(state)
        if status is None:
            return
        node.status = status
        node.end_in_ply = 0
        self.nodes_solved += 1
        self._notify_parents_solved(node)

    def propagate(self, seed) -> None:
        """Recompute statuses up the DAG from a seed node until quiescent."""
        queue = deque([seed])
        while queue:
            node = queue.popleft()
            event = self._recompute(node)
            if event == "none":
                continue
            if event == "solved":
                self._notify_parents_solved(node, queue)
            else:  # upgraded or refined: parents re-derive, counters unchanged
                for parent, idx in node.parents:
                    if is_loss_like(node.status):
                        prune_edge(parent, idx)
                    queue.append(parent)

    def _notify_parents_solved(self, node, queue=None) -> None:
        loss = is_loss_like(node.status)
        for parent, idx in node.parents:
            parent.unknown_children_count -= 1
            if loss:
                prune_edge(parent, idx)
            if queue is None:
                self.propagate(parent)
            else:
                queue.append(parent)

    def _recompute(self, node) -> str:
        """Re-derive one node's status from its children.

        Returns "none", "solved" (UNKNOWN -> solved), "upgraded" (TB -> real),
        or "refined" (END_IN_PLY changed).
        """
        if node.is_terminal or not node.expanded:
            return "none"
        children = node.child
        min_loss = min_tb_loss = None
        min_draw = min_tb_draw = None
        max_any = 0
        all_real_wins = True
        for child in children:
            if child is None:
                continue
            st = child.status
            eip = child.end_in_ply
            if st == SolverStatus.LOSS:
                if min_loss is None or eip < min_loss:
                    min_loss = eip
            elif st == SolverStatus.TB_LOSS:
                if min_tb_loss is None or eip < min_tb_loss:
                    min_tb_loss = eip
            elif st == SolverStatus.DRAW:
                if min_draw is None or eip < min_draw:
                    min_draw = eip
            elif st == SolverStatus.TB_DRAW:
                if min_tb_draw is None or eip < min_tb_draw:
                    min_tb_draw = eip
            if st != SolverStatus.WIN:
                all_real_wins = False
            if eip > max_any:
                max_any = eip

        if min_loss is not None:
            new_status, new_eip = SolverStatus.WIN, min_loss + 1
        elif min_tb_loss is not None:
            new_status, new_eip = SolverStatus.TB_WIN, min_tb_loss + 1
        elif node.unknown_children_count == 0:
            if min_draw is not None:
                new_status, new_eip = SolverStatus.DRAW, min_draw + 1
            elif min_tb_draw is not None:
                new_status, new_eip = SolverStatus.TB_DRAW, min_tb_draw + 1
            elif all_real_wins:
                new_status, new_eip = SolverStatus.LOSS, max_any + 1
            else:
                new_status, new_eip = SolverStatus.TB_LOSS, max_any + 1
        else:
            return "none"

        current = node.status
        if current == SolverStatus.UNKNOWN:
            node.status = new_status
            node.end_in_ply = new_eip
            self.nodes_solved += 1
            return "solved"
        if _OUTCOME_CLASS[current] is not _OUTCOME_CLASS[new_status]:
            raise SolverContradictionError(
                f"node {node.key} proven {current.name} re-derived as {new_status.name}"
            )
        if is_real(new_status) and not is_real(current):
            node.status = new_status
            node.end_in_ply = new_eip
            return "upgraded"
        if is_real(current) and not is_real(new_status):
            return "none"  # keep the stronger real proof
        if new_eip != node.end_in_ply:
            node.end_in_ply = new_eip
            return "refined"
        return "none"


def prune_edge(node, idx: int) -> None:
    """Block simulation access to a proven-LOSS child: Q = -inf, prior = 0."""
    node.q[idx] = NEG_INF
    node.p[idx] = 0.0


def solved_move(node) -> int:
    """Best proven action at a solved node.

    WIN picks the fastest proven mate (LOSS child with minimal END_IN_PLY),
    LOSS the longest resistance (maximal END_IN_PLY child), DRAW the drawing
    child with the most visits. Raises ValueError on UNKNOWN nodes and
    LookupError when no child carries the proof (probe-only solves).
    """
    status = node.status
    if status == SolverStatus.UNKNOWN:
        raise ValueError("solved_move called on an unsolved node")
    outcome = _OUTCOME_CLASS[status]
    allow_tb = not is_real(status)
    best_idx = -1
    if outcome is Outcome.WIN:
        best_eip = None
        for i, child in enumerate(node.child):
            if child is None:
                continue
            st = child.status
            if st == SolverStatus.LOSS or (allow_tb and st == SolverStatus.TB_LOSS):
                if best_eip is None or child.end_in_ply < best_eip:
                    best_eip = child.end_in_ply
                    best_idx = i
    elif outcome is Outcome.LOSS:
        best_eip = -1
        for i, child in enumerate(node.child):
            if child is None:
                continue
            if is_solved(child.status) and child.end_in_ply > best_eip:
                best_eip = child.end_in_ply
                best_idx = i
    else:
        best_visits = -1
        for i, child in enumerate(node.child):
            if child is None:
                continue
            st = child.status
            if st in (SolverStatus.DRAW, SolverStatus.TB_DRAW) and node.en[i] > best_visits:
                best_visits = node.en[i]
                best_idx = i
    if best_idx < 0:
        raise LookupError("solved node has no child carrying the proof")
    return node.actions[best_idx]
