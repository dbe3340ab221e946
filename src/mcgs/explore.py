"""Disconnected exploration trajectories.

A small fraction of simulations branch off the best-known line at a
geometrically sampled depth instead of following PUCT from the root. The
branch point's subtree receives the backup; ancestors above it see nothing
(their statistics would otherwise be polluted by deliberately off-policy
play). Two branch flavors exist: epsilon-greedy expansion of the first
untried action, and forcing-move-first expansion for games that define
check-like actions.
"""

from __future__ import annotations

from math import ceil, log2

from .graph import NEG_INF, Node
from .solver import is_real

EPS_GREEDY = "eps_greedy"
FORCING = "forcing"


def sample_branch_depth(r2: float, max_depth: int | None = None) -> int:
    """Geometric depth: P(d) = 2^-(d+1), clamped to the best-path length."""
    if not 0.0 <= r2 < 1.0:
        raise ValueError(f"r2 must lie in [0, 1), got {r2}")
    depth = ceil(-log2(1.0 - r2)) - 1
    if depth < 0:
        depth = 0
    if max_depth is not None and depth > max_depth:
        depth = max_depth
    return depth


def best_path(root: Node) -> tuple[list[Node], list[int]]:
    """Follow the most-visited action from the root while one exists.

    Ties keep the first edge in stored order, i.e. the higher prior. The walk
    stops at unexpanded, terminal, or proven nodes, and at nodes with no
    visited edges.
    """
    nodes = [root]
    actions: list[int] = []
    node = root
    while node.expanded and not is_real(node.status):
        en = node.en
        qs = node.q
        best = -1
        best_n = 0
        for j in range(len(en)):
            if qs[j] == NEG_INF:
                continue
            if en[j] > best_n:
                best_n = en[j]
                best = j
        if best < 0:
            break
        child = node.child[best]
        if child is None:
            break
        actions.append(node.actions[best])
        nodes.append(child)
        node = child
    return nodes, actions


def make_plan(engine, root: Node) -> Node:
    """The branch node: the best path's node at a geometrically sampled depth."""
    nodes, actions = best_path(root)
    return nodes[sample_branch_depth(engine.rng.random(), max_depth=len(actions))]


def execute_branch(engine, node: Node, kind: str) -> int | None:
    """The edge a `kind` simulation takes from the branch node, or None.

    None discards the plan, and the simulation descends from the root. Given
    an edge, the engine descends from the branch node along it, so the
    backpropagation never touches ancestors of the branch point.
    """
    if not node.expanded or is_real(node.status):
        return None
    if kind == EPS_GREEDY:
        idx = _first_unexplored(node)
    else:
        idx = _first_forcing(engine, node)
    if idx is None:
        idx = _uniform_fallback(engine, node)
    return idx  # None when every edge is pruned


def _first_unexplored(node: Node) -> int | None:
    # Stored edge order is descending prior, so a linear scan expands in
    # exactly the order the evaluator ranked the moves.
    en = node.en
    qs = node.q
    for j in range(len(en)):
        if en[j] == 0 and qs[j] != NEG_INF:
            return j
    return None


def _first_forcing(engine, node: Node) -> int | None:
    en = node.en
    qs = node.q
    actions = node.actions
    env = engine.env
    for j in range(len(en)):
        if en[j] == 0 and qs[j] != NEG_INF and env.is_forcing(node.state, actions[j]):
            return j
    return _first_unexplored(node)


def _uniform_fallback(engine, node: Node) -> int | None:
    candidates = [j for j in range(len(node.en)) if node.q[j] != NEG_INF]
    if not candidates:
        return None
    return candidates[engine.rng.randrange(len(candidates))]
