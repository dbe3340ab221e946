"""Disconnected exploration trajectories.

A small fraction of simulations branch off the best-known line at a
geometrically sampled depth instead of following PUCT from the root. The
branch point's subtree receives the backup; ancestors above it see nothing
at the time (their statistics would otherwise be polluted by deliberately
off-policy play). The branch node is left with more visits than the edge
into it, though, so in graph mode a later descent along that edge may take
the early stop, even when the node has one parent, and its correction
sample carries the branch's value above the branch point. Tree mode never
makes that check. Two branch flavors exist: epsilon-greedy expansion of the
first untried action, and forcing-move-first expansion for games that
define check-like actions.
"""

from __future__ import annotations

from math import ceil, log2

from .graph import NEG_INF, Node
from .solver import is_real

EPS_GREEDY = "eps_greedy"
FORCING = "forcing"


def sample_branch_depth(r2: float) -> int:
    """Geometric depth: P(d) = 2^-(d+1)."""
    if not 0.0 <= r2 < 1.0:
        raise ValueError(f"r2 must lie in [0, 1), got {r2}")
    return max(ceil(-log2(1.0 - r2)) - 1, 0)


def make_plan(engine, root: Node) -> Node:
    """The branch node: the most-visited line's node at a geometrically sampled depth.

    Ties keep the first edge in stored order, i.e. the higher prior. A line
    that ends sooner (at an unexpanded, terminal or proven node, a node with
    no visited edges, or an unresolved edge) gives its last node.
    """
    node = root
    for _ in range(sample_branch_depth(engine.rng.random())):
        if not node.expanded or is_real(node.status):
            break
        visited = [j for j, n in enumerate(node.en) if n and node.q[j] != NEG_INF]
        if not visited:
            break
        child = node.child[max(visited, key=node.en.__getitem__)]  # max keeps the first
        if child is None:
            break
        node = child
    return node


def execute_branch(engine, node: Node, kind: str) -> int | None:
    """The edge a `kind` simulation takes from the branch node, or None.

    Of the unpruned edges, in stored (falling prior) order: for FORCING the
    first untried forcing one, else the first untried one, else a uniform
    draw. None discards the plan, and the simulation descends from the root.
    Given an edge, the engine descends from the branch node along it, so the
    backpropagation never touches ancestors of the branch point.
    """
    if not node.expanded or is_real(node.status):
        return None
    live = [j for j, q in enumerate(node.q) if q != NEG_INF]
    untried = [j for j in live if node.en[j] == 0]
    if kind == FORCING:
        for j in untried:
            if engine.env.is_forcing(node.state, node.actions[j]):
                return j
    if untried:
        return untried[0]
    if live:
        return live[engine.rng.randrange(len(live))]
    return None
