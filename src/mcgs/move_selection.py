"""Final move choice at the root.

Pipeline: visit counts -> temperature -> Q-gap boost -> argmax or sample.
A solved root bypasses all of it and plays the proven line (shortest win,
longest loss, most-explored draw).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .graph import NEG_INF, Node
from .solver import solved_move


@dataclass
class MovePolicy:
    action: int
    policy: list[float] = field(default_factory=list)  # over the root's stored edge order
    source: str = "visits"  # what chose the move: solver, q_boost, visits or prior


def _visit_order(node: Node) -> list[int]:
    """Live visited edges, most visits first; ties by higher Q, then lower action id."""
    en = node.en
    qs = node.q
    actions = node.actions
    order = [j for j in range(len(en)) if en[j] and qs[j] != NEG_INF]
    order.sort(key=lambda j: (-en[j], -qs[j], actions[j]))
    return order


def visit_policy(node: Node, tau: float) -> list[float]:
    """Distribution proportional to N^(1/tau); tau=0 is the visits argmax.

    Pruned edges get probability 0 regardless of any visits they collected
    before being pruned. Argmax ties prefer higher Q, then lower action id.
    """
    order = _visit_order(node)
    if not order:
        raise ValueError("visit_policy on a root with no visited children")
    out = [0.0] * len(node.en)
    if tau == 0.0:
        out[order[0]] = 1.0
        return out
    # Visits are scaled by the largest one first: N^(1/tau) itself overflows
    # a float for small tau.
    inv = 1.0 / tau
    top = node.en[order[0]]
    total = 0.0
    for j in order:
        w = (node.en[j] / top) ** inv
        out[j] = w
        total += w
    return [w / total for w in out]


def q_boost(node: Node, policy: list[float], q_weight: float) -> tuple[list[float], bool]:
    """Shift mass to the runner-up when its Q beats the favorite's.

    Applied at most once, to the original (most-visited, second-most-visited)
    pair, then renormalized.
    """
    order = _visit_order(node)
    if len(order) < 2:
        return policy, False
    alpha, beta = order[0], order[1]
    q_delta = node.q[beta] - node.q[alpha]
    if q_delta <= 0.0:
        return policy, False
    boosted = list(policy)
    boosted[beta] += q_weight * q_delta * boosted[alpha]
    total = sum(boosted)
    return [p / total for p in boosted], True


def _argmax_policy(node: Node, policy: list[float]) -> int:
    """Ties fall to more visits, then higher Q, then lower action id."""
    en = node.en
    qs = node.q
    actions = node.actions
    return max(range(len(policy)), key=lambda j: (policy[j], en[j], qs[j], -actions[j]))


def _prior_policy(node: Node) -> list[float]:
    live = [p if node.q[j] != NEG_INF else 0.0 for j, p in enumerate(node.p)]
    total = sum(live)
    if total <= 0.0:
        k = sum(1 for j in range(len(live)) if node.q[j] != NEG_INF)
        if k == 0:
            return [1.0 / len(live)] * len(live)
        return [1.0 / k if node.q[j] != NEG_INF else 0.0 for j in range(len(live))]
    return [p / total for p in live]


def select_move(node: Node, config, rng) -> MovePolicy:
    if not node.expanded:
        raise ValueError("select_move on an unexpanded node")
    action = solved_move(node)
    if action is not None:
        policy = [0.0] * len(node.actions)
        policy[node.actions.index(action)] = 1.0
        return MovePolicy(action, policy, "solver")

    if not _visit_order(node):
        policy, source = _prior_policy(node), "prior"
    else:
        policy, source = visit_policy(node, config.tau), "visits"
        if config.q_boost:
            policy, boosted = q_boost(node, policy, config.q_weight)
            if boosted:
                source = "q_boost"

    if config.tau == 0.0:
        idx = _argmax_policy(node, policy)
    else:
        r = rng.random()
        acc = 0.0
        for j, p in enumerate(policy):
            acc += p
            if r < acc:
                idx = j
                break
        else:
            # Rounding can leave the policy summing to r or less: fall back
            # to the last edge with mass, never to a pruned one.
            idx = max(j for j, p in enumerate(policy) if p > 0.0)
    return MovePolicy(node.actions[idx], policy, source)


def principal_variation(node: Node, limit: int = 64) -> list[int]:
    """Most-visited line from the root, switching to proven lines when known."""
    out: list[int] = []
    while len(out) < limit and node.expanded:
        action = solved_move(node)
        idx = -1 if action is None else node.actions.index(action)
        if idx < 0:
            en = node.en
            qs = node.q
            for j in range(len(en)):
                if qs[j] == NEG_INF or en[j] == 0:
                    continue
                if idx < 0 or en[j] > en[idx] or (en[j] == en[idx] and qs[j] > qs[idx]):
                    idx = j
            if idx < 0:
                break
        out.append(node.actions[idx])
        child = node.child[idx]
        if child is None:
            break
        node = child
    return out
