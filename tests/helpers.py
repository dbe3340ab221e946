"""Builders for synthetic graph fixtures, the engine invariant check, and a
reachable-state enumeration that shares no code with the oracle's solve.
"""

from collections import deque

from mcgs.graph import NEG_INF, GraphStore
from mcgs.oracle import negamax_solve
from mcgs.solver import (
    STATUS_VALUE,
    SolverStatus,
    is_real,
    status_for_outcome,
)

_serial = [7000]


def fresh_key(ply: int = 0) -> tuple[int, int]:
    """A store key no env state equals: a fresh serial number and a ply."""
    _serial[0] += 1
    return _serial[0], ply


def expanded_node(store: GraphStore, actions, priors=None, ply: int = 0,
                  q_init: float = -1.0):
    """A standalone expanded node with the given edges, no children resolved."""
    node, _ = store.lookup_or_insert(fresh_key(ply))
    k = len(actions)
    if priors is None:
        priors = [1.0 / k] * k
    store.attach_edges(node, list(actions), list(priors), q_init)
    return node


def attach_child(store: GraphStore, parent, idx: int,
                 status=SolverStatus.UNKNOWN, eip: int = 0, ply: int = 1):
    """Resolve one parent edge onto a fresh child with a preset status."""
    child, _ = store.lookup_or_insert(fresh_key(ply))
    child.status = status
    child.end_in_ply = eip
    store.link(parent, idx, child, was_existing=False)
    return child


class FixedEvaluator:
    """Returns the same evaluation for every state, valid or not."""

    def __init__(self, evaluation, name: str = "fixed") -> None:
        self.evaluation = evaluation
        self.name = name

    def evaluate(self, state, actions):
        return self.evaluation


def record_solves(monkeypatch, *modules) -> list:
    """Wrap negamax_solve where each module calls it. Returns the list that
    collects the key of every state a call solved anew into its cache."""
    solved = []

    def solve(env, state, cache=None, node_limit=None):
        cache = {} if cache is None else cache
        before = set(cache)
        entry = negamax_solve(env, state, cache, node_limit)
        solved.extend(cache.keys() - before)
        return entry

    for module in modules:
        monkeypatch.setattr(module + ".negamax_solve", solve)
    return solved


_NEGAMAX_CACHES: dict[str, dict] = {}  # game id -> solved entries; pure, so shared


def check_invariants(engine) -> None:
    """Assert the bookkeeping invariants of every node in an engine's store.

    Meant to run between searches, when no simulation is in flight. With
    the solver on, every node must be quiescent: re-deriving it from its
    children changes nothing, so no propagation was cut short. With
    transpositions on, every node is the one its state's key finds.
    """
    env = engine.env
    solver_on = engine.solver is not None
    vmin, vmax = -1.0, 1.0
    negamax_cache = _NEGAMAX_CACHES.setdefault(env.game_id, {})
    incoming: dict[int, int] = {}
    store = engine.store
    nodes = list(store.nodes.values())
    for node in nodes:
        if store.transpositions:
            assert store.nodes[env.state_key(node.state)] is node, node
        outcome = env.terminal_value(node.state)
        terminal = not node.expanded and is_real(node.status)
        assert terminal == (outcome is not None), node
        if outcome is not None:  # stamped with the solver off too
            assert node.v == outcome.score, node
            assert node.status == status_for_outcome(outcome), node
        assert vmin <= node.v <= vmax, node
        assert node.edge_total == sum(node.en) + sum(node.evl), node
        # live: the edges selection may pick, derived here from q and the
        # child statuses rather than kept, in ascending order.
        settled = [solver_on and child is not None and is_real(child.status)
                   for child in node.child]
        expected_live = [i for i, q in enumerate(node.q) if q != NEG_INF and not settled[i]]
        assert list(node.live) == expected_live, f"live {list(node.live)} of {node}"
        for i, child in enumerate(node.child):
            assert node.evl[i] == 0, f"virtual loss left in flight on {node}"
            pruned = node.q[i] == NEG_INF
            assert pruned or vmin <= node.q[i] <= vmax, f"edge {i} of {node}: q={node.q[i]}"
            if child is None:
                assert not pruned, f"unresolved edge {i} of {node} is pruned"
                continue
            incoming[id(child)] = incoming.get(id(child), 0) + 1
            assert node.en[i] <= child.n, f"edge {i} of {node} outvisits {child}"
            loss_like = solver_on and child.status in (SolverStatus.LOSS, SolverStatus.TB_LOSS)
            assert pruned == loss_like, f"edge {i} of {node}: pruned={pruned}, child {child}"
        if solver_on:
            before = (node.status, node.end_in_ply, list(node.q), list(node.p), node.live)
            assert not engine.solver._recompute(node), f"{node} is not quiescent"
            assert (node.status, node.end_in_ply, node.q, node.p, node.live) == before, node
        if node.status != SolverStatus.UNKNOWN:
            entry = negamax_solve(env, node.state, cache=negamax_cache)
            assert STATUS_VALUE[node.status] == entry.outcome.score, (node, entry)
            if is_real(node.status):
                # A partial proof may be longer than the optimal line, never shorter.
                assert node.end_in_ply >= entry.distance, (node, entry)
                assert (node.end_in_ply == 0) == (not node.expanded), node
    for node in nodes:
        assert len(node.parents) == incoming.get(id(node), 0), node


def reachable_states(env) -> dict:
    """Enumerate all states reachable in legal play, keyed by transposition key.

    A breadth-first walk that shares no code with `solved_table`, so the two
    can be checked against each other.
    """
    initial = env.initial_state()
    seen = {env.state_key(initial): initial}
    queue = deque([initial])
    while queue:
        state = queue.popleft()
        if env.terminal_value(state) is not None:
            continue
        for action in env.legal_actions(state):
            child = env.apply(state, action)
            key = env.state_key(child)
            if key not in seen:
                seen[key] = child
                queue.append(child)
    return seen
