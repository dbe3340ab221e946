"""Brute-force solvers used as ground truth for desk-scale games.

negamax_solve gives the exact game-theoretic outcome plus a distance with
fixed optimal-play semantics: winners end the game as fast as possible,
losers drag it out as long as possible, and draws report the shortest
drawing line. Distances are counted in plies to the terminal state.

nim_xor_outcome is an independent second oracle for Nim (Sprague-Grundy):
the mover wins under normal play exactly when the pile XOR is non-zero.
"""

from __future__ import annotations

import weakref
from typing import NamedTuple

from .envs import Outcome, StateKey


class SolvedEntry(NamedTuple):
    outcome: Outcome
    distance: int
    optimal_actions: tuple[int, ...]  # actions reaching the best outcome class


class OracleLimitError(RuntimeError):
    """Raised when a solve touches more states than the configured limit."""


_RANK = {Outcome.WIN: 2, Outcome.DRAW: 1, Outcome.LOSS: 0}


def negamax_solve(
    env,
    state,
    cache: dict[StateKey, SolvedEntry] | None = None,
    node_limit: int | None = None,
) -> SolvedEntry:
    """Solve a state exactly, memoized on the transposition key.

    The depth-first walk keeps its own stack, so a game's depth is not
    bounded by Python's recursion limit.
    """
    if cache is None:
        cache = {}
    stack: list = []  # frames: state, key, legal actions, solved children so far

    def visit(st) -> SolvedEntry | None:
        """Return st's entry if it is known or terminal, else push its frame."""
        key = env.state_key(st)
        hit = cache.get(key)
        if hit is not None:
            return hit
        if node_limit is not None and len(cache) >= node_limit:
            raise OracleLimitError(f"oracle node limit {node_limit} exceeded")
        terminal = env.terminal_value(st)
        if terminal is None:
            stack.append((st, key, env.legal_actions(st), []))
            return None
        entry = cache[key] = SolvedEntry(terminal, 0, ())
        return entry

    entry = visit(state)
    while stack:
        st, key, actions, children = stack[-1]
        if entry is not None:  # the child after actions[len(children)] is solved
            children.append(entry)
        if len(children) < len(actions):
            entry = visit(env.apply(st, actions[len(children)]))
            continue
        stack.pop()
        mine = [child.outcome.inverted for child in children]
        best = max(mine, key=_RANK.__getitem__)
        plies = [c.distance + 1 for c, o in zip(children, mine) if o is best]
        distance = max(plies) if best is Outcome.LOSS else min(plies)
        optimal = tuple(a for a, o in zip(actions, mine) if o is best)
        entry = cache[key] = SolvedEntry(best, distance, optimal)
    return entry


# env -> the negamax entries solved on it so far, shared by everything that
# solves on one env: the oracle evaluators a match builds per game and the
# balance check of its openings. Weak keys free it with the env. Kept apart
# from the solver's exhaustive tables, which must be complete.
_NEGAMAX_CACHES: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def negamax_cache(env) -> dict[StateKey, SolvedEntry]:
    """The env's shared negamax cache, for negamax_solve's cache argument."""
    return _NEGAMAX_CACHES.setdefault(env, {})


def solved_table(env, node_limit: int | None = None) -> dict[StateKey, SolvedEntry]:
    """Solve every state reachable from the initial position.

    Terminal states are included (distance 0, no actions). The result maps
    transposition keys to SolvedEntry, suitable as an exhaustive reference
    or as a synthetic tablebase when restricted by ply.
    """
    cache: dict[StateKey, SolvedEntry] = {}
    negamax_solve(env, env.initial_state(), cache=cache, node_limit=node_limit)
    # The memoized solve already visited exactly the reachable set: every
    # non-terminal expansion recursed into all children.
    return cache


def nim_xor_outcome(piles) -> Outcome:
    """Normal-play Nim value for the side to move, by the Sprague-Grundy theorem."""
    x = 0
    for p in piles:
        x ^= p
    return Outcome.WIN if x else Outcome.LOSS
