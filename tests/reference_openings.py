"""The plain rejection sampler that `mcgs.arena.generate_openings` must equal.

Each attempt replays a random line from the start, asking the env at every
ply; the balance check runs after the draw, replaying each kept line once
more. It shares nothing with `mcgs.arena`: it uses only the env,
`negamax_solve` and the env's shared negamax cache.
"""

from __future__ import annotations

import random

from mcgs.envs import Outcome
from mcgs.oracle import negamax_cache, negamax_solve


def reference_openings(env, plies: int, count: int, rng: random.Random) -> list[tuple[int, ...]]:
    cache = negamax_cache(env)
    seen: set[tuple[int, ...]] = set()
    openings: list[tuple[int, ...]] = []
    attempts = 0
    limit = max(200, count * 400)
    while len(openings) < count * 4 and attempts < limit:
        attempts += 1
        state = env.initial_state()
        line: list[int] = []
        for _ in range(plies):
            if env.terminal_value(state) is not None:
                break
            actions = env.legal_actions(state)
            action = actions[rng.randrange(len(actions))]
            line.append(action)
            state = env.apply(state, action)
        if env.terminal_value(state) is not None:
            continue
        key = tuple(line)
        if key in seen:
            continue
        seen.add(key)
        openings.append(key)
    balanced = [line for line in openings
                if _opening_outcome(env, line, cache) is Outcome.DRAW]
    pool = balanced if balanced else openings
    if not pool:
        raise ValueError("could not generate any openings")
    return [pool[i % len(pool)] for i in range(count)]


def _opening_outcome(env, line, cache) -> Outcome:
    state = env.initial_state()
    for action in line:
        state = env.apply(state, action)
    return negamax_solve(env, state, cache).outcome
