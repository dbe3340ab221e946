"""A fixed reference search that measures how fast the machine runs right now.

The benchmark's host shares its cores: the same search ran 20 to 50% slower
for minutes at a time, while CPU time tracked wall time exactly, so the
slowdown is contention for the core, not descheduling. The kernel below is a
small PUCT graph search written for this benchmark. It shares no code with
mcgs but has the engine's shape (named-tuple states and keys, slotted nodes
with parallel edge lists, virtual loss, batched evaluation, early stops and
re-anchored backups), so contention slows it about as much as it slows the
engine. Timed next to the benchmark's work, it gives the factor that scales
that work's time to the speed the kernel has when the machine is quiet. A
change to mcgs cannot move the kernel, so it moves scaled times exactly as it
moves raw ones.
"""

from __future__ import annotations

import gc
import math
import random
import statistics
import time
from dataclasses import dataclass
from math import log, sqrt
from typing import NamedTuple

# The kernel's time on the sizing machine (Intel Xeon, 2 vCPUs, Python 3.11)
# when it is quiet: the unit that scaled times are expressed in.
NOMINAL_S = 0.030
CALLS = 3  # kernel calls per probe; the probe reports their median
PROBE_EVERY_S = 2.0  # longest stretch of timed work between two probes
_PILES = (3, 4, 5, 6)
_SIMULATIONS = 800
_BATCH = 8


class _Key(NamedTuple):
    position: int
    ply: int


class _State(NamedTuple):
    piles: tuple
    ply: int


class _Node:
    __slots__ = ("v", "n", "expanded", "terminal", "actions", "p", "q", "en", "evl",
                 "child", "in_degree")

    def __init__(self) -> None:
        self.v = 0.0
        self.n = 0
        self.expanded = False
        self.terminal = False
        self.actions: list = []
        self.p: list = []
        self.q: list = []
        self.en: list = []
        self.evl: list = []
        self.child: list = []
        self.in_degree = 0


@dataclass
class _Trajectory:
    pairs: list
    kind: str
    value: float = 0.0
    leaf: _Node | None = None
    state: _State | None = None


class _Nim:
    def __init__(self, piles: tuple) -> None:
        self.piles = piles
        self.stride = max(piles)
        rng = random.Random(12345)
        self.table = [[rng.getrandbits(64) for _ in range(self.stride + 1)] for _ in piles]

    def legal(self, state: _State) -> list:
        out = []
        for i, count in enumerate(state.piles):
            out.extend(range(i * self.stride, i * self.stride + count))
        return out

    def apply(self, state: _State, action: int) -> _State:
        piles = list(state.piles)
        piles[action // self.stride] -= action % self.stride + 1
        return _State(tuple(piles), state.ply + 1)

    def key(self, state: _State) -> _Key:
        h = 0
        for i, count in enumerate(state.piles):
            h ^= self.table[i][count]
        return _Key(h, state.ply)

    def evaluate(self, state: _State) -> tuple[float, list]:
        scores = []
        for action in self.legal(state):
            child = self.apply(state, action)
            x = 0
            for p in child.piles:
                x ^= p
            scores.append(1.0 if not any(child.piles) else (-0.9 if x else 0.9))
        x = 0
        for p in state.piles:
            x ^= p
        top = max(scores)
        weights = [math.exp((s - top) / 0.5) for s in scores]
        total = sum(weights)
        return (0.9 if x else -0.9), [w / total for w in weights]


_GAME = _Nim(_PILES)


def _select(node: _Node) -> int:
    en, evl, qs, ps = node.en, node.evl, node.q, node.p
    total = 0
    for j in range(len(en)):
        total += en[j] + evl[j]
    u = (log((total + 19653.0) / 19652.0) + 2.5) * sqrt(total)
    best, best_score = -1, -math.inf
    for j in range(len(en)):
        n, v, q = en[j], evl[j], qs[j]
        if v:
            m = n + v
            q = (n * q - v) / m
        else:
            m = n
        score = q + u * ps[j] / (1.0 + m)
        if score > best_score:
            best, best_score = j, score
    return best


def _expand(node: _Node, state: _State, value: float, priors: list) -> None:
    actions = _GAME.legal(state)
    order = sorted(range(len(actions)), key=lambda j: -priors[j])
    k = len(actions)
    node.actions = [actions[j] for j in order]
    node.p = [priors[j] for j in order]
    node.q = [-1.0] * k
    node.en = [0] * k
    node.evl = [0] * k
    node.child = [None] * k
    node.expanded = True
    node.v = value
    node.n = 1


def _descend(root: _Node, root_state: _State, nodes: dict) -> _Trajectory:
    node, state, pairs = root, root_state, []
    while True:
        i = _select(node)
        node.evl[i] += 1
        pairs.append((node, i))
        state = _GAME.apply(state, node.actions[i])
        child = node.child[i]
        if child is None:
            key = _GAME.key(state)
            child = nodes.get(key)
            if child is None:
                child = nodes[key] = _Node()
                if not any(state.piles):
                    child.terminal = True
                    child.v = -1.0
            node.child[i] = child
            child.in_degree += 1
        if child.terminal:
            return _Trajectory(pairs, "terminal", value=child.v)
        gap = -child.v - node.q[i]
        if child.n > node.en[i] and abs(gap) > 0.01:
            value = -child.v + node.en[i] * gap
            return _Trajectory(pairs, "early", value=max(-1.0, min(1.0, value)))
        if not child.expanded:
            return _Trajectory(pairs, "eval", leaf=child, state=state)
        node = child


def _backpropagate(pairs: list, value: float, early: bool) -> None:
    first, target = True, None
    for node, i in reversed(pairs):
        if first:
            first = False
            if not early:
                value = -value
        elif target is not None:
            value = max(-1.0, min(1.0, target + node.en[i] * (target - node.q[i])))
        else:
            value = -value
        n1 = node.en[i] + 1
        node.en[i] = n1
        node.q[i] += (value - node.q[i]) / n1
        node.evl[i] -= 1
        node.n += 1
        node.v += (value - node.v) / node.n
        target = -node.v if node.in_degree > 1 else None


def kernel() -> int:
    """One fixed search; returns the number of nodes it allocated."""
    root_state = _State(_PILES, 0)
    nodes = {_GAME.key(root_state): _Node()}
    root = nodes[_GAME.key(root_state)]
    _expand(root, root_state, *_GAME.evaluate(root_state))
    done = 1
    while done < _SIMULATIONS:
        pending = []
        while len(pending) < _BATCH and done + len(pending) < _SIMULATIONS:
            trajectory = _descend(root, root_state, nodes)
            if trajectory.kind == "eval":
                pending.append(trajectory)
            else:
                _backpropagate(trajectory.pairs, trajectory.value,
                               trajectory.kind == "early")
                done += 1
        for trajectory in pending:
            value, priors = _GAME.evaluate(trajectory.state)
            if not trajectory.leaf.expanded:
                _expand(trajectory.leaf, trajectory.state, value, priors)
            _backpropagate(trajectory.pairs, value, False)
            done += 1
    return len(nodes)


class SpeedProbe:
    """Kernel timings taken between the timed stretches of a run."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    def sample(self) -> float:
        """Time the kernel CALLS times; record and return the median seconds."""
        gc.collect()  # earlier garbage is not the machine's speed
        times = []
        for _ in range(CALLS):
            t0 = time.perf_counter()
            kernel()
            times.append(time.perf_counter() - t0)
        median = statistics.median(times)
        self.samples.append(median)
        return median


class ScaledTimer:
    """Times one stretch of work in raw and in scaled seconds.

    The work calls `pause()` after each item it times (a search) where a
    probe cannot disturb what is being measured; once PROBE_EVERY_S has
    passed, the probe runs there and its own time is left out. Each stretch
    between two probes is scaled by NOMINAL_S over the mean of those two
    probes.
    """

    def __init__(self, probe: SpeedProbe) -> None:
        self.probe = probe
        self.raw = 0.0
        self.scaled = 0.0
        self.stretches: list[tuple[int, float]] = []  # (items ended in it, scale)
        self._items = 0
        self._last = probe.samples[-1] if probe.samples else probe.sample()
        self._since = time.perf_counter()

    def _close(self, now: float) -> None:
        after = self.probe.sample()
        stretch = now - self._since
        scale = NOMINAL_S * 2.0 / (self._last + after)
        self.raw += stretch
        self.scaled += stretch * scale
        self.stretches.append((self._items, scale))
        self._items = 0
        self._last = after
        self._since = time.perf_counter()

    def pause(self) -> None:
        now = time.perf_counter()
        self._items += 1
        if now - self._since >= PROBE_EVERY_S:
            self._close(now)

    def stop(self) -> tuple[float, float]:
        """End the timing; return (raw seconds, scaled seconds)."""
        self._close(time.perf_counter())
        return self.raw, self.scaled

    def item_scales(self, n: int) -> list[float]:
        """The scale of each of n items timed in order, each followed by a pause.

        Work that never paused (one search) gets its overall scale.
        """
        scales = [scale for items, scale in self.stretches for _ in range(items)]
        if len(scales) != n:
            return [self.scaled / self.raw] * n
        return scales
