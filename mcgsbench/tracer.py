"""Per-layer tracing of the mcgs package, attached from outside the package.

The tracer replaces callables with timing wrappers: methods on the engine,
env, evaluator, graph store and solver instances, and the `explore`,
`move_selection` and `EvalQueue` globals that `mcgs.search` looks up at call
time. Each wrapped call records one span (name, parent span, start, end) in
compact in-memory arrays; self times are computed from those spans after the
repetition, so the wrappers themselves do no arithmetic. `restore()` undoes
every replacement, so the plain mode runs the untouched package.
"""

from __future__ import annotations

import statistics
import time
import types
from array import array

# Method -> span name. A span name's prefix is its layer. "search.loop"
# collects the `search` span and every `_descend` span: the descent and
# batching loop body outside any other wrapped call.
ENGINE_METHODS = {
    "search": "search.loop",
    "_descend": "search.loop",
    "_select_index": "search.select",
    "_expand": "search.expand",
    "_resolve_child": "search.resolve_child",
    "advance": "arena.advance",
}
ENV_METHODS = ("apply", "terminal_value", "state_key", "legal_actions", "is_forcing")
STORE_METHODS = {
    "lookup_or_insert": "graph.lookup",
    "link": "graph.link",
    "attach_edges": "graph.attach_edges",
    "memory_report": "graph.memory_report",
}
SOLVER_METHODS = ("mark_terminal", "note_link", "probe_expanded", "propagate")


class Tracer:
    """Span recorder plus the bookkeeping to install and remove wrappers."""

    def __init__(self) -> None:
        self._names: list[str] = []
        self._ids: dict[str, int] = {}
        self._undo: list = []
        self.span_name = array("H")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [-1]
        self.clear()

    # ----- span storage ----------------------------------------------------

    def clear(self) -> None:
        """Drop recorded spans and the side counters; keep the wrappers.

        The span arrays are emptied in place because the wrappers hold them.
        """
        for spans in (self.span_name, self.span_parent, self.span_start, self.span_end):
            del spans[:]
        del self._stack[1:]
        self.backprop_pairs = 0
        self.batch_fills: list[float] = []  # per non-empty flush: size / mini_batch_size
        self.branches_useful = 0
        self.stores: list = []
        self.solvers: list = []

    def _name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self._names)
            self._names.append(name)
        return nid

    def wrap(self, name: str, fn, observe=None):
        """Return a span-recording wrapper of `fn`.

        `observe(args, result)` runs after the call's span has ended, so its
        cost lands in the caller's self time, not in `name`'s.
        """
        nid = self._name_id(name)
        names = self.span_name
        parents = self.span_parent
        starts = self.span_start
        ends = self.span_end
        stack = self._stack
        clock = time.perf_counter

        if observe is None:
            def traced(*args, **kwargs):
                idx = len(starts)
                names.append(nid)
                parents.append(stack[-1])
                ends.append(0.0)
                stack.append(idx)
                starts.append(clock())
                try:
                    return fn(*args, **kwargs)
                finally:
                    ends[idx] = clock()
                    stack.pop()
            return traced

        def traced_observed(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            observe(args, result)
            return result
        return traced_observed

    def summary(self) -> dict:
        """Calls and self seconds per span name, plus the side counters.

        Spans are stored in start order, so every child has a larger index
        than its parent: one reverse pass sees all of a span's children
        before the span itself.
        """
        n = len(self.span_start)
        starts = self.span_start
        ends = self.span_end
        parents = self.span_parent
        names = self.span_name
        child_time = array("d", bytes(8 * n))
        self_time = [0.0] * len(self._names)
        calls = [0] * len(self._names)
        for i in range(n - 1, -1, -1):
            duration = ends[i] - starts[i]
            parent = parents[i]
            if parent >= 0:
                child_time[parent] += duration
            nid = names[i]
            self_time[nid] += duration - child_time[i]
            calls[nid] += 1
        return {
            "calls": dict(zip(self._names, calls)),
            "self_s": dict(zip(self._names, self_time)),
            "spans": n,
            "backprop_pairs": self.backprop_pairs,
            "batch_fills": list(self.batch_fills),
            "branches_useful": self.branches_useful,
            "nodes": sum(len(store.nodes) for store in self.stores),
            "nodes_solved": sum(solver.nodes_solved for solver in self.solvers),
        }

    # ----- installing wrappers ---------------------------------------------

    def _set_instance(self, obj, attr: str, name: str, observe=None) -> None:
        setattr(obj, attr, self.wrap(name, getattr(obj, attr), observe))
        self._undo.append((obj, attr, None, True))

    def _set_global(self, module, attr: str, value) -> None:
        self._undo.append((module, attr, getattr(module, attr), False))
        setattr(module, attr, value)

    def restore(self) -> None:
        """Remove every wrapper and global replacement, newest first."""
        while self._undo:
            obj, attr, original, instance = self._undo.pop()
            if instance:
                obj.__dict__.pop(attr, None)
            else:
                setattr(obj, attr, original)

    def instrument_env(self, env) -> None:
        """Wrap the env's methods on the instance itself.

        The heuristic evaluator dispatches on isinstance(env, ...) and calls
        the same instance, so its env calls count under `envs` exactly once.
        """
        for attr in ENV_METHODS:
            self._set_instance(env, attr, "envs." + attr)

    def instrument_evaluator(self, evaluator) -> None:
        self._set_instance(evaluator, "evaluate", "evaluators.evaluate")

    def instrument_engine(self, engine) -> None:
        for attr, name in ENGINE_METHODS.items():
            self._set_instance(engine, attr, name)
        self._set_instance(engine, "_backpropagate", "search.backprop",
                           observe=self._count_pairs)
        for attr, name in STORE_METHODS.items():
            self._set_instance(engine.store, attr, name)
        self.stores.append(engine.store)
        if engine.solver is not None:
            for attr in SOLVER_METHODS:
                self._set_instance(engine.solver, attr, "solver." + attr)
            self.solvers.append(engine.solver)

    def _count_pairs(self, args, result) -> None:
        self.backprop_pairs += len(args[0])

    def _count_branch(self, args, result) -> None:
        if result is not None:
            self.branches_useful += 1

    def install(self, mcgs) -> None:
        """Replace the package globals the engine and the arena look up.

        Engines, evaluators and envs built after this call (by the caller or
        inside play_match) come out instrumented.
        """
        search_mod = mcgs.search
        arena_mod = mcgs.arena
        tracer = self

        explore = search_mod.explore
        self._set_global(search_mod, "explore", types.SimpleNamespace(
            EPS_GREEDY=explore.EPS_GREEDY,
            FORCING=explore.FORCING,
            make_plan=self.wrap("explore.make_plan", explore.make_plan),
            execute_branch=self.wrap("explore.execute_branch", explore.execute_branch,
                                     observe=self._count_branch),
        ))
        moves = search_mod.move_selection
        self._set_global(search_mod, "move_selection", types.SimpleNamespace(
            select_move=self.wrap("move_selection.select_move", moves.select_move),
            principal_variation=self.wrap("move_selection.principal_variation",
                                          moves.principal_variation),
        ))

        queue_cls = search_mod.EvalQueue

        class TracedEvalQueue(queue_cls):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                size = self.mini_batch_size

                def count_flush(args, result):
                    if result:  # a flush with nothing pending evaluates nothing
                        tracer.batch_fills.append(len(result) / size)

                tracer._set_instance(self, "flush", "evaluators.flush", observe=count_flush)

        self._set_global(search_mod, "EvalQueue", TracedEvalQueue)

        engine_cls = search_mod.SearchEngine

        class TracedEngine(engine_cls):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                tracer.instrument_engine(self)

        self._set_global(search_mod, "SearchEngine", TracedEngine)
        self._set_global(arena_mod, "SearchEngine", TracedEngine)

        make_env = arena_mod.make_env
        make_evaluator = arena_mod.make_evaluator

        def traced_make_env(*args, **kwargs):
            env = make_env(*args, **kwargs)
            tracer.instrument_env(env)
            return env

        def traced_make_evaluator(*args, **kwargs):
            evaluator = make_evaluator(*args, **kwargs)
            tracer.instrument_evaluator(evaluator)
            return evaluator

        self._set_global(arena_mod, "make_env", traced_make_env)
        self._set_global(arena_mod, "make_evaluator", traced_make_evaluator)
        self._set_global(arena_mod, "play_game", self.wrap("arena.play_game",
                                                           arena_mod.play_game))


def wrapper_cost_ns(calls: int = 20_000, rounds: int = 5) -> float:
    """Median cost of one traced call on an empty function, net of the call.

    Shares of a traced run can be read net of tracing by subtracting
    calls x this cost from the layer's self time.
    """
    tracer = Tracer()

    def empty():
        return None

    traced = tracer.wrap("empty", empty)
    clock = time.perf_counter
    samples = []
    for _ in range(rounds):
        tracer.clear()
        t0 = clock()
        for _ in range(calls):
            empty()
        bare = clock() - t0
        t0 = clock()
        for _ in range(calls):
            traced()
        wrapped = clock() - t0
        samples.append((wrapped - bare) / calls * 1e9)
    return statistics.median(samples)
