"""PUCT search on a transposition graph with batched evaluation.

The engine runs AlphaZero-style PUCT selection over a DAG instead of a tree.
Nodes reached through different move orders share statistics; the price is
that an edge's Q and its child's value can drift apart (a second parent keeps
improving the child while the first parent's edge sees nothing). Two
mechanisms reconcile them:

- early stop: descending an edge whose child is better informed than the edge
  itself (child visits exceed edge visits), with a value gap above q_epsilon,
  terminates the simulation and backpropagates a correction sample chosen so
  the edge's moving average lands exactly on the child's negated value. No
  evaluator call is spent.
- backprop correction: while backing up through a node with several parents,
  the value handed further up is re-anchored to that node's negated value
  (qTarget) instead of the raw leaf sample.

A simulation is backed up where it ends. One that ends on a terminal or
proven node, or in an early stop, is backed up on the spot and never
occupies an evaluator slot. One that ends on a new leaf waits in the
EvalQueue under virtual loss: a round gathers up to mini_batch_size such
leaves, then its one flush hands them back to be expanded and backpropagated
in submission order. An evaluations budget counts every leaf of a flush.
Each search() counts what it spends in a fresh SearchStats record, the one
place a per-search count is kept: neither the eval queue nor the graph
store, which outlives it, keeps one.

_expand is the one place that calls the evaluator, for the root and for
every flushed leaf alike, and an engine turns each distinct state into an
expansion once there: the evaluator's value plus the checked, tempered,
prior-sorted actions and priors. In graph mode the store holds one node per
state; in tree mode every later node of an expanded state, a second leaf of
the same flush among them, reuses the first one's expansion, sharing its
actions and priors lists. So the evaluator must be a pure function of the
state, and the root's Dirichlet noise, the one change to a node's priors
after expansion, rebinds node.p instead of writing into it.

Module state: _U_SCALES holds one exploration-scale table per
(c_puct_base, c_puct_init), shared by every engine with those two floats.
An entry is a pure function of its index, so sharing changes no result; it
spares the many short-lived engines of a match from rebuilding the table.
"""

from __future__ import annotations

import random
import time
from dataclasses import asdict, dataclass, field, fields
from math import inf, isfinite, log, sqrt

from .evaluators import apply_node_temperature
from .graph import NEG_INF, GraphStore, Node, StoreFullError, update_node_value
from .solver import (
    STATUS_VALUE,
    TerminalSolver,
    is_real,
    make_endgame_oracle,
    status_for_outcome,
)
from . import explore
from . import move_selection

BUDGET_KINDS = ("simulations", "evaluations", "milliseconds")

# The SearchConfig toggles of the paper's enhancements; all off is tree-PUCT.
ENHANCEMENTS = ("transpositions", "terminal_solver", "eps_greedy", "check_enhance", "q_boost")

# A round backs up at most this many evaluator-free trajectories per batch slot.
TERMINAL_CAP_FACTOR = 4

# An evaluations-budget search stops after this many evaluator-free rounds.
STALL_ROUNDS = 16

# (c_puct_base, c_puct_init) -> table t -> cpuct(t) * sqrt(t), grown on demand
_U_SCALES: dict[tuple[float, float], list[float]] = {}


@dataclass
class SearchConfig:
    """Engine settings. Numeric defaults follow the reference configuration.

    Note the near-namesakes: eps_greedy / check_enhance are feature toggles,
    epsilon_greedy / epsilon_checks are the per-simulation branch
    probabilities those features use.
    """

    # PUCT
    c_puct_init: float = 2.5
    c_puct_base: float = 19652.0
    q_init: float = -1.0
    # graph corrections
    q_epsilon: float = 0.01
    # exploration
    epsilon_greedy: float = 0.01
    epsilon_checks: float = 0.01
    dirichlet_epsilon: float = 0.0
    dirichlet_alpha: float = 0.3
    # evaluation shaping
    node_tau: float = 1.7
    # move selection
    tau: float = 0.0
    q_weight: float = 2.0
    # batching
    mini_batch_size: int = 16
    virtual_loss: float = 1.0
    # budget
    budget: str = "simulations"
    budget_amount: int = 800
    # feature toggles
    transpositions: bool = True
    terminal_solver: bool = True
    eps_greedy: bool = True
    check_enhance: bool = True
    q_boost: bool = True
    # plumbing
    stop_when_solved: bool = True
    capacity: int = 2_000_000
    seed: int = 0
    endgame_oracle: str = "none"

    def validate(self) -> None:
        check_fields(self)
        if self.budget not in BUDGET_KINDS:
            raise ValueError(f"budget must be one of {BUDGET_KINDS}, got {self.budget!r}")
        for key in ("budget_amount", "mini_batch_size", "capacity"):
            if getattr(self, key) < 1:
                raise ValueError(f"{key} must be >= 1")
        for key in ("c_puct_base", "node_tau", "dirichlet_alpha"):
            if getattr(self, key) <= 0:
                raise ValueError(f"{key} must be > 0")
        for key in ("tau", "q_weight", "q_epsilon", "virtual_loss"):
            if getattr(self, key) < 0:
                raise ValueError(f"{key} must be >= 0")
        for key in ("epsilon_greedy", "epsilon_checks", "dirichlet_epsilon"):
            if not 0.0 <= getattr(self, key) <= 1.0:
                raise ValueError(f"{key} must lie in [0, 1]")
        if not -1.0 <= self.q_init <= 1.0:
            raise ValueError("q_init must lie in the value range [-1, 1]")
        # Keep cpuct(N) * sqrt(N) and the virtual-loss product evl * virtual_loss
        # finite up to N = evl = 2**53, and q_boost's mass and the Dirichlet
        # noise's gamma draws and total finite (see README).
        if self.c_puct_base < 1e-290:
            raise ValueError("c_puct_base must be >= 1e-290")
        if self.virtual_loss > 1e290:
            raise ValueError("virtual_loss must not exceed 1e290")
        for key in ("c_puct_init", "q_weight", "dirichlet_alpha"):
            if abs(getattr(self, key)) > 1e300:
                raise ValueError(f"{key} must not exceed 1e300 in magnitude")

    @classmethod
    def from_dict(cls, data: dict, prefix: str = "") -> "SearchConfig":
        """Build and validate a config; every error carries prefix before its key."""
        known = {f.name: f for f in fields(cls)}
        kwargs = {}
        for key, value in data.items():
            spec = known.get(key)
            if spec is None:
                raise ValueError(f"unknown config key {prefix + key!r}")
            try:
                kwargs[key] = _coerce(value, spec.type)
            except ValueError as exc:
                raise ValueError(f"config key {prefix + key!r}: {exc}") from None
        cfg = cls(**kwargs)
        try:
            cfg.validate()
        except ValueError as exc:
            raise ValueError(prefix + str(exc)) from None
        return cfg


_FIELD_TYPES = {"bool": bool, "int": int, "float": (int, float), "str": str}


def check_fields(config) -> None:
    """Check each bool, int, float or str field of a dataclass against its
    annotation, and each float field for finiteness; a ValueError names the
    key. A bool is neither an int nor a float here, though Python makes it both."""
    for spec in fields(config):
        value = getattr(config, spec.name)
        kind = _FIELD_TYPES.get(spec.type)
        if kind and (not isinstance(value, kind) or isinstance(value, bool) != (kind is bool)):
            raise ValueError(f"{spec.name} must be {spec.type}, got {value!r}")
        if spec.type == "float" and not isfinite(value):
            raise ValueError(f"{spec.name} must be finite, got {value}")


def _coerce(value, typename):
    if not isinstance(value, str):
        return value
    text = value.strip()
    if typename == "bool":
        lowered = text.lower()
        if lowered in ("1", "true", "yes", "on"):
            return True
        if lowered in ("0", "false", "no", "off"):
            return False
        raise ValueError(f"cannot parse bool from {value!r}")
    if typename == "int":
        return int(text)
    if typename == "float":
        return float(text)
    return text


def cpuct(total_visits: float, c_base: float = 19652.0, c_init: float = 2.5) -> float:
    """Exploration coefficient, growing logarithmically with node visits."""
    return log((total_visits + c_base + 1.0) / c_base) + c_init


def correction_value(q_edge: float, v_star: float, visits: int,
                     vmin: float = -1.0, vmax: float = 1.0) -> float:
    """Backup sample that lands an edge's moving average exactly on v_star.

    With N prior samples averaging q_edge, the SMA over N+1 samples equals
    v_star when the new sample is v_star + N * (v_star - q_edge). The result
    is clipped to [vmin, vmax], by default the outcome range [-1, 1], after
    which the average only moves toward v_star as far as the clip allows.
    """
    value = v_star + visits * (v_star - q_edge)
    if value > vmax:
        return vmax
    if value < vmin:
        return vmin
    return value


@dataclass(slots=True)
class SearchStats:
    """One search's counts: simulations = evaluations + terminals (settled on a
    terminal or proven node) + early_stops; batch_peak is the largest flush."""

    evaluations: int = 0
    terminals: int = 0
    early_stops: int = 0
    batch_peak: int = 0
    store_full: bool = False

    @property
    def simulations(self) -> int:
        return self.evaluations + self.terminals + self.early_stops


@dataclass
class SearchResult:
    game: str
    ply: int
    actions: list[dict]
    selected_action: int | None
    policy: list[float]
    pv: list[int]
    value: float
    root_status: str
    root_end_in_ply: int
    simulations: int
    evaluations: int
    terminal_trajectories: int
    early_stop_trajectories: int
    stop_reason: str
    wall_ms: float
    memory: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)


class EvalQueue:
    """The (pairs, leaf) descents that wait for the evaluator, in FIFO order.

    The caller decides when a batch is full (mini_batch_size); flush() hands
    the waiting descents back in submission order and empties the queue. The
    queue keeps no count: the search counts what each flush returns.
    """

    def __init__(self, mini_batch_size: int) -> None:
        if mini_batch_size < 1:
            raise ValueError("mini_batch_size must be >= 1")
        self.mini_batch_size = mini_batch_size
        self._pending: list[tuple[list, Node]] = []

    def __len__(self) -> int:
        return len(self._pending)

    def submit(self, descent: tuple[list, Node]) -> None:
        self._pending.append(descent)

    def flush(self) -> list[tuple[list, Node]]:
        batch = self._pending
        self._pending = []
        return batch


class SearchEngine:
    """Persistent search over one game: the store survives across moves.

    reset() places the root; search() runs one budgeted search from the
    current root; advance() pushes the root down an edge after a move is
    played, keeping all statistics (and any pruning) for reuse.
    """

    def __init__(self, env, evaluator, config: SearchConfig) -> None:
        config.validate()
        self.env = env
        self.evaluator = evaluator
        self.config = config
        self.rng = random.Random(config.seed)
        self.store = GraphStore(transpositions=config.transpositions,
                                capacity=config.capacity)
        # Built with the solver off too, so a spec for another game still fails.
        oracle = make_endgame_oracle(config.endgame_oracle, env)
        self.solver = TerminalSolver(oracle) if config.terminal_solver else None
        self._root: Node | None = None
        # Tree mode: state -> its expansion (value, actions, priors), made by
        # the state's first expanded node and reused by every later one. In
        # graph mode the store already holds one node per state.
        self._expansions: dict | None = None if config.transpositions else {}
        # _u_scale[t] is the PUCT exploration scale at edge total t, shared by
        # every engine with the same _puct constants; it grows from those
        # alone, so a config edited later cannot corrupt another engine's table
        self._puct = (config.c_puct_base, config.c_puct_init)
        self._u_scale = _U_SCALES.setdefault(self._puct, [])
        self.stats = SearchStats()  # replaced by each search()

    # ----- root management -------------------------------------------------

    def reset(self, state) -> None:
        """Place the root at a state, reusing the node if the store knows it."""
        node, _ = self._node_for(state, root=True)
        self._root = node
        if node.expanded:
            self._mix_root_noise(node)

    def advance(self, action: int) -> None:
        """Move the root one ply down after `action` was played."""
        if self._root is None:
            raise RuntimeError("advance() before reset()")
        root = self._root
        if action in root.actions:
            idx = root.actions.index(action)
            child = root.child[idx]
            if child is None:
                child = self._resolve_child(root, idx, self.env.apply(root.state, action),
                                            root=True)
            self._root = child
            if child.expanded:
                self._mix_root_noise(child)
        else:  # an unexpanded root, or an illegal action for the env to reject
            if not root.expanded and is_real(root.status):  # a terminal root
                raise ValueError(f"cannot play {action}: the game is already over")
            self.reset(self.env.apply(root.state, action))

    # ----- public search ---------------------------------------------------

    def search(self) -> SearchResult:
        if self._root is None:
            raise RuntimeError("search() before reset()")
        t0 = time.perf_counter()
        root = self._root
        self.stats = SearchStats()

        if not root.expanded:
            if is_real(root.status):  # a terminal: stamped at creation, never expanded
                return self._result(root, t0, "terminal_root")
            self._expand(root)
            self.stats.evaluations = 1
            self._mix_root_noise(root)

        queue = EvalQueue(self.config.mini_batch_size)
        return self._result(root, t0, self._run(root, queue, t0))

    # ----- batched simulation loop ------------------------------------------

    def _run(self, root: Node, queue: EvalQueue, t0: float) -> str:
        """Simulate in rounds; at each round's top, stop on the first rule that
        holds: store_full, solved, budget, stalled (STALL_ROUNDS rounds in a
        row without an evaluation, under an evaluations budget)."""
        cfg = self.config
        batch = queue.mini_batch_size
        terminal_cap = TERMINAL_CAP_FACTOR * batch
        budget = cfg.budget
        amount = cfg.budget_amount
        count_stalls = budget == "evaluations"
        timed = budget == "milliseconds"
        watch_root = cfg.stop_when_solved
        stall_rounds = 0
        stats = self.stats
        # with both exploration features off, _simulate only forwards the call
        simulate = self._simulate if cfg.eps_greedy or cfg.check_enhance else self._descend

        while True:
            # The queue is empty here, as every round ends with a flush, so the
            # count budgets become what this round may spend: sims_left
            # simulations, queue_cap leaves. The round breaks on the one that
            # spends the last, as a check before every simulation would.
            sims_left = amount - stats.simulations if budget == "simulations" else inf
            queue_cap = (min(batch, amount - stats.evaluations)
                         if budget == "evaluations" else batch)
            if stats.store_full:
                return "store_full"
            if watch_root and is_real(root.status):
                return "solved"
            if (sims_left <= 0 or queue_cap <= 0
                    or (timed and (time.perf_counter() - t0) * 1000.0 >= amount)):
                return "budget"
            if stall_rounds >= STALL_ROUNDS:
                return "stalled"

            terminals_this_round = 0
            while True:
                try:
                    descent = simulate(root)
                except StoreFullError:
                    stats.store_full = True
                    break
                if descent is None:  # backed up already
                    terminals_this_round += 1
                    if terminals_this_round == terminal_cap:
                        break
                else:
                    queue.submit(descent)
                    if len(queue) == queue_cap:
                        break
                sims_left -= 1
                if sims_left <= 0:
                    break
                # is_real(root.status), spelled inline as in _descend
                if watch_root and 0 < root.status < 4:
                    break
                if timed and (time.perf_counter() - t0) * 1000.0 >= amount:
                    break

            flushed = queue.flush()
            stats.evaluations += len(flushed)
            if len(flushed) > stats.batch_peak:
                stats.batch_peak = len(flushed)
            for descent in flushed:
                self._finish_eval(descent)
            if count_stalls:
                stall_rounds = 0 if flushed else stall_rounds + 1

    def _finish_eval(self, descent: tuple[list, Node]) -> None:
        """Expand a flushed leaf and back its evaluator value up its path."""
        pairs, leaf = descent
        for node, i in pairs:  # the leaf no longer waits: lift its virtual loss
            node.evl[i] -= 1
            node.edge_total -= 1
        if not leaf.expanded:
            self._expand(leaf)
        else:
            # A sibling simulation of this batch expanded the leaf already:
            # count the extra visit, keep N(s,a) <= N(child).
            update_node_value(leaf, leaf.eval_value)
        self._backpropagate(pairs, leaf.eval_value)

    # ----- simulation ------------------------------------------------------

    def _simulate(self, root: Node) -> tuple[list, Node] | None:
        """One simulation from the root, or from an exploration branch node.

        Returns what `_descend` returns: None once the simulation is backed
        up, or (pairs, leaf) for a leaf that awaits the evaluator.
        """
        cfg = self.config
        rng = self.rng
        # A feature that is off draws nothing and, at inf, never branches.
        u_greedy = rng.random() if cfg.eps_greedy else inf
        u_checks = rng.random() if cfg.check_enhance else inf
        if u_greedy <= cfg.epsilon_greedy:
            kind = explore.EPS_GREEDY
        elif u_checks <= cfg.epsilon_checks:
            kind = explore.FORCING
        else:
            return self._descend(root)
        branch = explore.make_plan(self, root)
        idx = explore.execute_branch(self, branch, kind)
        return self._descend(root) if idx is None else self._descend(branch, idx)

    def _descend(self, node: Node, forced_idx: int | None = None) -> tuple[list, Node] | None:
        """Walk the graph from `node` until the simulation ends.

        The first edge is forced_idx when one is given (an exploration
        branch). Collects (node, edge index) pairs. Nodes carry their
        states, so the env applies a move only to resolve an edge whose
        child is still unknown. A simulation that ends on a terminal or
        proven node, or in an early stop, is backed up and counted here, and
        None is returned. One that reaches a new leaf returns (pairs, leaf)
        for the evaluator, with one virtual loss on each pair: only a
        waiting leaf needs it, as no descent revisits a node. A
        StoreFullError leaves every count as it was.
        """
        cfg = self.config
        transpositions = cfg.transpositions
        q_eps = cfg.q_epsilon
        pairs = []
        i = self._select_index(node) if forced_idx is None else forced_idx
        while True:
            if i < 0:
                # Every edge settled: back up the node's proven value.
                return self._settle(pairs, node)
            pairs.append((node, i))
            child = node.child[i]
            if child is None:
                child = self._resolve_child(
                    node, i, self.env.apply(node.state, node.actions[i]))
            # is_real(status), spelled inline: terminals take this exit too,
            # and the call made a terminal-heavy plain nim:3,4,5 search about
            # 7% slower.
            status = child.status
            if 0 < status < 4:
                return self._settle(pairs, child)
            if transpositions:
                edge_n = node.en[i]
                if child.n > edge_n:
                    v_star = -child.v
                    q_edge = node.q[i]
                    delta = v_star - q_edge
                    if delta > q_eps or delta < -q_eps:
                        if q_edge == NEG_INF:
                            # The edge was pruned as it resolved, onto an
                            # oracle-proven loss: -inf has no correction
                            # sample, so back up the settled value.
                            return self._settle(pairs, child)
                        value = correction_value(q_edge, v_star, edge_n)
                        self._backpropagate(pairs, -value)
                        self.stats.early_stops += 1
                        return None
            if not child.expanded:
                for pnode, pi in pairs:
                    pnode.evl[pi] += 1
                    pnode.edge_total += 1
                return pairs, child
            node = child
            i = self._select_index(node)

    def _settle(self, pairs: list, node: Node) -> None:
        """Back up a simulation that ends on a terminal or proven node.

        The endpoint counts as a visit of the reached node too, keeping
        N(s,a) <= N(child), and adds the status value to the node's average:
        a terminal's v already equals it and never moves, but a node the
        solver proved keeps the average of its search and moves toward it.
        """
        value = STATUS_VALUE[node.status]
        update_node_value(node, value)
        self._backpropagate(pairs, value)
        self.stats.terminals += 1

    def _select_index(self, node: Node) -> int:
        """PUCT argmax over the node's live edges, reading Q through virtual loss.

        The solver drops pruned edges and edges into proven children from
        node.live; with it off nothing drops, as in tree-PUCT. -1 means no
        edge is live, so the solver has proven the node itself.

        The exploration scale cpuct(N) * sqrt(N) is read from a table indexed
        by the node's running edge total N = sum(en) + sum(evl), so a call
        neither sums the edges nor takes a log or a root.

        A higher score wins; an exact tie goes to the lower action id, as at
        total 0, where the scale is 0 and every edge scores its Q. A live
        score is finite, so the first live edge always takes the lead.
        """
        en = node.en
        evl = node.evl
        qs = node.q
        ps = node.p
        vl_weight = self.config.virtual_loss
        total = node.edge_total
        table = self._u_scale
        try:
            u_scale = table[total]
        except IndexError:
            base, init = self._puct
            table.extend(cpuct(t, base, init) * sqrt(t)
                         for t in range(len(table), max(total + 1, 2 * len(table), 1024)))
            u_scale = table[total]
        best = -1
        best_score = NEG_INF
        for j in node.live:
            q = qs[j]
            n = en[j]
            v = evl[j]
            if v:
                m = n + v
                q = (n * q - v * vl_weight) / m
            else:
                m = n
            score = q + u_scale * ps[j] / (1.0 + m)
            if score > best_score:
                best_score = score
                best = j
            elif score == best_score and node.actions[j] < node.actions[best]:
                best = j
        return best

    # ----- node lifecycle ----------------------------------------------------

    def _node_for(self, state, root: bool = False) -> tuple[Node, bool]:
        """Find or create the node of a state; a new terminal node is stamped.

        A terminal's status is its outcome, solver or not: it is the base
        case of every proof, and the only status a node gets without one.
        A root is placed even in a full store, one node past capacity per
        placement; the search that follows stops with store_full.
        """
        node, existed = self.store.lookup_or_insert(self.env.state_key(state), state, root)
        if not existed:
            outcome = self.env.terminal_value(state)
            if outcome is not None:
                node.status = status_for_outcome(outcome)
                node.v = outcome.score
                if self.solver is not None:
                    self.solver.mark_terminal(node)
        return node, existed

    def _resolve_child(self, node: Node, idx: int, state, root: bool = False) -> Node:
        """First traversal of an edge: find or create the child node."""
        child, existed = self._node_for(state, root)
        self.store.link(node, idx, child, existed)
        if self.solver is not None:
            self.solver.note_link(node, child)
        return child

    def _expand(self, node: Node) -> None:
        """Create the node's edges from its state's expansion; run solver hooks.

        A tree-mode state expanded before reuses that expansion. Otherwise the
        expansion is built from the evaluator's output for node.state and the
        legal actions asked of the env: this is the engine's one evaluator call.
        """
        cfg = self.config
        state = node.state
        expansions = self._expansions
        expansion = None if expansions is None else expansions.get(state)
        if expansion is None:
            actions = self.env.legal_actions(state)
            evaluation = self.evaluator.evaluate(state, actions)
            self._check_evaluation(evaluation, len(actions))
            priors = apply_node_temperature(evaluation.priors, cfg.node_tau)
            order = sorted(range(len(actions)), key=lambda j: -priors[j])
            expansion = (evaluation.value, [actions[j] for j in order],
                         [priors[j] for j in order])
            if expansions is not None:
                expansions[state] = expansion
        value, actions, priors = expansion
        self.store.attach_edges(node, actions, priors, cfg.q_init)
        node.eval_value = node.v = value
        node.n = 1
        solver = self.solver
        if solver is not None:
            env = self.env
            try:
                for j in env.ending_moves(state, node.actions):
                    self._resolve_child(node, j, env.apply(state, node.actions[j]))
            except StoreFullError:
                self.stats.store_full = True
            solver.probe_expanded(node)

    def _check_evaluation(self, evaluation, k: int) -> None:
        """Reject evaluator output the search cannot use, naming the evaluator."""
        priors = evaluation.priors
        value = evaluation.value
        if len(priors) != k:
            problem = f"{len(priors)} priors for {k} legal actions"
        elif not 0.0 < sum(priors) < inf or min(priors) < 0.0:
            problem = f"priors that are negative, non-finite or of no mass: {priors}"
        elif not -1.0 <= value <= 1.0:
            problem = f"value {value} outside [-1, 1]"
        else:
            return
        name = getattr(self.evaluator, "name", type(self.evaluator).__name__)
        raise ValueError(f"evaluator {name!r} returned {problem}")

    def _mix_root_noise(self, root: Node) -> None:
        """Mix Dirichlet noise into a newly placed root's live priors.

        Runs once per root placement, so repeated searches on one root do not
        compound the noise. Pruned edges get no noise; the live mass is kept,
        and when every gamma draw underflows to 0 the priors stay as they
        are. The mix goes into a new list: other nodes may share the old one.
        """
        eps = self.config.dirichlet_epsilon
        if eps <= 0.0:
            return
        keep = [i for i, q in enumerate(root.q) if q != NEG_INF]
        if not keep:
            return
        rng = self.rng
        alpha = self.config.dirichlet_alpha
        noise = [rng.gammavariate(alpha, 1.0) for _ in keep]
        total = sum(noise)
        if not total:  # every draw underflowed: no direction to mix toward
            return
        p = list(root.p)
        live = sum(p[i] for i in keep) or 1.0
        for i, g in zip(keep, noise):
            p[i] = (1.0 - eps) * p[i] + eps * live * (g / total)
        root.p = p

    # ----- backpropagation ---------------------------------------------------

    def _backpropagate(self, pairs: list, value: float) -> None:
        """Algorithm: reverse walk with qTarget re-anchoring at transpositions.

        value is from the side to move at the node the last pair's edge
        reaches, so the walk negates it into each node's perspective in turn.
        Above a node with several parents the pushed value is re-derived from
        that node's own (fresher) statistics. Each pair counts one visit (en
        and edge_total); virtual loss is left to the caller.
        """
        qtarget_set = False
        qtarget = 0.0
        for node, i in reversed(pairs):
            if qtarget_set:
                q_edge = node.q[i]
                if q_edge != NEG_INF:
                    value = correction_value(q_edge, qtarget, node.en[i])
                else:
                    value = qtarget  # node averages never leave the value range
            else:
                value = -value
            n1 = node.en[i] + 1
            node.en[i] = n1
            q_edge = node.q[i]
            if q_edge != NEG_INF:
                node.q[i] = q_edge + (value - q_edge) / n1
            node.edge_total += 1
            m1 = node.n + 1
            node.n = m1
            node.v += (value - node.v) / m1
            if len(node.parents) > 1:
                qtarget = -node.v
                qtarget_set = True
            else:
                qtarget_set = False

    # ----- result assembly ---------------------------------------------------

    def _result(self, root: Node, t0: float, stop_reason: str) -> SearchResult:
        stats = self.stats
        selected = None
        policy: list[float] = []
        pv: list[int] = []
        actions: list[dict] = []
        if root.expanded:
            move = move_selection.select_move(root, self.config, self.rng)
            selected = move.action
            policy = move.policy
            pv = move_selection.principal_variation(root)
            for j in range(len(root.actions)):
                pruned = root.q[j] == NEG_INF
                actions.append({
                    "action": root.actions[j],
                    "prior": 0.0 if pruned else root.p[j],
                    "visits": root.en[j],
                    "q": None if pruned else root.q[j],
                    "pruned": pruned,
                    "policy": policy[j],
                })
        wall_ms = (time.perf_counter() - t0) * 1000.0
        return SearchResult(
            game=self.env.game_id,
            ply=getattr(root.state, "ply", 0),
            actions=actions,
            selected_action=selected,
            policy=policy,
            pv=pv,
            value=root.v,
            root_status=root.status.name,
            root_end_in_ply=root.end_in_ply,
            simulations=stats.simulations,
            evaluations=stats.evaluations,
            terminal_trajectories=stats.terminals,
            early_stop_trajectories=stats.early_stops,
            stop_reason=stop_reason,
            wall_ms=wall_ms,
            memory=self.store.memory_report(stats.batch_peak),
        )


def run_search(env, evaluator, state, config: SearchConfig) -> SearchResult:
    """One-shot search from a state with a fresh engine."""
    engine = SearchEngine(env, evaluator, config)
    engine.reset(state)
    return engine.search()
