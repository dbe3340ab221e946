"""PUCT search on a transposition graph with batched evaluation.

The engine runs AlphaZero-style PUCT selection over a DAG instead of a tree.
Nodes reached through different move orders share statistics; the price is
that an edge's Q and its child's value can drift apart (a second parent keeps
improving the child while the first parent's edge sees nothing). Two
mechanisms reconcile them by one qTarget rule, in _backpropagate: an edge
into a node that carries a qTarget takes the correction sample that lands its
moving average on it, where the raw leaf sample would go.

- backprop correction: a node with several parents carries its negated value
  as qTarget.
- early stop: descending an edge whose child is better informed than the edge
  itself (child visits exceed edge visits), with a value gap above q_epsilon,
  ends the simulation with no evaluator call, in a backup that starts with
  qTarget = -child.v.

A simulation is backed up where it ends, by one _backpropagate call, which
counts every visit, a new leaf's first one too. One that ends in an early
stop, or settles on a terminal or proven node (at its status value), is
backed up on the spot and never occupies an evaluator slot. One that ends on
a new leaf waits in the EvalQueue under virtual loss: a round gathers up to
mini_batch_size such leaves, then its one flush hands them, in submission
order, to _finish_eval, which expands each, backs it up and counts the
evaluation, as it does a fresh root. An evaluations budget counts every leaf
of a flush. Each search() counts what it spends in a fresh SearchStats
record, the one place a per-search count is kept: neither the eval queue nor
the graph store, which outlives it, keeps one.

_expand is the one place that calls the evaluator, for the root and for
every flushed leaf alike, and an engine turns each distinct state into an
expansion once there: the evaluator's value plus the checked, tempered,
prior-sorted actions and priors. It lays out the node's edges and returns
the value; it counts no visit. In graph mode the store holds one node per
state; in tree mode every node of a state holds the state's first object,
and every later node of an expanded state, a second leaf of the same flush
among them, reuses the first one's expansion, sharing its actions and
priors lists. So the evaluator must be a pure function of the state, and
the root's Dirichlet noise, the one change to a node's priors after
expansion, rebinds node.p instead of writing into it.

Module state: _U_SCALES holds one exploration-scale table per
(c_puct_base, c_puct_init), shared by every engine with those two floats.
An entry is a pure function of its index, so sharing changes no result; it
spares the many short-lived engines of a match from rebuilding the table.
A table grows in steps of 1,024 entries past the largest edge total read,
so it ends within one step of what it serves.
"""

from __future__ import annotations

import random
import time
from collections.abc import Sequence
from dataclasses import asdict, dataclass, field, fields
from math import inf, isfinite, log, sqrt

from .evaluators import apply_node_temperature
from .graph import NEG_INF, GraphStore, Node, StoreFullError
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


class Settings:
    """Base of the settings dataclasses: one parser of flag and file text, one type check."""

    @classmethod
    def from_dict(cls, data: dict, prefix: str = ""):
        """Build and validate the settings; every error carries prefix before its key."""
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
        settings = cls(**kwargs)
        try:
            settings.validate()
        except ValueError as exc:
            raise ValueError(prefix + str(exc)) from None
        return settings

    def check_fields(self) -> None:
        """Check each bool, int, float or str field against its annotation, and
        each float field for finiteness; a ValueError names the key. A bool is
        neither an int nor a float here, though Python makes it both."""
        for spec in fields(self):
            value = getattr(self, spec.name)
            kind = _FIELD_TYPES.get(spec.type)
            if kind and (not isinstance(value, kind) or isinstance(value, bool) != (kind is bool)):
                raise ValueError(f"{spec.name} must be {spec.type}, got {value!r}")
            if spec.type == "float" and not isfinite(value):
                raise ValueError(f"{spec.name} must be finite, got {value}")


@dataclass
class SearchConfig(Settings):
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
        self.check_fields()
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


_FIELD_TYPES = {"bool": bool, "int": int, "float": (int, float), "str": str}
_BOOL_WORDS = {**dict.fromkeys(("1", "true", "yes", "on"), True),
               **dict.fromkeys(("0", "false", "no", "off"), False)}
_PARSE = {"int": int, "float": float, "str": str}


def _coerce(value, typename):
    """A text value parsed as its field's annotation names; any other value as it is."""
    if not isinstance(value, str):
        return value
    text = value.strip()
    if typename == "bool" and text.lower() in _BOOL_WORDS:
        return _BOOL_WORDS[text.lower()]
    if typename in _PARSE:
        return _PARSE[typename](text)
    raise ValueError(f"cannot parse {typename} from {value!r}")


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
    terminal or proven node) + early_stops; batch_peak is the largest flush.
    _descend counts terminals and early stops, _finish_eval evaluations, and
    _run batch_peak."""

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


class EvalQueue(list):
    """The list of (pairs, leaf) descents that wait for the evaluator.

    The caller appends and decides when a batch is full (mini_batch_size);
    flush() hands the descents back in submission order and empties the
    queue, which keeps no count. The benchmark's tracer reads
    mini_batch_size and wraps flush.
    """

    def __init__(self, mini_batch_size: int) -> None:
        super().__init__()
        self.mini_batch_size = mini_batch_size

    def flush(self) -> list[tuple[list, Node]]:
        batch = self[:]
        self.clear()
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
        # Tree mode: state -> its first object, held by every node of the state,
        # and state -> its expansion (value, actions, priors), made by its first
        # expanded node. In graph mode the store holds one node per state.
        self._states: dict | None = None if config.transpositions else {}
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
            self._finish_eval(((), root))
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
                    queue.append(descent)
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
            if len(flushed) > stats.batch_peak:
                stats.batch_peak = len(flushed)
            for descent in flushed:
                self._finish_eval(descent)
            if count_stalls:
                stall_rounds = 0 if flushed else stall_rounds + 1

    def _finish_eval(self, descent: tuple[list, Node]) -> None:
        """Expand a flushed leaf or a fresh root, back it up, count the evaluation.

        A leaf a sibling of this flush expanded holds that value as its v: no
        descent of the round passed it unexpanded, the solver never writes v,
        and a repeat visit adds a sample equal to v, which leaves v as it was.
        """
        pairs, leaf = descent
        for node, i in pairs:  # the leaf no longer waits: lift its virtual loss
            node.evl[i] -= 1
            node.edge_total -= 1
        value = leaf.v if leaf.expanded else self._expand(leaf)
        self._backpropagate(pairs, value, leaf)
        self.stats.evaluations += 1

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
        while i >= 0:  # i < 0: every edge settled, so the solver proved node
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
                node = child
                break
            if transpositions and child.n > node.en[i]:
                v_star = -child.v
                q_edge = node.q[i]
                delta = v_star - q_edge
                if delta > q_eps or delta < -q_eps:
                    if q_edge == NEG_INF:
                        # The edge was pruned as it resolved, onto an
                        # oracle-proven loss: -inf has no correction
                        # sample, so back up the settled value.
                        node = child
                        break
                    self._backpropagate(pairs, v_star, None)
                    self.stats.early_stops += 1
                    return None
            if not child.expanded:
                for pnode, pi in pairs:
                    pnode.evl[pi] += 1
                    pnode.edge_total += 1
                return pairs, child
            node = child
            i = self._select_index(node)
        # Settled: back up the status value of the node the simulation ended on.
        self._backpropagate(pairs, STATUS_VALUE[node.status], node)
        self.stats.terminals += 1
        return None

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
                         for t in range(len(table), max(total + 1, len(table) + 1024)))
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
        placement; the search that follows stops with store_full. A new
        tree-mode node holds its state's first object.
        """
        if self._states is not None:
            state = self._states.setdefault(state, state)
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

    def _expand(self, node: Node) -> float:
        """Create the node's edges from its state's expansion; run solver hooks.

        A tree-mode state expanded before reuses that expansion. Otherwise
        the expansion is built from the evaluator's output for node.state and
        the legal actions asked of the env: this is the engine's one evaluator
        call. Returns the value, at which the caller's backup counts the
        node's first visit.
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
            order = sorted(range(len(actions)), key=priors.__getitem__, reverse=True)
            expansion = (evaluation.value, [actions[j] for j in order],
                         [priors[j] for j in order])
            if expansions is not None:
                expansions[state] = expansion
        value, actions, priors = expansion
        self.store.attach_edges(node, actions, priors, cfg.q_init)
        solver = self.solver
        if solver is not None:
            env = self.env
            try:
                for j in env.ending_moves(state, node.actions):
                    self._resolve_child(node, j, env.apply(state, node.actions[j]))
            except StoreFullError:
                self.stats.store_full = True
            solver.probe_expanded(node)
        return value

    def _check_evaluation(self, evaluation, k: int) -> None:
        """Reject evaluator output the search cannot use, naming the evaluator.

        An Evaluation's priors must be a sequence of real numbers (not a
        mapping, set, iterator or string), and its value and the priors' sum
        must be int or float: a Decimal fails the search's float arithmetic,
        and a Fraction would reach its output.
        """
        try:
            priors = evaluation.priors
            value = evaluation.value
            if isinstance(priors, (str, bytes)) or not isinstance(priors, Sequence):
                problem = f"priors of type {type(priors).__name__}, not a sequence"
            elif len(priors) != k:
                problem = f"{len(priors)} priors for {k} legal actions"
            elif not (isinstance(value, (int, float))
                      and isinstance(mass := sum(priors), (int, float))):
                raise TypeError("a value or prior sum that is not int or float")
            elif not 0.0 < mass < inf or min(priors) < 0.0:
                problem = f"priors that are negative, non-finite or of no mass: {priors}"
            elif not -1.0 <= value <= 1.0:
                problem = f"value {value} outside [-1, 1]"
            else:
                return
        except (AttributeError, TypeError):
            problem = f"{evaluation!r}, not an Evaluation of real numbers (int or float)"
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

    def _backpropagate(self, pairs: list, value: float, leaf: Node | None) -> None:
        """Algorithm: reverse walk with qTarget re-anchoring at transpositions.

        leaf is the node the last pair's edge reaches, and value is from its
        side to move: the leaf's visit, a new leaf's or root's first one too,
        is counted first, adding value to its average, which keeps
        N(s,a) <= N(child). A terminal's v equals its status value and never
        moves; a solver-proven node's v moves toward it.

        The walk negates value into each node's perspective in turn, except
        into a node that carries a qTarget: a node with several parents
        carries -v, and the edge into it takes the correction sample that
        lands its average there. An early stop passes no leaf and value =
        v* = -child.v: the walk starts with qTarget = v*, so the stale edge
        lands on it. Each pair counts one visit (en and edge_total); virtual
        loss is left to the caller.
        """
        if leaf is None:  # an early stop
            qtarget = value
        else:
            n1 = leaf.n + 1
            leaf.n = n1
            leaf.v += (value - leaf.v) / n1
            qtarget = None  # -v of the node just backed up, when it has several parents
        for node, i in reversed(pairs):
            q_edge = node.q[i]
            if qtarget is None:
                value = -value
            elif q_edge != NEG_INF:
                value = correction_value(q_edge, qtarget, node.en[i])
            else:
                value = qtarget  # node averages never leave the value range
            n1 = node.en[i] + 1
            node.en[i] = n1
            if q_edge != NEG_INF:
                node.q[i] = q_edge + (value - q_edge) / n1
            node.edge_total += 1
            m1 = node.n + 1
            node.n = m1
            node.v += (value - node.v) / m1
            qtarget = -node.v if len(node.parents) > 1 else None

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
