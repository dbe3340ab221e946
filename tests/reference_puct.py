"""Plain batched tree-PUCT, written against the same conventions as the
engine but over an explicit tree: no transpositions, no solver, no
exploration branches, no policy boost. The differential test requires the
engine with every enhancement disabled to reproduce this implementation's
tree exactly: visit counts, values, edge Q and priors, bit for bit.

Like the engine, it keeps its tree across moves: reset() places the root,
search() spends one budget from it, advance() moves the root down the
played edge, and the next search() continues on the kept subtree.
"""

from __future__ import annotations

from math import inf, log, sqrt

from mcgs.evaluators import apply_node_temperature


class TreeNode:
    __slots__ = ("state", "v", "n", "expanded", "terminal_score",
                 "actions", "p", "q", "en", "evl", "kids")

    def __init__(self, state, terminal_score=None):
        self.state = state
        self.v = terminal_score if terminal_score is not None else 0.0
        self.n = 0
        self.expanded = False
        self.terminal_score = terminal_score
        self.actions: list[int] = []
        self.p: list[float] = []
        self.q: list[float] = []
        self.en: list[int] = []
        self.evl: list[int] = []
        self.kids: list[TreeNode | None] = []


class _Traj:
    __slots__ = ("pairs", "kind", "value", "leaf")

    def __init__(self, pairs, kind, value=0.0, leaf=None):
        self.pairs = pairs
        self.kind = kind
        self.value = value
        self.leaf = leaf


class TreePUCT:
    def __init__(self, env, evaluator, c_puct_init=2.5, c_puct_base=19652.0,
                 q_init=-1.0, node_tau=1.7, mini_batch_size=16,
                 virtual_loss=1.0, terminal_cap_factor=4, stall_rounds=16):
        self.env = env
        self.evaluator = evaluator
        self.c_puct_init = c_puct_init
        self.c_puct_base = c_puct_base
        self.q_init = q_init
        self.node_tau = node_tau
        self.mini_batch_size = mini_batch_size
        self.virtual_loss = virtual_loss
        self.terminal_cap = terminal_cap_factor * mini_batch_size
        self.stall_rounds = stall_rounds
        self.root: TreeNode | None = None
        self.simulations = 0
        self.evaluations = 0
        self.terminal_trajectories = 0
        self.stop_reason = ""

    def reset(self, state) -> None:
        """Place a fresh root at a state."""
        self.root = TreeNode(state)

    def advance(self, action: int) -> None:
        """Move the root down the edge of `action`, keeping its subtree."""
        root = self.root
        i = root.actions.index(action)
        if root.kids[i] is None:
            root.kids[i] = self._child(root.state, action)
        self.root = root.kids[i]

    def search(self, amount: int, budget: str = "simulations") -> TreeNode:
        """Search from the root in rounds until `amount` simulations or
        evaluations are spent; every count starts at 0.

        An unexpanded root's evaluation is the first simulation and the
        first evaluation; a kept, expanded root is not evaluated again. A
        round gathers waiting leaves up to the batch size, or the
        evaluations left, and backs up at most terminal_cap terminal
        trajectories on the spot. Under an evaluations budget the search also
        stops after stall_rounds rounds in a row that evaluate nothing.
        """
        root = self.root
        self.simulations = self.evaluations = self.terminal_trajectories = 0
        if not root.expanded:
            self._evaluate(root)
            self.evaluations = self.simulations = 1
        stalls = 0
        while True:
            if budget == "simulations":
                sims_left = amount - self.simulations
                leaf_cap = self.mini_batch_size
            else:
                sims_left = inf
                leaf_cap = min(self.mini_batch_size, amount - self.evaluations)
            if sims_left <= 0 or leaf_cap <= 0:
                self.stop_reason = "budget"
                break
            if stalls >= self.stall_rounds:
                self.stop_reason = "stalled"
                break
            pending: list[_Traj] = []
            terms = 0
            while (len(pending) < leaf_cap and terms < self.terminal_cap
                   and len(pending) + terms < sims_left):
                traj = self._simulate(root)
                if traj.kind == "eval":
                    pending.append(traj)
                else:
                    self._backprop(traj.pairs, traj.value)
                    self.simulations += 1
                    self.terminal_trajectories += 1
                    terms += 1
            for traj in pending:
                value = self._evaluate(traj.leaf)
                self.evaluations += 1
                self._backprop(traj.pairs, value)
                self.simulations += 1
            if budget == "evaluations":
                stalls = 0 if pending else stalls + 1
        return root

    def _simulate(self, root: TreeNode) -> _Traj:
        node = root
        pairs: list[tuple[TreeNode, int]] = []
        while True:
            i = self._select(node)
            node.evl[i] += 1
            pairs.append((node, i))
            child = node.kids[i]
            if child is None:
                child = node.kids[i] = self._child(node.state, node.actions[i])
            if child.terminal_score is not None:
                child.n += 1  # terminal visit; v is the constant outcome
                return _Traj(pairs, "terminal", value=child.v)
            if not child.expanded:
                return _Traj(pairs, "eval", leaf=child)
            node = child

    def _child(self, state, action: int) -> TreeNode:
        """A fresh node for the state `action` leads to, scored when terminal."""
        after = self.env.apply(state, action)
        outcome = self.env.terminal_value(after)
        return TreeNode(after, terminal_score=None if outcome is None else outcome.score)

    def _select(self, node: TreeNode) -> int:
        en = node.en
        evl = node.evl
        qs = node.q
        ps = node.p
        actions = node.actions
        vl_weight = self.virtual_loss
        total = 0
        for j in range(len(en)):
            total += en[j] + evl[j]
        u_scale = (log((total + self.c_puct_base + 1.0) / self.c_puct_base)
                   + self.c_puct_init) * sqrt(total)
        best = -1
        best_score = float("-inf")
        for j in range(len(en)):
            q = qs[j]
            n = en[j]
            v = evl[j]
            if v:
                m = n + v
                q = (n * q - v * vl_weight) / m
            else:
                m = n
            score = q + u_scale * ps[j] / (1.0 + m)
            if score > best_score or (score == best_score
                                      and best >= 0 and actions[j] < actions[best]):
                best_score = score
                best = j
        return best

    def _evaluate(self, node: TreeNode) -> float:
        """Evaluate a leaf on its legal actions: expand it the first time,
        else add a visit of the value (a second leaf of one round)."""
        actions = self.env.legal_actions(node.state)
        evaluation = self.evaluator.evaluate(node.state, actions)
        if node.expanded:
            n1 = node.n + 1
            node.n = n1
            node.v += (evaluation.value - node.v) / n1
        else:
            self._expand(node, actions, evaluation)
        return evaluation.value

    def _expand(self, node: TreeNode, actions, evaluation) -> None:
        priors = apply_node_temperature(evaluation.priors, self.node_tau)
        order = sorted(range(len(actions)), key=lambda j: -priors[j])
        node.actions = [actions[j] for j in order]
        node.p = [priors[j] for j in order]
        k = len(actions)
        node.q = [self.q_init] * k
        node.en = [0] * k
        node.evl = [0] * k
        node.kids = [None] * k
        node.v = evaluation.value
        node.n = 1
        node.expanded = True

    def _backprop(self, pairs, value: float) -> None:
        for node, i in reversed(pairs):
            value = -value
            n1 = node.en[i] + 1
            node.en[i] = n1
            node.q[i] += (value - node.q[i]) / n1
            node.evl[i] -= 1
            m1 = node.n + 1
            node.n = m1
            node.v += (value - node.v) / m1
