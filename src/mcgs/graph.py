"""Graph store: transposition-keyed nodes with statistics on nodes and edges.

Edges are stored as parallel per-node lists (action, prior, Q, visit count,
virtual loss, child reference) rather than edge objects; at branching factors
of a dozen this keeps the selection loop allocation-free and cache-friendly.
Each node also keeps edge_total, the running sum(en) + sum(evl) that PUCT's
exploration term reads, so selection never sums the edges. The search writes
it with each count: backpropagation adds a visit, and a leaf that waits for
the evaluator adds and then lifts one virtual loss on its path.

Each node also keeps live, the ascending indices of the edges selection may
pick: every edge at expansion, then only the solver's _recompute writes it,
dropping pruned edges and edges into children proven WIN, LOSS or DRAW.

Statistics are simple moving averages on both nodes and edges. Q-values start
at q_init (a first-play-urgency pessimism, not a sample): the first real
update replaces the initial value entirely because the SMA divides by the
post-increment count.

With transpositions on, the store keys each node by env.state_key of its
state, the state itself, so transposed positions share one node. With them
off, each node gets the next serial int, and the store is the tree a
path-keyed search would build. Each node keeps its state, so a descent
applies a move only to resolve an unknown edge. Cost: one state object per
node, 128 bytes for a four-pile NimState, 168 for a TicTacToeState.

Memory accounting distinguishes the nodes actually allocated from
tree_equivalent_node_count, the nodes a pure tree would have allocated for
the same simulations: every first resolution of an edge onto a pre-existing
node is one join event, i.e. one allocation the tree could not have shared.
The report's trajectory_buffer_size is the search's figure, passed in.
"""

from __future__ import annotations

from .solver import NEG_INF, SolverStatus  # noqa: F401 (NEG_INF is re-exported)


class StoreFullError(RuntimeError):
    """Node capacity exhausted; the search aborts gracefully with best-so-far."""


class Node:
    __slots__ = (
        "state", "v", "n", "eval_value", "expanded",
        "actions", "p", "q", "en", "evl", "child", "edge_total", "live",
        "status", "end_in_ply", "parents",
    )

    def __init__(self, state=None) -> None:
        self.state = state
        self.v = 0.0
        self.n = 0
        self.eval_value = 0.0         # the evaluator's value, set at expansion
        self.expanded = False
        self.actions: list[int] = []  # may be shared by the state's other nodes
        self.p: list[float] = []      # priors, one per edge; may be shared: root noise rebinds it
        self.q: list[float] = []      # edge Q (SMA); -inf marks a pruned edge
        self.en: list[int] = []       # edge visit counts
        self.evl: list[int] = []      # edge virtual-loss (in-flight) counts
        self.child: list = []         # child Node or None while unresolved
        self.edge_total = 0           # sum(en) + sum(evl), kept by the search
        self.live = ()                # edges selection may pick, kept by the solver
        self.status = SolverStatus.UNKNOWN
        self.end_in_ply = 0
        self.parents: list["Node"] = []  # one entry per incoming edge

    def __repr__(self) -> str:
        return (
            f"Node(state={self.state}, v={self.v:+.3f}, n={self.n}, "
            f"edges={len(self.actions)}, status={self.status.name})"
        )


def update_node_value(node: Node, value: float) -> None:
    """Moving-average update of the node value: n += 1, v += (value - v) / n."""
    n1 = node.n + 1
    node.n = n1
    node.v += (value - node.v) / n1


class GraphStore:
    """Flat transposition table plus allocation accounting.

    With transpositions disabled every insert gets a fresh serial key, so
    the stored graph degenerates to the tree a path-keyed search would build.
    """

    def __init__(self, transpositions: bool = True, capacity: int = 2_000_000) -> None:
        self.transpositions = transpositions
        self.capacity = capacity
        self.nodes: dict[object, Node] = {}  # by state key; by serial int in tree mode
        self.join_count = 0
        self.edge_count = 0
        self._serial = 0

    def lookup_or_insert(self, key, state=None,
                         over_capacity: bool = False) -> tuple[Node, bool]:
        """Return (node, was_existing); insert a fresh node holding state on miss.

        A full store raises StoreFullError on a miss, unless over_capacity.
        """
        if self.transpositions:
            node = self.nodes.get(key)
            if node is not None:
                return node, True
        else:
            self._serial += 1
            key = self._serial
        if len(self.nodes) >= self.capacity and not over_capacity:
            raise StoreFullError(f"graph store capacity {self.capacity} exhausted")
        node = Node(state)
        self.nodes[key] = node
        return node, False

    def attach_edges(self, node: Node, actions: list[int], priors: list[float],
                     q_init: float) -> None:
        """Create the edge slots of a freshly expanded node."""
        if node.expanded:
            raise ValueError(f"node {node.state} is already expanded")
        k = len(actions)
        node.actions = actions
        node.p = priors
        node.q = [q_init] * k
        node.en = [0] * k
        node.evl = [0] * k
        node.child = [None] * k
        node.live = range(k)
        node.expanded = True
        self.edge_count += k

    def link(self, parent: Node, idx: int, child: Node, was_existing: bool) -> None:
        """Resolve an edge to its child node and record the back-reference."""
        parent.child[idx] = child
        child.parents.append(parent)
        if was_existing:
            self.join_count += 1

    def memory_report(self, trajectory_buffer_size: int) -> dict:
        """Allocation counts, the pure-tree counterfactual and a search's batch peak."""
        node_count = len(self.nodes)
        return {
            "node_count": node_count,
            "edge_count": self.edge_count,
            "trajectory_buffer_size": trajectory_buffer_size,
            "tree_equivalent_node_count": node_count + self.join_count,
            "transposition_join_count": self.join_count,
        }
