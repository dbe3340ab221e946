"""Graph store: transposition-keyed nodes with statistics on nodes and edges.

Edges are stored as parallel per-node lists (action, prior, Q, visit count,
virtual loss, child reference) rather than edge objects; at branching factors
of a dozen this keeps the selection loop allocation-free and cache-friendly.
Each node also keeps edge_total, the running sum(en) + sum(evl) that PUCT's
exploration term reads, so selection never sums the edges. The search writes
it with each count: backpropagation adds a visit, and a leaf that waits for
the evaluator adds and then lifts one virtual loss on its path.

Each node also keeps live, the ascending indices of the edges selection may
pick: every edge at expansion, as one range(k) the store shares among all its
k-edge nodes, then only the solver's _recompute writes it, rebinding it to a
tuple that drops pruned edges and edges into children proven WIN, LOSS or
DRAW. A node's parents, one entry per incoming edge, are a tuple that link
extends; most nodes have one parent, and a tuple of one is the smallest
container that holds it.

Statistics are simple moving averages on both nodes and edges. Q-values start
at q_init (a first-play-urgency pessimism, not a sample): the first real
update replaces the initial value entirely because the SMA divides by the
post-increment count. Each part of a node has one writer: attach_edges, at
expansion, is the only code that makes edge storage, and the engine's backup
(SearchEngine._backpropagate) the only code that counts visits and averages
on nodes and edges, a node's first visit too. The solver's pruning only sets
a Q to -inf; a terminal's v is its outcome, stamped when the node is made.

With transpositions on, the store keys each node by env.state_key of its
state, the state itself, so transposed positions share one node. With them
off, each node gets the next serial int, and the store is the tree a
path-keyed search would build. Each node keeps its state, so a descent
applies a move only to resolve an unknown edge. Cost: one state object per
node, 128 bytes for a four-pile NimState, 168 for a TicTacToeState; in tree
mode the engine hands every node of a state that state's first object, so
the cost is paid once per state there too.

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
        "state", "v", "n", "expanded",
        "actions", "p", "q", "en", "evl", "child", "edge_total", "live",
        "status", "end_in_ply", "parents",
    )

    def __init__(self, state) -> None:
        self.state = state
        self.v = 0.0
        self.n = 0
        self.expanded = False
        # Per edge, laid out by attach_edges: actions and priors p (either may
        # be shared by the state's other nodes; root noise rebinds p), Q (SMA;
        # -inf marks a pruned edge), visits en, virtual losses evl, and the
        # child Node or None. An unexpanded node's six share one empty tuple.
        self.actions = self.p = self.q = self.en = self.evl = self.child = ()
        self.edge_total = 0           # sum(en) + sum(evl), kept by the search
        self.live = ()                # edges selection may pick: shared until the solver narrows it
        self.status = SolverStatus.UNKNOWN
        self.end_in_ply = 0
        self.parents: tuple["Node", ...] = ()  # one entry per incoming edge

    def __repr__(self) -> str:
        return (
            f"Node(state={self.state}, v={self.v:+.3f}, n={self.n}, "
            f"edges={len(self.actions)}, status={self.status.name})"
        )


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
        self._live = {}  # k -> the range(k) every k-edge node starts with

    def lookup_or_insert(self, key, state, over_capacity: bool = False) -> tuple[Node, bool]:
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
        node.live = self._live.setdefault(k, range(k))
        node.expanded = True
        self.edge_count += k

    def link(self, parent: Node, idx: int, child: Node, was_existing: bool) -> None:
        """Resolve an edge to its child node and record the back-reference."""
        parent.child[idx] = child
        child.parents += (parent,)
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
