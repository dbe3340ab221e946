"""The engine against independent references, compared exactly.

With transpositions and every enhancement off, the engine must be plain
batched tree-PUCT: the same tree as `reference_puct.TreePUCT`, with equal
visit counts, values, edge Q and priors, bit for bit, in one search and in
each search of a game that keeps its tree across moves.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from mcgs.envs import make_env
from mcgs.evaluators import make_evaluator
from mcgs.search import SearchConfig, SearchEngine

from reference_puct import TreePUCT

_nim = st.lists(st.integers(1, 5), min_size=1, max_size=3).map(
    lambda piles: "nim:" + ",".join(map(str, piles)))
_leftright = st.integers(2, 16).map(lambda n: f"leftright:{n}")


_PUCT_FIELDS = ("n", "v", "actions", "p", "en", "q")


def _assert_same_tree(root, ref_root, fields=_PUCT_FIELDS, kids="kids") -> int:
    """Assert the two trees equal on `fields`, node for node; return the nodes compared."""
    compared = 0
    stack = [(root, ref_root)]
    while stack:
        node, tnode = stack.pop()
        compared += 1
        for name in fields:
            ours, theirs = getattr(node, name), getattr(tnode, name)
            if isinstance(ours, tuple):  # an unexpanded node's edges, or a narrowed live
                ours, theirs = list(ours), list(theirs)
            assert ours == theirs, (name, node)
        for child, kid in zip(node.child, getattr(tnode, kids), strict=True):
            assert (child is None) == (kid is None)
            if child is not None:
                stack.append((child, kid))
    return compared


@settings(max_examples=120, deadline=None, derandomize=True)
@given(game=st.one_of(st.just("tictactoe"), _nim, _leftright),
       evaluator=st.sampled_from(["uniform", "heuristic", "deceptive", "oracle"]),
       batch=st.sampled_from([1, 2, 5, 16]),
       virtual_loss=st.sampled_from([0.0, 1.0, 3.0]),
       kind=st.sampled_from(["simulations", "evaluations"]),
       budget=st.integers(1, 400))
def test_plain_engine_equals_reference_tree_puct(game, evaluator, batch, virtual_loss,
                                                 kind, budget):
    env = make_env(game)
    evaluate = make_evaluator(evaluator, env)
    config = SearchConfig(transpositions=False, terminal_solver=False,
                          eps_greedy=False, check_enhance=False, q_boost=False,
                          budget=kind, budget_amount=budget,
                          mini_batch_size=batch, virtual_loss=virtual_loss)
    engine = SearchEngine(env, evaluate, config)
    engine.reset(env.initial_state())
    result = engine.search()

    reference = TreePUCT(env, evaluate, mini_batch_size=batch, virtual_loss=virtual_loss)
    reference.reset(env.initial_state())
    ref_root = reference.search(budget, kind)

    assert result.stop_reason == reference.stop_reason
    assert result.simulations == reference.simulations
    assert result.evaluations == reference.evaluations
    assert result.terminal_trajectories == reference.terminal_trajectories
    spent = result.simulations if kind == "simulations" else result.evaluations
    assert spent == budget or (kind, result.stop_reason) == ("evaluations", "stalled")
    assert _assert_same_tree(engine._root, ref_root) == result.memory["node_count"]


@settings(max_examples=80, deadline=None, derandomize=True)
@given(game=st.one_of(st.just("tictactoe"), _nim, _leftright),
       evaluator=st.sampled_from(["uniform", "heuristic", "deceptive", "oracle"]),
       batch=st.sampled_from([1, 2, 5, 16]),
       virtual_loss=st.sampled_from([0.0, 1.0, 3.0]),
       budget=st.integers(1, 150),
       plies=st.integers(2, 5))
def test_plain_engine_equals_reference_tree_puct_on_a_kept_tree(game, evaluator, batch,
                                                                virtual_loss, budget, plies):
    # The engine plays its own moves under an evaluations budget; after each
    # one both sides advance and search again from the kept subtree.
    env = make_env(game)
    evaluate = make_evaluator(evaluator, env)
    config = SearchConfig(transpositions=False, terminal_solver=False,
                          eps_greedy=False, check_enhance=False, q_boost=False,
                          budget="evaluations", budget_amount=budget,
                          mini_batch_size=batch, virtual_loss=virtual_loss)
    engine = SearchEngine(env, evaluate, config)
    reference = TreePUCT(env, evaluate, mini_batch_size=batch, virtual_loss=virtual_loss)
    state = env.initial_state()
    engine.reset(state)
    reference.reset(state)
    start, ref_start = engine._root, reference.root
    for _ in range(plies):
        if env.terminal_value(state) is not None:
            break
        result = engine.search()
        reference.search(budget, "evaluations")
        assert result.stop_reason == reference.stop_reason
        assert result.simulations == reference.simulations
        assert result.evaluations == reference.evaluations
        assert result.terminal_trajectories == reference.terminal_trajectories
        # the whole kept tree, from the game's first root down
        assert _assert_same_tree(start, ref_start) == result.memory["node_count"]
        action = result.selected_action
        state = env.apply(state, action)
        engine.advance(action)
        reference.advance(action)


# Matched by state: the statistics, the live edges and the proofs.
_NODE_FIELDS = ("state", *_PUCT_FIELDS, "live", "status", "end_in_ply")


@settings(max_examples=200, deadline=None, derandomize=True)
@given(length=st.sampled_from([3, 6, 12, 40]),
       evaluator=st.sampled_from(["uniform", "heuristic", "deceptive"]),
       batch=st.sampled_from([1, 5, 16]),
       virtual_loss=st.sampled_from([1.0, 3.0]),
       solver=st.booleans(),
       kind=st.sampled_from(["simulations", "evaluations"]),
       budget=st.integers(1, 300),
       seed=st.integers(0, 3),
       searches=st.integers(1, 3))
def test_graph_engine_equals_tree_engine_where_nothing_transposes(
        length, evaluator, batch, virtual_loss, solver, kind, budget, seed, searches):
    # leftright reaches each state by one path, so the store makes no joins,
    # and with exploration off the graph corrections never fire.
    env = make_env(f"leftright:{length}")
    evaluate = make_evaluator(evaluator, env)
    engines = [SearchEngine(env, evaluate, SearchConfig(
        transpositions=transpositions, terminal_solver=solver,
        eps_greedy=False, check_enhance=False, budget=kind, budget_amount=budget,
        mini_batch_size=batch, virtual_loss=virtual_loss, seed=seed))
        for transpositions in (True, False)]
    for engine in engines:
        engine.reset(env.initial_state())
    graph, tree = engines
    start, tree_start = graph._root, tree._root
    for _ in range(searches):
        results = [{k: v for k, v in engine.search().to_dict().items()
                    if k not in ("wall_ms", "memory")} for engine in engines]
        assert results[0] == results[1]
        # the whole kept store, from the first root down
        compared = _assert_same_tree(start, tree_start, _NODE_FIELDS, "child")
        assert compared == len(graph.store.nodes)
        action = results[0]["selected_action"]
        if action is None:
            break
        for engine in engines:
            engine.advance(action)
