"""The engine against independent references, compared exactly.

With transpositions and every enhancement off, the engine must be plain
batched tree-PUCT: the same tree as `reference_puct.TreePUCT`, with equal
visit counts, values, edge Q and priors, bit for bit.
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


def _assert_same_tree(root, ref_root) -> int:
    compared = 0
    stack = [(root, ref_root)]
    while stack:
        node, tnode = stack.pop()
        compared += 1
        assert node.n == tnode.n
        assert node.v == tnode.v
        assert node.actions == tnode.actions
        assert node.p == tnode.p
        assert node.en == tnode.en
        assert node.q == tnode.q
        for child, kid in zip(node.child, tnode.kids):
            assert (child is None) == (kid is None)
            if child is not None:
                stack.append((child, kid))
    return compared


@settings(max_examples=120, deadline=None, derandomize=True)
@given(game=st.one_of(st.just("tictactoe"), _nim, _leftright),
       evaluator=st.sampled_from(["uniform", "heuristic", "deceptive"]),
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
    ref_root = reference.search(env.initial_state(), budget, kind)

    assert result.stop_reason == reference.stop_reason
    assert result.simulations == reference.simulations
    assert result.evaluations == reference.evaluations
    assert result.terminal_trajectories == reference.terminal_trajectories
    spent = result.simulations if kind == "simulations" else result.evaluations
    assert spent == budget or (kind, result.stop_reason) == ("evaluations", "stalled")
    assert _assert_same_tree(engine._root, ref_root) == result.memory["node_count"]
