"""Acceptance suite: one test per numbered shipping criterion.

Each test prints a single summary line with the measured quantities, so a
`pytest -v -s` run reads as a checklist. The thresholds here are release
gates, not unit-test niceties; do not loosen them.
"""

import dataclasses
import math
import random
import time

from scipy.stats import chisquare

from mcgs.arena import MatchConfig, play_match
from mcgs.envs import Outcome
from mcgs.evaluators import make_evaluator
from mcgs.explore import sample_branch_depth
from mcgs.graph import GraphStore
from mcgs.move_selection import _argmax_policy, q_boost
from mcgs.search import SearchConfig, SearchEngine, correction_value
from mcgs.solver import SolverStatus, is_real, solved_move

from helpers import expanded_node, reachable_states
from reference_puct import TreePUCT


def test_criterion_1_solver_soundness(ttt, ttt_table):
    """20k-simulation search proves the empty board a DRAW and every node
    status it derives agrees with exhaustive negamax."""
    config = SearchConfig(budget="simulations", budget_amount=20_000, seed=0)
    engine = SearchEngine(ttt, make_evaluator("uniform", ttt), config)
    engine.reset(ttt.initial_state())
    start = time.monotonic()
    result = engine.search()
    elapsed = time.monotonic() - start

    assert result.root_status == "DRAW"
    assert result.stop_reason == "solved"
    checked = 0
    mismatches = 0
    for key, node in engine.store.nodes.items():
        if not is_real(node.status):
            continue
        checked += 1
        if node.status.name != ttt_table[key].outcome.name:
            mismatches += 1
    assert mismatches == 0
    assert checked >= 1000  # the proof cannot be this small; guards the walk
    assert elapsed < 60.0
    print(f"criterion 1: PASS (root DRAW in {result.simulations} simulations, "
          f"{checked} solved nodes, 0 mismatches, {elapsed:.1f}s)")


def test_criterion_2_shortest_mate(ttt, ttt_table):
    """On 50 forced-win positions the proven END_IN_PLY equals the oracle's
    mate distance and the proven move is oracle-optimal."""
    states = reachable_states(ttt)
    by_distance = {1: [], 3: []}
    for key in sorted(ttt_table):
        entry = ttt_table[key]
        if entry.outcome is Outcome.WIN and entry.distance in by_distance:
            by_distance[entry.distance].append(key)
    rng = random.Random(202)
    picks = rng.sample(by_distance[1], 25) + rng.sample(by_distance[3], 25)

    # keep searching after the root proof so END_IN_PLY refines to the minimum
    config = SearchConfig(budget="simulations", budget_amount=1500,
                          stop_when_solved=False, seed=0)
    evaluator = make_evaluator("uniform", ttt)
    exact = 0
    for key in picks:
        entry = ttt_table[key]
        engine = SearchEngine(ttt, evaluator, config)
        engine.reset(states[key])
        engine.search()
        root = engine._root
        if (root.status == SolverStatus.WIN
                and root.end_in_ply == entry.distance
                and solved_move(root) in entry.optimal_actions):
            exact += 1
    assert exact == 50
    print("criterion 2: PASS (50/50 proven mate distances match the oracle)")


def test_criterion_3_reduction_to_tree_puct(ttt):
    """With transpositions and every enhancement off, the engine is plain
    batched tree-PUCT: identical visit counts, Q within 1e-12."""
    evaluator = make_evaluator("heuristic", ttt)
    config = SearchConfig(transpositions=False, terminal_solver=False,
                          eps_greedy=False, check_enhance=False, q_boost=False,
                          budget="simulations", budget_amount=1000,
                          seed=0)
    engine = SearchEngine(ttt, evaluator, config)
    engine.reset(ttt.initial_state())
    result = engine.search()
    assert result.simulations == 1000

    reference = TreePUCT(ttt, evaluator)
    ref_root = reference.search(ttt.initial_state(), 1000)
    assert reference.simulations == 1000

    compared = 0
    stack = [(engine._root, ref_root)]
    while stack:
        node, tnode = stack.pop()
        compared += 1
        assert node.n == tnode.n
        assert abs(node.v - tnode.v) <= 1e-12
        assert list(node.actions) == list(tnode.actions)
        assert list(node.en) == list(tnode.en)
        for j in range(len(tnode.actions)):
            assert abs(node.q[j] - tnode.q[j]) <= 1e-12
            child, kid = node.child[j], tnode.kids[j]
            assert (child is None) == (kid is None)
            if child is not None:
                stack.append((child, kid))
    assert compared >= 500
    print(f"criterion 3: PASS ({compared} nodes compared, counts bitwise, "
          f"Q within 1e-12)")


def test_criterion_4_correction_algebra():
    """The correction sample lands an edge's running mean exactly on the
    target when unclipped and never leaves the value range when clipped."""
    rng = random.Random(4)
    inf = float("inf")
    for _ in range(1_000_000):
        q = rng.uniform(-1.0, 1.0)
        v_star = rng.uniform(-1.0, 1.0)
        n = rng.randrange(0, 10_000)
        sample = correction_value(q, v_star, n, -inf, inf)
        updated = (n * q + sample) / (n + 1)
        assert abs(updated - v_star) <= 1e-9
        clipped = correction_value(q, v_star, n)
        assert -1.0 <= clipped <= 1.0
    print("criterion 4: PASS (10^6 triples: unclipped SMA lands on target "
          "within 1e-9, clipped stays in [-1, +1])")


def test_criterion_5_branch_depth_law():
    """Branch depths follow P(d) = 2^-(d+1)."""
    rng = random.Random(5)
    n = 1_000_000
    buckets = [0] * 11  # depths 0..9 and a >=10 tail
    for _ in range(n):
        buckets[min(sample_branch_depth(rng.random()), 10)] += 1
    probs = [2.0 ** -(d + 1) for d in range(10)]
    probs.append(1.0 - sum(probs))
    _, pvalue = chisquare(buckets, [p * n for p in probs])
    assert pvalue > 0.01
    print(f"criterion 5: PASS (chi-square p={pvalue:.3f} over 10^6 samples)")


def test_criterion_6_transposition_memory(ttt):
    """Sharing transposed positions keeps the store well under the size of
    the equivalent tree."""
    config = SearchConfig(terminal_solver=False, budget="simulations",
                          budget_amount=10_000, seed=0)
    engine = SearchEngine(ttt, make_evaluator("uniform", ttt), config)
    engine.reset(ttt.initial_state())
    start = time.monotonic()
    result = engine.search()
    elapsed = time.monotonic() - start

    assert result.stop_reason == "budget"
    memory = result.memory
    ratio = memory["node_count"] / memory["tree_equivalent_node_count"]
    assert ratio <= 1.0  # binding invariant: joins only ever shrink the store
    assert ratio <= 0.7
    assert elapsed < 30.0
    print(f"criterion 6: PASS (node/tree ratio {ratio:.4f} = "
          f"{memory['node_count']}/{memory['tree_equivalent_node_count']}, "
          f"{elapsed:.1f}s)")


def test_criterion_7_evaluation_savings(ttt):
    """Evaluator calls < simulations, with the gap exactly the early-stop
    plus terminal trajectories."""
    config = SearchConfig(stop_when_solved=False, budget="simulations",
                          budget_amount=10_000, seed=0)
    engine = SearchEngine(ttt, make_evaluator("uniform", ttt), config)
    engine.reset(ttt.initial_state())
    result = engine.search()

    assert result.simulations == 10_000
    assert result.evaluations < result.simulations
    saved = result.simulations - result.evaluations
    assert saved == result.early_stop_trajectories + result.terminal_trajectories
    print(f"criterion 7: PASS ({result.evaluations} evaluations for "
          f"{result.simulations} simulations; gap {saved} = "
          f"{result.early_stop_trajectories} early stops + "
          f"{result.terminal_trajectories} terminal)")


def test_criterion_8_strength_ordering():
    """400-game color-balanced Nim matches at 256 evaluations/move with the
    deceptive evaluator: everything-on beats plain tree-PUCT with the Wilson
    95% lower bound above 0.5, and no single enhancement is worse than
    0.5 - 0.03 against plain."""
    start = time.monotonic()
    plain = SearchConfig(budget="evaluations", budget_amount=256,
                         transpositions=False, terminal_solver=False,
                         eps_greedy=False, check_enhance=False, q_boost=False)

    def versus_plain(engine_a):
        # Three random opening plies: from the twelve-way initial position
        # every arm plays near coin-flip at 256 evaluations, so matches from
        # shallower openings measure tie-breaking noise instead of strength.
        config = MatchConfig(engine_a=engine_a, engine_b=plain,
                             game="nim:3,4,5",
                             evaluator_a="deceptive", evaluator_b="deceptive",
                             opening_plies=3, opening_count=200, seed=11)
        result = play_match(config)
        assert len(result.games) == 400
        return result

    full = versus_plain(dataclasses.replace(
        plain, transpositions=True, terminal_solver=True, eps_greedy=True,
        check_enhance=True, q_boost=True))
    assert full.score_rate > 0.5
    assert full.rate_low > 0.5

    singles = {
        "transpositions": dataclasses.replace(plain, transpositions=True),
        "terminal_solver": dataclasses.replace(plain, terminal_solver=True),
        "eps_greedy": dataclasses.replace(plain, eps_greedy=True),
        "q_boost": dataclasses.replace(plain, q_boost=True),
    }
    rates = {}
    for name, config in singles.items():
        rates[name] = versus_plain(config).score_rate
        assert rates[name] >= 0.47, f"{name} scored {rates[name]} vs plain"

    elapsed = time.monotonic() - start
    assert elapsed < 600.0
    summary = ", ".join(f"{name} {rate:.3f}" for name, rate in rates.items())
    print(f"criterion 8: PASS (all-on {full.score_rate:.3f} "
          f"[wilson low {full.rate_low:.3f}]; singles {summary}; "
          f"{elapsed:.0f}s)")


def test_criterion_9_default_configuration():
    """The shipped defaults are the reference configuration."""
    config = SearchConfig()
    assert config.q_epsilon == 0.01
    assert config.q_weight == 2.0
    assert config.epsilon_greedy == 0.01
    assert config.epsilon_checks == 0.01
    assert config.c_puct_init == 2.5
    assert config.c_puct_base == 19652
    assert config.node_tau == 1.7
    assert config.tau == 0.0
    assert config.mini_batch_size == 16
    assert config.virtual_loss == 1.0
    assert config.q_init == -1.0
    assert correction_value(-1.0, 1.0, 5) == 1.0
    assert correction_value(1.0, -1.0, 5) == -1.0
    print("criterion 9: PASS (all 13 defaults match the reference "
          "configuration)")


def test_criterion_10_q_boost_algebra():
    """Boosted policies stay normalized and the one-hot argmax switches
    exactly when q_weight * q_delta exceeds 1."""
    rng = random.Random(10)
    store = GraphStore()

    # mass conservation over arbitrary boosted policies
    for _ in range(20_000):
        k = rng.randrange(2, 9)
        node = expanded_node(store, actions=list(range(k)))
        node.en = [rng.randrange(0, 50) for _ in range(k)]
        node.en[rng.randrange(k)] += 60  # a clear favorite
        node.q = [rng.uniform(-1.0, 1.0) for _ in range(k)]
        raw = [rng.random() + 1e-9 for _ in range(k)]
        total = sum(raw)
        policy = [p / total for p in raw]
        boosted, changed = q_boost(node, policy, rng.uniform(0.0, 4.0))
        assert abs(sum(boosted) - 1.0) <= 1e-9
        if not changed:
            assert boosted == policy

    # one-hot switch threshold, fuzzed and at the exact boundary
    def switches(q_weight, q_delta):
        node = expanded_node(store, actions=[0, 1, 2])
        node.en = [10, 5, 0]
        node.q = [0.0, q_delta, 0.0]
        one_hot = [1.0, 0.0, 0.0]
        boosted, changed = q_boost(node, one_hot, q_weight)
        assert changed == (q_delta > 0.0)
        assert abs(sum(boosted) - 1.0) <= 1e-9
        return _argmax_policy(node, boosted) == 1

    for _ in range(20_000):
        q_weight = rng.uniform(0.0, 3.0)
        q_delta = rng.uniform(0.0, 1.0)
        assert switches(q_weight, q_delta) == (q_weight * q_delta > 1.0)

    assert not switches(2.0, 0.5)  # product exactly 1: favorite keeps argmax
    assert switches(2.0, math.nextafter(0.5, 1.0))  # one ulp above: switches
    print("criterion 10: PASS (mass 1 within 1e-9 over 2*10^4 policies, "
          "one-hot switch exactly at q_weight*q_delta > 1)")
