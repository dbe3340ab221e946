"""Terminal solver: status derivation, pruning, propagation, proven moves."""

import itertools

import pytest

from mcgs.envs import Outcome, make_env
from mcgs.evaluators import UniformEvaluator
from mcgs.graph import NEG_INF, GraphStore, Node
from mcgs.search import SearchConfig, SearchEngine
from mcgs.solver import (
    STATUS_VALUE,
    NimXorOracle,
    SolverContradictionError,
    SolverStatus,
    TableOracle,
    TerminalSolver,
    is_real,
    make_endgame_oracle,
    solved_move,
    status_for_outcome,
)

from helpers import attach_child, expanded_node, fresh_key


def test_status_helpers():
    assert status_for_outcome(Outcome.WIN) == SolverStatus.WIN
    assert status_for_outcome(Outcome.LOSS) == SolverStatus.LOSS
    assert status_for_outcome(Outcome.DRAW) == SolverStatus.DRAW
    assert is_real(SolverStatus.WIN) and is_real(SolverStatus.DRAW)
    assert not is_real(SolverStatus.TB_WIN) and not is_real(SolverStatus.UNKNOWN)


def test_mark_terminal_stamps_the_node():
    # The engine stamps the status; the solver only counts the proof.
    solver = TerminalSolver()
    store = GraphStore()
    node, _ = store.lookup_or_insert(fresh_key(4), None)
    solver.mark_terminal(node)
    assert solver.nodes_solved == 1


def test_one_losing_child_proves_the_parent_won():
    solver = TerminalSolver()
    store = GraphStore()
    parent = expanded_node(store, actions=[0, 1, 2])
    priors = parent.p
    child = attach_child(store, parent, 1, status=SolverStatus.LOSS, eip=0)
    solver.note_link(parent, child)
    assert parent.status == SolverStatus.WIN
    assert parent.end_in_ply == 1
    # the refuted line is blocked for simulations by its Q alone
    assert parent.q[1] == NEG_INF and 1 not in parent.live
    assert parent.p is priors and priors == [1 / 3] * 3


def test_note_link_ignores_unknown_children():
    solver = TerminalSolver()
    store = GraphStore()
    parent = expanded_node(store, actions=[0, 1])
    child = attach_child(store, parent, 0)
    solver.note_link(parent, child)
    assert parent.status == SolverStatus.UNKNOWN


def test_all_winning_children_prove_the_parent_lost():
    solver = TerminalSolver()
    store = GraphStore()
    parent = expanded_node(store, actions=[0, 1, 2])
    for idx, eip in enumerate((2, 4, 6)):
        child = attach_child(store, parent, idx, status=SolverStatus.WIN, eip=eip)
        solver.note_link(parent, child)
    assert parent.status == SolverStatus.LOSS
    # losers drag the game out: the longest resistance plus this ply
    assert parent.end_in_ply == 7
    assert all(q != NEG_INF for q in parent.q)  # winning children stay visitable


def test_draw_needs_every_child_known():
    solver = TerminalSolver()
    store = GraphStore()
    parent = expanded_node(store, actions=[0, 1, 2])
    first = attach_child(store, parent, 0, status=SolverStatus.DRAW, eip=3)
    solver.note_link(parent, first)
    assert parent.status == SolverStatus.UNKNOWN  # a better child might exist
    second = attach_child(store, parent, 1, status=SolverStatus.WIN, eip=2)
    solver.note_link(parent, second)
    assert parent.status == SolverStatus.UNKNOWN
    third = attach_child(store, parent, 2, status=SolverStatus.DRAW, eip=5)
    solver.note_link(parent, third)
    assert parent.status == SolverStatus.DRAW
    assert parent.end_in_ply == 4  # shortest drawing line plus one


def test_every_child_lost_prunes_everything_and_wins():
    solver = TerminalSolver()
    store = GraphStore()
    parent = expanded_node(store, actions=[0, 1])
    priors = parent.p
    for idx in range(2):
        child = attach_child(store, parent, idx, status=SolverStatus.LOSS, eip=idx)
        solver.note_link(parent, child)
    assert parent.status == SolverStatus.WIN
    assert parent.end_in_ply == 1
    assert all(q == NEG_INF for q in parent.q) and not parent.live
    assert parent.p is priors and priors == [0.5, 0.5]


def test_win_proof_refines_toward_the_shortest_mate():
    solver = TerminalSolver()
    store = GraphStore()
    gp = expanded_node(store, actions=[0], ply=0)
    parent = expanded_node(store, actions=[0, 1], ply=1)
    store.link(gp, 0, parent, was_existing=False)
    solver.note_link(gp, parent)

    slow = attach_child(store, parent, 0, status=SolverStatus.LOSS, eip=4, ply=2)
    solver.note_link(parent, slow)
    assert parent.status == SolverStatus.WIN
    assert parent.end_in_ply == 5
    # gp's only move reaches a won position, so gp is lost on the spot
    assert gp.status == SolverStatus.LOSS
    assert gp.end_in_ply == 6

    fast = attach_child(store, parent, 1, status=SolverStatus.LOSS, eip=0, ply=2)
    solver.note_link(parent, fast)
    assert parent.status == SolverStatus.WIN
    assert parent.end_in_ply == 1  # refined downward, status unchanged
    assert gp.status == SolverStatus.LOSS
    assert gp.end_in_ply == 2  # the refinement rode the back-references up


def test_refinement_reaches_grandparents():
    solver = TerminalSolver()
    store = GraphStore()
    gp = expanded_node(store, actions=[0])
    parent = expanded_node(store, actions=[0, 1], ply=1)
    store.link(gp, 0, parent, was_existing=False)
    solver.note_link(gp, parent)
    a = attach_child(store, parent, 0, status=SolverStatus.LOSS, eip=6, ply=2)
    solver.note_link(parent, a)
    b = attach_child(store, parent, 1, status=SolverStatus.LOSS, eip=4, ply=2)
    solver.note_link(parent, b)
    assert (parent.end_in_ply, gp.end_in_ply) == (5, 6)
    # a shorter mate appears below the already-proven child
    b.end_in_ply = 0
    solver.propagate(parent)
    assert parent.end_in_ply == 1
    assert gp.end_in_ply == 2


def test_contradiction_is_detected():
    solver = TerminalSolver()
    store = GraphStore()
    parent = expanded_node(store, actions=[0, 1])
    loser = attach_child(store, parent, 0, status=SolverStatus.LOSS, eip=0)
    solver.note_link(parent, loser)
    other = attach_child(store, parent, 1, status=SolverStatus.WIN, eip=1)
    solver.note_link(parent, other)
    assert parent.status == SolverStatus.WIN
    # corrupt the proof: no loss children left, all known -> derives DRAW
    loser.status = SolverStatus.DRAW
    with pytest.raises(SolverContradictionError):
        solver.propagate(parent)


def test_tb_probe_solves_and_propagates():
    env = make_env("nim:1,1")
    solver = TerminalSolver(NimXorOracle())
    store = GraphStore()
    parent = expanded_node(store, actions=[0, 1])
    child = attach_child(store, parent, 0)
    child.state = env.initial_state()  # xor == 0: mover loses
    solver.probe_expanded(child)
    assert child.status == SolverStatus.TB_LOSS
    assert child.end_in_ply == 0
    solver.note_link(parent, child)
    # one TB refutation proves TB_WIN, mirroring the real WIN rule
    assert parent.status == SolverStatus.TB_WIN
    assert parent.end_in_ply == 1
    assert parent.q[0] == NEG_INF  # blocked like a real loss


def test_probe_respects_min_ply_and_upgrade_to_real(ttt):
    oracle = TableOracle(ttt, min_ply=4)
    solver = TerminalSolver(oracle)
    assert oracle.probe(ttt.initial_state()) is None

    state = ttt.initial_state()
    for move in (0, 4, 1, 5):  # ply 4, X mates with 2
        state = ttt.apply(state, move)
    assert oracle.probe(state) == SolverStatus.TB_WIN

    store = GraphStore()
    node = expanded_node(store, actions=list(ttt.legal_actions(state)))
    node.state = state
    solver.probe_expanded(node)
    assert node.status == SolverStatus.TB_WIN
    assert node.end_in_ply == 0

    # a real proof upgrades the TB status in place
    idx = node.actions.index(2)
    mate = attach_child(store, node, idx, status=SolverStatus.LOSS, eip=0)
    solver.note_link(node, mate)
    assert node.status == SolverStatus.WIN
    assert node.end_in_ply == 1


def test_real_proof_outranks_a_later_tb_derivation():
    solver = TerminalSolver()
    store = GraphStore()
    parent = expanded_node(store, actions=[0, 1])
    real = attach_child(store, parent, 0, status=SolverStatus.LOSS, eip=0)
    solver.note_link(parent, real)
    assert parent.status == SolverStatus.WIN
    tb = attach_child(store, parent, 1, status=SolverStatus.TB_LOSS, eip=0)
    solver.note_link(parent, tb)
    assert parent.status == SolverStatus.WIN  # stays real
    assert is_real(parent.status)


def test_probe_skips_already_solved_nodes(ttt):
    solver = TerminalSolver(TableOracle(ttt))
    store = GraphStore()
    node = expanded_node(store, actions=[0])
    node.status = SolverStatus.WIN
    node.end_in_ply = 3
    solver.probe_expanded(node)
    assert node.status == SolverStatus.WIN
    assert node.end_in_ply == 3


def test_selection_signals_when_everything_is_pruned(ttt):
    engine = SearchEngine(ttt, UniformEvaluator(ttt), SearchConfig())
    node = expanded_node(engine.store, actions=[0, 1])
    attach_child(engine.store, node, 0, status=SolverStatus.TB_LOSS)
    attach_child(engine.store, node, 1, status=SolverStatus.LOSS)
    engine.solver.propagate(node)
    assert node.q == [NEG_INF, NEG_INF]
    assert engine._select_index(node) < 0


def test_solved_move_takes_the_fastest_mate():
    store = GraphStore()
    node = expanded_node(store, actions=[10, 11, 12])
    for idx, eip in enumerate((3, 1, 5)):
        attach_child(store, node, idx, status=SolverStatus.LOSS, eip=eip)
    node.status = SolverStatus.WIN
    node.end_in_ply = 2
    assert solved_move(node) == 11


def test_solved_move_resists_longest_when_lost():
    store = GraphStore()
    node = expanded_node(store, actions=[0, 1])
    attach_child(store, node, 0, status=SolverStatus.WIN, eip=2)
    attach_child(store, node, 1, status=SolverStatus.WIN, eip=8)
    node.status = SolverStatus.LOSS
    node.end_in_ply = 9
    assert solved_move(node) == 1


def test_solved_move_prefers_the_most_visited_draw():
    store = GraphStore()
    node = expanded_node(store, actions=[0, 1, 2])
    attach_child(store, node, 0, status=SolverStatus.DRAW, eip=2)
    attach_child(store, node, 1, status=SolverStatus.WIN, eip=4)  # not drawing
    attach_child(store, node, 2, status=SolverStatus.DRAW, eip=6)
    node.en = [5, 9, 7]
    node.status = SolverStatus.DRAW
    node.end_in_ply = 3
    assert solved_move(node) == 2


def test_solved_move_gives_a_tie_to_the_first_edge():
    # The first stored edge, not the lower action id, wins every tie.
    store = GraphStore()
    won = expanded_node(store, actions=[7, 5, 3])
    attach_child(store, won, 0, status=SolverStatus.WIN, eip=1)  # carries no proof
    attach_child(store, won, 1, status=SolverStatus.LOSS, eip=2)
    attach_child(store, won, 2, status=SolverStatus.LOSS, eip=2)
    won.status = SolverStatus.WIN
    won.end_in_ply = 3
    assert solved_move(won) == 5

    lost = expanded_node(store, actions=[9, 2])
    attach_child(store, lost, 0, status=SolverStatus.WIN, eip=4)
    attach_child(store, lost, 1, status=SolverStatus.WIN, eip=4)
    lost.status = SolverStatus.LOSS
    lost.end_in_ply = 5
    assert solved_move(lost) == 9

    drawn = expanded_node(store, actions=[8, 1, 4])
    attach_child(store, drawn, 0, status=SolverStatus.DRAW, eip=2)
    attach_child(store, drawn, 1, status=SolverStatus.WIN, eip=2)  # not drawing
    attach_child(store, drawn, 2, status=SolverStatus.TB_DRAW, eip=0)
    drawn.en = [6, 9, 6]
    drawn.status = SolverStatus.DRAW
    drawn.end_in_ply = 3
    assert solved_move(drawn) == 8


def test_solved_move_error_cases():
    store = GraphStore()
    unsolved = expanded_node(store, actions=[0])
    assert solved_move(unsolved) is None

    probe_only = expanded_node(store, actions=[0, 1])
    probe_only.status = SolverStatus.TB_WIN
    assert solved_move(probe_only) is None

    # a real WIN cannot cash in a TB-only proof
    mixed = expanded_node(store, actions=[0])
    attach_child(store, mixed, 0, status=SolverStatus.TB_LOSS, eip=0)
    mixed.status = SolverStatus.WIN
    mixed.end_in_ply = 1
    assert solved_move(mixed) is None


def test_a_real_proof_survives_a_tb_rederivation():
    # Re-derived from its children the node is only TB_WIN; the real proof
    # it already holds is the stronger one and stays.
    solver = TerminalSolver()
    store = GraphStore()
    node = expanded_node(store, actions=[0, 1])
    attach_child(store, node, 0, status=SolverStatus.TB_LOSS, eip=2)
    attach_child(store, node, 1, status=SolverStatus.WIN, eip=1)
    node.status = SolverStatus.WIN
    node.end_in_ply = 5
    assert not solver._recompute(node)
    assert (node.status, node.end_in_ply) == (SolverStatus.WIN, 5)
    assert node.q[0] == NEG_INF  # the TB_LOSS child is pruned all the same


def _rule_list(kids):
    """What the module docstring's rules derive from these (status,
    END_IN_PLY) children (None: unresolved): (the status and END_IN_PLY they
    prove, or None; the live edges; the pruned edges)."""
    S = SolverStatus
    known = {j: kid for j, kid in enumerate(kids) if kid and kid[0] != S.UNKNOWN}
    live = tuple(j for j, kid in enumerate(kids)
                 if not kid or kid[0] in (S.UNKNOWN, S.TB_WIN, S.TB_DRAW))
    pruned = [j for j, (st, _) in known.items() if st in (S.LOSS, S.TB_LOSS)]

    def shortest(status):
        eips = [eip for st, eip in known.values() if st == status]
        return min(eips) if eips else None

    every = len(known) == len(kids)
    new = None
    if shortest(S.LOSS) is not None:
        new = S.WIN, shortest(S.LOSS) + 1
    elif shortest(S.TB_LOSS) is not None:
        new = S.TB_WIN, shortest(S.TB_LOSS) + 1
    elif every and shortest(S.DRAW) is not None:
        new = S.DRAW, shortest(S.DRAW) + 1
    elif every and shortest(S.TB_DRAW) is not None:
        new = S.TB_DRAW, shortest(S.TB_DRAW) + 1
    elif every:
        real = all(st == S.WIN for st, _ in known.values())
        new = S.LOSS if real else S.TB_LOSS, max(eip for _, eip in known.values()) + 1
    return new, live, pruned


def test_recompute_matches_the_rule_list():
    # Every parent status over every 1-3 children, each unresolved, UNKNOWN
    # or solved, at END_IN_PLY 0-2. A derived status of another outcome
    # class is a contradiction; a real proof outranks a TB derivation.
    kinds = [None] + [(status, eip) for status in SolverStatus for eip in range(3)]
    solver = TerminalSolver()
    store = GraphStore()
    cases = 0
    for k in (1, 2, 3):
        for kids in itertools.product(kinds, repeat=k):
            new, live, pruned = _rule_list(kids)
            q = [NEG_INF if j in pruned else 0.5 for j in range(k)]
            p = [1.0 / k] * k  # the solver never writes a prior
            children = []
            for kid in kids:
                child = None
                if kid:
                    child = Node(None)
                    child.status, child.end_in_ply = kid
                children.append(child)
            for old in [(s, 2 if s else 0) for s in SolverStatus]:  # UNKNOWN is 0
                node = Node(None)
                store.attach_edges(node, list(range(k)), [1.0 / k] * k, 0.5)
                node.child = children
                node.status, node.end_in_ply = old
                cases += 1
                if new and old[0] and STATUS_VALUE[old[0]] != STATUS_VALUE[new[0]]:
                    with pytest.raises(SolverContradictionError):
                        solver._recompute(node)
                    continue
                keep = not new or new == old or is_real(old[0]) and not is_real(new[0])
                assert solver._recompute(node) is not keep, (old, kids)
                assert (node.status, node.end_in_ply) == (old if keep else new), (old, kids)
                assert (tuple(node.live), node.q, node.p) == (live, q, p), (old, kids)
    assert cases == 78_078


def test_a_table_oracle_probes_nothing_below_its_min_ply():
    env = make_env("nim:3,4,5")
    config = SearchConfig(budget_amount=300, endgame_oracle="table:nim:3,4,5:3", seed=1)
    engine = SearchEngine(env, UniformEvaluator(env), config)
    oracle = engine.solver.endgame_oracle
    answers = []
    real_probe = oracle.probe

    def probe(state):
        answers.append((state.ply, real_probe(state)))
        return answers[-1][1]

    oracle.probe = probe
    engine.reset(env.initial_state())
    engine.search()
    shallow = [status for ply, status in answers if ply < 3]
    deep = [status for ply, status in answers if ply >= 3]
    assert shallow and deep
    assert all(status is None for status in shallow)
    assert all(status is not None for status in deep)  # the table is complete


def test_tb_win_may_cash_a_tb_proof():
    store = GraphStore()
    node = expanded_node(store, actions=[4, 6])
    attach_child(store, node, 0, status=SolverStatus.TB_LOSS, eip=2)
    attach_child(store, node, 1, status=SolverStatus.TB_LOSS, eip=0)
    node.status = SolverStatus.TB_WIN
    node.end_in_ply = 1
    assert solved_move(node) == 6


def test_make_endgame_oracle_specs(ttt):
    assert make_endgame_oracle(None, ttt) is None
    assert make_endgame_oracle("none", ttt) is None
    assert make_endgame_oracle("", ttt) is None
    nim = make_env("nim:3,4,5")
    assert isinstance(make_endgame_oracle("nim-xor", nim), NimXorOracle)
    oracle = make_endgame_oracle("table:tictactoe:4", ttt)
    assert isinstance(oracle, TableOracle)
    assert oracle.min_ply == 4
    assert make_endgame_oracle("table", ttt).min_ply == 0
    assert make_endgame_oracle("table:tictactoe", ttt).min_ply == 0
    # Nim ids carry a colon of their own
    oracle = make_endgame_oracle("table:nim:3,4,5:2", nim)
    assert oracle.env is nim and oracle.min_ply == 2
    assert make_endgame_oracle("table:nim:3,4,5", nim).min_ply == 0
    with pytest.raises(ValueError):
        make_endgame_oracle("dtz", ttt)
    with pytest.raises(ValueError, match="nim-xor.*'tictactoe'"):
        make_endgame_oracle("nim-xor", ttt)
    with pytest.raises(ValueError, match="'table:tictactoe'.*'nim:3,4,5'"):
        make_endgame_oracle("table:tictactoe", nim)
    with pytest.raises(ValueError, match="'table:nim:3,4'.*'nim:3,4,5'"):
        make_endgame_oracle("table:nim:3,4", nim)
    with pytest.raises(ValueError, match="min_ply"):
        make_endgame_oracle("table:tictactoe:four", ttt)
    # nothing after a ':' is an error, as in a game id, not a table from ply 0
    for spec, env in (("table:", ttt), ("table:tictactoe:", ttt), ("table:nim:3,4,5:", nim)):
        with pytest.raises(ValueError, match=f"endgame oracle '{spec}': nothing after ':'"):
            make_endgame_oracle(spec, env)


def test_nim_xor_oracle_probe():
    env = make_env("nim:3,4,5")
    oracle = NimXorOracle()
    assert oracle.probe(env.initial_state()) == SolverStatus.TB_WIN
    balanced = env.apply(env.initial_state(), 1)  # take 2 from pile 0
    assert balanced.piles == (1, 4, 5)
    assert oracle.probe(balanced) == SolverStatus.TB_LOSS
