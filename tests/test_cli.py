"""Command-line interface: parsing, config layering, subcommand output."""

import csv
import json
import os
import subprocess
import sys

import pytest

from mcgs.cli import _config_from_args, build_parser, main
from mcgs.evaluators import Evaluation
from mcgs.search import SearchConfig

from helpers import FixedEvaluator


def parse(argv):
    return build_parser().parse_args(argv)


# ---------------------------------------------------------------- parsing


def test_missing_subcommand_exits_2():
    with pytest.raises(SystemExit) as err:
        main([])
    assert err.value.code == 2


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as err:
        main(["tournament"])
    assert err.value.code == 2


def test_unknown_evaluator_rejected_by_argparse():
    with pytest.raises(SystemExit) as err:
        main(["search", "--evaluator", "gnn"])
    assert err.value.code == 2


def test_budget_flags_are_mutually_exclusive():
    with pytest.raises(SystemExit) as err:
        main(["search", "--budget-sims", "10", "--budget-evals", "10"])
    assert err.value.code == 2


def test_defaults_without_flags():
    config = _config_from_args(parse(["search"]))
    assert config.budget == "simulations"
    assert config.budget_amount == 800
    assert config.transpositions and config.terminal_solver
    assert config.eps_greedy and config.check_enhance and config.q_boost


# Every engine value flag: (flag, argument, SearchConfig field, parsed value).
VALUE_FLAGS = [
    ("--q-epsilon", "0.05", "q_epsilon", 0.05),
    ("--q-weight", "1.5", "q_weight", 1.5),
    ("--eps-greedy", "0.2", "epsilon_greedy", 0.2),
    ("--eps-checks", "0.3", "epsilon_checks", 0.3),
    ("--c-puct-init", "1.25", "c_puct_init", 1.25),
    ("--c-puct-base", "500", "c_puct_base", 500.0),
    ("--node-tau", "1.1", "node_tau", 1.1),
    ("--tau", "0.7", "tau", 0.7),
    ("--mini-batch", "4", "mini_batch_size", 4),
    ("--virtual-loss", "2", "virtual_loss", 2.0),
    ("--q-init", "0.5", "q_init", 0.5),
    ("--dirichlet-epsilon", "0.25", "dirichlet_epsilon", 0.25),
    ("--dirichlet-alpha", "0.5", "dirichlet_alpha", 0.5),
    ("--seed", "9", "seed", 9),
    ("--capacity", "1000", "capacity", 1000),
    ("--endgame-oracle", "nim-xor", "endgame_oracle", "nim-xor"),
]

# Every engine toggle flag and the SearchConfig field it clears.
TOGGLE_FLAGS = [
    ("--no-transpositions", "transpositions"),
    ("--no-terminal-solver", "terminal_solver"),
    ("--no-eps-greedy", "eps_greedy"),
    ("--no-check-enhance", "check_enhance"),
    ("--no-q-boost", "q_boost"),
    ("--no-stop-when-solved", "stop_when_solved"),
]


@pytest.mark.parametrize("flag,text,field,value", VALUE_FLAGS, ids=[f[0] for f in VALUE_FLAGS])
def test_value_flags_override_defaults(flag, text, field, value):
    config = _config_from_args(parse(["search", flag, text]))
    assert getattr(config, field) != getattr(SearchConfig(), field)
    assert getattr(config, field) == value
    assert type(getattr(config, field)) is type(value)


def test_budget_flags_select_budget_kind():
    assert _config_from_args(parse(["search", "--budget-evals", "128"])).budget == "evaluations"
    config = _config_from_args(parse(["search", "--budget-ms", "50"]))
    assert config.budget == "milliseconds"
    assert config.budget_amount == 50


@pytest.mark.parametrize("flag,field", TOGGLE_FLAGS, ids=[f[0] for f in TOGGLE_FLAGS])
def test_toggle_flags_clear_features(flag, field):
    config = _config_from_args(parse(["search", flag]))
    assert getattr(config, field) is False
    for _, other in TOGGLE_FLAGS:  # the rest keep their defaults
        assert getattr(config, other) is (other != field)


def test_no_explore_clears_both_branch_mechanisms():
    config = _config_from_args(parse(["search", "--no-explore"]))
    assert not config.eps_greedy
    assert not config.check_enhance
    assert config.transpositions and config.terminal_solver and config.q_boost


def test_plain_clears_all_five_enhancements():
    config = _config_from_args(parse(["search", "--plain"]))
    assert not config.transpositions
    assert not config.terminal_solver
    assert not config.eps_greedy
    assert not config.check_enhance
    assert not config.q_boost
    assert config.stop_when_solved  # not an enhancement


# ------------------------------------------------------------ config files


def test_config_file_sets_values(tmp_path):
    path = tmp_path / "engine.cfg"
    path.write_text("tau = 0.7  # move sampling\n\nmini_batch_size = 4\n")
    config = _config_from_args(parse(["search", "--config", str(path)]))
    assert config.tau == 0.7
    assert config.mini_batch_size == 4


def test_flags_override_config_file(tmp_path):
    path = tmp_path / "engine.cfg"
    path.write_text("tau = 0.7\n")
    args = parse(["search", "--config", str(path), "--tau", "0.2"])
    assert _config_from_args(args).tau == 0.2


def test_malformed_config_line_exits_1(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text("tau 0.7\n")
    assert main(["search", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "bad.cfg:1" in err


@pytest.mark.parametrize("key,value", [
    ("simulations", "100"),
    ("value_min", "-2"),  # the value range is fixed to the outcome range
    ("value_max", "2"),
])
def test_unknown_config_key_exits_1(tmp_path, capsys, key, value):
    path = tmp_path / "bad.cfg"
    path.write_text(f"{key} = {value}\n")
    assert main(["search", "--config", str(path)]) == 1
    assert key in capsys.readouterr().err


def test_duplicate_config_key_exits_1_naming_both_lines(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text("budget_amount = 50\n# a second run\nbudget_amount = 60\n")
    assert main(["search", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "bad.cfg:3: key 'budget_amount' is already set on line 1" in err


def test_missing_config_file_exits_1(tmp_path, capsys):
    assert main(["search", "--config", str(tmp_path / "absent.cfg")]) == 1
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("command, text, argv, named", [
    ("search", "mini_batch_size = abc\n", [], "error: config key 'mini_batch_size'"),
    ("search", "transpositions = maybe\n", [], "transpositions"),
    ("match", "game = nim:1,1\nopening_count = x\n", [], "opening_count"),
    ("search", "", ["--game", "nim:3,x"], "nim:3,x"),
    ("match", "game = nim:1,1\nengineA.mini_batch_size = x\n", [],
     "config key 'engineA.mini_batch_size': "),
    ("match", "game = nim:1,1\nengineB.q_boost = maybe\n", [], "config key 'engineB.q_boost': "),
    ("scaling", "", ["--budgets", "8,x"], "error: --budgets: 'x' is not an integer"),
    ("search", "", ["--moves", "4,banana"], "error: --moves: 'banana' is not an integer"),
    ("match", "game = nim:1,1\nengineB.budget_amount = 0\n", [],
     "error: engineB.budget_amount must be >= 1"),
    ("match", "game = nim:1,1\nengineA.epsilon_greedy = 2\n", [],
     "error: engineA.epsilon_greedy must lie in [0, 1]"),
    ("search", "budget_amount = 0\n", [], "error: budget_amount must be >= 1"),
    ("search", "tau = -1\n", [], "error: tau must be >= 0"),
    ("match", "game = nim:1,1\nengineA.simulations = 3\n", [], "engineA.simulations"),
    ("match", "game = nim:1,1\nrounds = 3\n", [], "rounds"),
    ("search", "", ["--q-weight", "-10"], "error: q_weight must be >= 0"),
    ("search", "", ["--q-epsilon", "-1"], "error: q_epsilon must be >= 0"),
    ("search", "", ["--dirichlet-epsilon", "0.5", "--dirichlet-alpha", "0"],
     "error: dirichlet_alpha must be > 0"),
    ("match", "game = nim:1,1\nengineA.dirichlet_epsilon = 0.25\nengineA.dirichlet_alpha = 0\n",
     [], "error: engineA.dirichlet_alpha must be > 0"),
    ("search", "", ["--dirichlet-alpha", "0"], "error: dirichlet_alpha must be > 0"),
    ("search", "", ["--game", "tictactoe:9"], "error: game id 'tictactoe:9'"),
    ("search", "", ["--game", "nim:"], "error: game id 'nim:'"),
    ("search", "", ["--game", "nim:3,-1"], "error: game id 'nim:3,-1'"),
    ("search", "", ["--endgame-oracle", "table:"], "error: endgame oracle"),
    ("search", "", ["--game", "tictactoe", "--endgame-oracle", "table:tictactoe:"],
     "error: endgame oracle"),
    # nim:1,1,1 always ends within three plies, so every draw of four runs dry.
    ("match", "game = nim:1,1,1\nopening_plies = 4\n", [],
     "error: opening_plies 4: no line of 4 plies from the start of nim:1,1,1 "
     "leaves the game unfinished\n"),
    # A flag's value takes the config file's path, so it fails the same way.
    ("search", "", ["--tau", "abc"],
     "error: config key 'tau': could not convert string to float: 'abc'\n"),
    ("search", "", ["--mini-batch", "1.5"], "error: config key 'mini_batch_size': "),
    ("search", "", ["--seed", "1e3"], "error: config key 'seed': "),
    ("search", "", ["--budget-sims", "x"], "error: config key 'budget_amount': "),
    ("search", "", ["--budget-ms", "x"], "error: config key 'budget_amount': "),
    ("scaling", "", ["--openings", "x"], "error: --openings: 'x' is not an integer\n"),
    ("scaling", "", ["--plies", "x"], "error: --plies: 'x' is not an integer\n"),
    ("solve", None, ["--limit", "x"], "error: --limit: 'x' is not an integer\n"),
], ids=["int_key", "bool_key", "match_key", "game_id", "engine_a_key", "engine_b_key",
        "budgets", "moves", "engine_b_range", "engine_a_probability", "range",
        "tau_range", "match_engine_unknown_key", "match_unknown_top_key", "q_weight",
        "q_epsilon", "dirichlet_alpha", "engine_a_alpha", "alpha_alone", "game_id_argument",
        "game_id_empty", "game_id_negative_pile", "oracle_table_empty",
        "oracle_table_game_empty", "openings_run_dry", "tau_flag", "mini_batch_flag",
        "seed_flag", "budget_sims_flag", "budget_ms_flag", "openings_flag", "plies_flag",
        "limit_flag"])
def test_unparsable_setting_exits_1_naming_it(tmp_path, capsys, command, text, argv, named):
    path = tmp_path / "bad.cfg"
    if text is not None:  # solve takes no config file
        path.write_text(text)
        argv = ["--config", str(path), *argv]
    assert main([command, *argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert named in err


def test_zero_c_puct_base_exits_1(capsys):
    assert main(["search", "--c-puct-base", "0", "--budget-sims", "8"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "c_puct_base" in err


@pytest.mark.parametrize("argv,key", [
    (["--game", "tictactoe", "--c-puct-init=-1e308", "--budget-sims", "300"], "c_puct_init"),
    (["--game", "tictactoe", "--c-puct-base=5e-324", "--evaluator", "oracle",
      "--budget-sims", "300"], "c_puct_base"),
    (["--game", "nim:3,4,5", "--evaluator", "deceptive", "--moves", "5,13,7",
      "--budget-sims", "32", "--q-weight", "1.79e308"], "q_weight"),
    (["--game", "tictactoe", "--dirichlet-epsilon", "0.5", "--dirichlet-alpha", "1e308",
      "--budget-sims", "50"], "dirichlet_alpha"),
    (["--game", "tictactoe", "--mini-batch", "64", "--virtual-loss", "1e308",
      "--budget-sims", "3000"], "virtual_loss"),
])
def test_settings_past_their_float_bounds_exit_1_naming_the_key(argv, key, capsys):
    assert main(["search"] + argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {key} must ") and not captured.out


def test_huge_dirichlet_alpha_exits_1_in_a_fresh_process_within_20_s():
    # A huge alpha once hung the gamma sampler: the timeout turns a hang into a failure.
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    argv = ["search", "--game", "tictactoe", "--dirichlet-epsilon", "0.5",
            "--dirichlet-alpha", "1e308", "--budget-sims", "50"]
    done = subprocess.run([sys.executable, "-m", "mcgs.cli", *argv], capture_output=True,
                          text=True, timeout=20, env=env)
    assert done.returncode == 1
    assert done.stderr.startswith("error: dirichlet_alpha") and "Traceback" not in done.stderr


@pytest.mark.parametrize("flag,value", [
    ("--node-tau", "nan"),
    ("--q-weight", "nan"),
    ("--virtual-loss", "inf"),
    ("--c-puct-init", "inf"),
])
def test_non_finite_float_flags_exit_1(flag, value, capsys):
    assert main(["search", flag, value, "--budget-sims", "8"]) == 1
    assert capsys.readouterr().err.startswith("error:")


# ---------------------------------------------------------------- search


def test_search_emits_result_json(capsys):
    code = main(["search", "--game", "leftright:8", "--evaluator", "uniform",
                 "--budget-sims", "64", "--seed", "3"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["game"] == "leftright:8"
    assert payload["selected_action"] == 1
    assert payload["simulations"] >= 1
    assert "memory" not in payload


def test_search_mem_stats_includes_store_report(capsys):
    main(["search", "--game", "leftright:8", "--evaluator", "uniform",
          "--budget-sims", "32", "--mem-stats"])
    payload = json.loads(capsys.readouterr().out)
    assert payload["memory"]["node_count"] >= 1
    assert "tree_equivalent_node_count" in payload["memory"]


def test_search_pretty_prints_indented(capsys):
    main(["search", "--game", "leftright:4", "--evaluator", "uniform",
          "--budget-sims", "16", "--pretty"])
    out = capsys.readouterr().out
    assert out.startswith("{\n  ")
    assert json.loads(out)["game"] == "leftright:4"


def test_search_out_writes_file_and_keeps_stdout_quiet(tmp_path, capsys):
    out = tmp_path / "result.json"
    main(["search", "--game", "leftright:4", "--evaluator", "uniform",
          "--budget-sims", "16", "--out", str(out)])
    assert capsys.readouterr().out == ""
    assert json.loads(out.read_text())["game"] == "leftright:4"


def test_search_moves_shift_the_root(capsys):
    main(["search", "--game", "tictactoe", "--moves", "0,4",
          "--budget-sims", "32", "--seed", "1"])
    payload = json.loads(capsys.readouterr().out)
    assert payload["ply"] == 2
    assert 0 not in payload["actions"]
    assert 4 not in payload["actions"]


@pytest.mark.parametrize("command, text, argv, expected", [
    ("search", "", ["--tau", "0.005", "--budget-sims", "3000"], {}),
    ("search", "", ["--game", "nim:3,4,5", "--plain", "--endgame-oracle", "table",
                    "--budget-sims", "20"], {}),
    ("search", "", ["--game", "nim:3,4,5", "--endgame-oracle", "table:nim:3,4,5:6"], {}),
    ("search", "", ["--game", "tictactoe", "--evaluator", "oracle", "--endgame-oracle", "table",
                    "--budget-sims", "200"], {}),
    ("search", "", ["--plain", "--game", "tictactoe", "--moves", "4,0,1,7,6,2,3,5,8"],
     {"stop_reason": "terminal_root", "root_status": "DRAW"}),
    # Both engines fill their 60-node stores; a forfeit would exit 1.
    ("match", "game = tictactoe\nopening_plies = 1\nopening_count = 3\n"
              "engineA.capacity = 60\nengineA.budget_amount = 200\n"
              "engineB.capacity = 60\nengineB.budget_amount = 200\n", [], {"games": 6}),
], ids=["tiny_tau", "table_oracle_solver_off", "table_oracle_from_ply_6",
        "table_oracle_beside_oracle_evaluator", "terminal_root_draw", "full_node_stores"])
def test_edge_case_runs_exit_0_with_finite_json(tmp_path, capsys, command, text, argv, expected):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    assert main([command, "--config", str(path), *argv]) == 0
    payload = json.loads(capsys.readouterr().out,
                         parse_constant=lambda name: pytest.fail(f"{name} in the output"))
    assert payload.items() >= expected.items()


@pytest.mark.parametrize("argv", [
    ["--moves", "banana"],
    ["--game", "tictactoe", "--moves", "0,3,1,4,2,5"],  # 5 follows X's three in a row
], ids=["banana", "past_the_end"])
def test_search_bad_move_token_exits_1(capsys, argv):
    assert main(["search", *argv]) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_search_with_bad_evaluator_output_exits_1(monkeypatch, capsys):
    bad = FixedEvaluator(Evaluation(float("nan"), [0.05] * 20))
    monkeypatch.setattr("mcgs.cli.make_evaluator", lambda name, env: bad)
    assert main(["search", "--game", "tictactoe", "--budget-sims", "16"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: evaluator 'fixed' returned")
    assert captured.out == ""


def test_endgame_oracle_for_another_game_exits_1(capsys):
    argv = ["search", "--game", "tictactoe", "--endgame-oracle", "nim-xor", "--budget-sims", "8"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: endgame oracle 'nim-xor'")
    assert "tictactoe" in captured.err
    assert captured.out == ""


def test_endgame_oracle_for_another_game_exits_1_with_the_solver_off(capsys):
    argv = ["search", "--game", "tictactoe", "--plain", "--endgame-oracle", "nim-xor",
            "--budget-sims", "8"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: endgame oracle 'nim-xor'")
    assert captured.out == ""


# ----------------------------------------------------------------- match


def write_match_config(path, extra=""):
    path.write_text(
        "game = nim:1,1\n"
        "evaluatorA = uniform\n"
        "evaluatorB = uniform\n"
        "opening_plies = 0\n"
        "opening_count = 1\n"
        "seed = 5\n"
        "engineA.budget = simulations\n"
        "engineA.budget_amount = 16\n"
        "engineB.budget = simulations\n"
        "engineB.budget_amount = 16\n" + extra
    )


def test_match_runs_and_reports(tmp_path, capsys):
    cfg = tmp_path / "match.cfg"
    write_match_config(cfg)
    assert main(["match", "--config", str(cfg)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["games"] == 2
    assert len(payload["records"]) == 2
    # nim:1,1 is a forced loss for the mover, so colors split the points
    assert payload["wins"] == 1 and payload["losses"] == 1
    assert payload["score_rate"] == 0.5


def test_match_log_file(tmp_path, capsys):
    cfg = tmp_path / "match.cfg"
    write_match_config(cfg)
    out = tmp_path / "match.json"
    log = tmp_path / "games.log"
    assert main(["match", "--config", str(cfg), "--out", str(out),
                 "--log", str(log)]) == 0
    assert capsys.readouterr().out == ""
    assert json.loads(out.read_text())["games"] == 2
    lines = log.read_text().splitlines()
    assert len(lines) == 4
    assert lines[0].startswith('[game 1 "nim:1,1" first:A')


class _CrashingEvaluator:
    name = "crash"

    def evaluate(self, state, actions):
        raise RuntimeError("evaluator crashed")


def test_match_with_a_forfeit_writes_its_record_and_exits_1(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr("mcgs.arena.make_evaluator", lambda name, env: _CrashingEvaluator())
    cfg = tmp_path / "match.cfg"
    write_match_config(cfg)
    log = tmp_path / "games.log"
    assert main(["match", "--config", str(cfg), "--log", str(log)]) == 1
    captured = capsys.readouterr()
    payload = json.loads(captured.out)
    assert [g["forfeited_by"] for g in payload["records"]] == ["A", "B"]
    assert len(log.read_text().splitlines()) == 4
    assert captured.err == ("error: 2 of 2 games forfeited; "
                            "first: RuntimeError: evaluator crashed\n")


def test_match_with_another_games_endgame_oracle_exits_1(tmp_path, capsys):
    cfg = tmp_path / "match.cfg"
    write_match_config(cfg, extra="engineA.endgame_oracle = table:tictactoe\n")
    assert main(["match", "--config", str(cfg)]) == 1
    assert capsys.readouterr().err.startswith("error: endgame oracle 'table:tictactoe'")


def test_match_unequal_budgets_exit_1(tmp_path, capsys):
    cfg = tmp_path / "match.cfg"
    write_match_config(cfg)
    cfg.write_text(cfg.read_text().replace("engineB.budget_amount = 16",
                                           "engineB.budget_amount = 32"))
    assert main(["match", "--config", str(cfg)]) == 1
    assert capsys.readouterr().err == "error: engines must receive identical per-move budgets\n"


def test_match_with_no_unfinished_opening_exits_1_naming_the_key(tmp_path, capsys):
    # Every tictactoe game ends within nine plies.
    cfg = tmp_path / "match.cfg"
    cfg.write_text("game = tictactoe\nopening_plies = 10\n")
    assert main(["match", "--config", str(cfg)]) == 1
    captured = capsys.readouterr()
    assert captured.err == ("error: opening_plies 10: no line of 10 plies from the start of "
                            "tictactoe left the game unfinished in 10000 random draws\n")
    assert captured.out == ""


@pytest.mark.parametrize("key", ["engineA.seed", "engineB.seed"])
def test_match_engine_seed_exits_1(tmp_path, capsys, key):
    # play_game seeds every engine from the match seed, so this key would change nothing.
    cfg = tmp_path / "match.cfg"
    write_match_config(cfg, extra=f"{key} = 12345\n")
    assert main(["match", "--config", str(cfg)]) == 1
    assert capsys.readouterr().err == (
        f"error: match config key {key!r}: engine seeds come from the match seed\n")


# --------------------------------------------------------------- scaling


def test_scaling_emits_csv(tmp_path):
    out = tmp_path / "scaling.csv"
    code = main(["scaling", "--game", "leftright:4", "--budgets", "8,16",
                 "--openings", "2", "--plies", "0", "--evaluator", "uniform",
                 "--seed", "1", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == ("budget,evaluations,simulations,early_stops,terminal_trajectories,"
                        "score_vs_reference,node_count,edge_count,"
                        "trajectory_buffer_size,tree_equivalent_node_count,"
                        "transposition_join_count")
    rows = list(csv.DictReader(lines))
    assert [int(r["budget"]) for r in rows] == [8, 16]
    for row in rows:
        assert int(row["simulations"]) >= 1
        assert 0.0 <= float(row["score_vs_reference"]) <= 1.0
        assert int(row["node_count"]) >= 1


@pytest.mark.parametrize("openings, plies, message", [
    ("0", "0", "error: opening_count must be >= 1\n"),
    ("1", "-1", "error: opening_plies must be >= 0\n"),
])
def test_scaling_opening_settings_exit_1_naming_their_key(openings, plies, message, capsys):
    assert main(["scaling", "--game", "leftright:4", "--budgets", "8",
                 "--openings", openings, "--plies", plies,
                 "--evaluator", "uniform"]) == 1
    assert capsys.readouterr().err == message


def test_scaling_rejects_descending_budgets(capsys):
    assert main(["scaling", "--game", "leftright:4", "--budgets", "16,8",
                 "--openings", "1", "--plies", "0",
                 "--evaluator", "uniform"]) == 1
    assert capsys.readouterr().err.startswith("error:")


# ----------------------------------------------------------------- solve


@pytest.mark.parametrize("game, first", [
    ("tictactoe", {"board": [0] * 9, "ply": 0, "outcome": "DRAW", "distance": 9,
                   "optimal_actions": list(range(9))}),
    ("nim:3,4,5", {"piles": [0, 0, 0], "ply": 3, "outcome": "LOSS", "distance": 0,
                   "optimal_actions": []}),
])
def test_solve_entries_carry_the_state_fields_in_state_order(game, first, capsys):
    assert main(["solve", "--game", game]) == 0
    entries = json.loads(capsys.readouterr().out)["entries"]
    assert entries[0] == first
    fields = [k for k in first if k not in ("outcome", "distance", "optimal_actions")]
    states = [[e[k] for k in fields] for e in entries]
    assert states == sorted(states)


def test_solve_dumps_full_table(capsys):
    assert main(["solve", "--game", "leftright:8"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["game"] == "leftright:8"
    assert payload["states"] == 15
    assert len(payload["entries"]) == 15
    entry = payload["entries"][0]
    assert entry == {"pos": -1, "ply": 1, "outcome": "WIN",
                     "distance": 0, "optimal_actions": []}
    states = [(e["pos"], e["ply"]) for e in payload["entries"]]
    assert states == sorted(states)
    assert max(e["distance"] for e in payload["entries"]) == 7
    assert all(e["outcome"] in ("WIN", "LOSS", "DRAW")
               for e in payload["entries"])


def test_solve_handles_games_deeper_than_the_recursion_limit(capsys):
    assert main(["solve", "--game", "leftright:1200"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["states"] == 2399
    assert max(e["distance"] for e in payload["entries"]) == 1199


def test_solve_out_file(tmp_path, capsys):
    out = tmp_path / "table.json"
    assert main(["solve", "--game", "leftright:4", "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert json.loads(out.read_text())["game"] == "leftright:4"


def test_solve_limit_overflow_exits_1(capsys):
    assert main(["solve", "--game", "tictactoe", "--limit", "10"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: oracle node limit 10 exceeded\n"
    assert captured.out == ""


def test_solve_limit_of_the_state_count_passes_and_one_less_fails(capsys):
    # The tictactoe solve holds 5,478 states.
    assert main(["solve", "--game", "tictactoe", "--limit", "5477"]) == 1
    assert capsys.readouterr().err == "error: oracle node limit 5477 exceeded\n"
    assert main(["solve", "--game", "tictactoe", "--limit", "5478"]) == 0
    assert json.loads(capsys.readouterr().out)["states"] == 5478


def test_solve_unknown_game_exits_1(capsys):
    assert main(["solve", "--game", "go"]) == 1
    assert capsys.readouterr().err.startswith("error:")
