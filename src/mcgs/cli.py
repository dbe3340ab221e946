"""Command-line front end: search, match, scaling, solve.

Config files are flat key=value lines ('#' comments allowed). Match files
address the two engines with engineA. / engineB. prefixes:

    game = nim:3,4,5
    evaluatorA = deceptive
    engineA.budget = evaluations
    engineA.budget_amount = 256
    engineB.transpositions = false

Settings stay text until the from_dict of their config, or _int, parses
them. Exit status is 0 on success; 1 on bad settings or input, with an
error line on stderr that names the key or flag of a value that does not
parse, from a flag or a file alike; 2 on a malformed command shape
(argparse's usage error: an unknown subcommand, flag or choice, or two
budget flags).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from dataclasses import fields

from .arena import MatchConfig, move_log, play_match, scaling_report
from .envs import make_env
from .evaluators import make_evaluator
from .oracle import OracleLimitError, solved_table
from .search import ENHANCEMENTS, SearchConfig, run_search

# Historic short names; any other field x_y is --x-y, or --no-x-y for a toggle.
_FLAG_NAMES = {"epsilon_greedy": "--eps-greedy", "epsilon_checks": "--eps-checks",
               "mini_batch_size": "--mini-batch"}
# The budget flags' dests and the budget kind each one selects.
_BUDGET_FLAGS = {"budget_sims": "simulations", "budget_evals": "evaluations",
                 "budget_ms": "milliseconds"}
# A match file's keys outside the engine sections and the MatchConfig field of each.
_MATCH_KEYS = {"evaluatorA": "evaluator_a", "evaluatorB": "evaluator_b",
               **{key: key for key in ("game", "opening_plies", "opening_count", "seed")}}


def _add_engine_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("engine")
    for spec in fields(SearchConfig):
        flag = spec.name.replace("_", "-")
        if spec.type == "bool":  # --no-x-y clears the toggle
            group.add_argument(f"--no-{flag}", dest=spec.name, action="store_false", default=None)
        elif spec.name not in ("budget", "budget_amount"):  # the budget flags set these
            group.add_argument(_FLAG_NAMES.get(spec.name, f"--{flag}"), dest=spec.name,
                               default=None)
    group.add_argument("--no-explore", action="store_true",
                       help="disable both exploration mechanisms")
    group.add_argument("--plain", action="store_true",
                       help="tree-PUCT baseline: all enhancements off")
    budget = group.add_mutually_exclusive_group()
    for dest in _BUDGET_FLAGS:
        budget.add_argument("--" + dest.replace("_", "-"), default=None)


def _config_from_args(args) -> SearchConfig:
    # Only the settings given, as text; from_dict parses them and fills in the defaults.
    data = _read_kv(args.config) if getattr(args, "config", None) else {}
    for spec in fields(SearchConfig):
        value = getattr(args, spec.name, None)  # a budget field is never a dest
        if value is not None:
            data[spec.name] = value
    if args.no_explore:
        data["eps_greedy"] = False
        data["check_enhance"] = False
    if args.plain:
        data.update(dict.fromkeys(ENHANCEMENTS, False))
    for dest, kind in _BUDGET_FLAGS.items():  # argparse lets one at most through
        if getattr(args, dest) is not None:
            data["budget"], data["budget_amount"] = kind, getattr(args, dest)
    return SearchConfig.from_dict(data)


def _read_kv(path: str) -> dict:
    """The file's key = value pairs; a malformed line or a repeated key is an error."""
    data = {}
    first_line = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key = value")
            key, value = (part.strip() for part in line.split("=", 1))
            if key in first_line:
                raise ValueError(f"{path}:{lineno}: key {key!r} is already set on line "
                                 f"{first_line[key]}")
            first_line[key] = lineno
            data[key] = value
    return data


def _parse_match_file(path: str) -> MatchConfig:
    """Route each key of the file to the from_dict that parses it."""
    engines: dict[str, dict] = {"engineA.": {}, "engineB.": {}}
    data = {}
    for key, value in _read_kv(path).items():
        if key[8:] == "seed" and key[:8] in engines:
            raise ValueError(f"match config key {key!r}: engine seeds come from the match seed")
        if key[:8] in engines:
            engines[key[:8]][key[8:]] = value
        elif key in _MATCH_KEYS:
            data[_MATCH_KEYS[key]] = value
        else:
            raise ValueError(f"unknown match config key {key!r}")
    data["engine_a"] = SearchConfig.from_dict(engines["engineA."], "engineA.")
    data["engine_b"] = SearchConfig.from_dict(engines["engineB."], "engineB.")
    return MatchConfig.from_dict(data)


def _int(flag: str, text: str) -> int:
    """The integer of a flag's text; a bad one is an error naming the flag and the text."""
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"{flag}: {text!r} is not an integer") from None


def _write(text: str, out: str | None) -> None:
    """Write text to the file `out`, or to stdout when no file is named."""
    if out:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit(payload, out: str | None, pretty: bool) -> None:
    _write(json.dumps(payload, indent=2 if pretty else None) + "\n", out)


def _cmd_search(args) -> int:
    env = make_env(args.game)
    config = _config_from_args(args)
    state = env.initial_state()
    if args.moves:
        for action in [_int("--moves", token) for token in args.moves.split(",")]:
            if env.terminal_value(state) is not None:
                raise ValueError(f"move {action}: the game is already over")
            state = env.apply(state, action)
    evaluator = make_evaluator(args.evaluator, env)
    result = run_search(env, evaluator, state, config)
    payload = result.to_dict()
    if not args.mem_stats:
        payload.pop("memory")
    _emit(payload, args.out, args.pretty)
    return 0


def _cmd_match(args) -> int:
    config = _parse_match_file(args.config)
    result = play_match(config)
    _emit(result.to_dict(), args.out, args.pretty)
    if args.log:
        _write(move_log(result, config.game), args.log)
    # The records keep the forfeits; an engine failure still fails the command.
    forfeits = [g for g in result.games if g.forfeited_by is not None]
    if forfeits:
        print(f"error: {len(forfeits)} of {len(result.games)} games forfeited; "
              f"first: {forfeits[0].error}", file=sys.stderr)
        return 1
    return 0


def _cmd_scaling(args) -> int:
    config = _config_from_args(args)
    budgets = [_int("--budgets", token) for token in args.budgets.split(",")]
    rows = scaling_report(args.game, config, budgets,
                          opening_count=_int("--openings", args.openings),
                          opening_plies=_int("--plies", args.plies),
                          evaluator=args.evaluator, seed=config.seed)
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(rows[0].keys()))
    writer.writeheader()
    writer.writerows(rows)
    _write(buf.getvalue(), args.out)
    return 0


def _cmd_solve(args) -> int:
    env = make_env(args.game)
    limit = None if args.limit is None else _int("--limit", args.limit)
    table = solved_table(env, node_limit=limit)
    entries = [
        {
            **{field: list(value) if isinstance(value, tuple) else value
               for field, value in state._asdict().items()},
            "outcome": entry.outcome.name,
            "distance": entry.distance,
            "optimal_actions": list(entry.optimal_actions),
        }
        for state, entry in sorted(table.items())
    ]
    _emit({"game": env.game_id, "states": len(entries), "entries": entries},
          args.out, args.pretty)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mcgs",
                                     description="graph search engine tools")
    sub = parser.add_subparsers(dest="command", required=True)

    p_search = sub.add_parser("search", help="search one position, emit JSON")
    p_search.add_argument("--game", default="tictactoe")
    p_search.add_argument("--moves", default="",
                          help="comma-separated actions applied from the initial state")
    p_search.add_argument("--evaluator", default="heuristic",
                          choices=["uniform", "heuristic", "deceptive", "oracle"])
    p_search.add_argument("--config", default=None, help="key=value config file")
    p_search.add_argument("--mem-stats", action="store_true",
                          help="include the store memory report in the output")
    p_search.add_argument("--pretty", action="store_true")
    p_search.add_argument("--out", default=None)
    _add_engine_flags(p_search)
    p_search.set_defaults(func=_cmd_search)

    p_match = sub.add_parser("match", help="engine-vs-engine match from a config file")
    p_match.add_argument("--config", required=True)
    p_match.add_argument("--out", default=None)
    p_match.add_argument("--log", default=None, help="write a per-game move log")
    p_match.add_argument("--pretty", action="store_true")
    p_match.set_defaults(func=_cmd_match)

    p_scaling = sub.add_parser("scaling", help="budget scaling report as CSV")
    p_scaling.add_argument("--game", default="tictactoe")
    p_scaling.add_argument("--budgets", default="32,64,128",
                           help="ascending comma-separated budget amounts")
    p_scaling.add_argument("--openings", default="10")
    p_scaling.add_argument("--plies", default="2")
    p_scaling.add_argument("--evaluator", default="heuristic")
    p_scaling.add_argument("--config", default=None)
    p_scaling.add_argument("--out", default=None)
    _add_engine_flags(p_scaling)
    p_scaling.set_defaults(func=_cmd_scaling)

    p_solve = sub.add_parser("solve", help="dump the brute-force solution table")
    p_solve.add_argument("--game", default="tictactoe")
    p_solve.add_argument("--limit", default=None,
                         help="abort if the state count exceeds this")
    p_solve.add_argument("--pretty", action="store_true")
    p_solve.add_argument("--out", default=None)
    p_solve.set_defaults(func=_cmd_solve)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, OracleLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
