"""Command-line interface: generate graphs, solve positions, verify
strategies in batch, play games, and run the acceptance suite.

JSON results go to stdout, diagnostics to stderr.  Exit codes: 0 success,
1 usage error, 2 resource limit, 3 strategy not applicable, 4 aborted
interactive session.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .engine import (
    BLUE,
    COLOR_NAMES,
    DOM,
    PASS,
    PURPLE,
    SEPY,
    ConfigError,
    GameConfig,
    GameState,
    IllegalMoveError,
    Move,
    new_game,
    trace_record,
)
from .formats import (
    ParseError,
    emit_edge_list,
    emit_graph6,
    is_generator_spec,
    parse_edge_list,
    parse_graph6,
    resolve_generator_spec,
)
from .graphs import Graph, GraphError, SubdivisionMap, corpus
from .solver import ResourceLimitError, solve, verify_strategy
from .strategies import NotApplicable, StrategyViolation, get_strategy, strategy_ids

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_RESOURCE = 2
EXIT_NOT_APPLICABLE = 3
EXIT_ABORTED = 4


def _load_graph(spec: str) -> tuple[Graph, SubdivisionMap | None]:
    """A graph source: generator spec, file path, or literal graph6."""
    if is_generator_spec(spec):
        return resolve_generator_spec(spec)
    if os.path.exists(spec):
        try:
            with open(spec, encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise GraphError(f"cannot read graph file {spec!r}: {exc}") from None
        if not text.strip():
            raise ParseError(f"graph file {spec!r} is empty", 0)
        # the first line with data once its comment is cut, as in
        # parse_edge_list; '#' lies outside the graph6 alphabet
        data = (raw.split("#", 1)[0].split() for raw in text.splitlines())
        head = next((parts for parts in data if parts), [])
        if all(part.isdigit() for part in head):
            return parse_edge_list(text), None
        return parse_graph6(text.strip().splitlines()[0]), None
    if ":" in spec:
        # ':' lies outside the graph6 alphabet: a mistyped generator spec
        raise GraphError(f"unknown generator spec {spec!r}")
    return parse_graph6(spec), None


def _config_from_args(args) -> GameConfig:
    return GameConfig(
        variant=args.variant,
        starter=args.start,
        d=args.d,
        s=args.s,
        pass_rights=args.pass_,
    )


GRAPH_HELP = "generator spec, file path, or graph6 line"


def _add_game_flags(p: argparse.ArgumentParser):
    p.add_argument("--variant", choices=["ddg", "bdg"], default="ddg",
                   help="disjoint (ddg) or bicolored (bdg) game")
    p.add_argument("--start", choices=[DOM, SEPY], required=True, help="who moves first")
    p.add_argument("-d", type=int, default=1, help="Dom selections per turn")
    p.add_argument("-s", type=int, default=1, help="Sepy max selections per turn")
    p.add_argument("--pass", dest="pass_", choices=["none", "dom", "sepy"], default="none",
                   help="which player holds pass rights")


def cmd_gen(args) -> int:
    g, _ = _load_graph(args.graph)
    if args.format == "g6":
        print(emit_graph6(g))
    else:
        sys.stdout.write(emit_edge_list(g))
    return EXIT_OK


def cmd_solve(args) -> int:
    g, _ = _load_graph(args.graph)
    config = _config_from_args(args)
    res = solve(config, g)
    print(json.dumps(res.to_json(g, config)))
    return EXIT_OK


def cmd_verify(args) -> int:
    config = _config_from_args(args)
    if bool(args.corpus) == bool(args.graph):
        raise GraphError("give exactly one of --graph and --corpus")
    if args.corpus:
        graphs = [(gr, None) for gr in corpus(args.corpus)]
    else:
        graphs = [_load_graph(args.graph)]
    all_ok = True
    for g, submap in graphs:
        rep = verify_strategy(args.strategy, args.role, config, g, submap=submap)
        print(json.dumps(rep.to_json()))
        all_ok = all_ok and rep.verified
    return EXIT_OK if all_ok else EXIT_USAGE


def _human_move(state: GameState) -> Move:
    board = " ".join(
        f"{v}:{'.' if c == -1 else COLOR_NAMES[c][0]}" for v, c in enumerate(state.colors)
    )
    print(f"[{state.actor} to move] {board}", file=sys.stderr)
    while True:
        print("enter 'v color' or 'pass': ", end="", file=sys.stderr, flush=True)
        line = sys.stdin.readline()
        if not line:
            raise EOFError
        parts = line.split()
        try:
            if parts == ["pass"]:
                mv = PASS
            elif len(parts) == 2:
                color = {"purple": PURPLE, "p": PURPLE, "blue": BLUE, "b": BLUE}[parts[1]]
                mv = Move(int(parts[0]), color)
            else:
                raise ValueError
        except (ValueError, KeyError):
            print("could not parse that move", file=sys.stderr)
            continue
        if not state.status.ongoing or mv not in state.legal_moves():
            print("illegal move here", file=sys.stderr)
            continue
        return mv


def _seat_mover(name: str, role: str, config, g, submap, seed):
    if name == "human":
        return _human_move
    if name == "solver":
        return lambda st: solve(config, g, st).best_move
    strat = get_strategy(name)
    if strat.role is not None and strat.role != role:
        raise NotApplicable(f"strategy {strat.sid} plays {strat.role}, not {role}")
    ctx = strat.prepare(config, g, submap=submap, seed=seed)
    return lambda st: strat.move(st, ctx)


def cmd_play(args) -> int:
    g, submap = _load_graph(args.graph)
    config = _config_from_args(args)
    movers = {
        DOM: _seat_mover(args.dom, DOM, config, g, submap, args.seed),
        SEPY: _seat_mover(args.sepy, SEPY, config, g, submap, args.seed),
    }
    state = new_game(config, g)
    while state.status.ongoing:
        state = state.apply(movers[state.actor](state))
        print(json.dumps(trace_record(state)))
    print(json.dumps({"winner": state.status.winner}))
    return EXIT_OK


def cmd_suite(args) -> int:
    from .acceptance import run_suite

    ok = run_suite(only=args.only)
    return EXIT_OK if ok else EXIT_USAGE


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="domgame",
        description="Disjoint and bicolored domination games: solve, verify, play.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="emit a graph")
    p.add_argument("--graph", required=True)
    p.add_argument("--format", choices=["g6", "edges"], default="g6")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("solve", help="exact winner of a position")
    p.add_argument("--graph", required=True, help=GRAPH_HELP)
    _add_game_flags(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("verify", help="certify a strategy against all opponent play")
    p.add_argument("--strategy", required=True, help=f"one of: {', '.join(strategy_ids())}")
    p.add_argument("--role", choices=[DOM, SEPY], required=True)
    p.add_argument("--graph", help=GRAPH_HELP)
    p.add_argument("--corpus", help="connected:N | isolatefree:N | perfectmatching:N")
    _add_game_flags(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("play", help="play out a game between two seats")
    p.add_argument("--graph", required=True, help=GRAPH_HELP)
    _add_game_flags(p)
    p.add_argument("--dom", required=True, help="strategy id, 'solver', or 'human'")
    p.add_argument("--sepy", required=True, help="strategy id, 'solver', or 'human'")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_play)

    p = sub.add_parser("suite", help="run the acceptance battery")
    p.add_argument("--only", help="run only items whose id contains this substring")
    p.set_defaults(func=cmd_suite)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except (GraphError, ParseError, ConfigError, IllegalMoveError, KeyError) as exc:
        # str() of a KeyError is the repr of its key, quotes and all
        print(f"error: {exc.args[0] if isinstance(exc, KeyError) else exc}", file=sys.stderr)
        return EXIT_USAGE
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except NotApplicable as exc:
        print(f"not applicable: {exc}", file=sys.stderr)
        return EXIT_NOT_APPLICABLE
    except StrategyViolation as exc:
        print(f"strategy violation: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except EOFError:
        print("aborted: end of input", file=sys.stderr)
        return EXIT_ABORTED


if __name__ == "__main__":
    raise SystemExit(main())
