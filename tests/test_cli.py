"""Command-line surface: subcommands, JSON output, exit codes, determinism,
and the interactive seat."""

import io
import json
import re
import sys
from contextlib import redirect_stderr
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from domgame.cli import _human_move, main
from domgame.engine import COLOR_NAMES, DOM, PURPLE, GameConfig, Move, new_game, replay
from domgame.graphs import gen_cycle


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_graph6(capsys):
    code, out, _ = run(capsys, "gen", "--graph", "path:2")
    assert code == 0 and out.strip() == "A_"


def test_gen_edges(capsys):
    code, out, _ = run(capsys, "gen", "--graph", "cycle:4", "--format", "edges")
    assert code == 0
    assert out.splitlines()[0] == "4 4"


def test_solve_cycle8_dom_start(capsys):
    code, out, _ = run(capsys, "solve", "--graph", "cycle:8",
                       "--variant", "ddg", "--start", "dom")
    assert code == 0
    blob = json.loads(out)
    assert blob["winner"] == "sepy"
    assert blob["config"]["start"] == "dom"


def test_solve_union_with_passes(capsys):
    code, out, _ = run(capsys, "solve", "--graph", "union:cycle:4+cycle:8",
                       "--start", "sepy", "--pass", "sepy")
    assert code == 0 and json.loads(out)["winner"] == "sepy"


def test_solve_bdg(capsys):
    code, out, _ = run(capsys, "solve", "--graph", "cycle:8",
                       "--variant", "bdg", "--start", "sepy")
    assert code == 0 and json.loads(out)["winner"] == "dom"


def test_solve_deterministic_output(capsys):
    _, out1, _ = run(capsys, "solve", "--graph", "cycle:6", "--start", "dom")
    _, out2, _ = run(capsys, "solve", "--graph", "cycle:6", "--start", "dom")
    assert out1 == out2


def test_solve_respects_state_cap(capsys, monkeypatch):
    monkeypatch.setenv("DOMGAME_STATE_CAP", "4")
    code, _, err = run(capsys, "solve", "--graph", "cycle:8", "--start", "dom")
    assert code == 2 and "resource" in err


def test_non_integer_state_cap_is_a_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("DOMGAME_STATE_CAP", "abc")
    code, out, err = run(capsys, "solve", "--graph", "cycle:5", "--start", "dom")
    assert code == 1 and out == ""
    assert err.startswith("error:") and "DOMGAME_STATE_CAP" in err


def test_usage_error_on_bad_graph(capsys):
    code, _, err = run(capsys, "solve", "--graph", "tesseract:4", "--start", "dom")
    assert code == 1 and "error" in err


def test_verify_ons_single_graph(capsys):
    code, out, _ = run(capsys, "verify", "--strategy", "ons", "--role", "dom",
                       "--graph", "cycle:5", "--start", "sepy")
    assert code == 0
    assert json.loads(out)["verified"] is True


def _help(capsys, command):
    code, out, _ = run(capsys, command, "--help")
    assert code == 0
    return " ".join(out.split())


def test_game_flags_are_declared_once(capsys):
    solve_help, verify_help, play_help = (_help(capsys, c) for c in ("solve", "verify", "play"))
    flags = (
        "--graph GRAPH generator spec, file path, or graph6 line",
        "--variant {ddg,bdg} disjoint (ddg) or bicolored (bdg) game",
        "--start {dom,sepy} who moves first",
        "-d D Dom selections per turn",
        "-s S Sepy max selections per turn",
        "--pass {none,dom,sepy} which player holds pass rights",
    )
    for flag in flags:
        assert flag in solve_help and flag in verify_help and flag in play_help, flag
    options = set(re.findall(r"(?<![\w-])--?[a-z][\w-]*", solve_help)) - {"-h", "--help"}
    assert options == {"--graph", "--variant", "--start", "--pass", "-d", "-s"}


def test_verify_corpus(capsys):
    code, out, _ = run(capsys, "verify", "--strategy", "ons", "--role", "dom",
                       "--corpus", "connected:4", "--start", "sepy")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 1 + 2 + 6
    assert all(json.loads(line)["verified"] for line in lines)


@pytest.mark.parametrize("spec", ["connected:1", "connected:0", "perfectmatching:1"])
def test_verify_empty_corpus_is_a_usage_error(capsys, spec):
    code, out, err = run(capsys, "verify", "--strategy", "ons", "--role", "dom",
                         "--corpus", spec, "--start", "sepy")
    assert code == 1 and out == ""
    assert err.startswith("error:") and "corpus" in err


def _no_enumeration(n):
    raise AssertionError(f"enumerated n = {n}")


@pytest.mark.parametrize("spec", ["connected:9", "isolatefree:12", "perfectmatching:10"])
def test_verify_corpus_past_the_limit_is_refused_at_once(capsys, monkeypatch, spec):
    monkeypatch.setattr("domgame.graphs.enumerate_graphs", _no_enumeration)
    code, out, err = run(capsys, "verify", "--strategy", "ons", "--role", "dom",
                         "--corpus", spec, "--start", "sepy")
    assert code == 1 and out == ""
    assert err.startswith("error:") and "n <= 8" in err


def test_perfect_matching_corpus_stops_at_an_even_bound(monkeypatch):
    from domgame.graphs import corpus

    # n = 9 has no perfect matching, so this corpus ends at n = 8
    monkeypatch.setattr("domgame.graphs.enumerate_graphs", _no_enumeration)
    with pytest.raises(AssertionError, match="enumerated n = 2"):
        corpus("perfectmatching:9")


def test_verify_not_applicable_exit_code(capsys):
    code, _, err = run(capsys, "verify", "--strategy", "bdg-matching",
                       "--role", "dom", "--graph", "path:3",
                       "--variant", "bdg", "--start", "dom")
    assert code == 3 and "not applicable" in err


def test_verify_failing_strategy_exit_code(capsys):
    code, out, _ = run(capsys, "verify", "--strategy", "greedy", "--role", "dom",
                       "--graph", "cycle:8", "--start", "dom")
    assert code == 1
    blob = json.loads(out)
    assert blob["verified"] is False and blob["counterexample"]


def test_play_cycle_strategy_beats_random(capsys):
    code, out, _ = run(capsys, "play", "--graph", "cycle:8", "--start", "dom",
                       "--dom", "random", "--sepy", "sepy-cycle", "--seed", "1")
    assert code == 0
    lines = [json.loads(l) for l in out.strip().splitlines()]
    assert lines[-1] == {"winner": "sepy"}
    assert len(lines) - 1 <= 4


def test_play_trace_replays(capsys):
    code, out, _ = run(capsys, "play", "--graph", "cycle:6", "--start", "sepy",
                       "--dom", "ons", "--sepy", "random", "--seed", "3")
    assert code == 0
    lines = [json.loads(l) for l in out.strip().splitlines()]
    trace, final = lines[:-1], lines[-1]
    cfg = GameConfig(variant="ddg", starter="sepy")
    end = replay(cfg, gen_cycle(6), trace)
    assert end.status.winner == final["winner"] == "dom"


def test_play_bdg_matching(capsys):
    code, out, _ = run(capsys, "play", "--graph", "complete:4", "--variant", "bdg",
                       "--start", "dom", "--dom", "bdg-matching",
                       "--sepy", "random", "--seed", "2")
    assert code == 0
    assert json.loads(out.strip().splitlines()[-1])["winner"] == "dom"


def test_play_deterministic_given_seed(capsys):
    args = ("play", "--graph", "cycle:8", "--start", "sepy",
            "--dom", "greedy", "--sepy", "greedy", "--seed", "9")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


def test_play_human_seat(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO("0 purple\nbogus\n1 b\n"))
    code, out, err = run(capsys, "play", "--graph", "path:2", "--start", "dom",
                         "--dom", "human", "--sepy", "human")
    assert code == 0
    assert json.loads(out.strip().splitlines()[-1])["winner"] == "dom"
    assert "could not parse" in err


def test_play_human_eof_aborts(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO(""))
    code, _, err = run(capsys, "play", "--graph", "path:2", "--start", "dom",
                       "--dom", "human", "--sepy", "human")
    assert code == 4 and "aborted" in err


# Sepy to move on C5 after Dom's 0 purple, with no pass rights
_HUMAN_STATE = new_game(GameConfig(starter=DOM), gen_cycle(5)).apply(Move(0, PURPLE))
_COLOR_WORDS = ("purple", "p", "blue", "b")


def _not_move_shaped(line):
    parts = line.split()
    return parts != ["pass"] and not (len(parts) == 2 and parts[1] in _COLOR_WORDS)


_BAD_LINES = st.one_of(
    st.text(st.characters(exclude_characters="\n"), max_size=20).filter(_not_move_shaped),
    # vertex 0 is colored and the others are not vertices of C5
    st.builds("{} {}".format, st.sampled_from(["0", "-1", "5", "+9", "1" * 5000]),
              st.sampled_from(_COLOR_WORDS)),
    st.just("pass"),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(_BAD_LINES, max_size=6), st.sampled_from(_HUMAN_STATE.legal_moves()),
       st.booleans(), st.booleans())
def test_fuzz_human_move_reprompts_until_a_legal_move(bad, move, short, ends):
    word = COLOR_NAMES[move.color]
    lines = bad if ends else [*bad, f"{move.vertex} {word[0] if short else word}"]
    stdin = io.StringIO("".join(line + "\n" for line in lines))
    with patch.object(sys, "stdin", stdin), redirect_stderr(io.StringIO()) as err:
        if ends:
            with pytest.raises(EOFError):
                _human_move(_HUMAN_STATE)
        else:
            assert _human_move(_HUMAN_STATE) == move
    assert stdin.read() == ""
    assert err.getvalue().count("enter 'v color' or 'pass'") == len(bad) + 1


def test_play_subdivision_strategy_gets_its_map(capsys):
    code, out, _ = run(capsys, "play", "--graph", "subdiv2:cycle:3",
                       "--start", "dom", "--dom", "random",
                       "--sepy", "sepy-subdiv", "--seed", "4")
    assert code == 0
    assert json.loads(out.strip().splitlines()[-1])["winner"] == "sepy"


def test_suite_filtered(capsys):
    code, out, _ = run(capsys, "suite", "--only", "c4c8")
    assert code == 0
    assert "[PASS] c4c8-passing" in out


def test_suite_filter_matching_nothing_fails(capsys):
    code, out, err = run(capsys, "suite", "--only", "nonesuch")
    assert code == 1 and out == ""
    assert err.startswith("error:") and "nonesuch" in err


@pytest.mark.parametrize("argv, line", [
    (("suite", "--only", "nonesuch"), "error: no acceptance item id contains 'nonesuch'"),
    (("verify", "--strategy", "nope", "--graph", "cycle:5", "--role", "dom", "--start", "sepy"),
     "error: unknown strategy 'nope'; known: bdg-general, bdg-matching, biased-dom, dom-pass, "
     "dom-start-safe, greedy, ons, onsp, random, sepy-cycle, sepy-subdiv"),
], ids=["suite-only", "verify-strategy"])
def test_unknown_name_error_line_is_unquoted(capsys, argv, line):
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (1, "", line + "\n")


@pytest.mark.parametrize("spec", ["star:5", "petersen:3"])
def test_unknown_generator_spec_is_named(capsys, tmp_path, monkeypatch, spec):
    code, out, err = run(capsys, "gen", "--graph", spec)
    assert (code, out, err) == (1, "", f"error: unknown generator spec '{spec}'\n")
    # a file of that name is read, not taken for a spec
    monkeypatch.chdir(tmp_path)
    (tmp_path / spec).write_text("A_\n")
    assert run(capsys, "gen", "--graph", spec) == (0, "A_\n", "")


def test_graph_file_loading(tmp_path, capsys):
    path = tmp_path / "g.edges"
    path.write_text("2 1\n0 1\n")
    code, out, _ = run(capsys, "solve", "--graph", str(path), "--start", "dom")
    assert code == 0 and json.loads(out)["winner"] == "dom"
    g6 = tmp_path / "g.g6"
    g6.write_text("A_\n")
    code, out, _ = run(capsys, "solve", "--graph", str(g6), "--start", "dom")
    assert code == 0 and json.loads(out)["winner"] == "dom"


@pytest.mark.parametrize("text", ["# a path\n3 2\n0 1\n1 2\n",
                                  "3 2  # header\n0 1\n1 2  # an edge\n"],
                         ids=["comment-line", "header-comment"])
def test_commented_edge_list_file_loading(tmp_path, capsys, text):
    path = tmp_path / "g.edges"
    path.write_text(text)
    code, out, _ = run(capsys, "gen", "--graph", str(path))
    assert code == 0
    path.write_text("3 2\n0 1\n1 2\n")
    assert run(capsys, "gen", "--graph", str(path)) == (0, out, "")


@pytest.mark.parametrize("case", ["empty", "blank", "directory", "not-utf8"])
def test_unreadable_graph_file_is_a_usage_error(tmp_path, capsys, case):
    path = tmp_path / "g.txt"
    if case == "directory":
        path.mkdir()
    else:
        path.write_bytes({"empty": b"", "blank": b"  \n\t\n", "not-utf8": b"\xff\xfeA_\n"}[case])
    code, out, err = run(capsys, "gen", "--graph", str(path))
    assert code == 1 and out == ""
    assert err.startswith("error:") and str(path) in err


def test_graph6_literal_loading(capsys):
    code, out, _ = run(capsys, "solve", "--graph", "A_", "--start", "dom")
    assert code == 0 and json.loads(out)["winner"] == "dom"
