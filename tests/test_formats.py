"""graph6 encoding, edge-list text, and generator spec strings."""

import re
import tracemalloc

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import graphs_st
from domgame.formats import (
    GENERATORS,
    MAX_INPUT_VERTICES,
    ParseError,
    emit_edge_list,
    emit_graph6,
    is_generator_spec,
    parse_edge_list,
    parse_graph6,
    resolve_generator_spec,
)
from domgame.graphs import (
    Graph,
    GraphError,
    enumerate_graphs,
    gen_complete,
    gen_cycle,
    gen_path,
    is_connected,
)


def test_parse_k2():
    # 'A' encodes n=2; '_' = 95 -> 32 -> bits 100000, so x(0,1) = 1
    g = parse_graph6("A_")
    assert g == gen_path(2)


def test_emit_k2():
    assert emit_graph6(gen_path(2)) == "A_"


def test_c4_round_trip_by_hand():
    # bits in column order x01 x02 x12 x03 x13 x23 = 101101 -> 45 -> 'l'
    assert emit_graph6(gen_cycle(4)) == "Cl"
    assert parse_graph6("Cl") == gen_cycle(4)


def test_parse_empty_is_error():
    with pytest.raises(ParseError) as err:
        parse_graph6("")
    assert err.value.offset == 0


def test_parse_bad_character_offset():
    with pytest.raises(ParseError) as err:
        parse_graph6("A\x20")
    assert err.value.offset == 1


def test_parse_bad_length():
    with pytest.raises(ParseError):
        parse_graph6("D_")  # n=5 needs two body characters, got one
    with pytest.raises(ParseError):
        parse_graph6("A__")


def test_parse_nonzero_padding_rejected():
    # K2 body with a stray padding bit set: 100001 -> 33+63 = 96 = '`'
    with pytest.raises(ParseError):
        parse_graph6("A`")


def test_header_is_tolerated():
    assert parse_graph6(">>graph6<<A_") == gen_path(2)


def test_big_n_header_round_trip():
    g = gen_cycle(100)
    s = emit_graph6(g)
    assert s.startswith("~")
    assert parse_graph6(s) == g


def test_round_trip_full_small_corpus():
    for n in range(1, 7):
        for g in enumerate_graphs(n):
            s = emit_graph6(g)
            assert parse_graph6(s) == g
            assert emit_graph6(parse_graph6(s)) == s


@settings(max_examples=100)
@given(graphs_st(max_n=20))
def test_round_trip_random(g):
    assert parse_graph6(emit_graph6(g)) == g


def test_edge_list_round_trip():
    g = gen_cycle(5)
    assert parse_edge_list(emit_edge_list(g)) == g


def test_edge_list_comments_and_whitespace():
    text = """
    # a path on three vertices
    3 2
    0 1   # first edge
    1 2
    """
    assert parse_edge_list(text) == gen_path(3)


def test_edge_list_errors():
    with pytest.raises(GraphError):
        parse_edge_list("")
    with pytest.raises(GraphError):
        parse_edge_list("2 2\n0 1\n")  # promised two edges, gave one
    with pytest.raises(GraphError):
        parse_edge_list("2 1\n0 x\n")


def test_generator_specs():
    assert resolve_generator_spec("cycle:8")[0] == gen_cycle(8)
    assert resolve_generator_spec("path:5")[0] == gen_path(5)
    assert resolve_generator_spec("complete:4")[0] == gen_complete(4)
    g, smap = resolve_generator_spec("subdiv2:cycle:3")
    assert g.n == 9 and smap is not None and smap.base == gen_cycle(3)
    u, _ = resolve_generator_spec("union:cycle:4+cycle:8")
    assert u.n == 12 and u.m == 12 and not is_connected(u)


def test_generator_spec_errors():
    with pytest.raises(GraphError):
        resolve_generator_spec("octahedron:3")
    with pytest.raises(GraphError):
        resolve_generator_spec("cycle:x")
    with pytest.raises(GraphError):
        resolve_generator_spec("union:cycle:4")


def _g6_header(n):
    return "~" + "".join(chr((n >> sh & 63) + 63) for sh in (12, 6, 0))


@pytest.mark.parametrize("parse, text", [
    (parse_edge_list, "100000 0"),
    (parse_edge_list, f"{MAX_INPUT_VERTICES + 1} 0"),
    (resolve_generator_spec, "cycle:100000"),
    (resolve_generator_spec, "complete:100000"),
    (resolve_generator_spec, f"path:{MAX_INPUT_VERTICES + 1}"),
    (resolve_generator_spec, "subdiv2:complete:30"),
    (resolve_generator_spec, "union:cycle:200+cycle:200"),
    (parse_graph6, _g6_header(100000)),
])
def test_outside_input_beyond_the_vertex_bound_fails_fast(parse, text):
    tracemalloc.start()
    try:
        with pytest.raises(GraphError, match="input bound"):
            parse(text)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_outside_input_at_the_vertex_bound_is_read():
    n = MAX_INPUT_VERTICES
    assert parse_edge_list(f"{n} 0").n == n
    assert resolve_generator_spec(f"cycle:{n}")[0] == gen_cycle(n)
    assert parse_graph6(emit_graph6(gen_cycle(n))) == gen_cycle(n)


def test_is_generator_spec():
    assert is_generator_spec("cycle:8")
    assert is_generator_spec("union:cycle:4+path:2")
    assert not is_generator_spec("A_")


# a spec for every generator, by its head in the table
_SPEC_OF_HEAD = {"petersen": "petersen", "cycle:": "cycle:5", "path:": "path:3",
                 "complete:": "complete:4", "subdiv2:": "subdiv2:cycle:3",
                 "union:": "union:path:2+cycle:3"}


def test_every_generator_is_a_spec_that_resolves():
    assert set(GENERATORS) == set(_SPEC_OF_HEAD)
    for head, spec in _SPEC_OF_HEAD.items():
        assert spec.startswith(head) and is_generator_spec(spec)
        assert isinstance(resolve_generator_spec(spec)[0], Graph)


# --- fuzzing: malformed input raises only the typed errors ------------------

_TYPED = (GraphError, ParseError)
_MAX_N = 64


def _numbers_small(text):
    """True when no digit run in text (with the underscores int() accepts)
    exceeds _MAX_N, so that no example can ask for a larger graph."""
    return all(int(run.replace("_", "")) <= _MAX_N for run in re.findall(r"\d[\d_]*", text))


def _raises_only_typed(parse, text):
    try:
        parse(text)
    except _TYPED:
        pass


def _mutated(s, data):
    """s with one of: a character replaced, a prefix kept, or text appended."""
    kind = data.draw(st.sampled_from(["replace", "truncate", "append"]))
    if kind == "replace" and s:
        i = data.draw(st.integers(0, len(s) - 1))
        return s[:i] + data.draw(st.characters()) + s[i + 1:]
    if kind == "truncate":
        return s[:data.draw(st.integers(0, len(s)))]
    return s + data.draw(st.text(max_size=3))


@settings(max_examples=300, deadline=None)
@given(st.text(max_size=40) | st.text(st.characters(min_codepoint=58, max_codepoint=130), max_size=40))
@example("~")
@example("~~")
@example(">>graph6<<~")
@example("~??")
def test_fuzz_graph6_arbitrary_text(text):
    # 40 characters hold a graph6 body of at most 22 vertices
    _raises_only_typed(parse_graph6, text)


@settings(max_examples=300, deadline=None)
@given(graphs_st(max_n=_MAX_N), st.data())
def test_fuzz_graph6_near_valid(g, data):
    _raises_only_typed(parse_graph6, _mutated(emit_graph6(g), data))


_EDGE_TOKENS = st.one_of(
    st.integers(-3, _MAX_N + 3).map(str),
    st.text(alphabet=" \t#x-+_0.", max_size=4),
    st.sampled_from(["", "#", "1.5", "0x3", "1_0", "nan", "\u0663"]),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.lists(_EDGE_TOKENS, max_size=4).map(" ".join), max_size=8),
       st.sampled_from(["\n", "\r\n", "\r", "\u2028"]))
def test_fuzz_edge_list_token_lines(lines, newline):
    _raises_only_typed(parse_edge_list, newline.join(lines))


@settings(max_examples=300, deadline=None)
@given(st.text(max_size=60))
def test_fuzz_edge_list_arbitrary_text(text):
    assume(_numbers_small(text))
    _raises_only_typed(parse_edge_list, text)


@settings(max_examples=300, deadline=None)
@given(graphs_st(max_n=_MAX_N), st.data())
def test_fuzz_edge_list_near_valid(g, data):
    text = _mutated(emit_edge_list(g), data)
    assume(_numbers_small(text))
    _raises_only_typed(parse_edge_list, text)


_SIZE_ARGS = st.one_of(
    st.integers(-2, 12).map(str),
    st.sampled_from(["", "x", " 4", "4 ", "+3", "-0", "3.0", "0x4", "1_2", "\u0663", "3:4"]),
)
_LEAF_SPECS = st.one_of(
    st.builds("{}:{}".format,
              st.sampled_from(["cycle", "path", "complete", "petersen", "octahedron", "", "Cycle"]),
              _SIZE_ARGS),
    st.sampled_from(["petersen", " petersen ", ":", "", "union:", "subdiv2:", "+"]),
)
_SPECS = st.recursive(
    _LEAF_SPECS,
    lambda inner: st.one_of(inner.map("subdiv2:{}".format),
                            st.lists(inner, max_size=3).map(lambda parts: "union:" + "+".join(parts))),
    max_leaves=6,
)


def _spec_small(spec):
    # each subdivision level triples the edge count
    return _numbers_small(spec) and spec.count("subdiv2:") <= 2


@settings(max_examples=300, deadline=None)
@given(_SPECS)
def test_fuzz_generator_spec_grammar(spec):
    assume(_spec_small(spec))
    _raises_only_typed(resolve_generator_spec, spec)


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet="cyclepathcompletunionsubdivpetersen2:+- 0123456789", max_size=40))
def test_fuzz_generator_spec_text(spec):
    assume(_spec_small(spec))
    _raises_only_typed(resolve_generator_spec, spec)
