"""File formats: graph6 lines, edge-list text, and generator spec strings."""

from __future__ import annotations

from .graphs import (
    Graph,
    GraphError,
    SubdivisionMap,
    disjoint_union,
    gen_complete,
    gen_cycle,
    gen_path,
    gen_petersen,
    subdivide3,
)


class ParseError(ValueError):
    """Malformed input; carries the byte offset of the offending character."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


_G6_HEADER = ">>graph6<<"

# The most vertices a graph read from outside input may have.  The solver
# stops far below it; the bound only keeps a short header or spec from
# asking for gigabytes before any cap is checked.
MAX_INPUT_VERTICES = 256


def _check_size(n: int, source: str) -> None:
    if n > MAX_INPUT_VERTICES:
        raise GraphError(
            f"{source} asks for {n} vertices, above the input bound of {MAX_INPUT_VERTICES}"
        )


def parse_graph6(text: str) -> Graph:
    """Decode one graph6 line (printable 6-bit packing of the upper triangle)."""
    s = text.strip()
    if s.startswith(_G6_HEADER):
        s = s[len(_G6_HEADER):]
    if not s:
        raise ParseError("empty graph6 input", 0)
    for i, ch in enumerate(s):
        if not 63 <= ord(ch) <= 126:
            raise ParseError(f"character {ch!r} outside graph6 range [63,126]", i)
    if s[0] == "~":
        if len(s) < 4 or s[1] == "~":
            raise ParseError("unsupported or truncated graph6 size prefix", 1)
        n = 0
        for ch in s[1:4]:
            n = (n << 6) | (ord(ch) - 63)
        idx = 4
    else:
        n = ord(s[0]) - 63
        idx = 1
    _check_size(n, "graph6 header")
    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    if len(s) - idx != need:
        off = min(len(s), idx + need)
        raise ParseError(
            f"graph6 body for n={n} needs {need} characters, got {len(s) - idx}", off
        )
    bitpos = 0
    edges = []
    vals = [ord(ch) - 63 for ch in s[idx:]]
    for col in range(1, n):
        for row in range(col):
            group, within = divmod(bitpos, 6)
            if vals[group] >> (5 - within) & 1:
                edges.append((row, col))
            bitpos += 1
    # padding bits must be zero
    for extra in range(nbits, need * 6):
        group, within = divmod(extra, 6)
        if vals[group] >> (5 - within) & 1:
            raise ParseError("nonzero padding bits in graph6 body", idx + group)
    return Graph(n, edges)


def emit_graph6(g: Graph) -> str:
    """Encode a graph as a graph6 string (inverse of parse_graph6)."""
    n = g.n
    if n <= 62:
        head = chr(n + 63)
    elif n <= 258047:
        head = "~" + "".join(chr(((n >> sh) & 63) + 63) for sh in (12, 6, 0))
    else:
        raise GraphError(f"graph6 encoding supported up to n=258047, got {n}")
    out = [head]
    acc = 0
    nb = 0
    for col in range(1, n):
        for row in range(col):
            acc = (acc << 1) | (g.nbr_mask[row] >> col & 1)
            nb += 1
            if nb == 6:
                out.append(chr(acc + 63))
                acc, nb = 0, 0
    if nb:
        out.append(chr((acc << (6 - nb)) + 63))
    return "".join(out)


def parse_edge_list(text: str) -> Graph:
    """Edge-list text: first line "n m", then m lines "u v"; '#' comments."""
    rows = []
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            rows.append((ln, line))
    if not rows:
        raise GraphError("edge-list input has no data lines")
    ln, header = rows[0]
    parts = header.split()
    if len(parts) != 2:
        raise GraphError(f"line {ln}: header must be 'n m', got {header!r}")
    try:
        n, m = int(parts[0]), int(parts[1])
    except ValueError:
        raise GraphError(f"line {ln}: header must be two integers") from None
    _check_size(n, f"line {ln}: header")
    if len(rows) - 1 != m:
        raise GraphError(f"expected {m} edge lines, found {len(rows) - 1}")
    edges = []
    for ln, line in rows[1:]:
        parts = line.split()
        if len(parts) != 2:
            raise GraphError(f"line {ln}: edge must be 'u v', got {line!r}")
        try:
            edges.append((int(parts[0]), int(parts[1])))
        except ValueError:
            raise GraphError(f"line {ln}: edge endpoints must be integers") from None
    return Graph(n, edges)


def emit_edge_list(g: Graph) -> str:
    lines = [f"{g.n} {g.m}"]
    lines += [f"{u} {v}" for u, v in g.edges()]
    return "\n".join(lines) + "\n"


def _size(arg: str, spec: str) -> int:
    try:
        size = int(arg)
    except ValueError:
        raise GraphError(f"bad generator spec {spec!r}") from None
    _check_size(size, f"spec {spec!r}")
    return size


def _union(arg: str, spec: str):
    parts = arg.split("+")
    if len(parts) < 2:
        raise GraphError(f"union spec needs at least two parts: {spec!r}")
    g, _ = resolve_generator_spec(parts[0])
    for part in parts[1:]:
        h, _ = resolve_generator_spec(part)
        _check_size(g.n + h.n, f"spec {spec!r}")
        g = disjoint_union(g, h)
    return g, None


def _subdiv2(arg: str, spec: str):
    base, _ = resolve_generator_spec(arg)
    _check_size(base.n + 2 * base.m, f"spec {spec!r}")
    return subdivide3(base)


# the generator specs by head, a bare name or a name and ':', each building
# (graph, subdivision map or None) from the rest of the spec and the spec
GENERATORS = {
    "petersen": lambda arg, spec: (gen_petersen(), None),
    "cycle:": lambda arg, spec: (gen_cycle(_size(arg, spec)), None),
    "path:": lambda arg, spec: (gen_path(_size(arg, spec)), None),
    "complete:": lambda arg, spec: (gen_complete(_size(arg, spec)), None),
    "subdiv2:": _subdiv2,
    "union:": _union,
}


def resolve_generator_spec(spec: str) -> tuple[Graph, SubdivisionMap | None]:
    """Build a graph from a spec string.

    "cycle:8", "path:5", "complete:4", "petersen",
    "subdiv2:cycle:3"  (each edge of the base becomes a path of length 3),
    "union:cycle:4+cycle:8".
    The subdivision map is returned only for a top-level subdiv2 spec.
    """
    spec = spec.strip()
    name, colon, arg = spec.partition(":")
    if name + colon not in GENERATORS:
        raise GraphError(f"unknown generator spec {spec!r}")
    return GENERATORS[name + colon](arg, spec)


def is_generator_spec(text: str) -> bool:
    name, colon, _arg = text.strip().partition(":")
    return name + colon in GENERATORS
