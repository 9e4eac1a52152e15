"""Per-layer spans for the traced run.

The wrappers are installed at run time around the public functions of each
domgame module and removed again afterwards; the library source is not
edited.  Each wrapper records a call count and the call's self time: its
duration minus the part covered by wrapped calls made inside it.  Spans are
kept as running sums in memory.

A wrapper costs time of its own: part of it falls inside the span it times,
and the rest (the call into the wrapper, the stack and counter bookkeeping)
inside the span of its caller.  ``Tracer.calibrate`` measures both parts on a
wrapped no-op, and every span's self time has them subtracted, so that a
parent that makes many wrapped calls is not charged for the wrappers.  The
count hooks of a few spans (node, branch and key counts) run in the caller's
share and are not subtracted; they are a set or counter update each.

A module-level function is replaced in every domgame module that holds a
reference to it (``solver`` imports ``new_game`` from ``engine``, for
instance), so calls made inside the library are seen too.
"""

from __future__ import annotations

import functools
import statistics
import sys
from collections import Counter
from time import perf_counter

from domgame import engine, formats, graphs, matching, solver, strategies

# span name -> (owner, attribute); the owner is a module or a class
FUNCTIONS = {
    "solver.solve": (solver, "solve"),
    "solver.verify": (solver, "verify_strategy"),
    "engine.new_game": (engine, "new_game"),
    "engine.apply": (engine.GameState, "apply"),
    "engine.legal_moves": (engine.GameState, "legal_moves"),
    "engine.select_legal": (engine.GameState, "select_legal"),
    "matching.maximum_matching": (matching, "maximum_matching"),
    "matching.matching_plan": (matching, "matching_plan"),
    "graphs.enumerate": (graphs, "enumerate_graphs"),
    "graphs.canonical_key": (graphs, "canonical_key"),
    "formats.emit_graph6": (formats, "emit_graph6"),
}
STRATEGY_METHODS = ("prepare", "move", "check_invariants")
SPANS = tuple(FUNCTIONS) + tuple(f"strategies.{m}" for m in STRATEGY_METHODS)

# per_layer metric name -> unit; BENCHMARK.json lists the same names
METRICS = {}
for _span in SPANS:
    METRICS[f"{_span}.calls"] = "count"
    METRICS[f"{_span}.self_s"] = "s"
METRICS.update({
    "solver.nodes": "count",
    "solver.us_per_node": "us",
    "solver.verify.branches": "count",
    "graphs.canonical_key.useful_ratio": "ratio",
    "trace.overhead_s": "s",
})
# metrics that count work; they repeat exactly for the same seed
EXACT = tuple(name for name, unit in METRICS.items() if unit == "count")

# wrapped no-op calls per calibration round, and rounds (about 0.1 s in all)
CALIBRATION_CALLS = 20000
CALIBRATION_ROUNDS = 7


class Tracer:
    """Call counts and self times per span, plus the work counts read from
    the results at the layer boundary: solver nodes, certification branches,
    and canonical keys computed and kept by enumeration.  All are running
    sums in ``raw``; ``derive`` turns a sum into metrics."""

    def __init__(self):
        # (owner, attribute, original, wrapper), built on the first install
        self._patches: list[tuple[object, str, object, object]] = []
        self._installed = False
        # per-call wrapper cost inside the timed span and inside its caller
        self.inner_s = 0.0
        self.outer_s = 0.0
        self.reset()

    def reset(self) -> None:
        self.raw: Counter = Counter()
        self._stack: list[float] = []
        self._enum_frames: list[set] = []

    # -- recording -----------------------------------------------------------

    def _wrap(self, span: str, fn):
        tracer = self
        before, after = self._hooks(span)
        keys = (f"{span}.self_s", f"{span}.calls")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before:
                before()
            tracer._stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._close(keys, t0)
                if after:
                    after(None)
                raise
            tracer._close(keys, t0)
            if after:
                after(result)
            return result

        return wrapper

    def _close(self, keys: tuple[str, str], t0: float) -> None:
        dur = perf_counter() - t0
        stack = self._stack
        raw = self.raw
        raw[keys[0]] += dur - stack.pop() - self.inner_s
        raw[keys[1]] += 1
        if stack:
            stack[-1] += dur + self.outer_s

    def calibrate(self) -> None:
        """Measure the wrapper's own cost per call, split into the part
        inside the span and the part in its caller; medians over rounds.
        The probe takes two arguments, as most wrapped calls (methods with
        one argument) do."""
        def noop(a, b):
            return None

        probe = self._wrap("calibrate", noop)
        self.inner_s = self.outer_s = 0.0
        inner, outer = [], []
        for _ in range(CALIBRATION_ROUNDS):
            t0 = perf_counter()
            for _ in range(CALIBRATION_CALLS):
                pass
            t_empty = perf_counter() - t0
            t0 = perf_counter()
            for _ in range(CALIBRATION_CALLS):
                noop(None, None)
            t_plain = perf_counter() - t0
            self._stack.append(0.0)
            t0 = perf_counter()
            for _ in range(CALIBRATION_CALLS):
                probe(None, None)
            t_wrapped = perf_counter() - t0
            covered = self._stack.pop()
            # untraced, the caller's share is the loop and the callee's the
            # plain call; the rest of each share is the wrapper's
            inner.append((covered - (t_plain - t_empty)) / CALIBRATION_CALLS)
            outer.append((t_wrapped - covered - t_empty) / CALIBRATION_CALLS)
        self.reset()
        self.inner_s = statistics.median(inner)
        self.outer_s = statistics.median(outer)

    def _hooks(self, span: str):
        if span == "solver.solve":
            return None, self._count_nodes
        if span == "solver.verify":
            return None, self._count_branches
        if span == "graphs.enumerate":
            return self._enter_enumeration, self._leave_enumeration
        if span == "graphs.canonical_key":
            return None, self._count_key
        return None, None

    def _count_nodes(self, res) -> None:
        if res is not None:
            self.raw["solver.nodes"] += res.nodes

    def _count_branches(self, rep) -> None:
        if rep is not None:
            self.raw["solver.verify.branches"] += rep.branches

    def _enter_enumeration(self) -> None:
        self._enum_frames.append(set())

    def _leave_enumeration(self, _result) -> None:
        self.raw["enum_kept"] += len(self._enum_frames.pop())

    def _count_key(self, key) -> None:
        if self._enum_frames and key is not None:
            self.raw["enum_keys"] += 1
            self._enum_frames[-1].add(key)

    # -- installing ----------------------------------------------------------

    def install(self) -> None:
        if self._installed:
            raise RuntimeError("tracer already installed")
        if not self._patches:
            self._plan()
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)
        self._installed = True

    def uninstall(self) -> None:
        for owner, attr, original, _ in reversed(self._patches):
            setattr(owner, attr, original)
        self._installed = False

    def _plan(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "domgame" or name.startswith("domgame."))]
        for span, (owner, attr) in FUNCTIONS.items():
            original = getattr(owner, attr)
            wrapper = self._wrap(span, original)
            if isinstance(owner, type):
                self._plan_patch(owner, attr, wrapper)
                continue
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._plan_patch(mod, name, wrapper)
        for cls in _strategy_classes():
            for meth in STRATEGY_METHODS:
                if meth in vars(cls):
                    self._plan_patch(cls, meth, self._wrap(f"strategies.{meth}", vars(cls)[meth]))

    def _plan_patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, vars(owner)[attr], wrapper))


def add(a: Counter, b: Counter) -> Counter:
    """a + b, keeping every key (Counter's + drops sums that are not positive)."""
    total = Counter(a)
    total.update(b)
    return total


def derive(raw: Counter) -> dict[str, float]:
    """Every per-layer metric except trace.overhead_s, from running sums."""
    out = {name: raw[name] for name in METRICS if name != "trace.overhead_s"}
    nodes = raw["solver.nodes"]
    out["solver.us_per_node"] = raw["solver.solve.self_s"] / nodes * 1e6 if nodes else 0.0
    keys = raw["enum_keys"]
    out["graphs.canonical_key.useful_ratio"] = raw["enum_kept"] / keys if keys else 0.0
    return out


def _strategy_classes() -> list[type]:
    return [obj for obj in vars(strategies).values()
            if isinstance(obj, type) and issubclass(obj, strategies.Strategy)]
