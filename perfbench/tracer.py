"""Outside-in tracing of the antimagic package.

Each traced function is wrapped once, and the wrapper is bound in place of
the original in every loaded ``antimagic`` module namespace that binds it, so
calls between modules and within a module both pass through it.  Nothing
under ``src/`` is edited; ``uninstall`` puts the originals back.

Every wrapped call records a span (name, start, end, parent span, instance
id).  Spans stay in memory, up to a cap, and are written when the run ends.
Self time is a span's duration minus the time covered by its child spans.
"""

from __future__ import annotations

import gzip
import inspect
import statistics
import sys
import time
from array import array
from dataclasses import dataclass, field

# layer -> traced public functions of that module
TRACED = {
    "spiders": ("enumerate_instances", "canonicalize", "derive_parameters", "classify", "materialize_tree"),
    "trees": ("make_tree",),
    "labelers": ("odd_right_steps", "even_right_steps", "type_a_steps", "type_bc_steps",
                 "special_instance_labeling"),
    "compose": ("extend_leaves", "insert_unit_path", "delete_leaf_level", "remove_unit_path"),
    "driver": ("strongly_antimagic_label",),
    "labeling": ("vertex_sums", "labeled_spider", "verify_bijection"),
    "oracle": ("find_strongly_antimagic",),
    "sweep": ("check_instance", "run_sweep"),
    "fileio": ("format_labeling", "parse_labeling", "parse_instance"),
    "cli": ("main",),
}

# A span of one of these starts a new instance id.
INSTANCE_BOUNDARIES = {"sweep.check_instance"}
# Functions whose every duration is kept, for percentiles.
KEEP_DURATIONS = {"sweep.check_instance", "oracle.find_strongly_antimagic"}
MAX_SPANS = 200_000


def _tree_vertices(args) -> int:
    tree = args[0]
    return len(getattr(tree, "tree", tree).vertices)


# name -> (counter, value taken from the call's args and result)
COUNTERS = {
    "labeling.vertex_sums": ("vertices", lambda args, result: _tree_vertices(args)),
    "oracle.find_strongly_antimagic": ("nodes", lambda args, result: result.nodes_explored),
    "fileio.format_labeling": ("bytes", lambda args, result: len(result.encode())),
}


@dataclass
class FunctionStats:
    calls: int = 0
    self_s: float = 0.0
    total_s: float = 0.0
    counter: int = 0
    durations: list[float] = field(default_factory=list)


class Tracer:
    def __init__(self) -> None:
        self.names = [f"{layer}.{fn}" for layer, fns in TRACED.items() for fn in fns]
        self.stats = {name: FunctionStats() for name in self.names}
        self.instance = 0
        self.dropped_spans = 0
        self._stack: list[list] = []  # [span id, seconds covered by children, parent id]
        self._next_id = 0
        self._span_id = array("q")
        self._span_name = array("H")
        self._span_start = array("d")
        self._span_end = array("d")
        self._span_parent = array("q")
        self._span_instance = array("q")
        self._restore: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        namespaces = [mod for name, mod in sorted(sys.modules.items())
                      if mod is not None and (name == "antimagic" or name.startswith("antimagic."))]
        for idx, name in enumerate(self.names):
            layer, fn_name = name.split(".")
            original = getattr(sys.modules[f"antimagic.{layer}"], fn_name)
            wrapper = self._wrap(idx, name, original)
            for mod in namespaces:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._restore.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._restore):
            setattr(mod, attr, original)
        self._restore.clear()

    def new_instance(self) -> None:
        self.instance += 1

    # -- recording ----------------------------------------------------------

    def _open(self, name: str) -> list:
        if name in INSTANCE_BOUNDARIES:
            self.instance += 1
        frame = [self._next_id, 0.0, self._stack[-1][0] if self._stack else -1]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _close(self, idx: int, name: str, frame: list, start: float, end: float,
               count_call: bool) -> None:
        self._stack.pop()
        duration = end - start
        st = self.stats[name]
        st.calls += count_call
        st.total_s += duration
        st.self_s += duration - frame[1]
        if name in KEEP_DURATIONS:
            st.durations.append(duration)
        if self._stack:
            self._stack[-1][1] += duration
        if len(self._span_start) < MAX_SPANS:
            self._span_id.append(frame[0])
            self._span_name.append(idx)
            self._span_start.append(start)
            self._span_end.append(end)
            self._span_parent.append(frame[2])
            self._span_instance.append(self.instance)
        else:
            self.dropped_spans += 1

    def _wrap(self, idx: int, name: str, fn):
        tracer = self
        counter = COUNTERS.get(name)
        clock = time.perf_counter

        if inspect.isgeneratorfunction(fn):
            # Each resumption is a span; the call is counted once.
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                first = True
                while True:
                    frame = tracer._open(name)
                    start = clock()
                    try:
                        item = next(it)
                    except StopIteration:
                        tracer._close(idx, name, frame, start, clock(), first)
                        return
                    tracer._close(idx, name, frame, start, clock(), first)
                    first = False
                    yield item
            return gen_wrapper

        def wrapper(*args, **kwargs):
            frame = tracer._open(name)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx, name, frame, start, clock(), True)
            if counter is not None:
                tracer.stats[name].counter += counter[1](args, result)
            return result

        return wrapper

    # -- output ---------------------------------------------------------------

    def counts(self) -> dict[str, int]:
        """Call counts and counters so far, keyed by metric name."""
        out = {}
        for name, st in self.stats.items():
            out[f"{name}.calls"] = st.calls
            if name in COUNTERS:
                out[f"{name}.{COUNTERS[name][0]}"] = st.counter
        return out

    def write_spans(self, path) -> int:
        """Write the kept spans as gzipped CSV; returns the number written."""
        with gzip.open(path, "wt", encoding="utf-8") as out:
            out.write("span,name,start_s,end_s,parent,instance\n")
            for k in range(len(self._span_start)):
                out.write(f"{self._span_id[k]},{self.names[self._span_name[k]]},{self._span_start[k]:.9f},"
                          f"{self._span_end[k]:.9f},{self._span_parent[k]},{self._span_instance[k]}\n")
        return len(self._span_start)


def percentile_ms(durations: list[float], q: int) -> float:
    """The q-th percentile (1..99) of the durations, in milliseconds."""
    if len(durations) < 2:
        return 1000.0 * (durations[0] if durations else 0.0)
    return 1000.0 * statistics.quantiles(durations, n=100)[q - 1]
