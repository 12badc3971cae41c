"""Per-layer tracing of relaycircuits from outside the library.

``Tracer.install`` replaces the public functions listed in ``LAYERS`` with
wrappers at run time: the module attribute, every other ``relaycircuits``
module's imported binding of the same function (for example
``relaycircuits.upg.evaluate`` and ``relaycircuits.robustness.evaluate``
besides ``relaycircuits.circuits.evaluate``), or the class attribute for
methods. ``uninstall`` puts the originals back. No library source changes.

Each wrapped call counts one call. It also opens a span, unless the
innermost open span is the same function: recursion inside one layer (such
as ``resolve`` calling itself down a tree) is counted but folded into the
outer span, which keeps the span store small on deep trees. A span records
name, start, end, parent span and op id; spans stay in memory in flat
arrays and are written out once, by ``write_spans``. A layer's self time is
the duration of its spans minus the time covered by their child spans.
"""

from __future__ import annotations

import csv
import functools
import gzip
import importlib
import inspect
import sys
import time
from array import array

# (layer name, module under relaycircuits, attribute path in that module)
LAYERS = (
    ("circuits.Distribution", "circuits", "Distribution.__init__"),
    ("circuits.compose_series", "circuits", "compose_series"),
    ("circuits.compose_parallel", "circuits", "compose_parallel"),
    ("circuits.evaluate", "circuits", "evaluate"),
    ("circuits.resolve", "circuits", "resolve"),
    ("circuits.evaluate_oracle", "circuits", "evaluate_oracle"),
    ("circuits.validate_node", "circuits", "validate_node"),
    ("circuits.collect_pswitches", "circuits", "collect_pswitches"),
    ("synthesis.synth_binary_nstate", "synthesis", "synth_binary_nstate"),
    ("synthesis.state_reduction", "synthesis", "state_reduction"),
    ("synthesis.denominator_reduction", "synthesis", "denominator_reduction"),
    ("synthesis.composite_synthesis", "synthesis", "composite_synthesis"),
    ("synthesis.SwitchSet.realize", "synthesis", "SwitchSet.realize"),
    ("netlist.circuit_to_json", "netlist", "circuit_to_json"),
    ("netlist.loads", "netlist", "loads"),
    ("rational.format_rational", "rational", "format_rational"),
    ("rational.parse_rational", "rational", "parse_rational"),
    ("robustness.worst_case_error", "robustness", "worst_case_error"),
    ("robustness.perturb", "robustness", "perturb"),
    ("robustness.check_bounds", "robustness", "check_bounds"),
    ("upg.build_upg", "upg", "build_upg"),
    ("upg.valid_inputs", "upg", "valid_inputs"),
    ("upg.encode_input", "upg", "encode_input"),
    ("upg.UpgInput.assignment", "upg", "UpgInput.assignment"),
    ("upg.UpgInput.decode_target", "upg", "UpgInput.decode_target"),
    ("lattice.search_expressible", "lattice", "search_expressible"),
    ("lattice.compose_lattice", "lattice", "compose_lattice"),
    ("lattice.LatticeDistribution", "lattice", "LatticeDistribution.__init__"),
)

# Counts read off results at the layer boundary; ratios are derived from them.
COUNTS = (
    "synthesis.cuts", "synthesis.pswitches", "synthesis.bound",
    "netlist.bytes", "robustness.corners", "lattice.explored",
)

BENCH_OP = "bench.op"
BENCH_SETUP = "bench.setup"

_SYNTH = ("synthesis.synth_binary_nstate", "synthesis.state_reduction",
          "synthesis.denominator_reduction", "synthesis.composite_synthesis")


def _count_synthesis(counts, args, report):
    counts["synthesis.cuts"] += len(report.trace)
    counts["synthesis.pswitches"] += report.pswitch_count
    counts["synthesis.bound"] += report.bound


def _count_netlist(counts, args, circuit):
    counts["netlist.bytes"] += len(args[0])


def _count_corners(counts, args, report):
    if report.exhaustive:
        counts["robustness.corners"] += 2 ** len(report.worst_assignment.assignments)


def _count_explored(counts, args, result):
    counts["lattice.explored"] += result.explored_distributions


HOOKS = dict.fromkeys(_SYNTH, _count_synthesis)
HOOKS.update({
    "netlist.loads": _count_netlist,
    "robustness.worst_case_error": _count_corners,
    "lattice.search_expressible": _count_explored,
})


class Tracer:
    """Span store plus the wrappers that fill it; one per traced run."""

    def __init__(self):
        self.names = [name for name, _, _ in LAYERS] + [BENCH_OP, BENCH_SETUP]
        self.index = {name: i for i, name in enumerate(self.names)}
        self.calls = [0] * len(self.names)
        self.counts = dict.fromkeys(COUNTS, 0)
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.active = False
        self.op = -1
        self.top = -1          # innermost open span
        self.top_name = -1     # its name index
        self.t0 = time.perf_counter_ns()
        self._restore: list = []

    # -- spans -----------------------------------------------------------

    def enter(self, name_index: int) -> tuple[int, int, int]:
        """Open a span; returns the state ``leave`` needs to close it."""
        sid = len(self.span_name)
        self.span_name.append(name_index)
        self.span_parent.append(self.top)
        self.span_op.append(self.op)
        self.span_end.append(0)
        saved = (sid, self.top, self.top_name)
        self.top, self.top_name = sid, name_index
        self.span_start.append(time.perf_counter_ns())
        return saved

    def leave(self, saved: tuple[int, int, int]) -> None:
        sid, self.top, self.top_name = saved
        self.span_end[sid] = time.perf_counter_ns()

    def call(self, name: str, op: int, fn, *args):
        """Run ``fn(*args)`` under a benchmark-level span with op id ``op``."""
        self.op = op
        saved = self.enter(self.index[name])
        try:
            return fn(*args)
        finally:
            self.leave(saved)

    # -- wrapping --------------------------------------------------------

    def _wrap(self, name: str, fn):
        idx = self.index[name]
        hook = HOOKS.get(name)
        tracer = self

        if inspect.isgeneratorfunction(fn):
            # A span per resume, so the consumer's work between items is not
            # charged to the generator.
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                gen = fn(*args, **kwargs)
                if tracer.active:
                    tracer.calls[idx] += 1
                while True:
                    if not tracer.active:
                        yield from gen
                        return
                    saved = tracer.enter(idx)
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        tracer.leave(saved)
                    yield item
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if not tracer.active:
                    return fn(*args, **kwargs)
                tracer.calls[idx] += 1
                if tracer.top_name == idx:
                    return fn(*args, **kwargs)
                saved = tracer.enter(idx)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer.leave(saved)
                if hook is not None:
                    hook(tracer.counts, args, result)
                return result

        return wrapper

    def install(self) -> None:
        """Wrap every layer function wherever relaycircuits binds it."""
        modules = [m for key, m in sorted(sys.modules.items())
                   if key == "relaycircuits" or key.startswith("relaycircuits.")]
        for name, module_name, path in LAYERS:
            module = importlib.import_module(f"relaycircuits.{module_name}")
            owner_path, _, attr = path.rpartition(".")
            if owner_path:
                owner = getattr(module, owner_path)
                fn = owner.__dict__[attr]
                self._set(owner, attr, self._wrap(name, fn))
                continue
            fn = getattr(module, attr)
            wrapper = self._wrap(name, fn)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._set(mod, key, wrapper)
        self.active = True

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        self.active = False
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- results ---------------------------------------------------------

    def layer_metrics(self, scale: float = 1.0) -> dict[str, tuple[float, str]]:
        """``<layer>.calls`` and ``<layer>.self_s`` for every listed layer,
        plus the boundary counts and the ratios built from them. Self times
        are multiplied by ``scale``."""
        n = len(self.span_name)
        child = [0] * n
        parent, start, end = self.span_parent, self.span_start, self.span_end
        for sid in range(n):
            p = parent[sid]
            if p >= 0:
                child[p] += end[sid] - start[sid]
        self_ns = [0] * len(self.names)
        names = self.span_name
        for sid in range(n):
            self_ns[names[sid]] += end[sid] - start[sid] - child[sid]
        out: dict[str, tuple[float, str]] = {}
        for name, _, _ in LAYERS:
            i = self.index[name]
            out[f"{name}.calls"] = (self.calls[i], "count")
            out[f"{name}.self_s"] = (self_ns[i] / 1e9 * scale, "s")
        c = self.counts
        out["synthesis.cuts"] = (c["synthesis.cuts"], "count")
        out["synthesis.pswitches"] = (c["synthesis.pswitches"], "count")
        out["synthesis.bound_use"] = (
            c["synthesis.pswitches"] / c["synthesis.bound"] if c["synthesis.bound"] else 0.0,
            "ratio")
        out["netlist.bytes"] = (c["netlist.bytes"], "bytes")
        out["robustness.corners"] = (c["robustness.corners"], "count")
        out["lattice.explored"] = (c["lattice.explored"], "count")
        composes = self.calls[self.index["lattice.compose_lattice"]]
        out["lattice.dedup_ratio"] = (
            c["lattice.explored"] / composes if composes else 0.0, "ratio")
        return out

    def write_spans(self, path) -> int:
        """Write every span as gzipped CSV; times are ns since tracer start."""
        with gzip.open(path, "wt", compresslevel=1, newline="") as fh:
            out = csv.writer(fh)
            out.writerow(("span", "name", "start_ns", "end_ns", "parent", "op"))
            for sid in range(len(self.span_name)):
                out.writerow((sid, self.names[self.span_name[sid]],
                              self.span_start[sid] - self.t0,
                              self.span_end[sid] - self.t0,
                              self.span_parent[sid], self.span_op[sid]))
        return len(self.span_name)
