"""Span tracing by wrapping blockmix's public functions from outside.

Nothing under ``src/`` knows about tracing: ``Tracer.install`` replaces
each listed function with a timing wrapper in every ``blockmix`` module
namespace that binds it (``from x import f`` makes a second binding), and
``Tracer.uninstall`` puts the originals back.  Spans are kept in memory as
(name, start, end, parent, command id) and written out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import tracemalloc
from collections import defaultdict
from pathlib import Path
from time import perf_counter


def _restart_trace(out) -> list:
    """The objective trace inside an engine restart's return tuple."""
    return next(x for x in out if isinstance(x, list))


# engine module -> iterations in one restart (vem and switch traces start
# with the initial objective; mcem records one entry per EM iteration)
RESTART_ITERATIONS = {
    "blockmix.vem": lambda out: len(_restart_trace(out)) - 1,
    "blockmix.switch": lambda out: len(_restart_trace(out)) - 1,
    "blockmix.mcem": lambda out: len(_restart_trace(out)),
}

# (module, attribute, span name, work recorded from (args, result))
TARGETS = [
    ("blockmix.cli", "main", "cli", None),
    ("blockmix.graph", "load_edge_list", "graph.load", lambda a, out: out.n_edges),
    ("blockmix.graph", "to_edge_list_text", "graph.write", None),
    ("blockmix.graph", "Network.to_dense", "graph.to_dense", None),
    ("blockmix.generate", "sample_sbm", "generate.sample_sbm", None),
    ("blockmix.models", "block_pair_stats", "models.block_pair_stats", None),
    ("blockmix.models", "mle_block_params", "models.mle_block_params", None),
    ("blockmix.models", "bernoulli_loglik", "models.loglik", None),
    ("blockmix.models", "poisson_complete_loglik", "models.loglik", None),
    ("blockmix.models", "dc_poisson_loglik", "models.loglik", None),
    ("blockmix.vem", "vem_fit", "vem.fit", None),
    ("blockmix.switch", "switch_fit", "switch.fit", None),
    ("blockmix.mcem", "mcem_fit", "mcem.fit", None),
    ("blockmix.mcem", "m_step", "mcem.m_step", None),
    ("blockmix.mcem", "gini_uncertainty", "mcem.gini", None),
    ("blockmix.results", "map_restarts", "results.map_restarts", None),
    ("blockmix.results", "to_json", "results.to_json", lambda a, out: len(out.encode("utf-8"))),
    ("blockmix.results", "from_json", "results.from_json", None),
    ("blockmix.evaluate", "rand_index", "evaluate.rand_index", None),
]

# spans whose first call is replayed once under tracemalloc for *.peak_mb
PEAK_SPANS = ("graph.load", "graph.to_dense", "generate.sample_sbm")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, command id, work]
        self.command = 0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.first_calls: dict[str, tuple] = {}

    def wrap(self, name: str, fn, work=None):
        spans, stack = self.spans, self._stack
        keep_first = name in PEAK_SPANS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if keep_first and name not in self.first_calls:
                self.first_calls[name] = (fn, args, kwargs)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.command, 0]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if work is not None:
                rec[5] = work(args, out)
            return out

        return traced

    def _wrap_map_restarts(self, fn):
        """map_restarts span whose restart callable is itself traced.

        A restart is engine work, so its span carries the engine's fit name
        and the restart's iteration count; the serial path (no worker pool)
        calls the traced callable in this process.
        """
        def map_restarts(restart_fn, args):
            count = RESTART_ITERATIONS[restart_fn.__module__]
            engine = restart_fn.__module__.rsplit(".", 1)[1]
            restart = self.wrap(f"{engine}.fit", restart_fn, lambda a, out: count(out))
            return fn(restart, args)

        return self.wrap("results.map_restarts", functools.wraps(fn)(map_restarts))

    def install(self):
        modules = [m for k, m in list(sys.modules.items()) if k == "blockmix" or k.startswith("blockmix.")]
        for modname, attr, name, work in TARGETS:
            module = importlib.import_module(modname)
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(module, cls_name)
                original = owner.__dict__[meth]
                self._patch(owner, meth, self.wrap(name, original, work))
                continue
            original = getattr(module, attr)
            if name == "results.map_restarts":
                wrapper = self._wrap_map_restarts(original)
            else:
                wrapper = self.wrap(name, original, work)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)

    def _patch(self, owner, key, wrapper):
        self._patches.append((owner, key, vars(owner)[key]))
        setattr(owner, key, wrapper)

    def uninstall(self):
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def peak_mb(self) -> dict[str, float]:
        """Replay each PEAK_SPANS first call once under tracemalloc."""
        peaks = dict.fromkeys(PEAK_SPANS, 0.0)
        for name, (fn, args, kwargs) in self.first_calls.items():
            tracemalloc.start()
            try:
                fn(*args, **kwargs)
                peaks[name] = tracemalloc.get_traced_memory()[1] / 2**20
            finally:
                tracemalloc.stop()
        return peaks

    def write(self, path: Path, t0: float):
        with path.open("w", encoding="utf-8") as fh:
            for name, start, end, parent, command, work in self.spans:
                fh.write(json.dumps([name, start - t0, end - t0, parent, command, work]) + "\n")


def layer_metrics(spans: list[list], commands: set[int]) -> dict[str, float]:
    """Per-layer metrics from the spans of the given command ids.

    A span's self time is its duration minus its direct children's
    durations; children of one span never overlap (one thread).
    """
    child = defaultdict(float)
    for name, start, end, parent, command, work in spans:
        if command in commands and parent >= 0:
            child[parent] += end - start
    total, own, calls, work_sum = (defaultdict(float) for _ in range(4))
    for i, (name, start, end, parent, command, work) in enumerate(spans):
        if command not in commands:
            continue
        total[name] += end - start
        own[name] += end - start - child[i]
        calls[name] += 1
        work_sum[name] += work

    load_s = total["graph.load"]
    m = {
        "graph.load.s": load_s,
        "graph.load.edges_per_s": work_sum["graph.load"] / load_s if load_s else 0.0,
        "graph.write.s": total["graph.write"],
        "graph.to_dense.calls": calls["graph.to_dense"],
        "graph.to_dense.s": total["graph.to_dense"],
        "generate.sample_sbm.s": total["generate.sample_sbm"],
        "models.loglik.s": total["models.loglik"],
        "models.loglik.calls": calls["models.loglik"],
        "vem.fit.self_s": own["vem.fit"],
        "vem.iterations": work_sum["vem.fit"],
        "switch.fit.self_s": own["switch.fit"],
        "switch.passes": work_sum["switch.fit"],
        "mcem.fit.self_s": own["mcem.fit"],
        "mcem.em_iterations": work_sum["mcem.fit"],
        "results.map_restarts.self_s": own["results.map_restarts"],
        "results.to_json.s": total["results.to_json"],
        "results.from_json.s": total["results.from_json"],
        "results.json_bytes": work_sum["results.to_json"],
        "evaluate.rand_index.s": total["evaluate.rand_index"],
        "cli.self_s": own["cli"],
        "trace.spans": sum(calls.values()),
    }
    for name in ("models.block_pair_stats", "models.mle_block_params", "mcem.m_step", "mcem.gini"):
        m[f"{name}.s"] = total[name]
        m[f"{name}.calls"] = calls[name]
    return m
