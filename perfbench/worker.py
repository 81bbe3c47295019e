"""Closed-loop runner for one workload, started in a fresh process by run.py.

Usage: ``python3 perfbench/worker.py SPEC.pickle OUT.json`` with ``src`` on
PYTHONPATH.  run.py writes SPEC: the workload (its inputs are already on
disk), seconds, trace flag and the span file path.  The worker runs
the workload's commands through ``blockmix.cli.main`` in rounds until the
time is up, checks every output, and writes per-round timings (and, when
traced, per-layer metrics) to OUT.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import math
import pickle
import resource
import statistics
import sys
import traceback
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np

import blockmix.cli as cli_module
from blockmix.results import from_json, to_json

import calibrate
import probes
import tracing
import workloads


def rand_index(pred: np.ndarray, truth: np.ndarray) -> float:
    """Plain Rand index from the contingency table (independent of blockmix)."""
    _, a = np.unique(pred, return_inverse=True)
    _, b = np.unique(truth, return_inverse=True)
    table = np.zeros((a.max() + 1, b.max() + 1), dtype=np.int64)
    np.add.at(table, (a, b), 1)

    def pairs(x):
        return int((x * (x - 1) // 2).sum())

    n = pred.size
    total = n * (n - 1) // 2
    return (total + 2 * pairs(table) - pairs(table.sum(1)) - pairs(table.sum(0))) / total


class Checker:
    """Validates each command's output and tracks repeats for byte identity."""

    def __init__(self, w: workloads.Workload):
        self.w = w
        self.first: dict[tuple, str] = {}  # argv -> digest of its first run
        self.attempted = 0
        self.failures: list[str] = []
        self.rand: dict[str, float] = {}
        self.result_sha256: dict[str, str] = {}

    def check(self, cmd: workloads.Command, code, out: str, err: str):
        self.attempted += 1
        try:
            problem = self._problem(cmd, code, out, err)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            problem = f"output could not be checked: {exc!r}"
        if problem is None:
            produced = [cmd.out] if cmd.out else []
            if cmd.group == "generate":
                produced = self.w.generate.files
            h = hashlib.sha256(out.encode())
            for path in produced:
                data = path.read_bytes()
                h.update(data)
                self.result_sha256.setdefault(path.name, hashlib.sha256(data).hexdigest())
            digest = h.hexdigest()
            if self.first.setdefault(tuple(cmd.argv), digest) != digest:
                problem = "output differs from the first run of the same command"
        if problem is not None:
            self.failures.append(f"{' '.join(cmd.argv[:2])}: {problem}")

    def _problem(self, cmd, code, out, err):
        if code != 0:
            return f"exit code {code}: {err.strip()[-300:]}"
        if "Traceback" in err:
            return "traceback on stderr"
        g = self.w.graph
        if cmd.group == "stats":
            want = f"nodes\t{g.n_nodes}\nedges\t{g.n_edges}\ndensity\t{g.density:.3f}\n"
            return None if out == want else f"stats printed {out!r}, expected {want!r}"
        if cmd.group.startswith("fit_"):
            text = cmd.out.read_text(encoding="utf-8")
            result = from_json(text)
            if to_json(result) != text:
                return "result file does not round-trip through from_json"
            if not math.isfinite(result.objective):
                return f"objective {result.objective} is not finite"
            truth = np.array([g.truth[v] for v in result.node_labels])
            rand = rand_index(result.labels, truth)
            key = "rand_" + cmd.group[4:]
            self.rand[key] = min(rand, self.rand.get(key, 1.0))
            if rand < workloads.RAND_MIN:
                return f"Rand index {rand:.4f} below the bound {workloads.RAND_MIN}"
            return None
        if cmd.group == "eval":
            result = from_json(cmd.fit_out.read_text(encoding="utf-8"))
            truth = np.array([g.truth[v] for v in result.node_labels])
            want = f"rand_index\t{rand_index(result.labels, truth):.4f}\n"
            return None if out.startswith(want) else f"eval printed {out[:40]!r}, expected {want!r}"
        if cmd.group == "generate":
            return check_generated(self.w.generate, out)
        return f"unknown command group {cmd.group}"


def check_generated(spec: workloads.GenerateSpec, out: str):
    """The generated files describe spec.n nodes and a plausible edge count."""
    edges, labels = spec.files
    if out != f"wrote {edges} and {labels}\n":
        return f"generate printed {out!r}"
    groups = [line.split() for line in labels.read_text(encoding="utf-8").splitlines()]
    K = spec.P.shape[0]
    if [g[0] for g in groups] != [str(i) for i in range(spec.n)]:
        return "label file does not list nodes 0..n-1 in order"
    z = np.array([int(g[1]) - 1 for g in groups])
    if z.min() < 0 or z.max() >= K:
        return "label file holds a group outside 1..K"
    lines = edges.read_text(encoding="utf-8").splitlines()
    if lines[:spec.n] != [str(i) for i in range(spec.n)]:
        return "edge file does not declare nodes 0..n-1 first"
    pairs = np.array([line.split() for line in lines[spec.n:]], dtype=np.int64).reshape(-1, 2)
    if pairs.size and (np.any(pairs[:, 0] >= pairs[:, 1]) or pairs.max() >= spec.n):
        return "edge file holds a pair outside 0 <= i < j < n"
    if np.unique(pairs[:, 0] * spec.n + pairs[:, 1]).size != len(pairs):
        return "edge file repeats a pair"
    sizes = np.bincount(z, minlength=K).astype(float)
    pair_count = np.outer(sizes, sizes)
    pair_count[np.diag_indices(K)] = sizes * (sizes - 1)
    pair_count /= 2  # unordered pairs; off-diagonal cells appear twice in the sum
    mean = float((pair_count * spec.P).sum())
    sd = math.sqrt(float((pair_count * spec.P * (1 - spec.P)).sum()))
    if abs(len(pairs) - mean) > 6 * sd:
        return f"{len(pairs)} edges, expected {mean:.0f} +- {6 * sd:.0f}"
    return None


def execute(argv: list[str]):
    """One in-process CLI call: (exit code, stdout, stderr, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli_module.main(list(argv))
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # a traceback is a failed command, not a failed run
        code = None
        err.write(traceback.format_exc())
    return code, out.getvalue(), err.getvalue(), perf_counter() - start


def run_round(w: workloads.Workload, checker: Checker, tracer: tracing.Tracer | None = None):
    """All commands once (each ``repeat`` times); returns seconds per group.

    ``workload_s`` is the round's total.  A group's time is its median call
    times its number of calls, so one call slowed by the machine does not
    move a group made of many millisecond calls.  ``loops`` holds the
    calibration loop's time before each command.
    """
    calls: dict[str, list[float]] = defaultdict(list)
    loops = []
    ids = set()
    for cmd in w.commands:
        loops.append(calibrate.loop_seconds())
        for _ in range(cmd.repeat):
            gc.collect()
            if tracer is not None:
                tracer.command += 1
                ids.add(tracer.command)
            code, out, err, seconds = execute(cmd.argv)
            calls[cmd.group].append(seconds)
            checker.check(cmd, code, out, err)
    times = {group: statistics.median(t) * len(t) for group, t in calls.items()}
    times["workload_s"] = sum(sum(t) for t in calls.values())
    times["loops"] = loops
    return times, ids


def warm_up(workdir: Path):
    """Settle imports and first-call costs on a tiny graph, untimed."""
    tiny = workdir / "warmup.edges"
    tiny.write_text("a b\nb c\nc a\nc d\nd e\ne f\nf d\n", encoding="utf-8")
    with contextlib.redirect_stdout(io.StringIO()):
        cli_module.main(["stats", str(tiny)])
        cli_module.main(["fit", str(tiny), "--method", "switch", "--K", "2", "--restarts", "1",
                         "--out", str(workdir / "warmup.json")])


def main(spec_path: str, out_path: str) -> int:
    with open(spec_path, "rb") as fh:
        spec = pickle.load(fh)  # written by run.py for this process
    w = spec["workload"]
    warm_up(w.graph.edges.parent)
    gc.freeze()
    checker = Checker(w)
    rounds, traced, layers = [], [], []
    tracer = tracing.Tracer()
    start = perf_counter()
    while True:
        if spec["trace"] and rounds:
            tracer.install()
            try:
                times, ids = run_round(w, checker, tracer)
            finally:
                tracer.uninstall()
            traced.append(times)
            layers.append(tracing.layer_metrics(tracer.spans, ids))
        else:
            rounds.append(run_round(w, checker)[0])
        if perf_counter() - start >= spec["seconds"] and (traced or not spec["trace"]):
            break
    record = {
        "rounds": rounds,
        "attempted": checker.attempted,
        "failures": checker.failures,
        "rand": checker.rand,
        "result_sha256": checker.result_sha256,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if spec["trace"]:
        per_layer = {k: statistics.median(m[k] for m in layers) for k in layers[0]}
        per_layer["trace.overhead_s"] = (calibrate.scaled_median(traced, "workload_s")
                                         - calibrate.scaled_median(rounds, "workload_s"))
        for name, mb in tracer.peak_mb().items():
            per_layer[f"{name}.peak_mb"] = mb
        per_layer.update(probes.run(w))
        record["layers"] = per_layer
        record["traced_rounds"] = traced
        tracer.write(Path(spec["spans"]), start)
    Path(out_path).write_text(json.dumps(record), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
