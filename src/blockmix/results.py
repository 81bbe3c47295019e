"""Fit-result container, reproducible serialization, and the restart driver.

The on-disk format is JSON with two documented extensions of note:
floats are written with 17 significant digits so values round-trip
bit-exactly, and the tokens Infinity / -Infinity are permitted (the
degree-corrected model stores -inf log-rates for empty cells and
degree-zero nodes).  A schema_version field guards future changes.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, NamedTuple, Sequence

import numpy as np

from blockmix.graph import _distinct_labels
from blockmix.models import BlockParams, GraphonStep, Partition

__all__ = ["FitResult", "Restart", "to_json", "from_json", "fit_restarts", "map_restarts", "restart_stream"]

SCHEMA_VERSION = 1


@dataclass
class FitResult:
    """Everything a fitting engine reports.

    ``labels`` is the 1-based hard partition; ``node_labels`` carries the
    external node identifiers in index order; ``config`` echoes the
    engine configuration so the run can be reproduced bit-exactly.
    ``posterior`` is populated by the MCEM engine only.
    """

    engine: str
    kind: str
    K: int
    labels: np.ndarray
    node_labels: tuple[str, ...]
    params: BlockParams | GraphonStep
    objective: float
    trace: list[float]
    seed: int
    config: dict[str, Any]
    posterior: Any = None  # PosteriorSummary for the mcem engine

    def __post_init__(self):
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if len(self.node_labels) != self.labels.size:
            raise ValueError("node_labels length must match the partition")

    @property
    def partition(self) -> Partition:
        return Partition(self.labels, self.K)


def _render(obj, indent: int) -> str:
    pad = " " * indent
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        if math.isnan(x):
            return "NaN"
        if math.isinf(x):
            return "Infinity" if x > 0 else "-Infinity"
        return format(x, ".17g")
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = ",\n".join(pad + "  " + _render(v, indent + 2) for v in obj)
        return "[\n" + inner + "\n" + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = ",\n".join(
            f'{pad}  {json.dumps(str(k))}: {_render(v, indent + 2)}' for k, v in obj.items()
        )
        return "{\n" + inner + "\n" + pad + "}"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _params_obj(params: BlockParams | GraphonStep) -> dict:
    if isinstance(params, GraphonStep):
        return {
            "kind": "bernoulli",
            "K": params.K,
            "pi": params.pi,
            "block_matrix": params.P,
            "gamma": None,
            "tau": params.tau,
        }
    return {
        "kind": params.kind,
        "K": params.K,
        "pi": params.pi,
        "block_matrix": params.block_matrix,
        "gamma": params.gamma,
        "tau": None,
    }


def _params_from_obj(obj: dict) -> BlockParams | GraphonStep:
    if _typed(dict, obj).get("tau") is not None:
        params = GraphonStep(np.array(obj["tau"]), np.array(obj["block_matrix"]))
        _same(obj["kind"], "bernoulli")
    else:
        gamma = obj.get("gamma")
        pi = np.array(obj["pi"])
        params = BlockParams(
            obj["kind"],
            pi.size,
            pi,
            np.array(obj["block_matrix"]),
            gamma=None if gamma is None else np.array(gamma),
        )
    _whole(obj["K"], params.K, params.K)  # the K that the arrays imply
    return params


def to_json(result: FitResult) -> str:
    """Serialize a fit result to deterministic JSON text."""
    posterior = None
    if result.posterior is not None:
        posterior = {"freq": result.posterior.freq, "gini": result.posterior.gini}
    obj = {
        "schema_version": SCHEMA_VERSION,
        "engine": result.engine,
        "model": result.kind,
        "K": result.K,
        "seed": result.seed,
        "config": result.config,
        "node_labels": list(result.node_labels),
        "partition": result.labels,
        "params": _params_obj(result.params),
        "objective": float(result.objective),
        "trace": [float(v) for v in result.trace],
        "posterior": posterior,
    }
    return _render(obj, 0) + "\n"


def _posterior_from_obj(obj: dict | None, n: int, K: int):
    if obj is None:
        return None
    from blockmix.mcem import PosteriorSummary

    post = PosteriorSummary(np.array(obj["freq"], dtype=np.float64), np.array(obj["gini"], dtype=np.float64))
    if post.freq.shape != (n, K):
        rows, cols = post.freq.shape
        raise ValueError(f"freq has {rows} x {cols} entries, expected {n} nodes x {K} blocks")
    return post


def _typed(types, v):
    """v itself when it is a JSON value of the given types; true and false are not numbers."""
    if isinstance(v, bool) or not isinstance(v, types):
        raise TypeError(f"unexpected value {v!r}")
    return v


def _same(v, expected):
    """v itself when it equals expected."""
    if v != expected:
        raise ValueError(f"{v!r} differs from {expected!r}")
    return v


def _whole(v, low: int, high: int) -> int:
    """A JSON number without a fractional part, in low..high, as an int."""
    if not low <= _typed((int, float), v) <= high or v % 1:
        raise ValueError(f"{v!r} is not a whole number in {low}..{high}")
    return int(v)


def from_json(text: str) -> FitResult:
    """Parse fit-result JSON back into a FitResult, without loss.

    A missing or unreadable field raises ValueError naming the field.
    The engine and the distinct node labels are strings, the objective
    and trace JSON numbers; the model is the params' kind, K (top-level
    and the params') is the K that the params' arrays imply, the seed and
    the partition labels are whole numbers (labels in 1..K), and a
    posterior needs one row of K frequencies per node.
    """
    obj = json.loads(text)
    version = obj.get("schema_version") if isinstance(obj, dict) else None
    if version != SCHEMA_VERSION:
        raise ValueError(f"unsupported schema_version {version!r}")

    def field(name: str, convert=lambda v: v):
        if name not in obj:
            raise ValueError(f"malformed result file: missing field {name!r}")
        try:
            return convert(obj[name])
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed result file: bad field {name!r} ({exc})") from None

    string, number = partial(_typed, str), lambda v: float(_typed((int, float), v))
    engine = field("engine", string)
    params = field("params", _params_from_obj)
    kind = field("model", lambda v: _same(v, obj["params"]["kind"]))
    K = field("K", lambda v: _whole(v, params.K, params.K))  # the K of the params
    node_labels = field("node_labels", lambda v: _distinct_labels(tuple(string(x) for x in _typed(list, v))))
    n = len(node_labels)
    return FitResult(
        engine=engine,
        kind=kind,
        K=K,
        labels=np.array(field("partition", lambda v: [_whole(x, 1, K) for x in _typed(list, v)]), dtype=np.int64),
        node_labels=node_labels,
        params=params,
        objective=field("objective", number),
        trace=field("trace", lambda v: [number(x) for x in _typed(list, v)]),
        seed=field("seed", lambda v: _whole(v, 0, 2**64 - 1)),
        config=field("config"),
        posterior=field("posterior", lambda v: _posterior_from_obj(v, n, K)) if "posterior" in obj else None,
    )


def whole(v) -> bool:
    """Whether v is an int or a NumPy integer; bools and floats are not whole numbers here."""
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


def check_config(cfg, counts: Sequence[str]) -> None:
    """Raise ValueError naming the field unless each of ``counts`` is a ``whole`` number of at least 1
    and the seed one in 0..2**64-1."""
    for name in counts:
        if not whole(getattr(cfg, name)) or getattr(cfg, name) < 1:
            raise ValueError(f"{name} must be a positive whole number (at least 1), got {getattr(cfg, name)!r}")
    if not whole(cfg.seed) or not 0 <= cfg.seed < 2**64:
        raise ValueError(f"seed must be a whole number in 0..2**64-1, got {cfg.seed!r}")


def restart_stream(seed: int, engine_id: int, restart: int) -> np.random.Generator:
    """Counter-based stream for one engine restart.

    Engine ids are namespaced away from the generator module's streams
    so fitting a network with the seed that sampled it never replays the
    same uniforms.
    """
    key = np.array([seed, (engine_id << 40) + restart], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def worker_count() -> int:
    """Restart parallelism; set BLOCKMIX_WORKERS to enable a process pool."""
    raw = os.environ.get("BLOCKMIX_WORKERS", "1")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


def map_restarts(fn: Callable, args: Sequence) -> list:
    """Apply fn to each restart argument, preserving input order.

    Runs serially unless BLOCKMIX_WORKERS exceeds 1.  Results are
    order-stable, so reductions over them are scheduling-independent.
    """
    workers = worker_count()
    if workers <= 1 or len(args) <= 1:
        return [fn(a) for a in args]
    from concurrent.futures import ProcessPoolExecutor  # serial restarts skip its import chain

    with ProcessPoolExecutor(max_workers=min(workers, len(args))) as pool:
        return list(pool.map(fn, args))


class Restart(NamedTuple):
    """What one engine restart reports: ``labels`` is its 0-based partition
    and ``extra`` holds engine state that the fit needs after the restarts."""

    objective: float
    labels: np.ndarray
    params: BlockParams | GraphonStep | None
    trace: list[float]
    extra: Any = None


def fit_restarts(engine: str, kind: str, restart_fn: Callable, net, cfg,
                 config: dict) -> tuple[FitResult, int, Restart]:
    """Best of ``cfg.restarts`` runs of ``restart_fn((net, cfg, kind, r))``.

    K may not exceed the number of nodes; that is checked before any
    restart runs.  The highest objective wins, and among equal objectives
    the lowest restart index; only the best record so far is kept.
    Returns the FitResult of the winner (with ``config`` as its
    configuration echo), its index and its record.
    """
    if cfg.K > net.n_nodes:
        raise ValueError("K cannot exceed the number of nodes")
    # restarts run one at a time, or in batches of two a worker when pooled,
    # and only the best record is kept from one batch to the next
    size = 1 if worker_count() <= 1 else 2 * worker_count()
    best = run = None
    for start in range(0, cfg.restarts, size):
        batch = [(net, cfg, kind, i) for i in range(start, min(start + size, cfg.restarts))]
        for r, record in enumerate(map_restarts(restart_fn, batch), start):
            if run is None or record.objective > run.objective:  # as max does: the first best stays
                best, run = r, record
        del record
    result = FitResult(
        engine=engine,
        kind=kind,
        K=cfg.K,
        labels=run.labels + 1,
        node_labels=net.labels(),
        params=run.params,
        objective=run.objective,
        trace=run.trace,
        seed=cfg.seed,
        config=config,
    )
    return result, best, run
