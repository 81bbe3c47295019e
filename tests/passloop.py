"""The Kernighan-Lin pass over the full (n, K) move table, kept as the byte oracle of ``switch._run_restart``.

``run_restart`` is ``switch._run_restart`` as it was before a step chose
its move from the active vertices' rows alone: every step fills the
(n, K) table of ``step_deltas``, with -inf in the inactive rows and the
stay-put cells, and takes its flat argmax.  It reads ``_Stats`` for the
deltas, the moves and the objective, and nothing else of the engine.
Differential tests require the same trace and labels from both, byte for
byte.
"""

import numpy as np

from blockmix.results import Restart, restart_stream
from blockmix.switch import ENGINE_ID, _Stats


def step_deltas(stats: _Stats, active: np.ndarray) -> np.ndarray:
    """(n, K) table of move deltas for the active vertices.

    Inactive vertices and stay-put columns are -inf, so a flat argmax
    picks the best (vertex, destination) pair; ties resolve to the
    lowest vertex index, then the lowest destination block.
    """
    D = np.full((stats.n, stats.K), -np.inf)
    verts = np.flatnonzero(active)
    if verts.size:
        D[verts] = stats.deltas(verts)
    return D


def run_restart(args) -> Restart:
    net, cfg, kind, restart = args
    rng = restart_stream(cfg.seed, ENGINE_ID, restart)
    labels0 = rng.integers(0, cfg.K, size=net.n_nodes)
    stats = _Stats(net, labels0, cfg.K, kind)
    cur = stats.objective()
    trace = [cur]
    for _ in range(cfg.max_passes if cfg.K > 1 else 0):
        start = cur
        active = np.ones(stats.n, dtype=bool)
        moves: list[tuple[int, int]] = []
        running, best_gain, best_len = 0.0, 0.0, 0
        for _step in range(stats.n):
            table = step_deltas(stats, active)
            flat = int(np.argmax(table))
            v, b = divmod(flat, stats.K)
            running += float(table[v, b])
            prev = int(stats.z[v])
            stats.apply(v, b)
            active[v] = False
            moves.append((v, prev))
            if running > best_gain:
                best_gain, best_len = running, len(moves)
        for v, prev in reversed(moves[best_len:]):
            stats.apply(v, prev)
        cur = stats.objective()
        trace.append(cur)
        if cur <= start + 1e-9:
            break
    return Restart(cur, stats.z.copy(), None, trace)
