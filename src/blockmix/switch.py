"""Vertex-switching maximization of the profile log-likelihood.

The objective is the model log-likelihood with all block parameters
maximized out, so the search ranges over partitions alone.  Each pass
moves every vertex exactly once: at each step the not-yet-moved vertex
with the largest objective change is relocated to its best alternative
block, even when every available change is negative.  The pass keeps
its best intermediate state and rewinds the rest; this escapes shallow
local maxima that defeat plain greedy sweeps.  A greedy toggle is
available for comparison.
"""

from __future__ import annotations

from dataclasses import dataclass, asdict
from typing import NamedTuple

import numpy as np

from blockmix.graph import Network, degrees
from blockmix.models import Partition, mle_block_params
from blockmix.results import FitResult, map_restarts, restart_stream

__all__ = ["SwitchConfig", "MoveDelta", "delta_loglik", "profile_loglik", "switch_fit"]

ENGINE_ID = 2


@dataclass
class SwitchConfig:
    K: int
    restarts: int = 20
    max_passes: int = 100
    seed: int = 0
    kind: str = "bernoulli"
    greedy: bool = False

    def __post_init__(self):
        if self.K < 1:
            raise ValueError("K must be at least 1")
        if self.restarts < 1:
            raise ValueError("restarts must be at least 1")
        if self.max_passes < 1:
            raise ValueError("max_passes must be at least 1")


class MoveDelta(NamedTuple):
    """Objective change of a single-vertex move.

    ``empties_block`` flags moves that strip the source block of its
    last member; the value is still exact (empty blocks contribute
    nothing to the profile objective).
    """

    value: float
    empties_block: bool


def _xlogy(a, b):
    """a * log(b), and 0 where a is not positive.

    Callers run it under np.errstate(divide="ignore", invalid="ignore"),
    entered once per objective or move_deltas call, not once per term.
    """
    return np.where(a > 0, a * np.log(b), 0.0)


class _Stats:
    """Block-pair sufficient statistics with O(deg + K) single-vertex moves.

    Keeps a per-vertex block-count table so candidate moves can be
    scored in closed form from the cells that touch the two affected
    blocks, without rebuilding anything.
    """

    def __init__(self, net: Network, labels0: np.ndarray, K: int, kind: str):
        self.kind = kind
        self.K = K
        self.n = net.n_nodes
        self.directed = net.directed
        self.z = labels0.copy()
        self.deg = degrees(net).astype(np.float64)
        self.total = float(net.total_value)
        out_nbrs = [[] for _ in range(self.n)]
        out_vals = [[] for _ in range(self.n)]
        in_nbrs = [[] for _ in range(self.n)]
        in_vals = [[] for _ in range(self.n)]
        for (i, j), v in net.entries.items():
            out_nbrs[i].append(j)
            out_vals[i].append(float(v))
            in_nbrs[j].append(i)
            in_vals[j].append(float(v))
        self.out_nbrs = [np.array(a, dtype=np.int64) for a in out_nbrs]
        self.out_vals = [np.array(a) for a in out_vals]
        self.in_nbrs = [np.array(a, dtype=np.int64) for a in in_nbrs]
        self.in_vals = [np.array(a) for a in in_vals]

        self.sizes = np.bincount(labels0, minlength=K).astype(np.float64)
        self.edge = np.zeros((K, K))
        rows = np.array([i for (i, j) in net.entries], dtype=np.int64)
        cols = np.array([j for (i, j) in net.entries], dtype=np.int64)
        vals = np.array([float(v) for v in net.entries.values()])
        # vcount[v, k]: value from v toward block k (and from block k into
        # v for the directed in-table); no self-loops, so moving v never
        # changes v's own row
        self.vcount_out = np.zeros((self.n, K))
        if rows.size:
            np.add.at(self.edge, (labels0[rows], labels0[cols]), vals)
            np.add.at(self.vcount_out, (rows, labels0[cols]), vals)
        if self.directed:
            self.vcount_in = np.zeros((self.n, K))
            if rows.size:
                np.add.at(self.vcount_in, (cols, labels0[rows]), vals)
        else:
            self.vcount_in = self.vcount_out
        if kind == "dc_poisson":
            self.kappa = np.zeros(K)
            self.degsq = np.zeros(K)
            np.add.at(self.kappa, labels0, self.deg)
            np.add.at(self.degsq, labels0, self.deg * self.deg)
            with np.errstate(divide="ignore", invalid="ignore"):
                self.dlogd = float(_xlogy(self.deg, self.deg).sum())

    def apply(self, v: int, to0: int):
        a = self.z[v]
        e_out = self.vcount_out[v]
        e_in = self.vcount_in[v]
        self.edge[a, :] -= e_out
        self.edge[:, a] -= e_in
        self.edge[to0, :] += e_out
        self.edge[:, to0] += e_in
        self.sizes[a] -= 1
        self.sizes[to0] += 1
        self.z[v] = to0
        nbrs, wts = self.out_nbrs[v], self.out_vals[v]
        if nbrs.size:
            self.vcount_in[nbrs, a] -= wts
            self.vcount_in[nbrs, to0] += wts
        if self.directed:
            nbrs, wts = self.in_nbrs[v], self.in_vals[v]
            if nbrs.size:
                self.vcount_out[nbrs, a] -= wts
                self.vcount_out[nbrs, to0] += wts
        if self.kind == "dc_poisson":
            d = self.deg[v]
            self.kappa[a] -= d
            self.kappa[to0] += d
            self.degsq[a] -= d * d
            self.degsq[to0] += d * d

    def _unordered_cells(self, edge: np.ndarray, weight: np.ndarray):
        if self.directed:
            return edge, weight
        e_u = np.triu(edge, 1) + np.diag(np.diag(edge) / 2.0)
        w_u = np.triu(weight, 1) + np.diag(np.diag(weight) / 2.0)
        return e_u, w_u

    def _dc_weights(self, sizes, kappa, degsq):
        ratio = np.where(kappa > 0, sizes / kappa, 0.0)
        svec = np.where(kappa > 0, sizes, 0.0)
        qvec = degsq * ratio * ratio
        return svec, qvec, ratio

    @np.errstate(divide="ignore", invalid="ignore")
    def objective(self) -> float:
        s = self.sizes
        if self.kind == "dc_poisson":
            svec, qvec, ratio = self._dc_weights(s, self.kappa, self.degsq)
            weight = np.outer(svec, svec) - np.diag(qvec)
            e_u, w_u = self._unordered_cells(self.edge, weight)
            cell_term = _xlogy(e_u, e_u / np.maximum(w_u, 1e-300)).sum()
            kappa_term = _xlogy(self.kappa, ratio).sum()
            return self.dlogd + kappa_term + cell_term - self.total
        pair_w = np.outer(s, s) - np.diag(s)
        e_u, n_u = self._unordered_cells(self.edge, pair_w)
        if self.kind == "bernoulli":
            term = _xlogy(e_u, e_u) + _xlogy(n_u - e_u, n_u - e_u) - _xlogy(n_u, n_u)
            return float(term.sum())
        # poisson: cell rates plus the profiled mixing weights
        cell_term = (_xlogy(e_u, e_u / np.maximum(n_u, 1.0)) - e_u).sum()
        mix_term = _xlogy(s, s / self.n).sum()
        return float(cell_term + mix_term)

    def _cell_term(self, e, w):
        """Per-cell objective term; constants under vertex moves omitted."""
        if self.kind == "bernoulli":
            return _xlogy(e, e) + _xlogy(w - e, w - e) - _xlogy(w, w)
        if self.kind == "poisson":
            # the -e part sums to a move-invariant constant over touched cells
            return _xlogy(e, e / np.maximum(w, 1.0))
        return _xlogy(e, e / np.maximum(w, 1e-300))

    @np.errstate(divide="ignore", invalid="ignore")
    def move_deltas(self, a: int, d: int, verts: np.ndarray) -> np.ndarray:
        """Objective changes for moving each vertex of ``verts`` from a to d.

        Every vertex must currently sit in block a.  Only the cells whose
        statistics a single move can touch enter the balance, so the cost
        is O(len(verts) * K) regardless of graph size.
        """
        eo = self.vcount_out[verts]
        if self.directed:
            return self._move_deltas_directed(a, d, verts, eo)
        return self._move_deltas_undirected(a, d, verts, eo)

    def _move_deltas_undirected(self, a, d, verts, eo):
        K, s, n = self.K, self.sizes, self.n
        sa, sd = s[a], s[d]
        sa2, sd2 = sa - 1.0, sd + 1.0
        ua = self.edge[a].copy()
        ua[a] /= 2.0
        ud = self.edge[d].copy()
        ud[d] /= 2.0
        uad = self.edge[a, d]
        mask_a = np.ones(K, dtype=bool)
        mask_a[d] = False
        mask_d = np.ones(K, dtype=bool)
        mask_d[a] = False
        if self.kind == "dc_poisson":
            return self._dc_deltas_undirected(
                a, d, verts, eo, ua, ud, uad, mask_a, mask_d
            )
        wa, wd = sa * s, sd * s
        wa = wa.copy()
        wd = wd.copy()
        wa[a] = sa * (sa - 1.0) / 2.0
        wd[d] = sd * (sd - 1.0) / 2.0
        wad = sa * sd
        wa2, wd2 = sa2 * s, sd2 * s
        wa2 = wa2.copy()
        wd2 = wd2.copy()
        wa2[a] = sa2 * (sa2 - 1.0) / 2.0
        wd2[d] = sd2 * (sd2 - 1.0) / 2.0
        wad2 = sa2 * sd2
        before = (
            self._cell_term(ua, wa)[mask_a].sum()
            + self._cell_term(ud, wd)[mask_d].sum()
            + float(self._cell_term(np.array([uad]), np.array([wad]))[0])
        )
        after = (
            self._cell_term(ua[None, :] - eo, wa2[None, :])[:, mask_a].sum(axis=1)
            + self._cell_term(ud[None, :] + eo, wd2[None, :])[:, mask_d].sum(axis=1)
            + self._cell_term(uad + eo[:, a] - eo[:, d], np.full(verts.size, wad2))
        )
        delta = after - before
        if self.kind == "poisson":
            mix = (
                _xlogy(np.array([sa2, sd2]), np.array([sa2, sd2]) / n).sum()
                - _xlogy(np.array([sa, sd]), np.array([sa, sd]) / n).sum()
            )
            delta = delta + mix
        return delta

    def _dc_deltas_undirected(self, a, d, verts, eo, ua, ud, uad, mask_a, mask_d):
        s = self.sizes
        sa, sd = s[a], s[d]
        sa2, sd2 = sa - 1.0, sd + 1.0
        dv = self.deg[verts]
        svec, qvec, ratio = self._dc_weights(s, self.kappa, self.degsq)
        wa = svec[a] * svec
        wd = svec[d] * svec
        wa = wa.copy()
        wd = wd.copy()
        wa[a] = (svec[a] ** 2 - qvec[a]) / 2.0
        wd[d] = (svec[d] ** 2 - qvec[d]) / 2.0
        wad = svec[a] * svec[d]
        before = (
            self._cell_term(ua, wa)[mask_a].sum()
            + self._cell_term(ud, wd)[mask_d].sum()
            + float(self._cell_term(np.array([uad]), np.array([wad]))[0])
            + float(_xlogy(self.kappa[a], ratio[a]) + _xlogy(self.kappa[d], ratio[d]))
        )
        ka2 = self.kappa[a] - dv
        kd2 = self.kappa[d] + dv
        qa_deg = self.degsq[a] - dv * dv
        qd_deg = self.degsq[d] + dv * dv
        ra2 = np.where(ka2 > 0, sa2 / ka2, 0.0)
        rd2 = np.where(kd2 > 0, sd2 / kd2, 0.0)
        sva2 = np.where(ka2 > 0, sa2, 0.0)
        svd2 = np.where(kd2 > 0, sd2, 0.0)
        qa2 = qa_deg * ra2 * ra2
        qd2 = qd_deg * rd2 * rd2
        wa2 = sva2[:, None] * svec[None, :]
        wd2 = svd2[:, None] * svec[None, :]
        wa2[:, a] = (sva2 ** 2 - qa2) / 2.0
        wd2[:, d] = (svd2 ** 2 - qd2) / 2.0
        wad2 = sva2 * svd2
        after = (
            self._cell_term(ua[None, :] - eo, wa2)[:, mask_a].sum(axis=1)
            + self._cell_term(ud[None, :] + eo, wd2)[:, mask_d].sum(axis=1)
            + self._cell_term(uad + eo[:, a] - eo[:, d], wad2)
            + _xlogy(ka2, ra2)
            + _xlogy(kd2, rd2)
        )
        return after - before

    def _move_deltas_directed(self, a, d, verts, eo):
        K, s, n = self.K, self.sizes, self.n
        ei = self.vcount_in[verts]
        sa, sd = s[a], s[d]
        sa2, sd2 = sa - 1.0, sd + 1.0
        row_a, row_d = self.edge[a].copy(), self.edge[d].copy()
        col_a, col_d = self.edge[:, a].copy(), self.edge[:, d].copy()
        mask = np.ones(K, dtype=bool)
        mask[a] = False
        mask[d] = False
        if self.kind == "dc_poisson":
            dv = self.deg[verts]
            svec, qvec, ratio = self._dc_weights(s, self.kappa, self.degsq)
            wrow_a = svec[a] * svec
            wrow_d = svec[d] * svec
            ka2 = self.kappa[a] - dv
            kd2 = self.kappa[d] + dv
            ra2 = np.where(ka2 > 0, sa2 / ka2, 0.0)
            rd2 = np.where(kd2 > 0, sd2 / kd2, 0.0)
            sva2 = np.where(ka2 > 0, sa2, 0.0)
            svd2 = np.where(kd2 > 0, sd2, 0.0)
            qa2 = (self.degsq[a] - dv * dv) * ra2 * ra2
            qd2 = (self.degsq[d] + dv * dv) * rd2 * rd2
            wrow_a2 = sva2[:, None] * svec[None, :]
            wrow_d2 = svd2[:, None] * svec[None, :]
            corners_w = (
                svec[a] ** 2 - qvec[a],
                wrow_a[d],
                wrow_a[d],
                svec[d] ** 2 - qvec[d],
            )
            corners_w2 = (
                sva2 ** 2 - qa2,
                sva2 * svd2,
                sva2 * svd2,
                svd2 ** 2 - qd2,
            )
            extra = float(_xlogy(self.kappa[a], ratio[a]) + _xlogy(self.kappa[d], ratio[d]))
            extra2 = _xlogy(ka2, ra2) + _xlogy(kd2, rd2)
        else:
            wrow_a, wrow_d = sa * s, sd * s
            wrow_a2 = np.broadcast_to(sa2 * s, (verts.size, K))
            wrow_d2 = np.broadcast_to(sd2 * s, (verts.size, K))
            corners_w = (sa * (sa - 1.0), sa * sd, sa * sd, sd * (sd - 1.0))
            ones = np.ones(verts.size)
            corners_w2 = (
                sa2 * (sa2 - 1.0) * ones,
                sa2 * sd2 * ones,
                sa2 * sd2 * ones,
                sd2 * (sd2 - 1.0) * ones,
            )
            extra = 0.0
            extra2 = np.zeros(verts.size)
            if self.kind == "poisson":
                extra = float(_xlogy(np.array([sa, sd]), np.array([sa, sd]) / n).sum())
                extra2 = np.full(
                    verts.size,
                    float(_xlogy(np.array([sa2, sd2]), np.array([sa2, sd2]) / n).sum()),
                )
        corners_e = (
            self.edge[a, a],
            self.edge[a, d],
            self.edge[d, a],
            self.edge[d, d],
        )
        corners_e2 = (
            corners_e[0] - eo[:, a] - ei[:, a],
            corners_e[1] - eo[:, d] + ei[:, a],
            corners_e[2] + eo[:, a] - ei[:, d],
            corners_e[3] + eo[:, d] + ei[:, d],
        )
        before = (
            self._cell_term(row_a, wrow_a)[mask].sum()
            + self._cell_term(row_d, wrow_d)[mask].sum()
            + self._cell_term(col_a, wrow_a)[mask].sum()
            + self._cell_term(col_d, wrow_d)[mask].sum()
            + sum(
                float(self._cell_term(np.array([e]), np.array([w]))[0])
                for e, w in zip(corners_e, corners_w)
            )
            + extra
        )
        after = (
            self._cell_term(row_a[None, :] - eo, wrow_a2)[:, mask].sum(axis=1)
            + self._cell_term(row_d[None, :] + eo, wrow_d2)[:, mask].sum(axis=1)
            + self._cell_term(col_a[None, :] - ei, wrow_a2)[:, mask].sum(axis=1)
            + self._cell_term(col_d[None, :] + ei, wrow_d2)[:, mask].sum(axis=1)
            + sum(
                self._cell_term(e2, np.asarray(w2))
                for e2, w2 in zip(corners_e2, corners_w2)
            )
            + extra2
        )
        return after - before

    def step_deltas(self, active: np.ndarray) -> np.ndarray:
        """(n, K) table of move deltas for the active vertices.

        Inactive vertices and stay-put columns are -inf, so a flat argmax
        picks the best (vertex, destination) pair; ties resolve to the
        lowest vertex index, then the lowest destination block.
        """
        D = np.full((self.n, self.K), -np.inf)
        for a in range(self.K):
            verts = np.flatnonzero(active & (self.z == a))
            if verts.size == 0:
                continue
            for d in range(self.K):
                if d == a:
                    continue
                D[verts, d] = self.move_deltas(a, d, verts)
        return D


def _check_kind(net: Network, kind: str):
    if kind not in ("bernoulli", "poisson", "dc_poisson"):
        raise ValueError(f"unknown model kind {kind!r}")
    if kind == "bernoulli" and net.value_kind != "binary":
        raise ValueError("bernoulli objective needs a binary network")


def profile_loglik(net: Network, part: Partition, kind: str = "bernoulli") -> float:
    """Log-likelihood of a partition with parameters maximized out.

    Tolerates empty blocks: they contribute nothing, and block-pair
    cells with no possible pairs are neutral.
    """
    _check_kind(net, kind)
    if part.n != net.n_nodes:
        raise ValueError("partition length must equal the number of nodes")
    return _Stats(net, part.zero_based(), part.K, kind).objective()


def delta_loglik(net: Network, part: Partition, vertex: int, to: int, kind: str = "bernoulli") -> MoveDelta:
    """Objective change from moving one vertex to block ``to`` (1-based).

    Exactly equals the profile log-likelihood difference of the two
    partitions; only the affected block-pair statistics enter.
    """
    _check_kind(net, kind)
    if not 0 <= vertex < net.n_nodes:
        raise ValueError("vertex index out of range")
    if not 1 <= to <= part.K:
        raise ValueError("destination block out of range")
    if part.labels[vertex] == to:
        raise ValueError("destination equals the current block")
    stats = _Stats(net, part.zero_based(), part.K, kind)
    a = int(part.labels[vertex] - 1)
    empties = stats.sizes[a] == 1
    value = stats.move_deltas(a, to - 1, np.array([vertex], dtype=np.int64))
    return MoveDelta(float(value[0]), bool(empties))


def _best_move(stats: _Stats, v: int) -> tuple[int, float]:
    """Best destination block for v and the move's objective change."""
    a = int(stats.z[v])
    vert = np.array([v], dtype=np.int64)
    best_b, best_delta = -1, -np.inf
    for b in range(stats.K):
        if b == a:
            continue
        delta = float(stats.move_deltas(a, b, vert)[0])
        if delta > best_delta:  # strict: ties keep the lowest block index
            best_b, best_delta = b, delta
    return best_b, best_delta


def _run_restart(args) -> tuple[float, np.ndarray, list[float]]:
    net, cfg, restart = args
    rng = restart_stream(cfg.seed, ENGINE_ID, restart)
    labels0 = rng.integers(0, cfg.K, size=net.n_nodes)
    stats = _Stats(net, labels0, cfg.K, cfg.kind)
    cur = stats.objective()
    trace = [cur]
    for _ in range(cfg.max_passes):
        start = cur
        if cfg.greedy:
            moved = False
            for v in range(stats.n):
                b, delta = _best_move(stats, v)
                if delta > 1e-12:
                    stats.apply(v, b)
                    cur += delta
                    moved = True
            if not moved:
                break
            cur = stats.objective()
            trace.append(cur)
            continue
        # Kernighan-Lin pass: the best-gaining unmoved vertex goes first,
        # every vertex moves exactly once, keep the pass's best prefix
        active = np.ones(stats.n, dtype=bool)
        moves: list[tuple[int, int]] = []  # (vertex, block it came from)
        running, best_gain, best_len = 0.0, 0.0, 0
        for _step in range(stats.n):
            table = stats.step_deltas(active)
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
    return cur, stats.z.copy(), trace


def switch_fit(net: Network, cfg: SwitchConfig) -> FitResult:
    """Best-of-restarts vertex-switching search."""
    _check_kind(net, cfg.kind)
    if cfg.K > net.n_nodes:
        raise ValueError("K cannot exceed the number of nodes")
    if cfg.K == 1:
        labels = np.ones(net.n_nodes, dtype=np.int64)
        part = Partition(labels, 1)
        obj = profile_loglik(net, part, cfg.kind)
        return FitResult(
            engine="switch",
            kind=cfg.kind,
            K=1,
            labels=labels,
            node_labels=net.labels(),
            params=mle_block_params(net, part, cfg.kind),
            objective=obj,
            trace=[obj],
            seed=cfg.seed,
            config=asdict(cfg),
        )
    runs = map_restarts(_run_restart, [(net, cfg, r) for r in range(cfg.restarts)])
    best = max(range(cfg.restarts), key=lambda r: runs[r][0])
    obj, labels0, trace = runs[best]
    part = Partition(labels0 + 1, cfg.K)
    params = mle_block_params(net, part, cfg.kind, allow_empty=True)
    return FitResult(
        engine="switch",
        kind=cfg.kind,
        K=cfg.K,
        labels=labels0 + 1,
        node_labels=net.labels(),
        params=params,
        objective=obj,
        trace=trace,
        seed=cfg.seed,
        config=asdict(cfg),
    )
