"""Vertex-switching maximization of the profile log-likelihood.

The objective is the model log-likelihood with all block parameters
maximized out, so the search ranges over partitions only.  Each pass
moves every vertex exactly once: at each step the not-yet-moved vertex
with the largest objective change is relocated to its best alternative
block, even when every available change is negative.  The pass keeps
its best intermediate state and rewinds the rest; this escapes shallow
local maxima that defeat sweeps which take only improving moves.

Each step scores every unmoved vertex against every block in one batch
(``_Stats.deltas``), reading the kinds' one pair-weight rule
(``_Stats._weights``) for a move's three states: now, after the vertex
leaves its block, and after it joins another.  With m such vertices and K
blocks a step evaluates O(m K^2) cell terms.  For the bernoulli and
poisson kinds, whose weights depend only on the block sizes, it instead
tabulates O(K^2 V) terms when the vertices' neighbour-block counts stay
below V with 4 V < m, lays them out as rows over the destination block,
and gathers each vertex's rows by index: O(K^3 V + m K^2) work in a fixed
number of NumPy calls.  Each masked row of cell terms is summed as a left
fold over the kept cells, in block order.  A step chooses its move by one
flat argmax over the unmoved vertices' rows, in vertex order.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, asdict
from typing import NamedTuple

import numpy as np

from blockmix.graph import Network, degrees
from blockmix.models import (
    Partition, _cell_sums, _check_partition, _xlogy, check_kind, mle_block_params,
)
from blockmix.results import FitResult, Restart, check_config, fit_restarts, restart_stream, whole

__all__ = ["SwitchConfig", "MoveDelta", "delta_loglik", "profile_loglik", "switch_fit"]

ENGINE_ID = 2


@dataclass
class SwitchConfig:
    K: int
    restarts: int = 20
    max_passes: int = 100
    seed: int = 0
    kind: str = "bernoulli"

    def __post_init__(self):
        check_config(self, ("K", "restarts", "max_passes"))


class MoveDelta(NamedTuple):
    """Objective change of a single-vertex move.

    ``empties_block`` flags moves that strip the source block of its
    last member; the value is still exact (empty blocks contribute
    nothing to the profile objective).
    """

    value: float
    empties_block: bool


def _masked_sums(x: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """Sums of x over its first axis where ``keep`` holds: a left fold over the kept cells, in block order."""
    return np.where(keep, x, 0.0).sum(axis=0)


class _Stats:
    """Block-pair sufficient statistics with O(deg + K) single-vertex moves.

    Keeps a per-vertex block-count table so candidate moves can be
    scored in closed form from the cells that touch the two affected
    blocks, without rebuilding anything; ``deltas`` scores a batch of
    vertices against every block at once.
    """

    # about K^3 V table entries a side against about K^2 m direct cells:
    # ``deltas`` tabulates when table_ratio * V < m.  On a 2-core Xeon the
    # tabulated step overtook the direct one at m / V of 4 to 8 for K = 4
    # (V from 14 to 93) and of 4 to 5 for K = 10
    table_ratio = 4

    def __init__(self, net: Network, labels0: np.ndarray, K: int, kind: str):
        self.kind, self.K, self.n, self.directed = kind, K, net.n_nodes, net.directed
        self.z = labels0.copy()
        self.deg = degrees(net).astype(np.float64)
        self.total = float(net.total_value)
        rows, cols, vals = net.row_index(), net.indices, net.data
        # v's out-neighbours are out_nbrs[out_ptr[v]:out_ptr[v + 1]], and
        # likewise for "in" (the out-lists again when undirected)
        self.out_ptr, self.out_nbrs, self.out_vals = net.indptr, cols, vals
        self.in_ptr, self.in_nbrs, self.in_vals = net.transpose()
        # whole-number int64 tables, exact under any sequence of moves
        self.edge = _cell_sums(labels0[rows], labels0[cols], vals, (K, K))
        # vcount[v, k]: value from v toward block k (and from block k into
        # v for the directed in-table); no self-loops, so moving v never
        # changes v's own row
        self.vcount_out = _cell_sums(rows, labels0[cols], vals, (self.n, K))
        self.vcount_in = _cell_sums(cols, labels0[rows], vals, (self.n, K)) if self.directed else self.vcount_out
        # the count tables a move updates: the out-neighbours' in-counts and,
        # directed, the in-neighbours' out-counts
        self._neighbours = [(self.vcount_in, self.out_ptr, self.out_nbrs, self.out_vals)]
        if self.directed:
            self._neighbours.append((self.vcount_out, self.in_ptr, self.in_nbrs, self.in_vals))
        self._ar = np.arange(K)
        # a block's sizes now, after one vertex leaves it and after one joins
        self._steps = np.array([[0.0, -1.0, 1.0], [0.0] * 3, [0.0] * 3])[:, :, None]
        self._half = np.where(np.eye(K, dtype=bool), 0.5, 1.0)
        # cells k of block row a that a masked sum keeps: keep[k, 0, d] is
        # k != d (undirected), keep[k, a, d] is k not in {a, d} (directed)
        offdiag = self._ar[:, None] != self._ar
        if self.directed:
            self._keep = offdiag[:, :, None] & offdiag[:, None, :]
        else:
            self._keep = offdiag[:, None, :]
        # a block's size, degree sum and squared-degree sum add up its
        # vertices' (1, d, d^2); dc_poisson's weights read all three
        self._carry = np.stack((np.ones(self.n), self.deg, self.deg * self.deg))
        self._blocks = np.stack([np.bincount(labels0, c, K) for c in self._carry])
        self.sizes, self.kappa, self.degsq = self._blocks
        # below 2**53 every float sum of the carries is a whole number held
        # exactly; past it a running sum keeps rounding residue, so moves recount
        # (every kind: the tables stay those of the labels, read or not)
        self._recount = self._carry[2].sum() >= 2.0**53
        with np.errstate(divide="ignore", invalid="ignore"):
            self.dlogd = float(_xlogy(self.deg, self.deg).sum())

    def apply(self, v: int, to0: int):
        a = self.z[v]
        e_out, e_in = self.vcount_out[v], self.vcount_in[v]
        self.edge[a, :] -= e_out
        self.edge[:, a] -= e_in
        self.edge[to0, :] += e_out
        self.edge[:, to0] += e_in
        self.z[v] = to0
        if self._recount:  # in vertex order, as the constructor counts
            for row, c in zip(self._blocks, self._carry):
                row[:] = np.bincount(self.z, c, self.K)
        else:
            carry = self._carry[:, v]
            self._blocks[:, a] -= carry
            self._blocks[:, to0] += carry
        # the neighbours' rows change in columns a and to0: an update through
        # a column view costs less than one 2-d fancy index or a flat index
        for table, ptr, nbrs, vals in self._neighbours:
            lo, hi = ptr[v], ptr[v + 1]
            nbrs, vals = nbrs[lo:hi], vals[lo:hi]
            table[:, a][nbrs] -= vals
            table[:, to0][nbrs] += vals

    def _weights(self, blocks):
        """(s, q, block term) of blocks whose sizes, degree sums and squared-degree sums stack on axis 0.

        Blocks k != l hold pair weight s_k s_l and block k s_k^2 - q_k (ordered pairs):
        pair counts for bernoulli and poisson (q = s), sums of the profiled
        exp(gamma_i + gamma_j) for dc_poisson.  The block term, the objective's part
        outside the cells, is None (bernoulli), the mixing term or the degree term.
        """
        sizes, kappa, degsq = blocks[0], blocks[1], blocks[2]
        if self.kind != "dc_poisson":
            return sizes, sizes, (None if self.kind == "bernoulli" else _xlogy(sizes, sizes / self.n))
        ratio = np.where(kappa > 0, sizes / kappa, 0.0)
        return np.where(kappa > 0, sizes, 0.0), degsq * ratio * ratio, _xlogy(kappa, ratio)

    @np.errstate(divide="ignore", invalid="ignore")
    def objective(self) -> float:
        s, q, block = self._weights(self._blocks)
        e_u, w_u = self.edge, np.outer(s, s) - np.diag(q)
        if not self.directed:  # unordered cells: the upper triangle, halved diagonal
            e_u, w_u = (np.triu(x * self._half) for x in (e_u, w_u))
        cells = self._cell_term(e_u, w_u)
        if block is None:
            return float(cells.sum())
        if self.kind == "poisson":  # cell rates plus the profiled mixing weights
            return float((cells - e_u).sum() + block.sum())
        return float(self.dlogd + block.sum() + cells.sum() - self.total)

    def _cell_term(self, e, w):
        """Per-cell objective term; constants under vertex moves omitted.

        The edge totals are exact, so a kept poisson cell with e > 0 has pairs;
        the 1e-300 floor is reached by kept cells only where rounding cancels a
        dc_poisson weight s_k^2 - q_k to 0 or below (a hub of degree 1e17).
        """
        if self.kind == "bernoulli":
            gaps = w - e
            return _xlogy(e, e) + _xlogy(gaps, gaps) - _xlogy(w, w)
        # poisson: the -e part sums to a move-invariant constant over touched cells
        return _xlogy(e, e / np.maximum(w, 1e-300))

    def _cells(self, *blocks):
        """Cell terms of (e, w) blocks in one evaluation; w broadcasts to e."""
        bounds = [0, *itertools.accumulate(e.size for e, _ in blocks)]
        e_all, w_all = np.empty(bounds[-1]), np.empty(bounds[-1])
        for (e, w), lo, hi in zip(blocks, bounds, bounds[1:]):
            e_all[lo:hi] = e.ravel()
            w_all[lo:hi].reshape(e.shape)[...] = w
        flat = self._cell_term(e_all, w_all)
        return [flat[lo:hi].reshape(e.shape) for (e, _), lo, hi in zip(blocks, bounds, bounds[1:])]

    @np.errstate(divide="ignore", invalid="ignore", over="ignore")
    def deltas(self, verts: np.ndarray) -> np.ndarray:
        """(len(verts), K) objective changes for moving each vertex to each block.

        The stay-put column is -inf.  Only the cells whose statistics a
        single move can touch enter the balance: the rows (and, directed,
        the columns) of the source block z_v and the destination block d.
        For m vertices the moved rows hold O(m K^2) cells, evaluated
        directly.  bernoulli and poisson cell weights depend only on the
        blocks, so when the counts stay below V with table_ratio * V < m
        those cell terms are tabulated once per (block, block, count), and
        the undirected cell (z_v, d) that both moved rows share once per
        (block, block, count difference); the vertices gather them by
        index (``_gather``): O(K^3 V) table work plus O(m K^2) gathers.  On
        a 2-core Xeon a step took 0.18 ms tabulated against 0.42 ms direct
        on sparse-1k (m = 1000, V = 15, K = 4), and 0.42 against 0.45 ms on
        the 300-node directed count graph (m = 300, V = 38, K = 3).
        dc_poisson weights depend on the vertex degree: always direct.

        Each entry is the balance "after the move minus before it" over
        those cells; each masked row of cell terms is summed as a left fold
        over the kept cells, in block order.  A dropped cell may hold values
        and no pairs (directed: the source block's diagonal), so its term
        may overflow.  Arrays are laid out (k, d, v): block k's cell in the
        row of the source block z_v or of the destination block d, vertex v last.
        """
        K, edge, m = self.K, self.edge, verts.size
        z, cols, ar = self.z[verts], np.arange(m), self._ar
        zv = z * m + cols  # flat index of the cells (z_v, v) of a (K, m) array
        u = edge * self._half  # a diagonal cell counts each within-block pair twice
        # a side pairs block rows with each vertex's counts toward the blocks;
        # directed networks add the block columns and the counts from them
        sides = [(u, self.vcount_out.take(verts, axis=0).T.copy())]
        if self.directed:
            sides.append((u.T.copy(), self.vcount_in.take(verts, axis=0).T.copy()))
        x_out, x_in = sides[0][1], sides[-1][1]
        B, per_vertex = self._blocks, self.kind == "dc_poisson"  # its weights move with the degree
        if per_vertex:  # weights now, after leaving z_v (shape (m,)) and after joining d ((K, m))
            g, carry = slice(None), self._carry[:, verts]
            (s0, q0, b0), (s1, q1, b1), (s2, q2, b2) = (
                self._weights(x) for x in (B, B[:, z] - carry, B[:, :, None] + carry[:, None]))
            self_now, self_src, self_dst = s0 * s0 - q0, s1 * s1 - q1, s2 * s2 - q2
            w_now, w_src, w_dst = s0[:, None] * s0, s0[:, None] * s1, s0[:, None, None] * s2
            w_now[ar, ar] = self_now / 2.0
            w_src[z, cols] = self_src / 2.0
            w_dst[ar, ar] = self_dst / 2.0
        else:  # the sizes alone: each block now, after one vertex leaves it and after one joins
            g, (s, q, b) = z, self._weights(B[:, None, :] + self._steps)
            selfs = s * s - q
            w = s[0][:, None] * s[:, None, :]
            w[:, ar, ar] = selfs / 2.0
            (s0, s1, s2), (self_now, self_src, self_dst), (w_now, w_src, w_dst) = s, selfs, w
            s2, self_dst, w_dst = s2[:, None], self_dst[:, None], w_dst[:, :, None]
            b0, b1, b2 = (None,) * 3 if b is None else (b[0], b[1], b[2][:, None])
        extra_now = extra_after = 0.0  # block terms outside the cells
        if b0 is not None:
            extra_now, extra_after = b0[:, None] + b0, b1[g] + b2
        V = int(max(x.max() for _, x in sides)) + 1  # counts are integers 0..V-1
        tabulate = not per_vertex and self.table_ratio * V < m
        if tabulate:  # a moved row's cell terms depend only on (block, block, count)
            vals = np.arange(float(V))
            moved = [blk for e, _ in sides for blk in (
                (e[:, :, None] - vals, w_src.T[:, :, None]), (e.T[:, :, None] + vals, w_dst))]
        else:
            w_src = w_src[:, g]
            moved = [blk for e, x in sides for blk in (
                (np.take(e.T, z, axis=1) - x, w_src), (e.T[:, :, None] + x[:, None, :], w_dst))]
        if self.directed:
            pair_after, ediag = s1[g] * s2, edge[ar, ar]
            eo_a, ei_a = x_out.take(zv), x_in.take(zv)
            corners = [
                (ediag, self_now),
                ((ediag[z] - eo_a) - ei_a, self_src[g]),
                ((np.take(edge.T, z, axis=1) - x_out) + ei_a, pair_after),
                ((np.take(edge, z, axis=1) + eo_a) - x_in, pair_after),
                ((ediag[:, None] + x_out) + x_in, self_dst),
            ]
        elif tabulate:  # the shared cell (c, d) holds e_cd + t, t = e_vc - e_vd in lo..hi
            t = x_out.take(zv) - x_out
            lo, hi = int(t.min()), int(t.max())
            corners = [(edge[:, :, None] + np.arange(lo, hi + 1), (s1[:, None] * s2.T)[:, :, None])]
        else:  # (e_ad + e_va) - e_vd: the one cell both touched rows share
            corners = [((edge.T.take(z, axis=1) + x_out.take(zv)) - x_out, s1[g] * s2)]
        n_sides = len(sides)
        cells = self._cells(*[(e, w_now) for e, _ in sides], *moved, *corners)
        now, moved, corners = cells[:n_sides], cells[n_sides:3 * n_sides], cells[3 * n_sides:]
        if tabulate:
            moved = self._gather(moved, [x for _, x in sides], z, zv, V)
            if not self.directed:  # gather corner[z_v, d, e_vc - e_vd]
                W = hi - lo + 1
                corners = [corners[0].take((t + (z * (K * W) - lo)) + (ar * W)[:, None])]
        else:
            if self.directed:
                keep_src = keep_dst = np.take(self._keep, z, axis=2)
            else:
                keep_src, keep_dst = self._keep.transpose(0, 2, 1), (ar[:, None] != z)[:, None, :]
            moved = [total for minus, plus in zip(moved[::2], moved[1::2]) for total in (
                _masked_sums(minus[:, None, :], keep_src), _masked_sums(plus, keep_dst))]
        before = after = 0.0
        for i in range(n_sides):
            r = _masked_sums(now[i].T[:, :, None], self._keep)
            before = before + r + r.T
            after = after + moved[2 * i] + moved[2 * i + 1]
        if self.directed:
            before = before + sum((corners[0][:, None], now[0], now[1], corners[0])) + extra_now
            delta = after + sum(corners[1:]) + extra_after - np.take(before.T, z, axis=1)
        else:
            before, after = before + now[0], after + corners[0]
            if per_vertex:
                before, after = before + extra_now, after + b1 + b2
            delta = after - np.take(before.T, z, axis=1)
            if self.kind == "poisson":  # the mixing term joins after the subtraction
                delta = delta + (extra_after - np.take(extra_now.T, z, axis=1))
        delta[z, cols] = -np.inf
        return delta.T

    def _gather(self, tables, counts, z, zv, V):
        """Each side's source and destination row sums, (K, m), from its tabulated cell terms.

        ``tables`` alternate a side's source cells [a, k, t] and destination
        cells [k, d, t]; ``counts`` are the sides' (K, m) counts.  The cells
        become rows over d, source rows [a, k, t, d] and destination rows
        [k, t, d], with +0.0 in the cells that a row drops, and a last row of
        zeros stands for the destination cell k = z_v; so the sum over k of
        a vertex's gathered rows is the left fold over its kept cells.
        """
        K, KV, ar = self.K, self.K * V, self._ar
        size = K * KV + KV  # rows of one side
        rows = np.empty((len(counts) * size + 1, K))
        rows[-1] = 0.0
        idx = np.empty((2 * len(counts), K, z.size), dtype=np.intp)
        for i, (minus, plus, x) in enumerate(zip(tables[::2], tables[1::2], counts)):
            src = rows[i * size:i * size + K * KV].reshape(K, K, V, K)
            src[...] = minus[..., None]
            src[:, ar, :, ar] = 0.0  # k = d
            dst = rows[i * size + K * KV:(i + 1) * size].reshape(K, V, K)
            dst[...] = plus.transpose(0, 2, 1)
            if self.directed:
                src[ar, ar] = 0.0  # k = z_v
                dst[ar, :, ar] = 0.0  # k = d
            row = np.add(x, (ar * V)[:, None], out=idx[2 * i + 1])  # row k V + e_vk of a block
            np.add(row, z * KV + i * size, out=idx[2 * i])
            row += i * size + K * KV
            row.put(zv, rows.shape[0] - 1)
        return list(rows.take(idx, axis=0).sum(axis=1).transpose(0, 2, 1))


def profile_loglik(net: Network, part: Partition, kind: str = "bernoulli") -> float:
    """Log-likelihood of a partition with parameters maximized out.

    Tolerates empty blocks: they contribute nothing, and block-pair
    cells with no possible pairs are neutral.
    """
    check_kind(net, kind)
    _check_partition(net, part)
    return _Stats(net, part.zero_based(), part.K, kind).objective()


def delta_loglik(net: Network, part: Partition, vertex: int, to: int, kind: str = "bernoulli") -> MoveDelta:
    """Objective change from moving one vertex to block ``to`` (1-based).

    Exactly equals the profile log-likelihood difference of the two
    partitions; only the affected block-pair statistics enter.
    """
    check_kind(net, kind)
    _check_partition(net, part)
    if not whole(vertex) or not 0 <= vertex < net.n_nodes:
        raise ValueError(f"vertex must be a whole number in 0..{net.n_nodes - 1}, got {vertex!r}")
    if not whole(to) or not 1 <= to <= part.K:
        raise ValueError(f"to, the destination block, must be a whole number in 1..{part.K}, got {to!r}")
    if part.labels[vertex] == to:
        raise ValueError("destination equals the current block")
    stats = _Stats(net, part.zero_based(), part.K, kind)
    a = int(part.labels[vertex] - 1)
    empties = stats.sizes[a] == 1
    value = stats.deltas(np.array([vertex], dtype=np.int64))[0, to - 1]
    return MoveDelta(float(value), bool(empties))


def _run_restart(args) -> Restart:
    net, cfg, kind, restart = args
    rng = restart_stream(cfg.seed, ENGINE_ID, restart)
    labels0 = rng.integers(0, cfg.K, size=net.n_nodes)
    stats = _Stats(net, labels0, cfg.K, kind)
    cur = stats.objective()
    trace = [cur]
    for _ in range(cfg.max_passes if cfg.K > 1 else 0):  # one block leaves nothing to search
        start = cur
        # Kernighan-Lin pass: the best-gaining unmoved vertex goes first,
        # every vertex moves exactly once, keep the pass's best prefix
        active = np.ones(stats.n, dtype=bool)
        moves: list[tuple[int, int]] = []  # (vertex, block it came from)
        running, best_gain, best_len = 0.0, 0.0, 0
        for _step in range(stats.n):
            # the flat argmax over the active rows, in vertex order: ties go to the
            # lowest vertex, then the lowest block, and the first NaN wins.  When
            # every entry is -inf, an argmax over all n rows would move vertex 0
            # instead; the gain is -inf either way, so the pass rewinds that move
            # and every later one, and the result is the same
            verts = np.flatnonzero(active)
            table = stats.deltas(verts)
            i, b = divmod(int(np.argmax(table)), stats.K)
            v = int(verts[i])
            running += float(table[i, b])
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
    return Restart(cur, stats.z.copy(), None, trace)  # switch_fit fits the winner's params


def switch_fit(net: Network, cfg: SwitchConfig) -> FitResult:
    """Best-of-restarts vertex-switching search."""
    check_kind(net, cfg.kind)
    result = fit_restarts("switch", cfg.kind, _run_restart, net, cfg, asdict(cfg))[0]
    result.params = mle_block_params(net, result.partition, cfg.kind, allow_empty=True)
    return result
