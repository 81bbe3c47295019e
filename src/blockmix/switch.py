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
leaves its block, and after it joins another.  For the bernoulli and
poisson kinds, whose weights depend only on the block sizes, a step with
m vertices whose neighbour-block counts stay below V evaluates every cell
term a move can produce once per (block, block, count): O(K^2 V) terms in
one flat vector, laid out once per V (``_table``).  It gathers each
vertex's rows over the destination block by index: O(K^3 V + m K^2) work
in about 30 NumPy calls, whatever m is.  Where K^2 V is large against m
(huge count values) and for dc_poisson, whose weights move with the vertex
degree, a step evaluates the O(m K^2) cell terms of its vertices directly.
Each masked row of cell terms is summed as a left fold over the kept
cells, in block order.  A step chooses its move by one flat argmax over
the unmoved vertices' rows, in vertex order.
"""

from __future__ import annotations

import functools
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


class _Table(NamedTuple):
    """The tabulated step's layout for one (K, V, orientation), built once by ``_table``.

    The step evaluates one flat vector of cell terms.  Cell i holds the
    block total ``total[i]`` of the (2, K, K) tables [edge with a halved
    diagonal, edge] plus the count ``shift[i]``, and the pair weight at
    ``weight[i]`` of the outer product F F of the (3, 3, K) size factors
    F[0, j] = s_j, F[1, j] = s_j - 1, F[2, j] = (s_j - 1) / 2 of the blocks
    now (j = 0), after one vertex leaves them (1) and after one joins (2).
    Sizes are whole numbers, so these products are the pair weights exactly.
    """

    total: np.ndarray
    shift: np.ndarray
    weight: np.ndarray
    rows: np.ndarray  # (R, K) gather rows over d: cell positions, the last cell (+0.0) where a row drops d
    parts: np.ndarray  # (S, 2, K, 1): the row of count 0 toward block k, source (block 0) and destination
    corners: np.ndarray  # per destination block d, the corner cells' position before the vertex's shift


@functools.lru_cache(maxsize=16)
def _table(K: int, V: int, directed: bool) -> _Table:
    """The cells a step with counts 0..V-1 evaluates, and the rows it gathers them by.

    Cell segments, over the axes given: per side, the cells now [a, k]; per
    side, the source cells [a, k, t] (block a's cell toward k after a vertex
    with count t toward k leaves a) and the destination cells [k, d, t]
    (block d's cell toward k after it joins d); then the corners, over a
    count sum or a count difference plus V - 1.  Undirected, the cell (c, d)
    that both moved rows share, [c, d, e_vc - e_vd].  Directed, the diagonal
    now [k]; the source diagonal [a, e_va + e_av]; the cells (a, d)
    [a, d, e_av - e_vd] and (d, a) [a, d, e_va - e_da]; the destination
    diagonal [d, e_vd + e_dv].  Past the last cell, one cell of +0.0.
    """
    S, W, KK = 1 + directed, 2 * V - 1, K * K
    k = np.arange(K)
    a, b = k[:, None, None], k[None, :, None]  # the first two axes of a [., ., t] segment
    t, j = np.arange(V), np.arange(W)
    segments = []

    def segment(total, shift, weight):
        segments.append([x.ravel() for x in np.broadcast_arrays(total, shift, *weight)])

    def pair(i, row, col):  # s_0[row] s_i[col], and s_i[col] (s_i[col] - 1) / 2 on the diagonal
        return np.where(row == col, i * K + col, row), np.where(row == col, (6 + i) * K + col, i * K + col)

    def total(row, col, side):  # side 1 reads the block columns
        return row * K + col if side == 0 else col * K + row

    for side in range(S):
        segment(total(a[..., 0], b[..., 0], side), 0, pair(0, a[..., 0], b[..., 0]))
    for side in range(S):
        segment(total(a, b, side), -t, pair(1, b, a))
        segment(total(b, a, side), t, pair(2, a, b))
    if directed:
        diag = KK + k * (K + 1)  # the unhalved diagonal totals
        segment(diag, 0, (k, 3 * K + k))
        segment(diag[:, None], -j, (K + k[:, None], 4 * K + k[:, None]))
        segment(KK + a * K + b, j - (V - 1), (K + a, 2 * K + b))
        segment(KK + b * K + a, j - (V - 1), (K + a, 2 * K + b))
        segment(diag[:, None], j, (2 * K + k[:, None], 5 * K + k[:, None]))
    else:
        segment(a * K + b, j - (V - 1), (K + a, 2 * K + b))
    starts = np.cumsum([0] + [len(x[0]) for x in segments])
    total_, shift, w0, w1 = (np.concatenate(x) for x in zip(*segments))
    weight = w0 * (9 * K) + w1
    zero = starts[-1]

    # rows over d: per side, source rows [a, k, t], dropping k = d (and k = a
    # directed), and destination rows [k, t], dropping k = d directed; the rows
    # now [side, a, k], dropping k = d (and k = a directed), whose sums over k
    # are the moved rows' sums before the move; one row of zeros
    a4, k4, d = k[:, None, None, None], k[:, None, None], k
    rows = []
    for side in range(S):
        src, dst = starts[S + 2 * side], starts[S + 2 * side + 1]
        drop = (k4 == d) | ((a4 == k4) if directed else False)
        rows.append(np.where(drop, zero, src + (a4 * K + k4) * V + t[:, None]).reshape(-1, K))
        drop = (k[:, None, None] == d) if directed else False
        rows.append(np.where(drop, zero, dst + (k[:, None, None] * K + d) * V + t[:, None]).reshape(-1, K))
    drop = (k[:, None] == d) | ((k[:, None] == k4) if directed else False)
    rows.append(np.where(drop, zero, np.arange(S)[:, None, None, None] * KK + k4 * K + k[:, None]).reshape(-1, K))
    rows.append(np.full((1, K), zero))
    side_rows = KK * V + K * V
    parts = (np.arange(S)[:, None, None] * side_rows + np.array([0, KK * V])[:, None] + k * V)[..., None]
    if directed:
        c1, c2, c3, c4 = starts[3 * S + 1:3 * S + 5]
        corners = np.stack([np.full(K, c1), c2 + k * W + V - 1, c3 + k * W + V - 1, c4 + k * W])[..., None]
    else:
        corners = (starts[3 * S] + k * W + V - 1)[:, None]
    out = _Table(total_, shift.astype(np.int32), weight, np.concatenate(rows), parts, corners)
    for x in out:
        x.flags.writeable = False
    return out


class _Stats:
    """Block-pair sufficient statistics with O(deg + K) single-vertex moves.

    Keeps a per-vertex block-count table so candidate moves can be
    scored in closed form from the cells that touch the two affected
    blocks, without rebuilding anything; ``deltas`` scores a batch of
    vertices against every block at once.
    """

    # ``deltas`` tabulates a bernoulli or poisson step when table_ratio * K^2 V
    # < 768 + 8 m: about 4 K^2 V table cells and K^3 V gather-row entries
    # against the direct step's O(K^2 m) cells and larger fixed cost.  On a
    # 2-core Xeon the tabulated step won at every m on the benchmark's inputs,
    # and on count graphs (K = 4, values up to 64) the two crossed near K^2 V
    # of 600 to 1000 at m = 5 and of 1100 to 2000 at m = 100.  At K = 10 the
    # gather rows, K^3 V, cost more: the direct step won some steps with
    # counts below 9 at m = 5 and 20
    table_ratio = 1

    def __init__(self, net: Network, labels0: np.ndarray, K: int, kind: str):
        self.kind, self.K, self.n, self.directed = kind, K, net.n_nodes, net.directed
        self._per_vertex = kind == "dc_poisson"  # its pair weights move with the vertex degree
        self.z = labels0.copy()
        self.deg = degrees(net).astype(np.float64)
        self.total = float(net.total_value)
        rows, cols, vals = net.row_index(), net.indices, net.data
        # whole-number int64 tables, exact under any sequence of moves
        self.edge = _cell_sums(labels0[rows], labels0[cols], vals, (K, K))
        # _counts[s, k, v]: value from v toward block k (s = 0) and, directed,
        # from block k into v (s = 1); vcount_out and vcount_in are its (n, K)
        # views.  No self-loops, so moving v never changes v's own counts
        counts = [_cell_sums(rows, labels0[cols], vals, (self.n, K))]
        if self.directed:
            counts.append(_cell_sums(cols, labels0[rows], vals, (self.n, K)))
        self._counts = np.stack([c.T for c in counts])
        self.vcount_out, self.vcount_in = self._counts[0].T, self._counts[-1].T
        # the count rows a move updates, with the CSR rows that list them: the
        # out-neighbours' in-counts and, directed, the in-neighbours' out-counts
        self._neighbours = [(self._counts[-1], net.indptr, cols, vals)]
        if self.directed:
            self._neighbours.append((self._counts[0], *net.transpose()))
        self._ar, self._verts = np.arange(K), np.arange(self.n)
        self._half = np.where(np.eye(K, dtype=bool), 0.5, 1.0)
        # the tabulated step reads the block totals with a halved diagonal and,
        # directed, as they are; its size factors (sizes + _factors) *
        # _factor_scale are s_j, s_j - 1 and (s_j - 1) / 2 of the sizes s_j now,
        # after one vertex leaves a block (s - 1) and after one joins it (s + 1)
        self._totals = np.stack([self._half, np.ones((K, K))][:1 + self.directed])
        self._factors = np.array([[0.0, -1.0, 1.0], [-1.0, -2.0, 0.0], [-1.0, -2.0, 0.0]])[:, :, None]
        self._factor_scale = np.array([1.0, 1.0, 0.5])[:, None, None]
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
        # the neighbours' counts change toward (from) blocks a and to0
        for counts, ptr, nbrs, vals in self._neighbours:
            lo, hi = ptr[v], ptr[v + 1]
            nbrs, vals = nbrs[lo:hi], vals[lo:hi]
            counts[a][nbrs] -= vals
            counts[to0][nbrs] += vals

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
        cells = self._cell_term(np.stack((e_u, w_u, w_u)))
        if block is None:
            return float(cells.sum())
        if self.kind == "poisson":  # cell rates plus the profiled mixing weights
            return float((cells - e_u).sum() + block.sum())
        return float(self.dlogd + block.sum() + cells.sum() - self.total)

    def _cell_term(self, x):
        """Per-cell objective term of e = x[0] and w = x[1]; x[2] is a work buffer.  Constants under vertex moves omitted.

        The edge totals are exact, so a kept poisson cell with e > 0 has pairs;
        the 1e-300 floor is reached by kept cells only where rounding cancels a
        dc_poisson weight s_k^2 - q_k to 0 or below (a hub of degree 1e17).
        """
        if self.kind == "bernoulli":  # e log e + g log g - w log w with the gaps g = w - e
            np.subtract(x[1], x[0], out=x[2])
            terms = _xlogy(x, x)
            return (terms[0] + terms[2]) - terms[1]
        # poisson: the -e part sums to a move-invariant constant over touched cells
        np.maximum(x[1], 1e-300, out=x[2])
        return _xlogy(x[0], np.divide(x[0], x[2], out=x[2]))

    @np.errstate(divide="ignore", invalid="ignore", over="ignore")
    def deltas(self, verts: np.ndarray) -> np.ndarray:
        """(len(verts), K) objective changes for moving each vertex to each block.

        The stay-put column is -inf.  Only the cells whose statistics a
        single move can touch enter the balance: the rows (and, directed,
        the columns) of the source block z_v and the destination block d.
        Each entry is the balance "after the move minus before it" over
        those cells; each masked row of cell terms is summed as a left fold
        over the kept cells, in block order.  A dropped cell may hold values
        and no pairs (directed: the source block's diagonal), so its term
        may overflow.

        bernoulli and poisson cell weights depend only on the blocks: while
        table_ratio * K^2 V < 768 + 8 m (counts below V), ``_tabulated``
        evaluates every cell term a move can produce once, in one flat
        vector, and ``_gather`` sums each vertex's rows by index, in 29
        C-level NumPy calls (32 directed) whatever m is.  Otherwise, and
        always for dc_poisson, whose weights depend on the vertex degree,
        ``_direct`` evaluates the vertices' O(m K^2) cells.  On a 2-core Xeon
        (min of 7 x 200 calls) a tabulated step took 58 / 59 / 63 / 71 / 114
        us at m = 5 / 20 / 100 / 200 / 1000 on sparse-1k's input (K = 4,
        V = 16) and 76 / 88 / 96 / 118 / 131 us at m = 5 / 20 / 100 / 200 /
        300 on the 300-node directed count graph (K = 3, V = 40); the direct
        step took 65 to 411 us and 93 to 205 us.
        """
        m = verts.size
        z = self.z.take(verts)
        xs = self._counts.take(verts, axis=2)  # (sides, K, m): each vertex's counts, vertex last
        zm = z * m + self._verts[:m]  # flat index of the cells (z_v, v) of a (K, m) array
        # counts are integers 0..V-1; V rounds up to a multiple of 8, so that a
        # fit builds and keeps few table layouts
        V = (int(xs.max()) + 8) // 8 * 8
        if not self._per_vertex and self.table_ratio * self.K * self.K * V < 768 + 8 * m:
            now, r, c0, after, extra_now, extra_after = self._tabulated(xs, z, zm, V)
        else:
            now, r, c0, after, extra_now, extra_after = self._direct(verts, xs, z, zm)
        if self.directed:
            before = (((r[0] + r[0].T) + r[1]) + r[1].T) + (((c0[:, None] + now[0]) + now[1]) + c0) + extra_now
            delta = (after + extra_after) - before.take(z, axis=0)
        else:
            before = (r[0] + r[0].T) + now[0]
            if self._per_vertex:
                before = before + extra_now
            delta = after - before.take(z, axis=0)
            if self.kind == "poisson":  # the mixing term joins after the subtraction
                delta = delta + (extra_after - extra_now.take(z, axis=0))
        delta[self._verts[:m], z] = -np.inf
        return delta

    def _tabulated(self, xs, z, zm, V):
        """``deltas``' terms from cell terms tabulated once per (block, block, count) and gathered by index."""
        K, S, m, tab = self.K, xs.shape[0], z.size, _table(self.K, V, self.directed)
        factors = (self.sizes + self._factors) * self._factor_scale
        b = self._weights(factors)[2]  # size-only kinds read factors[0], the sizes in the three states
        factors = factors.ravel()
        n_cells = tab.total.size
        x = np.empty((3, n_cells + 1))
        x[:2, n_cells] = 0.0  # the zero cell that dropped cells of a gather row point at
        np.add((self.edge * self._totals).take(tab.total), tab.shift, out=x[0, :n_cells])
        np.multiply.outer(factors, factors).take(tab.weight, out=x[1, :n_cells])
        cells = self._cell_term(x)
        now = cells[:S * K * K].reshape(S, K, K)
        rows = cells.take(tab.rows)
        after = self._gather(rows, tab, xs, z, zm, V)
        r = rows[-1 - S * K * K:-1].reshape(S, K, K, K).sum(axis=2)
        W = 2 * V - 1
        if self.directed:
            xa = xs.reshape(S, K * m).take(zm, axis=1)  # counts toward and from the source block
            zW = z * W
            idx = np.empty((4, K, m), dtype=np.intp)
            np.add(tab.corners[0], zW + (xa[0] + xa[1]), out=idx[0])
            np.subtract(tab.corners[1:3] + (zW * K + xa[::-1])[:, None], xs, out=idx[1:3])
            np.add(tab.corners[3], xs[0] + xs[1], out=idx[3])
            after = after + cells.take(idx).sum(axis=0).T
            c0 = cells[S * K * K * (1 + 2 * V):][:K]
        else:
            idx = (tab.corners + (z * (K * W) + xs.reshape(K * m).take(zm))) - xs[0]
            after, c0 = after + cells.take(idx).T, None
        extra_now = extra_after = 0.0
        if b is not None:
            extra_now, extra_after = b[0][:, None] + b[0], b[1][z][:, None] + b[2]
        return now, r, c0, after, extra_now, extra_after

    def _gather(self, rows, tab, xs, z, zm, V):
        """The moved rows' sums over the kept cells, (m, K), from the tabulated cell terms.

        Row k V + t of a side's destination rows holds the cells (d, k) of a
        vertex with count t toward k joining each block d, and the source
        rows of block a the cells (a, k) it leaves behind; a dropped cell
        points at the cell holding +0.0, and the row of block z_v at a row of
        such cells.  So the sum over k of a vertex's gathered rows is the
        left fold over its kept cells, and the parts add up in the order
        source, destination of each side in turn.
        """
        K, m, S = self.K, z.size, xs.shape[0]
        idx = np.empty((S, 2, K, m), dtype=np.intp)
        np.add(xs[:, None], tab.parts, out=idx)
        idx[:, 0] += z * (K * V)  # the source rows of block z_v
        idx = idx.reshape(2 * S, K, m)
        idx.reshape(2 * S, K * m)[1::2, zm] = tab.rows.shape[0] - 1
        return rows.take(idx, axis=0).sum(axis=1).sum(axis=0)

    def _direct(self, verts, xs, z, zm):
        """``deltas``' terms from the moved rows' cells, evaluated vertex by vertex: O(m K^2) cells."""
        K, edge, m, ar, B = self.K, self.edge, z.size, self._ar, self._blocks
        S, cols, carry = xs.shape[0], self._verts[:m], self._carry[:, verts]
        # weights now, after leaving z_v (shape (m,)) and after joining d ((K, m)), in one call
        s, q, b = self._weights(np.concatenate(
            (B, B[:, z] - carry, (B[:, :, None] + carry[:, None]).reshape(3, K * m)), axis=1))
        (s0, s1, s2), (self_now, self_src, self_dst) = (
            (x[:K], x[K:K + m], x[K + m:].reshape(K, m)) for x in (s, s * s - q))
        w_now, w_src, w_dst = s0[:, None] * s0, s0[:, None] * s1, s0[:, None, None] * s2
        w_now[ar, ar] = self_now / 2.0
        w_src[z, cols] = self_src / 2.0
        w_dst[ar, ar] = self_dst / 2.0
        extra_now = extra_after = 0.0  # block terms outside the cells
        if b is not None:
            b0, b1, b2 = b[:K], b[K:K + m], b[K + m:].reshape(K, m)
            extra_now, extra_after = b0[:, None] + b0, b1 + b2
        # cells: now [side, a, k]; source [side, k, v] and destination [side, k, d, v]
        # of the moved rows; the corners
        sizes = [S * K * K, S * K * m, S * K * K * m] + ([K, m, 3 * K * m] if self.directed else [K * m])
        bounds = [0, *itertools.accumulate(sizes)]
        x = np.empty((3, bounds[-1]))
        e, w = ([row[lo:hi] for lo, hi in zip(bounds, bounds[1:])] for row in x[:2])
        now_e = e[0].reshape(S, K, K)
        np.multiply(edge, self._half, out=now_e[0])  # a diagonal cell counts each within-block pair twice
        if self.directed:  # the block columns: side 1 reads the transposed totals
            now_e[1] = now_e[0].T
        w[0].reshape(S, K, K)[...] = w_now
        rows = now_e[::-1]  # rows[i, k, a]: side i's cell (a, k)
        np.subtract(rows.take(z, axis=2), xs, out=e[1].reshape(S, K, m))
        w[1].reshape(S, K, m)[...] = w_src
        np.add(rows[..., None], xs[:, :, None, :], out=e[2].reshape(S, K, K, m))
        w[2].reshape(S, K, K, m)[...] = w_dst
        x_out, x_in = xs[0], xs[-1]
        if self.directed:
            ediag = edge[ar, ar]
            eo_a, ei_a = x_out.take(zm), x_in.take(zm)
            e[3][...], w[3][...] = ediag, self_now
            e[4][...], w[4][...] = (ediag[z] - eo_a) - ei_a, self_src
            c = e[5].reshape(3, K, m)
            c[0] = (np.take(edge.T, z, axis=1) - x_out) + ei_a
            c[1] = (np.take(edge, z, axis=1) + eo_a) - x_in
            c[2] = (ediag[:, None] + x_out) + x_in
            cw = w[5].reshape(3, K, m)
            cw[:2] = s1 * s2
            cw[2] = self_dst
            keep_src = keep_dst = np.take(self._keep, z, axis=2)
        else:  # (e_ad + e_va) - e_vd: the one cell both touched rows share
            e[3][...] = ((edge.T.take(z, axis=1) + x_out.take(zm)) - x_out).ravel()
            w[3].reshape(K, m)[...] = s1 * s2
            keep_src, keep_dst = self._keep.transpose(0, 2, 1), (ar[:, None] != z)[:, None, :]
        cells = self._cell_term(x)
        cells = [cells[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
        src = _masked_sums(cells[1].reshape(S, K, 1, m).transpose(1, 0, 2, 3), keep_src[:, None])
        dst = _masked_sums(cells[2].reshape(S, K, K, m).transpose(1, 0, 2, 3), keep_dst[:, None])
        after = src[0] + dst[0]
        now = cells[0].reshape(S, K, K)
        r = _masked_sums(now.transpose(2, 0, 1)[..., None], self._keep[:, None])  # r[i, a, d]
        if self.directed:
            after = (after + src[1]) + dst[1]
            corners = cells[5].reshape(3, K, m)
            after = after + (((cells[4] + corners[0]) + corners[1]) + corners[2])
            return now, r, cells[3], after.T, extra_now, np.transpose(extra_after)
        after = after + cells[3].reshape(K, m)
        if self._per_vertex:
            after = (after + b1) + b2
        return now, r, None, after.T, extra_now, np.transpose(extra_after)


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
