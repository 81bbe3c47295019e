"""Variational EM for the Bernoulli and Poisson blockmodels.

The approximate posterior factorizes over nodes: row i of ``resp`` holds
node i's membership responsibilities.  Alternating the coordinate-ascent
E step (sequential node sweeps, freshest values) with the closed-form
M step never decreases the bound, which the test suite asserts on random
instances.

Each restart starts with a hard (classification) phase on the
vertex-switching engine's count tables (``switch._Stats``): O(n K^2) per
sweep plus O((deg + 1) K^2) per moved node, with results bit-identical to
hard sweeps over the dense matrix.  The soft phase reads only the stored
pairs: O(m K + n K^2) per iteration for m stored pairs, in O(m + n K)
memory.  Both phases end each iteration in the same closed-form M step,
``_m_step``, fed from the count tables or from ``_soft_stats``.
"""

from __future__ import annotations

from dataclasses import dataclass, asdict

import numpy as np

from blockmix.graph import Network
from blockmix.models import _ERR_SCALE, BlockParams, _xlogy, global_rate
from blockmix.results import FitResult, map_restarts, restart_stream
from blockmix.switch import _Stats

__all__ = ["VemConfig", "VariationalState", "elbo", "e_step", "m_step", "vem_fit"]

ENGINE_ID = 1


@dataclass
class VemConfig:
    K: int
    max_iter: int = 200
    tol: float = 1e-6
    restarts: int = 10
    seed: int = 0

    def __post_init__(self):
        if self.K < 1:
            raise ValueError("K must be at least 1")
        if self.tol <= 0:
            raise ValueError("tol must be positive")
        if self.max_iter < 1 or self.restarts < 1:
            raise ValueError("max_iter and restarts must be at least 1")


@dataclass
class VariationalState:
    """Responsibilities, current parameters, and the bound they attain."""

    resp: np.ndarray
    params: BlockParams
    elbo: float


def _mul(coef, table):
    """coef * table with 0 * (-inf) defined as 0.

    Coefficients within rounding noise of zero are treated as zero when
    the table entry is infinite, so a p = 1 cell whose complement count
    is -1e-17 instead of exactly 0 cannot poison the sum.  ``models._xlogy``
    zeroes only non-positive coefficients, enough for whole-number counts.
    Callers run it under np.errstate(divide="ignore", invalid="ignore"),
    entered once per E step or bound evaluation, not once per product.
    """
    out = np.where(coef != 0, coef * table, 0.0)
    snap = ~np.isfinite(table) & (np.abs(coef) < 1e-9)
    return np.where(snap, 0.0, out)


def _pair_tables(params: BlockParams):
    with np.errstate(divide="ignore"):
        if params.kind == "bernoulli":
            return np.log(params.block_matrix), np.log1p(-params.block_matrix)
        return params.block_matrix, np.exp(params.block_matrix)


def _soft_stats(net: Network, resp: np.ndarray):
    """Responsibility-weighted block-pair values (over the stored pairs), pair counts and block totals."""
    colsum = resp.sum(axis=0)
    edge = (resp.T.take(net.row_index(), axis=1) * net.data) @ resp.take(net.indices, axis=0)
    return edge, np.outer(colsum, colsum) - resp.T @ resp, colsum


@np.errstate(divide="ignore", invalid="ignore")
def _bound(edge, pairs, colsum, entropy: float, directed: bool, params: BlockParams) -> float:
    """The bound from block-pair statistics and the responsibility entropy."""
    scale = 1.0 if directed else 0.5
    table_a, table_b = _pair_tables(params)
    if params.kind == "bernoulli":
        pair_term = (_mul(edge, table_a) + _mul(pairs - edge, table_b)).sum()
    else:
        pair_term = (_mul(edge, table_a) - pairs * table_b).sum()
    log_pi = np.log(params.pi)
    mix_term = _mul(colsum, log_pi).sum()
    return float(pair_term * scale + mix_term + entropy)


@np.errstate(divide="ignore", invalid="ignore")
def _entropy(resp: np.ndarray) -> float:
    return -_xlogy(resp, resp).sum()


def _softmax_row(score: np.ndarray) -> np.ndarray:
    m = score.max()
    if m == -np.inf:
        return np.full(score.size, 1.0 / score.size)
    w = np.exp(score - m)
    return w / w.sum()


def _node_score(t_out, t_in, others, log_pi, table_a, table_b, bernoulli: bool, mul=_mul) -> np.ndarray:
    """One node's E-step score for each block: log pi plus its expected pair terms.

    ``t_out`` (``t_in``) holds the node's values toward (from) each block
    weighted by the other nodes' responsibilities, ``others`` the other
    nodes' block totals; ``t_in`` is None for undirected networks.  The
    soft E step and the hard phase's reference decisions both score a
    node with this expression.  ``mul`` may be np.multiply when both
    tables are finite: its products then differ from ``_mul``'s only in
    the sign of zeros, which no sum into the score can carry.
    """
    if bernoulli:
        score = log_pi + mul(t_out, table_a).sum(axis=1) + mul(others - t_out, table_b).sum(axis=1)
    else:
        score = log_pi + mul(t_out, table_a).sum(axis=1) - table_b @ others
    if t_in is not None:
        if bernoulli:
            score = score + mul(t_in, table_a.T).sum(axis=1) + mul(others - t_in, table_b.T).sum(axis=1)
        else:
            score = score + mul(t_in, table_a.T).sum(axis=1) - table_b.T @ others
    return score


@np.errstate(divide="ignore", invalid="ignore")
def _e_step(net: Network, state: VariationalState) -> np.ndarray:
    """Responsibilities after one soft sweep over the CSR rows; the bound is left to the caller."""
    params = state.params
    resp = state.resp.copy()
    colsum = resp.sum(axis=0)
    table_a, table_b = _pair_tables(params)
    log_pi = np.log(params.pi)
    bernoulli = params.kind == "bernoulli"
    mul = np.multiply if np.isfinite(table_a).all() and np.isfinite(table_b).all() else _mul
    # Python-int bounds: slicing with them is cheaper than with NumPy scalars
    ptr, nbrs, vals = net.indptr.tolist(), net.indices, net.data.astype(np.float64)
    if net.directed:
        in_ptr, in_nbrs, in_vals = net.transpose()
        in_ptr, in_vals = in_ptr.tolist(), in_vals.astype(np.float64)
    t_in = None
    for i in range(net.n_nodes):
        lo, hi = ptr[i], ptr[i + 1]
        t_out = vals[lo:hi] @ resp.take(nbrs[lo:hi], axis=0)
        if net.directed:
            lo, hi = in_ptr[i], in_ptr[i + 1]
            t_in = in_vals[lo:hi] @ resp.take(in_nbrs[lo:hi], axis=0)
        score = _node_score(t_out, t_in, colsum - resp[i], log_pi, table_a, table_b, bernoulli, mul)
        row = _softmax_row(score)
        colsum += row - resp[i]
        resp[i] = row
    return resp


@np.errstate(divide="ignore", invalid="ignore")
def _m_step(kind: str, edge, pairs, colsum, entropy: float, n: int, directed: bool,
            fallback: float) -> tuple[BlockParams, float]:
    """Closed-form block rates (the fallback where a cell has no pairs) and weights, and their bound."""
    rate = np.where(pairs > 1e-12, edge / np.maximum(pairs, 1e-12), fallback)
    pi = colsum / n
    if kind == "bernoulli":
        params = BlockParams("bernoulli", colsum.size, pi, np.clip(rate, 0.0, 1.0))
    else:
        params = BlockParams("poisson", colsum.size, pi, np.log(rate))
    return params, _bound(edge, pairs, colsum, entropy, directed, params)


def elbo(net: Network, state: VariationalState) -> float:
    """Expected complete-data log-likelihood plus responsibility entropy."""
    return _bound(*_soft_stats(net, state.resp), _entropy(state.resp), net.directed, state.params)


def e_step(net: Network, state: VariationalState) -> VariationalState:
    """One full sweep of coordinate updates over nodes in index order.

    Each row is set to its exact conditional optimum given every other
    row's freshest value, so the bound cannot decrease.
    """
    out = VariationalState(_e_step(net, state), state.params, 0.0)
    out.elbo = elbo(net, out)
    return out


def m_step(net: Network, state: VariationalState) -> VariationalState:
    """Closed-form parameter update from responsibility-weighted counts."""
    edge, pairs, colsum = _soft_stats(net, state.resp)
    params, bound = _m_step(state.params.kind, edge, pairs, colsum, _entropy(state.resp), net.n_nodes,
                            net.directed, global_rate(net))
    return VariationalState(state.resp, params, bound)


_INIT_CANDIDATES = 4


def _hard_m_step(st: _Stats, fallback: float) -> tuple[BlockParams, float]:
    """The M step for one-hot responsibilities, from the count tables.

    Row i of ``st.vcount_out`` (``vcount_in``) holds node i's values toward
    (from) each block, the one-hot case of the soft E step's row terms,
    and ``edge`` and ``sizes`` are the block-pair totals; all are whole
    numbers, so every statistic equals the soft statistics of the same
    one-hot responsibilities bit for bit.
    """
    s = st.sizes
    # one-hot rows: the entropy is -sum(1 log 1 + 0 log 0) = -0.0
    return _m_step(st.kind, st.edge, np.outer(s, s) - np.diag(s), s, -0.0, st.n, st.directed, fallback)


@np.errstate(divide="ignore", invalid="ignore")
def _hard_sweep(st: _Stats, params: BlockParams) -> bool:
    """One hard E step in node index order; True when a node changed block.

    Node i joins the argmax of its ``_node_score`` given every other
    node's current block.  Splitting off the block totals, a node's
    score is T[i] + BG[z_i]: T (n x K) holds its counts times the
    per-value table (-inf where a count meets a zero-rate cell), and
    is built once per sweep and then only for the neighbours of a node
    that moves; BG (K x K) holds log pi and the block-total terms, and
    is rebuilt on each move.  The fast path decides alone only when
    its top-two gap exceeds twice the rounding margin; it calls
    ``_node_score`` otherwise, and for every node when a table entry is
    +-inf outside the zero-rate cells (a p = 1 cell), where the margin
    is infinite.  Decisions taken from the sweep-start table also allow
    for the block-total drift of the moves made since.
    """
    n, K, z, directed = st.n, st.K, st.z, st.directed
    table_a, table_b = _pair_tables(params)
    log_pi = np.log(params.pi)
    zero_rate = np.isneginf(table_a)
    a0 = np.where(zero_rate, 0.0, table_a)

    def reference(i: int, c: int) -> int:
        others = st.sizes.copy()
        others[c] -= 1.0
        t_in = st.vcount_in[i] if directed else None
        return int(np.argmax(_node_score(st.vcount_out[i], t_in, others, log_pi, table_a, table_b,
                                         st.kind == "bernoulli")))

    # score = log pi + sum_l others_l g_kl + sum_l t_l d_kl (+ the
    # transposed in-terms), with others = block totals minus the node
    g = table_b if st.kind == "bernoulli" else -table_b
    d = a0 - table_b if st.kind == "bernoulli" else a0
    G = g + g.T if directed else g
    forbid = zero_rate.astype(np.float64) if zero_rate.any() else None

    def count_rows(idx):
        rows = st.vcount_out[idx] @ d.T
        if directed:
            rows += st.vcount_in[idx] @ d
        if forbid is not None:
            hits = st.vcount_out[idx] @ forbid.T
            if directed:
                hits += st.vcount_in[idx] @ forbid
            rows[hits > 0] = -np.inf
        return rows

    # the margin of models._ERR_SCALE, for either of the top two scores:
    # N = 2 * sides * K + 6 terms, and M is bounded per node by |log pi|
    # + its total value * (|a| + |b|) + sides * (n + 1) * |b| over the
    # finite table entries a (log p or log-rate) and b
    sides = 2 if directed else 1
    mag_b = np.abs(table_b).max()
    mag = (np.abs(log_pi[np.isfinite(log_pi)]).max() + st.deg * (np.abs(a0).max() + mag_b)
           + sides * (n + 1) * mag_b)
    thr = 2.0 * _ERR_SCALE * (2 * sides * K + 6) * (mag + 1.0)
    if not (np.isfinite(a0).all() and np.isfinite(table_b).all()):
        thr[:] = np.inf
    # a move shifts every block-total term by at most 2 max|G|, so a
    # decision from the sweep-start table needs twice that more gap
    drift_step = 4.0 * np.abs(G).max()
    T = count_rows(slice(None))
    BG = (log_pi + G @ st.sizes) - G.T
    start = T + BG[z]
    top = start.argmax(axis=1)
    ar = np.arange(n)
    best = start[ar, top]
    start[ar, top] = -np.inf
    slack = (best - start.max(axis=1)) - thr  # nan where every block is -inf
    dirty = np.zeros(n, dtype=bool)
    drift = 0.0
    changed = False
    for i in range(n):
        c = z[i]
        if slack[i] > drift and not dirty[i]:
            k = top[i]
        else:
            score = T[i] + BG[c]
            k = score.argmax()
            best = score[k]
            score[k] = -np.inf
            if not best - score.max() > thr[i]:
                k = reference(i, int(c))
        if k != c:
            st.apply(i, k)
            nbrs = st.out_nbrs[st.out_ptr[i]:st.out_ptr[i + 1]]
            if directed:
                nbrs = np.concatenate((nbrs, st.in_nbrs[st.in_ptr[i]:st.in_ptr[i + 1]]))
            dirty[nbrs] = True
            T[nbrs] = count_rows(nbrs)
            BG = (log_pi + G @ st.sizes) - G.T
            drift += drift_step
            changed = True
    return changed


def _hard_phase(net, kind, fallback, labels0, K, max_iter) -> VariationalState:
    st = _Stats(net, labels0, K, kind)
    params, bound = _hard_m_step(st, fallback)
    for _ in range(max_iter):
        if not _hard_sweep(st, params):
            break
        params, bound = _hard_m_step(st, fallback)
    n = net.n_nodes
    resp = np.zeros((n, K))
    resp[np.arange(n), st.z] = 1.0
    return VariationalState(resp, params, bound)


def _run_restart(args) -> tuple[float, np.ndarray, BlockParams, list[float]]:
    net, cfg, kind, restart = args
    n = net.n_nodes
    fallback = global_rate(net)
    rng = restart_stream(cfg.seed, ENGINE_ID, restart)
    # classification warm start: soft responsibilities started anywhere
    # near uniform contract onto an uninformative fixed point, so each
    # restart runs hard-assignment sweeps from random partitions until
    # the labels stop changing, then hands over to soft updates.  On
    # small graphs a single random partition often drains into the
    # degenerate one-block fixed point, so a few candidate partitions
    # are hardened and only the best one is polished.
    state = None
    for _ in range(_INIT_CANDIDATES):
        cand = _hard_phase(net, kind, fallback, rng.integers(0, cfg.K, size=n), cfg.K, cfg.max_iter)
        if state is None or cand.elbo > state.elbo:
            state = cand
    trace = [state.elbo]
    for _ in range(cfg.max_iter):
        state = m_step(net, VariationalState(_e_step(net, state), state.params, 0.0))
        trace.append(state.elbo)
        if trace[-1] - trace[-2] < cfg.tol:
            break
    return state.elbo, state.resp, state.params, trace


def vem_fit(net: Network, cfg: VemConfig, kind: str = "bernoulli") -> FitResult:
    """Best-of-restarts variational fit; partition is the row-wise argmax."""
    if kind not in ("bernoulli", "poisson"):
        raise ValueError("vem supports the bernoulli and poisson kinds")
    if kind == "bernoulli" and net.value_kind != "binary":
        raise ValueError("bernoulli fit needs a binary network")
    if cfg.K > net.n_nodes:
        raise ValueError("K cannot exceed the number of nodes")
    runs = map_restarts(_run_restart, [(net, cfg, kind, r) for r in range(cfg.restarts)])
    best = max(range(cfg.restarts), key=lambda r: runs[r][0])
    best_elbo, resp, params, trace = runs[best]
    labels = np.argmax(resp, axis=1) + 1  # ties resolve to the lowest block
    return FitResult(
        engine="vem",
        kind=kind,
        K=cfg.K,
        labels=labels,
        node_labels=net.labels(),
        params=params,
        objective=best_elbo,
        trace=trace,
        seed=cfg.seed,
        config={**asdict(cfg), "kind": kind},
    )
