"""Variational EM for the Bernoulli and Poisson blockmodels.

The approximate posterior factorizes over nodes: row i of ``resp`` holds
node i's membership responsibilities.  Alternating the coordinate-ascent
E step (sequential node sweeps, freshest values) with the closed-form
M step never decreases the bound, which the test suite asserts on random
instances.

Each restart starts with a hard (classification) phase on the
vertex-switching engine's count tables (``switch._Stats``).  It scores
runs of nodes at once with the soft E step's expression, bit for bit, so
its decisions are those of the seed's dense hard E step: O(n K^2) per
sweep plus O(K^2) for each node scored again after a move.  The soft
phase reads only the stored pairs: O(m K + n K^2) per iteration for m
stored pairs, in O(m + n K) memory.  Both phases end each iteration in
the same closed-form M step, ``_m_step``, fed from the count tables or
from ``_soft_stats``.

A p = 0, p = 1 or zero-rate cell puts -inf in a log table; every score and
bound takes 0 * (-inf) = 0 by one rule, ``_sum`` on tables split once.
"""

from __future__ import annotations

from dataclasses import dataclass, asdict

import numpy as np

from blockmix.graph import Network
from blockmix.models import BlockParams, _xlogy, global_rate
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


def _split(table):
    """``table``'s finite part (0 at its -inf cells) and a float mask of those cells (None when there is none)."""
    neginf = np.isneginf(table)
    return np.where(neginf, 0.0, table), (neginf.astype(np.float64) if neginf.any() else None)


def _pair_tables(params: BlockParams):
    """The ``_split`` tables of an edge and a non-edge (bernoulli), or of the log-rate and the (finite) rate."""
    with np.errstate(divide="ignore"):
        if params.kind == "bernoulli":
            return _split(np.log(params.block_matrix)), _split(np.log1p(-params.block_matrix))
    return _split(params.block_matrix), (np.exp(params.block_matrix), None)


def _sides(params: BlockParams, directed: bool) -> list:
    """``_pair_tables`` for the values toward each block, and from each block (transposed) when directed."""
    tables = _pair_tables(params)
    flipped = tuple((value.T, None if neginf is None else neginf.T) for value, neginf in tables)
    return [tables, flipped] if directed else [tables]


def _sum(*terms, axis=-1):
    """The sum over ``axis`` of the products coef * table, added up over ``terms`` cell by cell.

    Each term pairs coefficients with a ``_split`` table they broadcast
    against.  The products take the tables' finite parts, and a sum is
    -inf where a coefficient of at least 1e-9 meets a -inf cell: for
    whole-number counts, any count > 0.  Coefficients nearer zero are
    rounding noise, such as a p = 1 cell's non-edge count of -1e-17.
    """
    total = hit = None
    for coef, (value, neginf) in terms:
        total = coef * value if total is None else total + coef * value
        if neginf is not None:
            meets = np.add.reduce((coef >= 1e-9) * neginf, axis=axis) > 0
            hit = meets if hit is None else hit | meets
    total = np.add.reduce(total, axis=axis)
    return total if hit is None else np.where(hit, -np.inf, total)


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
    rest = pairs - edge if params.kind == "bernoulli" else -pairs
    pair_term = _sum((edge, table_a), (rest, table_b), axis=None)
    mix_term = _sum((colsum, _split(np.log(params.pi))), axis=None)
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


def _node_score(t_out, t_in, others, log_pi, sides, bernoulli: bool) -> np.ndarray:
    """One node's E-step score for each block: log pi plus its expected pair terms.

    ``t_out`` (``t_in``) holds the node's values toward (from) each block
    weighted by the other nodes' responsibilities, ``others`` the other
    nodes' block totals, and ``sides`` the ``_sides`` tables; ``t_in`` is
    None for undirected networks.  The soft E step scores a node with this
    expression, and so does the hard sweep (``_run_scorer`` reproduces it
    bit for bit).
    """
    score = log_pi
    for t, (table_a, table_b) in zip((t_out, t_in), sides):
        if bernoulli:
            score = score + _sum((t, table_a)) + _sum((others - t, table_b))
        else:
            score = score + _sum((t, table_a)) - table_b[0] @ others
    return score


@np.errstate(divide="ignore", invalid="ignore")
def _e_step(net: Network, state: VariationalState) -> np.ndarray:
    """Responsibilities after one soft sweep over the CSR rows; the bound is left to the caller."""
    params = state.params
    resp = state.resp.copy()
    colsum = resp.sum(axis=0)
    sides = _sides(params, net.directed)
    log_pi = np.log(params.pi)
    bernoulli = params.kind == "bernoulli"
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
        score = _node_score(t_out, t_in, colsum - resp[i], log_pi, sides, bernoulli)
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


def _run_scorer(st: _Stats, sides, log_pi):
    """``scores(lo, hi)``: the ``_node_score`` of nodes lo..hi-1 in their current blocks.

    The scores equal one ``_node_score`` call per node bit for bit: each
    product is the same, each row sums its K products in the same order,
    and the terms add up in the same order.  A node in block c has the
    other nodes' totals sizes - e_c, and poisson's ``table_b @ others`` is
    one matrix-vector product per block.
    """
    eye = np.eye(st.K)
    bernoulli = st.kind == "bernoulli"

    def scores(lo: int, hi: int) -> np.ndarray:
        z = st.z[lo:hi]
        # poisson's products take fresh 1-D vectors, as _node_score's do
        others = (st.sizes - eye)[z] if bernoulli else [st.sizes - e for e in eye]
        score = log_pi
        for vcount, (table_a, table_b) in zip((st.vcount_out, st.vcount_in), sides):
            t = vcount[lo:hi]
            if bernoulli:
                rest = _sum(((others - t)[:, None, :], table_b))
            else:
                rest = -np.array([table_b[0] @ o for o in others])[z]
            score = score + _sum((t[:, None, :], table_a)) + rest
        return score

    return scores


# nodes scored by a sweep's first run; a run doubles while nobody moves
_FIRST_RUN = 16


@np.errstate(divide="ignore", invalid="ignore")
def _hard_sweep(st: _Stats, params: BlockParams) -> bool:
    """One hard E step in node index order; True when a node changed block.

    Node i joins the argmax of its ``_node_score`` given every other
    node's current block.  That is the seed's dense hard E step on
    one-hot responsibilities, so every decision is the seed's, including
    scores that tie up to the last bit.  Runs of nodes are scored at once
    (``_run_scorer``); the first node of a run that leaves its block
    moves, and the next run starts after it.  Zero-rate and p = 1 cells
    take the same -inf rule as in the soft E step (``_sum``).
    """
    scores = _run_scorer(st, _sides(params, st.directed), np.log(params.pi))
    z, i, run, changed = st.z, 0, _FIRST_RUN, False
    while i < st.n:
        top = scores(i, i + run).argmax(axis=1)
        moved = top != z[i:i + run]
        j = int(moved.argmax())
        if not moved[j]:
            i += run
            run *= 2
            continue
        st.apply(i + j, int(top[j]))
        changed = True
        i += j + 1
        run = max(_FIRST_RUN, 2 * j)
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
