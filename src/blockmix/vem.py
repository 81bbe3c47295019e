"""Variational EM for the Bernoulli and Poisson blockmodels.

The approximate posterior factorizes over nodes: row i of ``resp`` holds
node i's membership responsibilities.  The public ``e_step`` is the
coordinate-ascent sweep (nodes in index order, freshest values); with the
closed-form M step it never decreases the bound, which the test suite
asserts on random instances.

Each restart starts with a hard (classification) phase on the
vertex-switching engine's count tables (``switch._Stats``).  The soft
phase reads only the stored pairs: O(m K + n K^2) per iteration for m
stored pairs, in O(m + n K) memory.  A fit's soft E step updates every
row at once from the current rows (``_all_rows``) and takes the first
step toward them, of length 1, 1/2, 1/4, ..., whose bound does not drop
(``_guarded_step``), so the bound still never decreases.  Both phases end
each iteration in the same closed-form M step, ``_m_step``, and score a
node with one expression, ``_scorer``: per block, one dot product of the
node's coefficients (its values toward and from each block, the other
nodes' block totals, and 1) with the log tables regrouped as
``log pi + t (A - B) + others B``.  The sequential sweep scores one node
at a time, the all-node update and the hard sweep many at once, and a
node's scores have the same bytes for the same coefficients.  The
regrouped sums round differently from the seed's term-by-term expression
(within 1e-12 relative), so where two blocks' scores tie up to the last
bits a hard decision may differ from the seed's.

The rates and the bound are the likelihoods' own rules in ``models`` on the
soft statistics: ``block_rates``, ``_pair_term`` and ``_mix_term``.  A p = 0,
p = 1 or zero-rate cell puts -inf in a log table, and every score and bound
takes 0 * (-inf) = 0 by the one rule of ``models._sum``.
"""

from __future__ import annotations

from dataclasses import dataclass, asdict

import numpy as np

from blockmix.graph import Network
from blockmix.models import (
    BlockParams, _mix_term, _pair_tables, _pair_term, _xlogy, block_rates, check_kind, global_rate,
)
from blockmix.results import FitResult, Restart, check_config, fit_restarts, restart_stream
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
        check_config(self, ("K", "max_iter", "restarts"))
        if not isinstance(self.tol, (int, float)) or isinstance(self.tol, bool) or not 0 < self.tol < float("inf"):
            raise ValueError(f"tol must be a positive finite number, got {self.tol!r}")


@dataclass
class VariationalState:
    """Responsibilities, current parameters, and the bound they attain."""

    resp: np.ndarray
    params: BlockParams
    elbo: float


def _soft_stats(net: Network, resp: np.ndarray):
    """Responsibility-weighted block-pair values (over the stored pairs), pair counts and block totals."""
    colsum = resp.sum(axis=0)
    edge = (resp.T.take(net.row_index(), axis=1) * net.data) @ resp.take(net.indices, axis=0)
    return edge, np.outer(colsum, colsum) - resp.T @ resp, colsum


def _bound(edge, pairs, colsum, entropy: float, directed: bool, params: BlockParams) -> float:
    """The bound from block-pair statistics and the responsibility entropy."""
    return float(_pair_term(edge, pairs, directed, params) + _mix_term(colsum, params.pi) + entropy)


@np.errstate(divide="ignore", invalid="ignore")
def _entropy(resp: np.ndarray) -> float:
    return -_xlogy(resp, resp).sum()


def _scorer(params: BlockParams, directed: bool):
    """``score(c)``: each block's score, log pi plus the expected pair terms, for rows of coefficients ``c``.

    A row holds a node's values toward each block (``t``; when directed,
    then its values from each block), weighted by the other nodes'
    responsibilities, then the other nodes' block totals (``others``),
    then 1.  With A and B the ``_split`` finite parts of the
    ``models._pair_tables``, block k scores log pi_k + t.(A - B)_k + others.B_k
    (bernoulli) or log pi_k + t.log lambda_k + others.(-lambda_k) (poisson),
    a directed network's sides stacked as row k and then column k.  A
    score is -inf where a coefficient of at least 1e-9 meets a -inf cell
    (the ``models._sum`` rule): of A through t, of B through others - t
    (bernoulli's non-edges) or others (poisson's pairs).
    """
    K, n_t = params.K, params.K * (1 + directed)
    (a, a_inf), (b, b_inf) = _pair_tables(params)
    bernoulli = params.kind == "bernoulli"

    def stack(table):
        return np.hstack((table, table.T)) if directed else table

    rest = b + b.T if directed else b
    weights = np.hstack((stack(a - b if bernoulli else a), rest, np.log(params.pi)[:, None]))
    a_hits = None if a_inf is None else stack(a_inf).T
    b_hits = None if b_inf is None else stack(b_inf).T

    def score(c: np.ndarray) -> np.ndarray:
        s = np.vecdot(c[..., None, :], weights)
        if a_hits is None and b_hits is None:
            return s
        t = c[..., :n_t]
        hits = 0.0 if a_hits is None else (t >= 1e-9) @ a_hits
        if b_hits is not None:
            # B's coefficients: others - t (bernoulli), others (poisson)
            coef = c[..., None, n_t:n_t + K] - t.reshape(*t.shape[:-1], n_t // K, K) * bernoulli
            hits = hits + (coef.reshape(t.shape) >= 1e-9) @ b_hits
        s[hits > 0] = -np.inf
        return s

    return score


@np.errstate(divide="ignore", invalid="ignore")
def _e_step(net: Network, state: VariationalState) -> np.ndarray:
    """Responsibilities after one sequential soft sweep over the CSR rows; the bound is left to the caller."""
    resp, K = state.resp.copy(), state.params.K
    score = _scorer(state.params, net.directed)
    ptr, nbrs, values = net.neighbours()
    # one coefficient row, rewritten in place for each node: t (a row per side), others, 1
    c = np.ones(values.shape[0] * K + K + 1)
    t, others = c[:-K - 1].reshape(-1, K), c[-K - 1:-1]
    colsum = resp.sum(axis=0)
    for i in range(net.n_nodes):
        lo, hi = ptr[i], ptr[i + 1]
        np.matmul(values[:, lo:hi], resp.take(nbrs[lo:hi], axis=0), out=t)
        np.subtract(colsum, resp[i], out=others)
        s = score(c)
        m = np.maximum.reduce(s)
        row = np.exp(s - m) if m > -np.inf else np.ones(K)  # a row of -inf scores becomes uniform
        row /= np.add.reduce(row)
        np.add(others, row, out=colsum)
        resp[i] = row
    return resp


def _all_rows(net: Network, K: int):
    """``update(state)``: every node's row set to its conditional optimum given the state's other rows.

    Unlike the sweep of ``_e_step``, each row reads the state's rows, not
    the freshest ones.  A node's coefficients are those ``_e_step`` builds,
    summed from the stored pairs by one ``np.bincount``: directed, each
    pair i -> j adds its value times j's row to i's out-block and times
    i's row to j's in-block.  An isolated node's values stay 0.
    """
    n, n_t = net.n_nodes, K * (1 + net.directed)
    width = n_t + K + 1
    rows, cols, values = net.row_index(), net.indices, net.data.astype(np.float64)
    if net.directed:
        gather, into = np.concatenate((cols, rows)), np.concatenate((rows * width, cols * width + K))
        values = np.concatenate((values, values))
    else:
        gather, into = cols, rows * width
    into = (into[:, None] + np.arange(K)).ravel()
    values = values[:, None]

    @np.errstate(divide="ignore", invalid="ignore")
    def update(state: VariationalState) -> np.ndarray:
        resp = state.resp
        products = (values * resp.take(gather, axis=0)).ravel()
        # float64 also without stored pairs, where bincount returns int64
        c = np.bincount(into, products, n * width).astype(np.float64, copy=False).reshape(n, width)
        np.subtract(resp.sum(axis=0), resp, out=c[:, n_t:-1])
        c[:, -1] = 1.0
        s = _scorer(state.params, net.directed)(c)
        top = s.max(axis=1, keepdims=True)
        out = np.exp(s - top)
        out[np.isneginf(top[:, 0])] = 1.0  # a row of -inf scores becomes uniform
        out /= out.sum(axis=1, keepdims=True)
        return out

    return update


# the guarded step's smallest step length; below it the soft phase ends
_MIN_STEP = 2.0 ** -30


def _guarded_step(net: Network, state: VariationalState, update):
    """The first of r + a (r_new - r), a = 1, 1/2, 1/4, ..., whose bound is at least the state's.

    r is the state's responsibilities, r_new = ``update(state)``, and the
    bound is taken at the state's parameters.  Each row of r_new maximizes
    the bound in that row alone, a concave function of it, so r_new - r is
    an ascent direction and a short enough step cannot lower the bound.
    Returns the new responsibilities with their ``_soft_stats`` and
    ``_entropy``, or None when no a >= ``_MIN_STEP`` holds.
    """
    resp, new = state.resp, update(state)
    step = new - resp
    alpha = 1.0
    while alpha >= _MIN_STEP:
        cand = new if alpha == 1.0 else resp + alpha * step
        stats, entropy = _soft_stats(net, cand), _entropy(cand)
        if _bound(*stats, entropy, net.directed, state.params) >= state.elbo:
            return cand, stats, entropy
        alpha /= 2
    return None


def _m_step(kind: str, edge, pairs, colsum, entropy: float, n: int, directed: bool,
            fallback: float) -> tuple[BlockParams, float]:
    """Closed-form block rates (the fallback where a cell has no pairs) and weights, and their bound."""
    rates = block_rates(kind, edge, pairs, fallback, tiny=1e-12)
    params = BlockParams(kind, colsum.size, colsum / n, rates)
    return params, _bound(edge, pairs, colsum, entropy, directed, params)


def _check_resp(net: Network, state: VariationalState):
    check_kind(net, state.params.kind, "vem")
    if np.shape(state.resp) != (net.n_nodes, state.params.K):
        raise ValueError(f"resp must be n x K = {net.n_nodes} x {state.params.K}, got {np.shape(state.resp)}")


def elbo(net: Network, state: VariationalState) -> float:
    """Expected complete-data log-likelihood plus responsibility entropy."""
    _check_resp(net, state)
    return _bound(*_soft_stats(net, state.resp), _entropy(state.resp), net.directed, state.params)


def e_step(net: Network, state: VariationalState) -> VariationalState:
    """One full sweep of coordinate updates over nodes in index order.

    Each row is set to its exact conditional optimum given every other
    row's freshest value, so the bound cannot decrease.  ``vem_fit`` takes
    the guarded all-node step instead: toward every row's optimum given
    the rows before the step.
    """
    _check_resp(net, state)
    out = VariationalState(_e_step(net, state), state.params, 0.0)
    out.elbo = elbo(net, out)
    return out


def m_step(net: Network, state: VariationalState) -> VariationalState:
    """Closed-form parameter update from responsibility-weighted counts."""
    _check_resp(net, state)
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


# nodes scored by a sweep's first run; a run doubles while nobody moves
_FIRST_RUN = 16


@np.errstate(divide="ignore", invalid="ignore")
def _hard_sweep(st: _Stats, params: BlockParams) -> bool:
    """One hard E step in node index order; True when a node changed block.

    Node i joins the argmax of its ``_scorer`` row given every other
    node's current block: the seed's dense hard E step on one-hot
    responsibilities, with the regrouped score.  Runs of nodes are scored
    at once; the first node of a run that leaves its block moves, and the
    next run starts after it.
    """
    score, z, eye, ones = _scorer(params, st.directed), st.z, np.eye(st.K), np.ones((st.n, 1))
    counts = [st.vcount_out, st.vcount_in][:1 + st.directed]
    i, run, changed = 0, _FIRST_RUN, False
    while i < st.n:
        rows = slice(i, i + run)
        # a node in block c has the other nodes' totals sizes - e_c
        c = np.concatenate([t[rows] for t in counts] + [st.sizes - eye[z[rows]], ones[rows]], axis=1)
        top = score(c).argmax(axis=1)
        moved = top != z[rows]
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
    return VariationalState(np.eye(K)[st.z], params, bound)


def _soft_phase(net: Network, state: VariationalState, kind: str, fallback: float, max_iter: int,
                tol: float) -> tuple[VariationalState, list[float]]:
    """Guarded all-node steps, each followed by the M step, until the bound gains less than ``tol``.

    Returns the last state and the trace of bounds, the given state's first.
    The phase also ends when ``_guarded_step`` finds no step.
    """
    trace, update = [state.elbo], _all_rows(net, state.params.K)
    for _ in range(max_iter):
        step = _guarded_step(net, state, update)
        if step is None:
            break
        resp, stats, entropy = step
        state = VariationalState(resp, *_m_step(kind, *stats, entropy, net.n_nodes, net.directed, fallback))
        trace.append(state.elbo)
        if trace[-1] - trace[-2] < tol:
            break
    return state, trace


def _run_restart(args) -> Restart:
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
    state, trace = _soft_phase(net, state, kind, fallback, cfg.max_iter, cfg.tol)
    # ties resolve to the lowest block
    return Restart(state.elbo, np.argmax(state.resp, axis=1), state.params, trace)


def vem_fit(net: Network, cfg: VemConfig, kind: str = "bernoulli") -> FitResult:
    """Best-of-restarts variational fit; partition is the row-wise argmax."""
    check_kind(net, kind, "vem")
    return fit_restarts("vem", kind, _run_restart, net, cfg, {**asdict(cfg), "kind": kind})[0]
