"""Variational EM for the Bernoulli and Poisson blockmodels.

The approximate posterior factorizes over nodes: row i of ``resp`` holds
node i's membership responsibilities.  Alternating the coordinate-ascent
E step (sequential node sweeps, freshest values) with the closed-form
M step never decreases the bound, which the test suite asserts on random
instances.
"""

from __future__ import annotations

from dataclasses import dataclass, asdict

import numpy as np

from blockmix.graph import Network
from blockmix.models import BlockParams, _xlogy, global_rate
from blockmix.results import FitResult, map_restarts, restart_stream

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


@np.errstate(divide="ignore", invalid="ignore")
def _elbo_dense(yd: np.ndarray, directed: bool, state: VariationalState) -> float:
    resp, params = state.resp, state.params
    colsum = resp.sum(axis=0)
    edge = resp.T @ yd @ resp
    pairs = np.outer(colsum, colsum) - resp.T @ resp
    scale = 1.0 if directed else 0.5
    table_a, table_b = _pair_tables(params)
    if params.kind == "bernoulli":
        pair_term = (_mul(edge, table_a) + _mul(pairs - edge, table_b)).sum()
    else:
        pair_term = (_mul(edge, table_a) - pairs * table_b).sum()
    log_pi = np.log(params.pi)
    mix_term = _mul(colsum, log_pi).sum()
    entropy = -_xlogy(resp, resp).sum()
    return float(pair_term * scale + mix_term + entropy)


def _softmax_row(score: np.ndarray) -> np.ndarray:
    m = score.max()
    if m == -np.inf:
        return np.full(score.size, 1.0 / score.size)
    w = np.exp(score - m)
    return w / w.sum()


@np.errstate(divide="ignore", invalid="ignore")
def _e_step_dense(
    yd: np.ndarray, directed: bool, state: VariationalState, harden: bool = False
) -> VariationalState:
    params = state.params
    resp = state.resp.copy()
    colsum = resp.sum(axis=0)
    table_a, table_b = _pair_tables(params)
    log_pi = np.log(params.pi)
    bernoulli = params.kind == "bernoulli"
    for i in range(yd.shape[0]):
        others = colsum - resp[i]
        t_out = yd[i] @ resp
        if bernoulli:
            score = log_pi + _mul(t_out, table_a).sum(axis=1) + _mul(others - t_out, table_b).sum(axis=1)
        else:
            score = log_pi + _mul(t_out, table_a).sum(axis=1) - table_b @ others
        if directed:
            t_in = yd[:, i] @ resp
            if bernoulli:
                score = score + _mul(t_in, table_a.T).sum(axis=1) + _mul(others - t_in, table_b.T).sum(axis=1)
            else:
                score = score + _mul(t_in, table_a.T).sum(axis=1) - table_b.T @ others
        if harden:
            row = np.zeros(score.size)
            row[int(np.argmax(score))] = 1.0
        else:
            row = _softmax_row(score)
        colsum += row - resp[i]
        resp[i] = row
    out = VariationalState(resp, params, 0.0)
    out.elbo = _elbo_dense(yd, directed, out)
    return out


def _m_step_dense(
    yd: np.ndarray, directed: bool, fallback: float, state: VariationalState
) -> VariationalState:
    resp = state.resp
    n = yd.shape[0]
    colsum = resp.sum(axis=0)
    edge = resp.T @ yd @ resp
    pairs = np.outer(colsum, colsum) - resp.T @ resp
    with np.errstate(divide="ignore", invalid="ignore"):
        rate = np.where(pairs > 1e-12, edge / np.maximum(pairs, 1e-12), fallback)
    pi = colsum / n
    if state.params.kind == "bernoulli":
        params = BlockParams("bernoulli", state.params.K, pi, np.clip(rate, 0.0, 1.0))
    else:
        with np.errstate(divide="ignore"):
            params = BlockParams("poisson", state.params.K, pi, np.log(rate))
    out = VariationalState(resp, params, 0.0)
    out.elbo = _elbo_dense(yd, directed, out)
    return out


def elbo(net: Network, state: VariationalState) -> float:
    """Expected complete-data log-likelihood plus responsibility entropy."""
    return _elbo_dense(net.to_dense().astype(np.float64), net.directed, state)


def e_step(net: Network, state: VariationalState) -> VariationalState:
    """One full sweep of coordinate updates over nodes in index order.

    Each row is set to its exact conditional optimum given every other
    row's freshest value, so the bound cannot decrease.
    """
    return _e_step_dense(net.to_dense().astype(np.float64), net.directed, state)


def m_step(net: Network, state: VariationalState) -> VariationalState:
    """Closed-form parameter update from responsibility-weighted counts."""
    return _m_step_dense(net.to_dense().astype(np.float64), net.directed, global_rate(net), state)


_INIT_CANDIDATES = 4


def _hard_phase(yd, directed, kind, fallback, labels0, K, max_iter) -> VariationalState:
    n = labels0.size
    resp = np.zeros((n, K))
    resp[np.arange(n), labels0] = 1.0
    blank = BlockParams(kind, K, np.full(K, 1.0 / K), np.zeros((K, K)))
    state = _m_step_dense(yd, directed, fallback, VariationalState(resp, blank, 0.0))
    for _ in range(max_iter):
        hard = _e_step_dense(yd, directed, state, harden=True)
        if np.array_equal(hard.resp, state.resp):
            break
        state = _m_step_dense(yd, directed, fallback, hard)
    return state


def _run_restart(args) -> tuple[float, np.ndarray, BlockParams, list[float]]:
    net, cfg, kind, restart = args
    yd = net.to_dense().astype(np.float64)
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
        cand = _hard_phase(
            yd, net.directed, kind, fallback, rng.integers(0, cfg.K, size=n), cfg.K, cfg.max_iter
        )
        if state is None or cand.elbo > state.elbo:
            state = cand
    trace = [state.elbo]
    for _ in range(cfg.max_iter):
        state = _m_step_dense(yd, net.directed, fallback, _e_step_dense(yd, net.directed, state))
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
