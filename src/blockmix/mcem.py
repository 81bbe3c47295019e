"""Monte-Carlo EM over a piecewise-constant graphon.

Latent node positions live on [0, 1); the graphon assigns a connection
probability per interval pair.  The E step runs a Metropolis-within-
Gibbs chain whose proposal is uniform on the complement of the node's
current interval; the M step re-estimates cell probabilities and blends
interval lengths toward the empirical occupation with a rising step
size.  After convergence one long final chain yields per-node
assignment frequencies and normalized Gini uncertainty scores.

Only the Bernoulli model is reformulated this way; count models are
served by the other engines.

``_Sampler.start`` swaps in a graphon, places the nodes in its intervals
and builds the n x K neighbour-block count table from the m stored pairs,
in O(m) once per chain; ``_Sampler.chain`` then runs the sweeps of one E
step, or of the final chain, and counts the visits of the kept states.
One Gibbs sweep costs O(n K) for the per-node scalar loop and O(deg) per
accepted move to update the count rows of the node's neighbours, which
keeps the table exact from sweep to sweep.
Accept/reject decisions are the loop's own scalar sums, so for a given
NumPy build a chain is a pure function of the seed and the inputs.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, asdict

import numpy as np

from blockmix.graph import Network
from blockmix.models import (
    BlockParams, GraphonStep, Partition, _cell_sums, bernoulli_loglik, block_pair_stats, global_rate,
)
from blockmix.results import FitResult, map_restarts, restart_stream

__all__ = [
    "LatentPositions",
    "McemConfig",
    "PosteriorSummary",
    "acceptance_prob",
    "gibbs_sweep",
    "posterior_mode",
    "m_step",
    "mcem_fit",
    "gini_uncertainty",
]

ENGINE_ID = 3
FINAL_CHAIN_ID = 4

# cell probabilities are clamped here before any likelihood ratio so the
# acceptance computation stays finite
_CLAMP = 1e-6


@dataclass
class LatentPositions:
    """Per-node latent uniforms in [0, 1)."""

    u: np.ndarray

    def __post_init__(self):
        self.u = np.asarray(self.u, dtype=np.float64)
        if self.u.ndim != 1:
            raise ValueError("u must be a vector")
        if not ((self.u >= 0) & (self.u < 1)).all():
            raise ValueError("latent positions must lie in [0, 1)")


def _positions(u) -> np.ndarray:
    return u.u.copy() if isinstance(u, LatentPositions) else np.asarray(u, dtype=np.float64).copy()


@dataclass
class McemConfig:
    K: int
    em_max_iter: int = 50
    sweeps_base: int = 20
    sweeps_increment: int = 10
    sweeps_cap: int = 200
    thinning: int = 5
    burn_in: float = 0.2
    restarts: int = 10
    final_sweeps: int = 2000
    seed: int = 0

    def __post_init__(self):
        if self.K < 1:
            raise ValueError("K must be at least 1")
        if min(self.em_max_iter, self.sweeps_base, self.sweeps_increment, self.sweeps_cap,
               self.thinning, self.restarts, self.final_sweeps) < 1:
            raise ValueError("schedule values must be positive")
        if not 0 <= self.burn_in < 1:
            raise ValueError("burn_in must lie in [0, 1)")

    @property
    def ramp(self) -> int:
        """EM iteration at which the step size reaches 1."""
        return math.ceil(self.em_max_iter / 2)


@dataclass
class PosteriorSummary:
    """Final-chain assignment frequencies and per-node concentration."""

    freq: np.ndarray
    gini: np.ndarray

    def __post_init__(self):
        self.freq = np.asarray(self.freq, dtype=np.float64)
        self.gini = np.asarray(self.gini, dtype=np.float64)
        if self.freq.ndim != 2 or self.gini.shape != (self.freq.shape[0],):
            raise ValueError("freq must be n x K with one gini entry per node")
        if not np.allclose(self.freq.sum(axis=1), 1.0, atol=1e-8):
            raise ValueError("freq rows must sum to 1")


def gini_uncertainty(freq_row: np.ndarray) -> float:
    """Normalized concentration of one frequency row: 1 certain, 0 uniform.

    Raw Gini is the mean absolute difference between frequency pairs
    over 2K; the (K-1)/K normalization makes a degenerate row score
    exactly 1.  A single-block row is certain by definition.
    """
    f = np.asarray(freq_row, dtype=np.float64)
    if f.ndim != 1 or f.size == 0:
        raise ValueError("freq_row must be a non-empty vector")
    if f.min() < 0:
        raise ValueError("frequencies cannot be negative")
    if abs(f.sum() - 1.0) > 1e-6:
        raise ValueError("frequencies must sum to 1")
    k = f.size
    if k == 1:
        return 1.0
    raw = np.abs(f[:, None] - f[None, :]).sum() / (2 * k)
    return float(raw * k / (k - 1))


class _Neighbours:
    """The network as the sampler reads it; built once per network."""

    def __init__(self, net: Network):
        self.n = net.n_nodes
        self.pair_factor = 2.0 if net.directed else 1.0
        # a node's neighbours: its out-row plus, directed, its in-row; a pair
        # joined both ways is listed twice, and whole-number sums stay exact
        self.src, self.dst, self.w = net.row_index(), net.indices, net.data.astype(np.float64)
        ptr, nbrs, wts = net.indptr.tolist(), self.dst.tolist(), self.w.tolist()
        self.nbr_lists = [nbrs[a:b] for a, b in zip(ptr, ptr[1:])]
        self.wt_lists = [wts[a:b] for a, b in zip(ptr, ptr[1:])]
        if net.directed:
            ptr, nbrs, wts = net.transpose()
            ptr, nbrs, wts = ptr.tolist(), nbrs.tolist(), wts.astype(np.float64).tolist()
            self.nbr_lists = [row + nbrs[a:b] for row, a, b in zip(self.nbr_lists, ptr, ptr[1:])]
            self.wt_lists = [row + wts[a:b] for row, a, b in zip(self.wt_lists, ptr, ptr[1:])]
            self.src, self.dst = np.concatenate((self.src, self.dst)), np.concatenate((self.dst, self.src))
            self.w = np.concatenate((self.w, self.w))


class _Sampler:
    """Chain machinery for one network; graphon swapped in between E steps."""

    def __init__(self, net: Network):
        # gibbs_sweep and acceptance_prob build a sampler per call; the
        # network part is built once and kept on the network
        nb = net.derived("mcem.neighbours", _Neighbours)
        self.n, self.pair_factor = nb.n, nb.pair_factor
        self.src, self.dst, self.w = nb.src, nb.dst, nb.w
        self.nbr_lists, self.wt_lists = nb.nbr_lists, nb.wt_lists

    def set_graphon(self, g: GraphonStep):
        # the tables depend on the graphon only, so it keeps them for later samplers
        self.__dict__.update(g.derived("mcem.sampler", self._graphon_tables))

    @staticmethod
    def _graphon_tables(g: GraphonStep) -> dict:
        lens = g.tau[1:] - g.tau[:-1]
        pc = np.clip(g.P, _CLAMP, 1.0 - _CLAMP)
        log_p, log_q = np.log(pc), np.log1p(-pc)
        with np.errstate(divide="ignore"):
            log_stay = np.log1p(-lens)
        # nodes of a full-width interval have an empty proposal support
        support = 1.0 - lens
        return dict(
            tau=g.tau, lens=lens, K=g.K, log_p=log_p, log_q=log_q, log_stay=log_stay,
            support=support, any_full=min(support.tolist()) <= 1e-15,
            _lp=log_p.tolist(), _lq=log_q.tolist(), _ls=log_stay.tolist(),
            # per-move tables, filled on first use by sweep
            moves=[[None] * g.K for _ in range(g.K)],
        )

    def _move_terms(self, kc: int, ks: int) -> tuple:
        """Scalar tables of the move kc -> ks, indexed by the neighbour's block.

        Returns (d_lp - d_lq, d_lq, d_stay).  The sweep's log ratio of the
        move is cnt[j] . (d_lp - d_lq) plus the occupancy term
        pf (occ . d_lq - d_lq[kc]) + d_stay, summed left to right.
        """
        lp, lq, sub = self._lp, self._lq, operator.sub
        d_lp = list(map(sub, lp[ks], lp[kc]))
        d_lq = list(map(sub, lq[ks], lq[kc]))
        self.moves[kc][ks] = terms = (list(map(sub, d_lp, d_lq)), d_lq, self._ls[kc] - self._ls[ks])
        return terms

    def start(self, g: GraphonStep, u: np.ndarray) -> tuple[np.ndarray, np.ndarray, list]:
        """Swap in graphon g; the chain state of positions u.

        Returns their intervals z, the intervals' occupancies and the
        neighbour-block count table: row i holds node i's weight into each
        interval, as Python lists that ``sweep`` keeps current.
        """
        self.set_graphon(g)
        z = self.tau.searchsorted(u, side="right") - 1
        cnt = _cell_sums(self.src, z[self.dst], self.w, (self.n, self.K)).tolist()
        return z, np.bincount(z, minlength=self.K), cnt

    def node_log_ratio(self, j: int, z: np.ndarray, occ: np.ndarray, ks: int, kc: int) -> float:
        """Metropolis log ratio for moving node j's interval kc -> ks.

        ``acceptance_prob`` reports this expression (NumPy dot products
        over the node's neighbours); the sweep computes the same sum from
        its count table, equal up to rounding.
        """
        e = np.bincount(z[self.nbr_lists[j]], weights=self.wt_lists[j], minlength=self.K)
        m = occ * self.pair_factor
        m[kc] -= self.pair_factor
        d_lp = self.log_p[ks] - self.log_p[kc]
        d_lq = self.log_q[ks] - self.log_q[kc]
        log_r = float(e @ d_lp + (m - e) @ d_lq)
        return float(log_r + (self.log_stay[kc] - self.log_stay[ks]))

    def sweep(self, u: np.ndarray, z: np.ndarray, occ: np.ndarray, cnt: list,
              rng: np.random.Generator):
        """One in-place pass over all nodes in ascending index order.

        Node j draws two uniforms (proposal, then coin) when it is
        visited; drawing all 2n at once gives the same numbers.  Until
        node j is visited z[j] holds its start-of-sweep value, so every
        proposal is computed up front.  The loop scores a proposal in
        O(K) scalar arithmetic from the count table of ``start`` and, on
        acceptance, updates the table rows of the node's neighbours in
        O(deg).  The counts are whole numbers, so the table stays exact.
        A move's occupancy term changes only when a move is accepted, so
        it is kept until then.  The move is accepted if and only if this
        scalar log ratio is >= 0 or the coin is below its exp.
        """
        n, K = self.n, self.K
        draws = rng.random(2 * n)
        x, coins = draws[0::2], draws[1::2]
        todo = range(n)
        if self.any_full:
            # the proposal support is empty: resample uniformly, which
            # cannot change the likelihood
            free = self.support[z] <= 1e-15
            u[free] = x[free]
            todo = np.flatnonzero(~free).tolist()
            if not todo:
                return
        lens = self.lens[z]
        xs = x * self.support[z]
        u_star = np.where(xs < self.tau[z], xs, xs + lens)
        kss = (self.tau.searchsorted(u_star, side="right") - 1).tolist()
        kcs, coins, occ_l, u_star = z.tolist(), coins.tolist(), occ.tolist(), u_star.tolist()
        pf, moves = self.pair_factor, self.moves
        nbr_lists, wt_lists = self.nbr_lists, self.wt_lists
        occ_terms = {}  # kc * K + k -> the move's occupancy term
        accepted = False
        for j in todo:
            kc, k, coin = kcs[j], kss[j], coins[j]
            d_pq, d_lq, d_stay = moves[kc][k] or self._move_terms(kc, k)
            occ_term = occ_terms.get(key := kc * K + k)
            if occ_term is None:
                occ_terms[key] = occ_term = pf * (sum(map(operator.mul, occ_l, d_lq)) - d_lq[kc]) + d_stay
            log_r = sum(map(operator.mul, cnt[j], d_pq)) + occ_term
            if log_r >= 0 or coin < math.exp(log_r):
                occ_l[kc] -= 1
                occ_l[k] += 1
                z[j] = k
                for i, w in zip(nbr_lists[j], wt_lists[j]):
                    row = cnt[i]
                    row[kc] -= w
                    row[k] += w
                u[j] = u_star[j]
                occ_terms.clear()
                accepted = True
        if accepted:
            occ[:] = occ_l

    def chain(self, u, z, occ, cnt, rng, sweeps: int, n_burn: int, thinning: int) -> np.ndarray:
        """Run ``sweeps`` sweeps from a ``start`` state; n x K visit counts of the kept states.

        Every thinning-th post-burn-in state is kept; when there is none,
        the chain's last state is counted instead.
        """
        counts = np.zeros((self.n, self.K))
        ar = np.arange(self.n)
        for t in range(sweeps):
            self.sweep(u, z, occ, cnt, rng)
            if t >= n_burn and (t - n_burn + 1) % thinning == 0:
                counts[ar, z] += 1
        if not counts.any():
            counts[ar, z] += 1
        return counts


def acceptance_prob(net: Network, u, j: int, u_star: float, g: GraphonStep) -> float:
    """Metropolis acceptance for proposing node j's position u_star.

    The proposal is uniform outside the node's current interval, so the
    likelihood ratio over node j's pairs is corrected by the ratio of
    complement lengths.
    """
    sampler = _Sampler(net)
    sampler.set_graphon(g)
    z = g.interval_of(_positions(u))
    occ = np.bincount(z, minlength=g.K)
    kc = int(z[j])
    ks = int(g.interval_of(float(u_star)))
    if ks == kc:
        raise ValueError("u_star lies inside the current interval")
    log_r = sampler.node_log_ratio(j, z, occ, ks, kc)
    return 1.0 if log_r >= 0 else float(math.exp(log_r))


def gibbs_sweep(net: Network, u, g: GraphonStep, rng: np.random.Generator) -> LatentPositions:
    """One full sweep; rejected proposals retain the previous position."""
    out = LatentPositions(_positions(u))  # validated once: the sweep keeps positions in [0, 1)
    sampler = _Sampler(net)
    sampler.sweep(out.u, *sampler.start(g, out.u), rng)
    return out


def _mode_from_counts(counts: np.ndarray, tau: np.ndarray) -> np.ndarray:
    mode = np.argmax(counts, axis=1)  # ties resolve to the lowest interval
    mids = (tau[:-1] + tau[1:]) / 2.0
    return mids[mode]


def posterior_mode(samples, g: GraphonStep, thinning: int) -> LatentPositions:
    """Midpoint of each node's most-visited interval in the thinned chain."""
    if thinning < 1:
        raise ValueError("thinning must be positive")
    arrays = [_positions(s) for s in samples]
    thinned = arrays[thinning - 1 :: thinning]
    if not thinned:
        raise ValueError("need at least one thinned sample")
    K = g.K
    counts = np.zeros((thinned[0].size, K))
    for pos in thinned:
        z = g.interval_of(pos)
        counts[np.arange(z.size), z] += 1
    return LatentPositions(_mode_from_counts(counts, g.tau))


def m_step(net: Network, u_hat, g: GraphonStep, delta: float, K: int) -> GraphonStep:
    """Closed-form graphon update from the assigned intervals of u_hat.

    Cell probabilities are empirical edge fractions (global density for
    empty cells); interval lengths blend the empirical occupation with
    the uniform vector by weight delta.
    """
    if not 0 <= delta <= 1:
        raise ValueError("delta must lie in [0, 1]")
    pos = _positions(u_hat)
    z = g.interval_of(pos)
    edge, pairs, sizes = block_pair_stats(net, z, K)
    num = edge + edge.T
    den = pairs + pairs.T
    with np.errstate(invalid="ignore"):
        p = np.where(den > 0, num / np.maximum(den, 1.0), global_rate(net))
    p = np.clip(p, 0.0, 1.0)
    pi = delta * (sizes / pos.size) + (1.0 - delta) / K
    tau = np.concatenate(([0.0], np.cumsum(pi)))
    tau[-1] = 1.0
    return GraphonStep(tau, p)


def _run_restart(args):
    net, cfg, restart = args
    rng = restart_stream(cfg.seed, ENGINE_ID, restart)
    n, K = net.n_nodes, cfg.K
    sampler = _Sampler(net)

    p0 = min(max(global_rate(net), 1e-3), 1.0 - 1e-3)
    noise = rng.uniform(-0.5, 0.5, size=(K, K))
    p_init = np.clip(p0 * (1.0 + (noise + noise.T) / 2.0), 1e-4, 1.0 - 1e-4)
    g = GraphonStep(np.linspace(0.0, 1.0, K + 1), p_init)
    u = rng.random(n)

    z_hat = None
    prev_z_hat = None
    stable = 0
    trace: list[float] = []
    u_trace: list[np.ndarray] = []
    for m in range(1, cfg.em_max_iter + 1):
        sweeps = min(cfg.sweeps_base + (m - 1) * cfg.sweeps_increment, cfg.sweeps_cap)
        counts = sampler.chain(u, *sampler.start(g, u), rng, sweeps, int(cfg.burn_in * sweeps), cfg.thinning)
        z_hat = np.argmax(counts, axis=1)
        u_hat = _mode_from_counts(counts, g.tau)
        u_trace.append(u_hat)

        if prev_z_hat is not None and np.array_equal(z_hat, prev_z_hat):
            stable += 1
        else:
            stable = 0
        prev_z_hat = z_hat
        done = stable >= 2 or m == cfg.em_max_iter
        g = m_step(net, u_hat, g, 1.0 if done else min(1.0, m / cfg.ramp), K)
        # the Bernoulli likelihood has no mixing term, so any weights do
        params = BlockParams("bernoulli", K, np.full(K, 1.0 / K), g.P)
        trace.append(bernoulli_loglik(net, Partition(z_hat + 1, K), params))
        if done:
            break

    return trace[-1], z_hat, g, trace, u.copy(), u_trace


def mcem_fit(net: Network, cfg: McemConfig) -> FitResult:
    """Best-of-restarts MCEM fit with a final uncertainty chain.

    Restarts are compared by the Bernoulli log-likelihood of their mode
    partitions; the winner then runs ``final_sweeps`` more Gibbs sweeps
    at fixed parameters, and the post-burn-in chain yields the
    assignment frequency matrix and Gini scores.
    """
    if net.value_kind != "binary":
        raise ValueError("the graphon engine needs a binary network")
    if cfg.K > net.n_nodes:
        raise ValueError("K cannot exceed the number of nodes")
    runs = map_restarts(_run_restart, [(net, cfg, r) for r in range(cfg.restarts)])
    best = max(range(cfg.restarts), key=lambda r: runs[r][0])
    objective, z_hat, g, trace, u, u_trace = runs[best]

    sampler = _Sampler(net)
    rng = restart_stream(cfg.seed, FINAL_CHAIN_ID, best)
    counts = sampler.chain(u, *sampler.start(g, u), rng, cfg.final_sweeps,
                           int(cfg.burn_in * cfg.final_sweeps), 1)
    freq = counts / counts.sum(axis=1, keepdims=True)
    gini = np.array([gini_uncertainty(row) for row in freq])
    posterior = PosteriorSummary(freq, gini)

    result = FitResult(
        engine="mcem",
        kind="bernoulli",
        K=cfg.K,
        labels=z_hat + 1,
        node_labels=net.labels(),
        params=g,
        objective=objective,
        trace=trace,
        seed=cfg.seed,
        config=asdict(cfg),
        posterior=posterior,
    )
    result.extras["u_trace"] = u_trace
    return result
