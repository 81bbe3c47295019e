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

Each network's neighbour lists and each graphon's tables, the K x K move
tables among them, are built once and kept on the network or graphon.
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
    BlockParams, GraphonStep, _cell_sums, _pair_term, block_pair_stats, block_rates, check_kind, global_rate,
)
from blockmix.results import FitResult, Restart, check_config, fit_restarts, restart_stream, whole

__all__ = [
    "LatentPositions",
    "McemConfig",
    "PosteriorSummary",
    "acceptance_prob",
    "gibbs_sweep",
    "m_step",
    "mcem_fit",
    "mcem_fit_positions",
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


def _positions(u, n: int, name: str = "u") -> np.ndarray:
    """A copy of the latent positions ``u`` of an n-node network (a LatentPositions or a sequence)."""
    pos = u.u.copy() if isinstance(u, LatentPositions) else np.asarray(u, dtype=np.float64).copy()
    if pos.shape != (n,):
        raise ValueError(f"{name} must hold one position per node ({n}), got shape {pos.shape}")
    return pos


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
        check_config(self, ("K", "em_max_iter", "sweeps_base", "sweeps_increment", "sweeps_cap", "thinning",
                            "restarts", "final_sweeps"))
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
        if not np.isfinite(self.gini).all():
            raise ValueError("gini entries must be finite")


def gini_uncertainty(freq_row: np.ndarray) -> float:
    """Normalized concentration of one frequency row: 1 certain, 0 uniform.

    Raw Gini is the mean absolute difference between frequency pairs
    over 2K; the (K-1)/K normalization makes a degenerate row score
    exactly 1.  A single-block row is certain by definition.
    """
    f = np.asarray(freq_row, dtype=np.float64)
    if f.ndim != 1 or f.size == 0:
        raise ValueError("freq_row must be a non-empty vector")
    if not np.isfinite(f).all():
        raise ValueError("frequencies must be finite")
    if f.min() < 0:
        raise ValueError("frequencies cannot be negative")
    if abs(f.sum() - 1.0) > 1e-6:
        raise ValueError("frequencies must sum to 1")
    k = f.size
    if k == 1:
        return 1.0
    raw = np.abs(f[:, None] - f[None, :]).sum() / (2 * k)
    return float(raw * k / (k - 1))


def _network_tables(net: Network) -> dict:
    """The network as the sampler reads it; built once per network."""
    ptr, dst, values = net.neighbours()
    # a node's neighbours: its out-row plus, directed, its in-row; a pair
    # joined both ways is listed twice, and whole-number sums stay exact
    w = values.sum(axis=0)
    nbrs, wts = dst.tolist(), w.tolist()
    return dict(
        n=net.n_nodes, pair_factor=2.0 if net.directed else 1.0,
        src=np.repeat(np.arange(net.n_nodes), np.diff(ptr)), dst=dst, w=w,
        nbr_lists=[nbrs[a:b] for a, b in zip(ptr, ptr[1:])], wt_lists=[wts[a:b] for a, b in zip(ptr, ptr[1:])],
    )


class _Sampler:
    """Chain machinery for one network; graphon swapped in between E steps."""

    def __init__(self, net: Network):
        # gibbs_sweep and acceptance_prob build a sampler per call; the
        # network part is built once and kept on the network
        self.__dict__.update(net.derived("mcem.neighbours", _network_tables))

    def set_graphon(self, g: GraphonStep):
        # the tables depend on the graphon only, so it keeps them for later samplers
        self.__dict__.update(g.derived("mcem.sampler", self._graphon_tables))

    @staticmethod
    def _graphon_tables(g: GraphonStep) -> dict:
        """The graphon as the sampler reads it; built once per graphon.

        ``moves[kc][ks]`` holds (d_lp - d_lq, d_lq, d_stay) of the move kc -> ks:
        row ks minus row kc of log p and log(1 - p), and log(1 - len kc) - log(1 - len ks).
        Its log ratio is cnt[j] . (d_lp - d_lq) plus ``_occ_term``, summed left to right.
        """
        lens = g.tau[1:] - g.tau[:-1]
        pc = np.clip(g.P, _CLAMP, 1.0 - _CLAMP)
        lp, lq = np.log(pc), np.log1p(-pc)
        d_lp, d_lq = lp[None] - lp[:, None], lq[None] - lq[:, None]
        # a full-width interval's log_stay is -inf, and its unused kc = ks cell nan
        with np.errstate(divide="ignore", invalid="ignore"):
            log_stay = np.log1p(-lens)
            d_stay = log_stay[:, None] - log_stay[None]
        # nodes of a full-width interval have an empty proposal support
        support = 1.0 - lens
        return dict(
            tau=g.tau, lens=lens, K=g.K, support=support, any_full=min(support.tolist()) <= 1e-15,
            moves=[list(zip(*rows)) for rows in zip((d_lp - d_lq).tolist(), d_lq.tolist(), d_stay.tolist())],
        )

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

    def _occ_term(self, occ: list, kc: int, d_lq: list, d_stay: float) -> float:
        """The part of the move's log ratio read from the interval occupancies:
        pf (occ . d_lq - d_lq[kc]) + d_stay, with d_lq and d_stay from ``moves``."""
        return self.pair_factor * (sum(map(operator.mul, occ, d_lq)) - d_lq[kc]) + d_stay

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
        moves, occ_term_of = self.moves, self._occ_term
        nbr_lists, wt_lists = self.nbr_lists, self.wt_lists
        occ_terms = {}  # kc * K + k -> the move's occupancy term
        accepted = False
        for j in todo:
            kc, k, coin = kcs[j], kss[j], coins[j]
            d_pq, d_lq, d_stay = moves[kc][k]
            occ_term = occ_terms.get(key := kc * K + k)
            if occ_term is None:
                occ_terms[key] = occ_term = occ_term_of(occ_l, kc, d_lq, d_stay)
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
    complement lengths.  The log ratio is the sweep's own sum, from node
    j's count row, so this is the probability the chain accepts with.
    """
    check_kind(net, "bernoulli")
    if not whole(j):
        raise ValueError(f"node index j must be a whole number, got {j!r}")
    if not 0 <= j < net.n_nodes:
        raise ValueError(f"node index {j} lies outside 0..{net.n_nodes - 1}")
    sampler = _Sampler(net)
    sampler.set_graphon(g)
    z = g.interval_of(_positions(u, net.n_nodes))
    kc = int(z[j])
    ks = int(g.interval_of(float(u_star)))
    if ks == kc:
        raise ValueError("u_star lies inside the current interval")
    d_pq, d_lq, d_stay = sampler.moves[kc][ks]
    row = np.bincount(z[sampler.nbr_lists[j]], sampler.wt_lists[j], g.K).tolist()
    occ = np.bincount(z, minlength=g.K).tolist()
    log_r = sum(map(operator.mul, row, d_pq)) + sampler._occ_term(occ, kc, d_lq, d_stay)
    return 1.0 if log_r >= 0 else float(math.exp(log_r))


def gibbs_sweep(net: Network, u, g: GraphonStep, rng: np.random.Generator) -> LatentPositions:
    """One full sweep; rejected proposals retain the previous position."""
    check_kind(net, "bernoulli")
    out = LatentPositions(_positions(u, net.n_nodes))  # validated once: the sweep keeps positions in [0, 1)
    sampler = _Sampler(net)
    sampler.sweep(out.u, *sampler.start(g, out.u), rng)
    return out


def m_step(net: Network, u_hat, g: GraphonStep, delta: float, K: int) -> GraphonStep:
    """Closed-form graphon update from the assigned intervals of u_hat.

    Cell probabilities are empirical edge fractions (global density for
    empty cells); interval lengths blend the empirical occupation with
    the uniform vector by weight delta.  K must equal g.K.
    """
    check_kind(net, "bernoulli")
    if K != g.K:
        raise ValueError(f"K must equal the graphon's K = {g.K}, got {K!r}")
    if not 0 <= delta <= 1:
        raise ValueError("delta must lie in [0, 1]")
    return _m_step(net, g.interval_of(_positions(u_hat, net.n_nodes, "u_hat")), delta, K)[0]


def _m_step(net: Network, z: np.ndarray, delta: float, K: int) -> tuple[GraphonStep, tuple]:
    """``m_step`` from the 0-based intervals z; also returns the ``block_pair_stats`` it read."""
    stats = edge, pairs, sizes = block_pair_stats(net, z, K)
    p = block_rates("bernoulli", edge + edge.T, pairs + pairs.T, global_rate(net))
    pi = delta * (sizes / z.size) + (1.0 - delta) / K
    tau = np.concatenate(([0.0], np.cumsum(pi)))
    tau[-1] = 1.0
    return GraphonStep(tau, p), stats


def _run_restart(args) -> Restart:
    net, cfg, _kind, restart = args
    rng = restart_stream(cfg.seed, ENGINE_ID, restart)
    n, K = net.n_nodes, cfg.K
    sampler = _Sampler(net)

    p0 = min(max(global_rate(net), 1e-3), 1.0 - 1e-3)
    noise = rng.uniform(-0.5, 0.5, size=(K, K))
    p_init = np.clip(p0 * (1.0 + (noise + noise.T) / 2.0), 1e-4, 1.0 - 1e-4)
    g = GraphonStep(np.linspace(0.0, 1.0, K + 1), p_init)
    u = rng.random(n)

    prev_z_hat = None
    stable = 0
    trace: list[float] = []
    u_trace: list[np.ndarray] = []
    for m in range(1, cfg.em_max_iter + 1):
        sweeps = min(cfg.sweeps_base + (m - 1) * cfg.sweeps_increment, cfg.sweeps_cap)
        counts = sampler.chain(u, *sampler.start(g, u), rng, sweeps, int(cfg.burn_in * sweeps), cfg.thinning)
        z_hat = np.argmax(counts, axis=1)  # ties resolve to the lowest interval
        u_trace.append(((g.tau[:-1] + g.tau[1:]) / 2.0)[z_hat])  # the mode's midpoints

        if prev_z_hat is not None and np.array_equal(z_hat, prev_z_hat):
            stable += 1
        else:
            stable = 0
        prev_z_hat = z_hat
        done = stable >= 2 or m == cfg.em_max_iter
        g, (edge, pairs, _) = _m_step(net, z_hat, 1.0 if done else min(1.0, m / cfg.ramp), K)
        # the mode's Bernoulli log-likelihood at the new cell probabilities;
        # it has no mixing term, so any weights do
        params = BlockParams("bernoulli", K, np.full(K, 1.0 / K), g.P)
        trace.append(float(_pair_term(edge, pairs, net.directed, params)))
        if done:
            break

    return Restart(trace[-1], z_hat, g, trace, (u.copy(), u_trace))


def mcem_fit_positions(net: Network, cfg: McemConfig) -> tuple[FitResult, list[np.ndarray]]:
    """``mcem_fit`` and the winning restart's mode positions, one vector per EM iteration."""
    check_kind(net, "bernoulli")
    result, best, run = fit_restarts("mcem", "bernoulli", _run_restart, net, cfg, asdict(cfg))
    u, u_trace = run.extra

    sampler = _Sampler(net)
    rng = restart_stream(cfg.seed, FINAL_CHAIN_ID, best)
    counts = sampler.chain(u, *sampler.start(run.params, u), rng, cfg.final_sweeps,
                           int(cfg.burn_in * cfg.final_sweeps), 1)
    freq = counts / counts.sum(axis=1, keepdims=True)
    gini = np.array([gini_uncertainty(row) for row in freq])
    result.posterior = PosteriorSummary(freq, gini)
    return result, u_trace


def mcem_fit(net: Network, cfg: McemConfig) -> FitResult:
    """Best-of-restarts MCEM fit with a final uncertainty chain.

    Restarts are compared by the Bernoulli log-likelihood of their mode
    partitions; the winner then runs ``final_sweeps`` more Gibbs sweeps
    at fixed parameters, and the post-burn-in chain yields the
    assignment frequency matrix and Gini scores.
    """
    return mcem_fit_positions(net, cfg)[0]
