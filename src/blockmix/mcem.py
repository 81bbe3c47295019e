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
in O(m) once per chain.  ``_Sampler.advance``, the one sweep engine, then runs
the sweeps of one E step, of the final chain (``_Sampler.chain`` counts
the visits of their kept states) or of one ``gibbs_sweep``.  It screens
runs of upcoming visits, which may span sweeps, in NumPy against the
current state, and walks in Python only the visits whose log ratio might
pass the coin; the first accepted move ends the run.  Where moves come
every few visits it walks the rest of the sweep node by node, at O(K) per
visit.  An accepted move costs O(deg) to update the count rows of the
node's neighbours, which keeps the table exact from sweep to sweep, so a
quiet sweep costs a few vector operations instead of n scalar decisions.
Accept/reject decisions are the walk's own scalar sums, which a screen
reproduces byte for byte, so for a given NumPy build a chain is a pure
function of the seed and the inputs.
"""

from __future__ import annotations

import functools
import math
from itertools import chain, count
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
        if self.u.size and not (self.u.min() >= 0 and self.u.max() < 1):
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
    # a node's neighbours: its CSR row plus, directed, its transpose row; a
    # pair joined both ways is listed twice, and whole-number sums stay exact
    sides = [(net.indptr, net.indices, net.data)] + ([net.transpose()] if net.directed else [])
    nbr_lists, wt_lists = [[] for _ in range(net.n_nodes)], [[] for _ in range(net.n_nodes)]
    for ptr, nbrs, vals in sides:
        ptr, nbrs, vals = ptr.tolist(), nbrs.tolist(), vals.astype(np.float64).tolist()
        for i, (a, b) in enumerate(zip(ptr, ptr[1:])):
            nbr_lists[i] += nbrs[a:b]
            wt_lists[i] += vals[a:b]
    return dict(
        n=net.n_nodes, pair_factor=2.0 if net.directed else 1.0,
        src=np.concatenate([np.repeat(np.arange(net.n_nodes), np.diff(ptr)) for ptr, _, _ in sides]),
        dst=np.concatenate([nbrs for _, nbrs, _ in sides]),
        w=np.concatenate([vals for _, _, vals in sides]).astype(np.float64),
        nbr_lists=nbr_lists, wt_lists=wt_lists,
    )


# The walk's constants, each measured on the 35 chains of the planted-150
# mcem fit (n = 150, K = 3) on a 2-core Xeon.
# Visits screened by a run after a move or at the start; a run doubles while
# nobody moves, and a chain with fewer visits left is walked.  A screen
# costs about 20 NumPy calls whatever its length; 16 keeps one-sweep chains
# of a few nodes (``gibbs_sweep`` on small graphs) on the walk.
_FIRST_RUN = 16
# A screen and its table refresh cost about as much as walking this many
# visits (30 us against 0.45 us a visit): a move this close to the one
# before sends the rest of its sweep to the walk, and a walk that met a
# move per this many visits walks the next sweep too.  Gaps of 32 and 128
# ran the fit's chains 5 to 15 % slower.
_WALK_GAP = 64
# Visits whose uniforms one draw holds, rounded down to whole sweeps (one
# sweep at least); a screened run ends with its draw.  Draws of 1024, 4096
# and 16384 visits ran the fit's chains no faster, and 4096 raised the
# fit's peak RSS by 0.2 MB over 2048.
_DRAW_VISITS = 2048
# A visit whose log ratio lies this far below log(coin) is a certain
# rejection: np.log and math.exp err by a few ulps, at most about 1e-14 on
# coins of 2**-53 and up, so 1e-9 never skips an accepted move.
_MARGIN = 1e-9


@functools.cache
def _left_fold(K: int):
    """``fold(a, b)``: 0.0 + a[0] b[0] + a[1] b[1] + ... + a[K - 1] b[K - 1], added left to right.

    ``_Sampler._screen`` adds the same products in the same order, so the
    two give the same double.  The builtin ``sum`` would not on every
    Python: from 3.12 it compensates float sums.  The expression is
    unrolled for K (built from the digits of K alone), which runs faster
    than a loop or ``sum(map(operator.mul, a, b))``.
    """
    return eval("lambda a, b: 0.0" + "".join(f" + a[{k}] * b[{k}]" for k in range(K)))


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
        Its log ratio is cnt[j] . (d_lp - d_lq) plus ``_occ_term``, each dot product
        the left fold ``fold``; ``d_pq[kc, ks]`` is its first entry as an array.
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
            fold=_left_fold(g.K),
            d_pq=(d_lp - d_lq).reshape(g.K * g.K, g.K),
            moves=[list(zip(*rows)) for rows in zip((d_lp - d_lq).tolist(), d_lq.tolist(), d_stay.tolist())],
        )

    def start(self, g: GraphonStep, u: np.ndarray) -> tuple[np.ndarray, list, list]:
        """Swap in graphon g; the chain state of positions u.

        Returns their intervals z, the intervals' occupancies and the
        neighbour-block count table: row i holds node i's weight into each
        interval.  The occupancies and the table are Python lists, which
        the scalar walk reads and ``advance`` keeps current.
        """
        self.set_graphon(g)
        z = self.tau.searchsorted(u, side="right") - 1
        cnt = _cell_sums(self.src, z[self.dst], self.w, (self.n, self.K)).tolist()
        return z, np.bincount(z, minlength=self.K).tolist(), cnt

    def _occ_term(self, occ: list, kc: int, d_lq: list, d_stay: float) -> float:
        """The part of the move's log ratio read from the interval occupancies:
        pf (occ . d_lq - d_lq[kc]) + d_stay, with d_lq and d_stay from ``moves``."""
        return self.pair_factor * (self.fold(occ, d_lq) - d_lq[kc]) + d_stay

    def _proposals(self, kc: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Proposed intervals and positions of visits to nodes in intervals kc, with uniforms x.

        A node's proposal reads its own interval only, which nothing but
        its own visit changes, so it holds until that visit.
        """
        xs = x * self.support[kc]
        u_star = np.where(xs < self.tau[kc], xs, xs + self.lens[kc])
        return self.tau.searchsorted(u_star, side="right") - 1, u_star

    def _walk(self, visits, coins, u_star, state: tuple, stop: bool) -> list:
        """Decide the visits (i, j, kc, k) in order; the accepted ones, only the first if ``stop``.

        Visit i proposes to move node j from interval kc to k at position
        ``u_star[i]``, with coin ``coins[i]``.  Its log ratio is the left fold
        cnt[j][0] d_pq[0] + cnt[j][1] d_pq[1] + ... plus its occupancy term,
        which ``occ_terms`` keeps until a move.  The move is accepted if and
        only if log_r >= 0 or coin < exp(log_r).  An accepted move is applied
        to the chain state (u, z, occupancies, count table, occ_terms): it
        updates the count rows of the node's neighbours, whose counts are
        whole numbers, so the table stays exact.
        """
        u, z, occ, cnt, occ_terms = state
        moves, K, occ_term_of, nbr_lists, wt_lists = self.moves, self.K, self._occ_term, self.nbr_lists, self.wt_lists
        fold, exp = self.fold, math.exp
        moved = []
        for i, j, kc, k in visits:
            d_pq, d_lq, d_stay = moves[kc][k]
            occ_term = occ_terms.get(key := kc * K + k)
            if occ_term is None:
                occ_terms[key] = occ_term = occ_term_of(occ, kc, d_lq, d_stay)
            log_r = fold(cnt[j], d_pq) + occ_term
            if log_r >= 0 or coins[i] < exp(log_r):
                occ[kc] -= 1
                occ[k] += 1
                z[j] = k
                for m, w in zip(nbr_lists[j], wt_lists[j]):
                    row = cnt[m]
                    row[kc] -= w
                    row[k] += w
                u[j] = u_star[i]
                occ_terms.clear()
                moved.append((i, j, kc, k))
                if stop:
                    break
        return moved

    def _occ_vector(self, occ: list, occ_terms: dict) -> np.ndarray:
        """Every move's occupancy term by key kc * K + ks (0 where kc = ks), kept in ``occ_terms``."""
        K, moves = self.K, self.moves
        for kc in range(K):
            for ks in range(K):
                if kc != ks and (key := kc * K + ks) not in occ_terms:
                    _, d_lq, d_stay = moves[kc][ks]
                    occ_terms[key] = self._occ_term(occ, kc, d_lq, d_stay)
        return np.array([occ_terms.get(key, 0.0) for key in range(K * K)])

    def _screen(self, table: np.ndarray, occ_vec: np.ndarray, js: np.ndarray, keys: np.ndarray) -> np.ndarray:
        """The log ratios of visits to nodes js with moves ``keys``, from the count table as an array.

        Each is the same left fold in ascending k, plus the same occupancy
        term, as ``_walk`` computes for the visit, so the same double.
        """
        terms = table.take(js, axis=0)
        terms *= self.d_pq.take(keys, axis=0)
        log_r = np.zeros(js.size)
        for k in range(self.K):
            log_r += terms[:, k]
        log_r += occ_vec.take(keys)
        return log_r

    def advance(self, u, z, occ, cnt, rng, sweeps: int, settled=None):
        """Advance a ``start`` state by ``sweeps`` sweeps, in place.

        Sweep t visits the nodes in ascending index order, and its visit of
        node j reads uniforms 2j and 2j + 1 of the sweep's 2n (proposal,
        then coin).  They are drawn for whole sweeps at once, which gives the
        same numbers and never passes the last sweep.  Visits are screened
        in runs, which may span sweeps: a node's proposal reads only its own
        interval, which only its own visit changes, so until a move the
        run's proposals and log ratios, computed in NumPy against the
        current state, are those of the node-by-node walk.  Only the visits
        whose log ratio exceeds log(coin) - _MARGIN are walked with the exact
        test.  The first accepted move is applied and the next run starts
        after it; while nobody moves, a run doubles.  Where moves come every
        few visits, the rest of the sweep is walked node by node.  A screen
        reads the count table as an array, copied whole after a move.

        ``settled(t)``, when given, is called before the first move of sweep
        t and at the end with t = sweeps: the states after sweeps before t
        that it has not been told of all equal the current state.
        """
        n, K = self.n, self.K
        occ_terms = {}
        state = u, z, occ, cnt, occ_terms
        table, nodes = None, None  # cnt as an array, until a move; 0 1 .. n-1 0 1 ..
        pos, end, drawn, size, walk, last = 0, sweeps * n, 0, _FIRST_RUN, False, -_WALK_GAP
        if end < _FIRST_RUN:
            # a chain shorter than a first run (gibbs_sweep on a small graph) is
            # walked whole: its uniforms are the loop's first and only draw
            draws = rng.random(2 * end)
            x, coins, base, drawn, walk = draws[0::2], draws[1::2], 0, end, True
        per_draw = max(_DRAW_VISITS // n, 1) * n
        while pos < end:
            if pos == drawn:
                block = min(per_draw, end - pos)
                draws = rng.random(2 * block)
                x, coins, base, drawn, lows = draws[0::2], draws[1::2], pos, pos + block, None
            t, j0 = divmod(pos, n)
            first = pos - base
            if walk or self.any_full or end - pos < _FIRST_RUN:
                # the rest of sweep t, node by node
                js, span, kc = range(j0, n), slice(first, first + n - j0), z[j0:]
                if self.any_full:
                    # the proposal support is empty: resample uniformly, which
                    # cannot change the likelihood
                    free = self.support[kc] <= 1e-15
                    u[j0:][free] = x[span][free]
                    kept = np.flatnonzero(~free)
                    js, span, kc = (kept + j0).tolist(), kept + first, kc[kept]
                ks, u_star = self._proposals(kc, x[span])
                visits = zip(count(), js, kc.tolist(), ks.tolist())
                if settled:
                    settled(t)
                moved = self._walk(visits, coins[span].tolist(), u_star.tolist(), state, False)
                # keep walking while moves come every few visits
                pos, size, walk = (t + 1) * n, _FIRST_RUN, len(moved) * _WALK_GAP > n - j0
                if moved:
                    table, last = None, pos
                continue
            if table is None:
                table = np.fromiter(chain.from_iterable(cnt), np.float64, n * K).reshape(n, K)
                occ_vec = self._occ_vector(occ, occ_terms)
            if lows is None:
                # a visit whose log ratio lies at or below log(coin) - _MARGIN is rejected
                with np.errstate(divide="ignore"):
                    lows = np.log(coins) - _MARGIN
                if nodes is None or nodes.size < block:
                    nodes = np.tile(np.arange(n), block // n)
            span = slice(first, first + min(size, drawn - pos))
            js = nodes[span]
            kc = z[js]
            ks, u_star = self._proposals(kc, x[span])
            keys = kc * K + ks
            flagged = np.flatnonzero(self._screen(table, occ_vec, js, keys) > lows[span]).tolist()
            visits = ((i, int(js[i]), int(kc[i]), int(ks[i])) for i in flagged)
            if not flagged or not (moved := self._walk(visits, coins[span], u_star, state, True)):
                pos += js.size
                size *= 2
                continue
            i, j, kc_j, k = moved[0]
            table = None
            if settled:
                # told in the state before the move
                z[j] = kc_j
                settled((pos + i) // n)
                z[j] = k
            pos += i + 1
            size, walk, last = max(_FIRST_RUN, 2 * i), pos - last <= _WALK_GAP, pos
        if settled:
            settled(sweeps)

    def chain(self, u, z, occ, cnt, rng, sweeps: int, n_burn: int, thinning: int) -> np.ndarray:
        """Advance a ``start`` state by ``sweeps`` sweeps; n x K visit counts of the kept states.

        Every thinning-th post-burn-in state is kept; when there is none,
        the chain's last state is counted instead.  Kept states are counted
        a whole unchanged stretch at a time; the counts are whole numbers,
        so this is exact.
        """
        counts = np.zeros((self.n, self.K))
        ar = np.arange(self.n)
        counted = 0  # sweeps whose kept states are in counts

        def settled(t: int):
            nonlocal counted
            # kept are the states after sweeps n_burn + thinning - 1, n_burn + 2 thinning - 1, ...
            if m := max(t - n_burn, 0) // thinning - max(counted - n_burn, 0) // thinning:
                counts[ar, z] += m
            counted = t

        self.advance(u, z, occ, cnt, rng, sweeps, settled)
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
    log_r = sampler.fold(row, d_pq) + sampler._occ_term(occ, kc, d_lq, d_stay)
    return 1.0 if log_r >= 0 else float(math.exp(log_r))


def gibbs_sweep(net: Network, u, g: GraphonStep, rng: np.random.Generator) -> LatentPositions:
    """One full sweep; rejected proposals retain the previous position."""
    check_kind(net, "bernoulli")
    out = LatentPositions(_positions(u, net.n_nodes))  # validated once: the sweep keeps positions in [0, 1)
    sampler = _Sampler(net)
    sampler.advance(out.u, *sampler.start(g, out.u), rng, 1)
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
