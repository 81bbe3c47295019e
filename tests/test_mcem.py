"""Graphon MCEM: chain operations, closed-form updates, uncertainty."""

import math
import operator
import pickle
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from blockmix.evaluate import rand_index
from blockmix.generate import GenConfig, sample_sbm
from blockmix import mcem
from blockmix.graph import Network
from blockmix.results import FitResult, to_json
from blockmix.mcem import (
    LatentPositions,
    McemConfig,
    PosteriorSummary,
    acceptance_prob,
    gibbs_sweep,
    gini_uncertainty,
    m_step,
    mcem_fit,
    posterior_mode,
)
from blockmix.models import BlockParams, GraphonStep, _cell_sums
from netfixtures import random_network, same_network

_CLAMP = 1e-6


def slow_acceptance(net, u, j, u_star, g):
    """Acceptance probability by direct expansion of the likelihood ratio."""
    pos = np.asarray(u, dtype=np.float64)
    z = [g.interval_of(float(x)) for x in pos]
    kc, ks = z[j], g.interval_of(float(u_star))
    p = np.clip(g.P, _CLAMP, 1 - _CLAMP)
    log_r = 0.0
    for m in range(net.n_nodes):
        if m == j:
            continue
        for y in ([net.value(j, m), net.value(m, j)] if net.directed else [net.value(j, m)]):
            log_r += y * math.log(p[ks, z[m]] / p[kc, z[m]])
            log_r += (1 - y) * math.log((1 - p[ks, z[m]]) / (1 - p[kc, z[m]]))
    lens = np.diff(g.tau)
    log_r += math.log(1 - lens[kc]) - math.log(1 - lens[ks])
    return min(1.0, math.exp(log_r))


class TestGiniUncertainty:
    def test_hand_values(self):
        assert gini_uncertainty(np.array([1.0, 0.0])) == 1.0
        assert gini_uncertainty(np.array([0.5, 0.5])) == 0.0
        assert gini_uncertainty(np.array([0.75, 0.25])) == pytest.approx(0.5)
        assert gini_uncertainty(np.array([0.5, 0.3, 0.2])) == pytest.approx(0.3)

    def test_single_block_is_certain(self):
        assert gini_uncertainty(np.array([1.0])) == 1.0

    def test_uniform_is_zero_for_any_k(self):
        for k in range(2, 8):
            assert gini_uncertainty(np.full(k, 1.0 / k)) == pytest.approx(0.0, abs=1e-12)

    def test_degenerate_is_one_for_any_k(self):
        for k in range(2, 8):
            row = np.zeros(k)
            row[k // 2] = 1.0
            assert gini_uncertainty(row) == pytest.approx(1.0)

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 10**6), k=st.integers(2, 8))
    def test_range_and_permutation_invariance(self, seed, k):
        rng = np.random.default_rng(seed)
        row = rng.dirichlet(np.ones(k))
        g = gini_uncertainty(row)
        assert 0.0 <= g <= 1.0 + 1e-12
        assert gini_uncertainty(rng.permutation(row)) == pytest.approx(g)

    def test_validation(self):
        with pytest.raises(ValueError, match="negative"):
            gini_uncertainty(np.array([-0.1, 1.1]))
        with pytest.raises(ValueError, match="sum to 1"):
            gini_uncertainty(np.array([0.5, 0.2]))
        with pytest.raises(ValueError, match="non-empty"):
            gini_uncertainty(np.array([]))


class TestAcceptanceProb:
    def test_hand_instance(self):
        net = Network.from_edges(3, [(0, 1)])
        g = GraphonStep([0.0, 0.5, 1.0], [[0.8, 0.2], [0.2, 0.6]])
        u = [0.1, 0.2, 0.7]
        got = acceptance_prob(net, u, 0, 0.75, g)
        # edge to node 1 (interval 0): p[1,0]/p[0,0]; non-edge to node 2
        # (interval 1): (1-p[1,1])/(1-p[0,1]); the complement-length
        # correction cancels because both intervals have length 1/2
        expect = (0.2 / 0.8) * ((1 - 0.6) / (1 - 0.2))
        assert got == pytest.approx(expect)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10**6), K=st.integers(2, 4), directed=st.booleans())
    def test_matches_direct_expansion(self, seed, K, directed):
        rng = np.random.default_rng(seed)
        net = random_network(rng, n=int(rng.integers(3, 10)), directed=directed, binary=True)
        cuts = np.sort(rng.uniform(0.05, 0.95, size=K - 1))
        P = rng.uniform(0.1, 0.9, size=(K, K))
        g = GraphonStep(np.concatenate(([0.0], cuts, [1.0])), (P + P.T) / 2)
        u = rng.random(net.n_nodes)
        j = int(rng.integers(net.n_nodes))
        kc = g.interval_of(float(u[j]))
        u_star = float(rng.random())
        while g.interval_of(u_star) == kc:
            u_star = float(rng.random())
        got = acceptance_prob(net, u, j, u_star, g)
        assert got == pytest.approx(slow_acceptance(net, u, j, u_star, g), rel=1e-9)

    def test_builds_no_count_table(self, monkeypatch):
        # only the chain reads the neighbour-block count table
        net = Network.from_edges(3, [(0, 1)])
        g = GraphonStep([0.0, 0.5, 1.0], [[0.8, 0.2], [0.2, 0.6]])
        expect = acceptance_prob(net, [0.1, 0.2, 0.7], 0, 0.75, g)

        def refuse(*args):
            raise AssertionError("acceptance_prob built the count table")

        monkeypatch.setattr(mcem, "_cell_sums", refuse)
        assert acceptance_prob(net, [0.1, 0.2, 0.7], 0, 0.75, g) == expect

    def test_same_interval_rejected(self):
        net = Network.from_edges(2, [(0, 1)])
        g = GraphonStep([0.0, 0.5, 1.0], np.full((2, 2), 0.5))
        with pytest.raises(ValueError, match="current interval"):
            acceptance_prob(net, [0.1, 0.7], 0, 0.3, g)


class TestGibbsSweep:
    def test_deterministic_and_in_range(self):
        rng = np.random.default_rng(3)
        net = random_network(rng, n=12, binary=True)
        g = GraphonStep([0.0, 0.4, 1.0], [[0.7, 0.1], [0.1, 0.5]])
        u0 = LatentPositions(rng.random(12))
        a = gibbs_sweep(net, u0, g, np.random.default_rng(9))
        b = gibbs_sweep(net, u0, g, np.random.default_rng(9))
        assert np.array_equal(a.u, b.u)
        assert a.u.min() >= 0 and a.u.max() < 1

    def test_input_not_mutated(self):
        net = Network.from_edges(3, [(0, 1)])
        g = GraphonStep([0.0, 0.5, 1.0], np.full((2, 2), 0.5))
        u0 = LatentPositions(np.array([0.1, 0.2, 0.7]))
        gibbs_sweep(net, u0, g, np.random.default_rng(0))
        assert np.array_equal(u0.u, [0.1, 0.2, 0.7])

    def test_neighbour_lists_built_once_per_network_and_not_pickled(self):
        rng = np.random.default_rng(4)
        net = random_network(rng, n=8, directed=True, binary=True)
        g = GraphonStep([0.0, 0.4, 1.0], [[0.7, 0.1], [0.1, 0.5]])
        u0 = rng.random(8)
        first = gibbs_sweep(net, u0, g, np.random.default_rng(2))
        assert mcem._Sampler(net).nbr_lists is mcem._Sampler(net).nbr_lists
        clone = pickle.loads(pickle.dumps(net))
        assert clone._derived == {} and net._derived
        assert same_network(clone, net)
        assert np.array_equal(gibbs_sweep(clone, u0, g, np.random.default_rng(2)).u, first.u)

    def test_graphon_tables_kept_on_the_graphon_and_not_pickled(self):
        rng = np.random.default_rng(5)
        net = random_network(rng, n=8, directed=False, binary=True)
        g = GraphonStep([0.0, 0.4, 1.0], [[0.7, 0.1], [0.1, 0.5]])
        u0 = rng.random(8)
        first = gibbs_sweep(net, u0, g, np.random.default_rng(2))
        a, b = mcem._Sampler(net), mcem._Sampler(net)
        a.set_graphon(g)
        b.set_graphon(g)
        assert a.moves is b.moves and a.log_p is b.log_p
        assert any(row != [None, None] for row in a.moves)
        clone = pickle.loads(pickle.dumps(g))
        assert clone._derived == {} and g._derived
        assert repr(clone) == repr(g) and "_derived" not in repr(g)
        assert to_json(_graphon_result(clone)) == to_json(_graphon_result(g))
        assert np.array_equal(gibbs_sweep(net, u0, clone, np.random.default_rng(2)).u, first.u)
        # the tables read the graphon alone: another network size and
        # orientation shares them, with the results of fresh tables
        for directed in (False, True):
            other, u1 = random_network(rng, n=9, directed=directed, binary=True), rng.random(9)
            c = mcem._Sampler(other)
            c.set_graphon(g)
            assert c.moves is a.moves
            fresh = GraphonStep(g.tau, g.P)
            assert np.array_equal(gibbs_sweep(other, u1, g, np.random.default_rng(3)).u,
                                  gibbs_sweep(other, u1, fresh, np.random.default_rng(3)).u)

    @pytest.mark.parametrize("bad", [1.5, -0.2, np.nan])
    def test_positions_outside_the_unit_interval_are_rejected(self, bad):
        net = Network.from_edges(3, [(0, 1)])
        g = GraphonStep([0.0, 0.5, 1.0], np.full((2, 2), 0.5))
        with pytest.raises(ValueError, match=r"latent positions must lie in \[0, 1\)"):
            gibbs_sweep(net, np.array([0.1, bad, 0.7]), g, np.random.default_rng(0))

    def test_boundaries_within_tolerance(self):
        # the last boundary 1e-13 short of 1 is stored as 1, so a position
        # just below 1 lies in the last interval
        rng = np.random.default_rng(6)
        net = random_network(rng, n=8, directed=False, binary=True)
        P = [[0.7, 0.1], [0.1, 0.5]]
        g = GraphonStep([0.0, 0.5, 1.0 - 1e-13], P)
        u0 = np.concatenate((rng.random(7) * 0.9, [1.0 - 1e-14]))
        out = gibbs_sweep(net, u0, g, np.random.default_rng(1))
        expect = gibbs_sweep(net, u0, GraphonStep([0.0, 0.5, 1.0], P), np.random.default_rng(1))
        assert np.array_equal(out.u, expect.u)
        assert acceptance_prob(net, u0, 7, 0.2, g) == acceptance_prob(net, u0, 7, 0.2, GraphonStep([0.0, 0.5, 1.0], P))

    def test_single_interval_resamples_uniformly(self):
        # the proposal support is empty, so positions are redrawn and
        # every redraw is accepted: the likelihood cannot change
        net = Network.from_edges(4, [(0, 1), (2, 3)])
        g = GraphonStep([0.0, 1.0], [[0.5]])
        u0 = np.array([0.1, 0.2, 0.3, 0.4])
        out = gibbs_sweep(net, u0, g, np.random.default_rng(1))
        assert not np.array_equal(out.u, u0)
        assert out.u.min() >= 0 and out.u.max() < 1


def _graphon_result(g):
    return FitResult("mcem", "bernoulli", g.K, np.ones(3, dtype=np.int64), ("a", "b", "c"), g, 0.0, [0.0],
                     0, {})


class _SeedSampler:
    """The original per-node sweep, kept as the oracle for the fast one.

    Every node is scored with its own bincount and two dot products and
    draws its two uniforms one at a time.
    """

    def __init__(self, net):
        self.n = net.n_nodes
        self.pair_factor = 2.0 if net.directed else 1.0
        mult = [dict() for _ in range(self.n)]
        for i, j, v in zip(net.row_index().tolist(), net.indices.tolist(), net.data.tolist()):
            if net.directed:
                mult[i][j] = mult[i].get(j, 0.0) + v
                mult[j][i] = mult[j].get(i, 0.0) + v
            else:
                mult[i][j] = float(v)
        self.nbrs = [np.array(sorted(d), dtype=np.int64) for d in mult]
        self.wts = [np.array([d[x] for x in sorted(d)]) for d in mult]

    def set_graphon(self, g):
        self.tau = g.tau
        self.lens = np.diff(g.tau)
        self.K = g.K
        pc = np.clip(g.P, _CLAMP, 1.0 - _CLAMP)
        self.log_p = np.log(pc)
        self.log_q = np.log1p(-pc)
        with np.errstate(divide="ignore"):
            self.log_stay = np.log1p(-self.lens)

    def node_log_ratio(self, j, z, occ, ks, kc):
        e = np.bincount(z[self.nbrs[j]], weights=self.wts[j], minlength=self.K)
        m = occ * self.pair_factor
        m[kc] -= self.pair_factor
        d_lp = self.log_p[ks] - self.log_p[kc]
        d_lq = self.log_q[ks] - self.log_q[kc]
        return float(e @ d_lp + (m - e) @ d_lq)

    def sweep(self, u, z, occ, rng):
        for j in range(self.n):
            kc = z[j]
            support = 1.0 - self.lens[kc]
            x = rng.random()
            coin = rng.random()
            if support <= 1e-15:
                u[j] = x
                continue
            x *= support
            u_star = x if x < self.tau[kc] else x + self.lens[kc]
            ks = int(np.searchsorted(self.tau, u_star, side="right") - 1)
            log_r = self.node_log_ratio(j, z, occ.astype(np.float64), ks, kc)
            log_r += self.log_stay[kc] - self.log_stay[ks]
            if log_r >= 0 or coin < math.exp(log_r):
                occ[kc] -= 1
                occ[ks] += 1
                z[j] = ks
                u[j] = u_star


def _sweep_log_ratio(sampler, j, z, occ, cnt, ks):
    """The log ratio of moving node j to interval ks, in ``_Sampler.sweep``'s own expression."""
    kc = int(z[j])
    d_pq, d_lq, d_stay = sampler._move_terms(kc, ks)
    occ_term = sampler.pair_factor * (sum(map(operator.mul, occ.tolist(), d_lq)) - d_lq[kc]) + d_stay
    return sum(map(operator.mul, cnt[j], d_pq)) + occ_term


class _Scripted:
    """Stand-in generator that replays fixed uniforms, one or many at a time."""

    def __init__(self, values):
        self.values = list(values)

    def random(self, size=None):
        if size is None:
            return self.values.pop(0)
        out, self.values = np.array(self.values[:size]), self.values[size:]
        return out

def _seed_chain(sampler, u, z, occ, rng, sweeps, n_burn, thinning):
    """Visit counts of the kept states of ``sweeps`` seed sweeps.

    Kept are the states after sweeps n_burn + thinning, n_burn + 2 thinning,
    ... (1-based), or the last state when there is none.
    """
    states = []
    for _ in range(sweeps):
        sampler.sweep(u, z, occ, rng)
        states.append(z.copy())
    counts = np.zeros((z.size, sampler.K))
    for zk in states[n_burn + thinning - 1::thinning] or states[-1:]:
        counts[np.arange(z.size), zk] += 1
    return counts


class TestSweepMatchesSeedSweep:
    """The count-table chain reproduces the per-node sweep bit for bit.

    The sweep decides from its own scalar sums, which may differ from the
    seed's dot products in the last bits; a decision can then differ only
    when a coin lies within about one ulp of exp(log_r), which no seeded
    chain here meets.  ``_Sampler.start`` builds the neighbour-block count table once and
    every sweep of ``_Sampler.chain`` keeps it; at the end of the chain it
    must equal a table rebuilt from the final state.
    """

    @pytest.fixture
    def exact_calls(self, monkeypatch):
        calls = []
        original = mcem._Sampler.node_log_ratio

        def counted(self, *args):
            calls.append(args[0])
            return original(self, *args)

        monkeypatch.setattr(mcem._Sampler, "node_log_ratio", counted)
        return calls

    def _chains(self, net, g, seed, sweeps=300, n_burn=0, thinning=1):
        u0 = np.random.default_rng(seed).random(net.n_nodes)
        ref = _SeedSampler(net)
        ref.set_graphon(g)
        u_a = u0.copy()
        z_a = g.interval_of(u_a)
        occ_a = np.bincount(z_a, minlength=g.K)
        counts_a = _seed_chain(ref, u_a, z_a, occ_a, np.random.default_rng(seed + 1), sweeps, n_burn, thinning)

        fast = mcem._Sampler(net)
        u_b = u0.copy()
        z_b, occ_b, cnt = fast.start(g, u_b)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            counts_b = fast.chain(u_b, z_b, occ_b, cnt, np.random.default_rng(seed + 1), sweeps, n_burn,
                                  thinning)
        assert u_a.tobytes() == u_b.tobytes()
        assert z_a.tobytes() == z_b.tobytes()
        assert occ_a.tobytes() == occ_b.tobytes()
        assert counts_a.tobytes() == counts_b.tobytes()
        rebuilt = _cell_sums(fast.src, z_b[fast.dst], fast.w, (net.n_nodes, g.K))
        assert np.array(cnt).tobytes() == rebuilt.tobytes()
        return u_b

    @staticmethod
    def _graphon(rng, tau):
        K = len(tau) - 1
        P = rng.uniform(0.05, 0.95, size=(K, K))
        return GraphonStep(tau, (P + P.T) / 2)

    @pytest.mark.parametrize("n_burn, thinning", [(0, 1), (60, 7)])
    @pytest.mark.parametrize("directed", [False, True])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_random_graphs(self, seed, directed, n_burn, thinning, exact_calls):
        rng = np.random.default_rng(seed)
        net = random_network(rng, n=25, directed=directed, binary=True, p=0.3)
        cuts = np.sort(rng.uniform(0.1, 0.9, size=2))
        self._chains(net, self._graphon(rng, [0.0, *cuts, 1.0]), seed, n_burn=n_burn, thinning=thinning)
        # the sweep decides from its own sums
        assert exact_calls == []

    @pytest.mark.parametrize("directed", [False, True])
    def test_busy_chain(self, directed):
        # two intervals share one planted block, so moves between them are
        # accepted every few visits and rewrite many count rows
        rng = np.random.default_rng(6 + directed)
        n = 40
        block = np.arange(n) % 2
        y = rng.random((n, n)) < np.where(block[:, None] == block[None, :], 0.5, 0.05)
        if not directed:
            y = np.triu(y, 1)
        edges = [(int(i), int(j)) for i, j in zip(*np.nonzero(y)) if i != j]
        net = Network.from_edges(n, edges, directed=directed)
        P = [[0.52, 0.47, 0.05], [0.47, 0.5, 0.06], [0.05, 0.06, 0.45]]
        g = GraphonStep([0.0, 0.25, 0.5, 1.0], P)
        moved = []
        sweep = _SeedSampler.sweep

        def counted(self, u, z, occ, rng):
            before = z.copy()
            sweep(self, u, z, occ, rng)
            moved.append(int((before != z).sum()))

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_SeedSampler, "sweep", counted)
            self._chains(net, g, 6, sweeps=200, n_burn=20, thinning=3)
        assert sum(moved) >= 3 * len(moved)

    @pytest.mark.parametrize("directed", [False, True])
    def test_single_interval(self, directed, exact_calls):
        # K = 1: the proposal support is empty, every node is redrawn
        net = random_network(np.random.default_rng(2), n=10, directed=directed, binary=True)
        u = self._chains(net, GraphonStep([0.0, 1.0], [[0.4]]), 2, n_burn=10, thinning=4)
        assert u.min() >= 0 and u.max() < 1
        assert exact_calls == []

    @pytest.mark.parametrize("directed", [False, True])
    @pytest.mark.parametrize("tau", [[0.0, 0.4, 0.4, 1.0], [0.0, 0.0, 1.0, 1.0]])
    def test_zero_width_intervals(self, tau, directed):
        rng = np.random.default_rng(3)
        net = random_network(rng, n=20, directed=directed, binary=True, p=0.4)
        self._chains(net, self._graphon(rng, tau), 3, n_burn=50, thinning=5)

    @pytest.mark.parametrize("directed", [False, True])
    def test_clamped_cells(self, directed):
        rng = np.random.default_rng(4)
        net = random_network(rng, n=20, directed=directed, binary=True, p=0.4)
        P = [[1.0, 0.0, 0.3], [0.0, 1.0, 0.0], [0.3, 0.0, 0.0]]
        self._chains(net, GraphonStep([0.0, 0.3, 0.7, 1.0], P), 4)

    @pytest.mark.parametrize("directed", [False, True])
    def test_identical_blocks_decide_from_zero_sum(self, directed, exact_calls):
        # blocks 0 and 1 share their rows of P and their length, so a
        # move between them has a log ratio of exactly 0.0 in the sweep's
        # sum and in the seed's dot products alike: both accept it
        rng = np.random.default_rng(5)
        net = random_network(rng, n=20, directed=directed, binary=True, p=0.4)
        P = [[0.6, 0.6, 0.1], [0.6, 0.6, 0.1], [0.1, 0.1, 0.5]]
        self._chains(net, GraphonStep([0.0, 0.3, 0.6, 1.0], P), 5)
        assert exact_calls == []

    def test_coins_on_the_threshold(self):
        # the first node's coin is placed exactly on, or one ulp below,
        # exp of the sweep's own log ratio: the move is rejected on it and
        # accepted below it.  The seed sweep gets a coin that forces the
        # same decision, and the rest of the sweep must match it.
        decided = 0
        for trial in range(60):
            rng = np.random.default_rng(100 + trial)
            net = random_network(rng, n=12, directed=bool(trial % 2), binary=True, p=0.5)
            g = self._graphon(rng, [0.0, *np.sort(rng.uniform(0.1, 0.9, size=2)), 1.0])
            u0 = rng.random(net.n_nodes)
            draws = rng.random(2 * net.n_nodes)
            fast = mcem._Sampler(net)
            z, occ, cnt = fast.start(g, u0)
            kc = z[0]
            x = draws[0] * (1.0 - fast.lens[kc])
            ks = g.interval_of(float(x if x < fast.tau[kc] else x + fast.lens[kc]))
            log_r = _sweep_log_ratio(fast, 0, z, occ, cnt, ks)
            if log_r >= 0:
                continue
            accept = trial % 4 >= 2
            draws[1] = np.nextafter(math.exp(log_r), 0.0) if accept else math.exp(log_r)
            u = u0.copy()
            fast.sweep(u, z, occ, cnt, _Scripted(draws))
            assert (u[0] != u0[0]) == accept, trial
            draws[1] = 0.0 if accept else 1.0
            seed = _SeedSampler(net)
            seed.set_graphon(g)
            expect = u0.copy()
            seed.sweep(expect, g.interval_of(u0), np.bincount(g.interval_of(u0), minlength=3), _Scripted(draws))
            assert u.tobytes() == expect.tobytes(), trial
            decided += 1
        assert decided >= 20

    @pytest.mark.parametrize("directed", [False, True])
    def test_sweep_log_ratio_matches_node_log_ratio(self, directed):
        # the sweep's count-table sum and acceptance_prob's dot products
        # are two independent codings of one log ratio
        worst = 0.0
        for trial in range(100):
            rng = np.random.default_rng(1000 + trial)
            K = 2 + trial % 4
            net = random_network(rng, n=int(rng.integers(K, 30)), directed=directed, binary=True,
                                 p=float(rng.uniform(0.05, 0.6)))
            cuts = np.sort(rng.uniform(0.0, 1.0, size=K - 1))
            g = self._graphon(rng, [0.0, *cuts, 1.0])
            sampler = mcem._Sampler(net)
            z, occ, cnt = sampler.start(g, rng.random(net.n_nodes))
            for j in range(net.n_nodes):
                for ks in range(K):
                    if ks == z[j]:
                        continue
                    ref = sampler.node_log_ratio(j, z, occ, ks, int(z[j]))
                    got = _sweep_log_ratio(sampler, j, z, occ, cnt, ks)
                    worst = max(worst, abs(got - ref) / (1.0 + abs(ref)))
        assert worst <= 1e-12


class TestPosteriorMode:
    def test_thinning_convention(self):
        g = GraphonStep([0.0, 0.5, 1.0], np.full((2, 2), 0.5))
        # with thinning 2, samples 2 and 4 (1-based) are kept
        samples = [
            np.array([0.1]),
            np.array([0.9]),
            np.array([0.1]),
            np.array([0.9]),
            np.array([0.1]),
        ]
        mode = posterior_mode(samples, g, thinning=2)
        assert mode.u[0] == pytest.approx(0.75)

    def test_tie_resolves_to_lowest_interval(self):
        g = GraphonStep([0.0, 0.5, 1.0], np.full((2, 2), 0.5))
        samples = [np.array([0.9]), np.array([0.1])]
        mode = posterior_mode(samples, g, thinning=1)
        assert mode.u[0] == pytest.approx(0.25)

    def test_accepts_latent_positions(self):
        g = GraphonStep([0.0, 0.25, 1.0], np.full((2, 2), 0.5))
        samples = [LatentPositions(np.array([0.1, 0.8]))]
        mode = posterior_mode(samples, g, thinning=1)
        assert np.allclose(mode.u, [0.125, 0.625])

    def test_errors(self):
        g = GraphonStep([0.0, 1.0], [[0.5]])
        with pytest.raises(ValueError, match="thinning"):
            posterior_mode([np.array([0.5])], g, thinning=0)
        with pytest.raises(ValueError, match="at least one"):
            posterior_mode([np.array([0.5])], g, thinning=5)


class TestMStep:
    def test_hand_instance(self):
        net = Network.from_edges(4, [(0, 1), (2, 3), (0, 2)])
        g = GraphonStep([0.0, 0.5, 1.0], np.full((2, 2), 0.5))
        u_hat = np.array([0.1, 0.2, 0.6, 0.9])
        out = m_step(net, u_hat, g, delta=1.0, K=2)
        assert out.P[0, 0] == pytest.approx(1.0)
        assert out.P[1, 1] == pytest.approx(1.0)
        assert out.P[0, 1] == pytest.approx(0.25)
        assert np.allclose(out.tau, [0.0, 0.5, 1.0])

    def test_delta_blends_interval_lengths(self):
        net = Network.from_edges(4, [(0, 1)])
        g = GraphonStep([0.0, 0.5, 1.0], np.full((2, 2), 0.5))
        u_hat = np.array([0.1, 0.2, 0.3, 0.9])  # occupation 3/4, 1/4
        full = m_step(net, u_hat, g, delta=1.0, K=2)
        assert np.allclose(full.tau, [0.0, 0.75, 1.0])
        none = m_step(net, u_hat, g, delta=0.0, K=2)
        assert np.allclose(none.tau, [0.0, 0.5, 1.0])
        mixed = m_step(net, u_hat, g, delta=0.6, K=2)
        assert np.allclose(mixed.tau, [0.0, 0.6 * 0.75 + 0.4 * 0.5, 1.0])

    def test_empty_cells_fall_back_to_density(self):
        net = Network.from_edges(4, [(0, 1), (2, 3)])
        g = GraphonStep([0.0, 0.5, 1.0], np.full((2, 2), 0.5))
        u_hat = np.array([0.1, 0.2, 0.3, 0.4])  # nobody in interval 1
        out = m_step(net, u_hat, g, delta=0.0, K=2)
        assert out.P[1, 1] == pytest.approx(2 / 6)
        assert out.P[0, 1] == pytest.approx(2 / 6)

    def test_boundary_always_closes_at_one(self):
        net = Network.from_edges(3, [(0, 1)])
        g = GraphonStep([0.0, 0.3, 0.8, 1.0], np.full((3, 3), 0.5))
        out = m_step(net, np.array([0.1, 0.5, 0.9]), g, delta=1.0, K=3)
        assert out.tau[-1] == 1.0

    def test_idempotent_once_consistent(self):
        rng = np.random.default_rng(4)
        net = random_network(rng, n=10, binary=True)
        g = GraphonStep([0.0, 0.4, 1.0], np.full((2, 2), 0.5))
        u_hat = rng.random(10)
        z = g.interval_of(u_hat)
        g2 = m_step(net, u_hat, g, delta=1.0, K=2)
        mids = (g2.tau[:-1] + g2.tau[1:]) / 2
        g3 = m_step(net, mids[z], g2, delta=1.0, K=2)
        assert np.allclose(g3.tau, g2.tau)
        assert np.allclose(g3.P, g2.P)

    def test_delta_validated(self):
        net = Network.from_edges(2, [(0, 1)])
        g = GraphonStep([0.0, 1.0], [[0.5]])
        with pytest.raises(ValueError, match="delta"):
            m_step(net, np.array([0.1, 0.2]), g, delta=1.5, K=1)


class TestMcemFit:
    def _small_cfg(self, **kw):
        base = dict(
            K=2, em_max_iter=12, sweeps_base=20, sweeps_increment=10,
            sweeps_cap=60, restarts=3, final_sweeps=300, seed=0,
        )
        base.update(kw)
        return McemConfig(**base)

    def test_planted_two_blocks_recovered(self):
        params = BlockParams("bernoulli", 2, [0.5, 0.5], [[0.5, 0.05], [0.05, 0.5]])
        net, truth = sample_sbm(GenConfig(40, params, seed=19))
        fit = mcem_fit(net, self._small_cfg())
        assert rand_index(fit.partition, truth).rand_index == 1.0
        assert isinstance(fit.params, GraphonStep)

    def test_posterior_summary_shape(self):
        params = BlockParams("bernoulli", 2, [0.5, 0.5], [[0.5, 0.05], [0.05, 0.5]])
        net, _ = sample_sbm(GenConfig(30, params, seed=20))
        fit = mcem_fit(net, self._small_cfg())
        assert fit.posterior.freq.shape == (30, 2)
        assert np.allclose(fit.posterior.freq.sum(axis=1), 1.0)
        assert fit.posterior.gini.shape == (30,)
        # clean planted structure concentrates almost every node
        assert fit.posterior.gini.mean() > 0.8
        assert "u_trace" in fit.extras

    def test_deterministic(self):
        rng = np.random.default_rng(25)
        net = random_network(rng, n=16, binary=True)
        cfg = self._small_cfg(restarts=2, em_max_iter=6, final_sweeps=100)
        a = mcem_fit(net, cfg)
        b = mcem_fit(net, cfg)
        assert np.array_equal(a.labels, b.labels)
        assert a.objective == b.objective
        assert np.array_equal(a.posterior.freq, b.posterior.freq)

    def test_k1_everything_certain(self):
        net = Network.from_edges(5, [(0, 1), (2, 3)])
        fit = mcem_fit(net, self._small_cfg(K=1, restarts=1, final_sweeps=50))
        assert fit.labels.tolist() == [1] * 5
        assert np.allclose(fit.posterior.gini, 1.0)

    def test_input_validation(self):
        count_net = Network.from_edges(3, {(0, 1): 2}, value_kind="count")
        with pytest.raises(ValueError, match="binary"):
            mcem_fit(count_net, McemConfig(K=2))
        net = Network.from_edges(3, [(0, 1)])
        with pytest.raises(ValueError, match="exceed"):
            mcem_fit(net, McemConfig(K=5))

    def test_config_validation(self):
        with pytest.raises(ValueError, match="K"):
            McemConfig(K=0)
        with pytest.raises(ValueError, match="positive"):
            McemConfig(K=2, thinning=0)
        with pytest.raises(ValueError, match="burn_in"):
            McemConfig(K=2, burn_in=1.0)
        assert McemConfig(K=2, em_max_iter=10).ramp == 5
        assert McemConfig(K=2, em_max_iter=9).ramp == 5


class TestLatentPositions:
    def test_range_checked(self):
        with pytest.raises(ValueError, match=r"\[0, 1\)"):
            LatentPositions(np.array([0.5, 1.0]))
        with pytest.raises(ValueError, match="vector"):
            LatentPositions(np.zeros((2, 2)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        # every comparison with NaN is false, so a min/max range check passed it
        with pytest.raises(ValueError, match=r"\[0, 1\)"):
            LatentPositions(np.array([0.5, bad]))

    def test_posterior_summary_validation(self):
        with pytest.raises(ValueError, match="sum to 1"):
            PosteriorSummary(np.array([[0.5, 0.2]]), np.array([0.5]))
        with pytest.raises(ValueError, match="one gini entry"):
            PosteriorSummary(np.array([[0.5, 0.5]]), np.array([0.5, 0.5]))
