"""Variational EM: bound monotonicity, enumeration oracles, recovery."""

import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from blockmix.evaluate import rand_index
from blockmix.generate import GenConfig, sample_sbm
from blockmix.graph import Network
from blockmix.mcem import McemConfig, mcem_fit
from blockmix.models import (
    BlockParams,
    Partition,
    bernoulli_loglik,
    mle_block_params,
)
from blockmix import vem
from blockmix.models import _xlogy, global_rate
from blockmix.switch import SwitchConfig, switch_fit
from blockmix.vem import VariationalState, VemConfig, e_step, elbo, m_step, vem_fit
from netfixtures import random_network


def _random_state(rng, net, K, kind="bernoulli"):
    resp = rng.dirichlet(np.ones(K), size=net.n_nodes)
    pi = rng.dirichlet(np.ones(K))
    if kind == "bernoulli":
        bm = rng.uniform(0.05, 0.95, size=(K, K))
    else:
        bm = np.log(rng.uniform(0.2, 2.0, size=(K, K)))
    if not net.directed:
        bm = (bm + bm.T) / 2
    state = VariationalState(resp, BlockParams(kind, K, pi, bm), 0.0)
    state.elbo = elbo(net, state)
    return state


def exact_log_marginal(net, params):
    """log P(y | params) by summing the complete likelihood over K^n labelings."""
    n, K = net.n_nodes, params.K
    terms = []
    for combo in itertools.product(range(1, K + 1), repeat=n):
        part = Partition(np.array(combo), K)
        ll = bernoulli_loglik(net, part, params)
        ll += sum(math.log(params.pi[c - 1]) for c in combo)
        terms.append(ll)
    m = max(terms)
    return m + math.log(sum(math.exp(t - m) for t in terms))


def best_profile_loglik(net, K):
    """Max over all hard labelings of the profile likelihood."""
    best = -math.inf
    for combo in itertools.product(range(1, K + 1), repeat=net.n_nodes):
        part = Partition(np.array(combo), K)
        params = mle_block_params(net, part, "bernoulli", allow_empty=True)
        best = max(best, bernoulli_loglik(net, part, params))
    return best


class TestSingleSteps:
    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 10**6),
        K=st.integers(1, 3),
        directed=st.booleans(),
        kind=st.sampled_from(["bernoulli", "poisson"]),
    )
    def test_steps_never_decrease_bound(self, seed, K, directed, kind):
        rng = np.random.default_rng(seed)
        net = random_network(rng, directed=directed, binary=(kind == "bernoulli"))
        state = _random_state(rng, net, K, kind)
        after_e = e_step(net, state)
        assert after_e.elbo >= state.elbo - 1e-9
        after_m = m_step(net, after_e)
        assert after_m.elbo >= after_e.elbo - 1e-9

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10**6), K=st.integers(1, 3))
    def test_e_step_rows_stay_normalized(self, seed, K):
        rng = np.random.default_rng(seed)
        net = random_network(rng, binary=True)
        after = e_step(net, _random_state(rng, net, K))
        assert np.allclose(after.resp.sum(axis=1), 1.0)
        assert after.resp.min() >= 0

    def test_k1_e_step_is_identity(self):
        net = Network.from_edges(4, [(0, 1), (2, 3)])
        state = VariationalState(
            np.ones((4, 1)), BlockParams("bernoulli", 1, [1.0], [[0.4]]), 0.0
        )
        state.elbo = elbo(net, state)
        after = e_step(net, state)
        assert np.array_equal(after.resp, state.resp)

    def test_two_node_symmetry_is_preserved(self):
        # uniform rows with an exchangeable block matrix score both
        # blocks identically, so the sweep cannot break the tie
        net = Network.from_edges(2, [(0, 1)])
        params = BlockParams("bernoulli", 2, [0.5, 0.5], [[0.7, 0.2], [0.2, 0.7]])
        state = VariationalState(np.full((2, 2), 0.5), params, 0.0)
        state.elbo = elbo(net, state)
        after = e_step(net, state)
        assert np.allclose(after.resp[0], after.resp[1])
        assert np.allclose(after.resp[0], [0.5, 0.5])

    def test_m_step_with_hard_resp_matches_mle(self):
        rng = np.random.default_rng(2)
        net = random_network(rng, n=12, binary=True)
        labels = np.array([1, 2, 3, 1, 2, 3, 1, 2, 3, 1, 2, 3])
        part = Partition(labels, 3)
        resp = np.zeros((12, 3))
        resp[np.arange(12), labels - 1] = 1.0
        state = VariationalState(resp, BlockParams("bernoulli", 3, np.full(3, 1 / 3), np.full((3, 3), 0.5)), 0.0)
        after = m_step(net, state)
        ref = mle_block_params(net, part, "bernoulli")
        assert np.allclose(after.params.pi, ref.pi)
        assert np.allclose(after.params.block_matrix, ref.block_matrix)

    def test_m_step_with_uniform_resp_gives_global_rate(self):
        rng = np.random.default_rng(3)
        net = random_network(rng, n=10, binary=True)
        state = VariationalState(
            np.full((10, 2), 0.5), BlockParams("bernoulli", 2, [0.5, 0.5], np.full((2, 2), 0.5)), 0.0
        )
        after = m_step(net, state)
        from blockmix.models import _xlogy, global_rate

        assert np.allclose(after.params.block_matrix, global_rate(net))
        assert np.allclose(after.params.pi, 0.5)


class TestBoundProperty:
    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 10**6), K=st.integers(2, 3))
    def test_elbo_below_exact_marginal(self, seed, K):
        rng = np.random.default_rng(seed)
        net = random_network(rng, n=int(rng.integers(3, 7)), directed=False, binary=True)
        state = _random_state(rng, net, K)
        assert state.elbo <= exact_log_marginal(net, state.params) + 1e-9
        # the bound holds after optimizing q as well
        for _ in range(5):
            state = e_step(net, state)
        assert state.elbo <= exact_log_marginal(net, state.params) + 1e-9


class TestVemFit:
    def test_planted_two_blocks_recovered(self):
        params = BlockParams("bernoulli", 2, [0.5, 0.5], [[0.4, 0.05], [0.05, 0.4]])
        net, truth = sample_sbm(GenConfig(60, params, seed=17))
        fit = vem_fit(net, VemConfig(K=2, seed=0))
        assert rand_index(fit.partition, truth).rand_index == 1.0

    def test_trace_is_monotone(self):
        params = BlockParams("bernoulli", 2, [0.5, 0.5], [[0.4, 0.05], [0.05, 0.4]])
        net, _ = sample_sbm(GenConfig(40, params, seed=5))
        fit = vem_fit(net, VemConfig(K=2, seed=1))
        diffs = np.diff(fit.trace)
        assert (diffs >= -1e-9).all()
        assert fit.objective == fit.trace[-1]

    def test_k1_converges_immediately_to_mle(self):
        rng = np.random.default_rng(6)
        net = random_network(rng, n=10, binary=True)
        fit = vem_fit(net, VemConfig(K=1, restarts=1))
        assert len(fit.trace) == 2
        ref = mle_block_params(net, Partition(np.ones(10, dtype=int), 1), "bernoulli")
        assert np.allclose(fit.params.block_matrix, ref.block_matrix)

    def test_small_instance_attains_enumeration_optimum(self):
        rng = np.random.default_rng(8)
        net = random_network(rng, n=7, binary=True)
        fit = vem_fit(net, VemConfig(K=2, seed=3))
        attained = bernoulli_loglik(
            net, fit.partition, mle_block_params(net, fit.partition, "bernoulli", allow_empty=True)
        )
        assert attained >= best_profile_loglik(net, 2) - 1e-6

    def test_deterministic(self):
        rng = np.random.default_rng(9)
        net = random_network(rng, n=20, binary=True)
        a = vem_fit(net, VemConfig(K=3, seed=4, restarts=3))
        b = vem_fit(net, VemConfig(K=3, seed=4, restarts=3))
        assert np.array_equal(a.labels, b.labels)
        assert a.objective == b.objective
        assert a.trace == b.trace

    def test_poisson_kind(self):
        params = BlockParams("poisson", 2, [0.5, 0.5], np.log([[2.0, 0.1], [0.1, 2.0]]))
        net, truth = sample_sbm(GenConfig(40, params, seed=2))
        fit = vem_fit(net, VemConfig(K=2, seed=0, restarts=5), kind="poisson")
        assert fit.kind == "poisson"
        assert rand_index(fit.partition, truth).rand_index == 1.0

    def test_input_validation(self):
        net = Network.from_edges(3, [(0, 1)])
        with pytest.raises(ValueError, match="kinds"):
            vem_fit(net, VemConfig(K=2), kind="dc_poisson")
        with pytest.raises(ValueError, match="exceed"):
            vem_fit(net, VemConfig(K=4))
        count_net = Network.from_edges(3, {(0, 1): 2}, value_kind="count")
        with pytest.raises(ValueError, match="binary"):
            vem_fit(count_net, VemConfig(K=2))

    def test_config_validation(self):
        with pytest.raises(ValueError, match="K"):
            VemConfig(K=0)
        with pytest.raises(ValueError, match="tol"):
            VemConfig(K=2, tol=0.0)
        with pytest.raises(ValueError, match="at least 1"):
            VemConfig(K=2, restarts=0)


# ---------------------------------------------------------------------------
# Oracle: the dense hard phase that ``vem._hard_phase`` replaced, copied
# verbatim from the code before it (the E step is only called with
# harden=True here).  The count-table hard phase must reproduce its
# responsibilities, parameters and bound bit for bit.


def _seed_mul(coef, table):
    out = np.where(coef != 0, coef * table, 0.0)
    snap = ~np.isfinite(table) & (np.abs(coef) < 1e-9)
    return np.where(snap, 0.0, out)


def _seed_pair_tables(params: BlockParams):
    with np.errstate(divide="ignore"):
        if params.kind == "bernoulli":
            return np.log(params.block_matrix), np.log1p(-params.block_matrix)
        return params.block_matrix, np.exp(params.block_matrix)


@np.errstate(divide="ignore", invalid="ignore")
def _seed_elbo_dense(yd, directed, state):
    resp, params = state.resp, state.params
    colsum = resp.sum(axis=0)
    edge = resp.T @ yd @ resp
    pairs = np.outer(colsum, colsum) - resp.T @ resp
    scale = 1.0 if directed else 0.5
    table_a, table_b = _seed_pair_tables(params)
    if params.kind == "bernoulli":
        pair_term = (_seed_mul(edge, table_a) + _seed_mul(pairs - edge, table_b)).sum()
    else:
        pair_term = (_seed_mul(edge, table_a) - pairs * table_b).sum()
    log_pi = np.log(params.pi)
    mix_term = _seed_mul(colsum, log_pi).sum()
    entropy = -_xlogy(resp, resp).sum()
    return float(pair_term * scale + mix_term + entropy)


def _seed_softmax_row(score):
    m = score.max()
    if m == -np.inf:
        return np.full(score.size, 1.0 / score.size)
    w = np.exp(score - m)
    return w / w.sum()


@np.errstate(divide="ignore", invalid="ignore")
def _seed_e_step_dense(yd, directed, state, harden=False):
    params = state.params
    resp = state.resp.copy()
    colsum = resp.sum(axis=0)
    table_a, table_b = _seed_pair_tables(params)
    log_pi = np.log(params.pi)
    bernoulli = params.kind == "bernoulli"
    for i in range(yd.shape[0]):
        others = colsum - resp[i]
        t_out = yd[i] @ resp
        if bernoulli:
            score = log_pi + _seed_mul(t_out, table_a).sum(axis=1) + _seed_mul(others - t_out, table_b).sum(axis=1)
        else:
            score = log_pi + _seed_mul(t_out, table_a).sum(axis=1) - table_b @ others
        if directed:
            t_in = yd[:, i] @ resp
            if bernoulli:
                score = score + _seed_mul(t_in, table_a.T).sum(axis=1) + _seed_mul(others - t_in, table_b.T).sum(axis=1)
            else:
                score = score + _seed_mul(t_in, table_a.T).sum(axis=1) - table_b.T @ others
        if harden:
            row = np.zeros(score.size)
            row[int(np.argmax(score))] = 1.0
        else:
            row = _seed_softmax_row(score)
        colsum += row - resp[i]
        resp[i] = row
    out = VariationalState(resp, params, 0.0)
    out.elbo = _seed_elbo_dense(yd, directed, out)
    return out


def _seed_m_step_dense(yd, directed, fallback, state):
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
    out.elbo = _seed_elbo_dense(yd, directed, out)
    return out


def _seed_hard_phase(yd, directed, kind, fallback, labels0, K, max_iter, seen=None):
    """The seed loop; ``seen`` (a set) collects the conditions its M steps met."""
    n = labels0.size
    resp = np.zeros((n, K))
    resp[np.arange(n), labels0] = 1.0
    blank = BlockParams(kind, K, np.full(K, 1.0 / K), np.zeros((K, K)))
    state = _seed_m_step_dense(yd, directed, fallback, VariationalState(resp, blank, 0.0))
    for _ in range(max_iter):
        if seen is not None:
            table_a, table_b = _seed_pair_tables(state.params)
            seen.update(name for name, hit in (
                ("empty block", (state.resp.sum(axis=0) == 0).any()),
                ("zero-rate cell", np.isneginf(table_a).any()),
                ("p = 1 cell", np.isneginf(table_b).any()),
            ) if hit)
        hard = _seed_e_step_dense(yd, directed, state, harden=True)
        if np.array_equal(hard.resp, state.resp):
            break
        state = _seed_m_step_dense(yd, directed, fallback, hard)
    return state


def _state_bytes(state):
    return (state.resp.tobytes(), state.params.pi.tobytes(),
            state.params.block_matrix.tobytes(), np.float64(state.elbo).tobytes())


def _count_reference_calls(monkeypatch):
    calls = [0]
    score = vem._node_score

    def counted(*args):
        calls[0] += 1
        return score(*args)

    monkeypatch.setattr(vem, "_node_score", counted)
    return calls


def _hard_phase_strict(net, kind, labels0, K, max_iter=200):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        return vem._hard_phase(net, kind, global_rate(net), labels0, K, max_iter)


class TestHardPhaseOracle:
    """``vem._hard_phase`` against the seed's dense hard phase, bit for bit."""

    @pytest.mark.parametrize("K", [1, 2, 3, 5, 10])
    @pytest.mark.parametrize("directed", [False, True])
    @pytest.mark.parametrize("kind", ["bernoulli", "poisson"])
    def test_hard_phase_byte_equal(self, kind, directed, K):
        rng = np.random.default_rng(100 * K + 10 * directed + len(kind))
        n = 30
        net = random_network(rng, n, directed, kind == "bernoulli", p=0.12, max_count=5, n_isolated=3)
        yd = net.to_dense().astype(np.float64)
        seen = set()
        for _ in range(3):
            # the isolated nodes alone fill the last block, which meets no edge
            labels0 = rng.integers(0, max(K - 1, 1), size=n)
            labels0[-3:] = K - 1
            expect = _seed_hard_phase(yd, directed, kind, global_rate(net), labels0, K, 200, seen)
            got = _hard_phase_strict(net, kind, labels0, K)
            assert _state_bytes(got) == _state_bytes(expect)
        if K >= 2:
            assert "zero-rate cell" in seen
        if K == 10:
            assert "empty block" in seen

    @pytest.mark.parametrize("directed", [False, True])
    def test_p_one_cell_decides_as_seed(self, directed, monkeypatch):
        # nodes 0-2 form a complete block: p = 1 there, whose log1p(-p) is -inf
        rng = np.random.default_rng(7 + directed)
        n, K = 20, 3
        net = random_network(rng, n, directed, True, p=0.12, n_isolated=3)
        y = net.to_dense() if directed else np.triu(net.to_dense())
        edges = {(int(i), int(j)): 1 for i, j in zip(*np.nonzero(y))}
        edges.update({(i, j): 1 for i in range(3) for j in range(3) if i != j and (directed or i < j)})
        net = Network.from_edges(n, edges, directed=directed)
        labels0 = np.concatenate(([0, 0, 0], rng.integers(1, K, size=n - 3)))
        seen = set()
        expect = _seed_hard_phase(net.to_dense().astype(np.float64), directed, "bernoulli",
                                  global_rate(net), labels0, K, 200, seen)
        assert "p = 1 cell" in seen
        calls = _count_reference_calls(monkeypatch)
        got = _hard_phase_strict(net, "bernoulli", labels0, K)
        assert _state_bytes(got) == _state_bytes(expect)
        # the run scorer takes the -inf log1p(-p) cells too: no node is scored on its own
        assert calls[0] == 0

    @pytest.mark.parametrize("directed", [False, True])
    @pytest.mark.parametrize("kind", ["bernoulli", "poisson"])
    def test_ties_decide_as_seed(self, kind, directed):
        """Blocks 1 and 2 are exchangeable, so scores tie up to rounding.

        Hubs (block 0) reach mirror-image nodes of blocks 1 and 2 equally,
        and the block parameters are symmetric under swapping 1 and 2:
        the first hub's two best scores are equal in exact arithmetic and
        may differ by rounding either way.  One sweep per draw, from the
        same symmetric start, against the seed's hard E step.
        """
        for seed in range(30):
            rng = np.random.default_rng(seed)
            m, hubs = 6, 4
            n = hubs + 2 * m
            edges = {}
            for i in range(m):
                for j in range(m):
                    if i != j and (directed or i < j) and rng.random() < 0.4:
                        edges[(hubs + i, hubs + j)] = edges[(hubs + m + i, hubs + m + j)] = 1
            for h in range(hubs):
                for j in rng.choice(m, size=int(rng.integers(1, m)), replace=False):
                    edges[(h, hubs + j)] = edges[(h, hubs + m + j)] = 1
                    if directed:
                        edges[(hubs + j, h)] = edges[(hubs + m + j, h)] = 1
            if kind == "poisson":
                edges = {e: int(rng.integers(1, 4)) for e in edges}
            net = Network.from_edges(n, edges, directed=directed,
                                     value_kind="binary" if kind == "bernoulli" else "count")
            labels0 = np.repeat([0, 1, 2], [hubs, m, m])
            x, y, w = rng.uniform(0.05, 0.9, size=3)
            cells = np.array([[rng.uniform(0.01, 0.2), w, w], [w, x, y], [w, y, x]])
            block_matrix = cells if kind == "bernoulli" else np.log(3.0 * cells)
            r = rng.uniform(0.1, 0.4)
            params = BlockParams(kind, 3, [1.0 - 2.0 * r, r, r], block_matrix)
            resp = np.zeros((n, 3))
            resp[np.arange(n), labels0] = 1.0
            start = VariationalState(resp, params, 0.0)
            expect = _seed_e_step_dense(net.to_dense().astype(np.float64), directed, start, harden=True)
            st = vem._Stats(net, labels0, 3, kind)
            vem._hard_sweep(st, params)
            assert np.argmax(expect.resp, axis=1).tobytes() == st.z.tobytes()

    @pytest.mark.parametrize("directed", [False, True])
    @pytest.mark.parametrize("kind", ["bernoulli", "poisson"])
    def test_run_scores_equal_node_score(self, kind, directed):
        # the hard sweep's batched scores and _node_score are two codings
        # of one expression, equal bit for bit, -inf cells included: zero
        # rates, and for bernoulli p = 1 cells, whose log1p(-p) is -inf
        hits = 0
        for trial in range(50):
            rng = np.random.default_rng(2000 + trial)
            K = 2 + trial % 4
            n = int(rng.integers(K + 3, 30))
            net = random_network(rng, n, directed, kind == "bernoulli", p=float(rng.uniform(0.05, 0.4)),
                                 max_count=5, n_isolated=2)
            bm = rng.uniform(0.05, 0.95, size=(K, K))
            bm[rng.random((K, K)) < 0.3] = 0.0
            if kind == "bernoulli":
                bm[rng.random((K, K)) < 0.15] = 1.0
            if not directed:
                bm = np.triu(bm) + np.triu(bm, 1).T
            with np.errstate(divide="ignore"):
                params = BlockParams(kind, K, rng.dirichlet(np.ones(K)), bm if kind == "bernoulli" else np.log(3 * bm))
            st = vem._Stats(net, rng.integers(0, K, size=n), K, kind)
            sides = vem._sides(params, directed)
            lo = int(rng.integers(0, n))
            hi = lo + int(rng.integers(1, 2 * n))
            with np.errstate(divide="ignore", invalid="ignore"):
                log_pi = np.log(params.pi)
                got = vem._run_scorer(st, sides, log_pi)(lo, hi)
                for row, i in zip(got, range(lo, min(hi, n)), strict=True):
                    others = st.sizes.copy()
                    others[st.z[i]] -= 1.0
                    ref = vem._node_score(st.vcount_out[i], st.vcount_in[i] if directed else None, others,
                                          log_pi, sides, kind == "bernoulli")
                    assert row.tobytes() == ref.tobytes(), (trial, i)
                    hits += int(np.isneginf(ref).sum())
        assert hits > 0


class TestSoftEStepOracle:
    """The CSR soft phase against the seed's dense soft E and M steps.

    The CSR sums add only the stored pairs, in another order than the
    dense row products, so results agree within rounding instead of bit
    for bit.  Tables holding -inf (a zero-probability or zero-rate cell,
    or a p = 1 cell's log1p(-p)) take the same expression as finite ones.
    """

    @pytest.mark.parametrize("K", [3, 9])
    @pytest.mark.parametrize("directed", [False, True])
    @pytest.mark.parametrize("kind, cell", [
        ("bernoulli", None), ("bernoulli", 0.0), ("bernoulli", 1.0), ("poisson", None), ("poisson", -np.inf),
    ])
    def test_soft_e_step_matches_dense(self, kind, cell, directed, K):
        rng = np.random.default_rng(10 * K + directed)
        net = random_network(rng, 30, directed, kind == "bernoulli", p=0.2, max_count=4, n_isolated=2)
        yd = net.to_dense().astype(np.float64)
        state = _random_state(rng, net, K, kind)
        if cell is not None:
            state.params.block_matrix[0, 1] = state.params.block_matrix[1, 0] = cell
        for _ in range(3):
            expect = _seed_e_step_dense(yd, directed, state)
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                got = vem._e_step(net, state)
            assert np.allclose(got, expect.resp, rtol=0.0, atol=1e-12)
            assert np.array_equal(got.argmax(axis=1), expect.resp.argmax(axis=1))
            state = VariationalState(got, state.params, 0.0)

    @pytest.mark.parametrize("directed", [False, True])
    @pytest.mark.parametrize("kind", ["bernoulli", "poisson"])
    def test_m_step_and_elbo_match_dense(self, kind, directed):
        """Soft rows, and rows where the isolated nodes alone fill the last block.

        The second start leaves the last block without an edge, so its
        cells get zero rates (-inf log-rates for poisson).
        """
        K = 4
        rng = np.random.default_rng(20 + directed)
        net = random_network(rng, 30, directed, kind == "bernoulli", p=0.2, max_count=4, n_isolated=2)
        yd = net.to_dense().astype(np.float64)
        state = _random_state(rng, net, K, kind)
        drained = np.zeros((30, K))
        drained[:-2, :-1] = rng.dirichlet(np.ones(K - 1), size=28)
        drained[-2:, -1] = 1.0

        def close(a, b):
            a, b = np.asarray(a), np.asarray(b)
            inf = ~np.isfinite(b)
            return np.array_equal(a[inf], b[inf]) and np.allclose(a[~inf], b[~inf], rtol=1e-12, atol=0.0)

        for resp in (state.resp, drained):
            start = VariationalState(resp, state.params, 0.0)
            expect = _seed_m_step_dense(yd, directed, global_rate(net), start)
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                got = m_step(net, start)
                bound = elbo(net, expect)
            assert np.array_equal(got.params.pi, expect.params.pi)
            assert close(got.params.block_matrix, expect.params.block_matrix)
            assert close(got.elbo, expect.elbo)
            assert close(bound, _seed_elbo_dense(yd, directed, expect))
        if kind == "poisson":
            assert np.isneginf(got.params.block_matrix[-1]).all()


# coefficients at and around _seed_mul's snap threshold of 1e-9
_RULE_COEFS = np.array([0.0, 1e-12, 5e-10, 1e-9, 2e-9, -1e-17])


class TestNegInfRule:
    """``_node_score`` and ``_bound`` against the seed's ``_seed_mul`` expressions, byte for byte.

    Where a coefficient of -1e-9 or less met a -inf cell, ``_seed_mul``
    gave +inf, and the row or bound became +inf or NaN; such a coefficient
    now adds 0.  No fit produces one (counts and pair totals differ from
    whole numbers by rounding only), so the draws leave it out.
    """

    @staticmethod
    def _draw(rng, K, kind, directed):
        bm = rng.uniform(0.05, 0.95, size=(K, K))
        bm[rng.random((K, K)) < 0.2] = 0.0
        if kind == "bernoulli":
            bm[rng.random((K, K)) < 0.2] = 1.0
        if not directed:
            bm = np.triu(bm) + np.triu(bm, 1).T
        pi = rng.dirichlet(np.ones(K))
        pi[rng.random(K) < 0.2] = 0.0
        pi = pi / pi.sum() if pi.sum() > 0 else np.full(K, 1.0 / K)
        with np.errstate(divide="ignore"):
            return BlockParams(kind, K, pi, bm if kind == "bernoulli" else np.log(3 * bm))

    @staticmethod
    def _coefs(rng, shape, scale):
        # whole and fractional values, some replaced by the threshold values
        coef = np.where(rng.random(shape) < 0.5, rng.integers(0, 5, size=shape), rng.uniform(0, scale, size=shape))
        return np.where(rng.random(shape) < 0.4, rng.choice(_RULE_COEFS, size=shape), coef)

    @pytest.mark.parametrize("directed", [False, True])
    @pytest.mark.parametrize("kind", ["bernoulli", "poisson"])
    def test_node_score_and_bound_equal_seed_mul(self, kind, directed):
        bernoulli = kind == "bernoulli"
        rng = np.random.default_rng(40 + directed + 2 * bernoulli)
        neginf = 0
        for trial in range(1500):
            K = 1 + trial % 5
            params = self._draw(rng, K, kind, directed)
            a, b = _seed_pair_tables(params)
            with np.errstate(divide="ignore", invalid="ignore"):
                log_pi = np.log(params.pi)
                # node scores: t and others - t both take the threshold values
                rest_out, rest_in = self._coefs(rng, K, 3.0), self._coefs(rng, K, 3.0)
                others = rest_out + self._coefs(rng, K, 3.0)
                if directed:
                    others = np.maximum(others, rest_in + self._coefs(rng, K, 3.0))
                t_out = others - rest_out
                t_in = others - rest_in if directed else None
                expect = log_pi + _seed_mul(t_out, a).sum(axis=1)
                expect = expect + (_seed_mul(others - t_out, b).sum(axis=1) if bernoulli else -(b @ others))
                if directed:
                    expect = expect + _seed_mul(t_in, a.T).sum(axis=1)
                    expect = expect + (_seed_mul(others - t_in, b.T).sum(axis=1) if bernoulli else -(b.T @ others))
                got = vem._node_score(t_out, t_in, others, log_pi, vem._sides(params, directed), bernoulli)
                assert got.tobytes() == expect.tobytes(), trial
                # the bound from block-pair statistics
                edge, rest, colsum = self._coefs(rng, (K, K), 9.0), self._coefs(rng, (K, K), 9.0), self._coefs(rng, K, 9.0)
                pairs = edge + rest
                entropy = float(rng.uniform(0, 5))
                if bernoulli:
                    pair_term = (_seed_mul(edge, a) + _seed_mul(pairs - edge, b)).sum()
                else:
                    pair_term = (_seed_mul(edge, a) - pairs * b).sum()
                bound = float(pair_term * (1.0 if directed else 0.5) + _seed_mul(colsum, log_pi).sum() + entropy)
                got = vem._bound(edge, pairs, colsum, entropy, directed, params)
                assert np.float64(got).tobytes() == np.float64(bound).tobytes(), trial
            neginf += int(np.isneginf(expect).sum()) + int(bound == -np.inf)
        assert neginf > 100


def _small_fit_networks():
    rng = np.random.default_rng(31)
    return [random_network(rng, 12, directed, binary, p=0.3, n_isolated=1)
            for directed in (False, True) for binary in (True, False)]


class TestNoDenseMatrix:
    """No engine builds the n x n matrix: ``Network.to_dense`` is for tests and callers only."""

    def test_fits_never_call_to_dense(self, monkeypatch):
        def forbidden(self, dtype=np.int64):
            raise AssertionError("a fit built the dense matrix")

        monkeypatch.setattr(Network, "to_dense", forbidden)
        monkeypatch.delenv("BLOCKMIX_WORKERS", raising=False)
        for net in _small_fit_networks():
            kind = "bernoulli" if net.value_kind == "binary" else "poisson"
            vem_fit(net, VemConfig(K=2, restarts=1), kind=kind)
            switch_fit(net, SwitchConfig(K=2, restarts=1, kind=kind))
            if net.value_kind == "binary":
                mcem_fit(net, McemConfig(K=2, em_max_iter=2, sweeps_base=2, sweeps_cap=4,
                                         restarts=1, final_sweeps=10))

    def test_soft_steps_stay_small_on_a_sparse_network(self):
        # n = 3000 with about 10 neighbours a node: one dense float64 matrix alone takes 69 MB
        n, K = 3000, 4
        rng = np.random.default_rng(5)
        src = rng.integers(0, n, size=30000)
        dst = rng.integers(0, n, size=30000)
        keep = src < dst
        pairs = np.unique(src[keep] * n + dst[keep])
        net = Network.from_arrays(n, pairs // n, pairs % n, np.ones(pairs.size, dtype=np.int64))
        state = _random_state(rng, net, K)
        tracemalloc.start()
        try:
            after = m_step(net, e_step(net, state))
            elbo(net, after)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20
