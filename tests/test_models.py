"""Likelihoods, closed-form estimators, and the step-function graphon.

Every likelihood is checked against a direct loop over node pairs, and
the estimators against small perturbations of their output.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from blockmix.graph import Network, density
from blockmix.models import (
    BlockParams,
    GraphonStep,
    Partition,
    bernoulli_loglik,
    block_pair_stats,
    check_kind,
    dc_poisson_loglik,
    global_rate,
    graphon_eval,
    mle_block_params,
    poisson_complete_loglik,
)
from netfixtures import random_network, random_partition


def _ordered_pairs(net):
    n = net.n_nodes
    if net.directed:
        return [(i, j) for i in range(n) for j in range(n) if i != j]
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def slow_bernoulli(net, part, params):
    z = part.zero_based()
    total = 0.0
    for i, j in _ordered_pairs(net):
        y = net.value(i, j)
        p = params.block_matrix[z[i], z[j]]
        term = math.log(p) if y else math.log1p(-p)
        if (y and p == 0) or (not y and p == 1):
            return -math.inf
        if (y and p == 1) or (not y and p == 0):
            term = 0.0
        total += term
    return total


def slow_poisson(net, part, params):
    z = part.zero_based()
    total = 0.0
    for i, j in _ordered_pairs(net):
        y = net.value(i, j)
        w = params.block_matrix[z[i], z[j]]
        total += (y * w if y else 0.0) - math.exp(w)
    for lab in part.labels:
        total += math.log(params.pi[lab - 1])
    return total


def slow_dc_poisson(net, part, params):
    z = part.zero_based()
    g = params.gamma
    total = 0.0
    for i, j in _ordered_pairs(net):
        y = net.value(i, j)
        rate_log = g[i] + g[j] + params.block_matrix[z[i], z[j]]
        total += (y * rate_log if y else 0.0) - math.exp(rate_log)
    return total


def _random_params(rng, kind, K, n=None):
    pi = rng.dirichlet(np.ones(K))
    if kind == "bernoulli":
        bm = rng.uniform(0.05, 0.95, size=(K, K))
    else:
        bm = np.log(rng.uniform(0.2, 3.0, size=(K, K)))
    gamma = rng.normal(0, 0.4, size=n) if kind == "dc_poisson" else None
    return pi, bm, gamma


class TestBlockPairStats:
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10**6), directed=st.booleans(), K=st.integers(1, 4))
    def test_matches_pair_loop(self, seed, directed, K):
        rng = np.random.default_rng(seed)
        net = random_network(rng, directed=directed, binary=False)
        z = random_partition(rng, net.n_nodes, K).zero_based()
        e, m, sizes = block_pair_stats(net, z, K)
        e_ref = np.zeros((K, K), dtype=np.int64)
        m_ref = np.zeros((K, K), dtype=np.int64)
        n = net.n_nodes
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                e_ref[z[i], z[j]] += net.value(i, j)
                m_ref[z[i], z[j]] += 1
        assert e.dtype == m.dtype == sizes.dtype == np.int64
        assert np.array_equal(e, e_ref)
        assert np.array_equal(m, m_ref)
        assert np.array_equal(sizes, np.bincount(z, minlength=K))

    @pytest.mark.parametrize("directed", [False, True])
    def test_values_past_2_53_sum_exactly(self, directed):
        # float64 stores 2**53 + 1 as 2**53
        net = Network.from_edges(3, {(0, 1): 2**53 + 1, (1, 2): 1}, directed=directed, value_kind="count")
        e, m, sizes = block_pair_stats(net, np.array([0, 1, 1]), 2)
        assert e.dtype == np.int64
        assert e.tolist() == ([[0, 2**53 + 1], [0, 1]] if directed else [[0, 2**53 + 1], [2**53 + 1, 2]])
        assert m.tolist() == [[0, 2], [2, 2]] and sizes.tolist() == [1, 2]

    @pytest.mark.parametrize("labels", [[0, 2], [-1, 0], [0, 1, 1], [0], [0.0, 1.0], [[0, 1]], [True, False]])
    def test_labels_checked(self, labels):
        # unchecked, [0, 2] counts the edge 0 -> 1 in cell (1, 0), and three labels pass
        net = Network.from_edges(2, [(0, 1)], directed=True)
        with pytest.raises(ValueError, match=r"labels0 must hold 2 whole numbers in 0\.\.1"):
            block_pair_stats(net, np.array(labels), 2)


class TestLogLikelihoods:
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10**6), directed=st.booleans(), K=st.integers(1, 4))
    def test_bernoulli_matches_pair_loop(self, seed, directed, K):
        rng = np.random.default_rng(seed)
        net = random_network(rng, directed=directed, binary=True)
        part = random_partition(rng, net.n_nodes, K)
        pi, bm, _ = _random_params(rng, "bernoulli", K)
        if not directed:
            bm = (bm + bm.T) / 2
        params = BlockParams("bernoulli", K, pi, bm)
        got = bernoulli_loglik(net, part, params)
        assert got == pytest.approx(slow_bernoulli(net, part, params), abs=1e-9)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10**6), directed=st.booleans(), K=st.integers(1, 4))
    def test_poisson_matches_pair_loop(self, seed, directed, K):
        rng = np.random.default_rng(seed)
        net = random_network(rng, directed=directed, binary=False)
        part = random_partition(rng, net.n_nodes, K)
        pi, bm, _ = _random_params(rng, "poisson", K)
        if not directed:
            bm = (bm + bm.T) / 2
        params = BlockParams("poisson", K, pi, bm)
        got = poisson_complete_loglik(net, part, params)
        assert got == pytest.approx(slow_poisson(net, part, params), abs=1e-9)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10**6), directed=st.booleans(), K=st.integers(1, 4))
    def test_dc_poisson_matches_pair_loop(self, seed, directed, K):
        rng = np.random.default_rng(seed)
        net = random_network(rng, directed=directed, binary=False)
        part = random_partition(rng, net.n_nodes, K)
        pi, bm, gamma = _random_params(rng, "dc_poisson", K, n=net.n_nodes)
        if not directed:
            bm = (bm + bm.T) / 2
        params = BlockParams("dc_poisson", K, pi, bm, gamma=gamma)
        got = dc_poisson_loglik(net, part, params)
        assert got == pytest.approx(slow_dc_poisson(net, part, params), abs=1e-9)

    def test_bernoulli_impossible_data_is_neg_inf(self):
        net = Network.from_edges(3, [(0, 1)])
        part = Partition(np.array([1, 1, 2]), 2)
        zero = BlockParams("bernoulli", 2, [0.5, 0.5], [[0.0, 0.5], [0.5, 0.5]])
        assert bernoulli_loglik(net, part, zero) == -np.inf
        one = BlockParams("bernoulli", 2, [0.5, 0.5], [[1.0, 0.5], [0.5, 0.5]])
        # regroup so block 1 holds the unconnected nodes 0 and 2
        apart = Partition(np.array([1, 2, 1]), 2)
        assert bernoulli_loglik(net, apart, one) == -np.inf

    def test_bernoulli_certain_agreement_is_finite(self):
        net = Network.from_edges(2, [(0, 1)])
        part = Partition(np.array([1, 1]), 1)
        params = BlockParams("bernoulli", 1, [1.0], [[1.0]])
        assert bernoulli_loglik(net, part, params) == 0.0

    def test_kind_mismatch_rejected(self):
        net = Network.from_edges(2, [(0, 1)])
        part = Partition(np.array([1, 1]), 1)
        params = BlockParams("poisson", 1, [1.0], [[0.0]])
        with pytest.raises(ValueError, match="bernoulli"):
            bernoulli_loglik(net, part, params)
        with pytest.raises(ValueError, match="poisson"):
            poisson_complete_loglik(
                net, part, BlockParams("bernoulli", 1, [1.0], [[0.5]])
            )

    def test_bernoulli_needs_binary_network(self):
        net = Network.from_edges(2, {(0, 1): 3}, value_kind="count")
        part = Partition(np.array([1, 1]), 1)
        with pytest.raises(ValueError, match="binary"):
            bernoulli_loglik(net, part, BlockParams("bernoulli", 1, [1.0], [[0.5]]))

    def test_partition_length_checked(self):
        net = Network.from_edges(3, [(0, 1)])
        part = Partition(np.array([1, 1]), 1)
        with pytest.raises(ValueError, match="number of nodes"):
            bernoulli_loglik(net, part, BlockParams("bernoulli", 1, [1.0], [[0.5]]))

    @pytest.mark.parametrize("cell", [(0, 0), (0, 1), (1, 1)])
    def test_posinf_log_rate_rejected(self, cell):
        net = Network.from_edges(3, {(0, 1): 2}, value_kind="count")
        part = Partition(np.array([1, 1, 2]), 2)
        bm = np.zeros((2, 2))
        bm[cell] = bm[cell[::-1]] = np.inf
        with pytest.raises(ValueError, match=r"block_matrix must not contain \+inf"):
            poisson_complete_loglik(net, part, BlockParams("poisson", 2, [0.5, 0.5], bm))
        with pytest.raises(ValueError, match=r"block_matrix must not contain \+inf"):
            dc_poisson_loglik(net, part, BlockParams("dc_poisson", 2, [0.5, 0.5], bm, gamma=np.zeros(3)))

    @pytest.mark.parametrize("cell", [(1, 1), (0, 0), (0, 1)])
    def test_overflowing_rate(self, cell):
        # exp(800) overflows to +inf: the cell of lone block 2 has no pairs and
        # adds 0 (not NaN), a cell with pairs gives -inf
        net = Network.from_edges(3, {(0, 1): 2}, value_kind="count")
        part = Partition(np.array([1, 1, 2]), 2)
        bm = np.zeros((2, 2))
        bm[cell] = bm[cell[::-1]] = 800.0
        for kind, loglik, gamma in (("poisson", poisson_complete_loglik, None),
                                    ("dc_poisson", dc_poisson_loglik, np.zeros(3))):
            base = loglik(net, part, BlockParams(kind, 2, [0.5, 0.5], np.zeros((2, 2)), gamma=gamma))
            value = loglik(net, part, BlockParams(kind, 2, [0.5, 0.5], bm, gamma=gamma))
            assert value == (base if cell == (1, 1) else -np.inf)

    @pytest.mark.parametrize("node", [0, 2])
    def test_posinf_gamma_rejected(self, node):
        net = Network.from_edges(3, {(0, 1): 2}, value_kind="count")
        gamma = np.zeros(3)
        gamma[node] = np.inf
        params = BlockParams("dc_poisson", 2, [0.5, 0.5], np.zeros((2, 2)), gamma=gamma)
        with pytest.raises(ValueError, match=r"gamma must not contain \+inf"):
            dc_poisson_loglik(net, Partition(np.array([1, 1, 2]), 2), params)


class TestMleBlockParams:
    def test_bernoulli_cells_are_edge_fractions(self):
        rng = np.random.default_rng(11)
        net = random_network(rng, n=12, binary=True)
        part = random_partition(rng, 12, 3, ensure_full=True)
        params = mle_block_params(net, part, "bernoulli")
        e, m, sizes = block_pair_stats(net, part.zero_based(), 3)
        assert np.allclose(params.pi, sizes / 12)
        occupied = m > 0
        assert np.allclose(params.block_matrix[occupied], (e / np.maximum(m, 1))[occupied])

    @pytest.mark.parametrize("kind", ["bernoulli", "poisson"])
    def test_perturbing_any_cell_lowers_loglik(self, kind):
        rng = np.random.default_rng(5)
        net = random_network(rng, n=10, binary=(kind == "bernoulli"))
        part = random_partition(rng, 10, 2, ensure_full=True)
        params = mle_block_params(net, part, kind)
        score = bernoulli_loglik if kind == "bernoulli" else poisson_complete_loglik
        base = score(net, part, params)
        for k in range(2):
            for l in range(k, 2):
                for eps in (-1e-3, 1e-3):
                    bm = params.block_matrix.copy()
                    bm[k, l] += eps
                    bm[l, k] += eps
                    if kind == "bernoulli" and not (0 < bm[k, l] < 1):
                        continue
                    bumped = BlockParams(kind, 2, params.pi, bm)
                    assert score(net, part, bumped) <= base + 1e-12

    def test_dc_perturbing_omega_lowers_loglik(self):
        rng = np.random.default_rng(6)
        net = random_network(rng, n=10, binary=False)
        part = random_partition(rng, 10, 2, ensure_full=True)
        params = mle_block_params(net, part, "dc_poisson")
        base = dc_poisson_loglik(net, part, params)
        for k in range(2):
            for l in range(k, 2):
                for eps in (-1e-3, 1e-3):
                    bm = params.block_matrix.copy()
                    bm[k, l] += eps
                    bm[l, k] += eps
                    bumped = BlockParams("dc_poisson", 2, params.pi, bm, gamma=params.gamma)
                    assert dc_poisson_loglik(net, part, bumped) <= base + 1e-12

    def test_dc_gamma_normalization(self):
        rng = np.random.default_rng(7)
        net = random_network(rng, n=15, binary=False)
        part = random_partition(rng, 15, 3, ensure_full=True)
        params = mle_block_params(net, part, "dc_poisson")
        # exp(gamma) sums to the block size wherever the block has edges
        expg = np.exp(params.gamma)
        z = part.zero_based()
        for k in range(3):
            members = z == k
            if expg[members].sum() > 0:
                assert expg[members].sum() == pytest.approx(members.sum())

    def test_k1_probability_is_density(self):
        rng = np.random.default_rng(8)
        net = random_network(rng, n=9, binary=True)
        part = Partition(np.ones(9, dtype=int), 1)
        params = mle_block_params(net, part, "bernoulli")
        assert params.block_matrix[0, 0] == pytest.approx(density(net))

    def test_empty_cell_falls_back_to_global_rate(self):
        # block 2 is a singleton: its diagonal cell has no pairs
        net = Network.from_edges(4, [(0, 1), (0, 2)])
        part = Partition(np.array([1, 1, 1, 2]), 2)
        params = mle_block_params(net, part, "bernoulli")
        assert params.block_matrix[1, 1] == pytest.approx(global_rate(net))

    def test_empty_block_rejected_unless_allowed(self):
        net = Network.from_edges(3, [(0, 1)])
        part = Partition(np.array([1, 1, 1]), 2)
        with pytest.raises(ValueError, match="block 2 is empty"):
            mle_block_params(net, part, "bernoulli")
        params = mle_block_params(net, part, "bernoulli", allow_empty=True)
        assert params.pi[1] == 0.0

    def test_unknown_kind(self):
        net = Network.from_edges(2, [(0, 1)])
        with pytest.raises(ValueError, match="model kind"):
            mle_block_params(net, Partition(np.array([1, 1]), 1), "gaussian")

    def test_dc_pair_weight_below_1e_12_is_a_divisor(self):
        # block 1 joins degrees 10**13 and 1, so its pair weight is about 8e-13:
        # the rate divides by it (a 1e-12 threshold would give the fallback 28.835...)
        net = Network(3, [0, 0], [1, 2], [1, 10**13 - 1], value_kind="count")
        params = mle_block_params(net, Partition([1, 1, 2], 2), "dc_poisson")
        assert params.block_matrix[0, 0] == 28.547000950948874


class TestKindCheck:
    def test_one_message_for_bernoulli_on_counts(self):
        from blockmix.mcem import McemConfig, mcem_fit
        from blockmix.switch import SwitchConfig, delta_loglik, profile_loglik, switch_fit
        from blockmix.vem import VemConfig, vem_fit

        net = Network.from_edges(3, {(0, 1): 2}, value_kind="count")
        part = Partition(np.array([1, 1, 2]), 2)
        calls = [
            lambda: bernoulli_loglik(net, part, BlockParams("bernoulli", 2, [0.5, 0.5], np.full((2, 2), 0.5))),
            lambda: mle_block_params(net, part, "bernoulli"),
            lambda: vem_fit(net, VemConfig(K=2)),
            lambda: switch_fit(net, SwitchConfig(K=2)),
            lambda: profile_loglik(net, part),
            lambda: delta_loglik(net, part, 0, 2),
            lambda: mcem_fit(net, McemConfig(K=2)),
        ]
        messages = set()
        for call in calls:
            with pytest.raises(ValueError) as exc:
                call()
            messages.add(str(exc.value))
        assert messages == {"the bernoulli model needs a binary network"}

    def test_engine_kinds(self):
        from blockmix.vem import VemConfig, vem_fit

        net = Network.from_edges(3, {(0, 1): 2}, value_kind="count")
        with pytest.raises(ValueError) as exc:
            vem_fit(net, VemConfig(K=2), kind="dc_poisson")
        assert str(exc.value) == "the vem method fits the model kinds bernoulli, poisson, not dc_poisson"
        with pytest.raises(ValueError, match="^the mcem method fits the model kinds bernoulli, not poisson$"):
            check_kind(None, "poisson", "mcem")
        for kind in ("poisson", "dc_poisson"):
            check_kind(net, kind, "switch")


class TestValidation:
    def test_partition_label_range(self):
        with pytest.raises(ValueError, match="1..2"):
            Partition(np.array([0, 1]), 2)
        with pytest.raises(ValueError, match="1..2"):
            Partition(np.array([1, 3]), 2)
        with pytest.raises(ValueError, match="at least 1"):
            Partition(np.array([1]), 0)
        with pytest.raises(ValueError, match="1..2"):
            Partition([1.0, np.nan], 2)

    def test_partition_labels_whole(self):
        # [1.5, 2.7] was once truncated to [1, 2]
        with pytest.raises(ValueError, match="whole numbers"):
            Partition([1.5, 2.7], 3)
        assert Partition([1.0, 2.0], 2).labels.tolist() == [1, 2]

    def test_partition_equality(self):
        a = Partition(np.array([1, 2]), 2)
        assert a == Partition(np.array([1, 2]), 2)
        assert a != Partition(np.array([2, 1]), 2)
        assert a != Partition(np.array([1, 2]), 3)

    def test_block_params_equality(self):
        def params(kind="poisson", pi=(0.5, 0.5), corner=1.0, gamma=None):
            return BlockParams(kind, 2, list(pi), [[0.0, -np.inf], [-np.inf, corner]], gamma=gamma)

        a = params()
        assert a == params()  # -inf cells count as equal
        assert a != params(pi=(0.25, 0.75))
        assert a != params(corner=0.5)
        assert a != params("dc_poisson", gamma=[0.0, 1.0])
        assert params("dc_poisson", gamma=[0.0, -np.inf]) == params("dc_poisson", gamma=[0.0, -np.inf])
        assert params("dc_poisson", gamma=[0.0, -np.inf]) != params("dc_poisson", gamma=[0.0, 0.0])
        assert BlockParams("bernoulli", 1, [1.0], [[0.0]]) != BlockParams("poisson", 1, [1.0], [[0.0]])
        assert a != "params"

    def test_block_params_simplex(self):
        with pytest.raises(ValueError, match="simplex"):
            BlockParams("bernoulli", 2, [0.7, 0.7], np.full((2, 2), 0.5))

    def test_block_params_probability_range(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            BlockParams("bernoulli", 1, [1.0], [[1.5]])

    @pytest.mark.parametrize("kind", ["bernoulli", "poisson"])
    def test_block_params_reject_nan(self, kind):
        with pytest.raises(ValueError, match="block_matrix must not contain NaN"):
            BlockParams(kind, 1, [1.0], [[np.nan]])
        with pytest.raises(ValueError, match="pi must not contain NaN"):
            BlockParams(kind, 2, [np.nan, 0.5], np.full((2, 2), 0.5))
        with pytest.raises(ValueError, match="gamma must not contain NaN"):
            BlockParams("dc_poisson", 1, [1.0], [[0.0]], gamma=[0.0, np.nan])
        # -inf stays a valid log-rate and offset
        BlockParams("dc_poisson", 1, [1.0], [[-np.inf]], gamma=[0.0, -np.inf])

    def test_gamma_exactly_for_dc(self):
        with pytest.raises(ValueError, match="gamma"):
            BlockParams("poisson", 1, [1.0], [[0.0]], gamma=np.zeros(3))
        with pytest.raises(ValueError, match="gamma"):
            BlockParams("dc_poisson", 1, [1.0], [[0.0]])


class TestGraphonStep:
    def test_boundary_validation(self):
        with pytest.raises(ValueError, match="start at 0"):
            GraphonStep([0.1, 1.0], [[0.5]])
        with pytest.raises(ValueError, match="non-decreasing"):
            GraphonStep([0.0, 0.6, 0.4, 1.0], np.full((3, 3), 0.5))
        with pytest.raises(ValueError, match="symmetric"):
            GraphonStep([0.0, 0.5, 1.0], [[0.1, 0.2], [0.3, 0.4]])

    def test_nan_rejected(self):
        # a NaN boundary once gave pi == [nan, nan]; a NaN in P read as asymmetric
        with pytest.raises(ValueError, match="tau must not contain NaN"):
            GraphonStep([0.0, np.nan, 1.0], np.full((2, 2), 0.5))
        with pytest.raises(ValueError, match="P must not contain NaN"):
            GraphonStep([0.0, 0.5, 1.0], [[0.5, np.nan], [np.nan, 0.5]])

    def test_equality(self):
        g = GraphonStep([0.0, 0.5, 1.0], [[0.6, 0.1], [0.1, 0.4]])
        g.derived("cached", lambda step: 1)  # derived tables do not take part
        assert g == GraphonStep([0.0, 0.5, 1.0], [[0.6, 0.1], [0.1, 0.4]])
        assert g != GraphonStep([0.0, 0.25, 1.0], [[0.6, 0.1], [0.1, 0.4]])
        assert g != GraphonStep([0.0, 0.5, 1.0], [[0.6, 0.2], [0.2, 0.4]])
        assert g != BlockParams("bernoulli", 2, [0.5, 0.5], [[0.6, 0.1], [0.1, 0.4]])

    def test_interval_lookup(self):
        g = GraphonStep([0.0, 0.5, 0.7, 1.0], np.full((3, 3), 0.5))
        assert g.interval_of(0.0) == 0
        assert g.interval_of(0.49) == 0
        assert g.interval_of(0.5) == 1
        assert g.interval_of(0.99) == 2
        assert np.allclose(g.pi, [0.5, 0.2, 0.3])

    def test_interval_of_rejects_out_of_range(self):
        g = GraphonStep([0.0, 1.0], [[0.5]])
        with pytest.raises(ValueError, match=r"\[0, 1\)"):
            g.interval_of(1.0)
        with pytest.raises(ValueError, match=r"\[0, 1\)"):
            g.interval_of(-0.1)

    def test_interval_of_rejects_nan(self):
        g = GraphonStep([0.0, 0.5, 1.0], np.full((2, 2), 0.5))
        with pytest.raises(ValueError, match=r"\[0, 1\)"):
            g.interval_of(np.nan)
        with pytest.raises(ValueError, match=r"\[0, 1\)"):
            g.interval_of(np.array([0.2, np.nan]))

    def test_boundaries_within_tolerance_are_stored_exact(self):
        # an end 1e-13 short of 1 passes validation; stored as is, u just
        # below 1 fell past the last interval (index K)
        P = np.array([[0.9, 0.1], [0.1, 0.4]])
        tau = np.array([0.0, 0.5, 1.0 - 1e-13])
        g = GraphonStep(tau, P)
        assert g.tau[-1] == 1.0 and tau[-1] == 1.0 - 1e-13  # the caller's array is left alone
        assert g.interval_of(1.0 - 1e-14) == 1
        assert graphon_eval(g, 1.0 - 1e-14, 0.2) == 0.1
        # a boundary that dips by 1e-13 passes too, and left a negative length
        g = GraphonStep([0.0, 0.5, 0.5 - 1e-13, 1.0], np.full((3, 3), 0.5))
        assert (np.diff(g.tau) >= 0).all() and g.pi.min() == 0.0
        assert g.interval_of(0.5 - 1e-14) == 0

    def test_zero_width_interval_never_selected(self):
        g = GraphonStep([0.0, 0.5, 0.5, 1.0], np.full((3, 3), 0.5))
        assert g.interval_of(0.5) == 2
        assert g.interval_of(0.499) == 0

    def test_eval_reads_cell(self):
        P = np.array([[0.9, 0.1], [0.1, 0.4]])
        g = GraphonStep([0.0, 0.25, 1.0], P)
        assert graphon_eval(g, 0.1, 0.1) == 0.9
        assert graphon_eval(g, 0.1, 0.9) == 0.1
        assert graphon_eval(g, 0.9, 0.1) == 0.1
        assert graphon_eval(g, 0.3, 0.99) == 0.4
