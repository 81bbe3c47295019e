"""Forward sampler: determinism, distributional checks, edge cases."""

import numpy as np
import pytest

from blockmix.generate import GenConfig, sample_sbm
from blockmix.models import BlockParams
from netfixtures import same_network


def _bernoulli_params(K=2, p_in=0.6, p_out=0.1):
    bm = np.full((K, K), p_out)
    np.fill_diagonal(bm, p_in)
    return BlockParams("bernoulli", K, np.full(K, 1.0 / K), bm)


class TestDeterminism:
    def test_same_seed_same_draw(self):
        cfg = GenConfig(30, _bernoulli_params(), seed=7)
        net1, part1 = sample_sbm(cfg)
        net2, part2 = sample_sbm(cfg)
        assert same_network(net1, net2)
        assert part1 == part2

    def test_different_seeds_differ(self):
        a, _ = sample_sbm(GenConfig(30, _bernoulli_params(), seed=1))
        b, _ = sample_sbm(GenConfig(30, _bernoulli_params(), seed=2))
        assert not same_network(a, b)


class TestShapes:
    def test_undirected_output(self):
        net, part = sample_sbm(GenConfig(12, _bernoulli_params(), seed=0))
        assert not net.directed
        assert net.value_kind == "binary"
        assert net.n_nodes == 12
        assert part.n == 12
        y = net.to_dense()
        assert (y == y.T).all()

    def test_directed_output(self):
        params = BlockParams("bernoulli", 2, [0.5, 0.5], [[0.9, 0.1], [0.4, 0.9]])
        net, _ = sample_sbm(GenConfig(12, params, directed=True, seed=0))
        assert net.directed
        y = net.to_dense()
        assert not (y == y.T).all()

    def test_poisson_output_is_count(self):
        params = BlockParams("poisson", 1, [1.0], [[np.log(2.0)]])
        net, _ = sample_sbm(GenConfig(10, params, seed=3))
        assert net.value_kind == "count"
        assert net.data.max() >= 2


class TestDistribution:
    def test_label_frequencies(self):
        pi = np.array([0.2, 0.5, 0.3])
        params = BlockParams("bernoulli", 3, pi, np.full((3, 3), 0.5))
        _, part = sample_sbm(GenConfig(4000, params, seed=11))
        freq = part.block_sizes() / 4000
        # binomial std is about 0.008 per entry; allow 4 sigma
        assert np.abs(freq - pi).max() < 4 * np.sqrt(pi * (1 - pi) / 4000).max()

    def test_bernoulli_cell_rates(self):
        params = _bernoulli_params(p_in=0.7, p_out=0.15)
        net, part = sample_sbm(GenConfig(400, params, seed=4))
        y = net.to_dense()
        z = part.zero_based()
        for k in range(2):
            for l in range(2):
                mask = np.outer(z == k, z == l) & ~np.eye(400, dtype=bool)
                rate = y[mask].mean()
                p = params.block_matrix[k, l]
                sigma = np.sqrt(p * (1 - p) / mask.sum())
                assert abs(rate - p) < 4 * sigma

    def test_poisson_mean(self):
        params = BlockParams("poisson", 1, [1.0], [[np.log(3.0)]])
        net, _ = sample_sbm(GenConfig(300, params, seed=5))
        pairs = 300 * 299 / 2
        mean = net.total_value / pairs
        assert abs(mean - 3.0) < 4 * np.sqrt(3.0 / pairs)

    def test_large_rate_path(self):
        # rate 50 exercises the per-pair stream branch
        params = BlockParams("poisson", 1, [1.0], [[np.log(50.0)]])
        net, _ = sample_sbm(GenConfig(40, params, seed=6))
        pairs = 40 * 39 / 2
        mean = net.total_value / pairs
        assert abs(mean - 50.0) < 4 * np.sqrt(50.0 / pairs)
        again, _ = sample_sbm(GenConfig(40, params, seed=6))
        assert same_network(net, again)

    def test_dc_poisson_degree_tilt(self):
        gamma = np.concatenate([np.full(50, 1.0), np.full(50, -1.0)])
        params = BlockParams(
            "dc_poisson", 1, [1.0], [[0.0]], gamma=gamma
        )
        net, _ = sample_sbm(GenConfig(100, params, seed=9))
        from blockmix.graph import degrees

        deg = degrees(net)
        assert deg[:50].mean() > 3 * deg[50:].mean()


class TestConfigValidation:
    def test_n_too_small(self):
        with pytest.raises(ValueError, match="at least 2"):
            GenConfig(1, _bernoulli_params())

    def test_gamma_length(self):
        params = BlockParams("dc_poisson", 1, [1.0], [[0.0]], gamma=np.zeros(3))
        with pytest.raises(ValueError, match="per node"):
            GenConfig(5, params)
