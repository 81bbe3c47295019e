"""Forward sampler: determinism, distributional checks, edge cases."""

import tracemalloc

import numpy as np
import pytest

import blockmix.generate as generate
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
        # labels come from their own stream, so a sparse block matrix keeps the draw cheap
        pi = np.array([0.2, 0.5, 0.3])
        params = BlockParams("bernoulli", 3, pi, np.full((3, 3), 0.001))
        _, part = sample_sbm(GenConfig(4000, params, seed=11))
        freq = part.block_sizes() / 4000
        # binomial std is about 0.008 per entry; allow 4 sigma
        assert np.abs(freq - pi).max() < 4 * np.sqrt(pi * (1 - pi) / 4000).max()

    def test_labels_do_not_depend_on_the_block_matrix(self):
        pi = [0.2, 0.5, 0.3]
        _, dense = sample_sbm(GenConfig(50, BlockParams("bernoulli", 3, pi, np.full((3, 3), 0.5)), seed=11))
        _, sparse = sample_sbm(GenConfig(50, BlockParams("bernoulli", 3, pi, np.full((3, 3), 0.001)), seed=11))
        assert dense == sparse

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


def _block_params(kind: str, directed: bool) -> BlockParams:
    """K = 3; in the Poisson kinds block pair (3, 3) has rate 20, above the inversion limit of 10."""
    if kind == "bernoulli":
        bm = np.array([[0.5, 0.1, 0.2], [0.1, 0.3, 0.05], [0.2, 0.05, 0.6]])
    else:
        bm = np.log([[1.5, 0.2, 0.5], [0.2, 3.0, 0.1], [0.5, 0.1, 20.0]])
    if directed:
        bm = bm * np.array([[1.0, 0.6, 1.4], [1.2, 1.0, 0.9], [0.7, 1.1, 1.0]])
    gamma = np.random.default_rng(3).normal(0.0, 0.4, 40) if kind == "dc_poisson" else None
    return BlockParams(kind, 3, [0.3, 0.3, 0.4], bm, gamma=gamma)


class TestRowBlocks:
    @pytest.mark.parametrize("directed", [False, True])
    @pytest.mark.parametrize("n, block", [(2, 1), (5, 1), (9, 3), (9, 8), (9, 100), (30, 29), (30, 87)])
    def test_blocks_cover_the_canonical_order(self, n, block, directed, monkeypatch):
        monkeypatch.setattr(generate, "_PAIR_BLOCK", block)
        blocks = list(generate._pair_blocks(n, directed))
        rows = np.concatenate([b[1] for b in blocks])
        cols = np.concatenate([b[2] for b in blocks])
        expect = np.nonzero(~np.eye(n, dtype=bool)) if directed else np.triu_indices(n, k=1)
        assert np.array_equal(rows, expect[0]) and np.array_equal(cols, expect[1])
        assert [b[0] for b in blocks] == list(np.cumsum([0] + [b[1].size for b in blocks[:-1]]))
        for _, r, _ in blocks:
            # whole rows, and no more pairs than a block holds unless it is one row
            assert r.size <= block or np.unique(r).size == 1
            assert np.array_equal(np.unique(r), np.arange(r[0], r[-1] + 1))

    @pytest.mark.parametrize("kind", ["bernoulli", "poisson", "dc_poisson"])
    @pytest.mark.parametrize("directed", [False, True])
    def test_block_size_does_not_change_the_draw(self, kind, directed, monkeypatch):
        cfg = GenConfig(40, _block_params(kind, directed), directed=directed, seed=12)
        net, part = sample_sbm(cfg)
        # large-rate pairs (block 3 with block 3) in rows well past the first blocks
        assert (part.labels[20:] == 3).sum() >= 2
        # one row per block, then three rows per block (more in the short undirected rows)
        for block in (1, 3 * (cfg.n - 1)):
            monkeypatch.setattr(generate, "_PAIR_BLOCK", block)
            other, other_part = sample_sbm(cfg)
            assert same_network(net, other)
            assert other_part == part

    def test_memory_is_one_block_plus_edges(self):
        # 9 million candidate pairs: enumerating them all at once peaked at 356 MiB
        bm = np.full((4, 4), 0.002)
        np.fill_diagonal(bm, 0.02)
        params = BlockParams("bernoulli", 4, np.full(4, 0.25), bm)
        tracemalloc.start()
        try:
            net, _ = sample_sbm(GenConfig(3000, params, directed=True, seed=5))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert net.n_edges > 40_000
        assert peak < 100 * 2**20


class TestUnsampleableRates:
    def test_poisson_log_rate_50(self):
        params = BlockParams("poisson", 2, [0.5, 0.5], [[0.0, 0.0], [0.0, 50.0]])
        with pytest.raises(ValueError, match=r"in block pair \(2, 2\) has Poisson rate 5\.18471e\+21"):
            sample_sbm(GenConfig(8, params, seed=1))

    def test_dc_poisson_gamma_pushes_one_pair_over(self):
        # exp(22 + 22) is above numpy's limit of about 9.2e18; exp(22) alone is not
        gamma = np.zeros(8)
        gamma[[4, 5]] = 22.0
        params = BlockParams("dc_poisson", 1, [1.0], [[0.0]], gamma=gamma)
        with pytest.raises(ValueError, match=r"^node pair \(4, 5\) in block pair \(1, 1\) has Poisson rate"):
            sample_sbm(GenConfig(8, params, seed=1))
        gamma[5] = 0.0
        net, _ = sample_sbm(GenConfig(8, params, seed=1))
        assert net.data.max() > 1e9


class TestConfigValidation:
    def test_n_too_small(self):
        with pytest.raises(ValueError, match="at least 2"):
            GenConfig(1, _bernoulli_params())

    def test_gamma_length(self):
        params = BlockParams("dc_poisson", 1, [1.0], [[0.0]], gamma=np.zeros(3))
        with pytest.raises(ValueError, match="per node"):
            GenConfig(5, params)

    def test_undirected_needs_symmetric_block_matrix(self):
        # sample_sbm reads only the upper triangle, so the lower one would be ignored
        params = BlockParams("bernoulli", 2, [0.5, 0.5], [[0.9, 0.1], [0.5, 0.9]])
        with pytest.raises(ValueError, match="symmetric"):
            GenConfig(6, params)
        GenConfig(6, params, directed=True)
