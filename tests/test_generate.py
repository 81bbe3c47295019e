"""Forward sampler: determinism, distributional checks, edge cases."""

import tracemalloc

import numpy as np
import pytest

import blockmix.generate as generate
from blockmix.generate import GenConfig, sample_sbm
from blockmix.models import BlockParams
import pairloop
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
    @pytest.mark.parametrize("n", [2, 5, 9, 30])
    def test_pair_index_maps_to_the_canonical_order(self, n, directed):
        n_pairs = n * (n - 1) if directed else n * (n - 1) // 2
        rows, cols = generate._pair_ends(n, directed, np.arange(n_pairs))
        expect = np.nonzero(~np.eye(n, dtype=bool)) if directed else np.triu_indices(n, k=1)
        assert np.array_equal(rows, expect[0]) and np.array_equal(cols, expect[1])
        # any subset, in any order, maps pair by pair
        pick = np.random.default_rng(n).permutation(n_pairs)[: n_pairs // 2 + 1]
        rows, cols = generate._pair_ends(n, directed, pick)
        assert np.array_equal(rows, expect[0][pick]) and np.array_equal(cols, expect[1][pick])

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

    def test_n_not_whole(self):
        with pytest.raises(ValueError, match=r"^n must be a positive whole number.*got 10\.0"):
            GenConfig(10.0, _bernoulli_params())

    def test_seed_not_whole(self):
        # a float seed would be truncated into the stream key
        with pytest.raises(ValueError, match=r"^seed must be a whole number.*got 1\.5"):
            GenConfig(10, _bernoulli_params(), seed=1.5)

    def test_seed_negative(self):
        with pytest.raises(ValueError, match=r"^seed must be a whole number in 0\.\.2\*\*64-1, got -1"):
            GenConfig(10, _bernoulli_params(), seed=-1)

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


def _screen_cases():
    """(params, n, directed) for the differential tests against the enumeration, with ids."""
    rng = np.random.default_rng(8)
    log = np.log
    cases = []
    for directed in (False, True):
        for kind in ("bernoulli", "poisson", "dc_poisson"):
            # rate 20 in block pair (3, 3): the Poisson screen is off
            cases.append((f"{kind}-rate20", _block_params(kind, directed), 40, directed))
        sparse = np.array([[0.3, 0.02, 0.05], [0.02, 0.2, 0.01], [0.05, 0.01, 0.4]])
        if directed:
            sparse = sparse * np.array([[1.0, 0.6, 1.4], [1.2, 1.0, 0.9], [0.7, 1.1, 1.0]])
        pi = [0.3, 0.3, 0.4]
        cases += [
            ("bernoulli-sparse", BlockParams("bernoulli", 3, pi, sparse), 60, directed),
            ("poisson-sparse", BlockParams("poisson", 3, pi, log(sparse)), 60, directed),
            ("dc_poisson-sparse", BlockParams("dc_poisson", 3, pi, log(sparse),
                                              gamma=rng.normal(0.0, 0.5, 60)), 60, directed),
            ("bernoulli-zero", BlockParams("bernoulli", 2, [0.5, 0.5], np.zeros((2, 2))), 30, directed),
            ("bernoulli-one", BlockParams("bernoulli", 2, [0.5, 0.5], [[1.0, 0.1], [0.1, 0.3]]), 30, directed),
            ("poisson-minus-inf", BlockParams("poisson", 2, [0.5, 0.5], [[-np.inf, log(0.5)], [log(0.5), 0.0]]),
             30, directed),
            ("poisson-all-minus-inf", BlockParams("poisson", 1, [1.0], [[-np.inf]]), 30, directed),
            # the largest rate just under 10 (screen on, barely) and just over (screen off)
            ("poisson-under-10", BlockParams("poisson", 2, [0.5, 0.5], log([[9.999, 0.3], [0.3, 0.5]])), 30,
             directed),
            ("poisson-over-10", BlockParams("poisson", 2, [0.5, 0.5], log([[10.001, 0.3], [0.3, 0.5]])), 30,
             directed),
            ("dc_poisson-under-10", BlockParams("dc_poisson", 1, [1.0], [[log(9.999) - 1.0]],
                                                gamma=np.r_[0.5, rng.uniform(-2.0, 0.5, 29)]), 30, directed),
            # large |gamma|: mostly -20 with one large pair rate, then +-20 mixed
            ("dc_poisson-gamma-low", BlockParams("dc_poisson", 2, [0.5, 0.5], log(sparse[:2, :2]),
                                                 gamma=np.r_[np.full(28, -20.0), 1.0, 1.0]), 30, directed),
            ("dc_poisson-gamma-wide", BlockParams("dc_poisson", 2, [0.5, 0.5], log(sparse[:2, :2]),
                                                  gamma=rng.choice([-20.0, -5.0, 0.0, 5.0, 20.0], 30)), 30,
             directed),
        ]
    return [pytest.param(*case[1:], id=f"{case[0]}-{'directed' if case[3] else 'undirected'}") for case in cases]


def _outcome(sampler, cfg):
    try:
        return sampler(cfg)
    except ValueError as exc:
        return str(exc)


def _same_outcome(cfg):
    ours, theirs = _outcome(sample_sbm, cfg), _outcome(pairloop.sample, cfg)
    if isinstance(theirs, str):
        return ours == theirs
    return not isinstance(ours, str) and same_network(ours[0], theirs[0]) and ours[1] == theirs[1]


class TestAgainstEnumeration:
    """sample_sbm screens chunks of pair uniforms; the enumerating sampler evaluates every pair."""

    @pytest.mark.parametrize("seed", [0, 1, 7])
    @pytest.mark.parametrize("params, n, directed", _screen_cases())
    def test_same_draw(self, params, n, directed, seed):
        cfg = GenConfig(n, params, directed=directed, seed=seed)
        assert _same_outcome(cfg)

    @pytest.mark.parametrize("kind", ["bernoulli", "poisson", "dc_poisson"])
    @pytest.mark.parametrize("n, directed", [(1500, False), (1100, True)])
    def test_several_default_chunks(self, kind, n, directed):
        bm = np.array([[0.02, 0.002], [0.002, 0.01]])
        if kind != "bernoulli":
            bm = np.log(bm * 2)
        gamma = np.random.default_rng(n).normal(0.0, 0.3, n) if kind == "dc_poisson" else None
        cfg = GenConfig(n, BlockParams(kind, 2, [0.4, 0.6], bm, gamma=gamma), directed=directed, seed=5)
        assert cfg.n * (cfg.n - 1) // (1 if directed else 2) > generate._PAIR_BLOCK
        assert _same_outcome(cfg)

    @pytest.mark.parametrize(
        "params",
        [
            BlockParams("poisson", 2, [0.5, 0.5], [[0.0, 0.0], [0.0, 50.0]]),
            BlockParams("poisson", 2, [0.5, 0.5], [[0.0, 0.0], [0.0, np.inf]]),
            BlockParams("poisson", 2, [0.5, 0.5], [[800.0, 0.0], [0.0, 800.0]]),
            BlockParams("dc_poisson", 1, [1.0], [[0.0]], gamma=np.r_[0.0, 0.0, 0.0, 0.0, 22.0, 22.0, 0.0, 0.0]),
            BlockParams("dc_poisson", 1, [1.0], [[0.0]], gamma=np.r_[np.inf, 0.0, -np.inf, 0.0, 0, 0, 0, 0]),
            BlockParams("dc_poisson", 1, [1.0], [[-np.inf]], gamma=np.r_[np.inf, np.zeros(7)]),
        ],
    )
    @pytest.mark.parametrize("directed", [False, True])
    def test_unsampleable_rates_raise_the_same_error(self, params, directed):
        cfg = GenConfig(8, params, directed=directed, seed=1)
        message = _outcome(sample_sbm, cfg)
        assert isinstance(message, str) and message.startswith("node pair (")
        assert _same_outcome(cfg)

    @pytest.mark.parametrize("seed", range(20))
    def test_screen_keeps_every_pair_that_can_be_nonzero(self, seed):
        # a pair is zero when its uniform is below exp(-rate); the screen may drop only such pairs
        rng = np.random.default_rng(seed)
        n, K = 50, 3
        omega = rng.uniform(-3.0, 0.5, (K, K))
        gamma = np.minimum(rng.normal(0.0, 0.3, n), 0.4)
        gamma[:2] = gamma.max()  # some pair meets the bound rate
        params = BlockParams("dc_poisson", K, np.full(K, 1 / K), omega, gamma=gamma)
        bound = generate._screen_bound(params)
        assert bound > 0
        lam = np.exp(omega)[:, :, None, None] * np.exp(gamma[:, None] + gamma[None, :])
        assert bound <= np.exp(-lam).min()

    @pytest.mark.parametrize("kind", ["poisson", "dc_poisson"])
    def test_screen_is_off_from_rate_10(self, kind):
        # from rate 10 up, a pair's zero is drawn from its own stream, so no uniform rules it out
        def bound(rate):
            gamma = np.zeros(4) if kind == "dc_poisson" else None
            return generate._screen_bound(BlockParams(kind, 2, [0.5, 0.5], np.log([[rate, 1.0], [1.0, 1.0]]), gamma=gamma))

        assert bound(9.999) == pytest.approx(np.exp(-9.999))
        assert bound(10.0) == bound(10.001) == bound(np.inf) == 0.0
