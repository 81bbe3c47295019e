"""Vertex-switching search: exact move deltas, optima, recovery."""

import itertools
import math
import warnings
import zlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from blockmix.evaluate import rand_index
from blockmix.generate import GenConfig, sample_sbm
from blockmix.graph import Network, degrees
from blockmix.models import (
    BlockParams,
    Partition,
    bernoulli_loglik,
    dc_poisson_loglik,
    mle_block_params,
    poisson_complete_loglik,
)
from blockmix import switch
from blockmix.switch import (
    MoveDelta,
    SwitchConfig,
    _Stats,
    delta_loglik,
    profile_loglik,
    switch_fit,
)
from netfixtures import random_network, random_partition
import passloop
from passloop import step_deltas

LOGLIK = {
    "bernoulli": bernoulli_loglik,
    "poisson": poisson_complete_loglik,
    "dc_poisson": dc_poisson_loglik,
}


def moved(part, vertex, to):
    labels = part.labels.copy()
    labels[vertex] = to
    return Partition(labels, part.K)


class TestMoveDeltas:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 10**6),
        # K >= 9 gives masked rows of 8 or more kept cells
        K=st.one_of(st.integers(2, 4), st.integers(9, 12)),
        directed=st.booleans(),
        kind=st.sampled_from(["bernoulli", "poisson", "dc_poisson"]),
    )
    def test_delta_equals_profile_difference(self, seed, K, directed, kind):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 13) if K <= 4 else rng.integers(10, 25))
        net = random_network(rng, n=n, directed=directed, binary=(kind == "bernoulli"))
        part = random_partition(rng, net.n_nodes, K)
        before = profile_loglik(net, part, kind)
        for vertex in range(net.n_nodes):
            for to in range(1, K + 1):
                if to == part.labels[vertex]:
                    continue
                delta = delta_loglik(net, part, vertex, to, kind)
                after = profile_loglik(net, moved(part, vertex, to), kind)
                assert delta.value == pytest.approx(after - before, abs=1e-9)

    def test_empties_block_flag(self):
        net = Network.from_edges(3, [(0, 1), (1, 2)])
        part = Partition(np.array([1, 1, 2]), 2)
        assert delta_loglik(net, part, 2, 1).empties_block
        assert not delta_loglik(net, part, 0, 2).empties_block

    def test_argument_validation(self):
        net = Network.from_edges(3, [(0, 1)])
        part = Partition(np.array([1, 1, 2]), 2)
        with pytest.raises(ValueError, match="vertex"):
            delta_loglik(net, part, 5, 2)
        with pytest.raises(ValueError, match="destination block"):
            delta_loglik(net, part, 0, 3)
        with pytest.raises(ValueError, match="current block"):
            delta_loglik(net, part, 0, 1)
        # a 4-node network: unchecked, six labels give a wrong delta and three
        # an IndexError
        net = Network.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        for labels in ([1, 1, 2, 2, 1, 2], [1, 1, 2]):
            part = Partition(np.array(labels), 2)
            with pytest.raises(ValueError, match="partition length must equal the number of nodes"):
                delta_loglik(net, part, 0, 2)
            with pytest.raises(ValueError, match="partition length must equal the number of nodes"):
                profile_loglik(net, part)

    @pytest.mark.parametrize("vertex,to,name", [
        (True, 2, "vertex"), (1.0, 2, "vertex"), (np.float64(0), 2, "vertex"),
        (0, True, "to"), (0, 2.0, "to"),
    ])
    def test_index_not_whole_rejected(self, vertex, to, name):
        # a bool would index as a mask, and True would read as block 1
        net = Network.from_edges(3, [(0, 1)])
        part = Partition(np.array([1, 1, 2]), 2)
        assert delta_loglik(net, part, np.int64(0), np.int64(2)) == delta_loglik(net, part, 0, 2)
        with pytest.raises(ValueError, match=f"^{name}\\b.*whole number"):
            delta_loglik(net, part, vertex, to)


class TestProfileLoglik:
    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 10**6),
        K=st.integers(1, 4),
        directed=st.booleans(),
        kind=st.sampled_from(["bernoulli", "poisson", "dc_poisson"]),
    )
    def test_equals_loglik_at_mle(self, seed, K, directed, kind):
        rng = np.random.default_rng(seed)
        net = random_network(rng, directed=directed, binary=(kind == "bernoulli"))
        part = random_partition(rng, net.n_nodes, K)
        params = mle_block_params(net, part, kind, allow_empty=True)
        assert profile_loglik(net, part, kind) == pytest.approx(
            LOGLIK[kind](net, part, params), abs=1e-8
        )

    def test_tolerates_empty_blocks(self):
        net = Network.from_edges(4, [(0, 1), (2, 3)])
        part = Partition(np.array([1, 1, 3, 3]), 3)
        full = profile_loglik(net, Partition(np.array([1, 1, 2, 2]), 2))
        assert profile_loglik(net, part) == pytest.approx(full)

    @pytest.mark.parametrize("hub", [10**16, 10**17, 10**18])
    def test_cancelled_dc_weight_stays_finite(self, hub):
        # block 1 holds a vertex of degree about 1e17 and one of degree 1:
        # its weight s^2 - q cancels to 0 or below in floating point, and
        # the cell term's floor keeps the objective and the moves finite
        net = Network.from_edges(4, {(0, 1): hub, (0, 2): 1, (2, 3): 1}, value_kind="count")
        part = Partition(np.array([1, 2, 1, 2]), 2)
        assert math.isfinite(profile_loglik(net, part, "dc_poisson"))
        for v in range(4):
            assert math.isfinite(delta_loglik(net, part, v, 3 - part.labels[v], "dc_poisson").value)

    def test_kind_validation(self):
        net = Network.from_edges(3, {(0, 1): 2}, value_kind="count")
        part = Partition(np.array([1, 1, 1]), 1)
        with pytest.raises(ValueError, match="model kind"):
            profile_loglik(net, part, "gaussian")
        with pytest.raises(ValueError, match="binary"):
            profile_loglik(net, part, "bernoulli")


def best_partition_by_enumeration(net, K, kind="bernoulli"):
    best = -math.inf
    for combo in itertools.product(range(1, K + 1), repeat=net.n_nodes):
        part = Partition(np.array(combo), K)
        best = max(best, profile_loglik(net, part, kind))
    return best


class TestSwitchFit:
    def test_planted_two_blocks_recovered(self):
        params = BlockParams("bernoulli", 2, [0.5, 0.5], [[0.4, 0.05], [0.05, 0.4]])
        net, truth = sample_sbm(GenConfig(60, params, seed=13))
        fit = switch_fit(net, SwitchConfig(K=2, seed=0))
        assert rand_index(fit.partition, truth).rand_index == 1.0
        assert fit.objective == pytest.approx(profile_loglik(net, fit.partition))

    def test_small_instance_attains_enumeration_optimum(self):
        rng = np.random.default_rng(21)
        net = random_network(rng, n=7, binary=True)
        fit = switch_fit(net, SwitchConfig(K=2, seed=1))
        assert fit.objective >= best_partition_by_enumeration(net, 2) - 1e-6

    def test_trace_never_decreases(self):
        rng = np.random.default_rng(22)
        net = random_network(rng, n=25, binary=True)
        fit = switch_fit(net, SwitchConfig(K=3, seed=2, restarts=3))
        assert (np.diff(fit.trace) >= -1e-9).all()
        assert fit.objective == fit.trace[-1]

    def test_poisson_kind(self):
        params = BlockParams("poisson", 2, [0.5, 0.5], np.log([[2.5, 0.2], [0.2, 2.5]]))
        net, truth = sample_sbm(GenConfig(50, params, seed=4))
        fit = switch_fit(net, SwitchConfig(K=2, seed=0, kind="poisson"))
        assert rand_index(fit.partition, truth).rand_index == 1.0
        assert fit.params.kind == "poisson"

    def test_dc_poisson_kind_ignores_degree_heterogeneity(self):
        rng = np.random.default_rng(5)
        gamma = rng.normal(0, 0.6, size=60)
        bm = np.log(np.array([[2.0, 0.1], [0.1, 2.0]]))
        params = BlockParams(
            "dc_poisson", 2, [0.5, 0.5], bm,
            gamma=gamma - np.log(np.exp(gamma).mean()),
        )
        net, truth = sample_sbm(GenConfig(60, params, seed=6))
        fit = switch_fit(net, SwitchConfig(K=2, seed=0, kind="dc_poisson"))
        assert rand_index(fit.partition, truth).rand_index >= 0.95

    def test_k1_immediate(self):
        rng = np.random.default_rng(23)
        net = random_network(rng, n=8, binary=True)
        fit = switch_fit(net, SwitchConfig(K=1))
        assert fit.labels.tolist() == [1] * 8
        assert len(fit.trace) == 1
        assert fit.objective == pytest.approx(
            profile_loglik(net, Partition(np.ones(8, dtype=int), 1))
        )

    def test_unused_block_allowed(self):
        # K exceeds the natural structure; the result may leave blocks empty
        net = Network.from_edges(4, [(0, 1), (2, 3)])
        fit = switch_fit(net, SwitchConfig(K=3, seed=0, restarts=5))
        assert fit.K == 3
        assert fit.params.pi.sum() == pytest.approx(1.0)

    def test_deterministic(self):
        rng = np.random.default_rng(24)
        net = random_network(rng, n=20, binary=True)
        a = switch_fit(net, SwitchConfig(K=3, seed=7, restarts=4))
        b = switch_fit(net, SwitchConfig(K=3, seed=7, restarts=4))
        assert np.array_equal(a.labels, b.labels)
        assert a.objective == b.objective
        assert a.trace == b.trace

    def test_input_validation(self):
        net = Network.from_edges(3, [(0, 1)])
        with pytest.raises(ValueError, match="exceed"):
            switch_fit(net, SwitchConfig(K=4))
        with pytest.raises(ValueError, match="at least 1"):
            SwitchConfig(K=0)
        with pytest.raises(ValueError, match="restarts"):
            SwitchConfig(K=2, restarts=0)


# ---------------------------------------------------------------------------
# Oracle: the per-block-pair delta code that ``_Stats.deltas`` replaced,
# copied verbatim (methods turned into functions of the stats object) except
# for its masked row sums.  NumPy's ``.sum()`` adds 8 or more cells pairwise,
# an order the kernel kept only to match this code; each such sum is now
# ``_fold``, a left fold over the kept cells in block order, the kernel's one
# order at every K.  The batched kernel must reproduce its tables bit for bit.


def _fold(cells):
    """The sum over the last axis of ``cells``, added left to right from 0.0."""
    total = 0.0
    for k in range(cells.shape[-1]):
        total = total + cells[..., k]
    return total


def _seed_xlogy(a, b):
    return np.where(a > 0, a * np.log(b), 0.0)


def _seed_cell_term(kind, e, w):
    if kind == "bernoulli":
        return _seed_xlogy(e, e) + _seed_xlogy(w - e, w - e) - _seed_xlogy(w, w)
    if kind == "poisson":
        return _seed_xlogy(e, e / np.maximum(w, 1.0))
    return _seed_xlogy(e, e / np.maximum(w, 1e-300))


def _seed_dc_weights(sizes, kappa, degsq):
    ratio = np.where(kappa > 0, sizes / kappa, 0.0)
    svec = np.where(kappa > 0, sizes, 0.0)
    qvec = degsq * ratio * ratio
    return svec, qvec, ratio


def _seed_move_deltas(st, a: int, d: int, verts: np.ndarray) -> np.ndarray:
    eo = st.vcount_out[verts]
    if st.directed:
        return _seed_move_deltas_directed(st, a, d, verts, eo)
    return _seed_move_deltas_undirected(st, a, d, verts, eo)


def _seed_move_deltas_undirected(st, a, d, verts, eo):
    K, s, n = st.K, st.sizes, st.n
    sa, sd = s[a], s[d]
    sa2, sd2 = sa - 1.0, sd + 1.0
    ua = st.edge[a].copy()
    ua[a] /= 2.0
    ud = st.edge[d].copy()
    ud[d] /= 2.0
    uad = st.edge[a, d]
    mask_a = np.ones(K, dtype=bool)
    mask_a[d] = False
    mask_d = np.ones(K, dtype=bool)
    mask_d[a] = False
    if st.kind == "dc_poisson":
        return _seed_dc_deltas_undirected(st, a, d, verts, eo, ua, ud, uad, mask_a, mask_d)
    wa, wd = sa * s, sd * s
    wa = wa.copy()
    wd = wd.copy()
    wa[a] = sa * (sa - 1.0) / 2.0
    wd[d] = sd * (sd - 1.0) / 2.0
    wad = sa * sd
    wa2, wd2 = sa2 * s, sd2 * s
    wa2 = wa2.copy()
    wd2 = wd2.copy()
    wa2[a] = sa2 * (sa2 - 1.0) / 2.0
    wd2[d] = sd2 * (sd2 - 1.0) / 2.0
    wad2 = sa2 * sd2
    before = (
        _fold(_seed_cell_term(st.kind, ua, wa)[mask_a])
        + _fold(_seed_cell_term(st.kind, ud, wd)[mask_d])
        + float(_seed_cell_term(st.kind, np.array([uad]), np.array([wad]))[0])
    )
    after = (
        _fold(_seed_cell_term(st.kind, ua[None, :] - eo, wa2[None, :])[:, mask_a])
        + _fold(_seed_cell_term(st.kind, ud[None, :] + eo, wd2[None, :])[:, mask_d])
        + _seed_cell_term(st.kind, uad + eo[:, a] - eo[:, d], np.full(verts.size, wad2))
    )
    delta = after - before
    if st.kind == "poisson":
        mix = (
            _seed_xlogy(np.array([sa2, sd2]), np.array([sa2, sd2]) / n).sum()
            - _seed_xlogy(np.array([sa, sd]), np.array([sa, sd]) / n).sum()
        )
        delta = delta + mix
    return delta


def _seed_dc_deltas_undirected(st, a, d, verts, eo, ua, ud, uad, mask_a, mask_d):
    s = st.sizes
    sa, sd = s[a], s[d]
    sa2, sd2 = sa - 1.0, sd + 1.0
    dv = st.deg[verts]
    svec, qvec, ratio = _seed_dc_weights(s, st.kappa, st.degsq)
    wa = svec[a] * svec
    wd = svec[d] * svec
    wa = wa.copy()
    wd = wd.copy()
    wa[a] = (svec[a] ** 2 - qvec[a]) / 2.0
    wd[d] = (svec[d] ** 2 - qvec[d]) / 2.0
    wad = svec[a] * svec[d]
    before = (
        _fold(_seed_cell_term(st.kind, ua, wa)[mask_a])
        + _fold(_seed_cell_term(st.kind, ud, wd)[mask_d])
        + float(_seed_cell_term(st.kind, np.array([uad]), np.array([wad]))[0])
        + float(_seed_xlogy(st.kappa[a], ratio[a]) + _seed_xlogy(st.kappa[d], ratio[d]))
    )
    ka2 = st.kappa[a] - dv
    kd2 = st.kappa[d] + dv
    qa_deg = st.degsq[a] - dv * dv
    qd_deg = st.degsq[d] + dv * dv
    ra2 = np.where(ka2 > 0, sa2 / ka2, 0.0)
    rd2 = np.where(kd2 > 0, sd2 / kd2, 0.0)
    sva2 = np.where(ka2 > 0, sa2, 0.0)
    svd2 = np.where(kd2 > 0, sd2, 0.0)
    qa2 = qa_deg * ra2 * ra2
    qd2 = qd_deg * rd2 * rd2
    wa2 = sva2[:, None] * svec[None, :]
    wd2 = svd2[:, None] * svec[None, :]
    wa2[:, a] = (sva2 ** 2 - qa2) / 2.0
    wd2[:, d] = (svd2 ** 2 - qd2) / 2.0
    wad2 = sva2 * svd2
    after = (
        _fold(_seed_cell_term(st.kind, ua[None, :] - eo, wa2)[:, mask_a])
        + _fold(_seed_cell_term(st.kind, ud[None, :] + eo, wd2)[:, mask_d])
        + _seed_cell_term(st.kind, uad + eo[:, a] - eo[:, d], wad2)
        + _seed_xlogy(ka2, ra2)
        + _seed_xlogy(kd2, rd2)
    )
    return after - before


def _seed_move_deltas_directed(st, a, d, verts, eo):
    K, s, n = st.K, st.sizes, st.n
    ei = st.vcount_in[verts]
    sa, sd = s[a], s[d]
    sa2, sd2 = sa - 1.0, sd + 1.0
    row_a, row_d = st.edge[a].copy(), st.edge[d].copy()
    col_a, col_d = st.edge[:, a].copy(), st.edge[:, d].copy()
    mask = np.ones(K, dtype=bool)
    mask[a] = False
    mask[d] = False
    if st.kind == "dc_poisson":
        dv = st.deg[verts]
        svec, qvec, ratio = _seed_dc_weights(s, st.kappa, st.degsq)
        wrow_a = svec[a] * svec
        wrow_d = svec[d] * svec
        ka2 = st.kappa[a] - dv
        kd2 = st.kappa[d] + dv
        ra2 = np.where(ka2 > 0, sa2 / ka2, 0.0)
        rd2 = np.where(kd2 > 0, sd2 / kd2, 0.0)
        sva2 = np.where(ka2 > 0, sa2, 0.0)
        svd2 = np.where(kd2 > 0, sd2, 0.0)
        qa2 = (st.degsq[a] - dv * dv) * ra2 * ra2
        qd2 = (st.degsq[d] + dv * dv) * rd2 * rd2
        wrow_a2 = sva2[:, None] * svec[None, :]
        wrow_d2 = svd2[:, None] * svec[None, :]
        corners_w = (
            svec[a] ** 2 - qvec[a],
            wrow_a[d],
            wrow_a[d],
            svec[d] ** 2 - qvec[d],
        )
        corners_w2 = (
            sva2 ** 2 - qa2,
            sva2 * svd2,
            sva2 * svd2,
            svd2 ** 2 - qd2,
        )
        extra = float(_seed_xlogy(st.kappa[a], ratio[a]) + _seed_xlogy(st.kappa[d], ratio[d]))
        extra2 = _seed_xlogy(ka2, ra2) + _seed_xlogy(kd2, rd2)
    else:
        wrow_a, wrow_d = sa * s, sd * s
        wrow_a2 = np.broadcast_to(sa2 * s, (verts.size, K))
        wrow_d2 = np.broadcast_to(sd2 * s, (verts.size, K))
        corners_w = (sa * (sa - 1.0), sa * sd, sa * sd, sd * (sd - 1.0))
        ones = np.ones(verts.size)
        corners_w2 = (
            sa2 * (sa2 - 1.0) * ones,
            sa2 * sd2 * ones,
            sa2 * sd2 * ones,
            sd2 * (sd2 - 1.0) * ones,
        )
        extra = 0.0
        extra2 = np.zeros(verts.size)
        if st.kind == "poisson":
            extra = float(_seed_xlogy(np.array([sa, sd]), np.array([sa, sd]) / n).sum())
            extra2 = np.full(
                verts.size,
                float(_seed_xlogy(np.array([sa2, sd2]), np.array([sa2, sd2]) / n).sum()),
            )
    corners_e = (
        st.edge[a, a],
        st.edge[a, d],
        st.edge[d, a],
        st.edge[d, d],
    )
    corners_e2 = (
        corners_e[0] - eo[:, a] - ei[:, a],
        corners_e[1] - eo[:, d] + ei[:, a],
        corners_e[2] + eo[:, a] - ei[:, d],
        corners_e[3] + eo[:, d] + ei[:, d],
    )
    before = (
        _fold(_seed_cell_term(st.kind, row_a, wrow_a)[mask])
        + _fold(_seed_cell_term(st.kind, row_d, wrow_d)[mask])
        + _fold(_seed_cell_term(st.kind, col_a, wrow_a)[mask])
        + _fold(_seed_cell_term(st.kind, col_d, wrow_d)[mask])
        + sum(
            float(_seed_cell_term(st.kind, np.array([e]), np.array([w]))[0])
            for e, w in zip(corners_e, corners_w)
        )
        + extra
    )
    after = (
        _fold(_seed_cell_term(st.kind, row_a[None, :] - eo, wrow_a2)[:, mask])
        + _fold(_seed_cell_term(st.kind, row_d[None, :] + eo, wrow_d2)[:, mask])
        + _fold(_seed_cell_term(st.kind, col_a[None, :] - ei, wrow_a2)[:, mask])
        + _fold(_seed_cell_term(st.kind, col_d[None, :] + ei, wrow_d2)[:, mask])
        + sum(
            _seed_cell_term(st.kind, e2, np.asarray(w2))
            for e2, w2 in zip(corners_e2, corners_w2)
        )
        + extra2
    )
    return after - before


def _seed_step_deltas(st, active: np.ndarray) -> np.ndarray:
    D = np.full((st.n, st.K), -np.inf)
    for a in range(st.K):
        verts = np.flatnonzero(active & (st.z == a))
        if verts.size == 0:
            continue
        for d in range(st.K):
            if d == a:
                continue
            D[verts, d] = _seed_move_deltas(st, a, d, verts)
    return D


def _oracle_network(rng, n, directed, binary):
    """Random network with three isolated nodes; count values reach 3n."""
    perm = rng.permutation(n)
    edges = {}
    for i in range(n - 3):
        for j in range(n - 3):
            if i == j or (not directed and i > j) or rng.random() >= 0.35:
                continue
            v = 1 if binary else int(rng.integers(1, 3 * n))
            edges[(int(perm[i]), int(perm[j]))] = v
    return Network.from_edges(
        n, edges, directed=directed, value_kind="binary" if binary else "count",
        node_labels=tuple(str(i) for i in range(n)),
    )


def _seed_bytes(fn, *args):
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.asarray(fn(*args), dtype=np.float64).tobytes()


class TestBatchedDeltasOracle:
    """``_Stats.deltas`` against the seed's per-block-pair code, bit for bit.

    The seed code is copied verbatim except that its masked row sums are
    left folds (``_fold``): the kernel sums every row in that one order,
    and at K = 10 (rows of 8 or more kept cells) the fold tells it apart
    from NumPy's pairwise ``.sum()``.  bernoulli and poisson run with
    moved-row cells always tabulated (table_ratio 0), by the default rule,
    and never tabulated (inf).
    """

    @pytest.mark.parametrize("K", [2, 3, 5, 10])
    @pytest.mark.parametrize("directed", [False, True])
    @pytest.mark.parametrize("kind,table_ratio", [
        *[(kind, r) for kind in ("bernoulli", "poisson") for r in (0, _Stats.table_ratio, math.inf)],
        ("dc_poisson", _Stats.table_ratio),
    ])
    def test_step_tables_and_delta_loglik_byte_equal(self, kind, table_ratio, directed, K, monkeypatch):
        monkeypatch.setattr(_Stats, "table_ratio", table_ratio)
        rng = np.random.default_rng(1000 * K + 10 * directed + len(kind))
        n = 24
        net = _oracle_network(rng, n, directed, binary=(kind == "bernoulli"))
        # block K - 1 starts empty; the random moves below fill and empty others
        stats = _Stats(net, rng.integers(0, K - 1, size=n), K, kind)
        for _ in range(8):
            active = rng.random(n) < 0.7
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                table = step_deltas(stats, active)
            assert table.tobytes() == _seed_bytes(_seed_step_deltas, stats, active)
            v = int(rng.integers(n))
            stats.apply(v, int((stats.z[v] + rng.integers(1, K)) % K))

        part = Partition(stats.z + 1, K)
        for v in range(n):
            a = int(stats.z[v])
            for d in range(K):
                if d == a:
                    continue
                with warnings.catch_warnings():
                    warnings.simplefilter("error", RuntimeWarning)
                    value = delta_loglik(net, part, v, d + 1, kind).value
                expect = _seed_bytes(_seed_move_deltas, stats, a, d, np.array([v]))
                assert np.float64(value).tobytes() == expect

    @pytest.mark.parametrize("directed", [False, True])
    def test_cells_without_pairs_after_rounding_byte_equal(self, directed):
        # count values past 2**53 sum exactly in the int64 tables: once vertex
        # 1 leaves block 0, cell (0, 1) holds vertex 0's values and nothing
        # more, so no poisson cell has values and no pairs, and the oracle's
        # floor of 1 agrees with the kernel's 1e-300; block 0 of the dc_poisson
        # network has a weight s^2 - q that cancels to 0 or below in rounding
        net = Network.from_edges(3, {(0, 2): 2**53 + 2, (1, 2): 1}, directed=directed, value_kind="count")
        stats = _Stats(net, np.array([0, 0, 1]), 3, "poisson")
        stats.apply(1, 2)
        hub = Network.from_edges(4, {(0, 1): 10**17, (0, 2): 1, (2, 3): 1}, directed=directed, value_kind="count")
        for st in (stats, _Stats(hub, np.array([0, 1, 0, 1]), 2, "dc_poisson")):
            active = np.ones(st.n, dtype=bool)
            assert step_deltas(st, active).tobytes() == _seed_bytes(_seed_step_deltas, st, active)


def _past_2_53_network(rng, n, directed):
    """Count network whose vertex degrees lie in 2**53..2**56.

    Each vertex sends two edges, with values drawn freely in 2**52..2**53, so
    sums of the values round in float64, and so do dc_poisson's block degree
    sums and squared-degree sums unless moves recount them.
    """
    edges = {}
    for i in range(n):
        for j in rng.choice([j for j in range(n) if j != i], size=2, replace=False).tolist():
            key = (i, j) if directed else (min(i, j), max(i, j))
            edges[key] = edges.get(key, 0) + int(rng.integers(2**52, 2**53))
    net = Network.from_edges(n, edges, directed=directed, value_kind="count")
    assert 2**53 <= degrees(net).min() and degrees(net).max() < 2**56
    return net


def _assert_same_tables(stats, fresh):
    for name in ("z", "edge", "vcount_out", "vcount_in", "_blocks"):
        a, b = getattr(stats, name), getattr(fresh, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


class TestExactTables:
    @pytest.mark.parametrize("kind", ["bernoulli", "poisson", "dc_poisson"])
    @pytest.mark.parametrize("directed", [False, True])
    def test_moves_and_rewinds_equal_fresh(self, kind, directed):
        # moves, some of which empty a block, then the rewind a pass makes past
        # its best prefix: every state's tables are the ones built from its labels
        rng = np.random.default_rng(61 + 2 * directed + len(kind))
        n, K = 16, 3
        net = _oracle_network(rng, n, directed, binary=(kind == "bernoulli"))
        z0 = np.repeat([0, 1, 2], [1, 7, 8])  # block 0 holds one vertex
        stats, moves, emptied = _Stats(net, z0, K, kind), [], 0
        for step in range(40):
            sizes = np.bincount(stats.z, minlength=K)
            if step % 4 == 0 and (sizes == 1).any():  # move the last member of a block
                v = int(np.flatnonzero(stats.z == np.flatnonzero(sizes == 1)[0])[0])
            else:
                v = int(rng.integers(n))
            moves.append((v, int(stats.z[v])))
            stats.apply(v, int((stats.z[v] + rng.integers(1, K)) % K))
            emptied += bool((stats.sizes == 0).any())
            _assert_same_tables(stats, _Stats(net, stats.z, K, kind))
        assert emptied
        for v, prev in reversed(moves):
            stats.apply(v, prev)
            _assert_same_tables(stats, _Stats(net, stats.z, K, kind))
        assert np.array_equal(stats.z, z0)

    @pytest.mark.parametrize("kind", ["poisson", "dc_poisson"])
    @pytest.mark.parametrize("directed", [False, True])
    def test_moved_stats_equal_fresh_past_2_53(self, kind, directed):
        # whole-number tables stay exact under any sequence of moves, so the
        # moved state is the state built from its labels, byte for byte
        rng = np.random.default_rng(53 + 2 * directed + len(kind))
        n, K = 12, 3
        net = _past_2_53_network(rng, n, directed)
        stats = _Stats(net, rng.integers(0, K, size=n), K, kind)
        active = np.ones(n, dtype=bool)
        for _ in range(40):
            v = int(rng.integers(n))
            stats.apply(v, int((stats.z[v] + rng.integers(1, K)) % K))
            fresh = _Stats(net, stats.z, K, kind)
            _assert_same_tables(stats, fresh)
            assert step_deltas(stats, active).tobytes() == step_deltas(fresh, active).tobytes()
            assert np.float64(stats.objective()).tobytes() == np.float64(fresh.objective()).tobytes()

    def test_dropped_cells_without_pairs(self):
        # once vertex 1 leaves the two-member block 0, the directed kernel's
        # dropped diagonal cell of block 0 holds (y_01 - y_10) / 2 and no pairs
        net = Network.from_edges(3, {(0, 1): 2**40, (1, 0): 1, (1, 2): 1}, directed=True, value_kind="count")
        stats = _Stats(net, np.array([0, 0, 1]), 2, "poisson")
        active = np.ones(3, dtype=bool)
        assert step_deltas(stats, active).tobytes() == _seed_bytes(_seed_step_deltas, stats, active)


class TestCornerTableEdges:
    """Tabulated steps (table_ratio 0) at the edges of their tables, against the seed code.

    The undirected kernel gathers the cell (z_v, d) that both touched rows
    share from a table over t = e_{v z_v} - e_{v d}; these cases put t at
    both ends of its range, grow V between steps, and hold empty and
    single-vertex blocks.
    """

    @staticmethod
    def _check(stats):
        active = np.ones(stats.n, dtype=bool)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            table = step_deltas(stats, active)
        assert table.tobytes() == _seed_bytes(_seed_step_deltas, stats, active)

    @staticmethod
    def _network(n, edges, directed, kind):
        value = 1 if kind == "bernoulli" else 3
        return Network.from_edges(n, {e: value for e in edges}, directed=directed,
                                  value_kind="binary" if kind == "bernoulli" else "count")

    @pytest.mark.parametrize("kind", ["bernoulli", "poisson"])
    @pytest.mark.parametrize("directed", [False, True])
    def test_whole_degree_in_own_or_destination_block(self, kind, directed, monkeypatch):
        # vertex 0 has all six neighbours in its own block (t = V - 1), and
        # vertex 7 all six in block 1, which it may join (t = -(V - 1))
        monkeypatch.setattr(_Stats, "table_ratio", 0)
        edges = [(0, j) for j in range(1, 7)] + [(7, j) for j in range(8, 14)] + [(14, 15)]
        net = self._network(16, edges, directed, kind)
        z = np.zeros(16, dtype=np.int64)
        z[8:14], z[14:] = 1, 2
        stats = _Stats(net, z, 3, kind)
        x = stats.vcount_out + stats.vcount_in if directed else stats.vcount_out
        assert x[0, 0] == x[7, 1] == x.max() and x[0, 1:].max() == x[7, 0] == 0
        self._check(stats)

    @pytest.mark.parametrize("kind", ["bernoulli", "poisson"])
    @pytest.mark.parametrize("directed", [False, True])
    def test_count_bound_grows_between_steps(self, kind, directed, monkeypatch):
        # the hub's neighbours start two to a block and join block 1 one by one,
        # so the largest count, and with it V, grows from step to step
        monkeypatch.setattr(_Stats, "table_ratio", 0)
        net = self._network(9, [(0, j) for j in range(1, 7)] + [(7, 8)], directed, kind)
        stats = _Stats(net, np.array([0, 0, 0, 1, 1, 2, 2, 0, 1]), 3, kind)
        bounds = []
        for v in (1, 2, 5, 6):
            self._check(stats)
            bounds.append(int(stats.vcount_out.max()))
            stats.apply(v, 1)
        self._check(stats)
        assert bounds == sorted(set(bounds)) and stats.vcount_out[0, 1] == stats.vcount_out.max() > bounds[-1]

    @pytest.mark.parametrize("kind", ["bernoulli", "poisson"])
    @pytest.mark.parametrize("directed", [False, True])
    def test_empty_and_single_vertex_source_blocks(self, kind, directed, monkeypatch):
        # block 2 holds vertex 4 alone and block 3 is empty; moving vertex 4
        # out leaves two empty blocks
        monkeypatch.setattr(_Stats, "table_ratio", 0)
        edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 3)]
        net = self._network(6, edges, directed, kind)
        stats = _Stats(net, np.array([0, 0, 1, 1, 2, 1]), 4, kind)
        self._check(stats)
        stats.apply(4, 0)
        assert (stats.sizes == 0).sum() == 2
        self._check(stats)


def _restart_bytes(restart):
    return (np.array(restart.trace).tobytes(), restart.labels.astype(np.int64).tobytes(),
            np.float64(restart.objective).tobytes())


class TestPassLoopOracle:
    """``switch._run_restart`` against ``passloop.run_restart``, byte for byte.

    The engine scores the active vertices alone and takes the flat argmax
    of their rows; the oracle fills the (n, K) table, with -inf rows for
    the moved vertices, and takes the flat argmax of all of it.
    """

    @pytest.mark.parametrize("table_ratio", [0, _Stats.table_ratio, math.inf])
    @pytest.mark.parametrize("K", [2, 3, 5, 10])
    @pytest.mark.parametrize("directed", [False, True])
    @pytest.mark.parametrize("kind", ["bernoulli", "poisson", "dc_poisson"])
    def test_restarts_byte_equal(self, kind, directed, K, table_ratio, monkeypatch):
        monkeypatch.setattr(_Stats, "table_ratio", table_ratio)
        rng = np.random.default_rng(100 * K + 10 * directed + len(kind))
        net = _oracle_network(rng, 30, directed, binary=(kind == "bernoulli"))
        cfg = SwitchConfig(K=K, seed=K + directed, kind=kind)
        for restart in range(2):
            args = (net, cfg, kind, restart)
            expect = passloop.run_restart(args)
            assert len(expect.trace) > 2
            assert _restart_bytes(switch._run_restart(args)) == _restart_bytes(expect)

    @pytest.mark.parametrize("directed", [False, True])
    def test_scripted_ties_nan_and_no_finite_entry(self, directed, monkeypatch):
        # each step's table is drawn, from the state, among a few values, so
        # ties are common; some tables hold NaNs, and some only -inf, where
        # the oracle's argmax over all n rows moves vertex 0 even when it has
        # moved already: the pass rewinds that step and all later ones, so
        # the restart's result must not depend on it
        seen = {"tie": 0, "nan": 0, "none finite, vertex 0 moved": 0}

        def scripted(stats, verts):
            r = np.random.default_rng(zlib.crc32(verts.tobytes() + stats.z.tobytes()))
            table = r.choice([-1.0, 0.0, 0.5], size=(verts.size, stats.K))
            mode = int(r.integers(6))
            if mode == 0:
                table[:] = -np.inf
                seen["none finite, vertex 0 moved"] += bool(verts[0])
            elif mode == 1:
                table[r.integers(verts.size, size=2), r.integers(stats.K, size=2)] = np.nan
            table[np.arange(verts.size), stats.z[verts]] = -np.inf
            seen["nan"] += bool(np.isnan(table).any())
            seen["tie"] += int((table == np.nanmax(table)).sum() > 1) if mode else 0
            return table

        monkeypatch.setattr(_Stats, "deltas", scripted)
        rng = np.random.default_rng(7 + directed)
        net = _oracle_network(rng, 12, directed, binary=True)
        cfg = SwitchConfig(K=3, seed=int(directed), max_passes=4)
        for restart in range(3):
            args = (net, cfg, "bernoulli", restart)
            assert _restart_bytes(switch._run_restart(args)) == _restart_bytes(passloop.run_restart(args))
        assert min(seen.values()) > 0, seen
