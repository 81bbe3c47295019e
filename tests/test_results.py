"""Result serialization: lossless floats, determinism, the restart driver."""

import json
import weakref
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from blockmix.graph import Network
from blockmix.mcem import McemConfig, PosteriorSummary, mcem_fit
from blockmix.models import BlockParams, GraphonStep
from blockmix.results import (
    FitResult,
    Restart,
    fit_restarts,
    from_json,
    map_restarts,
    restart_stream,
    to_json,
    worker_count,
)
from blockmix.switch import SwitchConfig, switch_fit
from blockmix.vem import VemConfig, vem_fit
from netfixtures import random_network


def _result(params, posterior=None):
    n = 4
    return FitResult(
        engine="switch",
        kind=params.kind if isinstance(params, BlockParams) else "bernoulli",
        K=params.K,
        labels=np.array([1, 2, 1, params.K]),
        node_labels=("a", "b", "c", "d"),
        params=params,
        objective=-12.345678901234567,
        trace=[-20.0, -15.5, -12.345678901234567],
        seed=42,
        config={"restarts": 3, "max_passes": 100},
        posterior=posterior,
    )


def _square(x):
    return x * x


class TestRoundTrip:
    def test_bernoulli_params(self):
        params = BlockParams("bernoulli", 2, [0.25, 0.75], [[0.1 + 0.2, 1 / 3], [1 / 3, 0.7]])
        back = from_json(to_json(_result(params)))
        assert np.array_equal(back.params.block_matrix, params.block_matrix)
        assert np.array_equal(back.params.pi, params.pi)
        assert back.params.gamma is None
        assert back.objective == -12.345678901234567
        assert back.trace[-1] == -12.345678901234567

    def test_poisson_neg_inf_cells(self):
        params = BlockParams("poisson", 2, [0.5, 0.5], [[0.3, -np.inf], [-np.inf, 1.2]])
        text = to_json(_result(params))
        assert "-Infinity" in text
        back = from_json(text)
        assert np.array_equal(back.params.block_matrix, params.block_matrix)

    def test_dc_gamma(self):
        params = BlockParams(
            "dc_poisson", 2, [0.5, 0.5], [[0.3, 0.1], [0.1, 0.9]],
            gamma=np.array([0.5, -np.inf, 1 / 7, 0.0]),
        )
        back = from_json(to_json(_result(params)))
        assert np.array_equal(back.params.gamma, params.gamma)

    def test_graphon_step(self):
        g = GraphonStep([0.0, 0.5, 0.7, 1.0], np.full((3, 3), 0.25))
        res = _result(g)
        res.labels = np.array([1, 2, 3, 3])
        back = from_json(to_json(res))
        assert isinstance(back.params, GraphonStep)
        assert np.array_equal(back.params.tau, g.tau)
        assert np.array_equal(back.params.P, g.P)

    def test_posterior_summary(self):
        params = GraphonStep([0.0, 0.4, 1.0], np.full((2, 2), 0.5))
        post = PosteriorSummary(
            np.array([[0.9, 0.1], [0.25, 0.75], [1.0, 0.0], [0.5, 0.5]]),
            np.array([0.2, 0.75, 0.0, 1.0]),
        )
        res = _result(params, posterior=post)
        res.labels = np.array([1, 2, 1, 2])
        back = from_json(to_json(res))
        assert np.array_equal(back.posterior.freq, post.freq)
        assert np.array_equal(back.posterior.gini, post.gini)

    def test_labels_and_config_preserved(self):
        params = BlockParams("bernoulli", 2, [0.5, 0.5], np.full((2, 2), 0.5))
        back = from_json(to_json(_result(params)))
        assert back.labels.tolist() == [1, 2, 1, 2]
        assert back.node_labels == ("a", "b", "c", "d")
        assert back.config == {"restarts": 3, "max_passes": 100}
        assert back.engine == "switch"
        assert back.seed == 42


class TestFormat:
    def test_byte_determinism(self):
        params = BlockParams("bernoulli", 2, [0.5, 0.5], np.full((2, 2), 1 / 3))
        assert to_json(_result(params)) == to_json(_result(params))

    def test_output_is_parseable_json(self):
        params = BlockParams("poisson", 1, [1.0], [[-np.inf]])
        res = _result(params)
        res.labels = np.array([1, 1, 1, 1])
        obj = json.loads(to_json(res))
        assert obj["schema_version"] == 1
        assert obj["params"]["block_matrix"] == [[-np.inf]]

    def test_unsupported_schema_version(self):
        params = BlockParams("bernoulli", 1, [1.0], [[0.5]])
        res = _result(params)
        res.labels = np.array([1, 1, 1, 1])
        text = to_json(res).replace('"schema_version": 1', '"schema_version": 99')
        with pytest.raises(ValueError, match="schema_version"):
            from_json(text)

    def test_missing_field_is_named(self):
        with pytest.raises(ValueError, match="malformed result file: missing field 'engine'"):
            from_json('{"schema_version": 1}')

    @pytest.mark.parametrize("name, value", [
        ("partition", None), ("K", None), ("trace", 3), ("params", {"kind": "bernoulli"}),
        ("posterior", {"freq": [[1.0]]}),
        ("partition", [1.5, 2, 1, 2]), ("partition", [1, 7, 1, 2]), ("partition", [0, 2, 1, 2]),
        ("partition", [1, "2", 1, 2]), ("partition", [1, True, 1, 2]), ("partition", [[1, 2], [1, 2]]),
        ("partition", {"a": 1}),
        ("posterior", {"freq": [[1.0, 0.0]] * 3, "gini": [1.0] * 3}),
        ("posterior", {"freq": [[1.0, 0.0, 0.0]] * 4, "gini": [1.0] * 4}),
        ("posterior", {"freq": [[1.0, 0.0]] * 4, "gini": [float("nan"), 1.0, 1.0, 1.0]}),
    ])
    def test_bad_field_is_named(self, name, value):
        params = BlockParams("bernoulli", 2, [0.5, 0.5], np.full((2, 2), 0.5))
        obj = json.loads(to_json(_result(params)))
        obj[name] = value
        with pytest.raises(ValueError, match=f"malformed result file: bad field '{name}'"):
            from_json(json.dumps(obj))

    @pytest.mark.parametrize("name, value", [
        ("node_labels", "abcd"), ("node_labels", [1, 2, 3, 4]),
        ("K", 2.5), ("K", 3), ("K", True), ("seed", 1.7), ("seed", -1), ("seed", "42"),
        ("objective", "nan"), ("objective", None), ("trace", "12"), ("trace", [1.0, "2"]),
        ("engine", 5), ("model", ["bernoulli"]), ("model", "poisson"), ("node_labels", ["a", "a", "b", "c"]),
    ])
    def test_field_of_the_wrong_type_is_named(self, name, value):
        # each of these once loaded as something else (nodes "a", "b", ...;
        # K = 2; seed 1; trace [1.0, 2.0]) or passed unchecked (a model
        # other than the params' kind, a node listed twice)
        params = BlockParams("bernoulli", 2, [0.5, 0.5], np.full((2, 2), 0.5))
        obj = json.loads(to_json(_result(params)))
        obj[name] = value
        with pytest.raises(ValueError, match=f"malformed result file: bad field '{name}'"):
            from_json(json.dumps(obj))

    @pytest.mark.parametrize("graphon, key, value", [
        (False, "K", 2.5), (False, "K", 3), (False, "K", 1),
        (True, "K", 2.5), (True, "K", 3), (True, "kind", "poisson"),
    ])
    def test_params_that_contradict_their_arrays_are_named(self, graphon, key, value):
        # "K": 2.5 once loaded as K = 2, and a graphon's kind went unread
        params = GraphonStep([0.0, 0.5, 1.0], np.full((2, 2), 0.5)) if graphon else \
            BlockParams("bernoulli", 2, [0.5, 0.5], np.full((2, 2), 0.5))
        obj = json.loads(to_json(_result(params)))
        obj["params"][key] = value
        with pytest.raises(ValueError, match="malformed result file: bad field 'params'"):
            from_json(json.dumps(obj))

    def test_whole_float_labels_load(self):
        params = BlockParams("bernoulli", 2, [0.5, 0.5], np.full((2, 2), 0.5))
        obj = json.loads(to_json(_result(params)))
        obj["partition"] = [1.0, 2.0, 1, 2]
        assert from_json(json.dumps(obj)).labels.tolist() == [1, 2, 1, 2]

    def test_non_object_is_rejected(self):
        with pytest.raises(ValueError, match="schema_version"):
            from_json("[1]")

    def test_node_labels_length_validated(self):
        params = BlockParams("bernoulli", 1, [1.0], [[0.5]])
        with pytest.raises(ValueError, match="node_labels"):
            FitResult(
                "switch", "bernoulli", 1, np.array([1, 1]), ("a",),
                params, 0.0, [0.0], 0, {},
            )


class TestRestartStream:
    def test_deterministic(self):
        a = restart_stream(3, 2, 0).random(4)
        b = restart_stream(3, 2, 0).random(4)
        assert np.array_equal(a, b)

    def test_restarts_and_engines_are_distinct(self):
        base = restart_stream(3, 2, 0).random(4)
        assert not np.array_equal(base, restart_stream(3, 2, 1).random(4))
        assert not np.array_equal(base, restart_stream(3, 1, 0).random(4))
        assert not np.array_equal(base, restart_stream(4, 2, 0).random(4))


_TIE_PARAMS = BlockParams("bernoulli", 2, [0.5, 0.5], [[0.5, 0.1], [0.1, 0.5]])


def _tied_restart(args):
    """Restarts 1 and 2 share the best objective; each labels nodes by its index."""
    net, cfg, kind, restart = args
    objective = -1.0 if restart in (1, 2) else -5.0
    labels = np.full(net.n_nodes, restart % cfg.K)
    return Restart(objective, labels, _TIE_PARAMS, [-9.0, objective], extra=restart)


def _must_not_run(args):
    raise AssertionError("a restart ran")


class TestFitRestarts:
    def _cfg(self, K, restarts=4):
        return SimpleNamespace(K=K, restarts=restarts, seed=7)

    def test_first_of_equal_objectives_wins(self, monkeypatch):
        monkeypatch.delenv("BLOCKMIX_WORKERS", raising=False)
        net = Network.from_edges(3, [(0, 1)])
        result, best, run = fit_restarts("switch", "bernoulli", _tied_restart, net, self._cfg(2), {"a": 1})
        assert best == 1
        assert run.extra == 1
        assert result.labels.tolist() == [2, 2, 2]  # restart 2 would give [1, 1, 1]
        assert result.objective == -1.0
        assert result.trace == [-9.0, -1.0]
        assert result.params is _TIE_PARAMS
        assert (result.engine, result.kind, result.K, result.seed) == ("switch", "bernoulli", 2, 7)
        assert result.node_labels == net.labels()
        assert result.config == {"a": 1}

    def test_k_above_n_raises_before_any_restart(self, monkeypatch):
        monkeypatch.delenv("BLOCKMIX_WORKERS", raising=False)
        net = Network.from_edges(3, [(0, 1)])
        with pytest.raises(ValueError, match="exceed"):
            fit_restarts("vem", "bernoulli", _must_not_run, net, self._cfg(4), {})


class _Tracked:
    """A restart record's payload, counted while it is alive."""

    alive = weakref.WeakSet()

    def __init__(self):
        _Tracked.alive.add(self)


_SEEN_ALIVE = []


def _counted_restart(args):
    """Records whose objectives rise, fall and tie; each notes how many records are alive once it exists."""
    net, cfg, kind, restart = args
    objective = [-5.0, -3.0, -4.0, -1.0, -2.0, -1.0, -6.0][restart % 7]
    record = Restart(objective, np.full(net.n_nodes, restart % cfg.K), _TIE_PARAMS, [objective], extra=_Tracked())
    _SEEN_ALIVE.append(len(_Tracked.alive))
    return record


def _fails_from_restart_5(args):
    if args[3] >= 5:
        raise RuntimeError(f"restart {args[3]} ran")
    return _tied_restart(args)


class TestLazyRestarts:
    def test_only_the_best_record_is_kept(self, monkeypatch):
        monkeypatch.delenv("BLOCKMIX_WORKERS", raising=False)
        _SEEN_ALIVE.clear()
        net = Network.from_edges(3, [(0, 1)])
        result, best, run = fit_restarts("switch", "bernoulli", _counted_restart, net,
                                         SimpleNamespace(K=2, restarts=14, seed=7), {})
        assert (best, result.objective) == (3, -1.0)  # restarts 5, 10 and 12 tie with it later
        # at most the best so far and the record just made
        assert len(_SEEN_ALIVE) == 14 and max(_SEEN_ALIVE) <= 2

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_restarts_start_before_all_arguments_exist(self, workers, monkeypatch):
        # 10**20 arguments cannot be listed first; restart 5 fails as soon as it runs
        monkeypatch.setenv("BLOCKMIX_WORKERS", workers)
        net = Network.from_edges(3, [(0, 1)])
        with pytest.raises(RuntimeError, match="restart 5 ran"):
            fit_restarts("switch", "bernoulli", _fails_from_restart_5, net,
                         SimpleNamespace(K=2, restarts=10**20, seed=7), {})

    def test_pooled_winner_is_the_serial_winner(self, monkeypatch):
        net = Network.from_edges(3, [(0, 1)])
        cfg = SimpleNamespace(K=2, restarts=9, seed=7)  # more restarts than the pool keeps in flight
        monkeypatch.delenv("BLOCKMIX_WORKERS", raising=False)
        serial = fit_restarts("switch", "bernoulli", _tied_restart, net, cfg, {})
        monkeypatch.setenv("BLOCKMIX_WORKERS", "2")
        pooled = fit_restarts("switch", "bernoulli", _tied_restart, net, cfg, {})
        assert pooled[1] == serial[1] == 1
        assert to_json(pooled[0]) == to_json(serial[0])


_BAD_COUNTS = [2.5, 2.0, True, 0, -1, "3", None]
_BAD_SEEDS = [-1, 2**64, 1.5, True, "0"]
_CONFIG_FIELDS = [
    (VemConfig, "K", _BAD_COUNTS), (VemConfig, "max_iter", _BAD_COUNTS), (VemConfig, "restarts", _BAD_COUNTS),
    (VemConfig, "seed", _BAD_SEEDS), (VemConfig, "tol", [float("nan"), float("inf"), 0.0, -1e-6, True, "1e-6"]),
    (SwitchConfig, "K", _BAD_COUNTS), (SwitchConfig, "restarts", _BAD_COUNTS),
    (SwitchConfig, "max_passes", _BAD_COUNTS), (SwitchConfig, "seed", _BAD_SEEDS),
    *((McemConfig, name, _BAD_COUNTS) for name in ("K", "em_max_iter", "sweeps_base", "sweeps_increment",
                                                    "sweeps_cap", "thinning", "restarts", "final_sweeps")),
    (McemConfig, "seed", _BAD_SEEDS),
]


@pytest.mark.parametrize("config, field, bad", _CONFIG_FIELDS,
                         ids=[f"{config.__name__}.{field}" for config, field, _ in _CONFIG_FIELDS])
def test_config_rejects_bad_values_naming_the_field(config, field, bad):
    good = {"K": 2} if field != "K" else {}
    for value in bad:
        with pytest.raises(ValueError, match=f"^{field} "):
            config(**good, **{field: value})
    # the edges of the ranges are accepted, NumPy integers too
    edge = {"seed": 2**64 - 1, "tol": 1e-300}.get(field, np.int64(1))
    assert getattr(config(**good, **{field: edge}), field) == edge


class TestMapRestarts:
    def test_serial_by_default(self, monkeypatch):
        monkeypatch.delenv("BLOCKMIX_WORKERS", raising=False)
        assert worker_count() == 1
        assert map_restarts(_square, [3, 1, 4, 1, 5]) == [9, 1, 16, 1, 25]

    def test_parallel_preserves_order(self, monkeypatch):
        monkeypatch.setenv("BLOCKMIX_WORKERS", "2")
        assert worker_count() == 2
        assert map_restarts(_square, list(range(8))) == [x * x for x in range(8)]

    def test_bad_worker_setting_ignored(self, monkeypatch):
        monkeypatch.setenv("BLOCKMIX_WORKERS", "many")
        assert worker_count() == 1


_POOLED_FITS = {
    "vem": (dict(directed=False, binary=True), lambda net: vem_fit(net, VemConfig(K=2, restarts=3, seed=5))),
    "vem-poisson-directed": (dict(directed=True, binary=False), lambda net: vem_fit(
        net, VemConfig(K=3, restarts=3, seed=5), kind="poisson")),
    "switch": (dict(directed=True, binary=False), lambda net: switch_fit(
        net, SwitchConfig(K=2, restarts=3, seed=5, kind="dc_poisson"))),
    "mcem": (dict(directed=False, binary=True), lambda net: mcem_fit(net, McemConfig(
        K=2, em_max_iter=4, sweeps_base=5, sweeps_increment=2, sweeps_cap=10,
        restarts=3, final_sweeps=30, seed=5))),
}


@pytest.mark.parametrize("engine", sorted(_POOLED_FITS))
@settings(max_examples=3, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_pooled_restarts_match_serial(engine, seed):
    # the pool pickles the network into each worker
    shape, fit = _POOLED_FITS[engine]
    net = random_network(np.random.default_rng(seed), n=10, p=0.4, **shape)
    with pytest.MonkeyPatch.context() as mp:
        mp.delenv("BLOCKMIX_WORKERS", raising=False)
        serial = to_json(fit(net))
        mp.setenv("BLOCKMIX_WORKERS", "2")
        pooled = to_json(fit(net))
    assert pooled == serial
