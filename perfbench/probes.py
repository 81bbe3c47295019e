"""Step probes: fixed numbers of calls to the engines' public step functions.

The fit commands never call ``vem.e_step``, ``switch.delta_loglik`` or
``mcem.gibbs_sweep`` (the engines use private loops), so a traced fit
cannot time them.  These probes call them directly on the workload's own
network, at the parameters its fit commands produced.  An engine the
workload does not fit is not probed, and its metrics read 0.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

from blockmix import mcem, switch, vem
from blockmix.graph import load_edge_list
from blockmix.results import from_json

import workloads

CALLS = 7  # calls per step function
SWEEPS = 20  # chained Gibbs sweeps
PROBE_SEED = 0

METRICS = ("vem.e_step.ms", "vem.m_step.ms", "vem.elbo.ms", "switch.delta_loglik.ms",
           "switch.kl_pass.s", "mcem.gibbs_sweep.ms", "mcem.accept_rate", "mcem.m_step.ms")


def _median_ms(fn, calls: int = CALLS) -> float:
    times = []
    for _ in range(calls):
        start = perf_counter()
        fn()
        times.append(perf_counter() - start)
    return statistics.median(times) * 1e3


def probe_vem(net, result) -> dict[str, float]:
    resp = np.eye(result.K)[result.labels - 1]
    state = vem.VariationalState(resp, result.params, 0.0)
    return {
        "vem.e_step.ms": _median_ms(lambda: vem.e_step(net, state)),
        "vem.m_step.ms": _median_ms(lambda: vem.m_step(net, state)),
        "vem.elbo.ms": _median_ms(lambda: vem.elbo(net, state)),
    }


def probe_switch(net, result) -> dict[str, float]:
    part = result.partition
    vertices = iter(np.linspace(0, net.n_nodes - 1, CALLS).astype(int).tolist())

    def one_move():
        v = next(vertices)
        switch.delta_loglik(net, part, v, int(part.labels[v]) % part.K + 1, result.kind)

    start = perf_counter()
    switch.switch_fit(net, switch.SwitchConfig(K=result.K, restarts=1, max_passes=1,
                                               seed=PROBE_SEED, kind=result.kind))
    kl_pass = perf_counter() - start
    return {"switch.delta_loglik.ms": _median_ms(one_move), "switch.kl_pass.s": kl_pass}


def probe_mcem(net, result) -> dict[str, float]:
    g = result.params
    mids = (g.tau[:-1] + g.tau[1:]) / 2
    u = mids[result.labels - 1]
    rng = np.random.Generator(np.random.Philox(PROBE_SEED))
    times, moved = [], 0
    for _ in range(SWEEPS):
        start = perf_counter()
        nxt = mcem.gibbs_sweep(net, u, g, rng).u
        times.append(perf_counter() - start)
        moved += int(np.count_nonzero(nxt != u))
        u = nxt
    return {
        "mcem.gibbs_sweep.ms": statistics.median(times) * 1e3,
        "mcem.accept_rate": moved / (SWEEPS * net.n_nodes),
        "mcem.m_step.ms": _median_ms(lambda: mcem.m_step(net, u, g, 1.0, g.K)),
    }


PROBES = {"fit_vem": probe_vem, "fit_switch": probe_switch, "fit_mcem": probe_mcem}


def run(w: workloads.Workload) -> dict[str, float]:
    """Probe each engine the workload fits, at its first fit's result."""
    metrics = dict.fromkeys(METRICS, 0.0)
    fits = {}
    for cmd in w.commands:
        fits.setdefault(cmd.group, cmd)
    todo = [group for group in PROBES if group in fits]
    if not todo:
        return metrics
    text = w.graph.edges.read_text(encoding="utf-8")
    net = load_edge_list(text, directed=w.graph.directed, value_kind="count" if w.count else "binary")
    for group in todo:
        result = from_json(fits[group].out.read_text(encoding="utf-8"))
        metrics.update(PROBES[group](net, result))
    return metrics
