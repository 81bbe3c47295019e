"""Behaviour lock: sha256 of the result JSON of small fixed-seed fits.

Each case builds a small planted network from its own numpy stream (so
a change to ``blockmix.generate`` cannot move it), fits it with one
engine, and hashes ``to_json`` of the result.  mcem cases also hash the
per-iteration ``u_trace`` that ``--trace-out`` writes, and one case per
orientation pins the positions after 200 ``gibbs_sweep`` calls.
``greedy`` cases run the switch engine with ``SwitchConfig(greedy=True)``.
``vemK<K>`` cases fit vem with K = 6 or 10 to a sparse four-block graph,
where the hard warm-start candidates drain blocks and meet zero-edge
block pairs (and, at K = 10, complete block pairs with p = 1).
``switchK<K>`` cases run the switch engine with K = 1 or 4 blocks.
``mcemthin`` cases thin more than the early E steps keep, so those steps
count the chain's last state instead of a thinned sample.  ``mcembusy``
cases fit three intervals to the two planted blocks, so two intervals
share one block and the chains accept a move every few node visits.  ``delta``
cases hash ``delta_loglik`` for every single-vertex move of a random
three-block partition, for the poisson and dc_poisson kinds.

A change that is meant to be behaviour-neutral (a speed-up, a refactor)
must leave every hash here unchanged.  A change that is meant to alter
results updates the hashes and says so in CHANGES.md.

The ten ``vem*`` hashes were re-recorded when vem's soft phase moved from
the dense n x n matrix to the CSR arrays: its row sums then add only the
stored pairs, in another order than the dense BLAS products, so the last
bits of the responsibilities, parameters and bounds moved.  Every one of
the ten fits kept its partition and its trace length, and its objective
moved by at most 2.3e-13 (CHANGES.md lists each case).

No hash moved when the rounding margins and their reference fallbacks
were deleted.  The mcem sweep now decides from its scalar count-table
sum, which may differ from the former reference dot products in the last
bits; no case here meets a decision that close.  vem's hard sweep scores
runs of nodes with an expression equal bit for bit to the soft E step's
``_node_score``, the seed's own decision expression.

No hash moved either when vem's three codings of the rule 0 * (-inf) = 0
became one (``_mul``, the run scorer's own mask, and the per-node
``_reference_sweep`` that hard sweeps with a p = 1 cell took): each log
table is split once into its finite part and a -inf mask, and the
scores and bounds equal the former ones byte for byte.

The hashes belong to one NumPy/OpenBLAS build: accept/reject decisions
and likelihood sums depend on the exact floating-point results of NumPy's
logarithms, matrix products and reductions, so another build (another
BLAS kernel, or another CPU dispatch path) can move the last bits and
with them the hashes.  They were recorded with Python 3.11, NumPy 2.4.6 and the
scipy-openblas OpenBLAS 0.3.31 build (DYNAMIC_ARCH, Haswell kernels).
"""

import hashlib
from dataclasses import replace

import numpy as np
import pytest

from blockmix.graph import Network
from blockmix.mcem import McemConfig, gibbs_sweep, mcem_fit
from blockmix.models import GraphonStep, Partition
from blockmix.results import to_json
from blockmix.switch import SwitchConfig, delta_loglik, switch_fit
from blockmix.vem import VemConfig, vem_fit


def _planted(seed: int, n: int, directed: bool, count: bool, blocks: int = 2,
             p_in: float = 0.45, p_out: float = 0.08, mean: float = 2.0) -> Network:
    """Planted blocks; Bernoulli edges or Poisson counts (``mean`` times the edge rate)."""
    rng = np.random.default_rng(seed)
    z = rng.integers(0, blocks, size=n)
    rate = np.where(z[:, None] == z[None, :], p_in, p_out)
    if count:
        y = rng.poisson(mean * rate)
    else:
        y = (rng.random((n, n)) < rate).astype(np.int64)
    np.fill_diagonal(y, 0)
    if not directed:
        y = np.triu(y, 1)
    edges = {(int(i), int(j)): int(y[i, j]) for i, j in zip(*np.nonzero(y))}
    return Network.from_edges(
        n, edges, directed=directed, value_kind="count" if count else "binary",
        node_labels=[f"v{i}" for i in range(n)],
    )


def _mcem_cfg():
    return McemConfig(
        K=2, em_max_iter=8, sweeps_base=10, sweeps_increment=5, sweeps_cap=30,
        restarts=2, final_sweeps=200, seed=3,
    )


def _fit(case: str):
    engine, model, orient = case.split("-")
    directed = orient == "directed"
    count = model != "bernoulli"
    if engine.startswith("vemK"):
        # four blocks, about three neighbours per node
        net = _planted(13 if directed else 12, 80, directed, count, 4, 0.12, 0.01, 1.5)
        return vem_fit(net, VemConfig(K=int(engine[4:]), restarts=2, seed=5), kind=model)
    net = _planted(11 if directed else 7, 30, directed, count)
    if engine == "vem":
        return vem_fit(net, VemConfig(K=2, restarts=2, seed=1), kind=model)
    if engine in ("switch", "greedy"):
        return switch_fit(
            net, SwitchConfig(K=2, restarts=2, seed=2, kind=model, greedy=engine == "greedy")
        )
    if engine.startswith("switchK"):
        return switch_fit(net, SwitchConfig(K=int(engine[7:]), restarts=2, seed=4, kind=model))
    if engine == "mcemthin":
        # E steps of 3 to 5 sweeps keep no fifth sample
        cfg = McemConfig(K=3, em_max_iter=6, sweeps_base=3, sweeps_increment=1, sweeps_cap=6,
                         thinning=5, restarts=2, final_sweeps=50, seed=6)
        return mcem_fit(net, cfg)
    if engine == "mcembusy":
        return mcem_fit(net, replace(_mcem_cfg(), K=3, seed=8))
    return mcem_fit(net, _mcem_cfg())


def _digest(case: str) -> str:
    h = hashlib.sha256()
    if case.startswith("gibbs-"):
        net = _planted(5, 14, case.endswith("-directed"), False)
        g = GraphonStep([0.0, 0.35, 0.7, 1.0], [[0.6, 0.1, 0.2], [0.1, 0.5, 0.3], [0.2, 0.3, 0.4]])
        rng = np.random.default_rng(9)
        u = rng.random(net.n_nodes)
        for _ in range(200):
            u = gibbs_sweep(net, u, g, rng).u
        h.update(u.tobytes())
        return h.hexdigest()
    if case.startswith("delta-"):
        net = _planted(8, 24, case.endswith("-directed"), True)
        labels = np.random.default_rng(10).integers(1, 4, size=net.n_nodes)
        part = Partition(labels, 3)
        for kind in ("poisson", "dc_poisson"):
            for v in range(net.n_nodes):
                for to in range(1, 4):
                    if to != labels[v]:
                        move = delta_loglik(net, part, v, to, kind)
                        h.update(np.float64(move.value).tobytes() + bytes([move.empties_block]))
        return h.hexdigest()
    result = _fit(case)
    h.update(to_json(result).encode())
    for u_hat in result.extras.get("u_trace", []):
        h.update(np.asarray(u_hat, dtype=np.float64).tobytes())
    return h.hexdigest()


GOLDEN = {
    "vem-bernoulli-undirected": "e0197261636bdf99862e7dae0fdd02a5f842e1e0a38dceb321f6419027a77806",
    "vem-bernoulli-directed": "d0e2121536dadce0878cad650bf05b5f35a903f76162ab3bc4f409a2e839b11c",
    "vem-poisson-undirected": "43e580b4e4a1d3df23efb021e0f061bb3affc6f3e792665f134e888f0615ee37",
    "vem-poisson-directed": "556256bd810d00ee78b8deb85110a7f4373ff46c4e4390d18a3b8e628f3d5195",
    "vemK6-bernoulli-undirected": "a890736a5187c307c3257e286b7ca98660beb1d1f700c9586d26589a1bbced7b",
    "vemK6-bernoulli-directed": "7e9b8fc1fdb5caf410a65f5dbf8c54983d0a500f4eb4e05499407238c7b8b2a0",
    "vemK6-poisson-undirected": "37c52b757f672b60263e72012807488838574b13c84fd212bf02a533d1def3ad",
    "vemK6-poisson-directed": "2e4ca4c63e0ff45300e2e184e7841aba126b96ecae174f09cf92dd22b80dc94b",
    "vemK10-bernoulli-undirected": "f7152e8da88f6f9ad80f1e6b558e04868d988e3bf54f04e7848ae6d13da76a06",
    "vemK10-bernoulli-directed": "792ec5dfe80e52701163e634786f69cecf47e2adcfa58354bd87166c544e82e1",
    "switch-bernoulli-undirected": "54a8d44c658fe34f01cad98e97c5561c045b42775f0ed486db4b5ad5f3e9a3bf",
    "switch-bernoulli-directed": "9579e88e6740f862f369a9dfb7248acb80ddd9a87485dce56dd375b8fbc02d31",
    "switch-poisson-undirected": "93e9800dac7af74feced50eb7960fc0d0a61779008a19a0d7d08d28833f076a5",
    "switch-poisson-directed": "8f27e6374aecbb82eda655ec875bcdf44a4dff72182025c8b8ab46b4578451ba",
    "switch-dc_poisson-undirected": "5b0fe70f4c7ff121d004cb38d21ee80b1277600b88b66c443abb35d05125b8c4",
    "switch-dc_poisson-directed": "1de111c494c6aaa42309e5a038fd4b826c2c99ac57861e1b4ef4b4c9422900e9",
    "greedy-bernoulli-undirected": "6070effbf8fe795cf97013885cda1a6770be107a06d427acd042b00ace076c74",
    "greedy-dc_poisson-directed": "b5d112755524c46495cbe4a4199c2c223abc9f427e9ee9d61fbba7368e0a29ff",
    "mcem-bernoulli-undirected": "0d16664f40a355aa5244961269782108fee0c88cb8067bcd60a2fe417b2bbede",
    "mcem-bernoulli-directed": "b865224f7b23d2a73efed12a48f0a7c268323bd6c585a22b207c52cf09772199",
    "gibbs-undirected": "08de9a26930b6270420ddfb59e03b5c04d16004677e0d690a28f542638037ee5",
    "gibbs-directed": "6708a64a8759fa454d03f5aa97f5f8390615b911140cf93b54a3d36ddf4229d7",
    "switchK1-dc_poisson-undirected": "22fc0a0af6fd2ee678158176535c2566dc03cac5c74bab7c8815064d5be264b1",
    "switchK1-dc_poisson-directed": "47bef923746d7e0c899740da1e775e41e450f3102c18e5e2a33ce340af4b1840",
    "switchK4-dc_poisson-undirected": "1528fc9c71e96234883787f4c2b1c086f6960f10cee85efc9e351671fd2226c1",
    "switchK4-dc_poisson-directed": "1275762f8eac665c8c462d227b89da8edd341aa10d63581ed1b628d731f4a876",
    "mcemthin-bernoulli-undirected": "97656d5e22b1669210b8fe4d8814af71e9257aa595a5d62513b84fc7669ea7c5",
    "mcemthin-bernoulli-directed": "08cbcf63a7d4a657c04fa93074db4fc3385dbfd2404cd1a9d4bd3b067b7772d6",
    "mcembusy-bernoulli-undirected": "4eec684247fdd3e22de06c959c081ac2264916d283ded5628af850fd192571b1",
    "mcembusy-bernoulli-directed": "120a4a9d571366da893041dba3d7fea55c325f23347f87c37bf0e0e4baf77605",
    "delta-undirected": "1cb3a8795666261c94d9f4cac7f1cbd0bf07e88d401b8c17e05b1137568dddb7",
    "delta-directed": "45c3ce5ad0e832100ec0be2b5fd7ecbf6a7d716598fce478e659fc9d0c7bdaa6",
}


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_golden_hash(case, monkeypatch):
    monkeypatch.delenv("BLOCKMIX_WORKERS", raising=False)
    assert _digest(case) == GOLDEN[case]


if __name__ == "__main__":
    # print every case's digest, e.g. to record new cases against another
    # checkout's sources: PYTHONPATH=<checkout>/src python tests/test_golden.py
    import os

    os.environ.pop("BLOCKMIX_WORKERS", None)
    for case in sorted(GOLDEN):
        digest = _digest(case)
        print(f"{case} {digest} {'ok' if digest == GOLDEN[case] else 'DIFFERS'}")
