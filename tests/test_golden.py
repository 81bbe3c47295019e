"""Behaviour lock: sha256 of the result JSON of small fixed-seed fits.

Each case builds a small planted network from its own numpy stream (so
a change to ``blockmix.generate`` cannot move it), fits it with one
engine, and hashes ``to_json`` of the result.  mcem cases also hash the
winning restart's per-iteration positions that ``--trace-out`` writes
(from ``mcem_fit_positions``), and one case per orientation pins the
positions after 200 ``gibbs_sweep`` calls.
``vemK<K>`` cases fit vem with K = 6 or 10 to a sparse four-block graph,
where the hard warm-start candidates drain blocks and meet zero-edge
block pairs (and, at K = 10, complete block pairs with p = 1).
``switchK<K>`` cases run the switch engine with K = 1, 4 or 10 blocks.
``switchtab`` cases fit K = 4 to a sparse 200-node graph of four blocks,
whose small neighbour-block counts send most KL steps down the tabulated
path of ``_Stats.deltas`` (the K <= 4 cases above take it on no step);
they were recorded before that path gathered the shared cell (z_v, d)
from a table and masked rows by index, and kept their hashes.
The six K = 10 cases, where a masked row of ``_Stats.deltas`` sums 8 or
more kept cells, were recorded before those rows became left folds in
block order (they had copied NumPy's pairwise order), and kept their hashes.
``mcemthin`` cases thin more than the early E steps keep, so those steps
count the chain's last state instead of a thinned sample.  ``mcembusy``
cases fit three intervals to the two planted blocks, so two intervals
share one block and the chains accept a move every few node visits.
``mcemK6`` cases fit six intervals to the two planted blocks, so most of
the 30 move tables belong to empty or unused intervals and the last M
step leaves zero-width intervals; they were recorded before each graphon
built all its move tables at once.  ``mcemquiet`` cases fit a 40-node
graph of two well-separated blocks with ``final_sweeps=2000``: the final
chain moves a node about once in 2000 sweeps, so its screened runs of
visits span many sweeps and many draws of uniforms.  They were recorded
before the chains screened runs of visits in NumPy, and kept their hashes.  ``delta``
cases hash ``delta_loglik`` for every single-vertex move of a random
three-block partition, for the poisson and dc_poisson kinds.  ``sample``
cases hash the edge-list text and the labels of one ``sample_sbm`` draw of
60 nodes and K = 3 per kind and orientation; one cell's Poisson rate is
15, so the per-pair stream branch runs.  ``parse`` cases hash the node
labels and CSR arrays that ``load_edge_list`` reads from one fixed ASCII
count text per orientation, whose repeated lines sum and whose values
include tokens that only ``int`` reads (``+1``, ``1_0``, 19 or more
digits) next to plain digits of up to 18; they were recorded before the
tokenizer read plain digits itself, and kept their hashes.  ``loglik`` cases
hash one model kind's log-likelihood at the MLE and at perturbed parameters
of two four-block partitions of a 20-node network, whose inputs hold p = 0
and p = 1 cells (zero rates), an empty block and -inf gammas; they were
recorded before the likelihoods and vem's bound shared one pair term
(``models._pair_term``), and kept their hashes.  ``deltas`` cases hash the
tables of ``step_deltas`` (``tests/passloop.py``) for one model kind
over a few moves of a 30-node network with four blocks (one of them a single vertex, one empty,
and an isolated node), once with every moved row tabulated (table ratio 0)
and once with none (inf); they were recorded before switch's pair weights
became one rule (``_Stats._weights``), and kept their hashes.

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
bits; no case here meets a decision that close.  vem's hard sweep then
scored runs of nodes with an expression equal bit for bit to the soft E
step's per-node score, the seed's own decision expression.

No mcem or gibbs hash moved when the chain began to screen runs of visits
in NumPy and to walk only the visits that might be accepted: a screen's
log ratios are the walk's own left folds, double for double.

No hash moved either when vem's three codings of the rule 0 * (-inf) = 0
became one (``_mul``, the run scorer's own mask, and the per-node
``_reference_sweep`` that hard sweeps with a p = 1 cell took): each log
table is split once into its finite part and a -inf mask, and the
scores and bounds equal the former ones byte for byte.

Seven of the ten ``vem*`` hashes were re-recorded when vem's two node
scorers (the soft E step's per-node expression and the hard sweep's run
scorer) became one regrouped scorer, ``vem._scorer``: a dot product per
block of the node's coefficients with log pi, A - B and B (or log lambda
and -lambda), in place of the seed's term-by-term sums.  The sums round
differently, so the last bits of the responsibilities, parameters,
bounds and trace moved.  Every one of the ten fits kept its partition
and its trace length, and its objective moved by at most 2.3e-13;
``vem-bernoulli-directed`` and both ``vem-poisson`` cases kept their
bytes (CHANGES.md lists each case).

Nine of the ten ``vem*`` hashes were re-recorded when a fit's soft E step
became one update of every node at once, from the rows before the step,
guarded by halving the step until the bound does not drop
(``vem._all_rows`` and ``vem._guarded_step``), in place of the sequential
sweep.  ``vem-poisson-directed`` kept its bytes.  The three other K = 2
cases kept their partitions and trace lengths, and their objectives moved
by at most 2.6e-8.  The six ``vemK6`` and ``vemK10`` cases, which fit too
many blocks, stopped at other partitions, five of them at a higher
objective (CHANGES.md lists each case).

The ten ``switch*`` hashes were re-recorded when ``SwitchConfig`` lost
its ``greedy`` field (and the ``greedy`` cases went with it): the result
JSON echoes the configuration, so each file lost its ``"greedy": false``
line and the comma before it.  Partitions, objectives and traces stayed
byte for byte the same (CHANGES.md shows the diff of each case).

The six ``sample`` hashes were recorded from the sampler that enumerated
all n(n-1)/2 candidate pairs at once, before it drew them in row blocks;
the row blocks draw the same uniforms in the same order and kept them.

The hashes belong to one NumPy/OpenBLAS build: accept/reject decisions
and likelihood sums depend on the exact floating-point results of NumPy's
logarithms, matrix products and reductions, so another build (another
BLAS kernel, or another CPU dispatch path) can move the last bits and
with them the hashes.  They were recorded with Python 3.11, NumPy 2.4.6 and the
scipy-openblas OpenBLAS 0.3.31 build (DYNAMIC_ARCH, Haswell kernels).
"""

import hashlib
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

if __name__ == "__main__":  # run as a script: this checkout's sources, after any on PYTHONPATH
    sys.path.append(str(Path(__file__).resolve().parents[1] / "src"))

from blockmix.generate import GenConfig, sample_sbm
from blockmix.graph import Network, load_edge_list, to_edge_list_text
from blockmix.mcem import McemConfig, gibbs_sweep, mcem_fit_positions
from blockmix.models import (
    BlockParams, GraphonStep, Partition, bernoulli_loglik, dc_poisson_loglik, mle_block_params,
    poisson_complete_loglik,
)
from blockmix.results import to_json
from blockmix.switch import SwitchConfig, _Stats, delta_loglik, switch_fit
from blockmix.vem import VemConfig, vem_fit
from passloop import step_deltas


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


def _switchtab_network(directed: bool, count: bool) -> Network:
    """200 nodes in four sparse blocks: the neighbour-block counts stay small, so most KL steps tabulate."""
    return _planted(21 + directed, 200, directed, count, 4, 0.08, 0.01, 1.5)


def _mcem_cfg():
    return McemConfig(
        K=2, em_max_iter=8, sweeps_base=10, sweeps_increment=5, sweeps_cap=30,
        restarts=2, final_sweeps=200, seed=3,
    )


def _fit(case: str):
    """The case's result and, for mcem, the winning restart's positions."""
    engine, model, orient = case.split("-")
    directed = orient == "directed"
    count = model != "bernoulli"
    if engine.startswith("vemK"):
        # four blocks, about three neighbours per node
        net = _planted(13 if directed else 12, 80, directed, count, 4, 0.12, 0.01, 1.5)
        return vem_fit(net, VemConfig(K=int(engine[4:]), restarts=2, seed=5), kind=model), []
    if engine == "switchtab":
        return switch_fit(_switchtab_network(directed, count), SwitchConfig(K=4, restarts=2, seed=4, kind=model)), []
    net = _planted(11 if directed else 7, 30, directed, count)
    if engine == "vem":
        return vem_fit(net, VemConfig(K=2, restarts=2, seed=1), kind=model), []
    if engine == "switch":
        return switch_fit(net, SwitchConfig(K=2, restarts=2, seed=2, kind=model)), []
    if engine.startswith("switchK"):
        return switch_fit(net, SwitchConfig(K=int(engine[7:]), restarts=2, seed=4, kind=model)), []
    if engine == "mcemthin":
        # E steps of 3 to 5 sweeps keep no fifth sample
        cfg = McemConfig(K=3, em_max_iter=6, sweeps_base=3, sweeps_increment=1, sweeps_cap=6,
                         thinning=5, restarts=2, final_sweeps=50, seed=6)
        return mcem_fit_positions(net, cfg)
    if engine == "mcembusy":
        return mcem_fit_positions(net, replace(_mcem_cfg(), K=3, seed=8))
    if engine.startswith("mcemK"):
        return mcem_fit_positions(net, replace(_mcem_cfg(), K=int(engine[5:])))
    if engine == "mcemquiet":
        # well-separated blocks: the chains accept a move every few sweeps
        net = _planted(17 if directed else 16, 40, directed, False, 2, 0.7, 0.03)
        return mcem_fit_positions(net, replace(_mcem_cfg(), final_sweeps=2000))
    return mcem_fit_positions(net, _mcem_cfg())


def _sample(case: str):
    _, kind, orient = case.split("-")
    directed = orient == "directed"
    if kind == "bernoulli":
        bm = np.array([[0.5, 0.1, 0.05], [0.1, 0.4, 0.2], [0.05, 0.2, 0.6]])
    else:
        # log-rates; block pair (1, 1) has rate 15, above the inversion limit of 10
        bm = np.log([[15.0, 0.3, 0.1], [0.3, 2.0, 0.6], [0.1, 0.6, 4.0]])
    if directed:
        bm = bm * np.array([[1.0, 1.3, 0.7], [0.8, 1.0, 1.2], [1.1, 0.9, 1.0]])
    gamma = np.random.default_rng(14).normal(0.0, 0.3, 60) if kind == "dc_poisson" else None
    params = BlockParams(kind, 3, [0.2, 0.5, 0.3], bm, gamma=gamma)
    return sample_sbm(GenConfig(60, params, directed=directed, seed=21))


def _parse_text(directed: bool) -> str:
    """A count edge list of 40 nodes: repeated lines, mirrored pairs, comments, odd value tokens."""
    rng = np.random.default_rng(16 if directed else 15)
    odd = ["+1", "1_0", "+0_3", "01", "0000000000000000007", "00000000000000000000012",
           "999999999999999999", "100000000000000000"]
    pairs = [(i, j) for i in range(40) for j in range(40) if i != j and (directed or i < j)]
    body = []
    for k in rng.permutation(len(pairs))[:120].tolist():
        i, j = pairs[k][::-1] if rng.random() < 0.5 else pairs[k]
        value = odd[rng.integers(len(odd))] if rng.random() < 0.2 else str(rng.integers(1, 30))
        sep = ["\t", " ", "  "][rng.integers(3)]
        tail = ["", "  # note", "\r"][rng.integers(3)]
        body.append((f"v{i}{sep}v{j}{sep}{value}{tail}", f"v{j} v{i} {value}"))
    lines = ["# a count network", "v0", "", *(line for line, _ in body), *(line for line, _ in body[:20])]
    if not directed:
        lines += [mirror for _, mirror in body[100:]]  # the other orientation, the same total
    return "\n".join(lines) + "\n"


def _loglik_values(kind: str, directed: bool) -> list[float]:
    """The kind's log-likelihood at the MLE and at perturbed parameters of a three-block network.

    Block 1 is complete (bernoulli) and has no values toward block 2, so
    the MLE holds p = 1 and p = 0 cells (a zero rate for the count kinds);
    the last node has no values, so its dc_poisson gamma is -inf; and the
    partitions have a fourth block, empty in the planted one.
    """
    rng = np.random.default_rng(31 + directed)
    z = np.repeat([0, 1, 2], [5, 7, 8])
    if kind == "bernoulli":
        cells = np.array([[1.0, 0.0, 0.3], [0.0, 0.4, 0.2], [0.3, 0.2, 0.5]])
        y = (rng.random((20, 20)) < cells[z][:, z]).astype(np.int64)
    else:
        cells = np.array([[3.0, 0.0, 0.5], [0.0, 1.2, 0.4], [0.5, 0.4, 2.0]])
        y = rng.poisson(cells[z][:, z])
    np.fill_diagonal(y, 0)
    y[19, :] = y[:, 19] = 0
    if not directed:
        y = np.triu(y, 1)
    edges = {(int(i), int(j)): int(y[i, j]) for i, j in zip(*np.nonzero(y))}
    net = Network.from_edges(20, edges, directed=directed, value_kind="binary" if kind == "bernoulli" else "count")
    loglik = {"bernoulli": bernoulli_loglik, "poisson": poisson_complete_loglik,
              "dc_poisson": dc_poisson_loglik}[kind]
    planted, other = Partition(z + 1, 4), Partition(rng.integers(1, 5, size=20), 4)
    fits = [mle_block_params(net, part, kind, allow_empty=True) for part in (planted, other)]
    noise = rng.normal(0.0, 0.3, (4, 4))
    noise = noise if directed else noise + noise.T
    values = []
    for part, mle in zip((planted, other), fits):
        if kind == "bernoulli":
            moved = mle.block_matrix * 0.8 + 0.1
        else:
            moved = mle.block_matrix + noise
        gamma = None if mle.gamma is None else mle.gamma + rng.normal(0.0, 0.2, 20)
        perturbed = replace(mle, pi=np.full(4, 0.25), block_matrix=moved, gamma=gamma)
        values += [loglik(net, part, mle), loglik(net, part, perturbed)]
    # each partition at the other's MLE: p = 0 and p = 1 cells, zero rates and
    # empty blocks' weights meet the values and pairs of the other partition
    values += [loglik(net, planted, fits[1]), loglik(net, other, fits[0])]
    if kind == "dc_poisson":
        gamma = fits[0].gamma.copy()
        gamma[0] = -np.inf  # a node with values
        values.append(loglik(net, planted, replace(fits[0], gamma=gamma)))
    return values


def _deltas_tables(kind: str, directed: bool) -> list[np.ndarray]:
    """``step_deltas`` tables of one kind, tabulated (table ratio 0) and direct (inf), over six moves."""
    rng = np.random.default_rng(41 + directed)
    n, K = 30, 4
    z = rng.integers(0, 2, size=n)
    z[0] = 2  # block 3 holds one vertex, block 4 none
    rate = np.where(z[:, None] == z, 0.45, 0.08)
    if kind == "bernoulli":
        y = (rng.random((n, n)) < rate).astype(np.int64)
    else:
        y = rng.poisson(2.0 * rate)
    np.fill_diagonal(y, 0)
    y[n - 1, :] = y[:, n - 1] = 0
    if not directed:
        y = np.triu(y, 1)
    edges = {(int(i), int(j)): int(y[i, j]) for i, j in zip(*np.nonzero(y))}
    net = Network.from_edges(n, edges, directed=directed, value_kind="binary" if kind == "bernoulli" else "count")
    tables = []
    for ratio in (0, np.inf):
        moves = np.random.default_rng(43)
        stats = _Stats(net, z, K, kind)
        stats.table_ratio = ratio
        for _ in range(6):
            tables.append(step_deltas(stats, moves.random(n) < 0.7))
            v = int(moves.integers(n))
            stats.apply(v, int((stats.z[v] + moves.integers(1, K)) % K))
    return tables


def _digest(case: str) -> str:
    h = hashlib.sha256()
    if case.startswith("deltas-"):
        _, kind, orient = case.split("-")
        for table in _deltas_tables(kind, orient == "directed"):
            h.update(table.tobytes())
        return h.hexdigest()
    if case.startswith("loglik-"):
        _, kind, orient = case.split("-")
        h.update(np.array(_loglik_values(kind, orient == "directed")).tobytes())
        return h.hexdigest()
    if case.startswith("parse-"):
        net = load_edge_list(_parse_text(case.endswith("-directed")), case.endswith("-directed"), "count")
        h.update("\n".join(net.labels()).encode())
        for a in (net.indptr, net.indices, net.data):
            h.update(a.astype(np.int64).tobytes())
        return h.hexdigest()
    if case.startswith("sample-"):
        net, part = _sample(case)
        h.update(to_edge_list_text(net).encode())
        h.update(part.labels.astype(np.int64).tobytes())
        return h.hexdigest()
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
    return _fit_digest(case)[0]


def _fit_digest(case: str):
    """The digest of a fit case and its result."""
    result, positions = _fit(case)
    h = hashlib.sha256(to_json(result).encode())
    for u_hat in positions:
        h.update(np.asarray(u_hat, dtype=np.float64).tobytes())
    return h.hexdigest(), result


GOLDEN = {
    "vem-bernoulli-undirected": "ebc906f16a358307d6e035d29e43ef767b44e745a307ba95f5cd5c982a629edf",
    "vem-bernoulli-directed": "013991f39f734537b923c78aac1c99c654abbd74332312289702978a6948f39f",
    "vem-poisson-undirected": "c3611720e5f54d9f08e31baf06094114b2d7c118d020d946e877e2a951aa8fae",
    "vem-poisson-directed": "556256bd810d00ee78b8deb85110a7f4373ff46c4e4390d18a3b8e628f3d5195",
    "vemK6-bernoulli-undirected": "a612752e9f0ca7902c937843d0cc91a433eeb512dd3ba543073644608bebbe61",
    "vemK6-bernoulli-directed": "858e92960ceac9f74a7f121436716c2d9f28cb112fc2091c3d252026ff6a5f7d",
    "vemK6-poisson-undirected": "dfea58cb6eaa87249e4222772c86ea44cf33230a2b2eef28c5b0cc47d8e2cf41",
    "vemK6-poisson-directed": "18870d5e98a8769cf2b4799e242fe42d5869ce20ade6a787931cb81a7328d804",
    "vemK10-bernoulli-undirected": "b66ee0869a28613504c910174fb5a76d99b21351c3a7c48326460f8d1cad02f3",
    "vemK10-bernoulli-directed": "f41e1b37bef5ed3beb678688c3d92abe2af5d11b20ebfdb24f61fd60576ec304",
    "switch-bernoulli-undirected": "8fd724e406a640a15fae77a507d0c66302911f5d68962677e5e2ed192fcebe71",
    "switch-bernoulli-directed": "cd4f8a035672a085afe428853c0edb175d88480c633b94d167ee63525faa8f8d",
    "switch-poisson-undirected": "6fc48586447cabfec59106f208b71ad5401be95c31c5bc92e5555ac59a1587e8",
    "switch-poisson-directed": "07a8dc0aefbb3a6f1d9ed9e0b5e33f554f3f4abdd692430574ddcb6998323c9b",
    "switch-dc_poisson-undirected": "50af03ccfffddab28f2ce937e279c76cfe2b957637750204f23aafba6005cf55",
    "switch-dc_poisson-directed": "35884ded9f87c4989273ffdd2279e9ee260b3ebc9a87a75250e50f82751bf399",
    "mcem-bernoulli-undirected": "0d16664f40a355aa5244961269782108fee0c88cb8067bcd60a2fe417b2bbede",
    "mcem-bernoulli-directed": "b865224f7b23d2a73efed12a48f0a7c268323bd6c585a22b207c52cf09772199",
    "gibbs-undirected": "08de9a26930b6270420ddfb59e03b5c04d16004677e0d690a28f542638037ee5",
    "gibbs-directed": "6708a64a8759fa454d03f5aa97f5f8390615b911140cf93b54a3d36ddf4229d7",
    "switchK1-dc_poisson-undirected": "b2a5eddd234cd8c82f8b26fb7384ea1fa2245017d628ce4bf593f541cd058d30",
    "switchK1-dc_poisson-directed": "ef6cc25a94adef935f2901a5b7aca6d776431e94bec77891a0c56d4dde7a3042",
    "switchK4-dc_poisson-undirected": "8221339dc7fc0decc7cdac9d9e79f3af8e7496fab478f8582b0a89cc007ff056",
    "switchK4-dc_poisson-directed": "283a2425845d638209059486c880c04e2d96cef9ab198625f5d2d46d1e2b24c8",
    "switchK10-bernoulli-undirected": "6fad6c32295f42a345fefbf9a4889844450d6325533e5bd312c05bb823f2fe37",
    "switchK10-bernoulli-directed": "c5f32881d5e1b375fb2e2943cf5d5c36857be41c442e28d4d0a5f0ff3113ec03",
    "switchK10-poisson-undirected": "18d85fb38f5ad1d1f65bc5e4b35747f51303658564bb42a0b31cd5a598528872",
    "switchK10-poisson-directed": "c05969b09bfd8f3d8293f691524f1b8d1e55541c8c9f81dd99923c051e23f420",
    "switchK10-dc_poisson-undirected": "a0e7c5f601a2a5e2fb0b5c5ff04aed0a440b0efba176a6e321044008bdc92a67",
    "switchK10-dc_poisson-directed": "61e67fba15584d4e0c72088d77432735794552f535fe148d6472d84556ac4db3",
    "switchtab-bernoulli-undirected": "9e90213165056c7521abf7c1813ff3bda605215a1c36f084b9eacc6b5231affe",
    "switchtab-bernoulli-directed": "d92c45b7e7cd16618c8b01315e5fc6612d26f9d566ccd10e110e96e41d470972",
    "switchtab-poisson-undirected": "2a81629e84b67e1f835f3e789867cd90996044e4db501c33f95a0800b7a89850",
    "switchtab-poisson-directed": "f10245386e200c3cd3738f1f658c179239eaae87b9bf2c4875465b2a6afbe051",
    "mcemthin-bernoulli-undirected": "97656d5e22b1669210b8fe4d8814af71e9257aa595a5d62513b84fc7669ea7c5",
    "mcemthin-bernoulli-directed": "08cbcf63a7d4a657c04fa93074db4fc3385dbfd2404cd1a9d4bd3b067b7772d6",
    "mcembusy-bernoulli-undirected": "4eec684247fdd3e22de06c959c081ac2264916d283ded5628af850fd192571b1",
    "mcembusy-bernoulli-directed": "120a4a9d571366da893041dba3d7fea55c325f23347f87c37bf0e0e4baf77605",
    "mcemK6-bernoulli-undirected": "196ac0f93246a50f70f438097e171031b27ce5da62ab4d6ce465901ea7f7a83b",
    "mcemK6-bernoulli-directed": "e7764059d73fe104c254aadeb4a3ceb0eed019721364a8ae9893afcc4b818cf8",
    "mcemquiet-bernoulli-undirected": "7fdf8ccef8bff1aa6c4962378b1d437fec39713ba607658436952504729c856d",
    "mcemquiet-bernoulli-directed": "20af867feb94f0b3643efeb2fcdb89a9522475905c74933e89a5d7661dfd9e5a",
    "delta-undirected": "1cb3a8795666261c94d9f4cac7f1cbd0bf07e88d401b8c17e05b1137568dddb7",
    "delta-directed": "45c3ce5ad0e832100ec0be2b5fd7ecbf6a7d716598fce478e659fc9d0c7bdaa6",
    "sample-bernoulli-undirected": "5f295c2c2e6070fdca38ad4c63199c9751c227162b615d36d1dc95805cea5d0c",
    "sample-bernoulli-directed": "a9a03ed07ffd0691619c90ef22128dede039a2831fb4dfbf2a8bb1c49c3effad",
    "sample-poisson-undirected": "274db1ccc867eb55150ce9c9e624468b6f74ac7f2b0f74cf520831c9101eeb09",
    "sample-poisson-directed": "40169afbfd1ece68f42d4098434382a48d666d58e2394a61d09dd19f3ea462ac",
    "sample-dc_poisson-undirected": "09f8e03330d0798f5f0162ce8ddba6a7a91bfae2ea1302bcaa0b34b044ec5a8e",
    "sample-dc_poisson-directed": "85a5ff1f6f2dd35a56375a6ff1eb353a8186c5f401d7139ab1f0ea9fc7faecbf",
    "parse-count-undirected": "0c478de0e7f1720c2b20bc82a888e6dfb2ea36edce1655a9347e96476664b25b",
    "parse-count-directed": "d74e2d408e0070d6dd4e4cf9e4803664a66779255aa6c3f423ee58390ee53443",
    "loglik-bernoulli-undirected": "f053b43d29c8396add919206373f0478235559f50d15c5eb275aef35f16a80ed",
    "loglik-bernoulli-directed": "43512361d2cbca1866db3ef501d4fdb4f28e80e114e289e11f14322399b0d710",
    "loglik-poisson-undirected": "585e991e84a6974c23a0fd34b9b88507af5a83ada3de1edd97142fa3acfe0f99",
    "loglik-poisson-directed": "d3f385736b464917ff152b40c76b19809d5bc11ad8724b6415e2a4819845a83f",
    "loglik-dc_poisson-undirected": "d912aa031ea3ffbf236fc2b5c3329fba36979926e31e86384aa0b30a1eae41a5",
    "loglik-dc_poisson-directed": "c9557b019525154b5932cf7c8fc06d69e4336e8d652008c77987be9734560935",
    "deltas-bernoulli-undirected": "604d1e69434257c73e7862d07ccd21157b57e0e178d0bff2511221c5873eaf60",
    "deltas-bernoulli-directed": "5cdf37c3556e96f7cd77eca59d3723e8d34380864fa1c378b4b394b13a1d56d2",
    "deltas-poisson-undirected": "d9070a0496e17aea1d998f8c0514904b4001c1d1d38ff25411614230b4851257",
    "deltas-poisson-directed": "2141865a39df7a855b93c2143aaae25dcfa6b59d615e5c794f455cae0e15d1e9",
    "deltas-dc_poisson-undirected": "40df931b256d5be8d19f56f0a8d7caf0245b8e03c91538bc184dac9657931390",
    "deltas-dc_poisson-directed": "a5ecc350b7489982d166ca7b9d0d76b85f4bd2ece5d66e6e3330a615c7c16306",
}


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_golden_hash(case, monkeypatch):
    monkeypatch.delenv("BLOCKMIX_WORKERS", raising=False)
    assert _digest(case) == GOLDEN[case]


@pytest.mark.parametrize("case", sorted(case for case in GOLDEN if case.startswith("switchtab-")))
def test_switchtab_cases_tabulate_most_steps(case, monkeypatch):
    # these cases pin the tabulated step; a change of the crossover that sent
    # most of their steps down the direct path would keep their hashes and
    # leave the tabulated path unpinned
    monkeypatch.delenv("BLOCKMIX_WORKERS", raising=False)
    steps = {"all": 0, "tabulated": 0}
    deltas, gather = _Stats.deltas, _Stats._gather

    def counted_deltas(self, verts):
        steps["all"] += 1
        return deltas(self, verts)

    def counted_gather(self, *args):
        steps["tabulated"] += 1
        return gather(self, *args)

    monkeypatch.setattr(_Stats, "deltas", counted_deltas)
    monkeypatch.setattr(_Stats, "_gather", counted_gather)
    _fit(case)
    assert steps["tabulated"] > 0.6 * steps["all"], steps


if __name__ == "__main__":
    # print the digest of each named case, or of every case in GOLDEN, e.g.
    # to record new cases against another checkout's sources:
    # PYTHONPATH=<checkout>/src python tests/test_golden.py [CASE ...]
    # A fit case also prints the first 16 hex digits of its partition's
    # sha256, its trace length and its objective, so two checkouts' fits
    # can be compared where their digests differ.  The exit status is 1
    # when any case prints DIFFERS, so the run serves as a byte check.
    import os

    os.environ.pop("BLOCKMIX_WORKERS", None)
    differs = False
    for case in sys.argv[1:] or sorted(GOLDEN):
        if case.startswith(("sample-", "gibbs-", "delta-", "deltas-", "parse-", "loglik-")):
            digest, fit = _digest(case), ""
        else:
            digest, result = _fit_digest(case)
            part = hashlib.sha256(result.labels.astype(np.int64).tobytes()).hexdigest()[:16]
            fit = f" partition {part} trace {len(result.trace)} objective {result.objective!r}"
        status = "new" if case not in GOLDEN else "ok" if digest == GOLDEN[case] else "DIFFERS"
        differs = differs or status == "DIFFERS"
        print(f"{case} {digest} {status}{fit}")
    sys.exit(1 if differs else 0)
