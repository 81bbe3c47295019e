"""Seeded, numpy-only input generator for the benchmark workloads.

The benchmark draws its own graphs instead of calling
``blockmix.generate``, so a change to the package's sampler cannot change
what the engines are asked to fit.  Every draw comes from a
``numpy.random.Generator`` seeded by (seed, workload stream), so the same
seed always writes byte-identical files.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np


@dataclass
class GraphInput:
    """One edge file on disk plus what the benchmark knows about it."""

    edges: Path
    n_nodes: int
    n_edges: int
    directed: bool
    labels: Path | None = None  # planted 'node group' file, groups 1..K
    truth: dict[str, int] = field(default_factory=dict)  # node name -> planted group

    @property
    def density(self) -> float:
        n = self.n_nodes
        return self.n_edges / (n * (n - 1) if self.directed else n * (n - 1) // 2)


def generator(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, stream]))


def balanced_labels(rng: np.random.Generator, n: int, K: int) -> np.ndarray:
    """0-based block labels with sizes differing by at most one, shuffled."""
    return rng.permutation(np.arange(n) % K)


def bernoulli_sbm(rng, labels: np.ndarray, P: np.ndarray):
    """Undirected Bernoulli blockmodel over all unordered pairs (small n)."""
    rows, cols = np.triu_indices(labels.size, k=1)
    keep = rng.random(rows.size) < P[labels[rows], labels[cols]]
    return rows[keep], cols[keep], None


def dc_poisson_sbm(rng, labels: np.ndarray, rates: np.ndarray, theta: np.ndarray):
    """Directed degree-corrected Poisson blockmodel over all ordered pairs."""
    n = labels.size
    rows, cols = np.nonzero(~np.eye(n, dtype=bool))
    lam = theta[rows] * theta[cols] * rates[labels[rows], labels[cols]]
    counts = rng.poisson(lam)
    keep = counts > 0
    return rows[keep], cols[keep], counts[keep]


def heterogeneous_offsets(rng, labels: np.ndarray, K: int, spread: float) -> np.ndarray:
    """Log-normal node weights, rescaled to mean 1 inside every block."""
    theta = np.exp(rng.normal(0.0, spread, labels.size))
    for k in range(K):
        theta[labels == k] /= theta[labels == k].mean()
    return theta


def uniform_pairs(rng, n: int, m: int):
    """Exactly m distinct unordered pairs drawn uniformly, without enumerating n^2."""
    chosen = np.empty(0, dtype=np.int64)
    while chosen.size < m:
        a = rng.integers(0, n, 2 * m)
        b = rng.integers(0, n, 2 * m)
        ok = a != b
        keys = np.minimum(a, b)[ok] * n + np.maximum(a, b)[ok]
        keys = np.concatenate([chosen, keys])
        _, first = np.unique(keys, return_index=True)
        chosen = keys[np.sort(first)]
    chosen = chosen[:m]
    return chosen // n, chosen % n, None


def node_names(rng, n: int) -> list[str]:
    """Distinct node names drawn from the layout stream."""
    return [f"v{k}" for k in rng.permutation(n).tolist()]


def write_graph(rng, path: Path, rows, cols, values, names: list[str], directed: bool) -> None:
    """Edge-list text: every node declared first, then edges in shuffled order.

    Declaring the nodes first fixes their index order whatever the edge
    order is.  Undirected pairs are written in a random orientation, so the
    parser's canonicalisation of ``b a`` to ``a b`` is exercised.
    """
    order = rng.permutation(rows.size)
    src, dst = rows[order], cols[order]
    if not directed:
        flip = rng.random(src.size) < 0.5
        src, dst = np.where(flip, dst, src), np.where(flip, src, dst)
    lines = list(names)
    if values is None:
        lines += [f"{names[a]} {names[b]}" for a, b in zip(src.tolist(), dst.tolist())]
    else:
        vals = values[order].tolist()
        lines += [f"{names[a]} {names[b]} {v}" for a, b, v in zip(src.tolist(), dst.tolist(), vals)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def make_graph(rng, workdir: Path, stem: str, sampled, names: list[str], directed: bool,
               labels0: np.ndarray | None = None) -> GraphInput:
    """Write ``<stem>.edges`` (and ``<stem>.labels`` when labels are planted)."""
    rows, cols, values = sampled
    edges = workdir / f"{stem}.edges"
    write_graph(rng, edges, rows, cols, values, names, directed)
    graph = GraphInput(edges, len(names), int(rows.size), directed)
    if labels0 is not None:
        graph.labels = workdir / f"{stem}.labels"
        graph.truth = {v: int(k) + 1 for v, k in zip(names, labels0.tolist())}
        graph.labels.write_text("".join(f"{v} {k}\n" for v, k in graph.truth.items()), encoding="utf-8")
    return graph


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()
