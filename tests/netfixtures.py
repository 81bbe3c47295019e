"""Deterministic random-network builders shared by the test modules."""

import numpy as np

from blockmix.graph import Network
from blockmix.models import Partition


def random_network(rng, n=None, directed=None, binary=None, p=0.5, max_count=4, n_isolated=0):
    """One random network; shape choices fall back to draws from rng.

    The last ``n_isolated`` nodes get no edges.
    """
    if n is None:
        n = int(rng.integers(3, 10))
    if directed is None:
        directed = bool(rng.integers(0, 2))
    if binary is None:
        binary = bool(rng.integers(0, 2))
    edges = {}
    for i in range(n - n_isolated):
        for j in range(n - n_isolated):
            if i == j or (not directed and i > j):
                continue
            if rng.random() < p:
                v = 1 if binary else int(rng.integers(1, max_count + 1))
                edges[(i, j)] = v
    return Network.from_edges(
        n,
        edges,
        directed=directed,
        value_kind="binary" if binary else "count",
        node_labels=tuple(str(i) for i in range(n)),
    )


def same_network(a, b) -> bool:
    """Equal orientation, storage arrays and node labels."""
    return (
        a.n_nodes == b.n_nodes
        and a.directed == b.directed
        and a.value_kind == b.value_kind
        and np.array_equal(a.indptr, b.indptr)
        and np.array_equal(a.indices, b.indices)
        and np.array_equal(a.data, b.data)
        and a.labels() == b.labels()
    )


def random_partition(rng, n, K, ensure_full=False):
    """Random 1-based labels; ensure_full forces every block nonempty."""
    if ensure_full:
        if K > n:
            raise ValueError("cannot fill more blocks than nodes")
        labels = np.concatenate([np.arange(1, K + 1), rng.integers(1, K + 1, size=n - K)])
        rng.shuffle(labels)
    else:
        labels = rng.integers(1, K + 1, size=n)
    return Partition(labels, K)
