"""Partition-agreement metrics."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from blockmix.models import Partition, _cell_sums

__all__ = ["PartitionComparison", "rand_index"]


@dataclass
class PartitionComparison:
    """Pairwise agreement between two partitions of the same node set.

    ``rand_index`` is the plain Rand index: the fraction of unordered
    node pairs that both partitions classify the same way (together or
    apart).  ``adjusted_rand`` is the chance-corrected variant, provided
    as a clearly labelled secondary score.
    """

    rand_index: float
    adjusted_rand: float
    agreements: int
    total_pairs: int
    confusion: np.ndarray


def _choose2(x: np.ndarray) -> np.ndarray:
    return x * (x - 1) // 2


def rand_index(a: Partition, b: Partition) -> PartitionComparison:
    """Compare two partitions in O(n + K_a * K_b) via the contingency table."""
    if a.n != b.n:
        raise ValueError("partitions must cover the same number of nodes")
    n = a.n
    confusion = _cell_sums(a.zero_based(), b.zero_based(), None, (a.K, b.K))

    total = n * (n - 1) // 2
    same_both = int(_choose2(confusion).sum())
    same_a = int(_choose2(confusion.sum(axis=1)).sum())
    same_b = int(_choose2(confusion.sum(axis=0)).sum())
    agreements = total + 2 * same_both - same_a - same_b
    rand = agreements / total if total else 1.0

    expected = same_a * same_b / total if total else 0.0
    max_index = 0.5 * (same_a + same_b)
    denom = max_index - expected
    adjusted = (same_both - expected) / denom if denom else 1.0
    return PartitionComparison(rand, adjusted, agreements, total, confusion)
