"""Forward sampling from the blockmodels for tests and benchmarks.

All randomness flows through Philox counter streams keyed by (seed,
stream id), so each pair's value is a pure function of the seed and the
pair's position in the canonical enumeration.  Output is identical
however pair sampling is scheduled.

The candidate pairs are drawn in row blocks of at most ``_PAIR_BLOCK``
pairs, in canonical order, from the one pair stream; a block keeps only
its non-zero pairs.  A generator draws the same doubles however its
draws are split, so memory is O(block + edges) while time stays O(n^2)
uniform draws, and the output bytes do not depend on the block size.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from blockmix.graph import Network
from blockmix.models import BlockParams, Partition

__all__ = ["GenConfig", "sample_sbm"]

_LABEL_STREAM = 0
_PAIR_STREAM = 1
# per-pair streams for large-rate Poisson rejection sampling
_POISSON_STREAM_BASE = 1 << 63
# most candidate pairs in one row block (a block holds one row at least)
_PAIR_BLOCK = 1 << 20
# the largest rate numpy's Generator.poisson accepts
_POISSON_MAX = np.iinfo(np.int64).max - 10 * np.sqrt(np.iinfo(np.int64).max)


@dataclass
class GenConfig:
    """Sampling configuration: size, parameters, orientation, seed."""

    n: int
    params: BlockParams
    directed: bool = False
    seed: int = 0

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("n must be at least 2")
        if self.params.gamma is not None and self.params.gamma.size != self.n:
            raise ValueError("gamma must have one entry per node")
        bm = self.params.block_matrix
        if not self.directed and not np.array_equal(bm, bm.T):
            raise ValueError("an undirected network needs a symmetric block matrix")


def _stream(seed: int, stream_id: int) -> np.random.Generator:
    key = np.array([seed, stream_id], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _poisson_small(lam: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Poisson draws by single-uniform CDF inversion; exact for small rates."""
    out = np.zeros(lam.shape, dtype=np.int64)
    pmf = np.exp(-lam)
    cdf = pmf.copy()
    kk = np.zeros(lam.shape)
    while True:
        mask = u >= cdf
        if not mask.any():
            return out
        kk = np.where(mask, kk + 1, kk)
        pmf = np.where(mask, pmf * lam / np.maximum(kk, 1.0), pmf)
        cdf = np.where(mask, cdf + pmf, cdf)
        out[mask] += 1


def _pair_blocks(n: int, directed: bool):
    """Yield (index of the first pair, rows, cols) of each row block.

    Pairs run in canonical order: row-major over i != j when directed,
    over i < j otherwise.  A block holds whole rows, at most
    ``_PAIR_BLOCK`` pairs unless a single row is longer.
    """
    lengths = np.full(n, n - 1) if directed else np.arange(n - 1, -1, -1)
    ends = np.cumsum(lengths)
    first, i0 = 0, 0
    while first < ends[-1]:
        i1 = max(int(np.searchsorted(ends, first + _PAIR_BLOCK, side="right")), i0 + 1)
        row_len = lengths[i0:i1]
        rows = np.repeat(np.arange(i0, i1), row_len)
        # each pair's position within its row, then its column
        cols = np.arange(rows.size)
        cols -= np.repeat(ends[i0:i1] - row_len - first, row_len)
        cols += cols >= rows if directed else rows + 1
        yield first, rows, cols
        first, i0 = int(ends[i1 - 1]), i1


def _sample_block(cfg: GenConfig, labels0, pair_gen, first: int, rows, cols):
    """Draw one row block's pairs; return the rows, columns and values of the non-zero ones."""
    params = cfg.params
    u = pair_gen.random(rows.size)
    cell = params.block_matrix[labels0[rows], labels0[cols]]
    if params.kind == "bernoulli":
        values = (u < cell).astype(np.int64)
    else:
        values = _poisson_values(cfg, labels0, first, rows, cols, cell, u)
    keep = values != 0
    return rows[keep], cols[keep], values[keep]


def _poisson_values(cfg: GenConfig, labels0, first: int, rows, cols, cell, u) -> np.ndarray:
    """Poisson draws for one row block whose first pair has index ``first``."""
    params = cfg.params
    with np.errstate(over="ignore", invalid="ignore"):
        lam = np.exp(cell)
        if params.kind == "dc_poisson":
            lam = lam * np.exp(params.gamma[rows] + params.gamma[cols])
    bad = ~(lam <= _POISSON_MAX)  # also catches NaN
    if bad.any():
        at = int(np.argmax(bad))
        i, j = int(rows[at]), int(cols[at])
        raise ValueError(
            f"node pair ({i}, {j}) in block pair ({labels0[i] + 1}, {labels0[j] + 1}) has "
            f"Poisson rate {lam[at]:.6g}, which cannot be sampled (the limit is {_POISSON_MAX:.4g})"
        )
    values = np.zeros(rows.size, dtype=np.int64)
    small = lam < 10.0
    values[small] = _poisson_small(lam[small], u[small])
    for at in np.flatnonzero(~small):
        gen = _stream(cfg.seed, _POISSON_STREAM_BASE + first + int(at))
        values[at] = gen.poisson(lam[at])
    return values


def sample_sbm(cfg: GenConfig) -> tuple[Network, Partition]:
    """Draw (network, true partition) from the configured blockmodel.

    Labels are sampled by inverse CDF on the mixing weights; pair values
    are Bernoulli(p) for the bernoulli kind and Poisson(rate) otherwise,
    with rate exp(omega) or exp(gamma_i + gamma_j + omega).  Rates below
    10 use exact inversion on the pair's uniform; larger rates fall back
    to a dedicated counter stream per pair.  A rate that is not finite or
    is too large to sample raises ValueError naming its first node pair.
    """
    params = cfg.params
    n, K = cfg.n, params.K

    u_labels = _stream(cfg.seed, _LABEL_STREAM).random(n)
    cum = np.cumsum(params.pi)
    labels0 = np.minimum(np.searchsorted(cum, u_labels, side="right"), K - 1)
    part = Partition(labels0 + 1, K)

    pair_gen = _stream(cfg.seed, _PAIR_STREAM)
    kept = [_sample_block(cfg, labels0, pair_gen, *block) for block in _pair_blocks(n, cfg.directed)]
    rows, cols, values = (np.concatenate(parts) for parts in zip(*kept))

    value_kind = "binary" if params.kind == "bernoulli" else "count"
    net = Network(n, rows, cols, values, directed=cfg.directed, value_kind=value_kind)
    return net, part
