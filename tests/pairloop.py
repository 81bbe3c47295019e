"""The enumerating pair sampler, kept as the oracle of ``sample_sbm``.

``sample`` is ``generate.sample_sbm`` as it was before it screened each
chunk of pair uniforms: it builds the row, column and cell of every
candidate pair, in row blocks of whole rows, and evaluates them all.
Differential tests require the same network, the same partition and the
same error messages from both.
"""

import numpy as np

from blockmix.generate import (
    _LABEL_STREAM,
    _PAIR_BLOCK,
    _PAIR_STREAM,
    _POISSON_MAX,
    _POISSON_STREAM_BASE,
    _poisson_small,
    _stream,
)
from blockmix.graph import Network
from blockmix.models import Partition


def pair_blocks(n: int, directed: bool, block: int = _PAIR_BLOCK):
    """Yield (index of the first pair, rows, cols) of each row block.

    Pairs run in canonical order: row-major over i != j when directed,
    over i < j otherwise.  A block holds whole rows, at most ``block``
    pairs unless a single row is longer.
    """
    lengths = np.full(n, n - 1) if directed else np.arange(n - 1, -1, -1)
    ends = np.cumsum(lengths)
    first, i0 = 0, 0
    while first < ends[-1]:
        i1 = max(int(np.searchsorted(ends, first + block, side="right")), i0 + 1)
        row_len = lengths[i0:i1]
        rows = np.repeat(np.arange(i0, i1), row_len)
        # each pair's position within its row, then its column
        cols = np.arange(rows.size)
        cols -= np.repeat(ends[i0:i1] - row_len - first, row_len)
        cols += cols >= rows if directed else rows + 1
        yield first, rows, cols
        first, i0 = int(ends[i1 - 1]), i1


def sample_block(cfg, labels0, pair_gen, first: int, rows, cols):
    """Draw one row block's pairs; return the rows, columns and values of the non-zero ones."""
    params = cfg.params
    u = pair_gen.random(rows.size)
    cell = params.block_matrix[labels0[rows], labels0[cols]]
    if params.kind == "bernoulli":
        values = (u < cell).astype(np.int64)
    else:
        values = poisson_values(cfg, labels0, first, rows, cols, cell, u)
    keep = values != 0
    return rows[keep], cols[keep], values[keep]


def poisson_values(cfg, labels0, first: int, rows, cols, cell, u) -> np.ndarray:
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


def sample(cfg, block: int = _PAIR_BLOCK):
    """(network, true partition) drawn by enumerating every candidate pair."""
    params = cfg.params
    n, K = cfg.n, params.K

    u_labels = _stream(cfg.seed, _LABEL_STREAM).random(n)
    cum = np.cumsum(params.pi)
    labels0 = np.minimum(np.searchsorted(cum, u_labels, side="right"), K - 1)
    part = Partition(labels0 + 1, K)

    pair_gen = _stream(cfg.seed, _PAIR_STREAM)
    blocks = pair_blocks(n, cfg.directed, block)
    kept = [sample_block(cfg, labels0, pair_gen, *b) for b in blocks]
    rows, cols, values = (np.concatenate(parts) for parts in zip(*kept))

    value_kind = "binary" if params.kind == "bernoulli" else "count"
    net = Network(n, rows, cols, values, directed=cfg.directed, value_kind=value_kind)
    return net, part
