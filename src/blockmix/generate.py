"""Forward sampling from the blockmodels for tests and benchmarks.

All randomness flows through Philox counter streams keyed by (seed,
stream id), so each pair's value is a pure function of the seed and the
pair's position in the canonical enumeration.  Output is identical
however pair sampling is scheduled.
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


def sample_sbm(cfg: GenConfig) -> tuple[Network, Partition]:
    """Draw (network, true partition) from the configured blockmodel.

    Labels are sampled by inverse CDF on the mixing weights; pair values
    are Bernoulli(p) for the bernoulli kind and Poisson(rate) otherwise,
    with rate exp(omega) or exp(gamma_i + gamma_j + omega).  Rates below
    10 use exact inversion on the pair's uniform; larger rates fall back
    to a dedicated counter stream per pair.
    """
    params = cfg.params
    n, K = cfg.n, params.K

    u_labels = _stream(cfg.seed, _LABEL_STREAM).random(n)
    cum = np.cumsum(params.pi)
    labels0 = np.minimum(np.searchsorted(cum, u_labels, side="right"), K - 1)
    part = Partition(labels0 + 1, K)

    if cfg.directed:
        rows, cols = np.nonzero(~np.eye(n, dtype=bool))
    else:
        rows, cols = np.triu_indices(n, k=1)
    u_pairs = _stream(cfg.seed, _PAIR_STREAM).random(rows.size)
    # one pair-length index temporary instead of two: gather node rows first
    cell = params.block_matrix[labels0][rows, labels0[cols]]

    if params.kind == "bernoulli":
        values = (u_pairs < cell).astype(np.int64)
        value_kind = "binary"
    else:
        lam = np.exp(cell)
        if params.kind == "dc_poisson":
            lam = lam * np.exp(params.gamma[rows] + params.gamma[cols])
        values = np.zeros(rows.size, dtype=np.int64)
        small = lam < 10.0
        values[small] = _poisson_small(lam[small], u_pairs[small])
        for pair_id in np.flatnonzero(~small):
            gen = _stream(cfg.seed, _POISSON_STREAM_BASE + int(pair_id))
            values[pair_id] = gen.poisson(lam[pair_id])
        value_kind = "count"

    net = Network.from_arrays(n, rows, cols, values, directed=cfg.directed, value_kind=value_kind)
    return net, part
