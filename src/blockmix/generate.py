"""Forward sampling from the blockmodels for tests and benchmarks.

All randomness flows through Philox counter streams keyed by (seed,
stream id), so each pair's value is a pure function of the seed and the
pair's position in the canonical enumeration.  Output is identical
however pair sampling is scheduled.

One uniform per candidate pair is drawn from the one pair stream, in
canonical order and in chunks of at most ``_PAIR_BLOCK`` doubles; a
generator draws the same doubles however its draws are split.  Each chunk
is screened on its uniforms alone: only the pairs whose uniform lets them
be non-zero get a row, a column, a cell and a value.  Time is O(n^2)
uniform draws plus O(candidates), memory O(chunk + edges), and the output
bytes depend neither on the chunk size nor on the screen.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from blockmix.graph import Network
from blockmix.models import BlockParams, Partition
from blockmix.results import check_config

__all__ = ["GenConfig", "sample_sbm"]

_LABEL_STREAM = 0
_PAIR_STREAM = 1
# per-pair streams for large-rate Poisson rejection sampling
_POISSON_STREAM_BASE = 1 << 63
# most pair uniforms drawn and screened at once
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
        check_config(self, ("n",))
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


def _screen_bound(params: BlockParams) -> float:
    """The screen's bound on a pair's uniform u: bernoulli keeps the pairs
    with u < bound, the Poisson kinds those with u >= bound.

    A bernoulli pair is non-zero only if u < its cell, so only if
    u < max cell.  Below rate 10 a Poisson pair is zero exactly when
    u < exp(-rate) (``_poisson_small``); with a bound rate at least every
    pair's and below 10, only a pair with u >= exp(-bound rate) can be
    non-zero.  The factor 1 - 2**-40 absorbs the rounding of the rates and
    decides no value.  Otherwise the bound is 0 and every pair is kept.
    """
    bm = params.block_matrix
    if params.kind == "bernoulli":
        return float(bm.max())
    with np.errstate(over="ignore", invalid="ignore"):
        rate = np.exp(bm.max())
        if params.kind == "dc_poisson":
            rate = rate * np.exp(2 * params.gamma.max())
    return float(np.exp(-rate) * (1 - 2.0**-40)) if rate < 10.0 else 0.0  # NaN fails too


def _pair_ends(n: int, directed: bool, idx: np.ndarray):
    """Row and column of each pair, given its index in the canonical order.

    Pairs run row-major over i != j when directed, over i < j otherwise.
    """
    if directed:
        rows, cols = np.divmod(idx, n - 1)
        cols += cols >= rows
        return rows, cols
    ends = np.cumsum(np.arange(n - 1, 0, -1))  # one past each row's last pair
    rows = np.searchsorted(ends, idx, side="right")
    return rows, idx - ends[rows] + n


def _sample_pairs(cfg: GenConfig, labels0, idx, u):
    """Rows, columns and values of the non-zero pairs among those with
    canonical indices ``idx`` and uniforms ``u``."""
    params = cfg.params
    rows, cols = _pair_ends(cfg.n, cfg.directed, idx)
    cell = params.block_matrix[labels0[rows], labels0[cols]]
    if params.kind == "bernoulli":
        values = (u < cell).astype(np.int64)
    else:
        values = _poisson_values(cfg, labels0, idx, rows, cols, cell, u)
    keep = values != 0
    return rows[keep], cols[keep], values[keep]


def _poisson_values(cfg: GenConfig, labels0, idx, rows, cols, cell, u) -> np.ndarray:
    """Poisson draws for the pairs with canonical indices ``idx``."""
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
        gen = _stream(cfg.seed, _POISSON_STREAM_BASE + int(idx[at]))
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

    n_pairs = n * (n - 1) if cfg.directed else n * (n - 1) // 2
    bound = _screen_bound(params)
    pair_gen = _stream(cfg.seed, _PAIR_STREAM)
    buf = np.empty(min(_PAIR_BLOCK, n_pairs))
    kept = []
    for first in range(0, n_pairs, buf.size):
        u = pair_gen.random(out=buf[: n_pairs - first])
        at = np.flatnonzero(u < bound if params.kind == "bernoulli" else u >= bound)
        kept.append(_sample_pairs(cfg, labels0, first + at, u[at]))
    rows, cols, values = (np.concatenate(parts) for parts in zip(*kept))

    value_kind = "binary" if params.kind == "bernoulli" else "count"
    net = Network(n, rows, cols, values, directed=cfg.directed, value_kind=value_kind)
    return net, part
