"""Blockmodel parameter types, log-likelihoods, and closed-form MLEs.

Three model kinds are supported: "bernoulli" (edge probabilities p_kl),
"poisson" (log-rates omega_kl), and "dc_poisson" (log-rates plus a
per-node heterogeneity offset gamma_i).  All pair sums exclude the
diagonal and run over unordered pairs i < j for undirected networks,
ordered pairs i != j for directed ones.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from blockmix.graph import Derived, Network, degrees

__all__ = [
    "MODEL_KINDS",
    "Partition",
    "BlockParams",
    "GraphonStep",
    "bernoulli_loglik",
    "poisson_complete_loglik",
    "dc_poisson_loglik",
    "mle_block_params",
    "graphon_eval",
    "global_rate",
    "block_pair_stats",
]

MODEL_KINDS = ("bernoulli", "poisson", "dc_poisson")


class _ValueEq:
    """Equality of two instances of one dataclass by their compared fields.

    Values compare with np.array_equal: arrays cell by cell (-inf equals
    -inf), and None equals only None.
    """

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        compared = [f.name for f in fields(self) if f.compare]
        return all(np.array_equal(getattr(self, name), getattr(other, name)) for name in compared)


@dataclass(eq=False)
class Partition(_ValueEq):
    """Hard block assignment: per-node labels in {1..K}.

    Labels are 1-based externally; internal numeric code uses
    :meth:`zero_based`.  Empty blocks are permitted (search algorithms
    pass through them transiently).
    """

    labels: np.ndarray
    K: int

    def __post_init__(self):
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.labels.ndim != 1 or self.labels.size == 0:
            raise ValueError("labels must be a non-empty 1-d sequence")
        if self.K < 1:
            raise ValueError("K must be at least 1")
        if self.labels.min() < 1 or self.labels.max() > self.K:
            raise ValueError(f"labels must lie in 1..{self.K}")

    @property
    def n(self) -> int:
        return self.labels.size

    def zero_based(self) -> np.ndarray:
        return self.labels - 1

    def block_sizes(self) -> np.ndarray:
        """Length-K vector of block occupancies."""
        return np.bincount(self.labels - 1, minlength=self.K)


@dataclass(eq=False)
class BlockParams(_ValueEq):
    """Mixing weights and block matrix for one model kind.

    ``block_matrix`` holds probabilities p_kl in [0, 1] for the bernoulli
    kind and log-rates omega_kl for the poisson kinds (-inf encodes a
    zero rate).  ``gamma`` is required exactly for dc_poisson and may
    contain -inf for degree-zero nodes.  For undirected networks the
    block matrix is expected to be symmetric; likelihood routines assume
    it.
    """

    kind: str
    K: int
    pi: np.ndarray
    block_matrix: np.ndarray
    gamma: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in MODEL_KINDS:
            raise ValueError(f"unknown model kind {self.kind!r}")
        self.pi = np.asarray(self.pi, dtype=np.float64)
        self.block_matrix = np.asarray(self.block_matrix, dtype=np.float64)
        if self.pi.shape != (self.K,):
            raise ValueError("pi must have length K")
        if np.isnan(self.pi).any():
            raise ValueError("pi must not contain NaN")
        if self.pi.min() < 0 or abs(self.pi.sum() - 1.0) > 1e-9:
            raise ValueError("pi must be a simplex vector")
        if self.block_matrix.shape != (self.K, self.K):
            raise ValueError("block_matrix must be K x K")
        if np.isnan(self.block_matrix).any():
            raise ValueError("block_matrix must not contain NaN")
        if self.kind == "bernoulli":
            if self.block_matrix.min() < 0 or self.block_matrix.max() > 1:
                raise ValueError("bernoulli block_matrix entries must lie in [0, 1]")
        if (self.gamma is not None) != (self.kind == "dc_poisson"):
            raise ValueError("gamma is required exactly for dc_poisson")
        if self.gamma is not None:
            self.gamma = np.asarray(self.gamma, dtype=np.float64)
            if self.gamma.ndim != 1:
                raise ValueError("gamma must be a vector")
            if np.isnan(self.gamma).any():
                raise ValueError("gamma must not contain NaN")


@dataclass(eq=False)
class GraphonStep(Derived, _ValueEq):
    """Piecewise-constant graphon on a K x K grid.

    ``tau`` holds the K+1 interval boundaries with tau[0] = 0 and
    tau[K] = 1; interval k is [tau[k-1], tau[k]).  Boundaries are
    non-decreasing; a zero-width interval encodes an empty block (this
    arises when a mixing weight hits zero during estimation).  ``P`` is
    the symmetric connection-probability matrix.  Instances are immutable
    by convention: the sampler keeps tables it derives from them with
    :meth:`derived`.
    """

    tau: np.ndarray
    P: np.ndarray
    _derived: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.tau = np.asarray(self.tau, dtype=np.float64)
        self.P = np.asarray(self.P, dtype=np.float64)
        K = self.tau.size - 1
        if K < 1:
            raise ValueError("tau needs at least two boundaries")
        if self.tau[0] != 0.0 or abs(self.tau[-1] - 1.0) > 1e-12:
            raise ValueError("boundaries must start at 0 and end at 1")
        if np.any(np.diff(self.tau) < -1e-12):
            raise ValueError("boundaries must be non-decreasing")
        # stored exact, so every u in [0, 1) falls in one of the K intervals
        self.tau = np.append(np.minimum(np.maximum.accumulate(self.tau[:-1]), 1.0), 1.0)
        if self.P.shape != (K, K):
            raise ValueError("P must be K x K")
        if self.P.min() < 0 or self.P.max() > 1:
            raise ValueError("P entries must lie in [0, 1]")
        if not np.allclose(self.P, self.P.T, atol=1e-9):
            raise ValueError("P must be symmetric")

    @property
    def K(self) -> int:
        return self.tau.size - 1

    @property
    def pi(self) -> np.ndarray:
        """Interval lengths; the implied mixing weights."""
        return np.diff(self.tau)

    def interval_of(self, u) -> np.ndarray | int:
        """0-based index of the interval containing each u in [0, 1)."""
        u_arr = np.asarray(u, dtype=np.float64)
        if not ((u_arr >= 0) & (u_arr < 1)).all():
            raise ValueError("u must lie in [0, 1)")
        idx = self.tau.searchsorted(u_arr, side="right") - 1
        return idx if u_arr.ndim else int(idx)


def _xlogy(a, b):
    """a * log(b), and 0 where a is not positive.

    Callers run it under np.errstate(divide="ignore", invalid="ignore"),
    entered once per call of theirs, not once per term.
    """
    return np.where(a > 0, a * np.log(b), 0.0)


def _cell_sums(rows, cols, vals, shape) -> np.ndarray:
    """Table of the given shape summing vals (counting entries when None) per (row, col) cell.

    Each cell adds its values one at a time in input order, starting from
    0.0, so float sums are the same bit for bit as any such in-order sum.
    Sums of values are float64 even without entries, where bincount gives int64.
    """
    out = np.bincount(rows * shape[1] + cols, vals, shape[0] * shape[1])
    return (out if vals is None else out.astype(np.float64, copy=False)).reshape(shape)


def block_pair_stats(net: Network, labels0: np.ndarray, K: int):
    """Ordered-pair sufficient statistics for a hard partition.

    Returns (edge_total, pair_count, sizes) where edge_total[k, l] sums
    y_ij over ordered pairs i != j with labels (k, l), pair_count[k, l]
    is the number of such pairs, and sizes are block occupancies.  For
    undirected networks both matrices double-count each unordered pair.
    The stored values are summed cell by cell; they are whole numbers, so
    the float64 sums are exact whatever the order.
    """
    edge_total = _cell_sums(labels0[net.row_index()], labels0[net.indices], net.data, (K, K))
    sizes = np.bincount(labels0, minlength=K).astype(np.float64)
    pair_count = np.outer(sizes, sizes) - np.diag(sizes)
    return edge_total, pair_count, sizes


def _pair_scale(directed: bool) -> float:
    # ordered-pair statistics double-count unordered pairs
    return 1.0 if directed else 0.5


def global_rate(net: Network) -> float:
    """Mean edge value per possible pair; equals density for binary nets."""
    n = net.n_nodes
    possible = n * (n - 1) if net.directed else n * (n - 1) // 2
    return net.total_value / possible if possible else 0.0


def _check_partition(net: Network, part: Partition, params: BlockParams | None = None):
    if part.n != net.n_nodes:
        raise ValueError("partition length must equal the number of nodes")
    if params is not None and params.K != part.K:
        raise ValueError("partition and params disagree on K")


def bernoulli_loglik(net: Network, part: Partition, params: BlockParams) -> float:
    """Log-likelihood of a binary network under hard block assignments.

    Pairs whose cell probability is 0 or 1 contribute 0 when the data
    agree and -inf when they disagree, so impossible configurations rank
    strictly worst rather than erroring.
    """
    if params.kind != "bernoulli":
        raise ValueError("params.kind must be bernoulli")
    if net.value_kind != "binary":
        raise ValueError("bernoulli likelihood needs a binary network")
    _check_partition(net, part, params)
    e, m, _ = block_pair_stats(net, part.zero_based(), part.K)
    p = params.block_matrix
    with np.errstate(divide="ignore", invalid="ignore"):
        present = _xlogy(e, p)
        absent = np.where(m - e > 0, (m - e) * np.log1p(-p), 0.0)
    return float((present + absent).sum() * _pair_scale(net.directed))


def poisson_complete_loglik(net: Network, part: Partition, params: BlockParams) -> float:
    """Complete-data log-likelihood under the Poisson blockmodel.

    Sum over pairs of y*omega - exp(omega), plus the mixing term
    sum_i log pi_{z_i}.  Constant log(y!) terms are omitted.
    """
    if params.kind != "poisson":
        raise ValueError("params.kind must be poisson")
    _check_partition(net, part, params)
    e, m, sizes = block_pair_stats(net, part.zero_based(), part.K)
    omega = params.block_matrix
    with np.errstate(invalid="ignore"):
        edge_term = np.where(e > 0, e * omega, 0.0)
    pair_term = (edge_term - m * np.exp(omega)).sum() * _pair_scale(net.directed)
    with np.errstate(divide="ignore", invalid="ignore"):
        mix_term = _xlogy(sizes, params.pi).sum()
    return float(pair_term + mix_term)


def _dc_pair_weights(gamma: np.ndarray, labels0: np.ndarray, K: int) -> np.ndarray:
    """Ordered-pair sums of exp(gamma_i + gamma_j) per block cell."""
    expg = np.exp(gamma)
    s = np.bincount(labels0, expg, K)
    q = np.bincount(labels0, expg * expg, K)
    return np.outer(s, s) - np.diag(q)


def dc_poisson_loglik(net: Network, part: Partition, params: BlockParams) -> float:
    """Degree-corrected Poisson log-likelihood (no mixing term).

    Pair rate is exp(gamma_i + gamma_j + omega_kl); gamma entries of
    -inf (degree-zero nodes) zero out their pairs' rates.
    """
    if params.kind != "dc_poisson":
        raise ValueError("params.kind must be dc_poisson")
    if params.gamma is None or params.gamma.size != net.n_nodes:
        raise ValueError("gamma must have one entry per node")
    _check_partition(net, part, params)
    labels0 = part.zero_based()
    K = part.K
    omega = params.block_matrix
    deg = degrees(net)
    with np.errstate(invalid="ignore"):
        gamma_term = np.where(deg > 0, deg * params.gamma, 0.0).sum()
    e, _, _ = block_pair_stats(net, labels0, K)
    with np.errstate(invalid="ignore"):
        edge_term = np.where(e > 0, e * omega, 0.0)
    w = _dc_pair_weights(params.gamma, labels0, K)
    pair_term = (edge_term - w * np.exp(omega)).sum() * _pair_scale(net.directed)
    return float(gamma_term + pair_term)


def mle_block_params(net: Network, part: Partition, kind: str, allow_empty: bool = False) -> BlockParams:
    """Closed-form maximum-likelihood parameters for a hard partition.

    Cell estimates are edge totals over possible pair counts; cells with
    no possible pairs fall back to the global rate so the likelihood
    stays finite.  Every block must be occupied unless ``allow_empty``
    is set (search engines may finish with unused blocks).
    """
    if kind not in MODEL_KINDS:
        raise ValueError(f"unknown model kind {kind!r}")
    _check_partition(net, part)
    sizes = part.block_sizes()
    if not allow_empty:
        for k in np.flatnonzero(sizes == 0):
            raise ValueError(f"block {k + 1} is empty")
    n = net.n_nodes
    pi = sizes / n
    labels0 = part.zero_based()
    e, m, _ = block_pair_stats(net, labels0, part.K)
    fallback = global_rate(net)

    if kind == "bernoulli":
        if net.value_kind != "binary":
            raise ValueError("bernoulli fit needs a binary network")
        with np.errstate(invalid="ignore"):
            p = np.where(m > 0, e / np.maximum(m, 1), fallback)
        return BlockParams("bernoulli", part.K, pi, p)

    if kind == "poisson":
        with np.errstate(divide="ignore", invalid="ignore"):
            rate = np.where(m > 0, e / np.maximum(m, 1), fallback)
            omega = np.log(rate)
        return BlockParams("poisson", part.K, pi, omega)

    # dc_poisson: profile gamma by degree share, normalized so that
    # sum of exp(gamma) within each block equals the block size
    deg = degrees(net).astype(np.float64)
    kappa = np.bincount(labels0, deg, part.K)
    with np.errstate(divide="ignore", invalid="ignore"):
        gamma = np.where(
            (deg > 0) & (kappa[labels0] > 0),
            np.log(deg) + np.log(sizes[labels0]) - np.log(kappa[labels0]),
            -np.inf,
        )
    w = _dc_pair_weights(gamma, labels0, part.K)
    with np.errstate(divide="ignore", invalid="ignore"):
        rate = np.where(w > 0, e / np.maximum(w, 1e-300), fallback)
        omega = np.log(rate)
    return BlockParams("dc_poisson", part.K, pi, omega, gamma=gamma)


def graphon_eval(g: GraphonStep, u: float, v: float) -> float:
    """Connection probability p(u, v) of the step-function graphon."""
    k = g.interval_of(float(u))
    l = g.interval_of(float(v))
    return float(g.P[k, l])
