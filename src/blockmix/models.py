"""Blockmodel parameter types, log-likelihoods, and closed-form MLEs.

Three model kinds are supported: "bernoulli" (edge probabilities p_kl),
"poisson" (log-rates omega_kl), and "dc_poisson" (log-rates plus a
per-node heterogeneity offset gamma_i).  All pair sums exclude the
diagonal and run over unordered pairs i < j for undirected networks,
ordered pairs i != j for directed ones.

The engines' shared rules are coded here once: the kinds each engine fits
(``check_kind``), the block rates with their fallback (``block_rates``) and
the pair log-likelihood at given parameters (``_pair_term``, read by the
likelihoods and vem's bound).  A p = 0, p = 1 or zero-rate cell, or a -inf
gamma, is a -inf log-table cell, and 0 * (-inf) = 0 by one rule (``_sum``).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from blockmix.graph import Derived, Network, _n_pairs, degrees

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

# the model kinds each engine fits
_ENGINE_KINDS = {"vem": ("bernoulli", "poisson"), "switch": MODEL_KINDS, "mcem": ("bernoulli",)}


def check_kind(net: Network | None, kind: str, engine: str | None = None):
    """Raise a ValueError unless ``kind`` is a model kind that ``engine`` fits and ``net`` suits (when given)."""
    if kind not in MODEL_KINDS:
        raise ValueError(f"unknown model kind {kind!r}")
    if engine is not None and kind not in _ENGINE_KINDS[engine]:
        raise ValueError(f"the {engine} method fits the model kinds {', '.join(_ENGINE_KINDS[engine])}, not {kind}")
    if net is not None and kind == "bernoulli" and net.value_kind != "binary":
        raise ValueError("the bernoulli model needs a binary network")


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
        given = np.asarray(self.labels)
        if given.ndim != 1 or given.size == 0:
            raise ValueError("labels must be a non-empty 1-d sequence")
        if self.K < 1:
            raise ValueError("K must be at least 1")
        if not ((given >= 1) & (given <= self.K)).all():  # False for NaN
            raise ValueError(f"labels must lie in 1..{self.K}")
        self.labels = given.astype(np.int64, copy=False)
        if (self.labels != given).any():
            raise ValueError("labels must be whole numbers")

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
        for name in ("tau", "P"):
            if np.isnan(getattr(self, name)).any():
                raise ValueError(f"{name} must not contain NaN")
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

    The table has vals' dtype (int64 when None), and each cell adds its values
    in input order from zero: whole-number sums are exact, and float sums the
    same bit for bit as any such in-order sum.
    """
    out = np.zeros(shape[0] * shape[1], dtype=np.int64 if vals is None else vals.dtype)
    np.add.at(out, rows * shape[1] + cols, 1 if vals is None else vals)
    return out.reshape(shape)


def block_pair_stats(net: Network, labels0: np.ndarray, K: int):
    """Ordered-pair sufficient statistics for a hard partition.

    ``labels0`` holds one integer label in 0..K-1 per node.  Returns
    (edge_total, pair_count, sizes) where edge_total[k, l] sums y_ij over
    ordered pairs i != j with labels (k, l), pair_count[k, l] is the number
    of such pairs, and sizes are block occupancies.  For undirected networks
    both matrices double-count each unordered pair.  All three are exact
    int64 tables: the stored values total at most 2**63 - 1.
    """
    labels0 = np.asarray(labels0)
    if (labels0.shape != (net.n_nodes,) or labels0.dtype.kind not in "iu"
            or not ((labels0 >= 0) & (labels0 < K)).all()):
        raise ValueError(f"labels0 must hold {net.n_nodes} whole numbers in 0..{K - 1}")
    edge_total = _cell_sums(labels0[net.row_index()], labels0[net.indices], net.data, (K, K))
    sizes = np.bincount(labels0, minlength=K)
    pair_count = np.outer(sizes, sizes) - np.diag(sizes)
    return edge_total, pair_count, sizes


def global_rate(net: Network) -> float:
    """Mean edge value per possible pair; equals density for binary nets."""
    possible = _n_pairs(net)
    return net.total_value / possible if possible else 0.0


def _check_partition(net: Network, part: Partition, params: BlockParams | None = None):
    if part.n != net.n_nodes:
        raise ValueError("partition length must equal the number of nodes")
    if params is not None and params.K != part.K:
        raise ValueError("partition and params disagree on K")


def _split(table):
    """``table``'s finite part (0 at its -inf cells) and a float mask of those cells (None when there is none)."""
    neginf = np.isneginf(table)
    return np.where(neginf, 0.0, table), (neginf.astype(np.float64) if neginf.any() else None)


def _sum(*terms) -> float:
    """The sum of the products coef * table over ``terms`` and all their cells.

    Each term pairs coefficients with a ``_split`` table; the products take
    its finite part, and the sum is -inf where a coefficient of at least
    1e-9 meets a -inf cell: for whole-number counts, any count > 0.
    Smaller coefficients are rounding noise, such as a p = 1 cell's
    non-edge count of -1e-17 in vem's soft statistics.
    """
    total, hit = None, False
    for coef, (value, neginf) in terms:
        total = coef * value if total is None else total + coef * value
        hit = hit or (neginf is not None and bool(((coef >= 1e-9) * neginf).any()))
    return -np.inf if hit else np.add.reduce(total, axis=None)


def _pair_tables(params: BlockParams):
    """The ``_split`` tables of an edge and a non-edge (bernoulli), or of the log-rate and minus the rate.

    A log-rate above about 709.78 overflows the rate to +inf: a -inf cell
    of the second table, so a cell with pairs gives -inf and one without 0.
    """
    with np.errstate(divide="ignore", over="ignore"):
        if params.kind == "bernoulli":
            return _split(np.log(params.block_matrix)), _split(np.log1p(-params.block_matrix))
        return _split(params.block_matrix), _split(-np.exp(params.block_matrix))


@np.errstate(divide="ignore", invalid="ignore")
def _pair_term(e, pairs, directed: bool, params: BlockParams) -> float:
    """The pairs' log-likelihood at ``params`` from ordered-pair block statistics.

    ``e`` sums the values of each cell's pairs and ``pairs`` counts them
    (dc_poisson: sums exp(gamma_i + gamma_j) over them).  A cell adds
    e log p + (pairs - e) log(1 - p) (bernoulli) or e omega - pairs exp(omega);
    constant log(y!) terms are omitted.
    """
    table_a, table_b = _pair_tables(params)
    rest = pairs - e if params.kind == "bernoulli" else pairs
    # ordered-pair statistics double-count unordered pairs
    return _sum((e, table_a), (rest, table_b)) * (1.0 if directed else 0.5)


@np.errstate(divide="ignore")
def _mix_term(sizes, pi) -> float:
    """The mixing term: block sizes (or responsibility totals) times log pi."""
    return _sum((sizes, _split(np.log(pi))))


def _loglik_stats(net: Network, part: Partition, params: BlockParams, kind: str):
    """``block_pair_stats`` of ``part`` once the inputs of ``kind``'s likelihood are checked."""
    if params.kind != kind:
        raise ValueError(f"params.kind must be {kind}")
    check_kind(net, kind)
    if params.gamma is not None and params.gamma.size != net.n_nodes:
        raise ValueError("gamma must have one entry per node")
    _check_partition(net, part, params)
    for name, value in (("block_matrix", params.block_matrix), ("gamma", params.gamma)):
        if value is not None and np.isposinf(value).any():
            raise ValueError(f"{name} must not contain +inf")
    return block_pair_stats(net, part.zero_based(), part.K)


def bernoulli_loglik(net: Network, part: Partition, params: BlockParams) -> float:
    """Log-likelihood of a binary network under hard block assignments.

    Pairs whose cell probability is 0 or 1 contribute 0 when the data
    agree and -inf when they disagree, so impossible configurations rank
    strictly worst rather than erroring.
    """
    e, m, _ = _loglik_stats(net, part, params, "bernoulli")
    return float(_pair_term(e, m, net.directed, params))


def poisson_complete_loglik(net: Network, part: Partition, params: BlockParams) -> float:
    """Complete-data log-likelihood under the Poisson blockmodel.

    Sum over pairs of y*omega - exp(omega), plus the mixing term
    sum_i log pi_{z_i}.  Constant log(y!) terms are omitted.
    """
    e, m, sizes = _loglik_stats(net, part, params, "poisson")
    return float(_pair_term(e, m, net.directed, params) + _mix_term(sizes, params.pi))


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
    e, _, _ = _loglik_stats(net, part, params, "dc_poisson")
    gamma_term = _sum((degrees(net), _split(params.gamma)))
    w = _dc_pair_weights(params.gamma, part.zero_based(), part.K)
    return float(gamma_term + _pair_term(e, w, net.directed, params))


def block_rates(kind: str, e, pairs, fallback: float, tiny: float = 0.0) -> np.ndarray:
    """Block rates e / pairs, and ``fallback`` where a cell has pairs of at most ``tiny``:
    probabilities clipped to [0, 1] for bernoulli, log-rates otherwise.

    Whole-number pair counts read any threshold below 1 alike; vem's soft
    pairs pass 1e-12, and dc_poisson's weights keep the default w > 0.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        rate = np.where(pairs > tiny, e / pairs, fallback)
        return np.clip(rate, 0.0, 1.0) if kind == "bernoulli" else np.log(rate)


def mle_block_params(net: Network, part: Partition, kind: str, allow_empty: bool = False) -> BlockParams:
    """Closed-form maximum-likelihood parameters for a hard partition.

    Cell estimates are edge totals over possible pair counts; cells with
    no possible pairs fall back to the global rate so the likelihood
    stays finite.  Every block must be occupied unless ``allow_empty``
    is set (search engines may finish with unused blocks).
    """
    check_kind(net, kind)
    _check_partition(net, part)
    sizes = part.block_sizes()
    if not allow_empty:
        for k in np.flatnonzero(sizes == 0):
            raise ValueError(f"block {k + 1} is empty")
    pi = sizes / net.n_nodes
    labels0 = part.zero_based()
    e, m, _ = block_pair_stats(net, labels0, part.K)
    fallback = global_rate(net)
    if kind != "dc_poisson":
        return BlockParams(kind, part.K, pi, block_rates(kind, e, m, fallback))

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
    return BlockParams(kind, part.K, pi, block_rates(kind, e, w, fallback), gamma=gamma)


def graphon_eval(g: GraphonStep, u: float, v: float) -> float:
    """Connection probability p(u, v) of the step-function graphon."""
    k = g.interval_of(float(u))
    l = g.interval_of(float(v))
    return float(g.P[k, l])
