"""Sparse network storage, edge-list I/O, and descriptive statistics."""

from __future__ import annotations

import functools
import re
from collections import Counter
from typing import Callable, Hashable, Iterable, Mapping

import numpy as np

__all__ = [
    "EdgeListError",
    "Network",
    "load_edge_list",
    "load_weighted_edge_list",
    "load_labels",
    "to_edge_list_text",
    "density",
    "degrees",
    "discretize_weights",
]


class EdgeListError(ValueError):
    """An edge-list or label file could not be parsed."""


_INT64_MAX = np.iinfo(np.int64).max


def _passes_int64(vals: np.ndarray, starts, bits: int = 63) -> np.ndarray:
    """Whether each run of the non-negative int64 ``vals`` from ``starts`` on sums to 2**bits or more.

    Exact: the high and low 32 bits of the values sum apart, and neither
    sum wraps in a run of fewer than 2**31 values.
    """
    if not vals.size or int(vals.max()) * vals.size < 1 << bits:
        return np.zeros(len(starts), dtype=bool)
    high = np.add.reduceat(vals >> 32, starts)
    high += np.add.reduceat(vals & 0xFFFFFFFF, starts) >> 32
    return high >= 1 << (bits - 32)


def _grouped(n: int, src: np.ndarray, dst: np.ndarray, vals: np.ndarray):
    """CSR arrays (indptr, indices, data) of the pairs src -> dst, sorted by (src, dst).

    Every network, and every transposed (in-neighbour) view, is built here.
    """
    order = np.argsort(src * n + dst)
    return np.searchsorted(src[order], np.arange(n + 1)), dst[order], vals[order]


class Derived:
    """Structures computed from an instance that is immutable by convention.

    The class using it keeps them in ``_derived``, a dict that starts
    empty: a dataclass declares ``_derived: dict = field(default_factory=dict,
    init=False, repr=False, compare=False)``.  Pickles leave the store out.
    """

    _derived: dict

    def __getstate__(self):
        # pool workers rebuild derived structures rather than receive them
        return {**self.__dict__, "_derived": {}}

    def derived(self, key: Hashable, build: Callable):
        """``build(self)``, computed on the first call for ``key`` and kept on the instance."""
        if key not in self._derived:
            self._derived[key] = build(self)
        return self._derived[key]


class Network(Derived):
    """A binary or count-valued graph without self-loops.

    Built from parallel arrays giving each edge once: ``src[k] -> dst[k]``
    with the integer value ``values[k]``.  Zero values are left out, and an
    undirected edge, given in either orientation, gains the other.  The
    constructor raises ValueError for an array that is not 1-d integer
    (an empty one of any dtype passes), a node index outside
    ``0..n_nodes-1``, a self-loop, a negative value, a binary value other
    than 1, a node pair given twice (undirected: in either orientation),
    stored values (both orientations when undirected) that total more than
    2**63 - 1, and node labels that repeat, do not number ``n_nodes``, or
    are empty or hold whitespace (as ``str.isspace`` reads it) or ``#``.

    Storage is compressed sparse row (CSR): node i's out-neighbours are
    ``indices[indptr[i]:indptr[i + 1]]`` in ascending order, with their
    positive integer values at the same positions of ``data``; absent pairs
    are zeros.  Undirected networks store both orientations of every edge.
    Instances are immutable by convention and can be shared freely across
    concurrent estimator runs.  Structures an engine derives from the
    arrays can be kept on the instance with :meth:`derived`; pickles leave
    them out.
    """

    n_nodes: int
    directed: bool
    value_kind: str  # "binary" | "count"
    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    node_labels: tuple[str, ...] | None

    def __init__(self, n_nodes: int, src, dst, values, directed: bool = False,
                 value_kind: str = "binary", node_labels: Iterable[str] | None = None):
        if n_nodes < 1:
            raise ValueError("a network needs at least one node")
        if value_kind not in ("binary", "count"):
            raise ValueError(f"unknown value_kind {value_kind!r}")
        if node_labels is not None:
            node_labels = _distinct_labels(tuple(str(s) for s in node_labels))
            if len(node_labels) != n_nodes:
                raise ValueError("node_labels length must equal n_nodes")
            # each label is a field of edge-list lines; \s matches what str.isspace accepts
            if not all(node_labels) or re.search(r"[\s#]", "".join(node_labels)):
                bad = next(s for s in node_labels if not s or re.search(r"[\s#]", s))
                raise ValueError(f"node label {bad!r} is empty or holds whitespace or '#'")
        arrays = {"src": src, "dst": dst, "values": values}
        for name, a in arrays.items():
            a = np.asarray(a)
            if a.ndim != 1 or (a.size and a.dtype.kind not in "iu"):
                raise ValueError(f"{name} must be a 1-d integer array")
            arrays[name] = a.astype(np.int64, copy=False)
        src, dst, vals = arrays.values()
        if not src.size == dst.size == vals.size:
            raise ValueError("src, dst and values must have the same length")
        keep = vals != 0
        src, dst, vals = src[keep], dst[keep], vals[keep]
        outside = (src < 0) | (src >= n_nodes)
        bad = outside | (dst < 0) | (dst >= n_nodes)
        if bad.any():
            k = int(np.argmax(bad))
            raise ValueError(f"node index {(src if outside[k] else dst)[k]} out of range")
        checks = [
            (src == dst, "self-loop stored on node {i}"),
            (vals < 0, "stored value for ({i}, {j}) must be a positive integer, got {v}"),
        ]
        if value_kind == "binary":
            checks.append((vals != 1, "binary network holds value {v} at ({i}, {j})"))
        for bad, message in checks:
            if bad.any():
                k = int(np.argmax(bad))
                raise ValueError(message.format(i=src[k], j=dst[k], v=vals[k]))
        if _passes_int64(vals, [0], 63 if directed else 62)[0]:
            raise ValueError("stored values (both orientations when undirected) total more than 2**63 - 1")
        if not directed:
            src, dst, vals = np.concatenate((src, dst)), np.concatenate((dst, src)), np.tile(vals, 2)
        ptr, cols, data = _grouped(n_nodes, src, dst, vals)
        # a pair given twice sits next to itself within one row
        at = np.flatnonzero(cols[1:] == cols[:-1]) + 1
        rows = np.searchsorted(ptr, at, side="right") - 1
        repeat = ptr[rows] != at
        if repeat.any():
            k = int(np.argmax(repeat))
            raise ValueError(f"node pair ({rows[k]}, {cols[at[k]]}) is given twice")
        self.n_nodes, self.directed, self.value_kind = n_nodes, directed, value_kind
        self.indptr, self.indices, self.data, self.node_labels = ptr, cols, data, node_labels
        self._derived = {}

    @classmethod
    def from_edges(
        cls,
        n_nodes: int,
        edges: Mapping[tuple[int, int], int] | Iterable[tuple[int, int]],
        directed: bool = False,
        value_kind: str = "binary",
        node_labels: Iterable[str] | None = None,
    ) -> "Network":
        """Build a network from edges given in one orientation.

        ``edges`` is either a pair -> value mapping or an iterable of pairs
        (value 1).  For undirected networks the mirrored orientation is
        added automatically.
        """
        if not isinstance(edges, Mapping):
            edges = dict.fromkeys(edges, 1)
        pairs = np.array(list(edges)).reshape(-1, 2)
        return cls(n_nodes, *pairs.T, list(edges.values()), directed, value_kind, node_labels)

    @property
    def n_edges(self) -> int:
        """Number of present edges (pairs with a positive value)."""
        return self.indices.size if self.directed else self.indices.size // 2

    @property
    def total_value(self) -> int:
        """Sum of edge values over distinct edges."""
        s = int(self.data.sum())
        return s if self.directed else s // 2

    def value(self, i: int, j: int) -> int:
        if not 0 <= min(i, j) <= max(i, j) < self.n_nodes:
            raise ValueError(f"node pair ({i}, {j}) lies outside 0..{self.n_nodes - 1}")
        lo, hi = self.indptr[i], self.indptr[i + 1]
        k = lo + int(np.searchsorted(self.indices[lo:hi], j))
        return int(self.data[k]) if k < hi and self.indices[k] == j else 0

    def labels(self) -> tuple[str, ...]:
        """External node identifiers; defaults to stringified indices."""
        if self.node_labels is not None:
            return self.node_labels
        return tuple(str(i) for i in range(self.n_nodes))

    def row_index(self) -> np.ndarray:
        """The row (source node) of each stored value, aligned with ``indices``."""
        return np.repeat(np.arange(self.n_nodes), self.indptr[1:] - self.indptr[:-1])

    def transpose(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """CSR arrays of the reversed edges (row j: j's in-neighbours); undirected, its own."""
        if not self.directed:
            return self.indptr, self.indices, self.data
        return self.derived("transpose", lambda net: _grouped(net.n_nodes, net.indices, net.row_index(), net.data))

    def to_dense(self, dtype=np.int64) -> np.ndarray:
        """Dense value matrix with zero diagonal; symmetric if undirected."""
        y = np.zeros((self.n_nodes, self.n_nodes), dtype=dtype)
        y[self.row_index(), self.indices] = self.data
        return y


def _distinct_labels(labels: tuple) -> tuple:
    """``labels`` itself when no label repeats."""
    if len(set(labels)) < len(labels):
        repeated = next(s for s, count in Counter(labels).items() if count > 1)
        raise ValueError(f"node label {repeated!r} repeats")
    return labels


def _read_edges(text: str, usage: str, value, default, top):
    """The tokenized lines shared by the edge-list readers.

    ``value(token, lineno)`` converts a third field; a line without one
    takes ``default``, or is an error when that is None.  Unless ``top``
    is None, third fields of 1 to 18 ASCII digits are read in NumPy and
    must lie in 1..top, and only the other fields go through ``value``.
    The first line that fails raises: on one line a self-loop before a
    wrong field count before a bad value.  Returns the node names and, per
    edge line, source and target index, value and line.
    """
    from blockmix._tokenizer import split  # loaded by the first read, so CLI start does not compile it

    f = split(text, 2)
    if not f.count.size:
        raise EdgeListError("no edges")
    src, dst = f.keys.T
    loop = src == dst
    bad = loop | (f.count > 3) | ((f.count == 2) & (default is None))
    stop = int(np.argmax(bad)) if bad.any() else bad.size
    edges = np.flatnonzero(f.count[:stop] >= 2)
    given = f.count[edges] == 3
    lines = f.lineno[edges]
    tokens, at = f.first[edges[given]] + 2, lines[given]
    if top is None or not tokens.size:
        values = np.array([value(token, lineno) for token, lineno in zip(f.strings(tokens), at.tolist())])
    else:
        values, odd = f.integers(tokens)
        wrong = ~odd & ((values < 1) | (values > top))
        first = int(np.argmax(wrong)) if wrong.any() else wrong.size
        odd = np.flatnonzero(odd[:first])  # the odd fields before the first wrong one
        values[odd] = [value(token, lineno) for token, lineno in zip(f.strings(tokens[odd]), at[odd].tolist())]
        if first < wrong.size:
            value(f.strings([tokens[first]])[0], at[first])  # raises the line's message
    if stop < bad.size:
        if loop[stop]:
            raise EdgeListError(f"line {f.lineno[stop]}: self-loop on node {f.strings([f.first[stop]])[0]!r}")
        raise EdgeListError(f"line {f.lineno[stop]}: expected {usage}, got {f.count[stop]} fields")
    if default is None:
        vals = values
    else:
        vals = np.full(edges.size, default)
        vals[given] = values
    return tuple(f.strings(f.names)), src[edges], dst[edges], vals, lines


def _merge_lines(n: int, names, src, dst, vals, lines, directed: bool, binary: bool):
    """One (src, dst, value) per edge from the parsed lines, in one orientation.

    Lines naming the same ordered pair sum (count) or are an error (binary);
    undirected, both orientations of a pair must total the same.  An error
    names the last line of the pair that ends first, or, for a total past
    2**63 - 1, the first line where a pair's sum in line order passes it.
    """
    # undirected keys: the unordered pair, then the orientation
    key = src * n + dst if directed else (np.minimum(src, dst) * n + np.maximum(src, dst)) * 2 + (src > dst)
    order = np.argsort(key)
    key = key[order]
    starts = np.flatnonzero(np.diff(key, prepend=-1))
    src, dst, key = src[order[starts]], dst[order[starts]], key[starts]
    vals = np.asarray(vals, dtype=np.int64)
    ordered = vals[order]
    total = np.add.reduceat(ordered, starts)
    last = np.maximum.reduceat(lines[order], starts)
    over = _passes_int64(ordered, starts)
    if over.any():
        ends, passes = np.append(starts[1:], order.size), []
        for k in np.flatnonzero(over).tolist():
            run = np.sort(order[starts[k]:ends[k]])  # the pair's lines in file order
            passes.append((lines[run[np.argmax(np.cumsum(vals[run].astype(object)) > _INT64_MAX)]], k))
        line, k = min(passes)
        raise EdgeListError(f"line {line}: {names[src[k]]!r} {names[dst[k]]!r} total more than 2**63 - 1")
    if binary and (total > 1).any():
        k = int(np.argmin(np.where(total > 1, last, _INT64_MAX)))
        raise EdgeListError(f"line {last[k]}: duplicate edge {names[src[k]]!r} {names[dst[k]]!r}")
    keep = np.diff(key if directed else key // 2, prepend=-1) != 0  # an edge's first orientation
    differ = ~keep[1:] & (total[1:] != total[:-1])
    if differ.any():
        at = np.where(differ, np.maximum(last[1:], last[:-1]), _INT64_MAX)
        k = int(np.argmin(at))
        a, b = names[src[k]], names[dst[k]]
        raise EdgeListError(f"line {at[k]}: {a!r} {b!r} totals {total[k]} but {b!r} {a!r} totals {total[k + 1]}")
    return src[keep], dst[keep], total[keep]


def _int_value(token: str, lineno: int, binary: bool = False) -> int:
    try:
        v = int(token)
    except ValueError:
        raise EdgeListError(f"line {lineno}: non-numeric value {token!r}") from None
    if v < 0:
        raise EdgeListError(f"line {lineno}: negative value {v}")
    if binary and v != 1:
        raise EdgeListError(f"line {lineno}: binary edge list carries value {v}")
    if v == 0:
        raise EdgeListError(f"line {lineno}: count value 0 (leave non-edges out)")
    if v > _INT64_MAX:
        raise EdgeListError(f"line {lineno}: value {v} does not fit in 64 bits")
    return v


def _weight(token: str, lineno: int) -> float:
    try:
        w = float(token)
    except ValueError:
        raise EdgeListError(f"line {lineno}: non-numeric weight {token!r}") from None
    if not 0.0 <= w <= 1.0:
        raise EdgeListError(f"line {lineno}: weight {w} outside [0, 1]")
    return w


# per edge-list kind, the arguments of _read_edges after the text: usage,
# value converter, default value, and largest value read in NumPy
_FORMATS = {
    "binary": ("'src dst [value]'", functools.partial(_int_value, binary=True), 1, 1),
    "count": ("'src dst value'", _int_value, None, _INT64_MAX),
    "weighted": ("'src dst weight'", _weight, None, None),
}


def load_edge_list(text: str, directed: bool = False, value_kind: str = "binary") -> Network:
    """Parse edge-list text into a :class:`Network`.

    Each non-comment line is ``src dst [value]`` (whitespace-delimited,
    ``#`` starts a comment).  Node identifiers are arbitrary strings and
    are mapped to dense indices in first-appearance order.  A line with a
    single token declares an isolated node; the serializer emits these so
    that networks round-trip exactly.

    Binary lines carry no value or 1; count lines need a value of at
    least 1, and duplicate (src, dst) lines sum, where in binary mode they
    are an error.  Values are read as ``int`` reads them; a value, a
    pair's total or the stored total (both orientations when undirected)
    past 2**63 - 1 is an error.  Undirected input may list a pair once or both ways
    (``a b`` and ``b a``), and then both orientations must total the same.
    ``text`` is the whole file as a ``str``; anything else raises
    ``TypeError``.
    """
    if value_kind not in ("binary", "count"):
        raise ValueError(f"unknown value_kind {value_kind!r}")
    names, *parsed = _read_edges(text, *_FORMATS[value_kind])
    n = len(names)
    src, dst, total = _merge_lines(n, names, *parsed, directed, value_kind == "binary")
    del parsed  # free the line arrays before the build, or the heap stays grown for later work
    return Network(n, src, dst, total, directed=directed, value_kind=value_kind, node_labels=names)


def load_weighted_edge_list(text: str, directed: bool = False):
    """Parse a real-valued edge list with weights in [0, 1].

    Returns ``(weights, node_labels)`` where ``weights`` maps index pairs
    to floats.  Each pair is listed once.  Use :func:`discretize_weights`
    to turn the result into a count network.  ``text`` is the whole file
    as a ``str``; anything else raises ``TypeError``.
    """
    names, src, dst, vals, lines = _read_edges(text, *_FORMATS["weighted"])
    if not directed:
        src, dst = np.minimum(src, dst), np.maximum(src, dst)
    key = src * len(names) + dst
    order = np.argsort(key, kind="stable")
    repeat = np.zeros(key.size, dtype=bool)
    repeat[order[1:]] = key[order[1:]] == key[order[:-1]]
    if repeat.any():
        k = int(np.argmax(repeat))
        raise EdgeListError(f"line {lines[k]}: duplicate weighted edge {names[src[k]]!r} {names[dst[k]]!r}")
    return dict(zip(zip(src.tolist(), dst.tolist()), vals.tolist())), names


def load_labels(text: str) -> dict[str, str]:
    """Parse a ground-truth label file with ``node_id group_label`` lines.

    ``text`` is the whole file as a ``str``; anything else raises
    ``TypeError``.
    """
    from blockmix._tokenizer import split  # loaded by the first read, so CLI start does not compile it

    f = split(text, 1)
    node = f.keys[:, 0]
    repeat = np.zeros(node.size, dtype=bool)  # numbers rise at each node's first line
    repeat[1:] = node[1:] <= np.maximum.accumulate(node)[:-1]
    bad = (f.count != 2) | repeat
    if bad.any():
        k = int(np.argmax(bad))
        if f.count[k] != 2:
            raise EdgeListError(f"line {f.lineno[k]}: expected 'node_id group_label'")
        raise EdgeListError(f"line {f.lineno[k]}: duplicate node {f.strings([f.first[k]])[0]!r}")
    return dict(zip(f.strings(f.first), f.strings(f.first + 1)))


def to_edge_list_text(net: Network) -> str:
    """Serialize a network to edge-list text that reloads identically.

    Every node is declared on its own line (preserving index order, and
    keeping isolated nodes), followed by one line per edge in sorted index
    order.  Count networks carry an explicit value field.
    """
    labels = net.labels()
    rows, cols, vals = net.row_index(), net.indices, net.data
    if not net.directed:
        upper = rows < cols
        rows, cols, vals = rows[upper], cols[upper], vals[upper]
    names = np.array(labels, dtype=object)
    fields = [names[rows].tolist(), names[cols].tolist()]
    if net.value_kind == "count":
        fields.append(list(map(str, vals.tolist())))
    return "\n".join([*labels, *map(" ".join, zip(*fields))]) + "\n"


def density(net: Network) -> float:
    """Fraction of possible node pairs joined by an edge.

    Counts presence, not value: n(n-1)/2 possible pairs when undirected,
    n(n-1) when directed.
    """
    if net.n_nodes < 2:
        raise ValueError("density needs at least two nodes")
    return net.n_edges / _n_pairs(net)


def _n_pairs(net: Network) -> int:
    """Number of possible node pairs: ordered ones when directed, unordered ones when not."""
    return net.n_nodes * (net.n_nodes - 1) // (1 if net.directed else 2)


def degrees(net: Network) -> np.ndarray:
    """Per-node total of incident edge values (in + out when directed)."""
    deg = np.zeros(net.n_nodes, dtype=np.int64)
    np.add.at(deg, net.row_index(), net.data)
    if net.directed:
        np.add.at(deg, net.indices, net.data)
    return deg


def discretize_weights(
    weights: Mapping[tuple[int, int], float],
    n_bins: int,
    n_nodes: int | None = None,
    directed: bool = False,
    node_labels: Iterable[str] | None = None,
) -> Network:
    """Bin [0, 1] weights into counts: ``floor(w * n_bins)``, top bin closed.

    A weight of exactly 1 maps to ``n_bins``; weights that floor to zero
    leave the pair absent.  Above 2**53 bins the float product is inexact.
    """
    if not 1 <= n_bins <= 2**53:
        raise ValueError("n_bins must lie in 1..2**53")
    pairs = np.array(list(weights)).reshape(-1, 2)
    w = np.array(list(weights.values()), dtype=np.float64)
    bad = ~((w >= 0.0) & (w <= 1.0))
    if bad.any():
        k = int(np.argmax(bad))
        raise ValueError(f"weight {w[k]} for pair ({pairs[k, 0]}, {pairs[k, 1]}) outside [0, 1]")
    values = np.minimum(np.floor(w * n_bins), n_bins).astype(np.int64)
    if n_nodes is None:
        n_nodes = int(pairs.max(initial=-1)) + 1
    return Network(n_nodes, pairs[:, 0], pairs[:, 1], values, directed=directed,
                   value_kind="count", node_labels=node_labels)
