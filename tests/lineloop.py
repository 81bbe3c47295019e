"""The line-at-a-time edge-list readers, kept as the oracle of the tokenizer.

``read_edges`` is the loop ``graph._read_edges`` ran before it read the
whole text with NumPy; ``weighted`` and ``labels`` are the former bodies of
``load_weighted_edge_list`` and ``load_labels``.  Differential tests
require the same outputs and the same error messages from both.
"""

from blockmix.graph import EdgeListError


def tokens(line: str) -> list[str]:
    return line.split("#", 1)[0].split()


def read_edges(source, usage: str, value, default):
    """Node names and, per edge line, source and target index, value and line."""
    if isinstance(source, str):
        source = source.splitlines()
    index: dict[str, int] = {}
    src, dst, vals, lines = [], [], [], []
    for lineno, raw in enumerate(source, start=1):
        toks = tokens(raw)
        if len(toks) < 2:
            if toks and toks[0] not in index:
                index[toks[0]] = len(index)
            continue
        a, b = toks[0], toks[1]
        if a == b:
            raise EdgeListError(f"line {lineno}: self-loop on node {a!r}")
        if len(toks) > 3 or (len(toks) == 2 and default is None):
            raise EdgeListError(f"line {lineno}: expected {usage}, got {len(toks)} fields")
        i = index.get(a)
        if i is None:
            i = index[a] = len(index)
        j = index.get(b)
        if j is None:
            j = index[b] = len(index)
        src.append(i)
        dst.append(j)
        vals.append(default if len(toks) == 2 else value(toks[2], lineno))
        lines.append(lineno)
    if not index:
        raise EdgeListError("no edges")
    return tuple(index), src, dst, vals, lines


def weighted(text: str, usage: str, value, directed: bool):
    """``load_weighted_edge_list``'s (weights, node_labels)."""
    names, src, dst, vals, lines = read_edges(text, usage, value, None)
    weights: dict[tuple[int, int], float] = {}
    for i, j, w, lineno in zip(src, dst, vals, lines):
        key = (i, j) if directed or i < j else (j, i)
        if key in weights:
            raise EdgeListError(f"line {lineno}: duplicate weighted edge {names[i]!r} {names[j]!r}")
        weights[key] = w
    return weights, names


def labels(text: str) -> dict[str, str]:
    """``load_labels``' node -> group mapping."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        toks = tokens(raw)
        if not toks:
            continue
        if len(toks) != 2:
            raise EdgeListError(f"line {lineno}: expected 'node_id group_label'")
        if toks[0] in out:
            raise EdgeListError(f"line {lineno}: duplicate node {toks[0]!r}")
        out[toks[0]] = toks[1]
    return out
