"""Edge-list parsing, serialization round trips, and graph statistics."""

import pickle
import re
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import lineloop
from blockmix import _tokenizer, graph
from blockmix.graph import (
    EdgeListError,
    Network,
    degrees,
    density,
    discretize_weights,
    load_edge_list,
    load_labels,
    load_weighted_edge_list,
    to_edge_list_text,
)
from blockmix.models import global_rate
from netfixtures import random_network, same_network


class TestLoadEdgeList:
    def test_basic_undirected(self):
        net = load_edge_list("a b\nb c\n")
        assert net.n_nodes == 3
        assert net.n_edges == 2
        assert net.labels() == ("a", "b", "c")
        assert net.value(0, 1) == 1 and net.value(1, 0) == 1
        assert net.value(0, 2) == 0

    def test_first_appearance_indexing(self):
        net = load_edge_list("x9 q\nq a\n")
        assert net.labels() == ("x9", "q", "a")

    def test_comments_and_blank_lines(self):
        net = load_edge_list("# header\n\na b  # trailing\n   \n")
        assert net.n_edges == 1

    def test_single_token_declares_isolated_node(self):
        net = load_edge_list("lonely\na b\n")
        assert net.n_nodes == 3
        assert net.labels()[0] == "lonely"
        assert degrees(net)[0] == 0

    def test_undirected_orientations_merge(self):
        # "a b" and "b a" name the same undirected edge
        net = load_edge_list("a b\nb a\n")
        assert net.n_edges == 1 and net.value(0, 1) == 1
        net = load_edge_list("a b 2\nb a 2\n", value_kind="count")
        assert net.n_edges == 1 and net.value(0, 1) == 2 and net.value(1, 0) == 2
        # repeated lines sum first; the two orientations' totals must agree
        net = load_edge_list("a b 2\nb a 3\na b 1\n", value_kind="count")
        assert net.value(0, 1) == 3
        with pytest.raises(EdgeListError, match="line 2: 'a' 'b' totals 2 but 'b' 'a' totals 3"):
            load_edge_list("a b 2\nb a 3\n", value_kind="count")
        with pytest.raises(EdgeListError, match="line 3: duplicate edge 'a' 'b'"):
            load_edge_list("a b\nb a\na b\n")

    def test_directed_orientations_distinct(self):
        net = load_edge_list("a b\nb a\n", directed=True)
        assert net.n_edges == 2

    def test_count_duplicates_sum(self):
        net = load_edge_list("a b 2\na b 1\n", value_kind="count")
        assert net.value(0, 1) == 3

    def test_count_value_zero_or_missing_rejected(self):
        with pytest.raises(EdgeListError, match="line 1: count value 0"):
            load_edge_list("a b 0\nb c 1\n", value_kind="count")
        with pytest.raises(EdgeListError, match="line 2: expected 'src dst value', got 2 fields"):
            load_edge_list("a b 1\nb c\n", value_kind="count")

    def test_value_beyond_64_bits_rejected(self):
        with pytest.raises(EdgeListError, match="line 1: value .* does not fit"):
            load_edge_list(f"a b {2**63}\n", value_kind="count")

    def test_count_total_beyond_64_bits_names_its_line(self):
        top = str(2**63 - 1)
        # a pair's sum passes 2**63 - 1 on its second line here, line 3
        text = f"a b 3\nc d {top}\nc d 5\na b {top}\n"
        for directed in (False, True):
            with pytest.raises(EdgeListError, match=r"line 3: 'c' 'd' total more than 2\*\*63 - 1"):
                load_edge_list(text, directed, "count")
        # undirected orientations sum apart, then must agree
        with pytest.raises(EdgeListError, match="line 3: 'b' 'a' total more than"):
            load_edge_list(f"a b {top}\nb a 5\nb a {top}\n", value_kind="count")

    @pytest.mark.parametrize("directed", [False, True])
    def test_stored_total_beyond_64_bits_rejected(self, directed):
        # undirected, every value is stored in both orientations
        limit = 2**63 if directed else 2**62
        net = load_edge_list(f"a b {limit - 2}\nb c 1\n", directed, "count")
        assert net.total_value == limit - 1
        assert degrees(net).tolist() == [limit - 2, limit - 1, 1]
        with pytest.raises(ValueError, match=r"stored values \(both orientations when undirected\) total more"):
            load_edge_list(f"a b {limit - 2}\nb c 2\n", directed, "count")
        # three values that total 2**63 - 1, then 2**63 only once the low 32 bits carry
        top = np.array([((2**31 - 3) << 32) + 2**32 - 1, 1 << 32, 1 << 32], dtype=np.int64)
        assert Network(4, [0, 1, 2], [1, 2, 3], top, True, "count").total_value == 2**63 - 1
        top[2] += 1
        with pytest.raises(ValueError, match="total more than 2"):
            Network(4, [0, 1, 2], [1, 2, 3], top, True, "count")

    def test_empty_input_rejected(self):
        with pytest.raises(EdgeListError, match="no edges"):
            load_edge_list("")
        with pytest.raises(EdgeListError, match="no edges"):
            load_edge_list("# only a comment\n")

    @pytest.mark.parametrize(
        "text,message",
        [
            ("a a\n", "line 1: self-loop"),
            ("a b c d\n", "line 1"),
            ("a b x\n", "non-numeric"),
            ("a b -1\n", "negative"),
        ],
    )
    def test_parse_errors_carry_line_numbers(self, text, message):
        with pytest.raises(EdgeListError, match=message):
            load_edge_list(text, value_kind="count")

    def test_binary_rejects_nonunit_values(self):
        with pytest.raises(EdgeListError, match="line 1.*value 2"):
            load_edge_list("a b 2\n")

    def test_unknown_value_kind(self):
        with pytest.raises(ValueError, match="value_kind"):
            load_edge_list("a b\n", value_kind="weird")


# every code point str.isspace accepts, and every one str.splitlines breaks on
SPACE = [chr(c) for c in range(0x110000) if chr(c).isspace()]
BREAK = [c for c in SPACE if len(f"a{c}b".splitlines()) == 2]
INLINE = [c for c in SPACE if c not in BREAK]

# names collide often (self-loops, repeated pairs); long names differ only in
# their last or a middle word of 8 (ASCII) or 2 characters; '#' inside a token starts a comment
NAMES = ["a", "b", "c", "ab", "é", "名", "a\x00", "\x00", "\ud800x", "𝔘", "abcdefgh", "abcdefghi",
         "abcdefghj", "abcdefgh名", "abcdefgh1jklmnopq", "abcdefgh2jklmnopq", "名名名名名", "名名1名名",
         "a#", "ab#c", "#c"]
# plain digits around int64's and the NumPy reader's 18-digit bounds; tokens only int() reads
VALUES = ["1", "1", "2", "0.5", "1.0", "0", "-1", "x", "1.5", "nan", "+1", "1_0", "١", "01", str(2**63),
          "1e0", "inf", "-0.0", "0x1", "999999999999999999", "1000000000000000000", str(2**63 - 1),
          "0000000000000000001", "00", "+0"]
name = st.one_of(st.sampled_from(NAMES), st.text(st.characters(exclude_characters=SPACE), min_size=1, max_size=10))
# ASCII names and values make an ASCII text, which the tokenizer reads one byte per character
ascii_name = st.one_of(st.sampled_from([s for s in NAMES if s.isascii()]),
                       st.text(st.characters(max_codepoint=0x7f, exclude_characters=SPACE), min_size=1, max_size=10))


def line_kinds(name, values):
    value = st.sampled_from(values)
    messy = st.one_of(st.tuples(name), st.tuples(name, name), st.tuples(name, name, value),
                      st.lists(st.one_of(name, value), max_size=4))
    # lines that every reader accepts, or rejects only for a repeated pair
    tidy = st.one_of(st.tuples(name), st.tuples(name, name, st.just("1")))
    return [messy, tidy]


KINDS, ASCII_KINDS = line_kinds(name, VALUES), line_kinds(ascii_name, [v for v in VALUES if v.isascii()])


@st.composite
def edge_texts(draw, ascii=False):
    inline, breaks = ([c for c in chars if c.isascii()] if ascii else chars for chars in (INLINE, BREAK))
    lines = []
    for line in draw(st.lists(draw(st.sampled_from(ASCII_KINDS if ascii else KINDS)), max_size=8)):
        gaps = draw(st.lists(st.text(st.sampled_from(inline), min_size=1, max_size=2),
                             min_size=len(line) + 1, max_size=len(line) + 1))
        gaps[0] = draw(st.sampled_from(["", gaps[0]]))
        body = "".join(g + f for g, f in zip(gaps, line)) + draw(st.sampled_from(["", gaps[-1]]))
        lines.append(body + draw(st.sampled_from(["", "", "#", "# x y", "#a b 1"])))
    ends = draw(st.lists(st.sampled_from([*breaks, "\r\n"]), min_size=len(lines), max_size=len(lines)))
    text = "".join(line + brk for line, brk in zip(lines, ends))
    return text if draw(st.booleans()) else text[:-1] if text and text[-1] in BREAK else text


any_text = st.one_of(edge_texts(), edge_texts(ascii=True))


def outcome(read, *args):
    """What a reader returns, its lists as Python lists, or the message of its EdgeListError."""
    try:
        out = read(*args)
    except EdgeListError as exc:
        return "error", str(exc)
    if isinstance(out, tuple) and len(out) == 5:
        names, *rest = out
        return (names, *(np.asarray(a).tolist() for a in rest))
    return out


# a bad value before, and after, a line with a structural error
STRUCTURE = ["a b x\nc c\n", "c c\na b x\n", "a b -1\nb c 1 2 3\n", "b c 1 2 3\na b -1\n",
             "a b 2\nb c\n", "b c\na b 2\n", "a b 0.5\nb c\nd\n", "x\r\ny 1\r\n\r\ny y x", "a b 1.5\na a 2"]


class TestTokenizer:
    def test_tables_match_the_str_methods(self):
        codes = range(0x110000)
        assert np.array_equal(_tokenizer._IS_SPACE, [chr(c).isspace() for c in codes])
        assert np.array_equal(_tokenizer._IS_BREAK, [len(f"a{chr(c)}b".splitlines()) == 2 for c in codes])

    @settings(max_examples=250, deadline=None)
    @given(text=any_text, kind=st.sampled_from(["binary", "count", "weighted"]))
    @example(text="", kind="binary")
    @example(text="abcdefghi abcdefghj\nabcdefghi\tabcdefghi 1", kind="binary")
    def test_edge_readers_match_the_line_loop(self, text, kind):
        args = (text, *graph._FORMATS[kind])
        assert outcome(graph._read_edges, *args) == outcome(lineloop.read_edges, *args[:4])

    @pytest.mark.parametrize("text", STRUCTURE)
    @pytest.mark.parametrize("kind", ["binary", "count", "weighted"])
    def test_first_failing_line_matches_the_line_loop(self, text, kind):
        args = (text, *graph._FORMATS[kind])
        assert outcome(graph._read_edges, *args) == outcome(lineloop.read_edges, *args[:4])

    def test_integers_read_up_to_18_plain_digits(self):
        tokens = ["7", "00", "01", "999999999999999999", "0000000000000000001", "1000000000000000000",
                  str(2**63 - 1), "+1", "1_0", "x", "١", "1x", "x1", "-0", "1/", ":1"]  # "/" and ":" enclose the digits
        for text in (" ".join(tokens), " ".join(tokens) + " é"):  # one byte a character, and four
            f = _tokenizer.split(text, 0)
            values, odd = f.integers(np.arange(len(tokens)))
            assert values.dtype == np.int64
            assert odd.tolist() == [False] * 4 + [True] * 12
            assert values.tolist() == [7, 0, 1, 999999999999999999] + [0] * 12

    @pytest.mark.parametrize("k", [0, 1234, 4999])
    def test_one_odd_token_leaves_the_rest_to_numpy(self, k):
        # 5000 count lines of plain digits but one "+1", which int() alone reads
        rng = np.random.default_rng(k)
        pairs, values = rng.integers(0, 300, (5000, 2)), rng.integers(1, 10**6, 5000).astype(str)
        pairs[:, 1] += pairs[:, 1] >= pairs[:, 0]  # no self-loops
        values[k] = "+1"
        text = "".join(f"n{a} n{b} {v}\n" for (a, b), v in zip(pairs.tolist(), values.tolist()))
        usage, value, default, top = graph._FORMATS["count"]
        read = []
        counted = lambda token, lineno: read.append(token) or value(token, lineno)  # noqa: E731
        new = outcome(graph._read_edges, text, usage, counted, default, top)
        assert read == ["+1"]
        assert new == outcome(lineloop.read_edges, text, usage, value, default)
        assert new[3][k] == 1

    @pytest.mark.parametrize("kind", ["binary", "count"])
    def test_earlier_line_wins_between_numpy_and_int(self, kind):
        # "00" fails in the array, "x" in int(); whichever line comes first names the error
        lines = ["a b 1", "b c 00", "c d 1", "d e x"]
        for text in ("\n".join(lines), "\n".join(lines[::-1])):
            args = (text, *graph._FORMATS[kind])
            first = min(i for i, line in enumerate(text.splitlines()) if line[-1] in "0x") + 1
            got = outcome(graph._read_edges, *args)
            assert got == outcome(lineloop.read_edges, *args[:4])
            assert got[0] == "error" and got[1].startswith(f"line {first}:")

    @settings(max_examples=100, deadline=None)
    @given(text=any_text, directed=st.booleans(), kind=st.sampled_from(["binary", "count"]))
    def test_networks_match_the_line_loop(self, text, directed, kind):
        def old(text):
            names, *parsed = lineloop.read_edges(text, *graph._FORMATS[kind][:3])
            src, dst, vals, lines = (np.array(a, dtype=np.int64) for a in parsed)
            edges = graph._merge_lines(len(names), names, src, dst, vals, lines, directed, kind == "binary")
            return Network(len(names), *edges, directed=directed, value_kind=kind, node_labels=names)

        def arrays(load):
            net = load(text)
            return [net.node_labels, *(a.tolist() for a in (net.indptr, net.indices, net.data))]

        new = lambda text: load_edge_list(text, directed, kind)  # noqa: E731
        assert outcome(arrays, new) == outcome(arrays, old)

    @settings(max_examples=100, deadline=None)
    @given(text=any_text, directed=st.booleans())
    def test_weighted_reader_matches_the_line_loop(self, text, directed):
        usage, value, *_ = graph._FORMATS["weighted"]
        assert (outcome(load_weighted_edge_list, text, directed)
                == outcome(lineloop.weighted, text, usage, value, directed))

    @settings(max_examples=100, deadline=None)
    @given(text=any_text)
    @example(text="a 1\nb 2 # c\n  \nc 1\n")
    def test_label_reader_matches_the_line_loop(self, text):
        assert outcome(load_labels, text) == outcome(lineloop.labels, text)

    @pytest.mark.parametrize("read", [load_edge_list, load_weighted_edge_list, load_labels])
    def test_readers_take_text_only(self, read):
        with pytest.raises(TypeError, match="not list"):
            read(["a b\n", "b c\n"])
        with pytest.raises(TypeError, match="not bytes"):
            read(b"a b\n")

    def test_load_peak_memory_per_edge_line(self):
        # 10 000 declared nodes then 90 000 distinct edges in random
        # orientation, as perfbench's ingest input at a fifth of its size
        rng = np.random.default_rng(0)
        n, m = 10_000, 90_000
        pairs = np.unique(np.sort(rng.integers(0, n, (2 * m, 2)), axis=1), axis=0)
        pairs = rng.permutation(pairs[pairs[:, 0] != pairs[:, 1]])[:m]
        flip = rng.random(m) < 0.5
        pairs[flip] = pairs[flip, ::-1]
        names = [f"v{k}" for k in rng.permutation(n).tolist()]
        text = "\n".join(names + [f"{names[a]} {names[b]}" for a, b in pairs.tolist()]) + "\n"
        load_edge_list("a b\n")  # the tokenizer module's import is not part of the peak
        tracemalloc.start()
        try:
            net = load_edge_list(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert net.n_edges == m
        # the line-loop reader peaked at 208.6 bytes per edge line here
        assert peak / m <= 209


class TestRoundTrip:
    def test_isolated_nodes_survive(self):
        net = load_edge_list("lonely\na b\n")
        text = to_edge_list_text(net)
        again = load_edge_list(text)
        assert again.labels() == net.labels()
        assert same_network(again, net)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 10**6),
        directed=st.booleans(),
        binary=st.booleans(),
    )
    def test_serialize_parse_identity(self, seed, directed, binary):
        rng = np.random.default_rng(seed)
        net = random_network(rng, directed=directed, binary=binary)
        again = load_edge_list(
            to_edge_list_text(net), directed=directed, value_kind=net.value_kind
        )
        assert again.n_nodes == net.n_nodes
        assert again.directed == net.directed
        assert same_network(again, net)
        assert again.labels() == net.labels()

    @settings(max_examples=200, deadline=None)
    @given(labels=st.lists(st.text(st.one_of(st.characters(), st.sampled_from(" #\t\u3000\x85")), max_size=3),
                           min_size=1, max_size=4, unique=True),
           directed=st.booleans())
    def test_labels_reload_or_are_rejected(self, labels, directed):
        # a label is refused exactly when it is empty or holds whitespace or
        # '#'; a network of other labels reloads from its text as it was
        n = len(labels)
        edges = [0] * (n - 1), list(range(1, n)), [1] * (n - 1)
        bad = [s for s in labels if not s or "#" in s or any(c.isspace() for c in s)]
        if bad:
            with pytest.raises(ValueError, match=re.escape(repr(bad[0]))):
                Network(n, *edges, directed=directed, node_labels=labels)
            return
        net = Network(n, *edges, directed=directed, node_labels=labels)
        again = load_edge_list(to_edge_list_text(net), directed=directed)
        assert again.labels() == net.labels()
        assert same_network(again, net)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10**6), binary=st.booleans())
    def test_mirrored_listing_loads_like_single(self, seed, binary):
        # every undirected edge written both ways, lines shuffled
        rng = np.random.default_rng(seed)
        net = random_network(rng, directed=False, binary=binary)
        labels = net.labels()
        fields = [f"{labels[i]} {labels[j]}" for i, j in zip(net.row_index(), net.indices)]
        if not binary:
            fields = [f"{line} {v}" for line, v in zip(fields, net.data)]
        lines = [*labels, *rng.permutation(np.array(fields, dtype=object)).tolist()]
        single = load_edge_list(to_edge_list_text(net), value_kind=net.value_kind)
        mirrored = load_edge_list("\n".join(lines) + "\n", value_kind=net.value_kind)
        assert same_network(mirrored, single)
        assert same_network(mirrored, net)


def reference_csr(n, src, dst, vals, directed):
    """indptr, indices and data of the given edges, built with a dict: zeros out, undirected mirrored."""
    stored = {}
    for i, j, v in zip(src.tolist(), dst.tolist(), vals.tolist()):
        if v:
            stored[i, j] = v
            if not directed:
                stored[j, i] = v
    pairs = sorted(stored)
    indptr = [sum(i < row for i, _ in pairs) for row in range(n + 1)]
    return indptr, [j for _, j in pairs], [stored[p] for p in pairs]


@st.composite
def edge_arrays(draw):
    """(n, src, dst, values, directed, kind): distinct pairs in shuffled order, undirected in either orientation."""
    n = draw(st.integers(1, 12))
    directed, kind = draw(st.booleans()), draw(st.sampled_from(["binary", "count"]))
    possible = [(i, j) for i in range(n) for j in range(n) if i != j and (directed or i < j)]
    pairs = draw(st.lists(st.sampled_from(possible), unique=True) if possible else st.just([]))
    if not directed:
        pairs = [p[::-1] if draw(st.booleans()) else p for p in pairs]
    top = 1 if kind == "binary" else 5
    vals = draw(st.lists(st.integers(0, top), min_size=len(pairs), max_size=len(pairs)))
    index = draw(st.sampled_from([np.int64, np.uint16, np.uint32]))
    src, dst = np.array(pairs, dtype=index).reshape(-1, 2).T
    return n, src, dst, np.array(vals, dtype=np.int64), directed, kind


class TestNetworkValidation:
    @settings(max_examples=200, deadline=None)
    @given(case=edge_arrays())
    def test_matches_the_dict_reference(self, case):
        n, src, dst, vals, directed, kind = case
        net = Network(n, src, dst, vals, directed=directed, value_kind=kind)
        assert [a.tolist() for a in (net.indptr, net.indices, net.data)] == list(reference_csr(*case[:5]))
        assert all(a.dtype == np.int64 for a in (net.indptr, net.indices, net.data))

    @settings(max_examples=200, deadline=None)
    @given(case=edge_arrays(), defect=st.sampled_from(
        ["outside", "loop", "negative", "binary", "twice", "both ways", "float"]), data=st.data())
    def test_rejects_each_bad_edge(self, case, defect, data):
        n, src, dst, vals, directed, kind = case
        n += 1  # room for a pair of distinct nodes
        i, j = data.draw(st.permutations(range(n)))[:2]
        extra, message = {
            "outside": ([(i, n, 1)], "node index"),
            "loop": ([(i, i, 1)], "self-loop"),
            "negative": ([(i, j, -1)], "must be a positive integer"),
            "binary": ([(i, j, 2)], "binary network holds value 2"),
            "twice": ([(i, j, 1)] * 2, "is given twice"),
            "both ways": ([(i, j, 1), (j, i, 1)], "is given twice"),
            "float": ([(i, j, 1)], "src must be a 1-d integer array"),  # empty arrays of any dtype pass
        }[defect]
        if defect == "binary":
            kind, vals = "binary", np.minimum(vals, 1)
        directed = directed and defect != "both ways"
        edges = [*zip(src.tolist(), dst.tolist(), vals.tolist()), *extra]
        edges = data.draw(st.permutations(edges))
        src, dst, vals = np.array(edges, dtype=np.int64).reshape(-1, 3).T
        if defect == "float":
            src = src.astype(np.float64)
        with pytest.raises(ValueError, match=message):
            Network(n, src, dst, vals, directed=directed, value_kind=kind)

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self-loop stored on node 1"):
            Network(2, [0, 1], [1, 1], [1, 1])

    def test_index_out_of_range(self):
        with pytest.raises(ValueError, match="node index 5 out of range"):
            Network(2, [0], [5], [1])
        with pytest.raises(ValueError, match="node index 5 out of range"):
            Network.from_edges(2, {(0, 5): 1})

    def test_nonpositive_value_rejected(self):
        with pytest.raises(ValueError, match=r"value for \(0, 1\) must be a positive integer, got -2"):
            Network(2, [0], [1], [-2], value_kind="count")
        with pytest.raises(ValueError, match="integer array"):
            Network(2, [0], [1], [1.5], value_kind="count")

    def test_binary_value_must_be_one(self):
        with pytest.raises(ValueError, match=r"binary network holds value 2 at \(0, 1\)"):
            Network(2, [0], [1], [2])

    def test_pair_given_twice(self):
        with pytest.raises(ValueError, match=r"node pair \(0, 1\) is given twice"):
            Network(2, [1, 0], [0, 1], [1, 1])
        with pytest.raises(ValueError, match=r"node pair \(1, 2\) is given twice"):
            Network(3, [1, 1], [2, 2], [1, 1], directed=True)
        with pytest.raises(ValueError, match="same length"):
            Network(2, [0], [1], [1, 1])

    def test_non_integer_edges_rejected(self):
        # each was truncated to an integer once
        with pytest.raises(ValueError, match="values must be a 1-d integer array"):
            Network.from_edges(3, {(0, 1): 2.7}, value_kind="count")
        with pytest.raises(ValueError, match="values must be a 1-d integer array"):
            Network(3, [0, 1], [1, 2], [1.5, 0.5], value_kind="count")
        with pytest.raises(ValueError, match="src must be a 1-d integer array"):
            Network(3, [0.9], [1], [1])
        with pytest.raises(ValueError, match="dst must be a 1-d integer array"):
            Network(3, [0], [[1]], [1])

    def test_from_edges_mirrors_undirected(self):
        net = Network.from_edges(3, [(0, 1)])
        assert net.indptr.tolist() == [0, 1, 2, 2]
        assert net.indices.tolist() == [1, 0]
        assert net.data.tolist() == [1, 1]
        assert net.n_edges == 1
        assert net.total_value == 1

    def test_node_labels_length_checked(self):
        with pytest.raises(ValueError, match="node_labels"):
            Network(2, [], [], [], node_labels=("a",))

    def test_repeated_node_label_rejected(self):
        with pytest.raises(ValueError, match="node label 'a' repeats"):
            Network(4, [], [], [], node_labels=("a", "a", "b", "c"))

    @pytest.mark.parametrize("label", ["a b", "#x", "", "x\u3000", "\x85"])
    def test_label_that_edge_list_text_cannot_carry_rejected(self, label):
        # written, "a b" reloads as a line with a non-numeric value field,
        # and "#x" or "" as a blank line: a one-node network without the edge
        with pytest.raises(ValueError, match=rf"^node label {re.escape(repr(label))} is empty or holds whitespace"):
            Network(2, [0], [1], [1], node_labels=[label, "c"])

    def test_label_with_any_whitespace_character_rejected(self):
        for c in filter(str.isspace, map(chr, range(sys.maxunicode + 1))):
            with pytest.raises(ValueError, match="holds whitespace"):
                Network(2, [0], [1], [1], node_labels=[f"a{c}b", "c"])


class TestStatistics:
    def test_density_undirected(self):
        net = Network.from_edges(4, [(0, 1), (2, 3)])
        assert density(net) == pytest.approx(2 / 6)

    def test_density_directed_doubles_denominator(self):
        # same physical edges, directed reading halves the density
        net = Network.from_edges(4, {(0, 1): 1, (1, 0): 1, (2, 3): 1, (3, 2): 1}, directed=True)
        assert density(net) == pytest.approx(4 / 12)

    def test_density_counts_presence_not_value(self):
        net = Network.from_edges(3, {(0, 1): 7}, value_kind="count")
        assert density(net) == pytest.approx(1 / 3)

    def test_density_needs_two_nodes(self):
        with pytest.raises(ValueError, match="two nodes"):
            density(Network(1, [], [], []))

    @pytest.mark.parametrize("directed", [False, True])
    def test_one_node_has_no_pairs(self, directed):
        # density refuses what global_rate reads as no edge value per pair
        net = Network(1, [], [], [], directed, "count")
        assert global_rate(net) == 0.0
        with pytest.raises(ValueError, match="two nodes"):
            density(net)

    @pytest.mark.parametrize("i, j", [(-1, 0), (0, -1), (0, 3), (3, 0)])
    def test_value_rejects_pairs_outside_the_network(self, i, j):
        # a 3-node path: negative indices would otherwise wrap around
        net = Network.from_edges(3, [(0, 1), (1, 2)])
        assert net.value(2, 1) == 1 and net.value(0, 2) == 0
        with pytest.raises(ValueError, match=r"node pair \(-?\d+, -?\d+\) lies outside 0\.\.2"):
            net.value(i, j)

    def test_degrees_sum_values(self):
        net = Network.from_edges(3, {(0, 1): 2, (1, 2): 5}, value_kind="count")
        assert degrees(net).tolist() == [2, 7, 5]

    def test_degrees_directed_in_plus_out(self):
        net = Network.from_edges(3, {(0, 1): 2, (2, 1): 3}, directed=True, value_kind="count")
        assert degrees(net).tolist() == [2, 5, 3]

    def test_transpose_lists_in_neighbours(self):
        net = Network.from_edges(3, {(0, 1): 2, (2, 0): 5, (2, 1): 1}, directed=True, value_kind="count")
        indptr, indices, data = net.transpose()
        assert indptr.tolist() == [0, 1, 3, 3]
        assert indices.tolist() == [2, 0, 2]
        assert data.tolist() == [5, 2, 1]
        # kept on the network, left out of pickles and rebuilt equal
        assert all(a is b for a, b in zip(net.transpose(), (indptr, indices, data)))
        clone = pickle.loads(pickle.dumps(net))
        assert clone._derived == {}
        assert all(np.array_equal(a, b) for a, b in zip(clone.transpose(), (indptr, indices, data)))
        undirected = Network.from_edges(3, [(0, 1)])
        assert undirected.transpose()[1] is undirected.indices

    def test_to_dense_symmetry(self):
        rng = np.random.default_rng(3)
        net = random_network(rng, directed=False)
        y = net.to_dense()
        assert (y == y.T).all()
        assert (np.diag(y) == 0).all()
        yf = net.to_dense(np.float64)
        assert yf.dtype == np.float64 and yf.tobytes() == y.astype(np.float64).tobytes()


class TestWeightedInput:
    def test_load_weighted(self):
        weights, labels = load_weighted_edge_list("a b 0.25\nb c 1.0\n")
        assert labels == ("a", "b", "c")
        assert weights == {(0, 1): 0.25, (1, 2): 1.0}

    def test_weight_needs_three_fields(self):
        with pytest.raises(EdgeListError, match="src dst weight"):
            load_weighted_edge_list("a b\n")

    def test_weight_range_checked(self):
        with pytest.raises(EdgeListError, match="outside"):
            load_weighted_edge_list("a b 1.5\n")

    def test_weight_duplicate_rejected(self):
        with pytest.raises(EdgeListError, match="duplicate"):
            load_weighted_edge_list("a b 0.5\nb a 0.5\n")

    def test_discretize_floor_rule(self):
        weights = {(0, 1): 0.39, (0, 2): 0.05, (1, 2): 1.0}
        net = discretize_weights(weights, n_bins=10, n_nodes=3)
        # floor(w * bins); exact 1 lands in the closed top bin; zeros vanish
        assert net.value(0, 1) == 3
        assert net.value(0, 2) == 0
        assert net.value(1, 2) == 10
        assert net.value_kind == "count"

    def test_discretize_validates(self):
        with pytest.raises(ValueError, match="n_bins"):
            discretize_weights({}, n_bins=0)
        with pytest.raises(ValueError, match="n_bins"):
            discretize_weights({(0, 1): 0.5}, n_bins=2**53 + 1)
        assert discretize_weights({(0, 1): 0.5}, n_bins=2**53).value(0, 1) == 2**52
        with pytest.raises(ValueError, match="outside"):
            discretize_weights({(0, 1): 2.0}, n_bins=4)
        with pytest.raises(ValueError, match="src must be a 1-d integer array"):
            discretize_weights({(0.9, 2): 0.5}, n_bins=4)


class TestLoadLabels:
    def test_basic(self):
        assert load_labels("a 1\nb 2\n") == {"a": "1", "b": "2"}

    def test_duplicate_node_rejected(self):
        with pytest.raises(EdgeListError, match="duplicate node"):
            load_labels("a 1\na 2\n")

    def test_field_count_checked(self):
        with pytest.raises(EdgeListError, match="node_id group_label"):
            load_labels("a 1 2\n")
