"""The edge-list and label readers' tokenizer: every field of a text at once, with NumPy.

It finds lines as ``str.splitlines`` does and fields as ``str.split`` does,
with ``#`` starting a comment, and numbers names in order of first
appearance without a dict lookup per token; ``Fields.integers`` reads
tokens of decimal digits as int64.  ``tests/lineloop.py`` keeps
the line-at-a-time readers it replaced as its oracle.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

# The code points that str.isspace accepts, and those that str.splitlines
# breaks on ("\r\n" is one break); tests check both against the str methods.
_SPACES = ("\t\n\x0b\x0c\r\x1c\x1d\x1e\x1f \x85\xa0\u1680\u2000\u2001\u2002\u2003\u2004\u2005"
           "\u2006\u2007\u2008\u2009\u200a\u2028\u2029\u202f\u205f\u3000")
_BREAKS = "\n\x0b\x0c\r\x1c\x1d\x1e\x85\u2028\u2029"


def _lookup(chars: str) -> np.ndarray:
    """Membership of every code point in ``chars``."""
    table = np.zeros(0x110000, dtype=bool)
    table[list(map(ord, chars))] = True
    return table


_IS_SPACE, _IS_BREAK = _lookup(_SPACES), _lookup(_BREAKS)
_DIGITS = 18  # int64 holds every number of up to 18 decimal digits


def _codes(text: str) -> np.ndarray:
    """The code points of ``text`` (1 byte each when it is ASCII, else 4),
    then spaces enough to read a uint64 word at every character."""
    if not isinstance(text, str):
        raise TypeError(f"the readers take the file's text as str, not {type(text).__name__}")
    ascii_text = text.isascii()
    dtype = np.dtype(np.uint8 if ascii_text else "<u4")
    data = text.encode("ascii") if ascii_text else text.encode("utf-32-le", "surrogatepass")
    codes = np.empty(len(text) + 8 // dtype.itemsize, dtype)
    codes[:len(text)] = np.frombuffer(data, dtype)
    codes[len(text):] = ord(" ")
    return codes


def _spans(chars: np.ndarray, comments: bool):
    """Start, end and 0-based line of every whitespace-separated token.

    With ``comments``, everything from a line's first ``#`` on is left out.
    """
    word = _IS_SPACE[chars]
    np.logical_not(word, out=word)
    edge = np.zeros(chars.size + 1, dtype=bool)  # where a token starts or ends
    edge[:-1] = word
    edge[1:] ^= word
    del word
    bounds = np.flatnonzero(edge)
    del edge
    starts, ends = bounds[0::2].copy(), bounds[1::2].copy()
    del bounds
    breaks = np.flatnonzero(_IS_BREAK[chars])
    crlf = (chars[breaks] == ord("\n")) & (chars[breaks - 1] == ord("\r")) & (breaks > 0)
    breaks = breaks[~crlf]
    line = np.searchsorted(breaks, starts)
    if comments:
        hashes = np.flatnonzero(chars == ord("#"))
        at = np.searchsorted(breaks, hashes)
        lead = np.diff(at, prepend=-1) != 0
        cut = np.full(breaks.size + 1, chars.size)  # per line: where its comment starts
        cut[at[lead]] = hashes[lead]
        np.minimum(ends, cut[line], out=ends)
        kept = ends > starts
        starts, ends, line = starts[kept], ends[kept], line[kept]
    return starts, ends, line


def _pack(codes: np.ndarray, starts: np.ndarray, ends: np.ndarray, tokens: np.ndarray):
    """The strings of ``tokens`` (spans of ``codes``) as uint64 words padded with spaces.

    A list of (members, words) per number of words a token needs: the
    positions in ``tokens`` that need that many (None for all of them),
    and that many arrays, the i-th holding each member's i-th word.  No
    token holds a space, so two tokens are equal exactly when their words are.
    """
    size = codes.itemsize
    per = 8 // size
    words = np.ndarray((codes.size - per + 1,), "<u8", codes, strides=(size,))
    keep = np.array([(1 << 8 * size * r) - 1 for r in range(per + 1)], dtype=np.uint64)
    pads = np.uint64(int.from_bytes(" ".encode("utf-32-le")[:size] * per, "little")) & ~keep
    width = ends[tokens]
    width -= starts[tokens]
    width += per - 1
    width //= per
    sizes = np.bincount(width)
    members = [(w, None if sizes[w] == width.size else np.flatnonzero(width == w))
               for w in np.flatnonzero(sizes).tolist()]
    del width
    groups = []
    for w, group in members:
        tok = tokens if group is None else tokens[group]
        at = starts[tok]
        columns = [words[at + per * c] for c in range(w - 1)]
        at += per * (w - 1)
        left = ends[tok]
        left -= at  # characters in the last word
        last = words[at]
        del at
        last &= keep[left]
        last |= pads[left]
        groups.append((group, [*columns, last]))
    return groups


def _number(groups, n: int):
    """Number n packed tokens' strings in order of first appearance.

    Consumes ``groups``.  Returns each token's number and, per number, the
    token where it first appears.
    """
    run = np.empty(n, dtype=np.int64)
    firsts, n_runs = [np.empty(0, dtype=np.int64)], 0
    while groups:
        group, columns = groups.pop()
        order = np.argsort(columns[0]) if len(columns) == 1 else np.lexsort(columns[::-1])
        new = np.zeros(order.size, dtype=bool)
        new[0] = True
        while columns:
            ranked = columns.pop()[order]
            new[1:] |= ranked[1:] != ranked[:-1]
            del ranked
        if group is not None:
            order = group[order]
        ids = np.cumsum(new)
        ids += n_runs - 1
        run[order] = ids
        del ids
        starts = np.flatnonzero(new)
        firsts.append(np.minimum.reduceat(order, starts))
        n_runs += starts.size
    first = np.concatenate(firsts)
    rank = np.argsort(first)
    number = np.empty_like(rank)
    number[rank] = np.arange(rank.size)
    return number[run], first[rank]


class Fields(NamedTuple):
    """The whitespace-separated fields of a text's lines that have any."""

    text: str
    starts: np.ndarray  # every token's span in text
    ends: np.ndarray
    first: np.ndarray  # per line: its first token
    count: np.ndarray  # its number of fields
    lineno: np.ndarray  # its 1-based line number
    keys: np.ndarray  # (lines, n_keys): its leading fields' names, -1 past its last field
    names: np.ndarray  # the token where each name first appears

    def strings(self, tokens) -> list[str]:
        return [self.text[s:e] for s, e in zip(self.starts[tokens].tolist(), self.ends[tokens].tolist())]

    def integers(self, tokens: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The values of ``tokens`` that are 1 to 18 ASCII digits, and which tokens are not.

        Returns int64 values (0 where a token is not such digits) and a mask
        of those tokens: any other character, or 19 digits or more, which
        int64 cannot always hold.
        """
        codes = _codes(self.text)
        at, end = self.starts[tokens], self.ends[tokens]
        width = end - at
        odd = width > _DIGITS
        values = np.zeros(at.size, dtype=np.int64)
        # Horner over columns aligned at the tokens' ends: a column before a
        # token's start reads as a leading zero
        for c in range(min(int(width.max(initial=0)), _DIGITS), 0, -1):
            pos = end - c
            inside = pos >= at
            digit = codes[np.maximum(pos, at)]
            digit -= ord("0")  # wraps below "0", so a digit is a value of at most 9
            digit *= inside
            odd |= digit > 9
            values *= 10
            values += digit
        values[odd] = 0
        return values, odd


def split(text: str, n_keys: int) -> Fields:
    """Tokenize ``text`` at once: lines as ``str.splitlines`` finds them, fields
    as ``str.split`` does, ``#`` starting a comment.

    The first ``n_keys`` fields of every line are names, numbered in order of
    first appearance.  Costs O(characters + tokens) time and memory.
    """
    codes = _codes(text)
    starts, ends, line = _spans(codes[:len(text)], "#" in text)
    first = np.flatnonzero(np.diff(line, prepend=-1))
    count = np.diff(first, append=line.size)
    lineno = line[first] + 1
    del line
    has = count[:, None] > np.arange(n_keys)
    heads = (first[:, None] + np.arange(n_keys))[has]
    groups = _pack(codes, starts, ends, heads)
    del codes  # the sort needs no array over every character
    ids, names = _number(groups, heads.size)
    keys = np.full(has.shape, -1, dtype=np.int64)
    keys[has] = ids
    return Fields(text, starts, ends, first, count, lineno, keys, heads[names])
