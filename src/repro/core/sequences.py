"""Binary sequence classes from the paper (Definitions 1-5).

* :func:`in_A` — Definition 1's regular language ``A_n``: sequences made
  of a block of repeated ``00``/``11`` pairs, then a block of repeated
  ``01``/``10`` pairs, then a block of repeated ``00``/``11`` pairs.
  Theorem 1 shows that shuffling the concatenation of two sorted halves
  always lands in ``A_n``; Theorem 2 shows a balanced comparator stage
  maps ``A_n`` to (clean half, ``A_{n/2}`` half).
* :func:`is_clean` — Definition 2 (all elements identical).
* :func:`is_bisorted` — Definition 3 (both halves sorted).
* :func:`is_k_sorted` / :func:`is_clean_k_sorted` — Definitions 4-5.

Plus enumerators and random generators used by tests and hypothesis
strategies.  Sequences are anything convertible to a 1-D 0/1 NumPy array.
"""

from __future__ import annotations

import re
from typing import Iterator, List, Optional, Sequence

import numpy as np

from ..errors import BuildError, SimulationError

_A_PATTERN = re.compile(r"^((00)*|(11)*)((01)*|(10)*)((00)*|(11)*)$")


def as_bits(seq) -> np.ndarray:
    """Normalize to a 1-D uint8 array of 0/1 values."""
    arr = np.asarray(seq, dtype=np.uint8)
    if arr.ndim != 1:
        raise SimulationError(
            f"expected a 1-D sequence, got shape {arr.shape}"
        )
    if arr.size and arr.max() > 1:
        raise SimulationError("sequence contains non-binary values")
    return arr


def monotone_rows(batch) -> np.ndarray:
    """Boolean mask: rows of ``batch`` (a 1-D sequence is one row)
    already of the sorted ``0...01...1`` shape."""
    a = np.atleast_2d(np.asarray(batch))
    return (np.diff(a.astype(np.int8), axis=1) >= 0).all(axis=1)


def sorts_rows(inputs, outputs) -> np.ndarray:
    """Boolean mask: output rows that are their input rows sorted.

    For 0/1 rows, monotone with the input's ones count *is* sorted, so
    every checked path accepts answers through this one check.
    """
    x, y = np.atleast_2d(inputs), np.atleast_2d(outputs)
    if x.shape != y.shape:
        return np.zeros(x.shape[0], dtype=bool)
    return monotone_rows(y) & (y.sum(axis=1) == x.sum(axis=1))


def is_sorted_binary(seq) -> bool:
    """True iff the sequence is ascending (all 0's before all 1's)."""
    return bool(monotone_rows(as_bits(seq))[0])


def is_clean(seq) -> bool:
    """Definition 2: all elements identical (all 0 or all 1)."""
    bits = as_bits(seq)
    return bits.size == 0 or bool(np.all(bits == bits[0]))


def is_bisorted(seq) -> bool:
    """Definition 3: each of the two halves is sorted."""
    bits = as_bits(seq)
    if bits.size % 2:
        raise BuildError("bisorted is defined for even lengths")
    h = bits.size // 2
    return is_sorted_binary(bits[:h]) and is_sorted_binary(bits[h:])


def is_k_sorted(seq, k: int) -> bool:
    """Definition 4: k equal-size sorted subsequences."""
    bits = as_bits(seq)
    if k <= 0 or bits.size % k:
        raise BuildError(f"cannot split length {bits.size} into {k} blocks")
    m = bits.size // k
    return all(is_sorted_binary(bits[i * m : (i + 1) * m]) for i in range(k))


def is_clean_k_sorted(seq, k: int) -> bool:
    """Definition 5: k equal-size *clean* subsequences."""
    bits = as_bits(seq)
    if k <= 0 or bits.size % k:
        raise BuildError(f"cannot split length {bits.size} into {k} blocks")
    m = bits.size // k
    return all(is_clean(bits[i * m : (i + 1) * m]) for i in range(k))


def in_A(seq) -> bool:
    """Definition 1: membership in the regular language ``A_n``.

    ``A_n = {0,1}^n ∩ ((00)*+(11)*)((01)*+(10)*)((00)*+(11)*)``.
    Zero multiples of each block are allowed; every sorted sequence of
    even length is a member.
    """
    bits = as_bits(seq)
    return bool(_A_PATTERN.match("".join("01"[b] for b in bits)))


def enumerate_A(n: int) -> List[np.ndarray]:
    """All members of ``A_n`` (deduplicated), in lexicographic order.

    Enumerates block-length splits directly rather than filtering all
    ``2**n`` strings, so it stays cheap for the sizes tests use.
    """
    if n % 2:
        raise BuildError("A_n is defined for even n")
    seen = set()
    out: List[np.ndarray] = []
    for a in range(0, n + 1, 2):
        for b in range(0, n - a + 1, 2):
            c = n - a - b
            for pa in ("00", "11") if a else ("",):
                for pb in ("01", "10") if b else ("",):
                    for pc in ("00", "11") if c else ("",):
                        s = pa * (a // 2) + pb * (b // 2) + pc * (c // 2)
                        if s not in seen:
                            seen.add(s)
                            out.append(
                                np.frombuffer(s.encode(), dtype=np.uint8) - ord("0")
                            )
    out.sort(key=lambda v: v.tolist())
    return out


def enumerate_bisorted(n: int) -> Iterator[np.ndarray]:
    """All bisorted sequences of length ``n`` (Definition 3's space)."""
    if n % 2:
        raise BuildError("bisorted needs even n")
    h = n // 2
    for zu in range(h + 1):
        for zl in range(h + 1):
            yield np.concatenate(
                [sorted_sequence(h, zu), sorted_sequence(h, zl)]
            )


def enumerate_k_sorted(n: int, k: int) -> Iterator[np.ndarray]:
    """All k-sorted sequences of length ``n`` (Definition 4's space).

    There are ``(n/k + 1) ** k`` of them — use for small n, k.
    """
    if k <= 0 or n % k:
        raise BuildError(f"cannot split length {n} into {k} blocks")
    m = n // k
    import itertools

    for counts in itertools.product(range(m + 1), repeat=k):
        yield np.concatenate([sorted_sequence(m, z) for z in counts])


def enumerate_clean_k_sorted(n: int, k: int) -> Iterator[np.ndarray]:
    """All clean k-sorted sequences of length ``n`` (Definition 5)."""
    if k <= 0 or n % k:
        raise BuildError(f"cannot split length {n} into {k} blocks")
    m = n // k
    import itertools

    for bits in itertools.product((0, 1), repeat=k):
        yield np.repeat(np.array(bits, dtype=np.uint8), m)


def count_A(n: int) -> int:
    """|A_n| — the number of distinct members of Definition 1's language.

    Computed exactly by dynamic programming over the minimal DFA of the
    defining regular expression (subset construction over a small NFA
    with one branch per choice of block patterns), so it scales to n in
    the thousands.  Cross-checked against :func:`enumerate_A` in tests.
    """
    if n < 0 or n % 2:
        raise BuildError("A_n is defined for even n >= 0")
    # NFA: for each branch (pa, pb, pc) in {00,11} x {01,10} x {00,11},
    # states track (part, offset) with epsilon moves between parts.
    # We enumerate branch NFAs jointly via a frozenset-of-states DP.
    branches = [
        (pa, pb, pc)
        for pa in ("00", "11")
        for pb in ("01", "10")
        for pc in ("00", "11")
    ]
    # state = (branch_index, part 0..2, offset 0..1); start of each part
    # is also reachable by skipping previous (possibly empty) parts.
    def closure(states):
        out = set(states)
        changed = True
        while changed:
            changed = False
            for (bi, part, off) in list(out):
                if off == 0 and part < 2:
                    nxt = (bi, part + 1, 0)
                    if nxt not in out:
                        out.add(nxt)
                        changed = True
        return frozenset(out)

    def step(states, bit):
        ch = "01"[bit]
        nxt = set()
        for (bi, part, off) in states:
            pattern = branches[bi][part]
            if pattern[off] == ch:
                nxt.add((bi, part, (off + 1) % 2))
        return closure(nxt)

    start = closure({(bi, 0, 0) for bi in range(len(branches))})

    def accepting(states):
        return any(off == 0 and part == 2 for (_, part, off) in states) or any(
            off == 0 and part < 2 for (_, part, off) in states
        )

    # DP over string length with DFA-state (frozenset) keys
    from collections import defaultdict

    current = {start: 1}
    for _ in range(n):
        nxt: dict = defaultdict(int)
        for st, cnt in current.items():
            for bit in (0, 1):
                ns = step(st, bit)
                if ns:
                    nxt[ns] += cnt
        current = dict(nxt)
    return sum(cnt for st, cnt in current.items() if accepting(st))


def sorted_sequence(n: int, ones: int) -> np.ndarray:
    """The ascending binary sequence of length ``n`` with ``ones`` 1's."""
    if not 0 <= ones <= n:
        raise BuildError(f"ones={ones} out of range for n={n}")
    out = np.zeros(n, dtype=np.uint8)
    out[n - ones :] = 1
    return out


def random_sorted(n: int, rng: np.random.Generator) -> np.ndarray:
    """A uniformly random sorted binary sequence of length ``n``."""
    return sorted_sequence(n, int(rng.integers(0, n + 1)))


def random_bisorted(n: int, rng: np.random.Generator) -> np.ndarray:
    """A random bisorted sequence of length ``n``."""
    if n % 2:
        raise BuildError("bisorted needs even n")
    h = n // 2
    return np.concatenate([random_sorted(h, rng), random_sorted(h, rng)])


def random_k_sorted(n: int, k: int, rng: np.random.Generator) -> np.ndarray:
    """A random k-sorted sequence of length ``n``."""
    if k <= 0 or n % k:
        raise BuildError(f"cannot split length {n} into {k} blocks")
    m = n // k
    return np.concatenate([random_sorted(m, rng) for _ in range(k)])


def random_clean_k_sorted(n: int, k: int, rng: np.random.Generator) -> np.ndarray:
    """A random clean k-sorted sequence of length ``n``."""
    if k <= 0 or n % k:
        raise BuildError(f"cannot split length {n} into {k} blocks")
    m = n // k
    blocks = [np.full(m, rng.integers(0, 2), dtype=np.uint8) for _ in range(k)]
    return np.concatenate(blocks)


def shuffle_concat(upper, lower) -> np.ndarray:
    """Two-way shuffle of the concatenation of two equal halves.

    This is the operation of Theorem 1: the result is in ``A_n`` whenever
    both halves are sorted.
    """
    xu, xl = as_bits(upper), as_bits(lower)
    if xu.size != xl.size:
        raise BuildError("halves must have equal length")
    out = np.empty(xu.size * 2, dtype=np.uint8)
    out[0::2] = xu
    out[1::2] = xl
    return out
