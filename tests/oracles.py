"""Independent reference implementations used only by the tests.

Nothing here shares a code path with the package internals it checks:
Bruhat order is re-derived from the subword property (and, in type A, from
rank matrices of one-line permutations), type-A actions from one-line
permutations, and reduced words by descent recursion.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from steinmult import WeylElement, WeylGroup


def subword_leq(group: WeylGroup, x: WeylElement, w: WeylElement) -> bool:
    """Bruhat order via the subword property of a fixed reduced word of ``w``."""
    word = group.canonical_word(w)
    for size in range(x.length, len(word) + 1):
        for positions in itertools.combinations(range(len(word)), size):
            if group.product_of([word[i] for i in positions]) is x:
                return True
    return False


def permutation_of(group: WeylGroup, w: WeylElement) -> tuple[int, ...]:
    """One-line permutation of a type-A element: entry ``j`` is ``w(j + 1)``.

    Built by right-multiplying position swaps along the word, which is an
    entirely different composition mechanism from the package's matrices.
    """
    n = group.rank + 1
    line = list(range(1, n + 1))
    for i in group.canonical_word(w):
        line[i - 1], line[i] = line[i], line[i - 1]
    return tuple(line)


def rank_matrix(group: WeylGroup, w: WeylElement) -> tuple[int, ...]:
    """The rank matrix of a type-A element, flattened row by row.

    Entry ``(i, j)`` counts ``a <= i`` with ``w(a) >= j``, for ``1 <= i, j
    <= n``.  ``x <= w`` in Bruhat order exactly when every entry of the
    rank matrix of ``x`` is at most that of ``w`` (Bjorner-Brenti,
    *Combinatorics of Coxeter Groups*, Thm 2.1.5).
    """
    line = permutation_of(group, w)
    n = len(line)
    return tuple(
        sum(1 for a in range(i) if line[a] >= j)
        for i in range(1, n + 1)
        for j in range(1, n + 1)
    )


def permute_gln_tuple(
    line: tuple[int, ...], values: tuple[Fraction, ...]
) -> tuple[Fraction, ...]:
    """Move the value at slot ``j`` to slot ``line[j]`` (the permuted tuple)."""
    out = [Fraction(0)] * len(values)
    for j, target in enumerate(line):
        out[target - 1] = values[j]
    return tuple(out)


def gln_omega_brute_force(
    group: WeylGroup,
    values: tuple[Fraction, ...],
    exempt: frozenset[int] = frozenset(),
) -> list[WeylElement]:
    """Index-set membership via partial sums of permuted tuples (type A only).

    The partial sum through slot ``p`` must be positive for every ``p``
    outside ``exempt`` (so ``exempt`` plays the role of the subset ``I``).
    """
    chosen = []
    for w in group.enumerate_group():
        moved = permute_gln_tuple(permutation_of(group, w), values)
        acc = Fraction(0)
        ok = True
        for p, entry in enumerate(moved[:-1], start=1):
            acc += entry
            if p not in exempt and acc <= 0:
                ok = False
                break
        if ok:
            chosen.append(w)
    return chosen


def all_reduced_words(group: WeylGroup, w: WeylElement) -> set[tuple[int, ...]]:
    """Every reduced word of ``w``, by recursion over left descents."""
    if w is group.identity:
        return {()}
    out: set[tuple[int, ...]] = set()
    for i in group.left_descents(w):
        shorter = group.multiply(group.simple_reflection(i), w)
        out.update((i,) + rest for rest in all_reduced_words(group, shorter))
    return out
