"""Reference Weyl-group combinatorics, used to make and check benchmark inputs.

Nothing here calls steinmult's group code, so the checks built on it are
independent of the program they check.  An element ``w`` is represented by
the pairings ``p_j = <alpha_j, w(rho_vee)>``, where ``rho_vee`` is the
coweight pairing to 1 with every simple root.  ``rho_vee`` is regular, so
the pairings determine ``w``, and:

* ``s_i w`` has pairings ``p_j - p_i * A[j][i]`` (``A[i][j]`` pairs simple
  root ``i`` with simple coroot ``j``, as in steinmult);
* ``i`` is a left descent of ``w`` exactly when ``p_i < 0``;
* the canonical word (lexicographically smallest reduced word) peels the
  smallest left descent first.

Elements are listed in steinmult's enumeration order: by length, then by
canonical word.  Simple indices run ``1..rank``.
"""

from __future__ import annotations

import itertools
from fractions import Fraction


def format_word(word: tuple[int, ...], identity: str = "e") -> str:
    return "*".join(f"s{i}" for i in word) if word else identity


def subsets_by_size(indices) -> list[frozenset[int]]:
    base = sorted(indices)
    return [
        frozenset(combo)
        for size in range(len(base) + 1)
        for combo in itertools.combinations(base, size)
    ]


class Reference:
    """All elements of the Weyl group of a Cartan matrix, with their words."""

    def __init__(self, matrix: tuple[tuple[int, ...], ...]) -> None:
        self.matrix = matrix
        self.rank = len(matrix)
        start = (1,) * self.rank
        word_of = {start: ()}
        layer = [start]
        while layer:
            grown = {}
            for p in layer:
                for i in range(self.rank):
                    if p[i] > 0:
                        q = self._reflect_pairings(p, i)
                        grown.setdefault(q, None)
            for q in grown:
                i = min(j for j in range(self.rank) if q[j] < 0)
                word_of[q] = (i + 1,) + word_of[self._reflect_pairings(q, i)]
            layer = list(grown)
        self._word_of = word_of
        ordered = sorted(word_of.items(), key=lambda item: (len(item[1]), item[1]))
        #: Canonical words in enumeration order.
        self.words: tuple[tuple[int, ...], ...] = tuple(w for _, w in ordered)
        #: Left-ascent set of each element, aligned with ``words``.
        self.ascents: tuple[frozenset[int], ...] = tuple(
            frozenset(j + 1 for j in range(self.rank) if p[j] > 0) for p, _ in ordered
        )
        #: Position of each canonical word in enumeration order.
        self.index = {w: k for k, w in enumerate(self.words)}
        #: Number of positive roots, the length of the longest element.
        self.n_pos = len(self.words[-1])

    def _reflect_pairings(self, p: tuple[int, ...], i: int) -> tuple[int, ...]:
        a = self.matrix
        return tuple(p[j] - p[i] * a[j][i] for j in range(self.rank))

    def canonical(self, word) -> tuple[int, ...]:
        """Canonical word of the product ``s_{i1} ... s_{ik}`` of any word."""
        p = (1,) * self.rank
        for i in reversed(word):
            p = self._reflect_pairings(p, i - 1)
        return self._word_of[p]

    def images(self, mu: tuple[Fraction, ...]) -> tuple[tuple[Fraction, ...], ...]:
        """``w(mu)`` in simple-coroot coordinates, aligned with ``words``."""
        a = self.matrix
        image_of = {(): tuple(mu)}
        for word in self.words[1:]:
            c = list(image_of[word[1:]])
            i = word[0] - 1
            c[i] -= sum(a[i][j] * c[j] for j in range(self.rank))
            image_of[word] = tuple(c)
        return tuple(image_of[w] for w in self.words)

    def levi_root_count(self, subset: frozenset[int]) -> int:
        """Positive roots supported on ``subset``: the longest length in its parabolic."""
        return max(len(w) for w in self.words if set(w) <= subset)

    # ----- expected CLI text -------------------------------------------------

    def _omega(self, images, subset: frozenset[int]) -> list[int]:
        outside = [i for i in range(self.rank) if i + 1 not in subset]
        return [
            k for k, image in enumerate(images) if all(image[i] > 0 for i in outside)
        ]

    def _cells(self, images, subset: frozenset[int]) -> list[int]:
        """Minimal coset representatives for ``subset`` that lie in its index set."""
        return [k for k in self._omega(images, subset) if subset <= self.ascents[k]]

    def omega_text(self, mu, subset: frozenset[int]) -> str:
        chosen = self._omega(self.images(mu), subset)
        return " ".join(format_word(self.words[k]) for k in chosen) + "\n"

    def yspace_text(self, mu, subset: frozenset[int]) -> str:
        roots = self.levi_root_count(subset)
        cells = [
            (self.words[k], len(self.words[k]) + roots)
            for k in self._cells(self.images(mu), subset)
        ]
        lines = [f"levi_positive_roots={roots} top_dim={max(d for _, d in cells)}"]
        lines += [f"{format_word(w)} dim={d}" for w, d in cells]
        return "\n".join(lines) + "\n"

    def complex_text(self, mu) -> str:
        chosen = [self.words[k] for k in self._omega(self.images(mu), frozenset())]
        top = max(len(w) for w in chosen)
        levels = [[w for w in chosen if len(w) == j] for j in range(top + 1)]
        i0 = self.n_pos - self.rank
        sizes = ",".join(str(len(level)) for level in levels)
        lines = [f"i0={i0}; levels: [{sizes}]"]
        for j, level in enumerate(levels):
            words = " ".join(format_word(w) for w in level)
            lines.append(f"level {j} (degree {i0 - j}): {words}")
        return "\n".join(lines) + "\n"

    def double_layout_text(self, mu) -> str:
        images = self.images(mu)
        cells: dict[tuple[int, int], list[str]] = {}
        for subset in subsets_by_size(range(1, self.rank + 1)):
            braces = ",".join(str(i) for i in sorted(subset))
            for k in self._cells(images, subset):
                key = (-(self.rank - len(subset)), self.n_pos - len(self.words[k]))
                cells.setdefault(key, []).append(
                    f"({{{braces}}}, {format_word(self.words[k])})"
                )
        lines = [
            f"({p},{q}): " + " ".join(cells[(p, q)])
            for p, q in sorted(cells, key=lambda pq: (pq[0], -pq[1]))
        ]
        return "\n".join(lines) + "\n"
