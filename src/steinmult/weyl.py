"""The Weyl group of a root datum: words, length, Bruhat order, parabolics.

The group is built once, as a table: a breadth-first search from the
identity by left multiplication with simple reflections, one length at a
time (W. Casselman, "Machine calculations in Weyl groups", Invent. Math.
116, 1994).  Each element stores ``s_i w`` for every ``i``, its length (the
search depth), its left descents and its canonical word, and every product,
inverse and descent reads that table.  Bruhat comparisons read the lower
ideal of an element, a bitset of serials built from the table by the
lifting property on the first query for that element.  Each element also
carries the integer matrices of its action on weights (simple-root basis)
and on coweights (simple-coroot basis); they are used only where a weight
or coweight is acted on.  The root matrices are read by ``act_weight``,
``dot_action`` and ``right_descents``; the coroot matrices by
``act_coweight`` and by :mod:`steinmult.period_domain`, which takes the
signs of every chamber image ``w(mu)`` from them in scaled integers.  The
order of the group is known from the root system before anything is built,
so a group larger than ``enumerate_group``'s ``max_size`` is refused up
front.  Within one :class:`WeylGroup` equal elements are the *same* object;
equality and hashing are identity-based.

Conventions:

* ``multiply(a, b)`` is the element acting as ``a`` after ``b``, i.e. the
  product ``a b`` with words concatenated as ``word(a) + word(b)``.
* ``length(w)`` is the number of positive roots sent to negative roots.
* ``i`` is a *left* descent of ``w`` iff ``length(s_i w) < length(w)``,
  equivalently ``w^{-1}(alpha_i) < 0``; a *right* descent iff
  ``w(alpha_i) < 0``.
* ``upper_set(w)`` is the set of left ascents, the complement of the left
  descent set; ``support(w)`` is the set of letters of any reduced word.
* The canonical word of ``w`` is its lexicographically smallest reduced
  word: the smallest left descent ``i`` followed by the canonical word of
  ``s_i w``.
* ``dot_action`` is the rho-shifted action ``w . lam = w(lam + rho) - rho``.

Simple reflections are indexed ``1..rank`` everywhere.
"""

from __future__ import annotations

import re
from collections import Counter

from .root_datum import Coweight, DomainError, RootDatum, Weight

__all__ = ["WeylGroup", "WeylElement", "WordParseError"]


class WordParseError(ValueError):
    """A word string such as ``"s1*s2"`` could not be parsed."""


IntMatrix = tuple[tuple[int, ...], ...]

_TOKEN = re.compile(r"^s(\d+)$")


def _identity_matrix(d: int) -> IntMatrix:
    return tuple(tuple(1 if r == c else 0 for c in range(d)) for r in range(d))


def _reflect(row: tuple[int, ...], i: int, m: IntMatrix) -> IntMatrix:
    """``s m`` for the simple reflection ``s`` whose row ``i`` is ``row``.

    Every other row of ``s`` is the identity's, so only row ``i`` changes.
    """
    new = tuple(sum(a * b for a, b in zip(row, col)) for col in zip(*m))
    return m[:i] + (new,) + m[i + 1 :]


def _apply(m: IntMatrix, vec: tuple) -> tuple:
    return tuple(sum(a * b for a, b in zip(row, vec)) for row in m)


def _serials(mask: int) -> list[int]:
    """Positions of the set bits of ``mask``, in increasing order."""
    return [k for k, bit in enumerate(bin(mask)[:1:-1]) if bit == "1"]


def _group_order(datum: RootDatum) -> int:
    """``|W|`` as the product of ``m + 1`` over the exponents ``m``.

    The exponents form the partition dual to the numbers of positive roots
    of each height (Kostant), in every finite type, reducible or not.
    """
    per_height = Counter(sum(root) for root in datum.positive_roots).values()
    order = 1
    for i in range(1, datum.rank + 1):
        order *= 1 + sum(1 for count in per_height if count >= i)
    return order


class WeylElement:
    """A Weyl group element; obtain it from :class:`WeylGroup` methods."""

    __slots__ = (
        "group",
        "root_matrix",
        "coroot_matrix",
        "length",
        "_serial",
        "_word",
        "_left",
        "_left_descents",
        "_below",
    )

    def __init__(
        self,
        group: WeylGroup,
        root_matrix: IntMatrix,
        coroot_matrix: IntMatrix,
        serial: int,
        word: tuple[int, ...],
    ) -> None:
        self.group = group
        self.root_matrix = root_matrix
        self.coroot_matrix = coroot_matrix
        self.length = len(word)
        #: Position in enumeration order.
        self._serial = serial
        self._word = word
        # ``_left[i - 1]`` is ``s_i w``.  Enumeration fills in ``_left`` and
        # ``_left_descents``; the identity's empty descent set holds before.
        self._left: tuple[WeylElement, ...] = ()
        self._left_descents: frozenset[int] = frozenset()
        # Bitset of the serials of all x <= this element; 0 until built.
        self._below = 0 if word else 1

    def __repr__(self) -> str:
        return f"<WeylElement {self.group.format_word(self)}>"


class WeylGroup:
    """The Weyl group attached to a :class:`RootDatum`."""

    def __init__(self, datum: RootDatum) -> None:
        self.datum = datum
        d = datum.rank
        matrix = datum.matrix
        # Row ``j`` of the ``j``-th simple reflection acting on weights and
        # on coweights; all its other rows are those of the identity.
        self._root_rows = tuple(
            tuple((1 if c == j else 0) - matrix[c][j] for c in range(d))
            for j in range(d)
        )
        self._coroot_rows = tuple(
            tuple((1 if c == j else 0) - matrix[j][c] for c in range(d))
            for j in range(d)
        )
        self.identity = WeylElement(
            self, _identity_matrix(d), _identity_matrix(d), 0, ()
        )
        self._elements: tuple[WeylElement, ...] | None = None
        self._kostant_cache: dict[frozenset[int], tuple[WeylElement, ...]] = {}
        self._parabolic_cache: dict[frozenset[int], tuple[WeylElement, ...]] = {}

    # ----- element construction -------------------------------------------

    @property
    def rank(self) -> int:
        return self.datum.rank

    def simple_reflection(self, i: int) -> WeylElement:
        if not 1 <= i <= self.rank:
            raise DomainError(f"simple index {i} out of range 1..{self.rank}")
        if self._elements is None:
            self.enumerate_group()
        return self.identity._left[i - 1]

    def multiply(self, a: WeylElement, b: WeylElement) -> WeylElement:
        self._check_member(a)
        self._check_member(b)
        for i in reversed(a._word):
            b = b._left[i - 1]
        return b

    def inverse(self, w: WeylElement) -> WeylElement:
        """``w^{-1}``, whose word is the canonical word of ``w`` read backwards."""
        self._check_member(w)
        return self.product_of(w._word[::-1])

    def product_of(self, word: tuple[int, ...] | list[int]) -> WeylElement:
        """The product ``s_{i1} ... s_{ik}`` of a word of simple indices."""
        letters = [self.simple_reflection(i) for i in word]
        result = self.identity
        for s in reversed(letters):
            result = self.multiply(s, result)
        return result

    def _check_member(self, w: WeylElement) -> None:
        if w.group is not self:
            raise DomainError("element belongs to a different Weyl group instance")

    # ----- descents, words, support ---------------------------------------

    def right_descents(self, w: WeylElement) -> frozenset[int]:
        """Indices ``i`` with ``w(alpha_i)`` negative, i.e. ``w s_i < w``."""
        self._check_member(w)
        d = self.rank
        return frozenset(
            i + 1 for i in range(d) if sum(row[i] for row in w.root_matrix) < 0
        )

    def left_descents(self, w: WeylElement) -> frozenset[int]:
        """Indices ``i`` with ``s_i w < w``."""
        self._check_member(w)
        return w._left_descents

    def upper_set(self, w: WeylElement) -> frozenset[int]:
        """The left-ascent set of ``w``: indices ``i`` with ``s_i w > w``."""
        return frozenset(range(1, self.rank + 1)) - self.left_descents(w)

    def canonical_word(self, w: WeylElement) -> tuple[int, ...]:
        """Lexicographically smallest reduced word of ``w``."""
        self._check_member(w)
        return w._word

    def support(self, w: WeylElement) -> frozenset[int]:
        """Set of simple indices occurring in any (hence every) reduced word."""
        return frozenset(self.canonical_word(w))

    # ----- enumeration and the longest element ----------------------------

    def enumerate_group(self, max_size: int = 10**6) -> tuple[WeylElement, ...]:
        """All elements, sorted by (length, canonical word).

        Builds the group one length at a time: for each ``i`` in turn, and
        for each element ``w`` of the previous length in enumeration order,
        ``s_i w`` is either known or new.  A new element is first reached
        through its smallest left descent ``i``, so its canonical word is
        ``(i,) + word(w)`` and each length comes out already sorted.  A
        group of more than ``max_size`` elements raises :class:`DomainError`
        before any element is built.
        """
        if self._elements is None:
            order = _group_order(self.datum)
            if order > max_size:
                raise DomainError(
                    f"group has {order} elements, more than max_size={max_size}"
                )
            known = {self.identity.root_matrix: self.identity}
            level = [self.identity]
            while level:
                rows: list[list[WeylElement]] = [[] for _ in level]
                nxt: list[WeylElement] = []
                for i in range(self.rank):
                    for w, row in zip(level, rows):
                        root = _reflect(self._root_rows[i], i, w.root_matrix)
                        u = known.get(root)
                        if u is None:
                            coroot = _reflect(self._coroot_rows[i], i, w.coroot_matrix)
                            word = (i + 1,) + w._word
                            u = WeylElement(self, root, coroot, len(known), word)
                            known[root] = u
                            nxt.append(u)
                        row.append(u)
                for w, row in zip(level, rows):
                    w._left = tuple(row)
                    w._left_descents = frozenset(
                        i + 1 for i, u in enumerate(row) if u.length < w.length
                    )
                level = nxt
            self._elements = tuple(known.values())
        return self._elements

    def longest_element(self) -> WeylElement:
        """The unique element of greatest length, last in enumeration order."""
        return self.enumerate_group()[-1]

    # ----- Bruhat order ----------------------------------------------------

    def _ideal(self, w: WeylElement) -> int:
        """Bitset of the serials of all ``x <= w``, built once per element.

        Lifting property: with ``i`` the first letter of the canonical word
        of ``w``, the ideal of ``w`` is that of ``s_i w`` together with its
        image under left multiplication by ``s_i``.
        """
        chain = []
        while not w._below:
            chain.append(w)
            w = w._left[w._word[0] - 1]
        below = w._below
        elements = self._elements
        for u in reversed(chain):
            i = u._word[0] - 1
            for k in _serials(below):
                below |= 1 << elements[k]._left[i]._serial
            u._below = below
        return below

    def bruhat_leq(self, x: WeylElement, w: WeylElement) -> bool:
        """Bruhat order: whether ``x`` lies in the lower ideal of ``w``."""
        self._check_member(x)
        self._check_member(w)
        return bool(self._ideal(w) >> x._serial & 1)

    def bruhat_interval(self, x: WeylElement, w: WeylElement) -> tuple[WeylElement, ...]:
        """Elements ``t`` with ``x <= t <= w``, in enumeration order."""
        self._check_member(x)
        self._check_member(w)
        elements = self.enumerate_group()
        inside = (elements[k] for k in _serials(self._ideal(w)))
        return tuple(t for t in inside if self._ideal(t) >> x._serial & 1)

    def covers(self, x: WeylElement, w: WeylElement) -> bool:
        """Whether ``w`` covers ``x``: ``x < w`` with ``length(w) = length(x)+1``."""
        return w.length == x.length + 1 and self.bruhat_leq(x, w)

    # ----- parabolic data --------------------------------------------------

    def _check_subset(self, subset: frozenset[int]) -> frozenset[int]:
        subset = frozenset(subset)
        for i in subset:
            if not 1 <= i <= self.rank:
                raise DomainError(f"simple index {i} out of range 1..{self.rank}")
        return subset

    def kostant_reps(self, subset: frozenset[int]) -> tuple[WeylElement, ...]:
        """Minimal-length left coset representatives for the parabolic on ``subset``.

        These are the ``w`` with no left descent inside ``subset``; every
        group element factors uniquely as ``v * u`` with ``v`` a
        representative and ``u`` in the parabolic subgroup, with lengths
        adding.
        """
        subset = self._check_subset(subset)
        found = self._kostant_cache.get(subset)
        if found is None:
            found = tuple(
                w
                for w in self.enumerate_group()
                if subset.isdisjoint(w._left_descents)
            )
            self._kostant_cache[subset] = found
        return found

    def parabolic_elements(self, subset: frozenset[int]) -> tuple[WeylElement, ...]:
        """Elements whose support lies inside ``subset``, in enumeration order."""
        subset = self._check_subset(subset)
        found = self._parabolic_cache.get(subset)
        if found is None:
            found = tuple(
                w for w in self.enumerate_group() if self.support(w) <= subset
            )
            self._parabolic_cache[subset] = found
        return found

    # ----- actions ---------------------------------------------------------

    def act_weight(self, w: WeylElement, lam: Weight) -> Weight:
        self._check_member(w)
        if len(lam.coords) != self.rank:
            raise DomainError(f"rank mismatch: expected weight of length {self.rank}")
        return Weight(_apply(w.root_matrix, lam.coords))

    def dot_action(self, w: WeylElement, lam: Weight) -> Weight:
        """Rho-shifted action ``w . lam = w(lam + rho) - rho``."""
        self._check_member(w)
        if len(lam.coords) != self.rank:
            raise DomainError(f"rank mismatch: expected weight of length {self.rank}")
        rho = self.datum.rho
        shifted = tuple(a + r for a, r in zip(lam.coords, rho))
        moved = _apply(w.root_matrix, shifted)
        return Weight(tuple(a - r for a, r in zip(moved, rho)))

    def act_coweight(self, w: WeylElement, mu: Coweight) -> Coweight:
        self._check_member(w)
        if len(mu.coords) != self.rank:
            raise DomainError(f"rank mismatch: expected coweight of length {self.rank}")
        return Coweight(_apply(w.coroot_matrix, mu.coords))

    # ----- words as text ---------------------------------------------------

    def parse_word(self, text: str) -> WeylElement:
        """Parse ``"e"``, ``"1"``, or ``"s<i>"`` factors joined by ``"*"``."""
        body = text.strip()
        if body in ("e", "1"):
            return self.identity
        if not body:
            raise WordParseError("empty word; use 'e' for the identity")
        word = []
        for token in body.split("*"):
            match = _TOKEN.match(token.strip())
            if match is None:
                raise WordParseError(
                    f"bad word token {token.strip()!r}; expected s<i> as in 's2'"
                )
            i = int(match.group(1))
            if not 1 <= i <= self.rank:
                raise WordParseError(
                    f"word token s{i} out of range; rank is {self.rank}"
                )
            word.append(i)
        return self.product_of(word)

    def format_word(self, w: WeylElement, identity: str = "e") -> str:
        """Canonical word as text, e.g. ``"s1*s2"``; the identity prints as given."""
        word = self.canonical_word(w)
        if not word:
            return identity
        return "*".join(f"s{i}" for i in word)
