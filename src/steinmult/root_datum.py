"""Finite root data from Cartan matrices, in exact rational arithmetic.

Conventions used throughout the package:

* A Cartan matrix ``A`` is stored with ``A[i][j]`` equal to the pairing of
  the ``i``-th simple root with the ``j``-th simple coroot, so diagonal
  entries are ``2`` and off-diagonal entries are ``<= 0``.
* Weights are written in the basis of simple roots: a coordinate vector
  ``a`` stands for ``sum_i a[i] * alpha_i``.  Coweights are written in the
  basis of simple coroots: ``n`` stands for ``sum_i n[i] * alpha_i_vee``.
* In these coordinates the canonical pairing is ``<lam, mu> = a^T A n``,
  the fundamental-weight coordinates of a weight are ``A^T a``, and a
  simple reflection acts by ``s_j: a -> a - (A^T a)_j e_j`` on weights and
  ``s_j: n -> n - (A n)_j e_j`` on coweights.
* A coweight lies in the open positive chamber iff ``(A n)_i > 0`` for all
  ``i``; all its coroot coordinates are then positive as well, because the
  inverse Cartan matrix of a finite-type system has no negative entries
  (and only positive entries when the system is irreducible).

All arithmetic is exact (``int`` and ``fractions.Fraction``); no floats.
Simple roots/coroots are indexed ``1..d`` in every public interface.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Sequence

__all__ = [
    "DomainError",
    "CartanType",
    "RootDatum",
    "Weight",
    "Coweight",
    "ChamberReport",
    "BUILTIN_TYPES",
    "cartan_type",
    "cartan_type_from_matrix",
    "cartan_type_from_file",
    "type_a",
    "build_root_datum",
    "pairing",
    "coweight_from_gln",
    "validate_mu_positive_chamber",
    "weight_to_fundamental",
    "weight_from_fundamental",
    "fundamental_coweights",
]


class DomainError(ValueError):
    """A domain precondition was violated (bad matrix, wrong chamber, ...)."""


Matrix = tuple[tuple[int, ...], ...]


def _type_a_matrix(rank: int) -> Matrix:
    return tuple(
        tuple(2 if i == j else (-1 if abs(i - j) == 1 else 0) for j in range(rank))
        for i in range(rank)
    )


#: Built-in Cartan matrices, entry (i, j) = pairing of root i with coroot j.
BUILTIN_TYPES: dict[str, Matrix] = {
    "A1": _type_a_matrix(1),
    "A2": _type_a_matrix(2),
    "A3": _type_a_matrix(3),
    "A4": _type_a_matrix(4),
    "A5": _type_a_matrix(5),
    "B2": ((2, -2), (-1, 2)),
    "B3": ((2, -1, 0), (-1, 2, -2), (0, -1, 2)),
    "C3": ((2, -1, 0), (-1, 2, -1), (0, -2, 2)),
    "D4": ((2, -1, 0, 0), (-1, 2, -1, -1), (0, -1, 2, 0), (0, -1, 0, 2)),
    "F4": ((2, -1, 0, 0), (-1, 2, -2, 0), (0, -1, 2, -1), (0, 0, -1, 2)),
    "G2": ((2, -1), (-3, 2)),
}


def _validate_cartan_matrix(matrix: Matrix) -> None:
    """Refuse a matrix that is not a generalized Cartan matrix of finite type.

    ``A`` is of finite type exactly when every principal minor is positive,
    and a finite-type matrix is symmetrizable (Kac, *Infinite-dimensional
    Lie algebras*, ch. 4).  So first look for positive ``d_1..d_n`` with
    ``a_ij / d_i = a_ji / d_j`` for every pair: set ``d_j = d_i a_ji /
    a_ij`` along a spanning forest of the diagram, then check every pair.
    Then ``B = D^{-1} A`` is symmetric, and each principal minor of ``A``
    is the one of ``B`` times a product of ``d_i``, so it has the same
    sign.  By Sylvester's criterion the symmetric ``B`` has all principal
    minors positive iff its leading ones are, and the pivots of Gaussian
    elimination of ``A`` without row exchanges are the ratios of its
    consecutive leading minors.  So one elimination whose every pivot is
    positive decides finite type in ``O(n^3)``, with no determinant taken
    for each of the ``2^n - 1`` principal submatrices.
    """
    d = len(matrix)
    if d == 0:
        raise DomainError("Cartan matrix must have positive rank")
    for row in matrix:
        if len(row) != d:
            raise DomainError("Cartan matrix must be square")
    for i in range(d):
        if matrix[i][i] != 2:
            raise DomainError(
                f"diagonal entry ({i + 1},{i + 1}) is {matrix[i][i]}, expected 2"
            )
    for i in range(d):
        for j in range(d):
            if i == j:
                continue
            if matrix[i][j] > 0:
                raise DomainError(
                    f"off-diagonal entry ({i + 1},{j + 1}) is positive; "
                    "it must be <= 0"
                )
            if (matrix[i][j] == 0) != (matrix[j][i] == 0):
                raise DomainError(
                    f"entries ({i + 1},{j + 1}) and ({j + 1},{i + 1}) must "
                    "vanish together"
                )
    # Finite type, as in the docstring: symmetrize along a spanning forest.
    scale: list[Fraction | None] = [None] * d
    for root in range(d):
        if scale[root] is not None:
            continue
        scale[root] = Fraction(1)
        stack = [root]
        while stack:
            i = stack.pop()
            for j in range(d):
                if matrix[i][j] and scale[j] is None:
                    scale[j] = scale[i] * matrix[j][i] / matrix[i][j]
                    stack.append(j)
    for i in range(d):
        for j in range(i + 1, d):
            if matrix[i][j] / scale[i] != matrix[j][i] / scale[j]:
                raise DomainError(
                    f"entries ({i + 1},{j + 1}) and ({j + 1},{i + 1}) close a "
                    "cycle that admits no symmetrization; the system is not "
                    "finite type"
                )
    # Eliminate without row exchanges; every pivot must be positive.
    m = [[Fraction(entry) for entry in row] for row in matrix]
    for col in range(d):
        if m[col][col] <= 0:
            labels = ",".join(str(i + 1) for i in range(col + 1))
            raise DomainError(
                f"principal submatrix on rows {{{labels}}} has "
                "non-positive determinant; the system is not finite type"
            )
        for r in range(col + 1, d):
            factor = m[r][col] / m[col][col]
            if factor:
                for c in range(col, d):
                    m[r][c] -= factor * m[col][c]


@dataclass(frozen=True)
class CartanType:
    """A validated finite-type Cartan matrix with a display label."""

    label: str
    matrix: Matrix

    @property
    def rank(self) -> int:
        return len(self.matrix)


def cartan_type(name: str) -> CartanType:
    """Look up a built-in Cartan type by name such as ``"A3"`` or ``"g2"``."""
    key = name.strip().upper()
    if key not in BUILTIN_TYPES:
        known = ", ".join(sorted(BUILTIN_TYPES))
        raise DomainError(f"unknown Cartan type {name!r}; built-ins: {known}")
    return CartanType(key, BUILTIN_TYPES[key])


def type_a(rank: int) -> CartanType:
    """Type ``A_rank`` for any positive rank (not limited to the built-ins)."""
    if rank < 1:
        raise DomainError("type A needs rank >= 1")
    return CartanType(f"A{rank}", _type_a_matrix(rank))


def cartan_type_from_matrix(rows: Sequence[Sequence[int]], label: str = "custom") -> CartanType:
    """Validate an explicit integer matrix and wrap it as a :class:`CartanType`."""
    matrix = tuple(tuple(int(entry) for entry in row) for row in rows)
    _validate_cartan_matrix(matrix)
    return CartanType(label, matrix)


def cartan_type_from_file(path: str | Path) -> CartanType:
    """Read a Cartan matrix file: first line ``d``, then ``d`` rows of ``d`` ints.

    Entry ``(i, j)`` of the matrix is the pairing of simple root ``i`` with
    simple coroot ``j``.
    """
    text = Path(path).read_text()
    tokens = text.split()
    if not tokens:
        raise ValueError(f"empty Cartan matrix file: {path}")
    try:
        numbers = [int(tok) for tok in tokens]
    except ValueError as exc:
        raise ValueError(f"non-integer token in Cartan matrix file {path}: {exc}") from None
    d = numbers[0]
    if d <= 0 or len(numbers) != 1 + d * d:
        raise ValueError(
            f"Cartan matrix file {path} must contain d followed by d*d entries "
            f"(stated d={d}, found {len(numbers) - 1} entries)"
        )
    rows = [numbers[1 + i * d : 1 + (i + 1) * d] for i in range(d)]
    return cartan_type_from_matrix(rows, label=f"file:{Path(path).name}")


@dataclass(frozen=True)
class Weight:
    """A rational weight in simple-root coordinates."""

    coords: tuple[Fraction, ...]

    @staticmethod
    def of(*coords: int | Fraction) -> Weight:
        return Weight(tuple(Fraction(c) for c in coords))


@dataclass(frozen=True)
class Coweight:
    """A rational coweight in simple-coroot coordinates."""

    coords: tuple[Fraction, ...]

    @staticmethod
    def of(*coords: int | Fraction) -> Coweight:
        return Coweight(tuple(Fraction(c) for c in coords))


@dataclass(frozen=True)
class RootDatum:
    """A finite root system: Cartan data, positive roots, rho, exact inverses."""

    cartan: CartanType
    #: Positive roots as integer vectors in the simple-root basis, sorted by
    #: (height, coordinates); the first ``rank`` of them need not be simple.
    positive_roots: tuple[tuple[int, ...], ...]
    #: Half-sum of the positive roots, simple-root basis.
    rho: tuple[Fraction, ...]
    inverse_cartan: tuple[tuple[Fraction, ...], ...]

    @property
    def rank(self) -> int:
        return self.cartan.rank

    @property
    def matrix(self) -> Matrix:
        return self.cartan.matrix

    def simple_root(self, i: int) -> Weight:
        """The simple root ``alpha_i`` (``1 <= i <= rank``) as a weight."""
        self._check_index(i)
        return Weight(tuple(Fraction(1 if j == i - 1 else 0) for j in range(self.rank)))

    def rho_weight(self) -> Weight:
        return Weight(self.rho)

    def _check_index(self, i: int) -> None:
        if not 1 <= i <= self.rank:
            raise DomainError(f"simple index {i} out of range 1..{self.rank}")


def _invert(matrix: Matrix) -> tuple[tuple[Fraction, ...], ...]:
    d = len(matrix)
    work = [[Fraction(matrix[i][j]) for j in range(d)] for i in range(d)]
    inv = [[Fraction(1 if i == j else 0) for j in range(d)] for i in range(d)]
    for col in range(d):
        pivot = next(r for r in range(col, d) if work[r][col] != 0)
        work[col], work[pivot] = work[pivot], work[col]
        inv[col], inv[pivot] = inv[pivot], inv[col]
        scale = Fraction(1) / work[col][col]
        work[col] = [entry * scale for entry in work[col]]
        inv[col] = [entry * scale for entry in inv[col]]
        for r in range(d):
            if r != col and work[r][col]:
                factor = work[r][col]
                work[r] = [a - factor * b for a, b in zip(work[r], work[col])]
                inv[r] = [a - factor * b for a, b in zip(inv[r], inv[col])]
    return tuple(tuple(row) for row in inv)


def build_root_datum(cartan: CartanType) -> RootDatum:
    """Generate positive roots by reflection closure and assemble the datum."""
    _validate_cartan_matrix(cartan.matrix)
    d = cartan.rank
    matrix = cartan.matrix
    simples = [tuple(1 if j == i else 0 for j in range(d)) for i in range(d)]
    positives: set[tuple[int, ...]] = set(simples)
    frontier = list(simples)
    while frontier:
        root = frontier.pop()
        for j in range(d):
            # s_j(root): subtract <root, alpha_j_vee> * alpha_j.
            pair = sum(root[i] * matrix[i][j] for i in range(d))
            image = list(root)
            image[j] -= pair
            candidate = tuple(image)
            if min(candidate) >= 0 and candidate not in positives:
                positives.add(candidate)
                frontier.append(candidate)
        if len(positives) > 10_000:
            raise DomainError("root closure did not terminate; matrix is not finite type")
    ordered = tuple(sorted(positives, key=lambda r: (sum(r), r)))
    rho = tuple(Fraction(sum(r[i] for r in ordered), 2) for i in range(d))
    return RootDatum(cartan, ordered, rho, _invert(matrix))


def _as_coords(values: Sequence[int | Fraction]) -> tuple[Fraction, ...]:
    return tuple(Fraction(v) for v in values)


def pairing(datum: RootDatum, lam: Weight, mu: Coweight) -> Fraction:
    """Canonical pairing ``<lam, mu> = a^T A n`` of a weight with a coweight."""
    d = datum.rank
    if len(lam.coords) != d or len(mu.coords) != d:
        raise DomainError(
            f"rank mismatch: datum has rank {d}, got weight of length "
            f"{len(lam.coords)} and coweight of length {len(mu.coords)}"
        )
    matrix = datum.matrix
    total = Fraction(0)
    for i in range(d):
        if lam.coords[i]:
            total += lam.coords[i] * sum(matrix[i][j] * mu.coords[j] for j in range(d))
    return total


def weight_to_fundamental(datum: RootDatum, lam: Weight) -> tuple[Fraction, ...]:
    """Fundamental-weight coordinates ``A^T a`` of a weight."""
    d = datum.rank
    if len(lam.coords) != d:
        raise DomainError(f"rank mismatch: expected length {d}")
    matrix = datum.matrix
    return tuple(sum(lam.coords[i] * matrix[i][j] for i in range(d)) for j in range(d))


def weight_from_fundamental(datum: RootDatum, coords: Sequence[int | Fraction]) -> Weight:
    """Inverse of :func:`weight_to_fundamental` (solve ``A^T a = f`` exactly)."""
    d = datum.rank
    f = _as_coords(coords)
    if len(f) != d:
        raise DomainError(f"rank mismatch: expected length {d}")
    # (A^T)^{-1} = (A^{-1})^T, and inverse_cartan is exact.
    inv = datum.inverse_cartan
    return Weight(tuple(sum(inv[j][i] * f[j] for j in range(d)) for i in range(d)))


def fundamental_coweights(datum: RootDatum) -> tuple[Coweight, ...]:
    """Coweights dual to the simple roots; columns of the inverse Cartan matrix."""
    d = datum.rank
    inv = datum.inverse_cartan
    return tuple(Coweight(tuple(inv[i][j] for i in range(d))) for j in range(d))


def coweight_from_gln(entries: Sequence[int | Fraction], recenter: bool = False) -> Coweight:
    """Convert a GL_n cocharacter tuple to simple-coroot coordinates.

    For ``(x_1, ..., x_n)`` with ``sum x_i = 0`` the coordinates are the
    partial sums ``c_i = x_1 + ... + x_i`` for ``i = 1..n-1`` (the type
    ``A_{n-1}`` change of basis).  A nonzero sum is an error unless
    ``recenter=True``, which subtracts the mean first.
    """
    xs = list(_as_coords(entries))
    if len(xs) < 2:
        raise DomainError("a GL_n tuple needs at least two entries")
    total = sum(xs)
    if total != 0:
        if not recenter:
            raise DomainError(
                f"GL_n entries must sum to zero (got sum {total}); pass "
                "recenter=True to subtract the mean"
            )
        mean = total / len(xs)
        xs = [x - mean for x in xs]
    coords = []
    acc = Fraction(0)
    for x in xs[:-1]:
        acc += x
        coords.append(acc)
    return Coweight(tuple(coords))


@dataclass(frozen=True)
class ChamberReport:
    """Outcome of the open-positive-chamber test for a coweight."""

    ok: bool
    #: Pairings of each simple root with the coweight, in index order.
    pairings: tuple[Fraction, ...]
    message: str


def validate_mu_positive_chamber(datum: RootDatum, mu: Coweight) -> ChamberReport:
    """Check that ``<alpha_i, mu> > 0`` for every simple root ``alpha_i``.

    When the test passes, every simple-coroot coordinate of ``mu`` is
    checked to be positive as well (a consequence of the nonnegativity of
    the inverse Cartan matrix), guarding the conventions above.
    """
    d = datum.rank
    if len(mu.coords) != d:
        raise DomainError(f"rank mismatch: expected coweight of length {d}")
    matrix = datum.matrix
    values = tuple(
        sum(matrix[i][j] * mu.coords[j] for j in range(d)) for i in range(d)
    )
    bad = [i + 1 for i, value in enumerate(values) if value <= 0]
    if bad:
        shown = ", ".join(
            f"<alpha_{i}, mu> = {values[i - 1]}" for i in bad
        )
        return ChamberReport(
            False,
            values,
            "coweight is not in the open positive chamber: all pairings with "
            f"simple roots must be > 0 ({shown})",
        )
    # Cross-check: strictly dominant coweights have positive coroot coordinates.
    assert all(c > 0 for c in mu.coords), "dominant coweight with a non-positive coordinate"
    return ChamberReport(True, values, "coweight lies in the open positive chamber")
