"""Chamber index sets, stratification data, chain complexes, homology bounds.

Fix a coweight ``mu`` in the open positive chamber.  For a subset ``I`` of
simple indices, :func:`omega` selects the Weyl elements ``w`` such that
every simple-coroot coordinate of ``w(mu)`` at a position *outside* ``I``
is positive.  Only the signs of those coordinates matter, so each public
call scales ``mu`` once by the lcm of its coordinate denominators and reads
every chamber image from the integer coroot matrices, once per element;
:func:`double_complex_layout` shares those signs across all its subsets.
These index sets drive everything else here:

* :func:`y_structure` and :func:`parabolic_complex_layout` describe, for a
  proper subset ``I``, a space stratified by cells indexed by minimal
  coset representatives in ``omega(mu, I)``, with the cell of ``w`` in
  dimension ``length(w) + r_I`` (``r_I`` = number of positive roots
  supported on ``I``).
* :func:`build_complex` arranges ``omega(mu, {})`` into levels by length;
  level ``j`` sits in homological degree ``i0 - j`` with
  ``i0 = #positive roots - rank``, and the differential maps level ``j``
  to level ``j + 1`` with a nonzero component exactly along Bruhat covers,
  each such component being surjective.
* :func:`distribution_types` records, for every composition factor of the
  untwisted module, its multiplicity in each summand of each level.
* :func:`homology_bounds` bounds (often pins) the multiplicity of each
  factor in each homology degree by interval propagation on kernel sizes,
  using only facts forced by rank-nullity and the surjectivity of cover
  components.  Undetermined intervals are reported honestly, never
  silently narrowed; contradictory constraints raise
  :class:`InfeasibleError`.
* :func:`double_complex_layout` places the pair ``(I, w)`` for all subsets
  ``I`` and ``w`` in the corresponding coset-representative index set at
  bidegree ``(-(rank - |I|), #positive roots - length(w))``.
"""

from __future__ import annotations

import math
import warnings as _warnings
from dataclasses import dataclass
from typing import Iterable, Sequence

from .root_datum import Coweight, DomainError, validate_mu_positive_chamber
from .steinberg_jh import JHFactor, _subsets_by_size, jh_factors
from .weyl import WeylElement, WeylGroup

__all__ = [
    "InfeasibleError",
    "OmegaSet",
    "YSpaceStructure",
    "ParabolicComplexLayout",
    "ChainComplexSpec",
    "DistributionType",
    "SolverResult",
    "HomologyEntry",
    "HomologyReport",
    "DoubleComplexLayout",
    "omega",
    "y_structure",
    "parabolic_complex_layout",
    "build_complex",
    "distribution_types",
    "solve_multiplicity_intervals",
    "homology_bounds",
    "double_complex_layout",
]


class InfeasibleError(RuntimeError):
    """The interval constraints admit no solution; indicates an internal bug."""


def _positive_coordinates(
    group: WeylGroup, mu: Coweight
) -> dict[WeylElement, frozenset[int]]:
    """For every element in enumeration order, the ``i`` with ``w(mu)_i > 0``.

    Scaling ``mu`` by a positive integer keeps every sign, so the images are
    taken in integers: ``mu`` times the lcm of its coordinate denominators.
    """
    report = validate_mu_positive_chamber(group.datum, mu)
    if not report.ok:
        raise DomainError(report.message)
    scale = math.lcm(*(c.denominator for c in mu.coords))
    scaled = tuple(c.numerator * (scale // c.denominator) for c in mu.coords)
    return {
        w: frozenset(
            i
            for i, row in enumerate(w.coroot_matrix, start=1)
            if sum(a * b for a, b in zip(row, scaled)) > 0
        )
        for w in group.enumerate_group()
    }


@dataclass(frozen=True)
class OmegaSet:
    """The index set for one subset ``I``: elements in enumeration order."""

    subset: frozenset[int]
    mu: Coweight
    elements: tuple[WeylElement, ...]

    def __len__(self) -> int:
        return len(self.elements)

    def __contains__(self, w: WeylElement) -> bool:
        return w in self.elements

    def words(self) -> tuple[str, ...]:
        if not self.elements:
            return ()
        group = self.elements[0].group
        return tuple(group.format_word(w) for w in self.elements)


def omega(
    group: WeylGroup, mu: Coweight, subset: Iterable[int] = frozenset()
) -> OmegaSet:
    """Elements ``w`` with ``w(mu)`` positive in every coordinate outside ``subset``.

    The signs of ``w(mu)`` are computed once per element, in integers, from
    ``mu`` scaled by the lcm of its coordinate denominators; the returned
    set keeps ``mu`` as given.
    """
    subset = group._check_subset(frozenset(subset))
    outside = frozenset(range(1, group.rank + 1)) - subset
    positives = _positive_coordinates(group, mu)
    chosen = tuple(w for w, positive in positives.items() if outside <= positive)
    return OmegaSet(subset, mu, chosen)


@dataclass(frozen=True)
class YSpaceStructure:
    """Cell data of the stratified space attached to a proper subset ``I``."""

    subset: frozenset[int]
    mu: Coweight
    #: Number of positive roots supported on ``subset``.
    levi_root_count: int
    #: Largest cell dimension.
    top_dim: int
    #: Pairs ``(w, dimension)`` with ``dimension = length(w) + levi_root_count``.
    cells: tuple[tuple[WeylElement, int], ...]


def _levi_root_count(group: WeylGroup, subset: frozenset[int]) -> int:
    inside = {i - 1 for i in subset}
    count = 0
    for root in group.datum.positive_roots:
        if all(c == 0 or i in inside for i, c in enumerate(root)):
            count += 1
    return count


def y_structure(
    group: WeylGroup, mu: Coweight, subset: Iterable[int]
) -> YSpaceStructure:
    """Cells of the stratified space for a *proper* subset of simple indices."""
    subset = group._check_subset(frozenset(subset))
    if len(subset) == group.rank:
        raise DomainError("subset must be a proper subset of the simple indices")
    index_set = omega(group, mu, subset)
    members = set(index_set.elements)
    root_count = _levi_root_count(group, subset)
    cells = tuple(
        (w, w.length + root_count)
        for w in group.kostant_reps(subset)
        if w in members
    )
    top = max(dim for _, dim in cells)
    assert top <= len(group.datum.positive_roots) - 1, (
        "cell dimension exceeds the expected proper bound"
    )
    return YSpaceStructure(subset, mu, root_count, top, cells)


@dataclass(frozen=True)
class ParabolicComplexLayout:
    """Columns of the complex attached to a proper subset, by descending length."""

    subset: frozenset[int]
    mu: Coweight
    levi_root_count: int
    top_dim: int
    #: Degree of the last column: ``#positive roots + levi_root_count - top_dim``.
    start_degree: int
    columns: tuple[tuple[WeylElement, ...], ...]

    def column_labels(self) -> tuple[tuple[str, ...], ...]:
        """Parabolic standard-module labels, one per summand."""
        if not any(self.columns):
            return tuple(() for _ in self.columns)
        group = next(w for col in self.columns for w in col).group
        sub = ",".join(str(i) for i in sorted(self.subset))
        prefix = f"M_{{{sub}}}" if sub else "M"
        out = []
        for col in self.columns:
            labels = []
            for w in col:
                word = group.format_word(w)
                inner = "λ" if w is group.identity else f"{word}·λ"
                labels.append(f"{prefix}({inner})")
            out.append(tuple(labels))
        return tuple(out)


def parabolic_complex_layout(
    group: WeylGroup, mu: Coweight, subset: Iterable[int]
) -> ParabolicComplexLayout:
    """Arrange the coset representatives in ``omega(mu, I)`` by descending length.

    Column ``j`` holds the representatives of length ``top_dim -
    levi_root_count - j``; for the empty subset this is exactly the level
    decomposition of :func:`build_complex` read in reverse order.
    """
    structure = y_structure(group, mu, subset)
    span = structure.top_dim - structure.levi_root_count
    columns = tuple(
        tuple(w for w, dim in structure.cells if dim == structure.top_dim - j)
        for j in range(span + 1)
    )
    n_pos = len(group.datum.positive_roots)
    start = n_pos + structure.levi_root_count - structure.top_dim
    return ParabolicComplexLayout(
        structure.subset,
        mu,
        structure.levi_root_count,
        structure.top_dim,
        start,
        columns,
    )


@dataclass(frozen=True)
class ChainComplexSpec:
    """Levels of the chain complex on ``omega(mu, {})``, with degree bookkeeping."""

    mu: Coweight
    #: ``i0 = #positive roots - rank``: the homological degree of level 0.
    i0: int
    #: ``levels[j]`` lists the summand indices of length ``j``.
    levels: tuple[tuple[WeylElement, ...], ...]
    warnings: tuple[str, ...]

    @property
    def bottom_level(self) -> int:
        return len(self.levels) - 1

    def degree_of_level(self, level: int) -> int:
        return self.i0 - level

    def level_sizes(self) -> tuple[int, ...]:
        return tuple(len(level) for level in self.levels)


def build_complex(group: WeylGroup, mu: Coweight) -> ChainComplexSpec:
    """Split ``omega(mu, {})`` into levels by length and check its shape.

    The differential maps level ``j`` to level ``j + 1``; a component
    between summands is nonzero exactly along Bruhat covers.  Levels must
    be contiguous and every summand below the top must be covered from the
    level above it.  A bottom level in negative homological degree is
    legal but suspicious, so it is flagged as a warning, never silently
    accepted and never an error.
    """
    index_set = omega(group, mu, frozenset())
    top = max(w.length for w in index_set.elements)
    levels = tuple(
        tuple(w for w in index_set.elements if w.length == j)
        for j in range(top + 1)
    )
    assert all(levels), "lengths in the index set are not contiguous"
    for j in range(len(levels) - 1):
        for w in levels[j + 1]:
            assert any(group.covers(x, w) for x in levels[j]), (
                "summand with no incoming cover from the previous level"
            )
    i0 = len(group.datum.positive_roots) - group.rank
    notes: tuple[str, ...] = ()
    if i0 - top < 0:
        message = (
            f"bottom level {top} sits in negative homological degree "
            f"{i0 - top}"
        )
        notes = (message,)
        _warnings.warn(message, RuntimeWarning, stacklevel=2)
    return ChainComplexSpec(mu, i0, levels, notes)


@dataclass(frozen=True)
class DistributionType:
    """Multiplicities of one factor across the summands of every level."""

    #: ``per_level[j][k]`` = multiplicity in the ``k``-th summand of level ``j``.
    per_level: tuple[tuple[int, ...], ...]

    @property
    def flat(self) -> tuple[int, ...]:
        return tuple(c for level in self.per_level for c in level)

    @property
    def level_totals(self) -> tuple[int, ...]:
        return tuple(sum(level) for level in self.per_level)


def distribution_types(
    group: WeylGroup, mu: Coweight
) -> dict[JHFactor, DistributionType]:
    """Per-summand multiplicities of every factor of the untwisted module.

    The returned mapping runs over the factor table of the identity twist,
    in table order; its key set provably exhausts the factors of every
    twist occurring in the complex, which is re-checked here.
    """
    return _distribution_types(group, build_complex(group, mu))


def _distribution_types(
    group: WeylGroup, spec: ChainComplexSpec
) -> dict[JHFactor, DistributionType]:
    base = jh_factors(group, group.identity)
    tables = {
        w: jh_factors(group, w).multiplicity_map()
        for level in spec.levels
        for w in level
    }
    base_keys = {(factor.v, factor.smooth) for factor, _ in base.entries}
    seen = set()
    for table in tables.values():
        seen.update(table.keys())
    assert seen == base_keys, (
        "factors of the twisted modules do not match the untwisted table"
    )
    out: dict[JHFactor, DistributionType] = {}
    for factor, _ in base.entries:
        key = (factor.v, factor.smooth)
        out[factor] = DistributionType(
            tuple(
                tuple(tables[w].get(key, 0) for w in level)
                for level in spec.levels
            )
        )
    return out


@dataclass(frozen=True)
class SolverResult:
    """Kernel-size and homology-multiplicity intervals for one factor."""

    level_totals: tuple[int, ...]
    kernel_lo: tuple[int, ...]
    kernel_hi: tuple[int, ...]
    #: ``homology[j] = (lo, hi)`` bounds the multiplicity in the homology
    #: at level ``j``.
    homology: tuple[tuple[int, int], ...]
    trace: tuple[str, ...]

    @property
    def all_pinned(self) -> bool:
        return all(lo == hi for lo, hi in self.homology)


def solve_multiplicity_intervals(
    level_counts: Sequence[Sequence[int]],
    cover_edges: Sequence[set[tuple[int, int]]],
) -> SolverResult:
    """Bound kernel sizes per level from counts and the cover graph.

    ``level_counts[j][k]`` is the multiplicity of the factor in the
    ``k``-th summand of level ``j``; ``cover_edges[j]`` holds pairs
    ``(a, b)`` when summand ``a`` of level ``j`` has a nonzero (hence
    surjective) component onto summand ``b`` of level ``j + 1``.

    Only forced facts are used: writing ``k_j`` for the kernel size of the
    outgoing map of level ``j`` (so ``k_bottom`` is the whole level),

    * rank-nullity and exactness demands give ``k_j + k_{j-1} >= n_{j-1}``;
    * the rank of the outgoing map is at least the largest single-summand
      count of the next level, and also at least the sum of the counts of
      the targets that have a *private* source (a summand mapping onto
      that target and nowhere else), because those images span
      independent coordinates; hence ``k_j <= n_j - rank_bound``.

    The bounds are propagated to a fixpoint.  An empty interval raises
    :class:`InfeasibleError` with the trace; otherwise the homology
    interval at level ``j`` is ``k_j + k_{j-1} - n_{j-1}`` in interval
    arithmetic (just ``k_0`` at the top), clipped at zero.
    """
    bottom = len(level_counts) - 1
    if bottom < 0:
        raise ValueError("need at least one level")
    if len(cover_edges) != bottom:
        raise ValueError("need exactly one edge set per consecutive level pair")
    totals = [sum(counts) for counts in level_counts]
    trace: list[str] = [f"level totals {totals}"]
    rank_bounds: list[int] = []
    for j in range(bottom):
        targets = list(level_counts[j + 1])
        biggest = max(targets, default=0)
        outgoing: dict[int, set[int]] = {}
        for a, b in cover_edges[j]:
            outgoing.setdefault(a, set()).add(b)
        private = {next(iter(tset)) for tset in outgoing.values() if len(tset) == 1}
        private_sum = sum(targets[b] for b in private)
        bound = max(biggest, private_sum)
        rank_bounds.append(bound)
        trace.append(
            f"rank of map {j}->{j + 1} >= {bound} "
            f"(largest target {biggest}, private targets {sorted(private)} "
            f"sum {private_sum})"
        )
    lo = [0] * (bottom + 1)
    hi = [totals[j] - rank_bounds[j] for j in range(bottom)] + [totals[bottom]]
    lo[bottom] = totals[bottom]
    for j in range(bottom):
        if hi[j] < 0:
            trace.append(f"kernel {j} upper bound {hi[j]} < 0")
            raise InfeasibleError("; ".join(trace))
    changed = True
    while changed:
        changed = False
        for j in range(1, bottom + 1):
            need = totals[j - 1] - hi[j - 1]
            if need > lo[j]:
                lo[j] = need
                trace.append(f"kernel {j} >= {need} (exactness below level {j - 1})")
                changed = True
            need = totals[j - 1] - hi[j]
            if need > lo[j - 1]:
                lo[j - 1] = need
                trace.append(f"kernel {j - 1} >= {need} (capacity of level {j})")
                changed = True
        for j in range(bottom + 1):
            if lo[j] > hi[j]:
                trace.append(f"kernel {j} interval [{lo[j]}, {hi[j]}] is empty")
                raise InfeasibleError("; ".join(trace))
    homology: list[tuple[int, int]] = [(lo[0], hi[0])]
    for j in range(1, bottom + 1):
        h_lo = max(0, lo[j] + lo[j - 1] - totals[j - 1])
        h_hi = hi[j] + hi[j - 1] - totals[j - 1]
        homology.append((h_lo, h_hi))
    trace.append(f"kernel intervals {[list(p) for p in zip(lo, hi)]}")
    trace.append(f"homology intervals {homology}")
    if all(a == b for a, b in homology):
        euler_counts = sum(
            total if j % 2 == 0 else -total for j, total in enumerate(totals)
        )
        euler_homology = sum(
            pair[0] if j % 2 == 0 else -pair[0] for j, pair in enumerate(homology)
        )
        assert euler_counts == euler_homology, "Euler characteristic mismatch"
    return SolverResult(
        tuple(totals),
        tuple(lo),
        tuple(hi),
        tuple(homology),
        tuple(trace),
    )


@dataclass(frozen=True)
class HomologyEntry:
    """One factor in one homology degree, with its multiplicity interval."""

    factor: JHFactor
    degree: int
    lo: int
    hi: int

    @property
    def pinned(self) -> bool:
        return self.lo == self.hi


@dataclass(frozen=True)
class HomologyReport:
    """Homology multiplicity intervals of the whole complex, factor by factor."""

    mu: Coweight
    i0: int
    #: Homological degrees, descending from ``i0``.
    degrees: tuple[int, ...]
    #: Entries with a possibly nonzero multiplicity, ordered by degree
    #: (descending) then factor-table order.  Factors absent from a degree
    #: are pinned to zero there.
    entries: tuple[HomologyEntry, ...]
    #: Per-factor solver outcomes, in factor-table order.
    factor_results: tuple[tuple[JHFactor, SolverResult], ...]
    warnings: tuple[str, ...]

    @property
    def all_pinned(self) -> bool:
        return all(result.all_pinned for _, result in self.factor_results)

    @property
    def undetermined(self) -> tuple[HomologyEntry, ...]:
        return tuple(entry for entry in self.entries if not entry.pinned)

    def entries_at(self, degree: int) -> tuple[HomologyEntry, ...]:
        return tuple(entry for entry in self.entries if entry.degree == degree)

    def to_json(self) -> dict:
        degrees = []
        for degree in self.degrees:
            rows = []
            for entry in self.entries_at(degree):
                row = entry.factor.key_json()
                row["mult_lo"] = entry.lo
                row["mult_hi"] = entry.hi
                row["pinned"] = entry.pinned
                rows.append(row)
            degrees.append({"degree": degree, "factors": rows})
        return {"i0": self.i0, "degrees": degrees}


def homology_bounds(group: WeylGroup, mu: Coweight) -> HomologyReport:
    """Solve the multiplicity intervals of every factor across the complex."""
    spec = build_complex(group, mu)
    types = _distribution_types(group, spec)
    bottom = spec.bottom_level
    edges = [
        {
            (a, b)
            for a, source in enumerate(spec.levels[j])
            for b, target in enumerate(spec.levels[j + 1])
            if group.covers(source, target)
        }
        for j in range(bottom)
    ]
    results: list[tuple[JHFactor, SolverResult]] = []
    for factor, distribution in types.items():
        try:
            result = solve_multiplicity_intervals(distribution.per_level, edges)
        except InfeasibleError as exc:
            raise InfeasibleError(
                f"factor {factor.label()}: {exc}"
            ) from None
        results.append((factor, result))
    degrees = tuple(spec.degree_of_level(j) for j in range(bottom + 1))
    entries: list[HomologyEntry] = []
    for j, degree in enumerate(degrees):
        for factor, result in results:
            lo, hi = result.homology[j]
            if hi > 0:
                entries.append(HomologyEntry(factor, degree, lo, hi))
    return HomologyReport(
        mu, spec.i0, degrees, tuple(entries), tuple(results), spec.warnings
    )


@dataclass(frozen=True)
class DoubleComplexLayout:
    """Placement of all pairs ``(I, w)`` on the ``(p, q)`` grid."""

    mu: Coweight
    #: Rows ``(p, q, subset, w)``; subsets in (size, lex) order, then ``w``
    #: in enumeration order.
    entries: tuple[tuple[int, int, frozenset[int], WeylElement], ...]

    def at(self, p: int, q: int) -> tuple[tuple[frozenset[int], WeylElement], ...]:
        return tuple(
            (subset, w)
            for ep, eq, subset, w in self.entries
            if ep == p and eq == q
        )


def double_complex_layout(group: WeylGroup, mu: Coweight) -> DoubleComplexLayout:
    """Place ``(I, w)`` at ``(-(rank - |I|), #positive roots - length(w))``.

    ``w`` runs over the minimal coset representatives lying in the index
    set of ``I``.  The signs of every ``w(mu)`` are computed once and shared
    by all ``2^rank`` subsets.  For ``I`` the full set the index-set
    condition is vacuous and the only representative is the identity, so
    the corner ``(0, #positive roots)`` holds exactly that single pair
    (asserted).
    """
    positives = _positive_coordinates(group, mu)
    n_pos = len(group.datum.positive_roots)
    rank = group.rank
    indices = frozenset(range(1, rank + 1))
    rows: list[tuple[int, int, frozenset[int], WeylElement]] = []
    for subset in _subsets_by_size(indices):
        outside = indices - subset
        p = -(rank - len(subset))
        for w in group.kostant_reps(subset):
            if outside <= positives[w]:
                rows.append((p, n_pos - w.length, subset, w))
    layout = DoubleComplexLayout(mu, tuple(rows))
    corner = layout.at(0, n_pos)
    assert corner == ((indices, group.identity),), (
        "top corner of the layout must hold exactly the identity pair"
    )
    return layout
