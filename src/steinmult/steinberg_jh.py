"""Composition factors of twisted Steinberg modules, by alternating sums.

For a Weyl group element ``w``, the module ``V(w)`` in question has its
simple subquotients indexed by pairs ``(v, J)`` with ``v`` a group element
and ``J`` a subset of the left-ascent set ``I = upper_set(v)``; the pair
stands for an induced factor built from the simple highest-weight module
at ``v`` and the smooth generalized Steinberg module of the parabolic
``J`` inside the Levi of ``I``.  The multiplicity of the factor ``(v, J)``
in ``V(w)`` is the alternating sum ::

    sum over r <= v with support(r w^{-1}) = J' of
        (-1)^{len(r w^{-1}) + |J'|} * verma_multiplicity(r, v)

where ``J' = J intersect upper_set(w)``.  :func:`jh_multiplicity`
implements exactly this; :func:`jh_factors` tabulates all factors of one
``V(w)`` at once; and :func:`jh_multiplicity_oracle` recomputes the same
number by a different route (inclusion-exclusion over parabolic subgroups,
with no restriction of the summation range), for cross-checking.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator

from .root_datum import DomainError
from .kl import kl_polynomial, verma_multiplicity
from .weyl import WeylElement, WeylGroup

__all__ = [
    "JHFactor",
    "FactorTable",
    "jh_multiplicity",
    "jh_factors",
    "jh_multiplicity_oracle",
    "parabolic_label",
]


def parabolic_label(subset: frozenset[int], rank: int) -> str:
    """Display name of the standard parabolic on ``subset``: B, G, or P_{...}."""
    if not subset:
        return "B"
    if len(subset) == rank:
        return "G"
    if len(subset) == 1:
        return f"P_{next(iter(subset))}"
    return "P_{" + ",".join(str(i) for i in sorted(subset)) + "}"


def _script(label: str) -> str:
    """Brace a parabolic name when used as a sub/superscript, unless one letter."""
    return label if len(label) == 1 else "{" + label + "}"


@dataclass(frozen=True)
class JHFactor:
    """A composition-factor index ``(v, J)`` together with ``I = upper_set(v)``.

    ``levi`` is the left-ascent set of ``v`` (the parabolic the factor is
    induced from) and ``smooth`` the subset of it indexing the smooth
    generalized Steinberg twist; these serialize as ``"I"`` and ``"J"``.
    """

    v: WeylElement
    levi: frozenset[int]
    smooth: frozenset[int]

    def key_json(self) -> dict:
        group = self.v.group
        return {
            "v": group.format_word(self.v, identity="e"),
            "I": [f"s{i}" for i in sorted(self.levi)],
            "J": [f"s{i}" for i in sorted(self.smooth)],
        }

    def label(self) -> str:
        """Human-readable factor notation, e.g. ``F_{P_{1,3}}(L(s2*s3·λ), 1)``."""
        group = self.v.group
        rank = group.rank
        twist = "λ" if self.v is group.identity else f"{group.format_word(self.v)}·λ"
        if len(self.levi) == rank:
            if len(self.smooth) == rank:
                return f"L({twist})"
            return f"v^G_{_script(parabolic_label(self.smooth, rank))}({twist})"
        levi_name = parabolic_label(self.levi, rank)
        if self.smooth == self.levi:
            inner = "1"
        else:
            inner = (
                f"v^{_script(levi_name)}"
                f"_{_script(parabolic_label(self.smooth, rank))}"
            )
        return f"F_{_script(levi_name)}(L({twist}), {inner})"


@dataclass(frozen=True)
class FactorTable:
    """All composition factors of one twisted module, with multiplicities.

    Entries are ordered by the group enumeration order of ``v``, then by
    (size, lexicographic) order of the subset ``J``.
    """

    source: WeylElement
    entries: tuple[tuple[JHFactor, int], ...]

    @property
    def count(self) -> int:
        """Number of distinct factors (rows), not counting multiplicity."""
        return len(self.entries)

    def multiplicity_map(self) -> dict[tuple[WeylElement, frozenset[int]], int]:
        """Map ``(v, J) -> multiplicity`` for order-insensitive comparison."""
        return {(factor.v, factor.smooth): mult for factor, mult in self.entries}

    def to_json(self) -> list[dict]:
        rows = []
        for factor, mult in self.entries:
            row = factor.key_json()
            row["mult"] = mult
            rows.append(row)
        return rows

    def to_text(self) -> str:
        """One bracketed row per factor: ``[v, {I...}, {J...}, mult]``."""
        group = self.source.group
        lines = []
        for factor, mult in self.entries:
            word = group.format_word(factor.v, identity="1")
            levi = ", ".join(f"s{i}" for i in sorted(factor.levi))
            smooth = ", ".join(f"s{i}" for i in sorted(factor.smooth))
            lines.append(f"[{word}, {{{levi}}}, {{{smooth}}}, {mult}]")
        return "\n".join(lines)


def _subsets_by_size(indices: Iterable[int]) -> Iterator[frozenset[int]]:
    base = sorted(indices)
    for size in range(len(base) + 1):
        for combo in itertools.combinations(base, size):
            yield frozenset(combo)


def _require_smooth_subset(
    group: WeylGroup, v: WeylElement, smooth: Iterable[int]
) -> frozenset[int]:
    subset = frozenset(smooth)
    ascents = group.upper_set(v)
    if not subset <= ascents:
        raise DomainError(
            f"subset {sorted(subset)} is not contained in the left-ascent set "
            f"{sorted(ascents)} of v = {group.format_word(v)}"
        )
    return subset


def _signed_sums(
    group: WeylGroup, w_inv: WeylElement, v: WeylElement
) -> dict[frozenset[int], int]:
    """The alternating sum of the module docstring for every ``J'`` at once.

    Maps ``support(r w^{-1})`` to the sum of ``(-1)^{len(r w^{-1})} *
    verma_multiplicity(r, v)`` over ``r <= v``; the sign ``(-1)^{|J'|}``
    is left to the caller.
    """
    sums: dict[frozenset[int], int] = {}
    for r in group.bruhat_interval(group.identity, v):
        quotient = group.multiply(r, w_inv)
        support = group.support(quotient)
        sign = -1 if quotient.length % 2 else 1
        sums[support] = sums.get(support, 0) + sign * verma_multiplicity(group, r, v)
    return sums


def jh_multiplicity(
    group: WeylGroup, w: WeylElement, v: WeylElement, smooth: Iterable[int]
) -> int:
    """Multiplicity of the factor ``(v, smooth)`` in the twisted module of ``w``.

    ``smooth`` (serialized as ``"J"``) must be contained in the left-ascent
    set of ``v``.
    """
    group._check_member(w)
    group._check_member(v)
    subset = _require_smooth_subset(group, v, smooth)
    target = subset & group.upper_set(w)
    partial = _signed_sums(group, group.inverse(w), v).get(target, 0)
    return -partial if len(target) % 2 else partial


def jh_factors(group: WeylGroup, w: WeylElement) -> FactorTable:
    """All composition factors of the twisted module of ``w``, tabulated.

    Equivalent to calling :func:`jh_multiplicity` for every pair ``(v, J)``
    and keeping the nonzero results, but the inner alternating sums are
    shared across the subsets ``J`` through their dependence on
    ``J & upper_set(w)`` only.
    """
    group._check_member(w)
    w_inv = group.inverse(w)
    w_ascents = group.upper_set(w)
    entries: list[tuple[JHFactor, int]] = []
    for v in group.enumerate_group():
        sums = _signed_sums(group, w_inv, v)
        ascents = group.upper_set(v)
        for subset in _subsets_by_size(ascents):
            target = subset & w_ascents
            partial = sums.get(target, 0)
            mult = -partial if len(target) % 2 else partial
            if mult:
                assert mult > 0, "negative composition-factor multiplicity"
                entries.append((JHFactor(v, ascents, subset), mult))
    return FactorTable(w, tuple(entries))


def jh_multiplicity_oracle(
    group: WeylGroup, w: WeylElement, v: WeylElement, smooth: Iterable[int]
) -> int:
    """Same number as :func:`jh_multiplicity`, by inclusion-exclusion.

    Sums ``(-1)^{|K|}`` over subsets ``K`` of ``smooth & upper_set(w)`` of
    the signed Verma-multiplicity sums over the whole parabolic subgroup
    supported on ``K``, with no Bruhat restriction on the summation range.
    Kept deliberately distinct from the production route: the Verma
    multiplicities are evaluated by multiplying out the conjugation by the
    longest element here; production evaluates P(u, v) unconjugated.
    """
    group._check_member(w)
    group._check_member(v)
    subset = _require_smooth_subset(group, v, smooth)
    target = subset & group.upper_set(w)
    w0 = group.longest_element()
    conj_v = group.multiply(group.multiply(w0, v), w0)
    total = 0
    for part in _subsets_by_size(target):
        block = 0
        for u in group.parabolic_elements(part):
            sign = -1 if u.length % 2 else 1
            conj_r = group.multiply(group.multiply(w0, group.multiply(u, w)), w0)
            block += sign * kl_polynomial(group, conj_r, conj_v)(1)
        total += -block if len(part) % 2 else block
    return total
