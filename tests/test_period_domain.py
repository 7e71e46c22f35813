"""Index sets, stratification data, chain complexes, and homology bounds.

The three worked GL(4) coweights (3,2,1,-6), (2,1,0,-3), (5,1,-2,-4) have
fully known index sets, distribution types, and homology factor lists;
those are frozen here as goldens.  Structural properties (lower closure,
the containment of parabolic index sets, the permutation-model brute
force) are checked against independent oracles on randomized inputs.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest

from goldens_gl4 import (
    GL4_A,
    GL4_B,
    GL4_C,
    HOMOLOGY,
    LEVEL_SIZES,
    OMEGA_WORDS,
    TYPES,
)
from oracles import gln_omega_brute_force
from steinmult import (
    Coweight,
    DomainError,
    InfeasibleError,
    OmegaSet,
    WeylGroup,
    build_complex,
    build_root_datum,
    cartan_type,
    coweight_from_gln,
    distribution_types,
    double_complex_layout,
    fundamental_coweights,
    homology_bounds,
    omega,
    parabolic_complex_layout,
    solve_multiplicity_intervals,
    validate_mu_positive_chamber,
    y_structure,
)
import steinmult.period_domain as period_domain_module


def mu_of(entries: tuple[int, ...]) -> Coweight:
    return coweight_from_gln([Fraction(x) for x in entries])


def golden_factors(group: WeylGroup, rows) -> set:
    return {
        (group.parse_word(word), frozenset(levi), frozenset(smooth))
        for word, levi, smooth in rows
    }


def all_subsets(rank: int) -> list[frozenset[int]]:
    """Every subset of ``1..rank``, by size and then lexicographically."""
    return [
        frozenset(combo)
        for size in range(rank + 1)
        for combo in itertools.combinations(range(1, rank + 1), size)
    ]


def random_dominant(group: WeylGroup, rng: random.Random) -> Coweight:
    basis = fundamental_coweights(group.datum)
    coeffs = [
        Fraction(rng.randint(1, 9), rng.randint(1, 3)) for _ in basis
    ]
    coords = [
        sum((c * w.coords[k] for c, w in zip(coeffs, basis)), Fraction(0))
        for k in range(group.rank)
    ]
    return Coweight.of(*coords)


def mixed_denominator_dominant(group: WeylGroup, rng: random.Random) -> Coweight:
    """A strictly dominant coweight with coordinates ``m + 1/2``, ``m + k/3``, ...

    Coordinate ``i`` has denominator 2 or 3 in turn, so no single
    denominator makes every coordinate an integer and scaling takes their
    lcm.  Draws until the coweight lies in the open positive chamber.
    """
    while True:
        coords = []
        for i in range(group.rank):
            d = 2 + i % 2
            coords.append(Fraction(d * rng.randint(0, 9) + rng.randint(1, d - 1), d))
        mu = Coweight.of(*coords)
        if validate_mu_positive_chamber(group.datum, mu).ok:
            return mu


# ---------------------------------------------------------------------------
# omega


def test_omega_examples(a3):
    for entries, expected in OMEGA_WORDS.items():
        index_set = omega(a3, mu_of(entries))
        assert set(index_set.words()) == expected
        assert len(index_set) == len(expected)
        assert index_set.subset == frozenset()
        assert a3.identity in index_set


def test_omega_brute_force(a3):
    rng = random.Random(20260823)
    tuples = [GL4_A, GL4_B, GL4_C]
    while len(tuples) < 8:
        head = sorted({rng.randint(-9, 9) for _ in range(3)}, reverse=True)
        tail = -sum(head)
        if len(head) == 3 and tail < head[-1]:
            tuples.append((*head, tail))
    for entries in tuples:
        values = tuple(Fraction(x) for x in entries)
        for subset in [frozenset(), frozenset({2}), frozenset({1, 3})]:
            expected = set(gln_omega_brute_force(a3, values, subset))
            got = set(omega(a3, coweight_from_gln(values), subset).elements)
            assert got == expected
    # Outside type A, filter by the signs of the public Fraction action.
    for label in ("B2", "G2", "B3", "C3", "D4"):
        group = WeylGroup(build_root_datum(cartan_type(label)))
        for _ in range(2):
            mu = mixed_denominator_dominant(group, rng)
            images = [
                (w, group.act_coweight(w, mu).coords)
                for w in group.enumerate_group()
            ]
            for subset in all_subsets(group.rank):
                expected = tuple(
                    w
                    for w, coords in images
                    if all(
                        coords[i - 1] > 0
                        for i in range(1, group.rank + 1)
                        if i not in subset
                    )
                )
                index_set = omega(group, mu, subset)
                assert index_set.elements == expected, (label, mu, subset)
                assert index_set.mu == mu


def test_omega_structural_properties(a3, b3):
    rng = random.Random(7)
    subsets = [
        frozenset(),
        frozenset({1}),
        frozenset({2}),
        frozenset({1, 3}),
        frozenset({1, 2, 3}),
    ]
    mus = [mu_of(t) for t in (GL4_A, GL4_B, GL4_C)]
    mus += [random_dominant(a3, rng) for _ in range(10)]
    for mu in mus:
        base = set(omega(a3, mu).elements)
        # Bruhat lower closure of the base index set.
        for w in base:
            for x in a3.enumerate_group():
                if a3.bruhat_leq(x, w):
                    assert x in base
        for subset in subsets:
            index_set = omega(a3, mu, subset)
            assert a3.identity in index_set
            # Minimal coset representatives inside land in the base set.
            reps = set(a3.kostant_reps(subset))
            for w in index_set.elements:
                if w in reps:
                    assert w in base
    # Same closure statement in a group with unequal root lengths.
    mu = random_dominant(b3, rng)
    base = set(omega(b3, mu).elements)
    for w in base:
        for x in b3.enumerate_group():
            if b3.bruhat_leq(x, w):
                assert x in base


def test_omega_rejects_non_dominant(a3):
    with pytest.raises(DomainError, match="positive chamber"):
        omega(a3, coweight_from_gln([1, 2, 3, -6]))


def test_omega_full_subset_is_whole_group(a3):
    index_set = omega(a3, mu_of(GL4_C), frozenset({1, 2, 3}))
    assert len(index_set) == 24
    assert set(index_set.elements) == set(a3.enumerate_group())


# ---------------------------------------------------------------------------
# y_structure / parabolic_complex_layout


def test_y_structure_base_subset(a3):
    mu = mu_of(GL4_A)
    structure = y_structure(a3, mu, frozenset())
    assert structure.levi_root_count == 0
    assert structure.top_dim == 3
    assert {w for w, _ in structure.cells} == set(omega(a3, mu).elements)
    assert all(dim == w.length for w, dim in structure.cells)


def test_y_structure_levi_root_counts(a3):
    mu = mu_of(GL4_A)
    expected = {
        frozenset(): 0,
        frozenset({1}): 1,
        frozenset({1, 3}): 2,
        frozenset({1, 2}): 3,
    }
    for subset, count in expected.items():
        structure = y_structure(a3, mu, subset)
        assert structure.levi_root_count == count
        assert all(dim == w.length + count for w, dim in structure.cells)


def test_y_structure_cells_match_permutation_model(a3):
    values = tuple(Fraction(x) for x in GL4_C)
    mu = coweight_from_gln(values)
    for subset in [frozenset({1}), frozenset({2}), frozenset({1, 3})]:
        structure = y_structure(a3, mu, subset)
        members = set(gln_omega_brute_force(a3, values, subset))
        expected = [w for w in a3.kostant_reps(subset) if w in members]
        assert [w for w, _ in structure.cells] == expected


def test_y_structure_rejects_full_subset(a3):
    with pytest.raises(DomainError, match="proper"):
        y_structure(a3, mu_of(GL4_A), frozenset({1, 2, 3}))


def test_parabolic_layout_base_subset_reverses_levels(a3):
    for entries in (GL4_A, GL4_B, GL4_C):
        mu = mu_of(entries)
        layout = parabolic_complex_layout(a3, mu, frozenset())
        spec = build_complex(a3, mu)
        assert layout.columns == tuple(reversed(spec.levels))
        assert layout.start_degree == 6 - layout.top_dim


def test_parabolic_layout_labels(a3):
    mu = mu_of(GL4_A)
    layout = parabolic_complex_layout(a3, mu, frozenset())
    labels = layout.column_labels()
    assert labels[0] == ("M(s1*s2*s1·λ)",)
    assert labels[-1] == ("M(λ)",)
    sub_layout = parabolic_complex_layout(a3, mu, frozenset({1, 3}))
    for column in sub_layout.column_labels():
        for label in column:
            assert label.startswith("M_{1,3}(")


# ---------------------------------------------------------------------------
# build_complex


def test_build_complex_examples(a3):
    for entries, sizes in LEVEL_SIZES.items():
        spec = build_complex(a3, mu_of(entries))
        assert spec.i0 == 3
        assert spec.level_sizes() == sizes
        assert spec.bottom_level == len(sizes) - 1
        assert spec.degree_of_level(0) == 3
        assert spec.degree_of_level(spec.bottom_level) == 3 - spec.bottom_level
        assert spec.warnings == ()
        for j, level in enumerate(spec.levels):
            assert all(w.length == j for w in level)


def test_build_complex_negative_degree_warning(a2, monkeypatch):
    mu = random_dominant(a2, random.Random(1))

    def whole_group(group, mu_arg, subset=frozenset()):
        return OmegaSet(frozenset(subset), mu_arg, group.enumerate_group())

    monkeypatch.setattr(period_domain_module, "omega", whole_group)
    with pytest.warns(RuntimeWarning, match="negative homological degree"):
        spec = build_complex(a2, mu)
    assert spec.i0 == 1
    assert spec.bottom_level == 3
    assert spec.degree_of_level(spec.bottom_level) == -2
    assert len(spec.warnings) == 1


# ---------------------------------------------------------------------------
# distribution types


def test_distribution_types_match_published_lists(a3):
    # Many factors share a type; the published lists give the distinct vectors.
    for entries, expected in TYPES.items():
        types = distribution_types(a3, mu_of(entries))
        assert len(types) == 48
        got = {t.per_level for t in types.values()}
        assert len(expected) == len(set(expected))
        assert got == set(expected)


def test_distribution_identity_factor(a3):
    for entries in (GL4_A, GL4_B, GL4_C):
        types = distribution_types(a3, mu_of(entries))
        picked = [
            t
            for factor, t in types.items()
            if factor.v is a3.identity and factor.smooth == frozenset()
        ]
        assert len(picked) == 1
        flat = picked[0].flat
        assert flat[0] == 1 and all(c == 0 for c in flat[1:])
        assert picked[0].level_totals[0] == 1


# ---------------------------------------------------------------------------
# interval solver


def test_solver_single_surjection_pins_zero():
    result = solve_multiplicity_intervals([[1], [1]], [{(0, 0)}])
    assert result.level_totals == (1, 1)
    assert result.homology == ((0, 0), (0, 0))
    assert result.all_pinned
    assert any("level totals" in line for line in result.trace)


def test_solver_infeasible_chain():
    with pytest.raises(InfeasibleError, match="empty|exactness"):
        solve_multiplicity_intervals([[1], [1], [1]], [{(0, 0)}, {(0, 0)}])


def test_solver_honest_undetermined_interval():
    result = solve_multiplicity_intervals([[2], [1, 1]], [{(0, 0), (0, 1)}])
    assert result.homology == ((0, 1), (0, 1))
    assert not result.all_pinned


def test_solver_private_target_rank_bound():
    counts = [[2], [2, 1, 2], [2, 1]]
    edges = [
        {(0, 0), (0, 1), (0, 2)},
        {(0, 0), (1, 1), (2, 0), (2, 1)},
    ]
    result = solve_multiplicity_intervals(counts, edges)
    assert result.homology == ((0, 0), (0, 0), (0, 0))
    assert result.all_pinned


def test_solver_input_validation():
    with pytest.raises(ValueError, match="at least one level"):
        solve_multiplicity_intervals([], [])
    with pytest.raises(ValueError, match="edge set"):
        solve_multiplicity_intervals([[1], [1]], [])


# ---------------------------------------------------------------------------
# homology bounds


def test_homology_examples_match_published_lists(a3):
    for entries, by_degree in HOMOLOGY.items():
        report = homology_bounds(a3, mu_of(entries))
        assert report.i0 == 3
        assert report.all_pinned
        assert report.undetermined == ()
        assert {e.degree for e in report.entries} == set(by_degree)
        for degree, rows in by_degree.items():
            got = {
                (e.factor.v, e.factor.levi, e.factor.smooth)
                for e in report.entries_at(degree)
            }
            assert got == golden_factors(a3, rows)
            assert all(e.lo == e.hi == 1 for e in report.entries_at(degree))


def test_homology_report_json(a3):
    report = homology_bounds(a3, mu_of(GL4_C))
    payload = report.to_json()
    assert payload["i0"] == 3
    degrees = {block["degree"]: block["factors"] for block in payload["degrees"]}
    assert set(degrees) == {3, 2, 1}
    top = degrees[3]
    assert top == [
        {"v": "e", "I": ["s1", "s2", "s3"], "J": [], "mult_lo": 1, "mult_hi": 1, "pinned": True}
    ]
    assert degrees[1] == []
    assert len(degrees[2]) == 12


def test_homology_b2_structure(b2):
    mu = random_dominant(b2, random.Random(3))
    report = homology_bounds(b2, mu)
    assert report.i0 == 2
    assert all(entry.lo >= 0 and entry.lo <= entry.hi for entry in report.entries)
    top = [
        e
        for e in report.entries_at(2)
        if e.factor.v is b2.identity and e.factor.smooth == frozenset()
    ]
    assert len(top) == 1 and top[0].lo == top[0].hi == 1


# ---------------------------------------------------------------------------
# double complex layout


def test_double_complex_layout(a3, b3, g2):
    mu = mu_of(GL4_A)
    layout = double_complex_layout(a3, mu)
    assert layout.at(0, 6) == ((frozenset({1, 2, 3}), a3.identity),)
    base_column = {
        (q, w) for p, q, subset, w in layout.entries if subset == frozenset()
    }
    assert base_column == {(6 - w.length, w) for w in omega(a3, mu).elements}
    for p, q, subset, w in layout.entries:
        assert p == -(3 - len(subset))
        assert q == 6 - w.length
        assert w in set(a3.kostant_reps(subset))
    # Subset by subset, the rows are the representatives in the index set.
    rng = random.Random(20261018)
    for group in (a3, b3, g2):
        n_pos = len(group.datum.positive_roots)
        mu = mixed_denominator_dominant(group, rng)
        index_sets = {s: omega(group, mu, s) for s in all_subsets(group.rank)}
        expected = [
            (-(group.rank - len(subset)), n_pos - w.length, subset, w)
            for subset, index_set in index_sets.items()
            for w in group.kostant_reps(subset)
            if w in index_set
        ]
        layout = double_complex_layout(group, mu)
        assert layout.entries == tuple(expected)
        assert layout.mu == mu


def test_double_complex_layout_rejects_non_dominant(a3):
    with pytest.raises(DomainError, match="positive chamber"):
        double_complex_layout(a3, coweight_from_gln([0, 1, 2, -3]))
