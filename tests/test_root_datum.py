from __future__ import annotations

import random
from fractions import Fraction

import pytest

from steinmult import (
    BUILTIN_TYPES,
    Coweight,
    DomainError,
    Weight,
    build_root_datum,
    cartan_type,
    cartan_type_from_file,
    cartan_type_from_matrix,
    coweight_from_gln,
    fundamental_coweights,
    pairing,
    type_a,
    validate_mu_positive_chamber,
    weight_from_fundamental,
    weight_to_fundamental,
)

POSITIVE_ROOT_COUNTS = {
    "A1": 1,
    "A2": 3,
    "A3": 6,
    "A4": 10,
    "A5": 15,
    "B2": 4,
    "B3": 9,
    "C3": 9,
    "D4": 12,
    "F4": 24,
    "G2": 6,
}


def test_builtin_positive_root_counts():
    for label, expected in POSITIVE_ROOT_COUNTS.items():
        datum = build_root_datum(cartan_type(label))
        assert len(datum.positive_roots) == expected, label


def test_positive_roots_sorted_and_start_with_simples():
    datum = build_root_datum(cartan_type("B3"))
    heights = [sum(root) for root in datum.positive_roots]
    assert heights == sorted(heights)
    assert set(datum.positive_roots[:3]) == {(1, 0, 0), (0, 1, 0), (0, 0, 1)}


def test_type_a_beyond_builtins():
    datum = build_root_datum(type_a(6))
    assert datum.rank == 6
    assert len(datum.positive_roots) == 21


def test_case_insensitive_lookup():
    assert cartan_type("g2").matrix == BUILTIN_TYPES["G2"]
    with pytest.raises(DomainError, match="unknown Cartan type"):
        cartan_type("E8")


def test_validation_rejects_bad_diagonal():
    with pytest.raises(DomainError, match=r"diagonal entry \(2,2\) is 3"):
        cartan_type_from_matrix([[2, -1], [-1, 3]])


def test_validation_rejects_positive_off_diagonal():
    with pytest.raises(DomainError, match="must be <= 0"):
        cartan_type_from_matrix([[2, 1], [-1, 2]])


def test_validation_rejects_asymmetric_zero_pattern():
    with pytest.raises(DomainError, match="vanish together"):
        cartan_type_from_matrix([[2, 0], [-1, 2]])


def test_validation_rejects_non_finite_type():
    # The zero-determinant affine matrix must be refused.
    with pytest.raises(DomainError, match="not finite type"):
        cartan_type_from_matrix([[2, -2], [-2, 2]])


def test_validation_rejects_non_symmetrizable_cycle():
    # Around the 3-cycle the products a12 a23 a31 = -1 and a21 a32 a13 = -2
    # differ, so no symmetrization exists and the matrix is not finite type.
    with pytest.raises(DomainError, match="no symmetrization.*not finite type"):
        cartan_type_from_matrix([[2, -1, -1], [-2, 2, -1], [-1, -1, 2]])


def test_validation_rejects_non_square():
    with pytest.raises(DomainError, match="square"):
        cartan_type_from_matrix([[2, -1]])


def test_file_roundtrip(tmp_path):
    path = tmp_path / "cartan.txt"
    path.write_text("2\n2 -1\n-1 2\n")
    cartan = cartan_type_from_file(path)
    assert cartan.rank == 2
    assert cartan.matrix == BUILTIN_TYPES["A2"]


def test_file_rejects_garbage(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("2\n2 x\n-1 2\n")
    with pytest.raises(ValueError, match="non-integer"):
        cartan_type_from_file(path)
    path.write_text("3\n2 -1\n-1 2\n")
    with pytest.raises(ValueError, match="entries"):
        cartan_type_from_file(path)


def test_inverse_cartan_exact_and_positive():
    for label in BUILTIN_TYPES:
        datum = build_root_datum(cartan_type(label))
        d = datum.rank
        matrix = datum.matrix
        inv = datum.inverse_cartan
        for i in range(d):
            for j in range(d):
                entry = sum(Fraction(matrix[i][k]) * inv[k][j] for k in range(d))
                assert entry == (1 if i == j else 0)
                # Built-in systems are irreducible, so strictly positive.
                assert inv[i][j] > 0, label


def test_rho_pairs_to_one_with_simple_coroots():
    for label in ("A3", "B2", "G2", "F4"):
        datum = build_root_datum(cartan_type(label))
        rho = datum.rho_weight()
        for i in range(datum.rank):
            unit = Coweight.of(*(1 if j == i else 0 for j in range(datum.rank)))
            assert pairing(datum, rho, unit) == 1


def test_pairing_on_simples_recovers_matrix():
    datum = build_root_datum(cartan_type("B3"))
    for i in range(1, 4):
        for j in range(1, 4):
            unit = Coweight.of(*(1 if k == j - 1 else 0 for k in range(3)))
            assert pairing(datum, datum.simple_root(i), unit) == datum.matrix[i - 1][j - 1]


def test_pairing_rank_mismatch():
    datum = build_root_datum(cartan_type("A2"))
    with pytest.raises(DomainError, match="rank mismatch"):
        pairing(datum, Weight.of(1, 0, 0), Coweight.of(1, 1))


def test_fundamental_coordinate_roundtrip():
    rng = random.Random(20260823)
    for label in ("A3", "C3", "G2"):
        datum = build_root_datum(cartan_type(label))
        for _ in range(10):
            coords = tuple(
                Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                for _ in range(datum.rank)
            )
            lam = Weight(coords)
            back = weight_from_fundamental(datum, weight_to_fundamental(datum, lam))
            assert back == lam


def test_fundamental_coordinates_of_simple_roots():
    datum = build_root_datum(cartan_type("A3"))
    for i in range(1, 4):
        assert weight_to_fundamental(datum, datum.simple_root(i)) == tuple(
            Fraction(entry) for entry in datum.matrix[i - 1]
        )


def test_fundamental_coweights_are_dual_to_simple_roots():
    datum = build_root_datum(cartan_type("B3"))
    duals = fundamental_coweights(datum)
    for i in range(1, 4):
        for j, mu in enumerate(duals, start=1):
            assert pairing(datum, datum.simple_root(i), mu) == (1 if i == j else 0)


def test_coweight_from_gln_partial_sums():
    mu = coweight_from_gln((3, 2, 1, -6))
    assert mu.coords == (3, 5, 6)


def test_coweight_from_gln_requires_zero_sum():
    with pytest.raises(DomainError, match="recenter"):
        coweight_from_gln((2, 1, -1))
    mu = coweight_from_gln((2, 1, -1), recenter=True)
    assert mu.coords == (Fraction(4, 3), Fraction(5, 3))


def test_coweight_from_gln_needs_two_entries():
    with pytest.raises(DomainError, match="two entries"):
        coweight_from_gln((0,))


def test_validate_mu_accepts_dominant():
    datum = build_root_datum(cartan_type("A3"))
    report = validate_mu_positive_chamber(datum, coweight_from_gln((3, 2, 1, -6)))
    assert report.ok
    assert all(value > 0 for value in report.pairings)
    assert "open positive chamber" in report.message


def test_validate_mu_rejects_wall_and_names_condition():
    datum = build_root_datum(cartan_type("A3"))
    report = validate_mu_positive_chamber(datum, Coweight.of(1, 5, 1))
    assert not report.ok
    assert "must be > 0" in report.message
    assert "alpha_1" in report.message
    assert report.pairings[0] < 0


def test_validate_mu_accepts_fractions():
    datum = build_root_datum(cartan_type("A2"))
    report = validate_mu_positive_chamber(
        datum, Coweight.of(Fraction(1, 2), Fraction(1, 3))
    )
    assert report.ok == (2 * Fraction(1, 2) - Fraction(1, 3) > 0)


def test_validate_mu_rank_mismatch():
    datum = build_root_datum(cartan_type("A2"))
    with pytest.raises(DomainError, match="rank mismatch"):
        validate_mu_positive_chamber(datum, Coweight.of(1, 1, 1))
