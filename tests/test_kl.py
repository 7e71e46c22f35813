from __future__ import annotations

import pytest

from steinmult import (
    KLPolynomial,
    kl_by_inversion,
    kl_polynomial,
    mu_coefficient,
    r_polynomial,
    verma_multiplicity,
)

ZERO = KLPolynomial(())
ONE = KLPolynomial((1,))


def test_polynomial_str():
    assert str(ZERO) == "0"
    assert str(ONE) == "1"
    assert str(KLPolynomial((1, 1))) == "1 + q"
    assert str(KLPolynomial((1, 2, 1))) == "1 + 2*q + q^2"
    assert str(KLPolynomial((-1, 1))) == "-1 + q"
    assert str(KLPolynomial((0, 0, 3))) == "3*q^2"
    assert str(KLPolynomial((2, 0, -1))) == "2 - q^2"


def test_polynomial_arithmetic():
    p = KLPolynomial((1, 1))
    q = KLPolynomial((0, 1))
    assert p + q == KLPolynomial((1, 2))
    assert p - p == ZERO
    assert p * q == KLPolynomial((0, 1, 1))
    assert 3 * p == KLPolynomial((3, 3))
    assert p.shifted(2) == KLPolynomial((0, 0, 1, 1))
    assert p.truncated(0) == ONE
    assert p.truncated(-1) == ZERO
    assert p(1) == 2 and p(2) == 3
    assert p.reversed_in_degree(3) == KLPolynomial((0, 0, 1, 1))
    with pytest.raises(ValueError, match="window"):
        p.reversed_in_degree(0)
    assert KLPolynomial.from_coeffs([1, 1, 0, 0]) == p
    assert p.degree == 1 and ZERO.degree == -1


def test_kl_base_cases(a3):
    for w in a3.enumerate_group():
        assert kl_polynomial(a3, w, w) == ONE
    for x in a3.enumerate_group():
        for w in a3.enumerate_group():
            poly = kl_polynomial(a3, x, w)
            if not a3.bruhat_leq(x, w):
                assert poly == ZERO
            elif w.length - x.length <= 2:
                assert poly == ONE
            else:
                assert poly.coefficient(0) == 1
                assert 2 * poly.degree <= w.length - x.length - 1
                assert all(c >= 0 for c in poly.coeffs)


def test_kl_dihedral_groups_are_trivial(a2, b2, g2):
    for group in (a2, b2, g2):
        for x in group.enumerate_group():
            for w in group.enumerate_group():
                if group.bruhat_leq(x, w):
                    assert kl_polynomial(group, x, w) == ONE


def test_kl_longest_element_column_is_trivial(a3):
    w0 = a3.longest_element()
    for x in a3.enumerate_group():
        assert kl_polynomial(a3, x, w0) == ONE


def test_kl_golden_values(a3):
    # Only two columns of this group are nontrivial: the ones under the
    # length-four element fixing {1, 3} as ascents and the length-five
    # element fixing {2}; each carries 1 + q at and below its singular locus.
    x = a3.parse_word("s2")
    w = a3.parse_word("s2*s1*s3*s2")
    assert kl_polynomial(a3, x, w) == KLPolynomial((1, 1))
    assert kl_polynomial(a3, a3.identity, w) == KLPolynomial((1, 1))
    assert kl_polynomial(a3, a3.parse_word("s1"), w) == ONE
    assert kl_polynomial(a3, a3.parse_word("s3"), w) == ONE
    other = a3.parse_word("s1*s2*s3*s2*s1")
    assert kl_polynomial(a3, a3.identity, other) == KLPolynomial((1, 1))
    assert kl_polynomial(a3, a3.parse_word("s2"), other) == ONE
    assert kl_polynomial(a3, a3.parse_word("s1"), other) == KLPolynomial((1, 1))
    assert kl_polynomial(a3, a3.parse_word("s3"), other) == KLPolynomial((1, 1))


def test_r_polynomial_basics(a3):
    s1 = a3.simple_reflection(1)
    assert r_polynomial(a3, a3.identity, s1) == KLPolynomial((-1, 1))
    for x in a3.enumerate_group():
        for w in a3.enumerate_group():
            r = r_polynomial(a3, x, w)
            assert (not r.is_zero) == a3.bruhat_leq(x, w)
            if not r.is_zero:
                gap = w.length - x.length
                assert r.degree == gap
                assert r.coefficient(0) == (-1 if gap % 2 else 1)


def test_kl_recursion_agrees_with_inversion(a2, a3, b2):
    for group in (a2, a3, b2):
        for w in group.enumerate_group():
            column = kl_by_inversion(group, w)
            for x in group.enumerate_group():
                assert kl_polynomial(group, x, w) == column.get(x, ZERO), (
                    group.format_word(x),
                    group.format_word(w),
                )


def test_mu_coefficient(a3):
    for x in a3.enumerate_group():
        for w in a3.enumerate_group():
            if a3.covers(x, w):
                assert mu_coefficient(a3, x, w) == 1
            if x is w:
                assert mu_coefficient(a3, x, w) == 0
    assert mu_coefficient(a3, a3.identity, a3.parse_word("s1*s2*s1")) == 0
    # Even length gaps vanish by parity, whatever the polynomial says.
    assert (
        mu_coefficient(a3, a3.parse_word("s1"), a3.parse_word("s1*s2*s3*s2*s1")) == 0
    )
    # A pair at odd length gap three with polynomial 1 + q has mu = 1.
    assert mu_coefficient(a3, a3.parse_word("s2"), a3.parse_word("s2*s1*s3*s2")) == 1


def test_verma_multiplicity_conjugation_invariance(a3, b2):
    # The longest element induces a diagram automorphism (the flip of A3,
    # trivial on B2), so the polynomial of the pair conjugated by w0,
    # multiplied out here, evaluates to the same multiplicity.
    for group in (a3, b2):
        w0 = group.longest_element()
        for u in group.enumerate_group():
            conj_u = group.multiply(group.multiply(w0, u), w0)
            for v in group.enumerate_group():
                conj_v = group.multiply(group.multiply(w0, v), w0)
                expected = kl_polynomial(group, conj_u, conj_v)(1)
                assert verma_multiplicity(group, u, v) == expected


def test_verma_multiplicity_values(a3):
    for u in a3.enumerate_group():
        assert verma_multiplicity(a3, u, u) == 1
        for v in a3.enumerate_group():
            positive = verma_multiplicity(a3, u, v) > 0
            assert positive == a3.bruhat_leq(u, v)
    v = a3.parse_word("s1*s2*s3*s2*s1")
    assert verma_multiplicity(a3, a3.identity, v) == 2
    assert verma_multiplicity(a3, a3.parse_word("s1"), v) == 2
    assert verma_multiplicity(a3, a3.parse_word("s3"), v) == 2
    assert verma_multiplicity(a3, a3.parse_word("s2"), v) == 1
