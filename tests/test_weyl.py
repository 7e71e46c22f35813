from __future__ import annotations

import random
from fractions import Fraction

import pytest

from steinmult import (
    Coweight,
    DomainError,
    Weight,
    WeylGroup,
    WordParseError,
    build_root_datum,
    cartan_type,
    coweight_from_gln,
    pairing,
    weight_to_fundamental,
)

from oracles import (
    all_reduced_words,
    permutation_of,
    permute_gln_tuple,
    rank_matrix,
    subword_leq,
)

GROUP_ORDERS = {
    "A1": 2, "A2": 6, "A3": 24, "A4": 120, "B2": 8, "B3": 48, "C3": 48,
    "G2": 12, "D4": 192, "A5": 720, "F4": 1152,
}


def test_group_orders():
    for label, expected in GROUP_ORDERS.items():
        datum = build_root_datum(cartan_type(label))
        # The size guard knows the order before enumerating: one element
        # short of it is refused, exactly the order is accepted.
        with pytest.raises(DomainError, match=f"{expected} elements"):
            WeylGroup(datum).enumerate_group(max_size=expected - 1)
        group = WeylGroup(datum)
        assert len(group.enumerate_group(max_size=expected)) == expected, label


def test_enumeration_order(a3):
    elements = a3.enumerate_group()
    assert elements[0] is a3.identity
    keys = [(w.length, a3.canonical_word(w)) for w in elements]
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys)


def test_enumerate_max_size_guard(a3):
    fresh = WeylGroup(build_root_datum(cartan_type("A3")))
    with pytest.raises(DomainError, match="max_size"):
        fresh.enumerate_group(max_size=10)


def test_simple_relations(a2, a3, g2):
    for group in (a2, a3, g2):
        for i in range(1, group.rank + 1):
            s = group.simple_reflection(i)
            assert group.multiply(s, s) is group.identity
            assert s.length == 1
    s1, s2 = a2.simple_reflection(1), a2.simple_reflection(2)
    assert a2.product_of((1, 2, 1)) is a2.product_of((2, 1, 2))
    assert a3.product_of((1, 3)) is a3.product_of((3, 1))
    braid = g2.identity
    for _ in range(6):
        braid = g2.multiply(braid, g2.multiply(g2.simple_reflection(1), g2.simple_reflection(2)))
    assert braid is g2.identity


def _matmul(x, y):
    cols = tuple(zip(*y))
    return tuple(
        tuple(sum(a * b for a, b in zip(row, col)) for col in cols) for row in x
    )


def test_table_matches_matrix_products(a3, b2, g2, b3):
    # The multiplication table and the matrices an element carries for its
    # action on weights and coweights describe the same group, and the two
    # matrices preserve the pairing of simple roots with simple coroots.
    for group in (a3, b2, g2, b3):
        datum = group.datum
        elements = group.enumerate_group()
        positive = [Weight(root) for root in datum.positive_roots]
        simple = [datum.simple_root(i) for i in range(1, group.rank + 1)]
        # alpha_j^vee has the same unit coordinates in the simple-coroot basis.
        simple_co = [Coweight(alpha.coords) for alpha in simple]
        for a in elements:
            sent_negative = sum(
                1 for root in positive if min(group.act_weight(a, root).coords) < 0
            )
            assert a.length == sent_negative, group.format_word(a)
            for alpha in simple:
                for coroot in simple_co:
                    moved = pairing(
                        datum, group.act_weight(a, alpha), group.act_coweight(a, coroot)
                    )
                    assert moved == pairing(datum, alpha, coroot)
            for b in elements:
                ab = group.multiply(a, b)
                assert ab.root_matrix == _matmul(a.root_matrix, b.root_matrix)
                assert ab.coroot_matrix == _matmul(a.coroot_matrix, b.coroot_matrix)


def test_canonical_word_is_lex_smallest_reduced_word(a3, b2):
    for group in (a3, b2):
        for w in group.enumerate_group():
            word = group.canonical_word(w)
            assert group.product_of(word) is w
            assert len(word) == w.length
            assert word == min(all_reduced_words(group, w))


def test_support_equals_bruhat_characterization(a3, b2):
    for group in (a3, b2):
        for w in group.enumerate_group():
            via_bruhat = {
                i
                for i in range(1, group.rank + 1)
                if group.bruhat_leq(group.simple_reflection(i), w)
            }
            assert group.support(w) == via_bruhat


def test_support_example(a3):
    assert a3.support(a3.parse_word("s2*s3*s1*s2")) == {1, 2, 3}


def test_left_descents_against_brute_force(a3, b2, g2):
    # i is a left descent iff w^{-1}(alpha_i) is negative, i.e. iff no
    # positive root is sent to alpha_i by the matrix of w.
    for group in (a3, b2, g2):
        positive = [Weight(root) for root in group.datum.positive_roots]
        for w in group.enumerate_group():
            images = {group.act_weight(w, root) for root in positive}
            brute = {
                i
                for i in range(1, group.rank + 1)
                if group.datum.simple_root(i) not in images
            }
            assert group.left_descents(w) == brute
            assert group.upper_set(w) == set(range(1, group.rank + 1)) - brute


def test_right_descents_against_brute_force(a3, b2):
    for group in (a3, b2):
        for w in group.enumerate_group():
            brute = {
                i
                for i in range(1, group.rank + 1)
                if group.multiply(w, group.simple_reflection(i)).length < w.length
            }
            assert group.right_descents(w) == brute


def test_upper_set_examples(a3):
    cases = {
        "e": {1, 2, 3},
        "s1": {2, 3},
        "s1*s2": {2, 3},
        "s2*s1": {1, 3},
        "s1*s2*s1": {3},
        "s2*s3*s1*s2": {1, 3},
        "s1*s2*s3*s2*s1": {2},
        "s1*s2*s1*s3*s2*s1": set(),
    }
    for word, expected in cases.items():
        assert a3.upper_set(a3.parse_word(word)) == expected, word


def test_inverse(a3):
    for w in a3.enumerate_group():
        inv = a3.inverse(w)
        assert a3.multiply(w, inv) is a3.identity
        assert inv.length == w.length


def test_longest_element(a3, b2):
    w0 = a3.longest_element()
    assert w0.length == 6
    assert a3.left_descents(w0) == {1, 2, 3}
    assert a3.multiply(w0, w0) is a3.identity
    # Conjugation by the longest element realizes the diagram flip in type A.
    for i, j in ((1, 3), (2, 2), (3, 1)):
        conj = a3.multiply(a3.multiply(w0, a3.simple_reflection(i)), w0)
        assert conj is a3.simple_reflection(j)
    # ... and is trivial in type B.
    v0 = b2.longest_element()
    assert v0.length == 4
    for i in (1, 2):
        conj = b2.multiply(b2.multiply(v0, b2.simple_reflection(i)), v0)
        assert conj is b2.simple_reflection(i)


def test_length_against_longest_complement(a3):
    w0 = a3.longest_element()
    for w in a3.enumerate_group():
        assert a3.multiply(w, w0).length == w0.length - w.length


def test_bruhat_against_subword_oracle(a3, b2, g2):
    for group in (a3, b2, g2):
        elements = group.enumerate_group()
        below = {
            w: {x for x in elements if subword_leq(group, x, w)} for w in elements
        }
        for x in elements:
            for w in elements:
                assert group.bruhat_leq(x, w) == (x in below[w]), (
                    group.format_word(x),
                    group.format_word(w),
                )
                interval = tuple(
                    t for t in elements if t in below[w] and x in below[t]
                )
                assert group.bruhat_interval(x, w) == interval, (
                    group.format_word(x),
                    group.format_word(w),
                )


def test_bruhat_against_rank_matrices():
    # All 14,400 pairs of A4, against the type-A rank-matrix criterion.
    a4 = WeylGroup(build_root_datum(cartan_type("A4")))
    elements = a4.enumerate_group()
    ranks = [rank_matrix(a4, w) for w in elements]
    for x, rx in zip(elements, ranks):
        for w, rw in zip(elements, ranks):
            expected = all(a <= b for a, b in zip(rx, rw))
            assert a4.bruhat_leq(x, w) == expected, (
                a4.format_word(x),
                a4.format_word(w),
            )


def test_bruhat_basics(a3):
    w0 = a3.longest_element()
    for w in a3.enumerate_group():
        assert a3.bruhat_leq(a3.identity, w)
        assert a3.bruhat_leq(w, w0)
    interval = a3.bruhat_interval(a3.identity, w0)
    assert interval == a3.enumerate_group()
    assert a3.bruhat_leq(a3.parse_word("s1*s3"), a3.parse_word("s1*s2*s3"))
    x = a3.parse_word("s2")
    w = a3.parse_word("s1*s3")
    assert not a3.bruhat_leq(x, w)
    assert a3.bruhat_interval(x, w) == ()


def test_covers(a3):
    assert a3.covers(a3.identity, a3.simple_reflection(2))
    assert not a3.covers(a3.identity, a3.parse_word("s1*s2"))
    assert a3.covers(a3.parse_word("s1*s3"), a3.parse_word("s1*s2*s3"))


def test_kostant_reps(a2, a3):
    assert a2.kostant_reps(frozenset({1})) == (
        a2.identity,
        a2.parse_word("s2"),
        a2.parse_word("s2*s1"),
    )
    full = frozenset(range(1, 4))
    assert a3.kostant_reps(frozenset()) == a3.enumerate_group()
    assert a3.kostant_reps(full) == (a3.identity,)


def test_kostant_unique_length_additive_factorization(a3):
    # Representatives without left descents in I are minimal in their coset
    # W_I w, so the unique length-additive factorization is w = u * v with
    # u inside the parabolic and v the representative.
    import itertools

    for size in range(4):
        for subset in itertools.combinations(range(1, 4), size):
            subset = frozenset(subset)
            reps = a3.kostant_reps(subset)
            inside = a3.parabolic_elements(subset)
            assert len(reps) * len(inside) == 24
            for w in a3.enumerate_group():
                pairs = [
                    (u, v)
                    for u in inside
                    for v in reps
                    if a3.multiply(u, v) is w and u.length + v.length == w.length
                ]
                assert len(pairs) == 1, (sorted(subset), a3.format_word(w))


def test_kostant_reps_inverse_root_characterization(a3):
    # w has no left descent in I iff w^{-1}(alpha_i) is positive for i in I.
    subset = frozenset({1, 3})
    reps = set(a3.kostant_reps(subset))
    for w in a3.enumerate_group():
        positive_images = all(
            min(a3.act_weight(a3.inverse(w), a3.datum.simple_root(i)).coords) >= 0
            for i in subset
        )
        assert (w in reps) == positive_images


def test_parabolic_elements(a3):
    subset = frozenset({1, 3})
    words = [a3.format_word(w, identity="e") for w in a3.parabolic_elements(subset)]
    assert words == ["e", "s1", "s3", "s1*s3"]


def test_act_coweight_matches_permutation_model(a3):
    rng = random.Random(424242)
    for _ in range(8):
        xs = [Fraction(rng.randint(-20, 20)) for _ in range(3)]
        xs.append(-sum(xs))
        mu = coweight_from_gln(tuple(xs))
        for w in a3.enumerate_group():
            moved = permute_gln_tuple(permutation_of(a3, w), tuple(xs))
            partial = []
            acc = Fraction(0)
            for entry in moved[:-1]:
                acc += entry
                partial.append(acc)
            assert a3.act_coweight(w, mu).coords == tuple(partial), a3.format_word(w)


def test_act_coweight_example(a3):
    mu = coweight_from_gln((3, 2, 1, -6))
    s3 = a3.simple_reflection(3)
    assert a3.act_coweight(s3, mu).coords == (3, 5, -1)


def test_dot_action_simple_reflection_formula(a3, b2):
    rng = random.Random(77)
    for group in (a3, b2):
        datum = group.datum
        for _ in range(6):
            lam_coords = tuple(
                Fraction(rng.randint(-8, 8), rng.randint(1, 3))
                for _ in range(group.rank)
            )
            from steinmult import Weight

            lam = Weight(lam_coords)
            fundamental = weight_to_fundamental(datum, lam)
            for i in range(1, group.rank + 1):
                image = group.dot_action(group.simple_reflection(i), lam)
                expected = list(lam_coords)
                expected[i - 1] -= fundamental[i - 1] + 1
                assert image.coords == tuple(expected)


def test_dot_action_is_group_action(a3):
    rng = random.Random(99)
    from steinmult import Weight

    lam = Weight(tuple(Fraction(rng.randint(-5, 5)) for _ in range(3)))
    elements = a3.enumerate_group()
    for _ in range(20):
        u = elements[rng.randrange(len(elements))]
        w = elements[rng.randrange(len(elements))]
        assert a3.dot_action(w, a3.dot_action(u, lam)) == a3.dot_action(
            a3.multiply(w, u), lam
        )
    assert a3.dot_action(a3.identity, lam) == lam


def test_parse_and_format(a3):
    for w in a3.enumerate_group():
        assert a3.parse_word(a3.format_word(w)) is w
    assert a3.parse_word("e") is a3.identity
    assert a3.parse_word("1") is a3.identity
    assert a3.format_word(a3.identity) == "e"
    assert a3.format_word(a3.identity, identity="1") == "1"
    assert a3.format_word(a3.parse_word("s3*s3*s2")) == "s2"


@pytest.mark.parametrize("bad", ["s0", "s4", "x1", "s1**s2", "", "s1*", "q"])
def test_parse_word_errors(a3, bad):
    with pytest.raises(WordParseError):
        a3.parse_word(bad)


def test_cross_group_guard():
    first = WeylGroup(build_root_datum(cartan_type("A2")))
    second = WeylGroup(build_root_datum(cartan_type("A2")))
    with pytest.raises(DomainError, match="different Weyl group"):
        first.multiply(first.identity, second.identity)
    # A bit test on another group's serial would answer silently and wrongly.
    foreign = second.simple_reflection(1)
    for call in (
        lambda: first.bruhat_leq(first.identity, foreign),
        lambda: first.bruhat_leq(foreign, first.longest_element()),
        lambda: first.bruhat_interval(first.identity, foreign),
        lambda: first.bruhat_interval(foreign, first.longest_element()),
        lambda: first.covers(first.identity, foreign),
    ):
        with pytest.raises(DomainError, match="different Weyl group"):
            call()


def test_act_coweight_rank_mismatch(a3):
    with pytest.raises(DomainError, match="rank mismatch"):
        a3.act_coweight(a3.identity, Coweight.of(1, 2))
