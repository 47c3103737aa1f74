"""Partition and factored polynomial tests.

The brute-force partition generator below is the oracle for the iterative
construction; the recursive construction it replaced is a second oracle,
for the order of the results as well.  The expansion of a factored
polynomial through its (v^k - 1)-form is the oracle for the nu-form
expansion the package uses.  A walk out of every vertex back to itself
(``orbit_sizes``) is the oracle for the one-pass orbit count behind
``cycle_type_of_permutation``.
"""

import json
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coxquiver.linalg import char_poly
from coxquiver.partitions import (
    FactoredCoxPoly,
    Partition,
    cycle_type_of_permutation,
    part1c,
    partitions_by_length,
)
from dense import permutation_matrix, poly_mul, poly_pow, v_power_minus_one


def brute_force_partitions(m):
    """All partitions of m, by direct descent."""
    def rec(remaining, max_part):
        if remaining == 0:
            yield ()
            return
        for first in range(min(remaining, max_part), 0, -1):
            for rest in rec(remaining - first, first):
                yield (first,) + rest
    return [Partition(p) for p in rec(m, m)]


def recursive_partitions_by_length(m, l):
    """Partitions of m with exactly l parts, lexicographically descending:
    those ending in 1 from (m - 1, l - 1) with a trailing 1, those with all
    parts > 1 from (m - l, l) with 1 added to every part."""
    if l == 1:
        return [(m,)]
    if l == m:
        return [(1,) * m]
    if l > m:
        return []
    with_trailing_one = [p + (1,) for p in recursive_partitions_by_length(m - 1, l - 1)]
    all_bigger = [tuple(x + 1 for x in p) for p in recursive_partitions_by_length(m - l, l)]
    return sorted(with_trailing_one + all_bigger, reverse=True)


def expand_unit_form(f):
    """Expansion of a factored polynomial through its (v^k - 1)-form,
    defined only when the unit exponent is nonnegative."""
    e = f.unit_exponent
    if e < 0:
        raise ValueError("(v^k - 1)-form undefined: unit exponent is negative")
    out = poly_pow((-1, 1), e)
    for p in f.cycle_parts:
        out = poly_mul(out, v_power_minus_one(p))
    return out


def orbit_sizes(p):
    """The orbit sizes of the permutation with images ``p``, non-increasing,
    from a walk out of every vertex back to itself: an orbit of size s is
    walked once from each of its s vertices, so its size is read once per
    s walks."""
    lengths = []
    for v in range(1, len(p) + 1):
        length, u = 1, p[v - 1]
        while u != v:
            length, u = length + 1, p[u - 1]
        lengths.append(length)
    lengths.sort(reverse=True)
    sizes, i = [], 0
    while i < len(lengths):
        sizes.append(lengths[i])
        i += lengths[i]
    return tuple(sizes)


def degree(f):
    """Degree of a factored polynomial, read off its nu-form."""
    return f.nu_exponent + sum(p - 1 for p in f.cycle_parts)


def permutation_of_partition(p):
    """The permutation of {1..m} written as consecutive cycles of the part
    lengths: (1..pi_1)(pi_1+1..pi_1+pi_2)..."""
    images = []
    start = 1
    for part in p.parts:
        block = list(range(start, start + part))
        images.extend(block[1:] + block[:1])
        start += part
    return tuple(images)


# ---------------------------------------------------------------------------
# Partition basics
# ---------------------------------------------------------------------------

def test_partition_validation():
    with pytest.raises(ValueError):
        Partition(())
    with pytest.raises(ValueError):
        Partition((1, 2))
    with pytest.raises(ValueError):
        Partition((2, 0))
    p = Partition((3, 2, 2))
    assert p.m == 7 and p.length == 3


def test_partition_json_roundtrip():
    p = Partition((3, 2, 2))
    assert json.dumps(p.to_json()) == "[3, 2, 2]"
    assert Partition(tuple(json.loads(json.dumps(p.to_json())))) == p


# ---------------------------------------------------------------------------
# characteristic polynomials of partitions
# ---------------------------------------------------------------------------

def test_char_poly_of_single_part():
    for m in range(1, 7):
        assert FactoredCoxPoly(1, (m,)).expand() == \
            (-1,) + (0,) * (m - 1) + (1,)


def test_char_poly_of_211():
    got = FactoredCoxPoly(3, (2, 1, 1)).expand()
    expected = poly_mul((-1, 0, 1), poly_pow((-1, 1), 2))  # (v^2-1)(v-1)^2
    assert got == expected


def test_char_poly_matches_permutation_matrix():
    pi = Partition((3, 2, 2))
    rho = permutation_of_partition(pi)
    assert cycle_type_of_permutation(rho) == pi
    assert FactoredCoxPoly(pi.length, pi.parts).expand() == char_poly(permutation_matrix(rho))


@given(st.integers(min_value=1, max_value=8))
@settings(max_examples=8, deadline=None)
def test_char_poly_matches_permutation_matrix_all_partitions(m):
    for pi in brute_force_partitions(m):
        rho = permutation_of_partition(pi)
        assert FactoredCoxPoly(pi.length, pi.parts).expand() == \
            char_poly(permutation_matrix(rho))


# ---------------------------------------------------------------------------
# FactoredCoxPoly
# ---------------------------------------------------------------------------

def test_expand_single_factor():
    f = FactoredCoxPoly(1, (2,))
    assert f.expand() == (-1, 0, 1)


def test_expand_with_unit_factor():
    f = FactoredCoxPoly(2, (4,))
    # (v-1)(v^4-1) = v^5 - v^4 - v + 1
    assert f.expand() == (1, -1, 0, 0, -1, 1)


def test_expand_cubed_unit_factor():
    f = FactoredCoxPoly(4, (5,))
    expected = poly_mul((-1, 0, 0, 0, 0, 1), poly_pow((-1, 1), 3))
    assert f.expand() == expected


def test_nu_form_and_unit_form_expansions_agree():
    f = FactoredCoxPoly(5, (3, 2, 2))
    assert f.expand() == expand_unit_form(f)


@given(
    st.integers(min_value=0, max_value=3),
    st.lists(st.integers(min_value=1, max_value=5), min_size=1, max_size=4),
)
@settings(max_examples=80)
def test_two_factorizations_agree(e, parts):
    f = FactoredCoxPoly(e + len(parts), tuple(sorted(parts, reverse=True)))
    assert f.expand() == expand_unit_form(f)
    assert degree(f) == len(f.expand()) - 1


def test_corank_zero_representation():
    f = FactoredCoxPoly(0, (5,))
    assert f.unit_exponent == -1
    assert f.expand() == (1, 1, 1, 1, 1)  # nu_5
    with pytest.raises(ValueError):
        expand_unit_form(f)


def test_factored_to_json():
    assert FactoredCoxPoly(4, (5,)).to_json() == {
        "unit_exponent": 3, "cycle_parts": [5],
        "dense": [1, -3, 3, -1, 0, -1, 3, -3, 1]}
    assert FactoredCoxPoly(0, (5,)).to_json() == {
        "unit_exponent": -1, "cycle_parts": [5], "dense": [1, 1, 1, 1, 1]}
    assert json.dumps(FactoredCoxPoly(2, (2, 1)).to_json()) == (
        '{"unit_exponent": 0, "cycle_parts": [2, 1], "dense": [1, -1, -1, 1]}')


# ---------------------------------------------------------------------------
# partitions_by_length / part1c
# ---------------------------------------------------------------------------

def test_partitions_by_length_examples():
    assert set(partitions_by_length(4, 2)) == {Partition((3, 1)), Partition((2, 2))}
    assert partitions_by_length(5, 1) == (Partition((5,)),)
    assert partitions_by_length(3, 5) == ()


def test_partitions_by_length_against_brute_force():
    for m in range(1, 13):
        everything = brute_force_partitions(m)
        collected = []
        for length in range(1, m + 1):
            chunk = partitions_by_length(m, length)
            assert all(p.length == length and p.m == m for p in chunk)
            collected.extend(chunk)
        assert len(collected) == len(set(collected)), "duplicate partitions"
        assert set(collected) == set(everything)


def test_partitions_by_length_matches_the_recursion():
    for m in range(1, 31):
        for length in range(1, m + 2):
            assert [p.parts for p in partitions_by_length(m, length)] == \
                recursive_partitions_by_length(m, length)


def test_partitions_by_length_needs_no_recursion():
    # the recursion above goes two frames deep per pair of vertices
    got = partitions_by_length(5000, 2)
    assert len(got) == 2500
    assert got[0].parts == (4999, 1) and got[-1].parts == (2500, 2500)
    for m, length in ((0, 1), (1, 0), (-1, 3)):
        with pytest.raises(ValueError, match="m >= 1 and l >= 1"):
            partitions_by_length(m, length)


def test_part1c_examples():
    assert set(part1c(2, 4)) == {Partition((4,)), Partition((2, 1, 1))}
    assert set(part1c(4, 5)) == {
        Partition((5,)),
        Partition((3, 1, 1)),
        Partition((2, 2, 1)),
        Partition((1, 1, 1, 1, 1)),
    }
    assert part1c(0, 3) == (Partition((3,)),)


def test_part1c_membership_parity():
    for c in range(0, 6):
        for m in range(1, 9):
            members = set(part1c(c, m))
            for p in brute_force_partitions(m):
                admissible = (c - (p.length - 1)) >= 0 and \
                    (c - (p.length - 1)) % 2 == 0
                assert (p in members) == admissible


def test_part1c_ordering_is_lexicographic_descending():
    got = part1c(4, 5)
    assert [p.parts for p in got] == sorted(
        [p.parts for p in got], reverse=True
    )


# ---------------------------------------------------------------------------
# cycle types
# ---------------------------------------------------------------------------

def test_cycle_type_identity():
    assert cycle_type_of_permutation((1, 2, 3, 4)) == Partition((1, 1, 1, 1))


def test_cycle_type_single_cycle():
    assert cycle_type_of_permutation((2, 3, 4, 5, 1)) == Partition((5,))


def test_cycle_type_of_partition_permutation():
    for m in range(1, 11):
        for pi in brute_force_partitions(m):
            assert cycle_type_of_permutation(permutation_of_partition(pi)) == pi


@pytest.mark.parametrize("images, parts", [
    ((1, 2, 3), (1, 1, 1)),
    ((2, 3, 1), (3,)),
    ((2, 1, 3), (2, 1)),
], ids=["identity", "three cycle", "two cycle and a fixed point"])
def test_cycle_type_examples(images, parts):
    assert cycle_type_of_permutation(images) == Partition(parts)


def test_cycle_type_of_every_small_permutation_is_its_orbit_sizes():
    count = 0
    for m in range(1, 7):
        for images in permutations(range(1, m + 1)):
            assert cycle_type_of_permutation(images).parts == orbit_sizes(images)
            count += 1
    assert count == 1 + 2 + 6 + 24 + 120 + 720


@pytest.mark.parametrize("images", [
    (1, 1), (2, 3), (0, 1), (1, 3, 3), (2, 1, 4, 5),
], ids=["repeated", "out of range", "vertex 0", "repeated 3", "too large"])
def test_cycle_type_of_a_non_permutation_raises(images):
    with pytest.raises(ValueError, match="not a permutation of 1..m"):
        cycle_type_of_permutation(images)
