import math
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ellfusion.partitions import (
    canonical_key,
    check_partition,
    dominance_leq,
    enumerate_level,
    level_cone,
    partitions_of_weight,
    r_index,
    span,
    underline,
    vertical_strips,
    weight,
)


def test_enumerate_level_examples():
    assert enumerate_level(2, 1) == [(0, 0), (1, 0)]
    assert enumerate_level(3, 0) == [(0, 0, 0)]
    assert enumerate_level(2, 2) == [(0, 0), (1, 0), (2, 0)]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("m", [0, 1, 2, 3, 4])
def test_enumerate_level_counts(n, m):
    labels = enumerate_level(n, m)
    assert len(labels) == math.comb(n - 1 + m, m)
    assert len(set(labels)) == len(labels)
    for lam in labels:
        assert lam[-1] == 0
        assert span(lam) <= m
    assert labels == sorted(labels, key=canonical_key)


def test_canonical_order_is_weight_then_lex_descending():
    labels = enumerate_level(3, 2)
    assert labels == [(0, 0, 0), (1, 0, 0), (2, 0, 0), (1, 1, 0), (2, 1, 0), (2, 2, 0)]


def test_r_index_examples():
    assert r_index((2, 1, 0)) == 1
    assert r_index((1, 1, 0)) == 2
    assert r_index((3, 3, 3)) == 3
    assert r_index((0, 0, 0)) == 3  # convention for the zero partition


def test_vertical_strips_examples():
    assert vertical_strips((1, 0), 1) == [(2, 0), (1, 1)]
    assert vertical_strips((0, 0), 2) == [(1, 1)]
    assert vertical_strips((2, 1, 0), 3) == [(3, 2, 1)]


@pytest.mark.parametrize("lam", [(0, 0, 0), (2, 1, 0), (3, 3, 1), (5, 2, 2)])
def test_full_column_strip_is_unique(lam):
    n = len(lam)
    assert vertical_strips(lam, n) == [tuple(x + 1 for x in lam)]


def test_strips_are_partitions_of_right_weight():
    for lam in [(2, 1, 0), (3, 1, 1), (4, 0, 0)]:
        for r in (1, 2, 3):
            for nu in vertical_strips(lam, r):
                check_partition(nu)
                assert weight(nu) == weight(lam) + r
                assert all(0 <= b - a <= 1 for a, b in zip(lam, nu))


def test_dominance_examples():
    assert dominance_leq((1, 1, 0), (2, 0, 0))
    assert not dominance_leq((2, 0, 0), (1, 1, 0))
    assert not dominance_leq((1, 0), (1, 1))  # weights differ


def test_dominance_is_partial_order_exhaustive():
    for w in range(7):
        shapes = partitions_of_weight(3, w)
        for a in shapes:
            assert dominance_leq(a, a)
            for b in shapes:
                if dominance_leq(a, b) and dominance_leq(b, a):
                    assert a == b
                for c in shapes:
                    if dominance_leq(a, b) and dominance_leq(b, c):
                        assert dominance_leq(a, c)


def test_dominance_implies_lexicographic():
    # the peeling strategy relies on this implication
    for w in range(7):
        shapes = partitions_of_weight(3, w)
        for a, b in product(shapes, repeat=2):
            if a != b and dominance_leq(a, b):
                assert a < b


def test_underline_examples_and_idempotence():
    assert underline((3, 2, 1)) == (2, 1, 0)
    assert underline((1, 1)) == (0, 0)
    assert underline((2, 0)) == (2, 0)
    for nu in [(3, 2, 1), (5, 5, 5), (4, 2, 0)]:
        assert underline(underline(nu)) == underline(nu)


def test_partitions_of_weight():
    assert partitions_of_weight(3, 0) == [(0, 0, 0)]
    assert set(partitions_of_weight(3, 3)) == {(3, 0, 0), (2, 1, 0), (1, 1, 1)}
    assert partitions_of_weight(2, 3, max_part=2) == [(2, 1)]


def test_check_partition_rejects_bad_input():
    with pytest.raises(ValueError):
        check_partition((1, 2))
    with pytest.raises(ValueError):
        check_partition((1, -1))
    with pytest.raises(ValueError):
        check_partition(())


@settings(max_examples=30, deadline=None)
@given(n=st.integers(2, 6), m=st.integers(0, 6))
@example(n=6, m=6)
@example(n=2, m=0)
def test_level_cone_record_matches_brute_force(n, m):
    """Every field of the kept record against its definition, written out without the record's code."""
    cone = level_cone(n, m)
    assert level_cone(n, m) is cone
    tuples = [lam + (0,) for lam in product(range(m + 1), repeat=n - 1)]
    labels = sorted((lam for lam in tuples if all(a >= b for a, b in zip(lam, lam[1:]))), key=canonical_key)
    assert cone.labels == tuple(labels) and len(labels) == math.comb(n - 1 + m, m)
    N, where = len(labels), {lam: i for i, lam in enumerate(labels)}
    assert dict(cone.index) == where
    assert cone.keys.tolist() == [list(lam) for lam in labels] and cone.keys.flags.f_contiguous
    assert cone.weights.tolist() == [sum(lam) for lam in labels]
    assert cone.keys.dtype == cone.weights.dtype == np.int16
    pairs = list(combinations(range(n), 2))
    assert cone.d.tolist() == [[lam[j] - lam[k] for j, k in pairs] for lam in labels]
    assert cone.s.tolist() == [k - j for j, k in pairs]

    # The simple current: a permutation of order n that adds m to the weight mod n.
    J = cone.J.tolist()
    assert sorted(J) == list(range(N))
    for i, lam in enumerate(labels):
        assert labels[J[i]] == tuple(x - lam[n - 2] for x in (m,) + lam[: n - 1])
        assert (sum(labels[J[i]]) - sum(lam) - m) % n == 0
        image = i
        for _ in range(n):
            image = J[image]
        assert image == i

    # The charge conjugation: an involution reversing the Dynkin labels lam_j - lam_{j+1}.
    star = cone.conjugation.tolist()
    for i, lam in enumerate(labels):
        dynkin = [lam[j] - lam[j + 1] for j in range(n - 1)]
        assert [labels[star[i]][j] - labels[star[i]][j + 1] for j in range(n - 1)] == dynkin[::-1]
        assert star[star[i]] == i

    # The strips of each size that stay in the cone, label by label.
    for r in range(1, n + 1):
        rows, cols, diff = cone.strips(r)
        want = [(i, where[underline(nu)], [(nu[j] - lam[j]) - (nu[k] - lam[k]) for j, k in pairs])
                for i, lam in enumerate(labels) for nu in vertical_strips(lam, r) if span(nu) <= m]
        assert list(zip(rows.tolist(), cols.tolist(), diff.tolist())) == want
        assert cone.strips(r)[0] is rows

    arrays = [cone.keys, cone.weights, cone.d, cone.s, cone.J, cone.conjugation]
    arrays += [a for r in range(1, n + 1) for a in cone.strips(r)]
    assert not any(a.flags.writeable for a in arrays)
