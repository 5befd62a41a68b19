import math
import re
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ellfusion import cli, coeffs, fusion, littlewood, operators, polynomials
from ellfusion.kernel import ModelParams
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


# -- the one partition gate ----------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 4), m=st.integers(0, 4), parts=st.lists(st.integers(0, 5), min_size=1, max_size=6))
def test_check_partition_passes_the_labels_and_no_other_length(n, m, parts):
    """Every label of the cone comes back unchanged; a partition of any other length than n raises."""
    for lam in level_cone(n, m).labels:
        assert check_partition(lam, n) == lam
    parts = sorted(parts, reverse=True)
    if len(parts) == n:
        assert check_partition(parts, n) == tuple(parts)
    else:
        with pytest.raises(ValueError, match=f"^partition length {len(parts)} does not match n={n}$"):
            check_partition(parts, n)


_GATE = ModelParams.locked(3, 3, 0.7, 0.3)


def _cli_pieri(lam, *flags):
    """``cli._cmd_pieri`` itself, so that its ValueError is seen before ``main`` turns it into exit code 2."""
    argv = ["pieri", "--n", "3", "--lam", ",".join(map(str, lam)), "--r", "1", "--g", "0.7", "--p", "0.3", *flags]
    parser = cli.build_parser()
    return cli._cmd_pieri(parser.parse_args(argv), parser)


def _strip(lam):
    """The strip lam + 1^1 of lam, of the same length."""
    return (lam[0] + 1, *lam[1:])


# Every entry that takes a factor, called with a factor lam of another length than n = 3.
_GATED = {
    "hop_B": lambda lam: coeffs.hop_B(lam, _strip(lam), _GATE),
    "psi_prime": lambda lam: coeffs.psi_prime(lam, _strip(lam), _GATE),
    "c_norm": lambda lam: coeffs.c_norm(lam, _GATE),
    "delta_weight": lambda lam: coeffs.delta_weight(lam, _GATE),
    "apply_D": lambda lam: operators.apply_D(1, {_strip(lam): 1.0}, lam, _GATE),
    "reduce_mod_ideal": lambda lam: fusion.reduce_mod_ideal({lam: 2.0}, _GATE),
    "fusion_pieri": lambda lam: fusion.fusion_pieri(lam, 1, _GATE),
    "structure_constants_lr": lambda lam: fusion.structure_constants_lr(lam, (1, 0, 0), _GATE),
    "structure_constants_verlinde": lambda lam: fusion.structure_constants_verlinde(lam, (1, 0, 0), _GATE),
    "structure_constants_projection": lambda lam: fusion.structure_constants_projection(lam, (1, 0, 0), _GATE),
    "build_P": lambda lam: polynomials.build_P(lam, _GATE),
    "evaluate_R": lambda lam: polynomials.evaluate_R(lam, (0.5, 0.25, 1.0), _GATE),
    "normalized_p": lambda lam: polynomials.normalized_p(lam, (0.5, 0.25, 1.0), _GATE),
    "lr_coefficients": lambda lam: littlewood.lr_coefficients((1, 0, 0), lam, _GATE),
    "expand_in_P": lambda lam: littlewood.expand_in_P(polynomials.PolynomialInE(3, {lam: 1.0}), _GATE),
    "cli_pieri_free": lambda lam: _cli_pieri(lam, "--alpha", "2.0"),
    "cli_pieri_locked": lambda lam: _cli_pieri(lam, "--m", "3", "--level-locked"),
}


@pytest.mark.parametrize("length", [2, 4])
@pytest.mark.parametrize("entry", sorted(_GATED))
def test_every_factor_of_another_length_raises_the_gate_error(entry, length):
    """A factor of length n - 1 or n + 1 belongs to no model at n: the ValueError of ``check_partition``."""
    lam = (2, 1) + (0,) * (length - 2)
    with pytest.raises(ValueError, match=f"^partition length {length} does not match n=3$"):
        _GATED[entry](lam)


# hop_B and psi_prime compare only the length on their hot path; the CLI parses its parts as integers.
_READ_THROUGH_THE_GATE = sorted(set(_GATED) - {"hop_B", "psi_prime", "cli_pieri_free", "cli_pieri_locked"})


_NON_INTEGRAL = [(2.5, 1, 0), (1.7, 0, 0), (1.9, 0.2, 0), (2, 1, 0.5), (math.inf, 0, 0), (math.nan, 0, 0)]


@pytest.mark.parametrize("lam", _NON_INTEGRAL, ids=str)
@pytest.mark.parametrize("entry", _READ_THROUGH_THE_GATE)
def test_every_factor_with_a_non_integral_part_raises_the_gate_error(entry, lam):
    """A part that is not an integer value is no row length: the gate names the parts instead of truncating them."""
    with pytest.raises(ValueError, match=f"^parts must be integers: {re.escape(str(lam))}$"):
        _GATED[entry](lam)


@pytest.mark.parametrize("parts", [(2.5, 1), (1, 0.5), (math.inf, 0), (-math.inf,), (math.nan,), ("2", 1)], ids=str)
def test_check_partition_rejects_a_part_that_is_no_integer(parts):
    with pytest.raises(ValueError, match=f"^parts must be integers: {re.escape(str(parts))}$"):
        check_partition(parts)


@pytest.mark.parametrize(
    "spelling",
    [(2.0, 1.0, 0.0), (np.int64(2), np.int32(1), np.uint8(0)), (2, True, False), np.array([2, 1, 0]),
     [np.float64(2), 1, 0]],
    ids=["floats", "numpy-ints", "bools", "array", "numpy-float"],
)
def test_an_integral_spelling_is_its_label(spelling):
    """Parts equal to integers pass the gate as those Python ints, and every entry reads the label they spell."""
    params = ModelParams.locked(3, 2, 0.7, 0.3)
    lam = check_partition(spelling, 3)
    assert lam == (2, 1, 0) and all(type(x) is int for x in lam)
    assert coeffs.c_norm(spelling, params) == coeffs.c_norm(lam, params)
    assert polynomials.build_P(spelling, params) is polynomials.build_P(lam, params)
    pair = fusion.structure_constants_verlinde(spelling, (1, 0, 0), params)
    assert pair == fusion.structure_constants_verlinde(lam, (1, 0, 0), params) and pair


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
