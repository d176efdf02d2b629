"""Parsing, serialization, bitmask helpers, and matrix validation."""

import random

import pytest
from hypothesis import given, strategies as st

from coxgrowth.coxeter import (INFINITY, CoxeterMatrix, CoxParseError,
                               RANK_CAP, bits_of, coxeter_matrix,
                               diagram_components, format_subset, mask_of,
                               parse_coxeter_file,
                               serialize_coxeter, superset_sums)


def test_parse_minimal():
    m = parse_coxeter_file("rank 2\nm 1 2 3\n")
    assert m.rank == 2
    assert m.orders[0][1] == 3
    assert m.orders[1][0] == 3
    assert m.orders[0][0] == 1


def test_parse_defaults_to_commuting():
    m = parse_coxeter_file("rank 3\nm 1 2 5\n")
    assert m.orders[0][2] == 2
    assert m.orders[1][2] == 2


def test_parse_infinity_and_comments():
    text = "# header\nrank 2  # trailing\n\nm 1 2 inf\n"
    m = parse_coxeter_file(text)
    assert m.orders[0][1] is INFINITY


def test_parse_duplicate_pair_consistent_ok():
    m = parse_coxeter_file("rank 2\nm 1 2 4\nm 1 2 4\n")
    assert m.orders[0][1] == 4


@pytest.mark.parametrize("text,fragment", [
    ("m 1 2 3\n", "before 'rank'"),
    ("rank 2\nrank 2\n", "duplicate rank"),
    ("rank 0\n", "between 1 and"),
    ("rank 17\n", "between 1 and"),
    ("rank two\n", "not an integer"),
    ("rank 2\nm 2 1 3\n", "1 <= I < J"),
    ("rank 2\nm 1 1 3\n", "1 <= I < J"),
    ("rank 2\nm 1 3 3\n", "1 <= I < J"),
    ("rank 2\nm 1 2 1\n", "order must be >= 2"),
    ("rank 2\nm 1 2 x\n", "not an integer or 'inf'"),
    ("rank 2\nm 1 2 3\nm 1 2 4\n", "contradictory duplicate"),
    ("rank 2\nfoo 1 2\n", "unknown directive"),
    ("", "missing 'rank'"),
    ("rank 2\nm 1 2\n", "expected 'm I J K'"),
])
def test_parse_errors(text, fragment):
    with pytest.raises(CoxParseError) as exc:
        parse_coxeter_file(text)
    assert fragment in str(exc.value)


def test_parse_error_names_line_number():
    with pytest.raises(CoxParseError, match="line 3"):
        parse_coxeter_file("rank 2\n# fine\nm 1 2 bad\n")


def test_serialize_skips_defaults():
    m = coxeter_matrix(3, {(0, 1): 3})
    assert serialize_coxeter(m) == "rank 3\nm 1 2 3\n"


def test_serialize_infinity():
    m = coxeter_matrix(2, {(0, 1): INFINITY})
    assert serialize_coxeter(m) == "rank 2\nm 1 2 inf\n"


@st.composite
def random_matrices(draw):
    rank = draw(st.integers(min_value=1, max_value=6))
    pairs = {}
    for i in range(rank):
        for j in range(i + 1, rank):
            m = draw(st.one_of(st.just(INFINITY),
                               st.integers(min_value=2, max_value=9)))
            if m != 2:
                pairs[(i, j)] = m
    return coxeter_matrix(rank, pairs)


@given(random_matrices())
def test_serialize_parse_roundtrip(matrix):
    assert parse_coxeter_file(serialize_coxeter(matrix)) == matrix


def test_matrix_validation():
    with pytest.raises(ValueError):
        CoxeterMatrix(1, ((2,),))  # diagonal must be 1
    with pytest.raises(ValueError):
        CoxeterMatrix(2, ((1, 1), (1, 1)))  # off-diagonal must be >= 2
    with pytest.raises(ValueError):
        CoxeterMatrix(2, ((1, 3), (4, 1)))  # symmetry
    with pytest.raises(ValueError):
        coxeter_matrix(RANK_CAP + 1)
    with pytest.raises(ValueError):
        coxeter_matrix(2, {(0, 0): 3})


@pytest.mark.parametrize("pair", [(-1, 0), (0, -3), (0, 7), (3, 1), (2, 3)])
def test_coxeter_matrix_rejects_indices_outside_the_rank(pair):
    # a negative index once wrapped to the last generator: (-1, 0) set m(1, 3)
    with pytest.raises(ValueError, match=rf"pair \({pair[0]}, {pair[1]}\) is out of range"):
        coxeter_matrix(3, {pair: 5})
    with pytest.raises(ValueError, match="diagonal"):
        coxeter_matrix(3, {(2, 2): 5})


def test_rank_zero_sentinel():
    m = CoxeterMatrix(0, ())
    assert m.full_mask == 0


def test_bits_and_masks():
    assert bits_of(0b1011) == [0, 1, 3]
    assert mask_of([0, 1, 3]) == 0b1011
    assert mask_of([]) == 0
    assert format_subset(0b101) == "{1,3}"
    assert format_subset(0) == "{}"


@pytest.mark.parametrize("mask", [-1, -2, -0b1011, -(1 << 20)])
def test_negative_masks_are_rejected(mask):
    # -1 >> 1 == -1, so a negative mask once made these loops run forever
    with pytest.raises(ValueError, match="mask must be nonnegative"):
        bits_of(mask)
    with pytest.raises(ValueError, match="mask must be nonnegative"):
        format_subset(mask)


@pytest.mark.parametrize("n", range(8))
def test_superset_sums_match_the_definition(n):
    # from n = 3 on, the passes slice both by offset and by block
    rng = random.Random(n)
    for bound in (9, 1 << 80):
        values = [rng.randint(-bound, bound) for _ in range(1 << n)]
        want = [sum(values[u] for u in range(1 << n) if u & t == t) for t in range(1 << n)]
        assert superset_sums(values) is values and values == want


@pytest.mark.parametrize("size", [0, 3, 6, 12])
def test_superset_sums_need_a_power_of_two(size):
    with pytest.raises(ValueError, match="need 2\\^n values"):
        superset_sums([1] * size)


def test_diagram_components():
    # path 1-2 with 3 isolated (all orders to generator 3 are 2)
    m = coxeter_matrix(3, {(0, 1): 3})
    assert diagram_components(m, 0b111) == [0b011, 0b100]
    # infinity counts as an edge
    m = coxeter_matrix(3, {(0, 2): INFINITY})
    assert diagram_components(m, 0b111) == [0b101, 0b010]
    assert diagram_components(m, 0) == []
