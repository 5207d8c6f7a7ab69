import itertools
import math

from hypothesis import assume, given, settings, strategies as st
import numpy as np
import pytest

from hisparse import (
    BlockShape,
    DimensionError,
    MultiLevelVector,
    SparsityProfile,
    hi_threshold,
    is_hi_sparse,
    project_onto_support,
)
from hisparse.ripcheck import count_hi_supports
from conftest import REFERENCE_HIER_SUPPORT, REFERENCE_FLAT_SUPPORT


def brute_force_supports(dims, s):
    """All maximal hierarchical supports, by direct recursion (test oracle)."""
    if len(dims) == 1:
        for combo in itertools.combinations(range(dims[0]), s[0]):
            yield tuple(combo)
        return
    stride = int(np.prod(dims[1:]))
    for blocks in itertools.combinations(range(dims[0]), s[0]):
        options = [
            [tuple(b * stride + i for i in sub) for sub in brute_force_supports(dims[1:], s[1:])]
            for b in blocks
        ]
        for picks in itertools.product(*options):
            yield tuple(sorted(itertools.chain.from_iterable(picks)))


def best_residual_bruteforce(values, dims, s):
    best = np.inf
    for support in brute_force_supports(dims, s):
        z = np.zeros_like(values)
        z[list(support)] = values[list(support)]
        best = min(best, float(np.linalg.norm(values - z)))
    return best


def test_shape_and_profile_validation():
    with pytest.raises(DimensionError):
        BlockShape((2, 0))
    with pytest.raises(DimensionError):
        SparsityProfile(())
    with pytest.raises(DimensionError):
        SparsityProfile((3,)).check_compatible(BlockShape((2,)))
    with pytest.raises(DimensionError):
        SparsityProfile((1, 1)).check_compatible(BlockShape((4,)))
    with pytest.raises(DimensionError):
        MultiLevelVector(BlockShape((4,)), np.zeros(5, dtype=complex))


def test_reference_vector_hierarchical_support(reference_vector):
    x = MultiLevelVector(BlockShape((2, 3, 5)), reference_vector)
    support = hi_threshold(x, SparsityProfile((1, 2, 2)))
    assert set(support.tolist()) == REFERENCE_HIER_SUPPORT


def test_reference_vector_flat_support(reference_vector):
    x = MultiLevelVector(BlockShape((30,)), reference_vector)
    support = hi_threshold(x, SparsityProfile((4,)))
    assert set(support.tolist()) == REFERENCE_FLAT_SUPPORT


@pytest.mark.parametrize("dims,s", [
    ((2, 3, 5), (1, 2, 2)),
    ((2, 2, 2), (1, 2, 1)),
    ((3, 2, 2), (2, 1, 2)),
    ((4, 4), (2, 2)),
    ((8,), (3,)),
    ((2, 2, 2, 2), (1, 2, 1, 2)),
])
def test_threshold_is_optimal_vs_bruteforce(dims, s):
    rng = np.random.default_rng(123)
    shape, profile = BlockShape(dims), SparsityProfile(s)
    for _ in range(25):
        values = rng.standard_normal(shape.total) + 1j * rng.standard_normal(shape.total)
        x = MultiLevelVector(shape, values)
        proj = project_onto_support(x, hi_threshold(x, profile))
        residual = float(np.linalg.norm(values - proj.values))
        assert residual <= best_residual_bruteforce(values, dims, s) + 1e-12


def test_threshold_idempotent():
    rng = np.random.default_rng(7)
    shape, profile = BlockShape((3, 4, 2)), SparsityProfile((2, 2, 1))
    for _ in range(10):
        x = MultiLevelVector(shape, rng.standard_normal(24) + 1j * rng.standard_normal(24))
        first = project_onto_support(x, hi_threshold(x, profile))
        second = project_onto_support(first, hi_threshold(first, profile))
        np.testing.assert_array_equal(first.values, second.values)


def test_single_level_reduces_to_top_k():
    rng = np.random.default_rng(11)
    values = rng.standard_normal(40) + 1j * rng.standard_normal(40)
    x = MultiLevelVector(BlockShape((40,)), values)
    support = hi_threshold(x, SparsityProfile((6,)))
    expected = set(np.argsort(np.abs(values))[-6:])
    assert set(support.tolist()) == expected
    # Flat best-k semantics: equal moduli go to the lowest index, and with
    # k >= n every nonzero is kept while exact zeros are dropped.
    tied = np.array([1, -1, 1j, 2, -1j, 0.5, 1], dtype=complex)
    for k, expected in ((3, [0, 1, 3]), (4, [0, 1, 2, 3])):
        support = hi_threshold(MultiLevelVector(BlockShape((7,)), tied), SparsityProfile((k,)))
        np.testing.assert_array_equal(support, expected)
    sparse = np.array([0, 1, 0, 2j, 0.5, 0], dtype=complex)
    support = hi_threshold(MultiLevelVector(BlockShape((6,)), sparse), SparsityProfile((6,)))
    np.testing.assert_array_equal(support, [1, 3, 4])


def test_threshold_zero_vector():
    shape = BlockShape((2, 3, 5))
    x = MultiLevelVector.zeros(shape)
    support = hi_threshold(x, SparsityProfile((1, 2, 2)))
    assert len(support) == 0
    assert project_onto_support(x, support).norm() == 0.0


def test_threshold_ties_go_to_lowest_index():
    values = np.array([1.0, 1.0, 1.0, 1.0], dtype=complex)
    x = MultiLevelVector(BlockShape((2, 2)), values)
    support = hi_threshold(x, SparsityProfile((1, 1)))
    assert support.tolist() == [0]


def test_threshold_profile_mismatch():
    x = MultiLevelVector.zeros(BlockShape((2, 3)))
    with pytest.raises(DimensionError):
        hi_threshold(x, SparsityProfile((1, 2, 2)))


def test_project_full_and_empty_support(reference_vector):
    shape = BlockShape((2, 3, 5))
    x = MultiLevelVector(shape, reference_vector)
    np.testing.assert_array_equal(project_onto_support(x, np.arange(30)).values, x.values)
    assert project_onto_support(x, np.array([], dtype=np.int64)).norm() == 0.0


def test_reference_projection_matches_bruteforce(reference_vector):
    x = MultiLevelVector(BlockShape((2, 3, 5)), reference_vector)
    proj = project_onto_support(x, hi_threshold(x, SparsityProfile((1, 2, 2))))
    residual = float(np.linalg.norm(reference_vector - proj.values))
    best = best_residual_bruteforce(reference_vector, (2, 3, 5), (1, 2, 2))
    assert residual == pytest.approx(best, abs=1e-12)


def test_is_hi_sparse_cases():
    shape = BlockShape((2, 3, 5))
    profile = SparsityProfile((1, 2, 2))
    assert is_hi_sparse(MultiLevelVector.zeros(shape), profile)

    rng = np.random.default_rng(3)
    x = MultiLevelVector(shape, rng.standard_normal(30) + 0j)
    projected = project_onto_support(x, hi_threshold(x, profile))
    assert is_hi_sparse(projected, profile)

    # Two populated outer blocks violate s1 = 1.
    bad = np.zeros(30, dtype=complex)
    bad[0] = 1.0
    bad[15] = 1.0
    assert not is_hi_sparse(MultiLevelVector(shape, bad), profile)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.data())
def test_threshold_properties_on_random_layouts(data):
    dims = tuple(data.draw(st.lists(st.integers(1, 4), min_size=1, max_size=3), label="dims"))
    s = tuple(data.draw(st.integers(1, n), label="s") for n in dims)
    assume(count_hi_supports(dims, s) <= 2000)  # keeps the brute force fast
    n = math.prod(dims)
    # Small integers give ties and exact zeros; floats give generic values.
    part = st.one_of(st.integers(-3, 3), st.floats(-4, 4, allow_subnormal=False))
    parts = st.lists(part, min_size=2 * n, max_size=2 * n)
    raw = np.asarray(data.draw(parts, label="values"), dtype=float)
    values = raw[:n] + 1j * raw[n:]
    x = MultiLevelVector(BlockShape(dims), values)
    profile = SparsityProfile(s)

    support = hi_threshold(x, profile)
    assert support.dtype == np.int64
    assert np.all(np.diff(support) > 0)
    assert support.size == 0 or (support[0] >= 0 and support[-1] < n)
    proj = project_onto_support(x, support)
    np.testing.assert_array_equal(np.flatnonzero(proj.values), support)
    assert is_hi_sparse(proj, profile)
    residual = float(np.linalg.norm(values - proj.values))
    assert residual == pytest.approx(best_residual_bruteforce(values, dims, s), abs=1e-12)
