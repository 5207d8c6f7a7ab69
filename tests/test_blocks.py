import itertools
import math
import threading

from hypothesis import assume, given, settings, strategies as st
import numpy as np
import pytest

from hisparse import (
    BlockShape,
    DimensionError,
    RecoveryConfig,
    SparsityProfile,
    hi_threshold,
    rip_constant,
)
from hisparse.blocks import _top_mask, work_buffer
from hisparse.ripcheck import count_hi_supports
from conftest import REFERENCE_HIER_SUPPORT, REFERENCE_FLAT_SUPPORT
from oracles import is_hi_sparse


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


def project(values, support):
    """Copy of values restricted to the flat indices in support, zero elsewhere."""
    out = np.zeros_like(values)
    out[support] = values[support]
    return out


def best_residual_bruteforce(values, dims, s):
    best = np.inf
    for support in brute_force_supports(dims, s):
        z = np.zeros_like(values)
        z[list(support)] = values[list(support)]
        best = min(best, float(np.linalg.norm(values - z)))
    return best


@pytest.mark.parametrize("build", [
    lambda: SparsityProfile((1.5, 2.9)),
    lambda: BlockShape((2.7, 3)),
    lambda: SparsityProfile(("2",)),
    lambda: SparsityProfile((True,)),
    lambda: BlockShape((np.float64(4.0),)),
    lambda: rip_constant(np.eye(4), 2.5),
    lambda: RecoveryConfig(profile=SparsityProfile((1,)), max_iters=2.5),
    lambda: RecoveryConfig(profile=SparsityProfile((1,)), max_iters=True),
], ids=["float-profile", "float-shape", "str-profile", "bool-profile", "numpy-float-shape",
        "float-rip-sparsity", "float-max-iters", "bool-max-iters"])
def test_sizes_must_be_integers(build):
    # Python and numpy integers only: no silent truncation, no bool.
    with pytest.raises(ValueError, match="integer"):
        build()
    assert SparsityProfile((np.int64(2),)).s == (2,)
    assert BlockShape((np.int32(3), 4)).dims == (3, 4)


def test_shape_and_profile_validation():
    with pytest.raises(DimensionError):
        BlockShape((2, 0))
    with pytest.raises(DimensionError):
        SparsityProfile(())
    with pytest.raises(DimensionError):
        SparsityProfile((3,)).check_compatible((2,))
    with pytest.raises(DimensionError):
        SparsityProfile((1, 1)).check_compatible((4,))
    # A flat vector not reshaped to its block dims has too few levels.
    flat = np.zeros(30, dtype=complex)
    with pytest.raises(DimensionError):
        hi_threshold(flat, SparsityProfile((1, 2, 2)))
    with pytest.raises(DimensionError):
        is_hi_sparse(flat, SparsityProfile((1, 2, 2)))


def test_reference_vector_hierarchical_support(reference_vector):
    x = reference_vector.reshape(2, 3, 5)
    support = hi_threshold(x, SparsityProfile((1, 2, 2)))
    assert set(support.tolist()) == REFERENCE_HIER_SUPPORT


def test_reference_vector_flat_support(reference_vector):
    support = hi_threshold(reference_vector, SparsityProfile((4,)))
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
        proj = project(values, hi_threshold(values.reshape(dims), profile))
        residual = float(np.linalg.norm(values - proj))
        assert residual <= best_residual_bruteforce(values, dims, s) + 1e-12


def test_threshold_idempotent():
    rng = np.random.default_rng(7)
    shape, profile = BlockShape((3, 4, 2)), SparsityProfile((2, 2, 1))
    for _ in range(10):
        values = rng.standard_normal(24) + 1j * rng.standard_normal(24)
        first = project(values, hi_threshold(values.reshape(shape.dims), profile))
        second = project(first, hi_threshold(first.reshape(shape.dims), profile))
        np.testing.assert_array_equal(first, second)


def test_single_level_reduces_to_top_k():
    rng = np.random.default_rng(11)
    values = rng.standard_normal(40) + 1j * rng.standard_normal(40)
    support = hi_threshold(values, SparsityProfile((6,)))
    expected = set(np.argsort(np.abs(values))[-6:])
    assert set(support.tolist()) == expected
    # Flat best-k semantics: equal moduli go to the lowest index, and with
    # k >= n every nonzero is kept while exact zeros are dropped.
    tied = np.array([1, -1, 1j, 2, -1j, 0.5, 1], dtype=complex)
    for k, expected in ((3, [0, 1, 3]), (4, [0, 1, 2, 3])):
        support = hi_threshold(tied, SparsityProfile((k,)))
        np.testing.assert_array_equal(support, expected)
    sparse = np.array([0, 1, 0, 2j, 0.5, 0], dtype=complex)
    support = hi_threshold(sparse, SparsityProfile((6,)))
    np.testing.assert_array_equal(support, [1, 3, 4])


def test_work_buffer_is_kept_per_thread_name_shape_and_dtype():
    a = work_buffer("test.a", (3, 4), np.float64)
    assert a.shape == (3, 4) and a.dtype == np.float64
    assert work_buffer("test.a", (3, 4), np.float64) is a
    assert work_buffer("test.b", (3, 4), np.float64) is not a
    b = work_buffer("test.a", (12,), np.float64)   # a new shape replaces the array
    assert b is not a and work_buffer("test.a", (12,), np.float64) is b
    c = work_buffer("test.a", (12,), np.complex128)  # so does a new dtype
    assert c is not b and c.dtype == np.complex128
    other = []
    thread = threading.Thread(target=lambda: other.append(work_buffer("test.a", (12,), np.complex128)))
    thread.start()
    thread.join()
    assert other[0] is not c and not np.shares_memory(other[0], c)


def test_threshold_zero_vector():
    support = hi_threshold(np.zeros((2, 3, 5), dtype=complex), SparsityProfile((1, 2, 2)))
    assert len(support) == 0


def test_threshold_ties_go_to_lowest_index():
    values = np.array([1.0, 1.0, 1.0, 1.0], dtype=complex)
    support = hi_threshold(values.reshape(2, 2), SparsityProfile((1, 1)))
    assert support.tolist() == [0]


def test_threshold_profile_mismatch():
    x = np.zeros((2, 3), dtype=complex)
    with pytest.raises(DimensionError):
        hi_threshold(x, SparsityProfile((1, 2, 2)))


def test_reference_projection_matches_bruteforce(reference_vector):
    x = reference_vector.reshape(2, 3, 5)
    proj = project(reference_vector, hi_threshold(x, SparsityProfile((1, 2, 2))))
    residual = float(np.linalg.norm(reference_vector - proj))
    best = best_residual_bruteforce(reference_vector, (2, 3, 5), (1, 2, 2))
    assert residual == pytest.approx(best, abs=1e-12)


def test_is_hi_sparse_cases():
    dims = (2, 3, 5)
    profile = SparsityProfile((1, 2, 2))
    assert is_hi_sparse(np.zeros(dims, dtype=complex), profile)

    rng = np.random.default_rng(3)
    values = rng.standard_normal(30) + 0j
    projected = project(values, hi_threshold(values.reshape(dims), profile))
    assert is_hi_sparse(projected.reshape(dims), profile)

    # Two populated outer blocks violate s1 = 1.
    bad = np.zeros(30, dtype=complex)
    bad[0] = 1.0
    bad[15] = 1.0
    assert not is_hi_sparse(bad.reshape(dims), profile)


@settings(derandomize=True, max_examples=300, deadline=None)
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
    profile = SparsityProfile(s)

    support = hi_threshold(values.reshape(dims), profile)
    assert support.dtype == np.int64
    assert np.all(np.diff(support) > 0)
    assert support.size == 0 or (support[0] >= 0 and support[-1] < n)
    proj = project(values, support)
    np.testing.assert_array_equal(np.flatnonzero(proj), support)
    assert is_hi_sparse(proj.reshape(dims), profile)
    residual = float(np.linalg.norm(values - proj))
    assert residual == pytest.approx(best_residual_bruteforce(values, dims, s), abs=1e-12)

    # is_hi_sparse agrees with "supp(x) lies inside some maximal support".
    supports = [set(sup) for sup in brute_force_supports(dims, s)]
    grown = proj.copy()
    if support.size < n:
        grown[data.draw(st.sampled_from(np.flatnonzero(proj == 0).tolist()), label="grow")] = 1.0
    for x in (values, proj, grown):
        inside = any(set(np.flatnonzero(x).tolist()) <= sup for sup in supports)
        assert is_hi_sparse(x.reshape(dims), profile) == inside


def stable_top_mask(energy, k):
    """The k largest entries per row by a full stable sort (test oracle)."""
    mask = np.zeros_like(energy, dtype=bool)
    order = np.argsort(-energy, axis=-1, kind="stable")
    np.put_along_axis(mask, order[..., :k], True, axis=-1)
    return mask


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.data())
def test_top_mask_matches_stable_sort(data):
    dims = tuple(data.draw(st.lists(st.integers(1, 6), min_size=1, max_size=3), label="dims"))
    # Energies from {0, 1, 2, 3}: most rows hold ties at the kth value.
    flat = data.draw(st.lists(st.integers(0, 3), min_size=math.prod(dims),
                              max_size=math.prod(dims)), label="energy")
    energy = np.asarray(flat, dtype=float).reshape(dims)
    for k in range(1, dims[-1] + 1):
        np.testing.assert_array_equal(_top_mask(energy, k), stable_top_mask(energy, k),
                                      err_msg=f"k={k}")
