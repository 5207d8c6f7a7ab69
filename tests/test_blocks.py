from collections import Counter
import itertools
import math
import threading
from unittest import mock

from hypothesis import assume, given, settings, strategies as st
import numpy as np
import pytest

import hisparse.blocks
from hisparse import (
    BlockShape,
    DimensionError,
    RecoveryConfig,
    SparsityProfile,
    hi_threshold,
    rip_constant,
)
from hisparse.blocks import _top_mask, squared_moduli, work_buffer
from hisparse.ripcheck import count_hi_supports
from conftest import REFERENCE_HIER_SUPPORT, REFERENCE_FLAT_SUPPORT
from oracles import is_hi_sparse, mask_hi_threshold


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


def threshold(x, s):
    """hi_threshold on the squared moduli of complex x."""
    return hi_threshold(squared_moduli(x), s)


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
    with pytest.raises(DimensionError, match="mismatched shape"):
        SparsityProfile((1, 1)).clip(BlockShape((4,)))
    # A flat vector not reshaped to its block dims has too few levels.
    flat = np.zeros(30, dtype=complex)
    with pytest.raises(DimensionError):
        threshold(flat, SparsityProfile((1, 2, 2)))
    with pytest.raises(DimensionError):
        is_hi_sparse(flat, SparsityProfile((1, 2, 2)))


def test_reference_vector_hierarchical_support(reference_vector):
    x = reference_vector.reshape(2, 3, 5)
    support = threshold(x, SparsityProfile((1, 2, 2)))
    assert set(support.tolist()) == REFERENCE_HIER_SUPPORT


def test_reference_vector_flat_support(reference_vector):
    support = threshold(reference_vector, SparsityProfile((4,)))
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
        proj = project(values, threshold(values.reshape(dims), profile))
        residual = float(np.linalg.norm(values - proj))
        assert residual <= best_residual_bruteforce(values, dims, s) + 1e-12


def test_threshold_idempotent():
    rng = np.random.default_rng(7)
    shape, profile = BlockShape((3, 4, 2)), SparsityProfile((2, 2, 1))
    for _ in range(10):
        values = rng.standard_normal(24) + 1j * rng.standard_normal(24)
        first = project(values, threshold(values.reshape(shape.dims), profile))
        second = project(first, threshold(first.reshape(shape.dims), profile))
        np.testing.assert_array_equal(first, second)


def test_single_level_reduces_to_top_k():
    rng = np.random.default_rng(11)
    values = rng.standard_normal(40) + 1j * rng.standard_normal(40)
    support = threshold(values, SparsityProfile((6,)))
    expected = set(np.argsort(np.abs(values))[-6:])
    assert set(support.tolist()) == expected
    # Flat best-k semantics: equal moduli go to the lowest index, and with
    # k >= n every nonzero is kept while exact zeros are dropped.
    tied = np.array([1, -1, 1j, 2, -1j, 0.5, 1], dtype=complex)
    for k, expected in ((3, [0, 1, 3]), (4, [0, 1, 2, 3])):
        support = threshold(tied, SparsityProfile((k,)))
        np.testing.assert_array_equal(support, expected)
    sparse = np.array([0, 1, 0, 2j, 0.5, 0], dtype=complex)
    support = threshold(sparse, SparsityProfile((6,)))
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
    support = threshold(np.zeros((2, 3, 5), dtype=complex), SparsityProfile((1, 2, 2)))
    assert len(support) == 0


def test_threshold_ties_go_to_lowest_index():
    values = np.array([1.0, 1.0, 1.0, 1.0], dtype=complex)
    support = threshold(values.reshape(2, 2), SparsityProfile((1, 1)))
    assert support.tolist() == [0]


def test_threshold_refuses_input_that_is_not_real_floating_point(monkeypatch):
    # Complex x (an old-style call) or integers are refused before any selection runs.
    def no_selection(*args):
        raise AssertionError("selection ran")
    monkeypatch.setattr(hisparse.blocks, "_top_mask", no_selection)
    monkeypatch.setattr(np, "argmax", no_selection)
    for bad in (np.ones((2, 3, 5), dtype=complex), np.ones((2, 3, 5), dtype=np.int64), [[1, 2], [3, 4]]):
        with pytest.raises(DimensionError, match="real squared moduli") as err:
            hi_threshold(bad, SparsityProfile((1, 2, 2)) if np.ndim(bad) == 3 else SparsityProfile((1, 1)))
        assert "\n" not in str(err.value)
    monkeypatch.undo()
    assert hi_threshold(np.ones((2, 2), dtype=np.float32), SparsityProfile((1, 1))).tolist() == [0]


def test_threshold_profile_mismatch():
    x = np.zeros((2, 3), dtype=complex)
    with pytest.raises(DimensionError):
        threshold(x, SparsityProfile((1, 2, 2)))


def test_reference_projection_matches_bruteforce(reference_vector):
    x = reference_vector.reshape(2, 3, 5)
    proj = project(reference_vector, threshold(x, SparsityProfile((1, 2, 2))))
    residual = float(np.linalg.norm(reference_vector - proj))
    best = best_residual_bruteforce(reference_vector, (2, 3, 5), (1, 2, 2))
    assert residual == pytest.approx(best, abs=1e-12)


def test_is_hi_sparse_cases():
    dims = (2, 3, 5)
    profile = SparsityProfile((1, 2, 2))
    assert is_hi_sparse(np.zeros(dims, dtype=complex), profile)

    rng = np.random.default_rng(3)
    values = rng.standard_normal(30) + 0j
    projected = project(values, threshold(values.reshape(dims), profile))
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

    support = threshold(values.reshape(dims), profile)
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


# Block layouts the benchmark workloads select under: the small off-grid sweep
# (FS, HiIHT/HiHTP at L1 = 1 and 2; flat IHT with k = 45 and 75) and the paper
# size. Then two on-grid layouts at the small preset that no workload runs, each
# with a keep-all level of more than one block: SF with V = U = 4 (dims (U, D, M),
# s = (V, L, K_L)) and FS with K_V = U = 4 (dims (M, U, D), s = (V*L, K_V, K_L)).
WORKLOAD_LAYOUTS = [((64, 1, 32), (15, 1, 3)), ((64, 1, 32), (15, 1, 5)),
                    ((2048,), (45,)), ((2048,), (75,)), ((256, 4, 256), (6, 1, 1)),
                    ((4, 32, 64), (4, 3, 1)), ((64, 4, 32), (6, 4, 1))]


def _tie_passes(energy, k):
    """(_top_mask(energy, k), how many times its tie pass ran)."""
    with mock.patch.object(hisparse.blocks.np, "cumsum", wraps=np.cumsum) as cumsum:
        mask = _top_mask(energy, k)
    return mask, cumsum.call_count


def test_top_mask_skips_the_tie_pass_when_no_row_ties():
    # Continuous energies at the workload layouts' innermost and top levels:
    # no row holds a tie, so the partition's comparison is the mask.
    rng = np.random.default_rng(5)
    cases = [(dims, s[-1]) for dims, s in WORKLOAD_LAYOUTS] + [((dims[0],), s[0]) for dims, s in WORKLOAD_LAYOUTS]
    cases = [(shape, k) for shape, k in cases if k < shape[-1]]
    assert {shape for shape, _ in cases} == {(64, 1, 32), (64,), (2048,), (256, 4, 256), (256,),
                                            (4, 32, 64), (64, 4, 32)}
    for shape, k in cases:
        energy = rng.random(shape)
        assert np.unique(energy).size == energy.size
        mask, tie_passes = _tie_passes(energy, k)
        assert tie_passes == 0, (shape, k)
        np.testing.assert_array_equal(mask, stable_top_mask(energy, k), err_msg=f"{shape} k={k}")


def test_top_mask_runs_the_tie_pass_when_one_row_ties():
    rng = np.random.default_rng(6)
    energy = rng.random((5, 7))
    energy[3] = [0.5, 2.0, 0.0, 2.0, 2.0, 1.0, 2.0]  # four entries tie at the 2nd largest
    for k in (1, 2, 3):
        mask, tie_passes = _tie_passes(energy, k)
        assert tie_passes == 1
        np.testing.assert_array_equal(mask, stable_top_mask(energy, k), err_msg=f"k={k}")
    # A NaN compares false, so the tie pass never keeps one; the count of
    # entries below the kth value must see the tie in the second row, although
    # the NaN row's shortfall evens out the count of entries at or above it.
    energy = np.array([[np.nan, 5.0, 1.0], [3.0, 3.0, 3.0]])
    mask, tie_passes = _tie_passes(energy, 2)
    assert tie_passes == 1
    np.testing.assert_array_equal(mask, [[False, True, False], [True, True, False]])


def test_top_down_support_matches_the_mask_oracle():
    # The top-down assembly from squared moduli returns the very support array
    # of the mask-AND selection from complex x.
    seen = Counter()

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(st.data())
    def check(data):
        if data.draw(st.booleans(), label="workload layout"):
            dims, s = data.draw(st.sampled_from(WORKLOAD_LAYOUTS), label="layout")
            rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
            n = math.prod(dims)
            if data.draw(st.booleans(), label="ties"):
                raw = rng.integers(-2, 3, 2 * n).astype(float)   # ties and exact zeros
            else:
                raw = rng.standard_normal(2 * n) * (rng.random(2 * n) < 0.3)
        else:
            dims = tuple(data.draw(st.lists(st.integers(1, 5), min_size=1, max_size=4), label="dims"))
            s = tuple(data.draw(st.integers(1, n), label="s") for n in dims)
            n = math.prod(dims)
            part = st.one_of(st.integers(-2, 2), st.floats(-4, 4, allow_subnormal=False))
            raw = np.asarray(data.draw(st.lists(part, min_size=2 * n, max_size=2 * n),
                                       label="values"), dtype=float)
        x = (raw[:n] + 1j * raw[n:]).reshape(dims)
        profile = SparsityProfile(s)
        expected = mask_hi_threshold(x, profile)
        got = hi_threshold(squared_moduli(x), profile)
        assert got.dtype == expected.dtype == np.int64
        assert got.tobytes() == expected.tobytes()
        moduli = squared_moduli(x).reshape(-1)
        seen["ties"] += np.unique(moduli).size < moduli.size
        seen["zeros"] += bool(np.any(moduli == 0.0))
        seen["size-1 level"] += 1 in dims
        seen["s = N level"] += any(si == ni > 1 for si, ni in zip(s, dims))
        seen[dims] += 1

    check()
    assert all(seen[key] > 0 for key in ("ties", "zeros", "size-1 level", "s = N level"))
    assert all(seen[dims] > 0 for dims, _ in WORKLOAD_LAYOUTS)


# Root sparsities that reach each of the root's two picks: argmax (s1 = 1) and
# the top-k mask, both below N1 and at s1 >= N1, where the mask keeps every
# block. Each is crossed with a size-1 level at the root, in the middle and
# innermost, and with none. Then layouts with a keep-all level of more than one
# block in the middle, innermost or both; tiny SF V = U and FS K_V = U shapes;
# several size-1 levels at once; and layouts of all ones.
ROOT_BRANCH_LAYOUTS = [
    (dims, (s1,) + tuple(min(2, n) for n in dims[1:]))
    for dims in ((3, 2, 3), (1, 2, 3), (3, 1, 3), (3, 2, 1), (5,))
    for s1 in sorted({dims[0], 1, min(2, dims[0])})
] + [
    ((3, 3, 2), (2, 3, 1)), ((3, 2, 3), (2, 1, 3)), ((2, 3, 2), (1, 3, 2)),
    ((2, 4, 3), (2, 2, 1)), ((4, 2, 3), (2, 2, 1)),
    ((1, 3, 1), (1, 2, 1)), ((3, 1, 1, 2), (2, 1, 1, 1)), ((1, 1, 4), (1, 1, 2)),
    ((1,), (1,)), ((1, 1, 1), (1, 1, 1)),
]


@pytest.mark.parametrize("dims, s", ROOT_BRANCH_LAYOUTS, ids=[f"{d}-{s}" for d, s in ROOT_BRANCH_LAYOUTS])
def test_every_root_branch_matches_the_oracles(dims, s):
    # The root forms no energy and size-1 levels are dropped; the support is
    # still the mask oracle's array, in every bit, and attains the brute force's
    # best residual, with continuous values, ties and exact zeros.
    rng = np.random.default_rng(sum(dims) + 7 * sum(s))
    profile = SparsityProfile(s)
    n = math.prod(dims)
    for raw in (rng.standard_normal(2 * n), rng.integers(-1, 2, 2 * n).astype(float),
                np.ones(2 * n), np.zeros(2 * n)):
        x = (raw[:n] + 1j * raw[n:]).reshape(dims)
        got = hi_threshold(squared_moduli(x), profile)
        assert got.dtype == np.int64
        assert got.tobytes() == mask_hi_threshold(x, profile).tobytes()
        values = x.reshape(-1)
        residual = float(np.linalg.norm(values - project(values, got)))
        assert residual == pytest.approx(best_residual_bruteforce(values, dims, s), abs=1e-12)


@pytest.mark.parametrize("dims, s", ROOT_BRANCH_LAYOUTS + WORKLOAD_LAYOUTS,
                         ids=[f"{d}-{s}" for d, s in ROOT_BRANCH_LAYOUTS + WORKLOAD_LAYOUTS])
def test_nan_moduli_match_the_mask_oracle(dims, s):
    # A NaN modulus has no best residual to reach, so only the mask oracle is
    # checked; the support never holds a NaN entry (NaN > 0 is false).
    rng = np.random.default_rng(sum(dims) + 3 * sum(s))
    profile = SparsityProfile(s)
    n = math.prod(dims)
    for frac in (0.1, 0.5, 1.0):
        raw = rng.integers(-1, 2, 2 * n).astype(float)
        raw[:n][rng.random(n) < frac] = np.nan
        x = (raw[:n] + 1j * raw[n:]).reshape(dims)
        got = hi_threshold(squared_moduli(x), profile)
        assert got.dtype == np.int64
        assert got.tobytes() == mask_hi_threshold(x, profile).tobytes()
        assert not np.isnan(squared_moduli(x).reshape(-1)[got]).any()
