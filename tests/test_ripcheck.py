import itertools
import math

from hypothesis import assume, given, settings, strategies as st
import numpy as np
import pytest

from hisparse import (
    BlockShape,
    SparsityProfile,
    extension_rip_check,
    hirip_constant,
    kron_hirip_bound,
    make_design,
    rip_constant,
    ripcheck,
)
from hisparse.blocks import DimensionError
from oracles import iter_hi_supports


def support_deviation(A, support):
    """max(lambda_max - 1, 1 - lambda_min) of one restricted Gram block, solved alone."""
    sub = A[:, list(support)]
    ev = np.linalg.eigvalsh(sub.conj().T @ sub)
    return max(float(ev[-1] - 1.0), float(1.0 - ev[0]))


def pairwise_rip_oracle(A, s):
    """Independent max over all size-s supports via direct eigendecomposition."""
    return max(support_deviation(A, S) for S in itertools.combinations(range(A.shape[1]), s))


def normalized_matrix(rng, rows, cols):
    A = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
    return A / np.linalg.norm(A, axis=0)


def test_orthonormal_columns_give_zero():
    Q, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((12, 6)))
    for s in (1, 2, 3):
        assert rip_constant(Q, s).delta <= 1e-12


def test_duplicate_column_gives_one():
    A = np.zeros((4, 2))
    A[0, 0] = A[0, 1] = 1.0
    report = rip_constant(A, 2)
    assert report.delta == pytest.approx(1.0)
    assert report.witness == (0, 1)


def test_rip_matches_independent_oracle():
    rng = np.random.default_rng(1)
    A = normalized_matrix(rng, 8, 12)
    report = rip_constant(A, 2)
    assert report.supports_checked == 66
    assert report.delta == pytest.approx(pairwise_rip_oracle(A, 2), abs=1e-12)


def test_single_level_hirip_coincides_with_rip():
    rng = np.random.default_rng(2)
    for _ in range(10):
        A = normalized_matrix(rng, 6, 8)
        s = int(rng.integers(1, 5))
        hi = hirip_constant(A, BlockShape((8,)), SparsityProfile((s,)))
        assert abs(hi.delta - rip_constant(A, s).delta) <= 1e-12


def test_hierarchical_never_exceeds_flat():
    rng = np.random.default_rng(3)
    for _ in range(20):
        A = normalized_matrix(rng, 6, 8)
        shape = BlockShape((2, 2, 2))
        s = SparsityProfile((int(rng.integers(1, 3)), int(rng.integers(1, 3)),
                             int(rng.integers(1, 3))))
        d_hi = hirip_constant(A, shape, s).delta
        d_flat = rip_constant(A, min(s.max_support, 8)).delta
        assert d_hi <= d_flat + 1e-12


def test_hirip_matches_independent_support_family():
    rng = np.random.default_rng(4)
    A = normalized_matrix(rng, 6, 8)
    shape, s = BlockShape((2, 2, 2)), SparsityProfile((1, 2, 1))

    # Independent enumeration: one outer block, both middle blocks, one leaf
    # from each middle block.
    best = -1.0
    for outer in range(2):
        for leaf_a in range(2):
            for leaf_b in range(2):
                support = [outer * 4 + 0 * 2 + leaf_a, outer * 4 + 1 * 2 + leaf_b]
                sub = A[:, support]
                ev = np.linalg.eigvalsh(sub.conj().T @ sub)
                best = max(best, float(ev[-1] - 1.0), float(1.0 - ev[0]))

    report = hirip_constant(A, shape, s)
    assert report.supports_checked == 8
    assert report.delta == pytest.approx(best, abs=1e-12)


def test_witness_reproduces_delta():
    rng = np.random.default_rng(5)
    A = normalized_matrix(rng, 7, 10)
    report = rip_constant(A, 3)
    sub = A[:, list(report.witness)]
    ev = np.linalg.eigvalsh(sub.conj().T @ sub)
    dev = max(float(ev[-1] - 1.0), float(1.0 - ev[0]))
    assert dev == pytest.approx(report.delta, abs=1e-10)


def test_kron_bound_orthonormal_factors_zero():
    rng = np.random.default_rng(6)
    Q1, _ = np.linalg.qr(rng.standard_normal((6, 2)))
    Q2, _ = np.linalg.qr(rng.standard_normal((8, 4)))
    s = SparsityProfile((1, 2, 1))
    assert kron_hirip_bound(Q1, Q2, s, "outer-first") <= 1e-12
    exact = hirip_constant(np.kron(Q1, Q2), BlockShape((2, 2, 2)), s).delta
    assert exact <= 1e-12


def test_kron_bound_dominates_exact():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n1, n2, n3 = 2, 2, 2
        s = SparsityProfile((int(rng.integers(1, 3)), int(rng.integers(1, 3)),
                             int(rng.integers(1, 3))))
        A1 = normalized_matrix(rng, int(rng.integers(2, 7)), n1)
        A2 = normalized_matrix(rng, int(rng.integers(3, 8)), n2 * n3)
        exact = hirip_constant(np.kron(A1, A2), BlockShape((n1, n2, n3)), s).delta
        assert exact <= kron_hirip_bound(A1, A2, s, "outer-first") + 1e-10

        B1 = normalized_matrix(rng, int(rng.integers(3, 8)), n1 * n2)
        B2 = normalized_matrix(rng, int(rng.integers(2, 7)), n3)
        exact = hirip_constant(np.kron(B1, B2), BlockShape((n1, n2, n3)), s).delta
        assert exact <= kron_hirip_bound(B1, B2, s, "inner-merged") + 1e-10


def test_kron_bound_degenerate_profile_from_column_norms():
    rng = np.random.default_rng(8)
    A1 = rng.standard_normal((5, 2)) * 0.9
    A2 = rng.standard_normal((6, 4)) * 1.1
    d1 = float(np.max(np.abs(np.linalg.norm(A1, axis=0) ** 2 - 1.0)))
    d2 = float(np.max(np.abs(np.linalg.norm(A2, axis=0) ** 2 - 1.0)))
    bound = kron_hirip_bound(A1, A2, SparsityProfile((1, 1, 1)), "outer-first")
    assert bound == pytest.approx((1 + d1) * (1 + d2) - 1, abs=1e-12)


def test_extension_check_full_sampling_zero():
    d = make_design(16, 4, 4, 2, 16, 4, seed=0)
    chk = extension_rip_check(d, 2)
    assert chk.delta_restricted <= 1e-10
    assert chk.delta_extended <= 1e-10
    assert chk.holds


def test_extension_check_random_seeds():
    for seed in range(25):
        d = make_design(16, 4, 4, 2, 8, 2, seed=seed)
        assert extension_rip_check(d, 2).holds


def test_extension_check_unit_sparsity_zero():
    d = make_design(16, 4, 4, 2, 8, 2, seed=3)
    chk = extension_rip_check(d, 1)
    assert chk.delta_restricted <= 1e-12
    assert chk.delta_extended <= 1e-12


def test_enumeration_caps(monkeypatch):
    with pytest.raises(ValueError):
        hirip_constant(np.eye(64), BlockShape((8, 8)), SparsityProfile((4, 4)))
    with pytest.raises(ValueError):
        rip_constant(np.eye(100), 70)  # Gram block above the eigensolve cap
    # C(12, 4) = 495 supports: within the default cap, and over a cap of 494
    # set after import, since the cap is read at call time.
    assert rip_constant(np.eye(12), 4).supports_checked == 495
    monkeypatch.setattr(ripcheck, "ENUM_CAP", 494)
    with pytest.raises(ValueError, match="495 supports exceed enumeration cap 494"):
        rip_constant(np.eye(12), 4)


def test_more_columns_than_rows_gives_at_least_one():
    # Three unit vectors 60 degrees apart in the plane: a tight frame with
    # A A^H = 1.5 I, so lambda_max - 1 = 0.5 while the rank-2 Gram of all three
    # columns has lambda_min = 0.
    theta = np.arange(3) * np.pi / 3
    A = np.stack([np.cos(theta), np.sin(theta)])
    assert rip_constant(A, 2).delta == pytest.approx(0.5, abs=1e-12)
    assert rip_constant(A, 3).delta == pytest.approx(1.0, abs=1e-12)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.data())
def test_batched_constants_match_per_support_oracle(data):
    # Rows 1-9 against supports of 1-27 columns run both the k x k Gram
    # blocks and the rows x rows A_S A_S^H stand-ins.
    dims = tuple(data.draw(st.lists(st.integers(2, 3), min_size=3, max_size=3), label="dims"))
    s = tuple(data.draw(st.integers(1, n), label="s") for n in dims)
    assume(ripcheck.count_hi_supports(dims, s) <= 300)  # keeps the oracle fast
    n = math.prod(dims)
    k_flat = data.draw(st.sampled_from([k for k in range(1, n + 1) if math.comb(n, k) <= 300]),
                       label="k_flat")
    rows = data.draw(st.integers(1, 9), label="rows")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    # Uneven column norms let either 1 - lambda_min or lambda_max - 1 decide.
    A = normalized_matrix(rng, rows, n) * rng.uniform(0.3, 1.3, n)

    cases = (
        (hirip_constant(A, BlockShape(dims), SparsityProfile(s)),
         list(iter_hi_supports(dims, s))),
        (rip_constant(A, k_flat), list(itertools.combinations(range(n), k_flat))),
    )
    for report, supports in cases:
        assert report.supports_checked == len(supports)
        assert report.delta == pytest.approx(
            max(support_deviation(A, S) for S in supports), abs=1e-12)
        assert report.witness in supports
        assert support_deviation(A, report.witness) == pytest.approx(report.delta, abs=1e-10)


def chunked(monkeypatch, length, k, rows):
    """Make every batched eigensolve take ``length`` supports of size k."""
    monkeypatch.setattr(ripcheck, "_CHUNK_ENTRIES", length * k * min(k, rows))


# On 4 rows: both supports fit the rows, then both exceed them.
@pytest.mark.parametrize("k, s", [(3, (1, 4)), (6, (3, 3))])
def test_chunk_boundaries_keep_delta_and_witness(monkeypatch, k, s):
    A = normalized_matrix(np.random.default_rng(9), 4, 12)
    shape, profile = BlockShape((3, 4)), SparsityProfile(s)
    default = (rip_constant(A, k), hirip_constant(A, shape, profile))
    for length in (1, 3):
        chunked(monkeypatch, length, k, 4)
        flat = rip_constant(A, k)
        chunked(monkeypatch, length, profile.max_support, 4)
        hi = hirip_constant(A, shape, profile)
        for got, want in zip((flat, hi), default):
            assert (got.delta, got.witness) == (want.delta, want.witness)


# Three levels: 12 child supports per chosen outer block, so each outer
# combination spans 144 supports and lengths 1, 5 and 7 cut inside it.
@pytest.mark.parametrize("rows", [4, 3])  # k = 4 fits the rows, then exceeds them
def test_chunk_boundaries_on_three_levels(monkeypatch, rows):
    A = normalized_matrix(np.random.default_rng(12), rows, 18)
    shape, profile = BlockShape((3, 3, 2)), SparsityProfile((2, 2, 1))
    default = (rip_constant(A, 4), hirip_constant(A, shape, profile))
    assert default[1].supports_checked == 432
    for length in (1, 5, 7):
        chunked(monkeypatch, length, 4, rows)
        for got, want in zip((rip_constant(A, 4), hirip_constant(A, shape, profile)), default):
            assert (got.delta, got.witness) == (want.delta, want.witness)


@pytest.mark.parametrize("k", [2, 5])  # k <= rows and k > rows
@pytest.mark.parametrize("length", [None, 1, 3])
def test_exact_ties_pick_first_support(monkeypatch, k, length):
    A = np.ones((3, 6)) / math.sqrt(3)  # identical columns: every support ties
    if length is not None:
        chunked(monkeypatch, length, k, 3)
    report = rip_constant(A, k)
    assert report.witness == tuple(range(k))
    assert report.delta == pytest.approx(max(k - 1.0, 1.0), abs=1e-12)
    shape, profile = BlockShape((2, 3)), SparsityProfile((2, k // 2))
    first = next(iter_hi_supports(shape.dims, profile.s))
    if length is not None:
        chunked(monkeypatch, length, profile.max_support, 3)
    assert hirip_constant(A, shape, profile).witness == first


@pytest.mark.parametrize("k", [2, 5])  # k <= rows and k > rows
def test_eigensolve_uses_smaller_side(monkeypatch, k):
    sides = []
    solve = np.linalg.eigvalsh

    def recording(blocks):
        sides.append(blocks.shape[1:])
        return solve(blocks)

    monkeypatch.setattr(np.linalg, "eigvalsh", recording)
    rip_constant(normalized_matrix(np.random.default_rng(4), 3, 7), k)
    assert sides and set(sides) == {(min(k, 3), min(k, 3))}


@pytest.mark.parametrize("bad", ["nan", "inf", "1-D", "no rows"])
def test_bad_matrices_are_refused(bad):
    A = np.eye(4)
    if bad == "1-D":
        A = np.ones(4)
    elif bad == "no rows":
        A = np.zeros((0, 4))
    else:
        A[1, 2] = float(bad)
    with pytest.raises(ValueError):
        rip_constant(A, 2)
    with pytest.raises(ValueError):
        hirip_constant(A, BlockShape((2, 2)), SparsityProfile((1, 1)))


@pytest.mark.parametrize("call, message", [
    (lambda: rip_constant(np.eye(4), 0), r"^sparsity 0 outside \[1, 4\]$"),
    (lambda: rip_constant(np.eye(4), 5), r"^sparsity 5 outside \[1, 4\]$"),
    (lambda: hirip_constant(np.eye(4), BlockShape((2, 3)), SparsityProfile((1, 1))),
     "^matrix width 4 != block layout total 6$"),
    (lambda: kron_hirip_bound(np.eye(2), np.eye(4), SparsityProfile((1, 1)), "outer-first"),
     "^bound is stated for 3-level profiles$"),
    (lambda: kron_hirip_bound(np.eye(2), np.eye(4), SparsityProfile((1, 1, 1)), "sideways"),
     "^unknown grouping 'sideways'$"),
], ids=["rip-s-0", "rip-s-above-cols", "hirip-width", "kron-levels", "kron-grouping"])
def test_sizes_that_do_not_fit_are_refused(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def unpruned_scan(A, supports, k):
    """The scan before Gershgorin pruning: every support's block is eigensolved."""
    rows = A.shape[0]
    smaller_side = k > rows
    if not smaller_side:
        G = A.conj().T @ A
    chunk = max(1, ripcheck._CHUNK_ENTRIES // (k * min(k, rows)))
    row = np.dtype((np.int64, (k,)))
    best = -1.0
    witness: tuple[int, ...] = ()
    while len(idx := np.fromiter(itertools.islice(supports, chunk), dtype=row)):
        if smaller_side:
            cols = A.T[idx]
            ev = np.linalg.eigvalsh(cols.transpose(0, 2, 1) @ cols.conj())
            dev = np.maximum(ev[:, -1] - 1.0, 1.0)
        else:
            ev = np.linalg.eigvalsh(G[idx[:, :, None], idx[:, None, :]])
            dev = np.maximum(ev[:, -1] - 1.0, 1.0 - ev[:, 0])
        j = int(np.argmax(dev))
        if dev[j] > best:
            best = float(dev[j])
            witness = tuple(idx[j].tolist())
    return best, witness


def sorting_iter_hi_supports(dims, s, base=0):
    """The support generator before it dropped its per-support ``sorted``."""
    n, k = dims[0], s[0]
    if len(dims) == 1:
        yield from itertools.combinations(range(base, base + n), k)
        return
    stride = math.prod(dims[1:])
    for blocks in itertools.combinations(range(n), k):
        subs = [list(sorting_iter_hi_supports(dims[1:], s[1:], base + b * stride))
                for b in blocks]
        for choice in itertools.product(*subs):
            yield tuple(sorted(itertools.chain.from_iterable(choice)))


@settings(derandomize=True, max_examples=100, deadline=None)
@given(st.data())
def test_hi_supports_come_sorted_in_the_old_order(data):
    dims = tuple(data.draw(st.lists(st.integers(1, 4), min_size=1, max_size=3), label="dims"))
    s = tuple(data.draw(st.integers(1, n), label="s") for n in dims)
    assume(ripcheck.count_hi_supports(dims, s) <= 2000)
    supports = list(iter_hi_supports(dims, s))
    assert supports == list(sorting_iter_hi_supports(dims, s))
    assert all(a < b for S in supports for a, b in zip(S, S[1:]))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.data())
def test_unranked_rows_match_the_generator(data):
    dims = tuple(data.draw(st.lists(st.integers(1, 4), min_size=1, max_size=3), label="dims"))
    s = tuple(data.draw(st.integers(1, n), label="s") for n in dims)
    count = ripcheck.count_hi_supports(dims, s)
    assume(count <= 2000)
    supports = list(iter_hi_supports(dims, s))
    assert len(supports) == count
    # Supports per outer combination: the window around the first outer
    # boundary splits a child product whenever that product exceeds one.
    product = count // math.comb(dims[0], s[0])
    windows = [(0, count), (max(0, product - 1), min(count, product + 1))]
    for _ in range(3):
        start = data.draw(st.integers(0, count - 1), label="start")
        windows.append((start, data.draw(st.integers(start + 1, count), label="stop")))
    unrank = ripcheck._unranker(dims, s)
    for start, stop in windows:
        rows = unrank(np.arange(start, stop))
        assert rows.dtype == np.int64 and rows.shape == (stop - start, math.prod(s))
        assert [tuple(r) for r in rows.tolist()] == supports[start:stop]


# Counts near ENUM_CAP: (2, 5, 5) with (2, 2, 2) has exactly 1,000,000.
@pytest.mark.parametrize("dims, s", [((43,), (5,)), ((4, 28), (2, 2)), ((2, 5, 5), (2, 2, 2))])
def test_unranking_reaches_both_ends_near_the_cap(dims, s):
    count = ripcheck.count_hi_supports(dims, s)
    assert 0.8 * ripcheck.ENUM_CAP < count <= ripcheck.ENUM_CAP
    first = next(iter_hi_supports(dims, s))
    # Reflecting i -> N - 1 - i reverses every level's block order, so it maps
    # the first support in enumeration order to the last.
    last = tuple(sorted(math.prod(dims) - 1 - i for i in first))
    rows = ripcheck._unranker(dims, s)(np.array([0, count - 1]))
    assert [tuple(r) for r in rows.tolist()] == [first, last]


def test_count_refuses_profiles_that_do_not_fit():
    assert ripcheck.count_hi_supports((2, 3), (1, 2)) == 6
    for s in [(1,), (1, 1, 1), (3, 1), (1, 4)]:
        with pytest.raises(DimensionError):
            ripcheck.count_hi_supports((2, 3), s)


def assert_matches_unpruned(monkeypatch, A, shape, profile, k, length):
    """Both constants of ``A`` equal the unpruned oracle's in every bit.

    ``length`` None keeps the default chunks; otherwise every batched
    eigensolve, pruned and oracle alike, takes ``length`` supports.
    """
    A = np.asarray(A, dtype=np.complex128)  # as the constants see it
    rows, n = A.shape
    cases = (
        (lambda: hirip_constant(A, shape, profile),
         lambda: iter_hi_supports(shape.dims, profile.s), profile.max_support),
        (lambda: rip_constant(A, k), lambda: itertools.combinations(range(n), k), k),
    )
    for constant, supports, size in cases:
        with monkeypatch.context() as patch:
            if length is not None:
                chunked(patch, length, size, rows)
            report = constant()
            want = (*unpruned_scan(A, supports(), size), sum(1 for _ in supports()))
        assert (report.delta, report.witness, report.supports_checked) == want


@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.data())
def test_pruned_scan_matches_unpruned_oracle(data):
    # Rows 1-9 against supports of 1-27 columns run both the k x k Gram
    # blocks and the rows x rows A_S A_S^H stand-ins.
    dims = tuple(data.draw(st.lists(st.integers(2, 3), min_size=1, max_size=3), label="dims"))
    s = tuple(data.draw(st.integers(1, n), label="s") for n in dims)
    assume(ripcheck.count_hi_supports(dims, s) <= 2000)
    n = math.prod(dims)
    k_flat = data.draw(st.sampled_from([k for k in range(1, n + 1) if math.comb(n, k) <= 2000]),
                       label="k_flat")
    rows = data.draw(st.integers(1, 9), label="rows")
    length = data.draw(st.sampled_from([None, 1, 3]), label="length")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    # Uneven column norms let either 1 - lambda_min or lambda_max - 1 decide.
    A = normalized_matrix(rng, rows, n) * rng.uniform(0.3, 1.3, n)
    with pytest.MonkeyPatch.context() as monkeypatch:
        assert_matches_unpruned(monkeypatch, A, BlockShape(dims), SparsityProfile(s), k_flat,
                                length)


def degenerate_matrix(kind):
    rng = np.random.default_rng(10)
    if kind == "identical":  # every support ties
        return np.ones((3, 6)) / math.sqrt(3)
    if kind == "orthonormal":  # every deviation is 0
        return np.linalg.qr(rng.standard_normal((6, 6)))[0]
    if kind == "uneven orthogonal":  # Gershgorin is tight up to rounding
        # A seed whose eigvalsh rounding, at k = 5, lands above a bound taken
        # with no margin.
        tight = np.random.default_rng(1)
        return np.linalg.qr(tight.standard_normal((6, 6)))[0] * tight.uniform(0.3, 1.3, 6)
    A = normalized_matrix(rng, 3, 6)
    if kind == "zero column":
        A[:, 2] = 0.0
    else:  # duplicated column pair
        A[:, 4] = A[:, 1]
    return A


@pytest.mark.parametrize("kind", ["identical", "orthonormal", "uneven orthogonal", "zero column",
                                  "duplicated pair"])
@pytest.mark.parametrize("k", [2, 5])  # k <= rows, and k > rows on three rows
@pytest.mark.parametrize("length", [None, 1, 3])
def test_pruned_scan_matches_oracle_on_degenerate_columns(monkeypatch, kind, k, length):
    assert_matches_unpruned(monkeypatch, degenerate_matrix(kind), BlockShape((2, 3)),
                            SparsityProfile((2, k // 2)), k, length)


# The benchmark's hirip-enum layouts: three levels of 2-3 blocks.
HIRIP_LADDER = (
    ((2, 3, 3), (2, 2, 1)),
    ((3, 3, 2), (3, 1, 1)),
    ((3, 2, 2), (2, 1, 2)),
    ((2, 2, 3), (1, 2, 2)),
)


@pytest.mark.parametrize("dims, s", HIRIP_LADDER)
def test_pruning_eigensolves_few_supports(monkeypatch, dims, s):
    # ... and keeps both constants equal to the unpruned oracle's in every bit.
    solved = []
    solve = np.linalg.eigvalsh

    def recording(blocks):
        solved.append(len(blocks))
        return solve(blocks)

    rng = np.random.default_rng(11)
    shape, profile = BlockShape(dims), SparsityProfile(s)
    checked = 0
    for rows in range(4, 10):
        A = normalized_matrix(rng, rows, shape.total)
        with monkeypatch.context() as patch:
            patch.setattr(np.linalg, "eigvalsh", recording)
            checked += hirip_constant(A, shape, profile).supports_checked
            checked += rip_constant(A, profile.max_support).supports_checked
        assert_matches_unpruned(monkeypatch, A, shape, profile, profile.max_support, None)
    assert sum(solved) < 0.25 * checked


# Supports of 8 and 9 columns, past the width where the bound's column-by-column
# sums can round unlike numpy's reduction; 10 rows hold them, 6 do not.
@pytest.mark.parametrize("k, dims, s", [(8, (2, 6), (2, 4)), (9, (3, 4), (3, 3))])
@pytest.mark.parametrize("rows", [10, 6])
@pytest.mark.parametrize("length", [None, 1, 3])
def test_wide_supports_match_unpruned_oracle(monkeypatch, k, dims, s, rows, length):
    rng = np.random.default_rng(k * rows)
    A = normalized_matrix(rng, rows, 12) * rng.uniform(0.3, 1.3, 12)
    assert_matches_unpruned(monkeypatch, A, BlockShape(dims), SparsityProfile(s), k, length)


# k <= rows with lambda_max - 1 deciding, then 1 - lambda_min (a rank-one
# block has lambda_min = 0), and k > rows.
@pytest.mark.parametrize("rows, k, entry", [(4, 2, 1.0), (4, 2, 0.25), (2, 3, 1.0)])
@pytest.mark.parametrize("length", [None, 1, 3])
def test_duplicated_columns_keep_the_first_maximiser(monkeypatch, rows, k, entry, length):
    # Four exact copies of one column among small ones: every k of the copies
    # make the same block, whose deviation is the largest, so the witness is
    # the first k copies, also when each support is a chunk of its own.
    A = 0.3 * normalized_matrix(np.random.default_rng(13), rows, 8)
    copies = [1, 3, 4, 6]
    A[:, copies] = entry
    assert_matches_unpruned(monkeypatch, A, BlockShape((2, 4)), SparsityProfile((2, k - 1)), k,
                            length)
    if length is not None:
        chunked(monkeypatch, length, k, rows)
    assert rip_constant(A, k).witness == tuple(copies[:k])
