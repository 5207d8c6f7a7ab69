import itertools

from hypothesis import given, settings, strategies as st
import numpy as np
import pytest

from hisparse.channel import _constrained_pairs, ongrid_draw_can_fail
from hisparse import (
    ChannelParams,
    ChannelPath,
    delay_angular_offgrid,
    dirichlet_sparse,
    dirichlet_vector,
    gen_offgrid,
    gen_ongrid,
    sparse_approx,
    superpose_transfer,
    transfer_from_delay_angular,
)
from hisparse.channel import grid_indices
from oracles import delay_angular_matrix, stack_delay_angular, synthesize_transfer


def test_single_user_single_path():
    rng = np.random.default_rng(0)
    params = ChannelParams(N=32, M=8, D=8, U=1, V=1, L=1)
    r = gen_ongrid(params, rng, "FS")
    X = delay_angular_matrix(r[0], 32, 8, 8)
    assert np.count_nonzero(X) == 1


@pytest.mark.parametrize("name", ["K_V", "K_L"])
@pytest.mark.parametrize("value", [0, -2, 1.5, 2.0, True])
def test_channel_params_refuse_a_bad_per_block_cap(name, value):
    # Refused with a one-line error, not drawn as if it were 1 (K_L <= 0)
    # or failed later as an unsatisfiable draw (K_V = 0).
    with pytest.raises(ValueError, match=f"^{name} must be an integer >= 1, got {value!r}$"):
        ChannelParams(N=64, M=16, D=16, U=2, V=2, L=3, **{name: value})
    ChannelParams(N=64, M=16, D=16, U=2, V=2, L=3, **{name: np.int64(2)})


@pytest.mark.parametrize("build, message", [
    (lambda: ChannelPath(-0.1, 0.5, 1.0), r"^tau_norm -0.1 outside \[0, 1\]$"),
    (lambda: ChannelPath(1.5, 0.5, 1.0), r"^tau_norm 1.5 outside \[0, 1\]$"),
    (lambda: ChannelPath(0.1, -0.2, 1.0), r"^theta -0.2 outside \[0, 1\)$"),
    (lambda: ChannelPath(0.1, 1.0, 1.0), r"^theta 1.0 outside \[0, 1\)$"),
    (lambda: ChannelParams(N=64, M=16, D=16, U=2, V=0, L=3), "^need 1 <= V <= U$"),
    (lambda: ChannelParams(N=64, M=16, D=16, U=2, V=3, L=3), "^need 1 <= V <= U$"),
    (lambda: ChannelParams(N=64, M=16, D=16, U=2, V=2, L=0), "^path count L out of range$"),
    (lambda: ChannelParams(N=64, M=16, D=16, U=2, V=2, L=257), "^path count L out of range$"),
], ids=["tau-below", "tau-above", "theta-below", "theta-at-1", "V-0", "V-above-U", "L-0",
        "L-above-DM"])
def test_paths_and_params_out_of_range_are_refused(build, message):
    with pytest.raises(ValueError, match=message):
        build()
    ChannelPath(1.0, 0.0, 1.0)
    ChannelParams(N=64, M=16, D=16, U=2, V=2, L=256)


def test_ongrid_support_cardinality_is_L():
    rng = np.random.default_rng(1)
    params = ChannelParams(N=64, M=16, D=16, U=2, V=2, L=4)
    for _ in range(50):
        r = gen_ongrid(params, rng, "FS")
        for paths in filter(None, r):
            X = delay_angular_matrix(paths, 64, 16, 16)
            assert np.count_nonzero(X) == 4


def test_fs_angles_globally_distinct():
    rng = np.random.default_rng(2)
    params = ChannelParams(N=64, M=16, D=16, U=4, V=2, L=3)
    for _ in range(1000):
        r = gen_ongrid(params, rng, "FS")
        angles = [p.theta for paths in r for p in paths]
        assert len(set(angles)) == len(angles) == 6


def test_sf_delays_distinct_per_ue():
    rng = np.random.default_rng(3)
    params = ChannelParams(N=64, M=16, D=16, U=4, V=2, L=3)
    for _ in range(300):
        r = gen_ongrid(params, rng, "SF")
        for paths in filter(None, r):
            taus = [p.tau_norm for p in paths]
            assert len(set(taus)) == 3


def test_active_count_and_power_law():
    rng = np.random.default_rng(4)
    params = ChannelParams(N=16, M=8, D=4, U=4, V=2, L=3)
    total = 0.0
    for _ in range(10_000):
        r = gen_ongrid(params, rng, "FS")
        assert len(r) == 4 and sum(1 for paths in r if paths) == 2
        total += np.linalg.norm(stack_delay_angular(r, params, "FS")) ** 2
    assert total / 10_000 == pytest.approx(2.0, rel=0.05)


def test_unsatisfiable_constraints():
    rng = np.random.default_rng(5)
    params = ChannelParams(N=16, M=2, D=4, U=1, V=1, L=3)  # 3 distinct angles from 2
    with pytest.raises(ValueError):
        gen_ongrid(params, rng, "FS")


def scan_constrained_pairs(outer_n, inner_n, L, K_outer_per_ue, rng, shared_counts, K_shared):
    """``_constrained_pairs`` by a scan over every outer value per path (test oracle).

    ``shared_counts`` is a dict {outer value: UEs using it}.
    """
    used: dict[int, set[int]] = {}
    pairs = []
    for _ in range(L):
        allowed = [
            o for o in range(outer_n)
            if len(used.get(o, ())) < min(K_outer_per_ue, inner_n)
            and (
                shared_counts is None
                or o in used
                or shared_counts.get(o, 0) < K_shared
            )
        ]
        if not allowed:
            raise ValueError("hierarchical channel constraints are unsatisfiable")
        o = allowed[int(rng.integers(len(allowed)))]
        taken = used.setdefault(o, set())
        free = [i for i in range(inner_n) if i not in taken]
        i = free[int(rng.integers(len(free)))]
        taken.add(i)
        pairs.append((o, i))
    if shared_counts is not None:
        for o in used:
            shared_counts[o] = shared_counts.get(o, 0) + 1
    return pairs


def test_constrained_pairs_match_scan_oracle():
    # The same rng calls with the same bounds: the same pairs, shared counts,
    # generator state and "unsatisfiable" errors, UE after UE.
    outcomes = set()
    for outer_n, inner_n, L, K, ues, K_shared, shared, seed in itertools.product(
            (1, 2, 3, 6), (1, 2, 4), (1, 2, 3, 7), (1, 2, 3), (1, 3), (1, 2), (False, True), (0, 1)):
        fast_rng, scan_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        fast_counts = np.zeros(outer_n, dtype=np.int64) if shared else None
        scan_counts = {} if shared else None
        for _ in range(ues):
            try:
                expected = scan_constrained_pairs(outer_n, inner_n, L, K, scan_rng, scan_counts, K_shared)
            except ValueError:
                with pytest.raises(ValueError, match="unsatisfiable"):
                    _constrained_pairs(outer_n, inner_n, L, K, fast_rng, fast_counts, K_shared)
                outcomes.add("fails")
                break
            assert _constrained_pairs(outer_n, inner_n, L, K, fast_rng, fast_counts, K_shared) == expected
            assert fast_rng.bit_generator.state == scan_rng.bit_generator.state
            if shared:
                assert {o: int(c) for o, c in enumerate(fast_counts) if c} == scan_counts
            outcomes.add("draws")
    assert outcomes == {"draws", "fails"}


def _draw_fails(params, option, seeds) -> bool:
    for seed in seeds:
        try:
            gen_ongrid(params, np.random.default_rng(seed), option)
        except ValueError:
            return True
    return False


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.data())
def test_ongrid_draw_can_fail_matches_draws(data):
    M = data.draw(st.integers(1, 4), label="M")
    D = data.draw(st.integers(1, 3), label="D")
    U = data.draw(st.integers(1, 3), label="U")
    V = data.draw(st.integers(1, U), label="V")
    L = data.draw(st.integers(1, min(7, D * M)), label="L")
    K_V = data.draw(st.integers(1, 3), label="K_V")
    K_L = data.draw(st.integers(1, 3), label="K_L")
    option = data.draw(st.sampled_from(["FS", "SF"]), label="option")
    params = ChannelParams(N=16, M=M, D=D, U=U, V=V, L=L, K_V=K_V, K_L=K_L)
    if not ongrid_draw_can_fail(M, D, V, L, K_V, K_L, option):
        assert not _draw_fails(params, option, range(5))
    elif K_V == K_L == 1:
        # Every path takes its own angle (FS, not shared between UEs) or its
        # own delay (SF), so every draw fails.
        assert _draw_fails(params, option, [0])


def test_single_path_transfer_closed_form():
    path = ChannelPath(tau_norm=3 / 32, theta=5 / 8, gain=1.0 + 0j)
    H = superpose_transfer([path], 32, 8)
    n, m = np.arange(32)[:, None], np.arange(8)[None, :]
    expected = np.exp(-2j * np.pi * 3 * n / 32) * np.exp(2j * np.pi * 5 * m / 8)
    np.testing.assert_allclose(H, expected, atol=1e-12)
    assert np.linalg.norm(H) == pytest.approx(np.sqrt(32 * 8))


def test_fft_synthesis_matches_superposition():
    rng = np.random.default_rng(6)
    params = ChannelParams(N=64, M=16, D=16, U=2, V=2, L=3)
    for _ in range(20):
        r = gen_ongrid(params, rng, "FS")
        fft_route = synthesize_transfer(r, params)
        sum_route = [superpose_transfer(paths, 64, 16) for paths in r]
        for a, b in zip(fft_route, sum_route):
            assert np.linalg.norm(a - b) <= 1e-10 * max(1.0, np.linalg.norm(b))


def test_zero_paths_zero_transfer():
    params = ChannelParams(N=16, M=4, D=4, U=2, V=1, L=2)
    H = synthesize_transfer([[], [ChannelPath(0.0, 0.0, 1.0)]], params)
    assert np.linalg.norm(H[0]) == 0.0


def test_offgrid_rep_of_grid_path_is_single_spike():
    path = ChannelPath(tau_norm=5 / 16, theta=3 / 16, gain=2.0 - 1.0j)
    H = superpose_transfer([path], 16, 16)
    X = delay_angular_offgrid(H)
    expected = np.zeros((16, 16), dtype=complex)
    expected[5, 3] = 2.0 - 1.0j
    np.testing.assert_allclose(X, expected, atol=1e-12)


def test_offgrid_rep_matches_leakage_closed_form():
    rng = np.random.default_rng(7)
    for _ in range(10):
        paths = [
            ChannelPath(rng.uniform(0, 0.25), rng.uniform(0, 1),
                        complex(rng.standard_normal(), rng.standard_normal()))
            for _ in range(3)
        ]
        H = superpose_transfer(paths, 32, 16)
        X = delay_angular_offgrid(H)
        oracle = np.zeros((32, 16), dtype=complex)
        for p in paths:
            oracle += p.gain * np.outer(dirichlet_vector(32, p.tau_norm),
                                        np.conj(dirichlet_vector(16, p.theta)))
        assert np.linalg.norm(X - oracle) <= 1e-10 * np.linalg.norm(oracle)


def test_perturbed_grid_paths_leak_but_keep_dominant_clusters():
    # Three unit-gain paths nudged slightly off the 16-point grids: the full
    # representation becomes dense, yet the energy peaks stay at the
    # original grid cells.
    rng = np.random.default_rng(14)
    cells = [(2, 5), (7, 11), (12, 3)]
    paths = [
        ChannelPath((k + 0.23) / 16, (l + 0.19) / 16, gain=1.0 + 0j)
        for k, l in cells
    ]
    X = delay_angular_offgrid(superpose_transfer(paths, 16, 16))
    assert np.count_nonzero(np.abs(X) > 1e-12) == 16 * 16
    top3 = np.argsort(np.abs(X).ravel())[-3:]
    peaks = {(int(i // 16), int(i % 16)) for i in top3}
    assert peaks == set(cells)


def test_offgrid_rep_roundtrip():
    rng = np.random.default_rng(8)
    H = rng.standard_normal((16, 8)) + 1j * rng.standard_normal((16, 8))
    X = delay_angular_offgrid(H)
    back = transfer_from_delay_angular(X, 16, 8)
    assert np.linalg.norm(back - H) <= 1e-10 * np.linalg.norm(H)
    assert np.linalg.norm(delay_angular_offgrid(np.zeros((8, 8)))) == 0.0


def test_dirichlet_grid_points_are_basis_vectors():
    for K in (2, 5, 16):
        for k in range(K):
            u = dirichlet_vector(K, k / K)
            e = np.zeros(K, dtype=complex)
            e[k] = 1.0
            np.testing.assert_array_equal(u, e)
    np.testing.assert_array_equal(dirichlet_vector(8, 1.0), dirichlet_vector(8, 0.0))


def test_dirichlet_halfway_moduli():
    u = dirichlet_vector(2, 0.25)
    np.testing.assert_allclose(np.abs(u), 1 / np.sqrt(2), atol=1e-14)


def test_dirichlet_unit_norm_sweep():
    rng = np.random.default_rng(9)
    for K in (2, 16, 64):
        for w in rng.uniform(0, 1, 200):
            assert abs(np.linalg.norm(dirichlet_vector(K, float(w))) - 1.0) <= 1e-12


def test_dirichlet_validation():
    with pytest.raises(ValueError):
        dirichlet_vector(8, 1.5)
    with pytest.raises(ValueError):
        dirichlet_vector(0, 0.5)
    for J in (-1, 4):  # 2J+1 outside [1, K]
        with pytest.raises(ValueError, match=rf"^2J\+1 = {2 * J + 1} outside \[1, 8\]$"):
            dirichlet_sparse(8, 0.5, J)


def test_dirichlet_sparse_kept_indices_are_wraparound_consecutive():
    rng = np.random.default_rng(10)
    for _ in range(50):
        K = int(rng.choice([8, 16, 32]))
        J = int(rng.integers(1, 4))
        w = float(rng.uniform(0, 1))
        kept = np.sort(np.flatnonzero(dirichlet_sparse(K, w, J)))
        assert kept.size == 2 * J + 1
        gaps = np.diff(np.concatenate([kept, [kept[0] + K]]))
        assert np.sum(gaps > 1) <= 1  # at most one jump in circular order


def test_sparse_approx_grid_paths_are_exact():
    paths = [ChannelPath(2 / 16, 5 / 8, gain=1.5 + 0.5j)]
    X_sp, bound = sparse_approx(paths, 1, 1, 16, 8)
    assert np.count_nonzero(X_sp) == 1
    X = delay_angular_offgrid(superpose_transfer(paths, 16, 8))
    assert np.linalg.norm(X - X_sp) <= 1e-12
    assert bound == pytest.approx(2 * abs(paths[0].gain))


def test_sparse_approx_simple_bound_value():
    paths = [ChannelPath(0.1, 0.3, gain=1.0 + 0j)]
    _, bound = sparse_approx(paths, 1, 1, 16, 8)
    assert bound == pytest.approx(2.0)


def test_sparse_approx_error_bound_holds():
    rng = np.random.default_rng(11)
    N = M = 32
    for _ in range(100):
        L = int(rng.choice([1, 3]))
        paths = [
            ChannelPath(rng.uniform(0, 0.25), rng.uniform(0, 1),
                        complex(rng.standard_normal(), rng.standard_normal()))
            for _ in range(L)
        ]
        X = delay_angular_offgrid(superpose_transfer(paths, N, M))
        for L1, L2 in ((1, 1), (2, 4), (4, 2)):
            X_sp, bound = sparse_approx(paths, L1, L2, N, M)
            assert np.linalg.norm(X - X_sp) <= bound
            assert np.count_nonzero(X_sp) <= L * (2 * L1 + 1) * (2 * L2 + 1)


def test_sparse_approx_validation():
    paths = [ChannelPath(0.1, 0.2, 1.0)]
    with pytest.raises(ValueError):
        sparse_approx(paths, 0, 1, 16, 8)
    with pytest.raises(ValueError):
        sparse_approx(paths, 1, 4, 16, 8)  # L2 > (M-1)/2


def test_offgrid_generation_ranges():
    rng = np.random.default_rng(12)
    params = ChannelParams(N=32, M=8, D=8, U=2, V=1, L=5)
    r = gen_offgrid(params, rng)
    assert len(r) == 2
    (paths,) = filter(None, r)
    for p in paths:
        assert 0.0 <= p.tau_norm < 0.25
        assert 0.0 <= p.theta < 1.0
        with pytest.raises(ValueError, match="not on the grid"):
            grid_indices(p, 32, 8)
