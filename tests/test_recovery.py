from collections import Counter
from concurrent.futures import ThreadPoolExecutor
import hashlib
import math
import threading
import tracemalloc
from unittest import mock

from hypothesis import given, settings, strategies as st
import numpy as np
import pytest

import hisparse.operators
import hisparse.recovery
from hisparse import (
    BlockShape,
    DimensionError,
    GuaranteeVoidError,
    KroneckerSensingOperator,
    RecoveryConfig,
    SparsityProfile,
    contraction_constants,
    hi_threshold,
    make_design,
    min_overhead,
    solve,
    squared_moduli,
)
from hisparse.channel import ChannelParams, gen_offgrid, superpose_transfer
from hisparse.design import PilotDesign
from hisparse.operators import flat_index, vectorize
from hisparse.simulate import (
    ChannelConfig,
    Condition,
    ExperimentConfig,
    SystemConfig,
    observed_matrix,
    run_trial,
)
from oracles import DenseOperator, is_hi_sparse, step_route, textbook_threshold_loop


def dense_forward(op, x):
    """A @ x for a dense x, through the support-driven forward."""
    nz = np.flatnonzero(x)
    return op.forward(nz, x[nz])


def single_path_setup(seed=1):
    d = make_design(16, 4, 4, 1, 16, 4, seed=seed)
    op = KroneckerSensingOperator(d, "FS")
    x = np.zeros(op.in_dim, dtype=complex)
    x[7] = 1.5 - 0.5j
    return op, x, dense_forward(op, x)


def test_hi_iht_single_path_exact():
    op, x, y = single_path_setup()
    cfg = RecoveryConfig(algorithm="HiIHT", profile=SparsityProfile((1, 1, 1)))
    res = solve(y, op, cfg)
    np.testing.assert_allclose(res.x_hat, x, atol=1e-12)
    np.testing.assert_array_equal(res.support, [7])
    assert res.iterations <= 2


def test_hi_htp_single_path_exact():
    op, x, y = single_path_setup()
    cfg = RecoveryConfig(algorithm="HiHTP", profile=SparsityProfile((1, 1, 1)))
    res = solve(y, op, cfg)
    np.testing.assert_allclose(res.x_hat, x, atol=1e-12)
    assert res.residual_norm <= 1e-12


def test_omp_single_path_exact():
    op, x, y = single_path_setup()
    res = solve(y, op, RecoveryConfig(algorithm="OMP", profile=SparsityProfile((1, 1, 1))))
    np.testing.assert_allclose(res.x_hat, x, atol=1e-12)
    assert res.iterations == 1


def test_stop_names_the_exit_that_ended_the_run():
    # "support-cycle" is checked on cycling solves in
    # test_cycle_exit_replays_the_full_run.
    op, _, y = single_path_setup()
    profile = SparsityProfile((1, 1, 1))
    for algorithm in ("HiIHT", "HiHTP", "IHT", "HTP"):
        capped = solve(y, op, RecoveryConfig(algorithm=algorithm, profile=profile, max_iters=1))
        assert (capped.iterations, capped.stop) == (1, "max-iters")
        converged = solve(y, op, RecoveryConfig(algorithm=algorithm, profile=profile))
        assert (converged.iterations, converged.stop) == (2, "support-repeat")

    def omp(y, s):
        res = solve(y, op, RecoveryConfig(algorithm="OMP", profile=SparsityProfile(s)))
        return res.iterations, res.stop

    # One path: one pick is all k = 1 allows, and leaves no residual for a second.
    assert omp(y, (1, 1, 1)) == (1, "k-picks")
    assert omp(y, (1, 1, 2)) == (1, "residual")
    assert omp(np.zeros_like(y), (1, 1, 2)) == (0, "residual")
    noise = [0.1, 0.1j] @ np.random.default_rng(0).standard_normal((2, y.size))
    assert omp(y + noise, (1, 1, 2)) == (2, "k-picks")


def test_zero_measurement_gives_zero_estimate():
    op, _, _ = single_path_setup()
    y = np.zeros(op.out_dim, dtype=complex)
    for cfg in (
        RecoveryConfig(algorithm="HiIHT", profile=SparsityProfile((2, 1, 2))),
        RecoveryConfig(algorithm="IHT", profile=SparsityProfile((2, 1, 2))),
        RecoveryConfig(algorithm="HiHTP", profile=SparsityProfile((2, 1, 2))),
        RecoveryConfig(algorithm="HTP", profile=SparsityProfile((2, 1, 2))),
    ):
        res = solve(y, op, cfg)
        assert not res.x_hat.any()
    res = solve(y, op, RecoveryConfig(algorithm="OMP", profile=SparsityProfile((3, 1, 1))))
    assert not res.x_hat.any()
    assert res.support.size == 0
    # The pursuit solves above refit on an empty support with Mp = M = 4.
    for Mp in (4, 3):
        op = KroneckerSensingOperator(make_design(16, 4, 4, 1, 16, Mp, seed=1), "FS")
        beta = op.solve_normal(np.zeros(op.in_dim, dtype=complex), [])
        assert beta.shape == (0,) and beta.dtype == complex


def test_restricted_ls_matches_pinv_oracle():
    rng = np.random.default_rng(5)
    d = make_design(32, 4, 8, 1, 10, 3, seed=2)
    op = KroneckerSensingOperator(d, "FS")
    A = op.densify()
    y = rng.standard_normal(op.out_dim) + 1j * rng.standard_normal(op.out_dim)
    cfg = RecoveryConfig(algorithm="HiHTP", profile=SparsityProfile((2, 1, 2)))
    res = solve(y, op, cfg)
    S = res.support
    oracle = np.linalg.pinv(A[:, S]) @ y
    np.testing.assert_allclose(res.x_hat[S], oracle, atol=1e-8)


@pytest.mark.parametrize("option", ["FS", "SF"])
def test_restricted_lstsq_matches_column_lstsq(option):
    # op.solve_normal against the column lstsq and the full-Gram lstsq. With
    # Mp < M it is that full-Gram lstsq, bit for bit. With Mp = M it solves
    # per-angle blocks and calls no lstsq; it agrees to 1e-12 relative.
    # Supports come unsorted and as lists, as OMP passes them, and spread
    # over angles in blocks of unequal sizes.
    rng = np.random.default_rng(11 if option == "FS" else 12)
    unequal = 0
    for Mp in (6, 8):
        op = KroneckerSensingOperator(make_design(32, 8, 8, 2, 12, Mp, seed=4), option)
        for _ in range(20):
            y = rng.standard_normal(op.out_dim) + 1j * rng.standard_normal(op.out_dim)
            S = rng.permutation(op.in_dim)[: int(rng.integers(1, 13))]
            assert np.linalg.matrix_rank(op.columns(S)) == S.size
            aty = op.adjoint_values(y)
            expected = np.linalg.lstsq(op.columns(S), y, rcond=None)[0]
            full = np.linalg.lstsq(op.gram(S), aty[S], rcond=None)[0]
            with mock.patch.object(np.linalg, "lstsq", wraps=np.linalg.lstsq) as lstsq:
                got = op.solve_normal(aty, S.tolist())
            assert np.linalg.norm(got - expected) <= 1e-10 * np.linalg.norm(expected)
            if Mp < 8:
                assert lstsq.call_count == 1 and got.tobytes() == full.tobytes()
            else:
                assert lstsq.call_count == 0
                assert np.linalg.norm(got - full) <= 1e-12 * np.linalg.norm(full)
                sizes = np.unique(op._split(S)[1], return_counts=True)[1]  # delays per angle
                unequal += sizes.min() < sizes.max()
    assert unequal > 0


@pytest.mark.parametrize("option", ["FS", "SF"])
def test_block_refit_keeps_its_bits_in_any_angle_interleaving(option):
    # With Mp = M each entry goes to its angle's block at its rank within
    # that angle, in the support's own order. A support whose angle groups
    # interleave, as OMP's picks do, but that keeps each angle's delays in
    # order, builds the same blocks as its sorted form, so each entry's
    # coefficient is the same in every bit. Angle 3 holds four delays and
    # the others two, so two blocks are zero-padded.
    op = KroneckerSensingOperator(make_design(32, 8, 8, 2, 12, 8, seed=4), option)
    picks = [(3, 0), (1, 2), (6, 5), (3, 4), (6, 9), (3, 7), (1, 11), (3, 15)]  # (angle, delay)
    angles, delays = np.array(picks).T
    S = flat_index(option, delays, angles, 16, 8)
    order = np.argsort(S)
    assert not np.array_equal(order, np.arange(S.size))
    rng = np.random.default_rng(15)
    aty = op.adjoint_values(rng.standard_normal(op.out_dim) + 1j * rng.standard_normal(op.out_dim))
    with mock.patch.object(np.linalg, "lstsq", wraps=np.linalg.lstsq) as lstsq:
        interleaved, in_order = op.solve_normal(aty, S.tolist()), op.solve_normal(aty, S[order])
    assert lstsq.call_count == 0
    assert interleaved[order].tobytes() == in_order.tobytes()


def test_restricted_lstsq_rank_deficient_support_is_minimum_norm():
    # Six delay columns at one angle but only Np = 4 pilots: rank 6 of 8. With
    # Mp = M that angle's block is singular, so its Cholesky certificate fails
    # and the block solve falls back to the full-Gram lstsq. Either way the
    # answer is the minimum-norm one.
    rng = np.random.default_rng(13)
    for Mp in (6, 8):
        op = KroneckerSensingOperator(make_design(32, 8, 8, 2, 4, Mp, seed=4), "FS")
        S = np.array([0, 1, 2, 3, 4, 5, 19, 40])
        assert np.linalg.matrix_rank(op.columns(S)) == 6
        y = rng.standard_normal(op.out_dim) + 1j * rng.standard_normal(op.out_dim)
        expected = np.linalg.lstsq(op.columns(S), y, rcond=None)[0]
        with mock.patch.object(np.linalg, "lstsq", wraps=np.linalg.lstsq) as lstsq:
            got = op.solve_normal(op.adjoint_values(y), S)
        assert lstsq.call_count == 1
        assert np.linalg.norm(got - expected) <= 1e-10 * np.linalg.norm(expected)


def test_block_refit_falls_back_below_the_pivot_floor():
    # Adjacent pilot subcarriers 0 and 1 of N = 65536 make delay columns 0
    # and 1 nearly parallel: that angle's block [[1, c], [conj(c), 1]] has
    # |c| = cos(pi/N), so its Cholesky factorization succeeds, but with a
    # squared pivot sin(pi/N)^2 = 2.3e-9 of the largest, below the 1e-8
    # floor. That block alone is then refit by lstsq; on this support the
    # result has the full-Gram lstsq's bits.
    N = 65536
    design = PilotDesign(N=N, M=4, D=4, U=1, Np=2, Mp=4, subcarriers=[0, 1], antennas=np.arange(4),
                         base_sequence=np.ones(N, dtype=complex))
    op = KroneckerSensingOperator(design, "FS")
    S = np.array([0, 1, 6])  # delays 0 and 1 at angle 0, delay 2 at angle 1
    np.linalg.cholesky(op.gram(S[:2]))
    rng = np.random.default_rng(14)
    aty = op.adjoint_values(rng.standard_normal(op.out_dim) + 1j * rng.standard_normal(op.out_dim))
    with mock.patch.object(np.linalg, "lstsq", wraps=np.linalg.lstsq) as lstsq:
        got = op.solve_normal(aty, S)
    assert lstsq.call_count == 1
    assert got.tobytes() == np.linalg.lstsq(op.gram(S), aty[S], rcond=None)[0].tobytes()


@pytest.mark.parametrize("algorithm", ["HiIHT", "HiHTP"])
@pytest.mark.parametrize("option", ["FS", "SF"])
def test_single_pass_thresholds_the_adjoint(algorithm, option):
    # One pass from x = 0 selects on A^H y and keeps it (HiIHT) or refits on it (HiHTP).
    rng = np.random.default_rng(21)
    op = KroneckerSensingOperator(make_design(32, 8, 8, 2, 12, 5, seed=4), option)
    y = rng.standard_normal(op.out_dim) + 1j * rng.standard_normal(op.out_dim)
    profile = SparsityProfile((2, 1, 2) if option == "FS" else (1, 2, 2))
    res = solve(y, op, RecoveryConfig(algorithm=algorithm, profile=profile, max_iters=1))

    aty = op.adjoint_values(y)
    support = hi_threshold(squared_moduli(aty).reshape(op.shape_in.dims), profile)
    expected = np.zeros(op.in_dim, dtype=complex)
    assert res.iterations == 1
    np.testing.assert_array_equal(res.support, support)
    if algorithm == "HiIHT":
        expected[support] = aty[support]
        np.testing.assert_array_equal(res.x_hat, expected)
    else:
        expected[support] = np.linalg.lstsq(op.columns(support), y, rcond=None)[0]
        np.testing.assert_allclose(res.x_hat, expected, rtol=0, atol=1e-12)
    assert res.residual_norm == pytest.approx(np.linalg.norm(y - dense_forward(op, expected)), rel=1e-12)


@pytest.mark.parametrize("option", ["FS", "SF"])
@pytest.mark.parametrize("algorithm", ["HiIHT", "HiHTP", "IHT", "HTP"])
def test_in_place_loop_matches_textbook_loop(algorithm, option):
    # Same supports, iteration counts, estimate bytes and residual bits as the
    # loop with a full x_temp and full moduli every pass, converged or capped:
    # with every antenna observed (the step patches A^H y on the occupied
    # angles and the loop puts it back) and without (it changes every entry),
    # on- and off-grid. Solves run back to back on one thread and on a pool
    # thread agree too, so a restore leaves no trace in the work buffers, and
    # so does a solve handed a read-only A^H y, which it leaves as it was.
    rng = np.random.default_rng(31)
    profile = SparsityProfile((3, 1, 2) if option == "FS" else (2, 2, 2))
    capped = 0
    with ThreadPoolExecutor(1) as pool:
        for U, Mp, route in ((2, 8, "gram"), (4, 8, "fft"), (2, 5, "Mp < M")):
            design = make_design(64, 8, 16, U, 10, Mp, seed=9)
            op = KroneckerSensingOperator(design, option)
            assert step_route(op) == route
            if algorithm in ("HiIHT", "HiHTP"):
                select_shape, select_profile = op.shape_in, profile
            else:
                # The flat solvers select k = the clipped profile's size: 6 (FS), 8 (SF).
                k = profile.clip(op.shape_in).max_support
                select_shape, select_profile = BlockShape((op.in_dim,)), SparsityProfile((k,))
            for trial in range(8):
                if trial >= 6:
                    y = offgrid_style_measurement(op, design, rng)
                else:
                    x = np.zeros(op.in_dim, dtype=complex)
                    x[rng.permutation(op.in_dim)[:4]] = rng.standard_normal(4) + 1j * rng.standard_normal(4)
                    noise = rng.standard_normal(op.out_dim) + 1j * rng.standard_normal(op.out_dim)
                    y = dense_forward(op, x) + (0.05 if trial % 2 else 0.5) * noise
                aty = op.adjoint_values(y)
                aty.flags.writeable = False
                # A run capped at i passes replays the first i passes of a longer one.
                for max_iters in (1, 2, 3, 10):
                    cfg = RecoveryConfig(algorithm=algorithm, profile=profile, max_iters=max_iters)
                    res = solve(y, op, cfg)
                    x_ref, support, iterations, residual = textbook_threshold_loop(
                        y, op, select_shape, select_profile, algorithm in ("HiHTP", "HTP"), max_iters)
                    np.testing.assert_array_equal(res.support, support)
                    assert res.iterations == iterations
                    assert res.x_hat.tobytes() == x_ref.tobytes()
                    assert res.residual_norm.hex() == residual.hex()
                    assert fingerprint(solve(y, op, cfg)) == fingerprint(res)
                    assert fingerprint(pool.submit(solve, y, op, cfg).result()) == fingerprint(res)
                    assert fingerprint(solve(y, op, cfg, aty=aty)) == fingerprint(res)
                    capped += iterations == max_iters > 1  # a one-pass run is always capped
                assert aty.tobytes() == op.adjoint_values(y).tobytes()
    assert capped > 0


class ForwardAdjointOperator(KroneckerSensingOperator):
    """The operator with its gradient step as forward + adjoint on every design,
    and its solves forming A^H y whole: this step changes every entry."""

    def adjoint_residual(self, y, aty, idx, values, out=None):
        return slice(None), self.adjoint_values(y - self.forward(idx, values), out)

    def angle_bounds(self, y):
        return None


def solved_trial(config, cond, Np, t, operator):
    """(MSE, solve result) of one ``run_trial`` on the given operator class."""
    results = []

    def capture(*args, **kwargs):
        results.append(solve(*args, **kwargs))
        return results[-1]
    with mock.patch.object(hisparse.simulate, "solve", capture), \
            mock.patch.object(hisparse.simulate, "KroneckerSensingOperator", operator):
        mse = run_trial(config, cond, Np, t)
    return mse, results[0]


class FullGramOperator(KroneckerSensingOperator):
    """The operator with its refit as one lstsq of the restricted Gram on every design."""

    def solve_normal(self, aty, idx):
        idx = np.asarray(idx, dtype=np.int64)
        return np.linalg.lstsq(self.gram(idx), aty[idx], rcond=None)[0]


def every_antenna_grid(option, offgrid):
    """(step route, config, V, truncation levels) of seeded Mp = M sweeps at
    Np = 24: U = 4 takes the FFT step route, U = 1 the Gram route."""
    for U, route in ((4, "fft"), (1, "gram")):
        system = SystemConfig(N=64, M=16, D=16, U=U)
        V = min(U, 2)
        if offgrid:
            config = ExperimentConfig(scenario="offgrid-sweep", system=system, channel=ChannelConfig(L=3, V=V),
                                      sweep=[24], seed=7, option=option, l1_values=[1], l2_values=[1])
        else:
            config = ExperimentConfig(scenario="multiuser-sweep", system=system, channel=ChannelConfig(L=3),
                                      sweep=[24], seed=7, option=option, v_values=[V])
        assert config.antenna_count() == system.M
        yield route, config, V, {"L1": 1, "L2": 1} if offgrid else {}


@pytest.mark.parametrize("option", ["FS", "SF"])
@pytest.mark.parametrize("offgrid", [False, True])
def test_delay_domain_step_tracks_the_forward_adjoint_loop(option, offgrid):
    # Mp = M: the delay-domain step, on either of its routes, moves HiIHT/IHT
    # estimates at rounding level only (same supports and pass counts), and
    # HiHTP/HTP, which select on the step but refit from A^H y, not at all.
    for route, config, V, grid in every_antenna_grid(option, offgrid):
        design = make_design(64, 16, 16, config.system.U, 24, 16, seed=0)
        assert step_route(KroneckerSensingOperator(design, option)) == route
        for alg in ("HiIHT", "IHT", "HiHTP", "HTP"):
            cond = Condition(label=alg, algorithm=alg, option=option, V=V, L=3, **grid)
            for t in range(5):
                mse, res = solved_trial(config, cond, 24, t, KroneckerSensingOperator)
                ref_mse, ref = solved_trial(config, cond, 24, t, ForwardAdjointOperator)
                np.testing.assert_array_equal(res.support, ref.support)
                assert res.iterations == ref.iterations
                if alg in ("HiHTP", "HTP"):
                    assert res.x_hat.tobytes() == ref.x_hat.tobytes()
                    assert mse.hex() == ref_mse.hex() and res.residual_norm == ref.residual_norm
                else:
                    assert abs(mse - ref_mse) <= 1e-12 * ref_mse


@pytest.mark.parametrize("option", ["FS", "SF"])
@pytest.mark.parametrize("offgrid", [False, True])
def test_block_refit_tracks_the_full_gram_refit(option, offgrid):
    # Mp = M: HiHTP/HTP/OMP refit by per-angle block solves. Against the
    # full-Gram lstsq refit they keep every support and pass count, and the
    # trial MSE moves by at most 1e-12 relative.
    for _, config, V, grid in every_antenna_grid(option, offgrid):
        for alg in ("HiHTP", "HTP", "OMP"):
            cond = Condition(label=alg, algorithm=alg, option=option, V=V, L=3, **grid)
            for t in range(5):
                mse, res = solved_trial(config, cond, 24, t, KroneckerSensingOperator)
                ref_mse, ref = solved_trial(config, cond, 24, t, FullGramOperator)
                np.testing.assert_array_equal(res.support, ref.support)
                assert res.iterations == ref.iterations
                assert abs(mse - ref_mse) <= 1e-12 * ref_mse


def test_a_weak_block_refits_alone():
    # Flat HTP on the U = 4 off-grid grids above picks more delays at one
    # angle than the Np = 24 pilots on 11 refits (a pass that reselects a
    # support reuses that support's refit), so that angle's block is
    # singular. Only that block takes an lstsq, of its own Gram, and the
    # other blocks keep the batched solve; the Gram is block-diagonal, so
    # the refit is still the full-Gram minimum-norm solution, to 1e-12.
    refits = []

    class Recording(KroneckerSensingOperator):
        def solve_normal(self, aty, idx):
            with mock.patch.object(np.linalg, "lstsq", wraps=np.linalg.lstsq) as lstsq:
                beta = super().solve_normal(aty, idx)
            if lstsq.call_count:
                full = np.linalg.lstsq(self.gram(idx), aty[idx], rcond=None)[0]
                assert np.linalg.norm(beta - full) <= 1e-12 * np.linalg.norm(full)
                sizes = [call.args[0].shape[0] for call in lstsq.call_args_list]
                angles, counts = np.unique(self._split(idx)[1], return_counts=True)
                assert sorted(sizes) == sorted(counts[counts > 24]) and angles.size > len(sizes)
                refits.append(sizes)
            return beta

    for option in ("FS", "SF"):
        for _, config, V, grid in every_antenna_grid(option, offgrid=True):
            cond = Condition(label="HTP", algorithm="HTP", option=option, V=V, L=3, **grid)
            for t in range(5):
                solved_trial(config, cond, 24, t, Recording)
    assert len(refits) == 11


def offgrid_style_measurement(op, design, rng):
    """A pilot observation of an off-grid channel (leaky in delay and angle)."""
    N, M, D, U = design.N, design.M, design.D, design.U
    paths = gen_offgrid(ChannelParams(N=N, M=M, D=D, U=U, V=U, L=3), rng)
    H = np.stack([superpose_transfer(ue_paths, N, M) for ue_paths in paths])
    return vectorize(observed_matrix(H, design, rng, 10.0), op.option)


CYCLE_CAP = 10


def test_cycle_exit_replays_the_full_run():
    # HiHTP/HTP stop at the first pass whose support repeats an earlier,
    # non-adjacent pass's; every capped run max_iters = 1..CYCLE_CAP must still
    # give the bytes, support, pass count and residual of the textbook loop,
    # which runs every pass. HiIHT/IHT run every pass as before.
    seen = Counter()

    @settings(derandomize=True, max_examples=120, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), option=st.sampled_from(["FS", "SF"]),
           algorithm=st.sampled_from(["HiHTP", "HTP", "HiIHT", "IHT"]),
           offgrid=st.booleans(), U=st.integers(1, 2),
           s=st.tuples(*[st.integers(1, 4)] * 3), noise=st.sampled_from([0.05, 0.5, 3.0]))
    def check(seed, option, algorithm, offgrid, U, s, noise):
        rng = np.random.default_rng(seed)
        design = make_design(32, 8, 8, U, int(rng.integers(6, 17)), int(rng.integers(3, 9)),
                             seed=int(rng.integers(2**63)))
        op = KroneckerSensingOperator(design, option)
        if offgrid:
            y = offgrid_style_measurement(op, design, rng)
        else:
            idx = rng.permutation(op.in_dim)[:3]
            y = op.forward(np.sort(idx), rng.standard_normal(3) + 1j * rng.standard_normal(3))
            y = y + noise * (rng.standard_normal(op.out_dim) + 1j * rng.standard_normal(op.out_dim))
        profile = SparsityProfile(s)
        pursuit = algorithm in ("HiHTP", "HTP")
        select_shape, select_profile = op.shape_in, profile.clip(op.shape_in)
        if algorithm in ("IHT", "HTP"):
            select_shape = BlockShape((op.in_dim,))
            select_profile = SparsityProfile((select_profile.max_support,))
        supports, cycle_start = [], None  # S_1, S_2, ... of the full run
        for max_iters in range(1, CYCLE_CAP + 1):
            x_ref, support, iterations, residual = textbook_threshold_loop(
                y, op, select_shape, select_profile, pursuit, max_iters)
            if iterations == max_iters:
                supports.append(support.tobytes())
                if cycle_start is None and supports[-1] in supports[:-2]:
                    cycle_start, cycle_seen = supports.index(supports[-1]) + 1, max_iters
            with mock.patch.object(hisparse.recovery, "hi_threshold", wraps=hi_threshold) as counted:
                res = solve(y, op, RecoveryConfig(algorithm=algorithm, profile=profile,
                                                  max_iters=max_iters))
            assert np.array_equal(res.x_hat.view(np.uint64), x_ref.view(np.uint64))
            np.testing.assert_array_equal(res.support, support)
            assert res.iterations == iterations
            assert res.residual_norm == residual
            # The first recurring support decides the stop: a non-adjacent one
            # ends a pursuit run, an adjacent one any run.
            if pursuit and cycle_start is not None:
                assert res.stop == "support-cycle"
            elif iterations < max_iters or supports[-2:-1] == supports[-1:]:
                assert res.stop == "support-repeat"
            else:
                assert res.stop == "max-iters"
            # The pursuit loop runs up to the pass that closes the cycle.
            expected_passes = iterations
            if pursuit and cycle_start is not None:
                expected_passes = min(iterations, cycle_seen)
            assert counted.call_count == expected_passes
            if counted.call_count < iterations:
                seen[algorithm] += 1
                seen["from pass 1"] += cycle_start == 1
        if not pursuit and cycle_start is not None:
            seen[algorithm] += 1

    check()
    # The exit ran for both pursuit solvers, also on a cycle that starts at
    # pass 1, and HiIHT/IHT supports that cycle were run to the end.
    assert all(seen[name] > 0 for name in ("HiHTP", "HTP", "from pass 1", "HiIHT", "IHT"))


def test_a_reselected_support_keeps_its_refit():
    # A HiHTP pass that reselects an earlier pass's support, at a
    # support-repeat or a support-cycle exit, takes that pass's refit: the
    # refit is a function of A^H y and the support. So solve_normal runs once
    # per distinct support, and every bit is still the textbook loop's, which
    # refits on every pass.
    rng = np.random.default_rng(12)
    seen = Counter()
    while min(seen["support-repeat"], seen["support-cycle"]) < 3:
        design = make_design(32, 8, 8, int(rng.integers(1, 3)), int(rng.integers(6, 17)),
                             int(rng.integers(3, 9)), seed=int(rng.integers(2**63)))
        op = KroneckerSensingOperator(design, "FS")
        y = offgrid_style_measurement(op, design, rng)
        profile = SparsityProfile(tuple(int(v) for v in rng.integers(1, 5, size=3))).clip(op.shape_in)
        supports = []  # one selection per pass

        def pick(*args):
            supports.append(hi_threshold(*args).tobytes())
            return np.frombuffer(supports[-1], dtype=np.int64)

        with mock.patch.object(hisparse.recovery, "hi_threshold", pick), \
                mock.patch.object(KroneckerSensingOperator, "solve_normal", autospec=True,
                                  side_effect=KroneckerSensingOperator.solve_normal) as refits:
            res = solve(y, op, RecoveryConfig(algorithm="HiHTP", profile=profile, max_iters=CYCLE_CAP))
        assert sorted(call.args[2].tobytes() for call in refits.call_args_list) == sorted(set(supports))
        x_ref, support, iterations, residual = textbook_threshold_loop(
            y, op, op.shape_in, profile, True, CYCLE_CAP)
        assert res.x_hat.tobytes() == x_ref.tobytes() and res.residual_norm == residual
        np.testing.assert_array_equal(res.support, support)
        assert res.iterations == iterations
        seen[res.stop] += len(supports) > len(set(supports))


@pytest.mark.parametrize("option", ["FS", "SF"])
@pytest.mark.parametrize("algorithm", ["HiIHT", "HiHTP", "IHT", "HTP", "OMP"])
def test_estimate_vanishes_off_support(algorithm, option):
    # The on-grid trial score sums only over the support; it relies on this.
    rng = np.random.default_rng(32)
    op = KroneckerSensingOperator(make_design(64, 8, 16, 2, 10, 5, seed=3), option)
    profile = SparsityProfile((3, 1, 2) if option == "FS" else (2, 2, 2))
    cfg = RecoveryConfig(algorithm=algorithm, profile=profile)
    for _ in range(5):
        y = rng.standard_normal(op.out_dim) + 1j * rng.standard_normal(op.out_dim)
        res = solve(y, op, cfg)
        assert res.support.size > 0
        assert not np.delete(res.x_hat, res.support).any()
        assert np.array_equal(res.x_hat[res.support].view(np.uint64), res.values.view(np.uint64))


def test_htp_consistent_system_zero_residual():
    rng = np.random.default_rng(6)
    d = make_design(32, 4, 8, 1, 12, 4, seed=3)
    op = KroneckerSensingOperator(d, "FS")
    x = np.zeros(op.in_dim, dtype=complex)
    x[[3, 17]] = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    y = dense_forward(op, x)
    cfg = RecoveryConfig(algorithm="HiHTP", profile=SparsityProfile((2, 1, 1)))
    res = solve(y, op, cfg)
    assert res.residual_norm <= 1e-10


def test_flat_solvers_reduce_to_hierarchical_on_one_level():
    rng = np.random.default_rng(7)
    A = rng.standard_normal((12, 20)) + 1j * rng.standard_normal((12, 20))
    A /= np.linalg.norm(A, axis=0)
    op = DenseOperator(A, BlockShape((20,)))
    y = rng.standard_normal(12) + 1j * rng.standard_normal(12)
    hi = solve(y, op, RecoveryConfig(algorithm="HiIHT", profile=SparsityProfile((4,))))
    flat = solve(y, op, RecoveryConfig(algorithm="IHT", profile=SparsityProfile((4,))))
    np.testing.assert_array_equal(hi.support, flat.support)
    np.testing.assert_allclose(hi.x_hat, flat.x_hat, atol=1e-14)


def test_results_are_deterministic():
    rng = np.random.default_rng(8)
    d = make_design(64, 8, 16, 2, 12, 6, seed=4)
    op = KroneckerSensingOperator(d, "FS")
    y = rng.standard_normal(op.out_dim) + 1j * rng.standard_normal(op.out_dim)
    cfg = RecoveryConfig(algorithm="HiIHT", profile=SparsityProfile((4, 1, 1)))
    a, b = solve(y, op, cfg), solve(y, op, cfg)
    np.testing.assert_array_equal(a.support, b.support)
    assert a.iterations == b.iterations
    assert np.array_equal(a.x_hat, b.x_hat)


def fingerprint(res):
    return res.x_hat.tobytes(), res.support.tobytes(), res.iterations, res.residual_norm


@pytest.mark.parametrize("option, N, D, U", [
    # Np = 12. Product adjoint (12*U*D <= 2*N*log2(N)): it writes the loop's
    # own buffer, under FS and SF alike.
    ("FS", 64, 16, 4),
    ("FS", 64, 16, 2),
    ("SF", 64, 16, 4),
    # FFT adjoint: under FS with U*D = N it runs in the loop's own buffer,
    # otherwise in the operator's work buffer.
    ("FS", 16, 4, 4),
    ("FS", 16, 6, 2),
    ("SF", 16, 4, 4),
])
@pytest.mark.parametrize("algorithm", ["HiIHT", "HiHTP", "IHT"])
def test_solves_are_reentrant(algorithm, option, N, D, U):
    # The loop's per-thread buffers never leak into a result: repeated solves
    # in one thread and concurrent solves on two threads give the first
    # solve's bytes, and a result is untouched by later solves.
    rng = np.random.default_rng(41)
    op = KroneckerSensingOperator(make_design(N, 8, D, U, 12, 5, seed=9), option)
    assert (op._adjoint_table is not None) == (N == 64)
    profile = SparsityProfile((3, 1, 2) if option == "FS" else (2, 2, 2))
    cfg = RecoveryConfig(algorithm=algorithm, profile=profile)
    ys = [rng.standard_normal(op.out_dim) + 1j * rng.standard_normal(op.out_dim)
          for _ in range(3)]
    first = [solve(y, op, cfg) for y in ys]
    expected = [fingerprint(res) for res in first]
    assert len(set(expected)) == len(ys)

    for _ in range(2):
        assert [fingerprint(solve(y, op, cfg)) for y in ys] == expected
    assert [fingerprint(res) for res in first] == expected

    start = threading.Barrier(2)
    got = {}

    def worker(offset):
        start.wait()
        got[offset] = [fingerprint(solve(ys[(offset + k) % len(ys)], op, cfg)) for k in range(12)]

    threads = [threading.Thread(target=worker, args=(offset,)) for offset in (0, 1)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    for offset in (0, 1):
        assert got[offset] == [expected[(offset + k) % len(ys)] for k in range(12)]
    assert [fingerprint(res) for res in first] == expected


@pytest.mark.parametrize("algorithm", ["HiIHT", "HiHTP", "IHT"])
def test_a_formed_and_a_given_aty_give_the_same_solve(algorithm, monkeypatch):
    # On the product route a solve that forms A^H y takes its squared moduli
    # from the adjoint's blocks; one handed A^H y copies it and squares the
    # copy. Both return the same bits, with the product whole (the default
    # block, at this size) and in ragged blocks of five rows or more.
    rng = np.random.default_rng(44)
    default = hisparse.operators.ADJOINT_BLOCK
    for option in ("FS", "SF"):
        for Mp in (16, 11):
            op = KroneckerSensingOperator(make_design(128, 16, 32, 4, 12, Mp, seed=6), option)
            assert op._adjoint_table is not None
            profile = SparsityProfile((3, 1, 2) if option == "FS" else (2, 2, 2))
            cfg = RecoveryConfig(algorithm=algorithm, profile=profile)
            for block in (default, 5 * 128):
                monkeypatch.setattr(hisparse.operators, "ADJOINT_BLOCK", block)
                for _ in range(3):
                    y = rng.standard_normal(op.out_dim) + 1j * rng.standard_normal(op.out_dim)
                    given = solve(y, op, cfg, aty=op.adjoint_values(y))
                    formed = solve(y, op, cfg)
                    assert (fingerprint(formed), formed.stop) == (fingerprint(given), given.stop)

# Each solve of test_the_estimate_keeps_the_eager_bytes, as the loop that held
# a dense iterate x and returned it as x_hat gave it with numpy 2.4.6 (x86-64,
# OpenBLAS): the first 16 hex digits of the SHA-256 of x_hat's bytes, the
# support, iterations, stop and residual_norm.hex(). Keys are
# algorithm-option-NxMxDxUxNpxMp; the three shapes per option run the Gram
# step route, the FFT step route (FS HiIHT/HiHTP screened) and Mp < M.
EAGER_NUMPY = "2.4.6"
EAGER_ESTIMATES = {
    "HiIHT-FS-64x8x16x2x10x8": ("7f74a3b3ff5c953e", [49, 62, 66, 79], 10, "max-iters", "0x1.d5610aae19a9ep+1"),
    "HiHTP-FS-64x8x16x2x10x8": ("2dc38f4763e42ded", [51, 62, 66, 79], 2, "support-repeat", "0x1.cbf971e305848p+1"),
    "IHT-FS-64x8x16x2x10x8": ("99c98f79d18d02d1", [34, 45, 52, 79], 10, "max-iters", "0x1.b36277dc9fcf9p+2"),
    "HTP-FS-64x8x16x2x10x8": ("d580648d1f9d4d6a", [62, 66, 79, 113], 3, "support-repeat", "0x1.c22d4be99e87cp+1"),
    "OMP-FS-64x8x16x2x10x8": ("60a8139bb5bd4f7c", [62, 66, 79, 113], 4, "k-picks", "0x1.c22d4be99e87bp+1"),
    "HiIHT-FS-128x16x32x4x12x16": ("3e9571837d50e5aa", [482, 485, 1508, 1519], 10, "max-iters", "0x1.8c147dca7e71dp+2"),
    "HiHTP-FS-128x16x32x4x12x16": ("9e68196b9f70f3d3", [482, 485, 1519, 1532], 10, "support-cycle", "0x1.89af2564c2958p+2"),
    "IHT-FS-128x16x32x4x12x16": ("72ed16623d958dbe", [1446, 1464, 1499, 1519], 10, "max-iters", "0x1.e226cdd0f2748p+8"),
    "HTP-FS-128x16x32x4x12x16": ("9572b7e2ed85280e", [65, 482, 1519, 1644], 4, "support-repeat", "0x1.6741613510468p+2"),
    "OMP-FS-128x16x32x4x12x16": ("9572b7e2ed85280e", [65, 482, 1519, 1644], 4, "k-picks", "0x1.6741613510468p+2"),
    "HiIHT-FS-64x8x16x2x10x5": ("ffd514a3a45155fd", [61, 62, 66, 79], 10, "max-iters", "0x1.6248c3fe29b5dp+1"),
    "HiHTP-FS-64x8x16x2x10x5": ("1954573580524f8f", [56, 62, 66, 79], 3, "support-repeat", "0x1.5b0d77762e0f0p+1"),
    "IHT-FS-64x8x16x2x10x5": ("50beba75c7d1cdcb", [42, 45, 48, 50], 10, "max-iters", "0x1.0df2bc87e1d69p+4"),
    "HTP-FS-64x8x16x2x10x5": ("a0c98c4947d2db64", [62, 65, 79, 222], 4, "support-repeat", "0x1.46839dbbe0868p+1"),
    "OMP-FS-64x8x16x2x10x5": ("ffcfb4c7a7f50036", [62, 65, 79, 222], 4, "k-picks", "0x1.46839dbbe0868p+1"),
    "HiIHT-SF-64x8x16x2x10x8": ("4f11f207c410ca27", [54, 55, 86, 87, 214, 215, 222, 223], 10, "max-iters", "0x1.263d027f8d782p+7"),
    "HiHTP-SF-64x8x16x2x10x8": ("14decdc648fc8e04", [62, 63, 74, 79, 168, 172, 194, 199], 4, "support-repeat", "0x1.a88ab05ca830dp+1"),
    "IHT-SF-64x8x16x2x10x8": ("b754bb1784e3c579", [46, 62, 70, 86, 182, 198, 206, 222], 6, "support-repeat", "0x1.fb1ccdf2bc860p+8"),
    "HTP-SF-64x8x16x2x10x8": ("4cea6282b9f3f92b", [29, 62, 79, 168, 172, 175, 194, 206], 4, "support-repeat", "0x1.8c4cf6156d72fp+1"),
    "OMP-SF-64x8x16x2x10x8": ("8d604a1049ac4e89", [29, 62, 79, 166, 168, 172, 175, 194], 8, "k-picks", "0x1.82d55848250afp+1"),
    "HiIHT-SF-128x16x32x4x12x16": ("12d43d5ae83acd9c", [396, 399, 476, 479, 636, 639, 716, 719], 10, "max-iters", "0x1.d7554102a369bp+7"),
    "HiHTP-SF-128x16x32x4x12x16": ("c40de8deab03f498", [1474, 1476, 1518, 1519, 1633, 1644, 1842, 1845], 3, "support-repeat", "0x1.6b5c3ea694378p+2"),
    "IHT-SF-128x16x32x4x12x16": ("43e29a2671c0afee", [511, 559, 799, 1151, 1199, 1439, 1519, 1919], 10, "max-iters", "0x1.321aab0b08ae0p+15"),
    "HTP-SF-128x16x32x4x12x16": ("9baa0f0aa356d18a", [30, 482, 644, 700, 1214, 1400, 1519, 1644], 10, "support-cycle", "0x1.519b378943f2ap+2"),
    "OMP-SF-128x16x32x4x12x16": ("a9e2831952a711fd", [30, 482, 644, 700, 1400, 1519, 1644, 1845], 8, "k-picks", "0x1.507ea8bf768f0p+2"),
    "HiIHT-SF-64x8x16x2x10x5": ("b50ff2b159d2de36", [38, 39, 54, 55, 198, 199, 214, 215], 10, "max-iters", "0x1.9c4cf0f9fccb3p+12"),
    "HiHTP-SF-64x8x16x2x10x5": ("033d14bac68666b6", [62, 63, 73, 79, 232, 235, 243, 245], 5, "support-repeat", "0x1.2e3d3cb2b00f7p+1"),
    "IHT-SF-64x8x16x2x10x5": ("38447a78893c619a", [46, 62, 78, 86, 198, 206, 222, 238], 10, "max-iters", "0x1.f8943b5616db3p+13"),
    "HTP-SF-64x8x16x2x10x5": ("1284fc2191de31b9", [62, 64, 79, 86, 112, 182, 195, 227], 5, "support-repeat", "0x1.155bf38664f0dp+1"),
    "OMP-SF-64x8x16x2x10x5": ("9652dd644e0cedec", [62, 64, 79, 81, 99, 112, 174, 227], 8, "k-picks", "0x1.150a25cf702f0p+1"),
}


def test_the_estimate_keeps_the_eager_bytes():
    # x_hat is formed from support and values on first read. It must hold the
    # bytes the dense iterate held (a zero off the support is +0.0), every
    # other field must keep its bits, and a second read returns the same
    # array. The cases include a cycling HiHTP and HTP solve.
    if np.__version__ != EAGER_NUMPY:
        pytest.skip(f"bits recorded with numpy {EAGER_NUMPY}, running {np.__version__}")
    got = {}
    for option in ("FS", "SF"):
        profile = SparsityProfile((2, 1, 2) if option == "FS" else (2, 2, 2))
        for shape in ((64, 8, 16, 2, 10, 8), (128, 16, 32, 4, 12, 16), (64, 8, 16, 2, 10, 5)):
            op = KroneckerSensingOperator(make_design(*shape, seed=3), option)
            for algorithm in ("HiIHT", "HiHTP", "IHT", "HTP", "OMP"):
                rng = np.random.default_rng(5)
                idx = np.sort(rng.permutation(op.in_dim)[:4])
                y = op.forward(idx, rng.standard_normal(4) + 1j * rng.standard_normal(4))
                y = y + 0.3 * (rng.standard_normal(op.out_dim) + 1j * rng.standard_normal(op.out_dim))
                res = solve(y, op, RecoveryConfig(algorithm=algorithm, profile=profile))
                x_hat = res.x_hat
                assert res.x_hat is x_hat
                digest = hashlib.sha256(x_hat.view(np.uint64).tobytes()).hexdigest()[:16]
                key = f"{algorithm}-{option}-{'x'.join(map(str, shape))}"
                got[key] = (digest, res.support.tolist(), res.iterations, res.stop,
                            res.residual_norm.hex())
    assert got == EAGER_ESTIMATES
    assert {stop for _, _, _, stop, _ in got.values()} == {
        "max-iters", "support-repeat", "support-cycle", "k-picks"}


@pytest.mark.parametrize("given", [False, True])
def test_a_paper_size_solve_allocates_no_iterate(given):
    # A paper-shape FS HiIHT solve on the FFT step route, screened or handed
    # A^H y, holds no length-in_dim iterate: once this thread's work buffers
    # exist, its peak allocation stays below one complex vector of in_dim.
    op = KroneckerSensingOperator(make_design(1024, 256, 256, 4, 15, 256, seed=0), "FS")
    assert step_route(op) == "fft"
    rng = np.random.default_rng(0)
    idx = np.sort(rng.permutation(op.in_dim)[:12])
    y = op.forward(idx, rng.standard_normal(12) + 1j * rng.standard_normal(12))
    y = y + 0.05 * (rng.standard_normal(op.out_dim) + 1j * rng.standard_normal(op.out_dim))
    aty = op.adjoint_values(y) if given else None
    cfg = RecoveryConfig(algorithm="HiIHT", profile=SparsityProfile((6, 4, 2)))
    solve(y, op, cfg, aty=aty)  # the work buffers, once per thread
    tracemalloc.start()
    try:
        res = solve(y, op, cfg, aty=aty)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.iterations > 1
    assert peak < op.in_dim * np.dtype(np.complex128).itemsize


def test_outputs_are_hierarchically_sparse():
    rng = np.random.default_rng(9)
    d = make_design(64, 8, 16, 2, 10, 5, seed=5)
    op = KroneckerSensingOperator(d, "FS")
    profile = SparsityProfile((4, 2, 2))
    for seed in range(5):
        y = rng.standard_normal(op.out_dim) + 1j * rng.standard_normal(op.out_dim)
        for alg in ("HiIHT", "HiHTP"):
            res = solve(y, op, RecoveryConfig(algorithm=alg, profile=profile))
            assert is_hi_sparse(res.x_hat.reshape(op.shape_in.dims), profile)


def test_htp_residual_non_increasing_on_repeated_support():
    rng = np.random.default_rng(10)
    d = make_design(32, 4, 8, 1, 8, 4, seed=6)
    op = KroneckerSensingOperator(d, "FS")
    x = np.zeros(op.in_dim, dtype=complex)
    x[[2, 9, 20]] = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    y = dense_forward(op, x) + 0.05 * (rng.standard_normal(op.out_dim) + 1j * rng.standard_normal(op.out_dim))
    # Capped reruns replay identical loop prefixes, exposing the iterates.
    iterates = [
        solve(y, op, RecoveryConfig(algorithm="HiHTP",
                                    profile=SparsityProfile((3, 1, 1)),
                                    max_iters=k))
        for k in range(1, 6)
    ]
    for prev, cur in zip(iterates, iterates[1:]):
        if np.array_equal(prev.support, cur.support):
            assert cur.residual_norm <= prev.residual_norm + 1e-10


def test_measurement_validation():
    op, _, y = single_path_setup()
    cfg = RecoveryConfig(algorithm="HiIHT", profile=SparsityProfile((1, 1, 1)))
    with pytest.raises(Exception):
        solve(y[:-1], op, cfg)
    bad = y.copy()
    bad[0] = np.nan
    with pytest.raises(ValueError):
        solve(bad, op, cfg)


def test_omp_reads_a_given_aty_as_it_is():
    # OMP's refits read A^H y; a given one returns the same bits as the one
    # OMP forms, at Mp = M and Mp < M, is left as it was, and saves OMP's own
    # adjoint_values call (one more is made per pick either way).
    rng = np.random.default_rng(12)
    cfg = RecoveryConfig(algorithm="OMP", profile=SparsityProfile((2, 1, 2)))
    for Mp in (8, 5):
        op = KroneckerSensingOperator(make_design(64, 8, 16, 2, 10, Mp, seed=3), "FS")
        y = rng.standard_normal(op.out_dim) + 1j * rng.standard_normal(op.out_dim)
        aty = op.adjoint_values(y)
        aty.flags.writeable = False
        with mock.patch.object(op, "adjoint_values", wraps=op.adjoint_values) as adjoint:
            given = solve(y, op, cfg, aty=aty)
            assert adjoint.call_count == given.iterations
            formed = solve(y, op, cfg)
            assert adjoint.call_count == 2 * given.iterations + 1
        assert fingerprint(given) == fingerprint(formed)
        assert aty.tobytes() == op.adjoint_values(y).tobytes()


def test_an_aty_of_the_wrong_length_or_type_is_refused():
    # Refused in one line before any operator call, for every solver.
    op, _, y = single_path_setup()
    good = op.adjoint_values(y)
    bad = {
        "complex128 \\(15,\\)": good[:-1],
        "float64 \\(16,\\)": good.real.copy(),
        "complex64 \\(16,\\)": good.astype(np.complex64),
        "complex128 \\(1, 16\\)": good[None, :],
        "list \\(16,\\)": good.tolist(),
    }
    for alg in ("HiIHT", "HiHTP", "IHT", "HTP", "OMP"):
        cfg = RecoveryConfig(algorithm=alg, profile=SparsityProfile((1, 1, 1)))
        for detail, aty in bad.items():
            with mock.patch.object(KroneckerSensingOperator, "adjoint_values") as adjoint, \
                    mock.patch.object(KroneckerSensingOperator, "forward") as forward:
                with pytest.raises(DimensionError,
                                   match=f"^aty must be a complex128 array of length 16, got {detail}$"):
                    solve(y, op, cfg, aty=aty)
            assert adjoint.call_count == forward.call_count == 0


def test_a_non_finite_aty_is_refused():
    # Refused as a non-finite y is, in one line before any operator call, for
    # every solver: a NaN energy is outside hi_threshold's contract.
    op, _, y = single_path_setup()
    good = op.adjoint_values(y)
    for alg in ("HiIHT", "HiHTP", "IHT", "HTP", "OMP"):
        cfg = RecoveryConfig(algorithm=alg, profile=SparsityProfile((1, 1, 1)))
        for value in (complex(np.nan, 0.0), complex(0.0, np.inf), complex(-np.inf, 1.0)):
            aty, bad_y = good.copy(), y.copy()
            aty[3] = bad_y[2] = value
            for name, args, kwargs in (("aty", (y,), {"aty": aty}), ("measurement", (bad_y,), {})):
                with mock.patch.object(KroneckerSensingOperator, "adjoint_values") as adjoint, \
                        mock.patch.object(KroneckerSensingOperator, "forward") as forward:
                    with pytest.raises(ValueError, match=f"^{name} contains non-finite entries$"):
                        solve(*args, op, cfg, **kwargs)
                assert adjoint.call_count == forward.call_count == 0


def test_config_without_profile_is_rejected():
    # A config the solver cannot size is rejected before any solve. A bare
    # tuple used to pass here and die in solve on profile.clip.
    for alg in ("HiIHT", "HiHTP", "IHT", "HTP", "OMP"):
        for profile in (None, (2, 1, 1), [2], 3):
            with pytest.raises(ValueError, match=f"{alg} needs a profile"):
                RecoveryConfig(algorithm=alg, profile=profile)
    # So is a solver name it does not know.
    with pytest.raises(ValueError, match="^unknown algorithm 'CoSaMP'$"):
        RecoveryConfig(algorithm="CoSaMP", profile=SparsityProfile((1,)))


def test_result_json_dict():
    # The fields a saved result carries: support and residual.
    op, x, y = single_path_setup()
    cfg = RecoveryConfig(algorithm="HiIHT", profile=SparsityProfile((1, 1, 1)))
    res = solve(y, op, cfg)
    assert res.support.tolist() == [7]
    assert np.isfinite(res.residual_norm)


def test_contraction_constants_values():
    cc = contraction_constants(0.0, "HiIHT")
    assert cc.kappa == 0.0 and cc.tau == pytest.approx(2.18)
    cc = contraction_constants(0.0, "HiHTP")
    assert cc.kappa == 0.0 and cc.tau == pytest.approx(5.15)

    cc = contraction_constants(0.5, "HiIHT")
    assert cc.kappa == pytest.approx(math.sqrt(3) / 2)
    assert cc.tau == pytest.approx(2.18 / (1 - math.sqrt(3) / 2))

    cc = contraction_constants(0.5, "HiHTP")
    assert cc.kappa == pytest.approx(math.sqrt(2 * 0.5 / 0.75))
    assert not cc.contractive and cc.tau == math.inf

    with pytest.raises(GuaranteeVoidError):
        contraction_constants(1 / math.sqrt(3), "HiIHT")
    with pytest.raises(ValueError):
        contraction_constants(0.1, "OMP")


def test_min_overhead_formulas():
    # Saturation: the raw formula exceeds both N and M here.
    np_min, mp_min = min_overhead(0.4, 0.1, V=1, L=3, K_V=1, K_L=1, N=1024, M=256)
    assert np_min == 1024.0 and mp_min == 256.0
    raw = 3 * 0.4**-2 * math.log(1024) ** 4
    assert raw > 1024

    # Frequency-space pilot count is independent of V and L.
    a = min_overhead(0.3, 0.2, V=1, L=1, K_V=1, K_L=1, N=4096, M=16, C=1e-6)[0]
    b = min_overhead(0.3, 0.2, V=4, L=5, K_V=1, K_L=1, N=4096, M=16, C=1e-6)[0]
    assert a == b

    # Small delta_theta forces full antenna utilization.
    _, mp = min_overhead(0.3, 0.01, V=2, L=3, K_V=1, K_L=1, N=1024, M=256)
    assert mp == 256.0

    # Space-frequency pilot count scales with V*L.
    sf1 = min_overhead(0.3, 0.2, V=1, L=3, K_V=1, K_L=1, N=2**20, M=16, C=1e-9, option="SF")[0]
    sf4 = min_overhead(0.3, 0.2, V=4, L=3, K_V=1, K_L=1, N=2**20, M=16, C=1e-9, option="SF")[0]
    assert sf4 == pytest.approx(4 * sf1)

    with pytest.raises(GuaranteeVoidError):
        min_overhead(0.5, 0.3, V=1, L=1, K_V=1, K_L=1, N=64, M=16)
    with pytest.raises(GuaranteeVoidError):
        min_overhead(-0.1, 0.2, V=1, L=1, K_V=1, K_L=1, N=64, M=16)
    with pytest.raises(ValueError):
        min_overhead(0.3, 0.2, V=1, L=1, K_V=1, K_L=1, N=64, M=16, option="XS")


def test_omp_tracks_htp_at_reduced_antenna_sampling():
    def mean_mse(alg, Np, trials=30):
        config = ExperimentConfig(
            scenario="omp-compare",
            system=SystemConfig(N=128, M=64, D=32, U=4),
            channel=ChannelConfig(L=3, V=2),
            sweep=[Np], Mp=16, trials=trials, seed=17,
        )
        cond = Condition(label=alg, algorithm=alg, option="FS", V=2, L=3)
        return float(np.mean([run_trial(config, cond, Np, t) for t in range(trials)]))

    for Np in (12, 16, 24):
        htp = mean_mse("HiHTP", Np)
        greedy = mean_mse("OMP", Np)
        assert greedy <= 2.0 * htp


class UnscreenedOperator(KroneckerSensingOperator):
    """The operator with every solve forming A^H y on all angles in its first pass."""

    def angle_bounds(self, y):
        return None


def screening_case(rng, kind):
    """(op, y, profile) of one random FS design on the FFT step route with Mp = M.

    ``kind`` picks y: "sparse" (a few paths in a few angles, plus noise),
    "spread" (Gaussian), "zero", "even" (one pilot per angle, all of one
    modulus: every bound is attained and equal, so nothing is pruned) or
    "near-tie" (the same with moduli within 1e-10 relative of each other,
    inside the screening margin)."""
    N = int(rng.choice([32, 64]))
    M = 1 if rng.random() < 0.05 else int(rng.integers(2, 17))
    U = int(rng.integers(1, 5))
    least = math.isqrt(4 * N * int(math.log2(N))) // U + 1  # (U*D)**2 > 4*N*log2(N): the FFT step
    D = int(rng.integers(least, N // U + 1))
    Np = int(rng.integers(1, N + 1)) if rng.random() < 0.5 else int(rng.integers(1, 9))
    op = KroneckerSensingOperator(make_design(N, M, D, U, Np, M, seed=int(rng.integers(2**63))), "FS")
    assert step_route(op) == "fft"
    noise = rng.standard_normal(op.out_dim) + 1j * rng.standard_normal(op.out_dim)
    if kind == "sparse":
        idx = np.sort(rng.choice(op.in_dim, int(rng.integers(1, 7)), replace=False))
        y = op.forward(idx, rng.standard_normal(idx.size) + 1j * rng.standard_normal(idx.size))
        y = y + float(rng.choice([0.0, 0.01, 0.3])) * noise
    elif kind == "spread":
        y = noise
    elif kind == "zero":
        y = np.zeros(op.out_dim, dtype=complex)
    else:
        Z = np.zeros((Np, M), dtype=complex)
        pilots = rng.integers(Np, size=M) if kind == "near-tie" else np.zeros(M, dtype=int)
        Z[pilots, np.arange(M)] = np.exp(2j * np.pi * rng.random(M))
        if kind == "near-tie":
            Z *= 1.0 + 1e-10 * rng.integers(-2, 3, size=M)
        y = vectorize(np.fft.ifft(Z, axis=1) * math.sqrt(M), "FS")
    s_M = int(rng.integers(1, M + 2) if rng.random() < 0.15 else rng.integers(1, M // 3 + 2))
    s = (s_M, int(rng.integers(1, U + 1)), int(rng.integers(1, 4)))
    return op, y, SparsityProfile(s).clip(op.shape_in)


def test_screened_passes_equal_full_first_passes():
    # With every antenna observed on the FFT step route, an FS HiIHT/HiHTP
    # solve forms A^H y first on the top s_M angles by bound and certifies the
    # rest out, forming the angles that fail. Against the same solve forming
    # every angle first, on 1,200 random designs and measurements (product
    # and FFT adjoint routes; y = 0, evenly spread energy, near-ties within
    # the margin, s_M >= M and M = 1 among them), every support, pass count,
    # stop, residual and x_hat byte is the same. Some solves leave angles
    # unformed, and some form a second round.
    rng = np.random.default_rng(36)
    kinds = ["sparse"] * 6 + ["spread"] * 2 + ["zero", "even", "near-tie"]
    seen = Counter()
    adjoint = KroneckerSensingOperator.adjoint_values
    for trial in range(1200):
        kind = kinds[trial % len(kinds)]
        op, y, profile = screening_case(rng, kind)
        full_op = UnscreenedOperator(op.design, "FS")
        algorithm = ("HiIHT", "HiHTP")[trial % 2]
        cfg = RecoveryConfig(algorithm=algorithm, profile=profile, max_iters=int(rng.integers(1, 11)))
        formed = []

        def recorded(self, y, out=None, moduli=None, angles=None):
            formed.append(angles)
            return adjoint(self, y, out, moduli, angles)

        with mock.patch.object(KroneckerSensingOperator, "adjoint_values", recorded):
            res = solve(y, op, cfg)
        ref = solve(y, full_op, cfg)
        assert fingerprint(res) == fingerprint(ref) and res.stop == ref.stop
        screened = profile.s[0] < op.design.M
        assert (formed[0] is not None) == screened
        if screened:
            unformed = op.design.M - len(set(np.concatenate(formed).tolist()))
            seen["screened"] += 1
            seen["pruned"] += unformed > 0
            seen["second round"] += len(formed) > 1
            seen[f"{kind}, nothing pruned"] += unformed == 0
            seen[f"{op._adjoint_table is not None} route"] += 1
        seen["M = 1"] += op.design.M == 1
        seen["s_M >= M"] += not screened and op.design.M > 1
    assert seen["screened"] >= 1000 and seen["pruned"] >= 300 and seen["second round"] >= 300
    covered = ("zero, nothing pruned", "even, nothing pruned", "near-tie, nothing pruned",
               "True route", "False route", "M = 1", "s_M >= M")
    assert min(seen[key] for key in covered) > 0
