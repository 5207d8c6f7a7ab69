from dataclasses import replace

from hypothesis import given, settings, strategies as st
import numpy as np
import pytest

from hisparse import make_design, signature
from hisparse.design import _sample_sorted


def scalar_sample_sorted(n, k, rng):
    """Partial Fisher-Yates with one scalar draw per step (test oracle)."""
    idx = np.arange(n, dtype=np.int64)
    for i in range(k):
        j = int(rng.integers(i, n))
        idx[i], idx[j] = idx[j], idx[i]
    return np.sort(idx[:k])


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.data())
def test_sample_sorted_matches_scalar_draws(data):
    # The design seed rule is part of the manifest: the batched draw must pick
    # the same indices and leave the generator where the scalar loop leaves it.
    n = data.draw(st.one_of(st.integers(1, 64), st.integers(65, 4096)), label="n")
    k = data.draw(st.integers(1, n), label="k")
    seed = data.draw(st.integers(0, 2**64 - 1), label="seed")
    fast, slow = np.random.default_rng(seed), np.random.default_rng(seed)
    picked = _sample_sorted(n, k, fast)
    np.testing.assert_array_equal(picked, scalar_sample_sorted(n, k, slow))
    assert picked.dtype == np.int64
    assert fast.integers(2**63) == slow.integers(2**63)


def test_same_seed_same_sets():
    a = make_design(64, 16, 16, 2, 12, 5, seed=99)
    b = make_design(64, 16, 16, 2, 12, 5, seed=99)
    np.testing.assert_array_equal(a.subcarriers, b.subcarriers)
    np.testing.assert_array_equal(a.antennas, b.antennas)
    c = make_design(64, 16, 16, 2, 12, 5, seed=100)
    assert not (np.array_equal(a.subcarriers, c.subcarriers)
                and np.array_equal(a.antennas, c.antennas))


def test_full_sampling_is_seed_independent():
    for seed in (0, 1, 12345):
        d = make_design(32, 8, 8, 2, 32, 8, seed=seed)
        np.testing.assert_array_equal(d.subcarriers, np.arange(32))
        np.testing.assert_array_equal(d.antennas, np.arange(8))


def test_full_sampling_headline_sizes():
    d = make_design(1024, 256, 256, 4, 1024, 256, seed=9)
    assert d.Np == 1024 and d.Mp == 256
    np.testing.assert_array_equal(d.subcarriers, np.arange(1024))
    np.testing.assert_array_equal(d.antennas, np.arange(256))
    np.testing.assert_allclose(d.base_sequence, 1.0)


def test_make_design_validation():
    with pytest.raises(ValueError):
        make_design(16, 4, 8, 3, 8, 4)          # U > N/D
    with pytest.raises(ValueError, match=r"cannot draw 17 distinct indices from \[0, 16\)"):
        make_design(16, 4, 4, 2, 17, 4)         # Np > N
    with pytest.raises(ValueError, match=r"cannot draw 5 distinct indices from \[0, 4\)"):
        make_design(16, 4, 4, 2, 8, 5)          # Mp > M
    with pytest.raises(ValueError):
        make_design(16, 4, 4, 2, 8, 4, base_sequence=np.full(16, 2.0 + 0j))
    with pytest.raises(ValueError):
        make_design(16, 4, 4, 2, 8, 4, base_sequence=np.ones(8, dtype=complex))
    # A directly built design is checked by the same rules.
    design = make_design(16, 4, 4, 2, 2, 2, seed=0)
    for changes, message in [
        ({"Np": 0}, "pilot/antenna counts out of range"),
        ({"Np": 17}, "pilot/antenna counts out of range"),
        ({"Mp": 5}, "pilot/antenna counts out of range"),
        ({"subcarriers": np.array([3, 3])}, "subcarriers must be 2 distinct indices"),
        ({"antennas": np.array([1, 1])}, "antennas must be 2 distinct indices"),
        ({"subcarriers": np.array([-1, 3])}, r"subcarriers out of range \[0, 16\)"),
        ({"subcarriers": np.array([3, 16])}, r"subcarriers out of range \[0, 16\)"),
        ({"antennas": np.array([0, 4])}, r"antennas out of range \[0, 4\)"),
        # Non-integer sizes and indices are refused, not truncated.
        ({"Np": 2.5}, r"^Np must be an integer, got 2\.5$"),
        ({"N": 16.0}, r"^N must be an integer, got 16\.0$"),
        ({"M": np.float64(4)}, r"^M must be an integer, got np\.float64\(4\.0\)$"),
        ({"D": "4"}, r"^D must be an integer, got '4'$"),
        ({"U": True}, r"^U must be an integer, got True$"),
        ({"Mp": None}, r"^Mp must be an integer, got None$"),
        ({"subcarriers": [0.5, 3.7]}, r"^subcarriers must be integer indices, got float64 entries$"),
        ({"subcarriers": np.array([0.0, 3.0])}, r"^subcarriers must be integer indices, got float64 entries$"),
        ({"antennas": [True, False]}, r"^antennas must be integer indices, got bool entries$"),
        ({"antennas": ["0", "1"]}, r"^antennas must be integer indices, got <U1 entries$"),
    ]:
        with pytest.raises(ValueError, match=message):
            replace(design, **changes)
    replace(design)
    # Integer indices of any integer dtype become sorted int64.
    built = replace(design, subcarriers=[9, 2], antennas=np.array([3, 0], dtype=np.uint8))
    for arr, expected in ((built.subcarriers, [2, 9]), (built.antennas, [0, 3])):
        assert arr.dtype == np.int64 and arr.tolist() == expected


def test_signature_zero_ue_restricts_base():
    rng = np.random.default_rng(0)
    base = np.exp(1j * rng.uniform(0, 2 * np.pi, 16))
    d = make_design(16, 4, 4, 2, 6, 4, base_sequence=base, seed=1)
    np.testing.assert_allclose(signature(d, 0), base[d.subcarriers])


def test_signature_alternating_ramp():
    # N=4, D=2, u=1, all-ones base: ramp exp(-j*pi*n) = (-1)^n.
    d = make_design(4, 2, 2, 2, 4, 2, seed=0)
    np.testing.assert_allclose(signature(d, 1), [1, -1, 1, -1], atol=1e-15)


def test_signature_direct_formula():
    # Independent evaluation of the ramp at N=8, D=2, u=3 on {0, 2, 5}.
    d = make_design(8, 2, 2, 4, 8, 2, seed=0)
    sig = signature(d, 3)[[0, 2, 5]]
    expected = np.exp(-2j * np.pi * 3 * 2 * np.array([0, 2, 5]) / 8)
    np.testing.assert_allclose(sig, expected, atol=1e-15)
    np.testing.assert_allclose(expected, [1, -1, 1j], atol=1e-15)


def test_signatures_have_unit_modulus():
    rng = np.random.default_rng(5)
    base = np.exp(1j * rng.uniform(0, 2 * np.pi, 32))
    d = make_design(32, 8, 8, 4, 10, 6, base_sequence=base, seed=2)
    for u in range(4):
        np.testing.assert_allclose(np.abs(signature(d, u)), 1.0, atol=1e-12)
    with pytest.raises(ValueError):
        signature(d, 4)


def test_design_is_deterministic_in_its_seed():
    # make_design is deterministic in its seed: every field comes back identical.
    rng = np.random.default_rng(8)
    base = np.exp(1j * rng.uniform(0, 2 * np.pi, 24))
    d = make_design(24, 6, 6, 2, 9, 4, base_sequence=base, seed=77)
    again = make_design(24, 6, 6, 2, 9, 4, base_sequence=base, seed=77)
    assert (again.N, again.M, again.D, again.U, again.Np, again.Mp) == (24, 6, 6, 2, 9, 4)
    np.testing.assert_array_equal(again.subcarriers, d.subcarriers)
    np.testing.assert_array_equal(again.antennas, d.antennas)
    np.testing.assert_array_equal(again.base_sequence, d.base_sequence)
