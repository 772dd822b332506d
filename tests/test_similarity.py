import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import assert_within, embedded_reference, gram_bound, make_batch
from oracles import dense_squared_distances, squared_distance
from poif.encoder import EncoderConfig, init_encoder
from poif.exceptions import ConfigError
from poif.losses import loss_and_embedding_grads, loss_plan
from poif.records import CHANNELS, SegmentTable
from poif.scoring import best_matches
from poif.similarity import (
    check_temperature,
    padded_blocks,
    rows_per_block,
    similarity_stack,
    squared_distance_matrix,
)


def test_squared_distance_matches_manual():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((1, 9))
    y = rng.standard_normal((1, 9))
    manual = float(((x - y) ** 2).sum())
    assert squared_distance_matrix(x, y)[0, 0] == pytest.approx(manual, rel=1e-15)
    assert squared_distance_matrix(x, x)[0, 0] == 0.0


def test_squared_distance_rejects_mismatched_shapes():
    with pytest.raises(ValueError):
        squared_distance_matrix(np.zeros((2, 3)), np.zeros((2, 4)))
    with pytest.raises(ValueError):
        squared_distance_matrix(np.zeros(3))


@given(st.integers(2, 12), st.integers(1, 8), st.integers(0, 10**6))
def test_distance_matrix_exactly_symmetric(n, dim, seed):
    x = np.random.default_rng(seed).standard_normal((n, dim))
    d = squared_distance_matrix(x)
    assert np.array_equal(d, d.T)
    assert np.all(np.diag(d) == 0.0)
    assert np.all(d >= 0.0)


# The two tests below keep their ids from the row-blocked kernel.  The
# kernel no longer blocks; `rows` is now the block size a caller such as
# best_matches slices x into: 1 takes BLAS's one-row path, 2-4 give
# several blocks with an uneven last one, 64 puts each shape in one call.
@pytest.mark.parametrize("rows", [1, 2, 3, 4, 64])
def test_blocked_kernel_matches_dense_oracle_bitwise(rows):
    rng = np.random.default_rng(5)
    for n, m, d in [(13, 9, 5), (7, 13, 32), (1, 9, 37), (11, 1, 32), (13, 13, 37)]:
        x = rng.standard_normal((n, d)) * 3.0
        y = rng.standard_normal((m, d))
        blocked = np.concatenate([squared_distance_matrix(x[i:i + rows], y)
                                  for i in range(0, n, rows)])
        assert_within(blocked, dense_squared_distances(x, y), gram_bound(x, y))
        assert_within(squared_distance_matrix(x), dense_squared_distances(x), gram_bound(x))


# In one or three dimensions one norm can dominate each sum, so the order
# of the two norm additions shows: adding them in index order for every
# entry broke symmetry at n=3, d=1.
@pytest.mark.parametrize("d", [1, 3])
def test_blocked_kernel_stays_symmetric_with_zero_diagonal(d):
    rng = np.random.default_rng(6)
    for n in (3, 40):
        for _ in range(50):
            x = rng.standard_normal((n, d)) * 10.0 ** rng.integers(-3, 4)
            dist = squared_distance_matrix(x)
            assert np.array_equal(dist, dist.T)
            assert np.all(np.diag(dist) == 0.0)


def test_near_duplicate_rows_clamp_to_zero():
    # Exact and near copies of a few large rows: the exact distance is 0 or
    # tiny, and the Gram form's cancellation can round below it.
    rng = np.random.default_rng(8)
    base = rng.standard_normal((4, 32)) * 30.0
    x = base[rng.integers(0, 4, 60)]
    x[::2] += rng.standard_normal((30, 32)) * 1e-7
    y = x[rng.permutation(60)]
    for dist, oracle, bound in (
        (squared_distance_matrix(x), dense_squared_distances(x), gram_bound(x)),
        (squared_distance_matrix(x, y), dense_squared_distances(x, y), gram_bound(x, y)),
    ):
        assert np.all(dist >= 0.0)
        assert_within(dist, oracle, bound)


def test_one_row_call_agrees_with_its_row_in_a_larger_call():
    # numpy hands a one-row product to gemv, a larger one to gemm; their
    # sums may differ in the last bits, never beyond the bound
    rng = np.random.default_rng(9)
    y = rng.standard_normal((1000, 32))
    for n in (2, 7, 40):
        x = rng.standard_normal((n, 32)) * 3.0
        full = squared_distance_matrix(x, y)
        for i in range(n):
            one = x[i:i + 1]
            assert_within(squared_distance_matrix(one, y), full[i:i + 1], gram_bound(one, y))


def test_distance_matrix_memory_is_bounded_by_its_output():
    # The unblocked (n, n, d) difference tensor alone is 256 MB here.
    n, d = 1000, 32
    x = np.random.default_rng(7).standard_normal((n, d))
    out_bytes = n * n * 8
    tracemalloc.start()
    try:
        squared_distance_matrix(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * out_bytes, f"peak {peak / 1e6:.1f} MB"


def test_distance_matrix_agrees_with_scalar_path():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((5, 7))
    y = rng.standard_normal((4, 7))
    d = squared_distance_matrix(x, y)
    scalar = [[squared_distance(x[i], y[j]) for j in range(4)] for i in range(5)]
    assert_within(d, scalar, gram_bound(x, y))


def channel_pairs(rng, n, m, d_audio=4, d_video=3):
    """Test and reference embedding matrices, (audio, video) each."""
    return ((rng.standard_normal((n, d_audio)), rng.standard_normal((n, d_video))),
            (rng.standard_normal((m, d_audio)), rng.standard_normal((m, d_video))))


def row_norms(*ys):
    return [np.einsum("ij,ij->i", y, y) for y in ys]


def test_best_matches_slices_keep_the_bits_of_one_kernel_call_per_slice():
    """best_matches computes the reference's row norms once for all its
    slices; every slice, the last one zero-padded, gets the bits of a
    kernel call that computes them."""
    rng = np.random.default_rng(12)
    (xa, xv), (ra, rv) = channel_pairs(rng, 70, 300, d_audio=32, d_video=16)
    rows = rows_per_block(300)
    assert 70 % rows  # several slices, the last one padded
    got = best_matches(xa, xv, ra, rv, 0.7)
    for (start, stop, ba), (_, _, bv) in zip(padded_blocks(xa, rows), padded_blocks(xv, rows)):
        assert len(ba) == len(bv) == rows
        s_a = -(squared_distance_matrix(ba, ra) / 0.7)[:stop - start]
        s_v = -(squared_distance_matrix(bv, rv) / 0.7)[:stop - start]
        for m, best, sims in zip(CHANNELS, got, (s_v, s_a, s_v + s_a)):
            assert np.array_equal(best[start:stop], sims.max(axis=1)), (m, start)
        assert np.array_equal(squared_distance_matrix(ba, ra, row_norms(ra)[0]),
                              squared_distance_matrix(ba, ra))


def test_similarity_sign_and_temperature_scaling():
    rng = np.random.default_rng(2)
    (xa, xv), (ra, rv) = channel_pairs(rng, 3, 5)
    s1 = similarity_stack(xa, xv, 1.0, ra, rv, row_norms(rv, ra))
    s2 = similarity_stack(xa, xv, 2.0, ra, rv, row_norms(rv, ra))
    for c in range(len(CHANNELS)):
        assert np.all(s1[c] <= 0.0)
        np.testing.assert_allclose(s2[c], s1[c] / 2.0, rtol=1e-15)


def test_similarity_rejects_bad_tau():
    for tau in (0.0, -1.0, float("nan")):
        with pytest.raises(ConfigError):
            check_temperature(tau)
    rng = np.random.default_rng(3)
    batch = make_batch(rng, counts=(4,))
    x_audio, x_video = rng.standard_normal((4, 3)), rng.standard_normal((4, 3))
    plan = loss_plan(~np.eye(4, dtype=bool))
    with pytest.raises(ConfigError):
        loss_and_embedding_grads(x_audio, x_video, plan, 0.0, 1.0)
    with pytest.raises(ConfigError, match="temperature must be positive"):
        similarity_stack(x_audio, x_video, -1.0)
    params = init_encoder(6, 5, EncoderConfig(1, 4, 2), np.random.default_rng(0))
    with pytest.raises(ConfigError):
        embedded_reference(SegmentTable.from_records(batch), params, -1.0)


def bits(a):
    """The float64 bit patterns of a: tells -0.0 from 0.0, unlike ==."""
    return np.ascontiguousarray(a, dtype=np.float64).view(np.int64)


def test_similarity_matrix_joint_is_sum_of_channels():
    rng = np.random.default_rng(3)
    (xa, xv), (ra, rv) = channel_pairs(rng, 7, 6, d_video=6)
    for sims, shape in ((similarity_stack(xa, xv, 0.7, ra, rv, row_norms(rv, ra)), (7, 6)),
                        (similarity_stack(xa, xv, 0.7), (7, 7))):
        assert sims.shape == (len(CHANNELS), *shape)
        assert np.array_equal(bits(sims[2]), bits(sims[0] + sims[1]))


@pytest.mark.parametrize("tau", [0.01, 0.5, 3.0])
def test_similarity_stack_is_the_kernel_divided_by_minus_tau(tau):
    """Both forms: video then audio, each the kernel's distances over -tau."""
    rng = np.random.default_rng(13)
    (xa, xv), (ra, rv) = channel_pairs(rng, 9, 37, d_audio=8, d_video=5)
    forms = (
        (similarity_stack(xa, xv, tau), (squared_distance_matrix(xv),
                                         squared_distance_matrix(xa))),
        (similarity_stack(xa, xv, tau, ra, rv), (squared_distance_matrix(xv, rv),
                                                 squared_distance_matrix(xa, ra))),
        (similarity_stack(xa, xv, tau, ra, rv, row_norms(rv, ra)),
         (squared_distance_matrix(xv, rv), squared_distance_matrix(xa, ra))),
    )
    for sims, distances in forms:
        for plane, d in zip(sims, distances):
            assert np.array_equal(bits(plane), bits(np.divide(d, -tau)))


@given(st.integers(2, 40), st.integers(1, 8), st.integers(0, 10**6))
def test_similarity_stack_self_form_is_exactly_symmetric(n, dim, seed):
    rng = np.random.default_rng(seed)
    xa, xv = rng.standard_normal((n, dim)), rng.standard_normal((n, dim + 1))
    sims = similarity_stack(xa, xv, 0.5)
    assert np.array_equal(bits(sims), bits(sims.transpose(0, 2, 1)))


def test_dividing_by_minus_tau_negates_the_quotient():
    """fl(d / -tau) = -fl(d / tau) under round-to-nearest, which lets one
    division build every plane of the stack with the bits of -(d / tau)."""
    rng = np.random.default_rng(14)
    d = np.concatenate(([0.0, 5e-324, 1e-300, 1.0, 1e300],
                        rng.random(20000) * 10.0 ** rng.integers(-30, 30, 20000)))
    for tau in np.concatenate(([1e-3, 0.01, 0.5, 1.0, 3.0],
                               (1.0 - rng.random(200)) * 10.0 ** rng.integers(-6, 6, 200))):
        assert np.array_equal(bits(np.divide(d, -tau)), bits(-(d / tau))), tau


def test_similarity_matrix_entries_match_pair_function():
    rng = np.random.default_rng(4)
    (xa, xv), (ra, rv) = channel_pairs(rng, 4, 4, d_audio=3)
    sims = similarity_stack(xa, xv, 1.3, ra, rv, row_norms(rv, ra))
    bound_a, bound_v = gram_bound(xa, ra) / 1.3, gram_bound(xv, rv) / 1.3
    for i in range(4):
        for j in range(4):
            s_a = -(squared_distance(xa[i], ra[j]) / 1.3)
            s_v = -(squared_distance(xv[i], rv[j]) / 1.3)
            assert_within(sims[0, i, j], s_v, bound_v[i, j])
            assert_within(sims[1, i, j], s_a, bound_a[i, j])
            assert_within(sims[2, i, j], s_v + s_a, bound_v[i, j] + bound_a[i, j])
