import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

import poif.similarity as similarity_module
from conftest import make_batch
from oracles import dense_squared_distances, squared_distance
from poif.encoder import EncoderConfig, init_encoder
from poif.exceptions import ConfigError
from poif.losses import loss_and_embedding_grads
from poif.records import Modality, SegmentTable
from poif.scoring import _similarity_rows, build_reference
from poif.similarity import check_temperature, squared_distance_matrix


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


def set_rows_per_block(monkeypatch, rows, m, d):
    """Patch the kernel's byte budget to give `rows` rows against m rows in d dims."""
    monkeypatch.setattr(similarity_module, "_BLOCK_BYTES", rows * 8 * m * d)
    assert similarity_module.rows_per_block(m, d) == rows


# d >= 8 sums with numpy's unrolled pairwise reduction, d < 8 with a plain
# loop; the blocked kernel has to reproduce both.  Rows 1 and 2-4 give
# one-row blocks and several blocks with an uneven last one; 64 rows puts
# every shape in a single block.
@pytest.mark.parametrize("rows", [1, 2, 3, 4, 64])
def test_blocked_kernel_matches_dense_oracle_bitwise(monkeypatch, rows):
    rng = np.random.default_rng(5)
    for n, m, d in [(13, 9, 5), (7, 13, 32), (1, 9, 37), (11, 1, 32), (13, 13, 37)]:
        x = rng.standard_normal((n, d)) * 3.0
        y = rng.standard_normal((m, d))
        set_rows_per_block(monkeypatch, rows, m, d)
        assert np.array_equal(squared_distance_matrix(x, y), dense_squared_distances(x, y))
        set_rows_per_block(monkeypatch, rows, n, d)
        assert np.array_equal(squared_distance_matrix(x), dense_squared_distances(x))


@pytest.mark.parametrize("rows", [1, 3])
def test_blocked_kernel_stays_symmetric_with_zero_diagonal(monkeypatch, rows):
    set_rows_per_block(monkeypatch, rows, 40, 32)
    x = np.random.default_rng(6).standard_normal((40, 32))
    d = squared_distance_matrix(x)
    assert np.array_equal(d, d.T)
    assert np.all(np.diag(d) == 0.0)


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
    # Bitwise agreement with the oracle's scalar distance: the acceptance
    # battery compares best-match indices against scalar loops exactly.
    rng = np.random.default_rng(1)
    x = rng.standard_normal((5, 7))
    y = rng.standard_normal((4, 7))
    d = squared_distance_matrix(x, y)
    for i in range(5):
        for j in range(4):
            assert d[i, j] == squared_distance(x[i], y[j])


def channel_pairs(rng, n, m, d_audio=4, d_video=3):
    """Test and reference embedding matrices, (audio, video) each."""
    return ((rng.standard_normal((n, d_audio)), rng.standard_normal((n, d_video))),
            (rng.standard_normal((m, d_audio)), rng.standard_normal((m, d_video))))


def test_similarity_sign_and_temperature_scaling():
    rng = np.random.default_rng(2)
    (xa, xv), (ra, rv) = channel_pairs(rng, 3, 5)
    s1 = _similarity_rows(xa, xv, ra, rv, 1.0)
    s2 = _similarity_rows(xa, xv, ra, rv, 2.0)
    for m in Modality:
        assert np.all(s1[m] <= 0.0)
        np.testing.assert_allclose(s2[m], s1[m] / 2.0, rtol=1e-15)


def test_similarity_rejects_bad_tau():
    for tau in (0.0, -1.0, float("nan")):
        with pytest.raises(ConfigError):
            check_temperature(tau)
    rng = np.random.default_rng(3)
    batch = make_batch(rng, counts=(4,))
    x_audio, x_video = rng.standard_normal((4, 3)), rng.standard_normal((4, 3))
    pos = ~np.eye(4, dtype=bool)
    with pytest.raises(ConfigError):
        loss_and_embedding_grads(x_audio, x_video, pos, 0.0, 1.0)
    params = init_encoder(6, 5, EncoderConfig(1, 4, 2), 0)
    with pytest.raises(ConfigError):
        build_reference(SegmentTable.from_records(batch), params, -1.0)


def test_similarity_matrix_joint_is_sum_of_channels():
    rng = np.random.default_rng(3)
    (xa, xv), (ra, rv) = channel_pairs(rng, 7, 6, d_video=6)
    sims = _similarity_rows(xa, xv, ra, rv, 0.7)
    assert np.array_equal(sims[Modality.AV], sims[Modality.AUDIO] + sims[Modality.VIDEO])
    assert sims[Modality.AV].shape == (7, 6)


def test_similarity_matrix_entries_match_pair_function():
    rng = np.random.default_rng(4)
    (xa, xv), (ra, rv) = channel_pairs(rng, 4, 4, d_audio=3)
    sims = _similarity_rows(xa, xv, ra, rv, 1.3)
    for i in range(4):
        for j in range(4):
            s_a = -(squared_distance(xa[i], ra[j]) / 1.3)
            s_v = -(squared_distance(xv[i], rv[j]) / 1.3)
            assert sims[Modality.AUDIO][i, j] == s_a
            assert sims[Modality.VIDEO][i, j] == s_v
            assert sims[Modality.AV][i, j] == s_a + s_v
