import importlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from oracles import dense_squared_distances
from poif.exceptions import ConfigError
from poif.records import EmbeddingPair, Modality
from poif.similarity import (
    joint_similarity,
    similarity,
    similarity_matrix,
    squared_distance,
    squared_distance_matrix,
)

# The package re-exports a function named `similarity`, so fetch the module.
similarity_module = importlib.import_module("poif.similarity")


def test_squared_distance_matches_manual():
    rng = np.random.default_rng(0)
    x = rng.standard_normal(9)
    y = rng.standard_normal(9)
    assert squared_distance(x, y) == pytest.approx(float(((x - y) ** 2).sum()), rel=1e-15)
    assert squared_distance(x, x) == 0.0


def test_squared_distance_rejects_mismatched_shapes():
    with pytest.raises(ValueError):
        squared_distance(np.zeros(3), np.zeros(4))


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
    # Bitwise agreement: the scoring code relies on it when comparing a
    # vectorized reference pass against per-segment queries.
    rng = np.random.default_rng(1)
    x = rng.standard_normal((5, 7))
    y = rng.standard_normal((4, 7))
    d = squared_distance_matrix(x, y)
    for i in range(5):
        for j in range(4):
            assert d[i, j] == squared_distance(x[i], y[j])


def test_similarity_sign_and_temperature_scaling():
    rng = np.random.default_rng(2)
    a = EmbeddingPair(rng.standard_normal(4), rng.standard_normal(3))
    b = EmbeddingPair(rng.standard_normal(4), rng.standard_normal(3))
    s1 = similarity(a, b, Modality.AUDIO, tau=1.0)
    s2 = similarity(a, b, Modality.AUDIO, tau=2.0)
    assert s1 <= 0.0
    assert s2 == pytest.approx(s1 / 2.0, rel=1e-15)
    assert joint_similarity(a, b, 1.0) == pytest.approx(
        s1 + similarity(a, b, Modality.VIDEO, 1.0), rel=1e-15
    )


def test_similarity_rejects_joint_tag_and_bad_tau():
    a = EmbeddingPair(np.ones(2), np.ones(2))
    with pytest.raises(ValueError):
        similarity(a, a, Modality.AV, 1.0)
    with pytest.raises(ConfigError):
        similarity(a, a, Modality.AUDIO, 0.0)
    with pytest.raises(ConfigError):
        similarity(a, a, Modality.AUDIO, -1.0)


def test_similarity_matrix_joint_is_sum_of_channels():
    rng = np.random.default_rng(3)
    pairs = [EmbeddingPair(rng.standard_normal(4), rng.standard_normal(6)) for _ in range(7)]
    ma = similarity_matrix(pairs, Modality.AUDIO, 0.7)
    mv = similarity_matrix(pairs, Modality.VIDEO, 0.7)
    mav = similarity_matrix(pairs, Modality.AV, 0.7)
    assert np.array_equal(mav.entries, ma.entries + mv.entries)
    assert mav.segment_ids == ma.segment_ids == tuple(range(7))


def test_similarity_matrix_entries_match_pair_function():
    rng = np.random.default_rng(4)
    pairs = [EmbeddingPair(rng.standard_normal(3), rng.standard_normal(3)) for _ in range(4)]
    m = similarity_matrix(pairs, Modality.VIDEO, 1.3)
    for i in range(4):
        for j in range(4):
            assert m.entries[i, j] == pytest.approx(
                similarity(pairs[i], pairs[j], Modality.VIDEO, 1.3), rel=1e-15, abs=1e-300
            )


def test_similarity_matrix_needs_two_segments():
    pair = EmbeddingPair(np.ones(2), np.ones(2))
    with pytest.raises(ValueError):
        similarity_matrix([pair], Modality.AUDIO, 1.0)
