import numpy as np
import pytest

from conftest import assert_tables_equal
from oracles import record_benchmark, record_identity_videos, record_world
from poif.exceptions import ConfigError, DataError
from poif.records import GROUP_FLAGS, GROUPS, SegmentTable
from poif.synthgen import (
    WorldConfig, check_disjoint, generate_benchmark, generate_world, sample_identity_videos,
)


def small_world(seed=0, **kw):
    cfg = dict(n_identities=4, n_videos_per_identity=3, n_segments_per_video=2,
               audio_dim=5, video_dim=4, seed=seed)
    cfg.update(kw)
    return generate_world(WorldConfig(**cfg))


def video_rows(table, video_id):
    return table.take(table.video_ids == video_id)


def test_world_shape_and_ids():
    world = small_world()
    assert world.identity_ids == ("id0000", "id0001", "id0002", "id0003")
    assert world.audio_latents.shape == (4, 5)
    assert world.video_latents.shape == (4, 4)
    segments = world.segments
    assert len(segments) == 4 * 3 * 2
    assert segments.key(0) == ("id0000", "id0000_v000", 0)
    assert not segments.flags.any() and not segments.blend.any()
    offset = small_world(identity_start=200)
    assert offset.identity_ids[0] == "id0200"


# Dims of 1, one segment per video (K=1), one identity, non-default scales.
ORACLE_WORLDS = [
    dict(n_identities=4, n_videos_per_identity=3, n_segments_per_video=2,
         audio_dim=5, video_dim=4, seed=0),
    dict(n_identities=3, n_videos_per_identity=2, n_segments_per_video=3,
         audio_dim=1, video_dim=1, seed=1),
    dict(n_identities=5, n_videos_per_identity=4, n_segments_per_video=1,
         audio_dim=3, video_dim=2, seed=2, identity_start=10000),
    dict(n_identities=1, n_videos_per_identity=1, n_segments_per_video=1,
         audio_dim=2, video_dim=6, seed=3),
    dict(n_identities=2, n_videos_per_identity=3, n_segments_per_video=4,
         audio_dim=4, video_dim=3, seed=4, identity_scale=0.3, video_bias_scale=0.7,
         segment_noise_scale=0.0),
]


@pytest.mark.parametrize("kw", ORACLE_WORLDS)
def test_world_matches_record_oracle(kw, monkeypatch):
    """Bit for bit the per-segment generator, and the same generator state after."""
    cfg = WorldConfig(**kw)
    ids, audio_latents, video_latents, records, state = record_world(cfg)
    made = []
    default_rng = np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng",
                        lambda seed: made.append(default_rng(seed)) or made[-1])
    world = generate_world(cfg)
    monkeypatch.undo()
    assert world.identity_ids == ids
    np.testing.assert_array_equal(world.audio_latents, audio_latents)
    np.testing.assert_array_equal(world.video_latents, video_latents)
    assert_tables_equal(world.segments, SegmentTable.from_records(records))
    assert [g.bit_generator.state for g in made] == [state]


@pytest.mark.parametrize("kw", ORACLE_WORLDS)
def test_sample_identity_videos_matches_record_oracle(kw):
    world = generate_world(WorldConfig(**kw))
    ours, theirs = np.random.default_rng(11), np.random.default_rng(11)
    for n_videos, n_segments in ((2, 3), (1, 1), (3, 0), (0, 2)):
        got = sample_identity_videos(world, world.identity_ids[-1], n_videos, n_segments,
                                     ours, "q")
        want = record_identity_videos(world, world.identity_ids[-1], n_videos, n_segments,
                                      theirs, "q")
        if want:
            assert_tables_equal(got, SegmentTable.from_records(want))
        else:
            assert len(got) == 0
        assert ours.bit_generator.state == theirs.bit_generator.state


SMALL_BENCHMARK = dict(fakes_per_group=3,
                       segments_per_video=2, reference_videos=3, real_videos=2,
                       cloned_voice_scale=0.3)
# The README benchmark: 20 people, 10 reference videos of 10 segments, 4 real
# videos and 4 fakes per group each, over the CLI's benchmark world.
README_WORLD = dict(n_identities=20, n_videos_per_identity=1, n_segments_per_video=1,
                    seed=8, identity_start=10000)
README_BENCHMARK = dict(fakes_per_group=4, segments_per_video=10,
                        reference_videos=10, real_videos=4, cloned_voice_scale=0.5)
ORACLE_BENCHMARKS = [(w, SMALL_BENCHMARK) for w in ORACLE_WORLDS if w["n_identities"] > 1]


@pytest.mark.parametrize("kw, shape", ORACLE_BENCHMARKS + [(README_WORLD, README_BENCHMARK)],
                         ids=[f"kw{i}" for i in range(len(ORACLE_BENCHMARKS))] + ["readme"])
def test_benchmark_matches_record_oracle(kw, shape):
    world = generate_world(WorldConfig(**kw))
    shape = dict(shape)
    fakes = shape.pop("fakes_per_group")
    ours, theirs = np.random.default_rng([5, 1]), np.random.default_rng([5, 1])
    bench = generate_benchmark(world, fakes, [1.0, 0.4], ours, **shape)
    reference, test = record_benchmark(world, dict.fromkeys(GROUPS, fakes), [1.0, 0.4], theirs,
                                       **shape)
    assert_tables_equal(bench.reference, SegmentTable.from_records(reference))
    assert_tables_equal(bench.test, SegmentTable.from_records(test))
    assert ours.bit_generator.state == theirs.bit_generator.state


def test_world_is_seed_deterministic():
    a, b = small_world(seed=9), small_world(seed=9)
    np.testing.assert_array_equal(a.audio_latents, b.audio_latents)
    assert_tables_equal(a.segments, b.segments)
    c = small_world(seed=10)
    assert not np.array_equal(a.audio_latents, c.audio_latents)


def test_same_video_shares_bias():
    """Segments of one video sit closer together than segments across videos."""
    world = small_world(video_bias_scale=1.0, segment_noise_scale=0.05)
    segs = world.segments
    within = np.linalg.norm(segs.video[0] - segs.video[1])   # same video
    across = np.linalg.norm(segs.video[0] - segs.video[2])   # other video
    assert segs.video_ids[0] == segs.video_ids[1] != segs.video_ids[2]
    assert segs.identity_ids[2] == "id0000"
    assert within < across


def test_sample_identity_videos_extends_world():
    world = small_world()
    extra = sample_identity_videos(world, "id0002", 2, 3, np.random.default_rng(0), "q")
    assert len(extra) == 6
    assert set(extra.video_ids.tolist()) == {"id0002_q000", "id0002_q001"}
    assert set(extra.identity_ids.tolist()) == {"id0002"}
    with pytest.raises(DataError):
        sample_identity_videos(world, "nobody", 1, 1, np.random.default_rng(0))


def bench_world(seed=0, identities=4):
    return generate_world(WorldConfig(
        n_identities=identities, n_videos_per_identity=1, n_segments_per_video=1,
        audio_dim=5, video_dim=4, seed=seed))


def test_benchmark_fakes_are_their_sources_plus_the_group_edit():
    """Each fake is its source video plus its group's edit, bit for bit: a swap
    adds blend times a donor's video latent delta, a foreign track the same
    donor's audio latent delta, a cloned voice the person's one offset; the
    untouched channel is the source's."""
    world = bench_world(identities=5)
    betas, real_videos = [1.0, 0.4], 2
    bench = generate_benchmark(world, 3, betas, np.random.default_rng(4),
                               segments_per_video=3, reference_videos=2,
                               real_videos=real_videos, cloned_voice_scale=0.5)
    # the voice offsets are the generator's first draw
    offsets = np.random.default_rng(4).standard_normal((5, 5)) * 0.5
    test = bench.test
    cloned = set()
    for name in dict.fromkeys(test.video_ids[test.flags[:, 0]].tolist()):
        fake = video_rows(test, name)
        poi, tag = name.split("_")
        owner, g, j = world.identity_row(poi), int(tag[1]) - 1, int(tag[3:])
        source = video_rows(test, f"{poi}_t{j % real_videos:03d}")
        assert not source.flags.any()
        assert fake.identity_ids.tolist() == [poi] * 3
        assert fake.segment_index.tolist() == source.segment_index.tolist() == [0, 1, 2]
        assert (fake.flags == GROUP_FLAGS[g]).all()
        _, v, a, ai = GROUP_FLAGS[g]
        blend = betas[j % len(betas)] if v else 0.0
        assert fake.blend.tolist() == [blend] * 3
        if v:
            donors = [d for d in range(5) if np.array_equal(
                fake.video, source.video + blend * (world.video_latents[d]
                                                    - world.video_latents[owner]))]
            assert len(donors) == 1 and donors[0] != owner
        else:
            np.testing.assert_array_equal(fake.video, source.video)
        if a:
            np.testing.assert_array_equal(fake.audio, source.audio + offsets[owner])
            cloned.add(g)
        elif ai:  # a foreign track: the donor of the video swap
            np.testing.assert_array_equal(
                fake.audio,
                source.audio + (world.audio_latents[donors[0]] - world.audio_latents[owner]))
        else:
            np.testing.assert_array_equal(fake.audio, source.audio)
    assert cloned == {GROUPS.index("a+ai"), GROUPS.index("v+a+ai")}


def test_benchmark_composition():
    world = bench_world()
    bench = generate_benchmark(world, 2, [1.0, 0.4], np.random.default_rng(7),
                               segments_per_video=3, reference_videos=4, real_videos=2)
    # per identity: 4 reference videos x 3 segments
    assert len(bench.reference) == 4 * 4 * 3
    # per identity: 2 real + 8 fake videos, 3 segments each
    assert len(bench.test) == 4 * (2 + 8) * 3
    assert not bench.reference.flags.any()

    fakes = bench.test.take(bench.test.flags[:, 0])
    groups = [GROUPS[(GROUP_FLAGS == row).all(axis=1).argmax()] for row in fakes.flags]
    assert {g: groups.count(g) for g in GROUPS} == {g: 2 * 3 * 4 for g in GROUPS}
    # betas rotate across a group's fakes
    blends = fakes.blend.tolist()
    assert sorted({b for b, g in zip(blends, groups) if g == "v"}) == [0.4, 1.0]
    # audio-only fakes never touch the video channel
    assert all(b == 0.0 for b, g in zip(blends, groups) if g == "a+ai")


def test_benchmark_fakes_are_paired_with_real_sources():
    world = bench_world()
    bench = generate_benchmark(world, 1, [1.0], np.random.default_rng(3),
                               segments_per_video=2, reference_videos=2, real_videos=2)
    test = bench.test
    mine = test.identity_ids == "id0000"
    reals = test.take(mine & ~test.flags[:, 0])
    fakes = test.take(mine & (test.flags == GROUP_FLAGS[GROUPS.index("v")]).all(axis=1))
    # the fake's audio channel is copied from its pristine source video
    source = video_rows(reals, sorted(set(reals.video_ids.tolist()))[0])
    assert len(fakes) == 2
    assert fakes.segment_index.tolist() == source.segment_index.tolist() == [0, 1]
    np.testing.assert_array_equal(fakes.audio, source.audio)
    assert not np.array_equal(fakes.video, source.video)


def test_benchmark_guards():
    world = bench_world()
    rng = np.random.default_rng(0)
    with pytest.raises(ConfigError, match="fakes_per_group must be >= 0, got -1"):
        generate_benchmark(world, -1, [1.0], rng)
    for scale in (-1.0, float("nan")):
        with pytest.raises(ConfigError, match="cloned_voice_scale must be >= 0"):
            generate_benchmark(world, 1, [1.0], rng, cloned_voice_scale=scale)
    with pytest.raises(ConfigError, match="no betas given"):
        generate_benchmark(world, 1, [], rng)
    for beta in (1.2, -0.1, float("nan")):
        with pytest.raises(ConfigError, match="betas must lie in"):
            generate_benchmark(world, 1, [beta], rng)
    solo = bench_world(identities=1)
    with pytest.raises(ConfigError, match="fakes need at least 2 identities"):
        generate_benchmark(solo, 1, [1.0], rng)
    # without fakes, neither betas nor a second identity are needed
    bench = generate_benchmark(solo, 0, [], rng, reference_videos=1, real_videos=1)
    assert not bench.test.flags.any()


def test_check_disjoint_refuses_shared_identities():
    world = bench_world()
    check_disjoint(["zz"], world.identity_ids)
    with pytest.raises(DataError, match="overlap the training set: id0001$"):
        check_disjoint(["id0001", "zz"], world.identity_ids)


@pytest.mark.parametrize("setting", ["segments_per_video", "reference_videos", "real_videos"])
@pytest.mark.parametrize("count", [0, -1])
def test_benchmark_refuses_counts_below_one(setting, count):
    with pytest.raises(ConfigError, match=rf"^{setting} must be >= 1, got {count}$"):
        generate_benchmark(bench_world(), 2, [1.0], np.random.default_rng(0),
                           **{setting: count})


def test_world_config_validation():
    with pytest.raises(ConfigError):
        WorldConfig(n_identities=0, n_videos_per_identity=1, n_segments_per_video=1)
    for name in ("identity_scale", "video_bias_scale", "segment_noise_scale"):
        for value in (-1.0, float("nan")):
            with pytest.raises(ConfigError, match=f"^{name} must be >= 0, got {value}$"):
                WorldConfig(n_identities=1, n_videos_per_identity=1, n_segments_per_video=1,
                            **{name: value})
    with pytest.raises(ConfigError):
        WorldConfig(n_identities=1, n_videos_per_identity=1, n_segments_per_video=1,
                    audio_dim=0)
