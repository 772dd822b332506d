import numpy as np
import pytest

from conftest import assert_tables_equal
from oracles import record_benchmark, record_identity_videos, record_world
from poif.exceptions import ConfigError, DataError
from poif.records import GROUPS, SegmentTable, flags_for_group
from poif.synthgen import (
    ManipulationSpec,
    WorldConfig,
    apply_manipulation,
    generate_benchmark,
    generate_world,
    sample_identity_videos,
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


@pytest.mark.parametrize("kw", [w for w in ORACLE_WORLDS if w["n_identities"] > 1])
def test_benchmark_matches_record_oracle(kw):
    world = generate_world(WorldConfig(**kw))
    counts = {"v": 3, "v+ai": 1, "a+ai": 2, "v+a+ai": 1}
    shape = dict(segments_per_video=2, reference_videos=3, real_videos=2,
                 cloned_voice_scale=0.3)
    ours, theirs = np.random.default_rng([5, 1]), np.random.default_rng([5, 1])
    bench = generate_benchmark(world, counts, [1.0, 0.4], ours, **shape)
    reference, test = record_benchmark(world, counts, [1.0, 0.4], theirs, **shape)
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


def test_video_swap_moves_identity_component():
    world = small_world()
    source = video_rows(world.segments, "id0000_v000")
    spec = ManipulationSpec(flags=flags_for_group("v"), blend=1.0, donor_identity="id0001")
    fake = apply_manipulation(source, spec, world, new_video_id="f0")
    delta = world.video_latents[1] - world.video_latents[0]
    np.testing.assert_allclose(fake.video, source.video + delta, rtol=1e-15)
    np.testing.assert_array_equal(fake.audio, source.audio)
    assert fake.blend.tolist() == [1.0, 1.0]
    assert [r.flags for r in fake.to_records()] == [flags_for_group("v")] * 2
    assert fake.video_ids.tolist() == ["f0", "f0"]
    assert fake.identity_ids.tolist() == ["id0000", "id0000"]
    assert fake.segment_index.tolist() == [0, 1]

    partial = apply_manipulation(
        source, ManipulationSpec(flags=flags_for_group("v"), blend=0.4,
                                 donor_identity="id0001"), world)
    np.testing.assert_allclose(partial.video, source.video + 0.4 * delta, rtol=1e-15)
    assert partial.video_ids.tolist() == ["id0000_v000"] * 2


def test_audio_manipulations():
    world = small_world()
    source = video_rows(world.segments, "id0000_v001")
    offset = np.full(5, 0.25)
    cloned = apply_manipulation(
        source, ManipulationSpec(flags=flags_for_group("a+ai"), cloned_voice_offset=offset),
        world)
    np.testing.assert_allclose(cloned.audio, source.audio + offset, rtol=1e-15)
    np.testing.assert_array_equal(cloned.video, source.video)
    assert not cloned.blend.any()

    swapped = apply_manipulation(
        source, ManipulationSpec(flags=flags_for_group("v+ai"), blend=1.0,
                                 donor_identity="id0002"), world)
    np.testing.assert_allclose(
        swapped.audio, source.audio + (world.audio_latents[2] - world.audio_latents[0]),
        rtol=1e-15)


def test_manipulation_guards():
    world = small_world()
    source = video_rows(world.segments, "id0000_v000")
    with pytest.raises(DataError):
        ManipulationSpec(flags=flags_for_group("v"))  # donor missing
    with pytest.raises(DataError):
        ManipulationSpec(flags=flags_for_group("a+ai"))  # offset missing
    with pytest.raises(DataError):
        ManipulationSpec(flags=flags_for_group("v"), blend=1.5, donor_identity="id0001")
    spec = ManipulationSpec(flags=flags_for_group("v"), donor_identity="id0000")
    with pytest.raises(DataError, match="donor must differ"):
        apply_manipulation(source, spec, world)
    good = ManipulationSpec(flags=flags_for_group("v"), donor_identity="id0002")
    fake = apply_manipulation(source, good, world)
    with pytest.raises(DataError, match=r"already-fake segment \('id0000', 'id0000_v000', 0\)"):
        apply_manipulation(fake, good, world)
    mixed = world.segments.take([0, 6])
    with pytest.raises(DataError, match=r"one identity's rows; got identities "
                                        r"\['id0000', 'id0001'\]"):
        apply_manipulation(mixed, good, world)


def bench_world(seed=0, identities=4):
    return generate_world(WorldConfig(
        n_identities=identities, n_videos_per_identity=1, n_segments_per_video=1,
        audio_dim=5, video_dim=4, seed=seed))


def test_benchmark_composition():
    world = bench_world()
    counts = {g: 2 for g in GROUPS}
    bench = generate_benchmark(world, counts, [1.0, 0.4], np.random.default_rng(7),
                               segments_per_video=3, reference_videos=4, real_videos=2)
    assert bench.poi_ids == world.identity_ids
    # per identity: 4 reference videos x 3 segments
    assert len(bench.reference) == 4 * 4 * 3
    # per identity: 2 real + 8 fake videos, 3 segments each
    assert len(bench.test) == 4 * (2 + 8) * 3
    assert not bench.reference.flags.any()

    fakes = bench.test.take(bench.test.flags[:, 0])
    group_of = {flags_for_group(g): g for g in GROUPS}
    groups = [group_of[r.flags] for r in fakes.to_records()]
    assert {g: groups.count(g) for g in GROUPS} == {g: 2 * 3 * 4 for g in GROUPS}
    # betas rotate across a group's fakes
    blends = fakes.blend.tolist()
    assert sorted({b for b, g in zip(blends, groups) if g == "v"}) == [0.4, 1.0]
    # audio-only fakes never touch the video channel
    assert all(b == 0.0 for b, g in zip(blends, groups) if g == "a+ai")


def test_benchmark_fakes_are_paired_with_real_sources():
    world = bench_world()
    bench = generate_benchmark(world, {"v": 1}, [1.0], np.random.default_rng(3),
                               segments_per_video=2, reference_videos=2, real_videos=2)
    test = bench.test
    mine = test.identity_ids == "id0000"
    reals = test.take(mine & ~test.flags[:, 0])
    fakes = test.take(mine & test.flags[:, 0])
    # the fake's audio channel is copied from its pristine source video
    source = video_rows(reals, sorted(set(reals.video_ids.tolist()))[0])
    assert len(fakes) == 2
    assert fakes.segment_index.tolist() == source.segment_index.tolist() == [0, 1]
    np.testing.assert_array_equal(fakes.audio, source.audio)
    assert not np.array_equal(fakes.video, source.video)


def test_benchmark_guards():
    world = bench_world()
    rng = np.random.default_rng(0)
    with pytest.raises(DataError):
        generate_benchmark(world, {"vv": 1}, [1.0], rng)
    with pytest.raises(ConfigError, match="group 'v' has negative count -1"):
        generate_benchmark(world, {"v": -1}, [1.0], rng)
    with pytest.raises(ConfigError, match="no betas given"):
        generate_benchmark(world, {"v": 1}, [], rng)
    for beta in (1.2, -0.1, float("nan")):
        with pytest.raises(ConfigError, match="betas must lie in"):
            generate_benchmark(world, {"v": 1}, [beta], rng)
    with pytest.raises(DataError):
        generate_benchmark(world, {"v": 1}, [1.0], rng,
                           train_identity_ids=["id0001", "zz"])
    solo = bench_world(identities=1)
    with pytest.raises(DataError):
        generate_benchmark(solo, {"v": 1}, [1.0], rng)


@pytest.mark.parametrize("setting", ["segments_per_video", "reference_videos", "real_videos"])
@pytest.mark.parametrize("count", [0, -1])
def test_benchmark_refuses_counts_below_one(setting, count):
    with pytest.raises(ConfigError, match=rf"^{setting} must be >= 1, got {count}$"):
        generate_benchmark(bench_world(), {"v": 2}, [1.0], np.random.default_rng(0),
                           **{setting: count})


def test_world_config_validation():
    with pytest.raises(ConfigError):
        WorldConfig(n_identities=0, n_videos_per_identity=1, n_segments_per_video=1)
    with pytest.raises(ConfigError):
        WorldConfig(n_identities=1, n_videos_per_identity=1, n_segments_per_video=1,
                    identity_scale=-1.0)
    with pytest.raises(ConfigError):
        WorldConfig(n_identities=1, n_videos_per_identity=1, n_segments_per_video=1,
                    audio_dim=0)
