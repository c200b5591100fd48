import numpy as np
import pytest

from dyttp.data import (
    DT, FormatError, GenConfig, arc_path, generate_scenario,
    generate_synthetic, lane_change_path, load_scenarios, save_scenarios,
    split_of, straight_path,
)
from dyttp.tensor import Rng


def constant_velocity(history, dt=DT, horizon=30):
    """Extrapolate the last observed displacement; independent baseline."""
    v = (history[-1] - history[-2]) / dt
    steps = np.arange(1, horizon + 1)[:, None] * dt
    return history[-1] + steps * v


def test_straight_sigma_zero_cv_is_exact():
    cfg = GenConfig(noise_sigma=0.0, maneuver_mix=(1.0, 0.0, 0.0, 0.0))
    sc = generate_scenario(0, Rng(3).child(0), cfg)
    assert sc.scenario_id.endswith("straight")
    cv = constant_velocity(sc.agent_histories[0])
    assert np.allclose(cv, sc.agent_futures[0], atol=1e-9)


def test_arc_cv_endpoint_error_matches_chord_geometry():
    # independent oracle: canonical frame, agent at origin heading +x at t=0.
    # arc position p(t) = (R sin(wt), R(1 - cos(wt))), w = v/R.  The constant
    # velocity baseline uses the last observed chord (from -dt to 0).
    radius, speed, f = 20.0, 8.0, 30
    w = speed / radius

    def canon(t):
        return np.array([radius * np.sin(w * t), radius * (1.0 - np.cos(w * t))])

    v_cv = (canon(0.0) - canon(-DT)) / DT
    expected_err = np.linalg.norm(canon(f * DT) - (canon(0.0) + f * DT * v_cv))
    assert expected_err > 2.0

    times = np.arange(-19, f + 1) * DT
    path = arc_path(np.array([5.0, -3.0]), 0.7, speed, radius, 1.0, times)
    hist, fut = path[:20], path[20:]
    cv = constant_velocity(hist, horizon=f)
    got_err = np.linalg.norm(cv[-1] - fut[-1])
    assert abs(got_err - expected_err) < 1e-9


def test_paths_have_constant_speed():
    times = np.arange(-19, 31) * DT
    for path in (
        straight_path([0, 0], 0.4, 7.0, times),
        arc_path([0, 0], 0.4, 7.0, 25.0, -1.0, times),
    ):
        speeds = np.linalg.norm(np.diff(path, axis=0), axis=1) / DT
        assert np.allclose(speeds, speeds[0], atol=1e-9)


def test_arc_future_continues_same_circle():
    cfg = GenConfig(noise_sigma=0.0, maneuver_mix=(0.0, 1.0, 0.0, 0.0))
    sc = generate_scenario(1, Rng(5).child(1), cfg)
    pts = np.concatenate([sc.agent_histories[0], sc.agent_futures[0]])

    def circumradius(a, b, c):
        ab, bc, ca = np.linalg.norm(b - a), np.linalg.norm(c - b), np.linalg.norm(a - c)
        u, v = b - a, c - a
        area = 0.5 * abs(u[0] * v[1] - u[1] * v[0])
        return ab * bc * ca / (4.0 * area)

    radii = [circumradius(pts[i], pts[i + 1], pts[i + 2]) for i in range(0, len(pts) - 2, 5)]
    assert np.allclose(radii, radii[0], rtol=1e-6)


def test_lane_change_settles_on_target_lane():
    times = np.arange(-19, 31) * DT
    path = lane_change_path([0, 0], 0.0, 10.0, 3.5, 2.0, times)
    # before the ramp: on the source lane; well after: offset by 3.5
    assert abs(path[0, 1]) < 1e-12
    assert abs(path[-1, 1] - 3.5) < 1e-12


def test_generator_determinism_bytes(tmp_path):
    a = generate_synthetic(40, Rng(7))
    b = generate_synthetic(40, Rng(7))
    pa, pb = tmp_path / "a.bin", tmp_path / "b.bin"
    save_scenarios(a, pa)
    save_scenarios(b, pb)
    assert pa.read_bytes() == pb.read_bytes()


def test_split_is_pure_function_of_id_and_seed():
    assert split_of("syn-000001-straight", 9) == split_of("syn-000001-straight", 9)
    ids = [f"syn-{i:06d}-straight" for i in range(2000)]
    frac = sum(split_of(i, 3) == "train" for i in ids) / len(ids)
    assert 0.75 < frac < 0.85
    # changing the seed reshuffles assignments
    flips = sum(split_of(i, 3) != split_of(i, 4) for i in ids)
    assert flips > 100


def test_split_counts_roughly_eighty_twenty():
    split = generate_synthetic(300, Rng(11))
    assert 0.7 < len(split.train) / 300 < 0.9
    ids = {s.scenario_id for s in split.all_scenarios()}
    assert len(ids) == 300


def test_roundtrip_structural_and_second_trip_exact(tmp_path):
    split = generate_synthetic(25, Rng(2))
    p1, p2 = tmp_path / "one.bin", tmp_path / "two.bin"
    save_scenarios(split, p1)
    loaded = load_scenarios(p1)
    assert len(loaded.train) == len(split.train)
    assert len(loaded.val) == len(split.val)
    for orig, back in zip(split.train, loaded.train):
        assert back.scenario_id == orig.scenario_id
        assert np.allclose(back.agent_histories, orig.agent_histories, atol=1e-4)
        assert np.array_equal(back.agent_valid, orig.agent_valid)
    # after one f32 quantization the next round trip is bit exact
    save_scenarios(loaded, p2)
    assert load_scenarios(p2).train[0].agent_histories.tobytes() == \
        loaded.train[0].agent_histories.tobytes()
    assert p2.read_bytes() == p1.read_bytes()


def test_empty_split_roundtrips(tmp_path):
    from dyttp.data import DatasetSplit
    p = tmp_path / "empty.bin"
    save_scenarios(DatasetSplit(train=[], val=[], seed=5), p)
    back = load_scenarios(p)
    assert back.train == [] and back.val == [] and back.seed == 5


def test_truncated_file_clean_error(tmp_path):
    split = generate_synthetic(5, Rng(4))
    p = tmp_path / "full.bin"
    save_scenarios(split, p)
    raw = p.read_bytes()
    bad = tmp_path / "cut.bin"
    bad.write_bytes(raw[: len(raw) - 7])
    with pytest.raises(FormatError):
        load_scenarios(bad)


def test_bad_magic_and_version(tmp_path):
    p = tmp_path / "junk.bin"
    p.write_bytes(b"NOPE" + b"\x00" * 64)
    with pytest.raises(FormatError):
        load_scenarios(p)


def test_scenario_translate_and_permute():
    sc = generate_scenario(2, Rng(8).child(2), GenConfig(noise_sigma=0.0))
    moved = sc.translated(100.0, -50.0)
    assert np.allclose(moved.agent_histories - sc.agent_histories, [100.0, -50.0])
    if sc.num_agents > 1:
        order = np.arange(sc.num_agents)[::-1]
        perm = sc.permuted(order)
        assert perm.focal_agent == sc.num_agents - 1
        assert np.array_equal(perm.agent_histories[-1], sc.agent_histories[0])


@pytest.mark.parametrize("make", [
    lambda: Rng(1).integers(0),
    lambda: Rng(1).integers(-3),
    lambda: GenConfig(max_agents=0),
    lambda: GenConfig(max_agents=-2),
    lambda: GenConfig(maneuver_mix=(-1, 0, 0, 0)),
    lambda: GenConfig(maneuver_mix=(-1.0, 1.0, 0.0, 1.0)),
    lambda: GenConfig(maneuver_mix=(0.5, 0.5, 0.5, 0.0)),
    lambda: GenConfig(maneuver_mix=(float("nan"), 0.5, 0.5, 0.0)),
    lambda: GenConfig(maneuver_mix=(float("inf"), 0.0, 0.0, 0.0)),
    lambda: GenConfig(maneuver_mix=(0.5, 0.5, 0.0)),
], ids=["integers-0", "integers-neg", "max-agents-0", "max-agents-neg", "mix-neg-sum",
        "mix-neg", "mix-sum", "mix-nan", "mix-inf", "mix-three"])
def test_invalid_draw_bounds_and_gen_config_raise(make):
    with pytest.raises(ValueError):
        make()
