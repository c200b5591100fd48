"""Scenario data: synthetic generation and binary serialization.

A scenario holds N agent tracks sampled at 10 Hz (0.1 s steps), split into
20 observed steps and a 30-step future, plus lane centerline polylines.
Synthetic agents follow closed-form maneuvers (straight, arc, lane change)
so futures are exact analytic continuations when noise is zero. The
maneuver of the focal agent is embedded in the scenario_id suffix
(straight, arc_left, arc_right, lane_change) so subsets can be selected.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from .tensor import Rng

DT = 0.1
OBS_STEPS = 20
PRED_STEPS = 30
SPEED_RANGE = (2.0, 15.0)    # m/s
RADIUS_RANGE = (15.0, 40.0)  # arc radius, m
LANE_POINT_SPACING = 5.0     # m between centerline points
TRAIN_FRACTION = 0.8

_MAGIC = b"DYTS"
_FORMAT_VERSION = 1


class FormatError(ValueError):
    """Malformed input file (container magic/version, truncation, bad values)."""


@dataclass
class Scenario:
    agent_histories: np.ndarray   # [N, T, 2] meters
    agent_valid: np.ndarray       # [N, T] bool
    agent_futures: np.ndarray     # [N, F, 2] meters
    future_valid: np.ndarray      # [N, F] bool
    lanes: list                   # list of [P, 2] polylines, meters
    focal_agent: int
    scenario_id: str

    def __post_init__(self):
        self.agent_histories = np.asarray(self.agent_histories, dtype=np.float64)
        self.agent_valid = np.asarray(self.agent_valid, dtype=bool)
        self.agent_futures = np.asarray(self.agent_futures, dtype=np.float64)
        self.future_valid = np.asarray(self.future_valid, dtype=bool)
        self.lanes = [np.asarray(l, dtype=np.float64) for l in self.lanes]
        for i, lane in enumerate(self.lanes):
            if lane.ndim != 2 or lane.shape[1] != 2:
                raise ValueError(f"lane {i} has shape {lane.shape}, want [P, 2]")

    @property
    def num_agents(self) -> int:
        return self.agent_histories.shape[0]

    @property
    def obs_steps(self) -> int:
        return self.agent_histories.shape[1]

    @property
    def pred_steps(self) -> int:
        return self.agent_futures.shape[1]


@dataclass
class DatasetSplit:
    train: list
    val: list
    seed: int

    def all_scenarios(self):
        return self.train + self.val


# ---------------------------------------------------------------------------
# closed-form maneuver paths
#
# Each takes scalar parameters and gives one [T, 2] path, or parameters with a
# leading agent axis (p0 [N, 2], the rest [N]) and gives [N, T, 2] paths, the
# same values element for element.

def _per_agent(*params):
    """Each parameter shaped [..., 1, 1], to broadcast against [T, 1] times."""
    return (np.asarray(v, dtype=np.float64)[..., None, None] for v in params)


def straight_path(p0, heading, speed, times):
    """Positions along a constant-velocity line at the given times."""
    times = np.asarray(times, dtype=np.float64)[:, None]
    heading, speed = _per_agent(heading, speed)
    u = np.concatenate([np.cos(heading), np.sin(heading)], axis=-1)
    return np.asarray(p0)[..., None, :] + (speed * times) * u


def arc_path(p0, heading, speed, radius, turn_sign, times):
    """Constant-speed circular arc; turn_sign +1 turns left, -1 right."""
    times = np.asarray(times, dtype=np.float64)[:, None]
    heading, speed, radius, turn_sign = _per_agent(heading, speed, radius, turn_sign)
    p0 = np.asarray(p0)[..., None, :]
    normal = turn_sign * np.concatenate([-np.sin(heading), np.cos(heading)], axis=-1)
    center = p0 + radius * normal
    omega = turn_sign * speed / radius
    rel = p0 - center
    ang = omega * times
    cos_a, sin_a = np.cos(ang), np.sin(ang)
    x = cos_a * rel[..., :1] - sin_a * rel[..., 1:]
    y = sin_a * rel[..., :1] + cos_a * rel[..., 1:]
    return center + np.concatenate([x, y], axis=-1)


def lane_change_path(p0, heading, speed, lateral_offset, duration, times):
    """Straight longitudinal motion plus a smoothstep lateral shift.

    The shift ramps from 0 to lateral_offset over [0, duration] seconds and
    holds afterwards; negative times sit on the source lane.
    """
    times = np.asarray(times, dtype=np.float64)[:, None]
    heading, speed, lateral_offset, duration = _per_agent(heading, speed, lateral_offset, duration)
    u = np.concatenate([np.cos(heading), np.sin(heading)], axis=-1)
    n = np.concatenate([-np.sin(heading), np.cos(heading)], axis=-1)
    tau = np.clip(times / duration, 0.0, 1.0)
    ramp = tau * tau * (3.0 - 2.0 * tau)
    return np.asarray(p0)[..., None, :] + (speed * times) * u + (lateral_offset * ramp) * n


_MANEUVERS = ("straight", "arc_left", "arc_right", "lane_change")
_TIMES = np.arange(-(OBS_STEPS - 1), PRED_STEPS + 1) * DT  # time 0 is the last observed step


@dataclass
class GenConfig:
    noise_sigma: float = 0.1  # std of the Gaussian noise on observed positions, m
    maneuver_mix: tuple = (0.40, 0.25, 0.25, 0.10)  # straight, left, right, lane change
    max_agents: int = 6

    def __post_init__(self):
        if not (math.isfinite(self.noise_sigma) and self.noise_sigma >= 0.0):
            raise ValueError(f"noise_sigma must be finite and >= 0, got {self.noise_sigma}")
        if self.max_agents < 1:
            raise ValueError(f"max_agents must be >= 1, got {self.max_agents}")
        mix = np.asarray(self.maneuver_mix, dtype=np.float64)
        if (mix.shape != (len(_MANEUVERS),) or not np.isfinite(mix).all()
                or (mix < 0.0).any() or abs(mix.sum() - 1.0) > 1e-9):
            raise ValueError("maneuver_mix must be four finite weights >= 0 that sum to 1, "
                             f"got {self.maneuver_mix}")


def _pick_maneuver(u: float, mix) -> str:
    acc = 0.0
    for name, w in zip(_MANEUVERS, mix):
        acc += w
        if u < acc:
            return name
    return _MANEUVERS[-1]


def _centerlines(paths: np.ndarray, spacing: float) -> list:
    """Each of the [N, T, 2] paths resampled at even steps of about `spacing`
    meters along its length, as a list of N [P, 2] polylines."""
    arcs = np.zeros(paths.shape[:2])
    np.cumsum(np.linalg.norm(np.diff(paths, axis=1), axis=2), axis=1, out=arcs[:, 1:])
    lanes = []
    for path, arc in zip(paths, arcs):
        targets = np.linspace(0.0, arc[-1], max(2, int(arc[-1] / spacing) + 1))
        lane = np.empty((targets.size, 2))
        lane[:, 0] = np.interp(targets, arc, path[:, 0])
        lane[:, 1] = np.interp(targets, arc, path[:, 1])
        lanes.append(lane)
    return lanes


def generate_scenario(index: int, rng: Rng, cfg: GenConfig) -> Scenario:
    t, f = OBS_STEPS, PRED_STEPS
    n_agents = 1 + rng.integers(cfg.max_agents)
    focal_maneuver = _pick_maneuver(rng.uniform(()), cfg.maneuver_mix)
    agent_valid = np.ones((n_agents, t), dtype=bool)

    # the draws run agent by agent, in stream order; the paths then take one
    # array pass per kind of maneuver
    by_kind = {}  # path function -> (agent indices, parameter rows)
    base_x, base_y = rng.uniform((), -50.0, 50.0), rng.uniform((), -50.0, 50.0)
    for i in range(n_agents):
        if i == 0:
            x0, y0, maneuver = base_x, base_y, focal_maneuver
            heading = rng.uniform((), 0.0, 2.0 * np.pi)
        else:
            x0 = base_x + rng.uniform((), -30.0, 30.0)
            y0 = base_y + rng.uniform((), -30.0, 30.0)
            heading = rng.uniform((), 0.0, 2.0 * np.pi)
            maneuver = _pick_maneuver(rng.uniform(()), cfg.maneuver_mix)
        row = [x0, y0, heading, rng.uniform((), *SPEED_RANGE)]
        if maneuver == "straight":
            path_fn = straight_path
        elif maneuver in ("arc_left", "arc_right"):
            path_fn = arc_path
            row += [rng.uniform((), *RADIUS_RANGE), 1.0 if maneuver == "arc_left" else -1.0]
        else:
            path_fn = lane_change_path
            row += [3.5 if rng.uniform(()) < 0.5 else -3.5, rng.uniform((), 2.0, 3.0)]
        agents, rows = by_kind.setdefault(path_fn, ([], []))
        agents.append(i)
        rows.append(row)
        if i > 0 and rng.uniform(()) < 0.3:
            # late-entry neighbor: first steps unobserved, at least 2 remain valid
            missing = 1 + rng.integers(t - 2)
            agent_valid[i, :missing] = False

    paths = np.empty((n_agents, t + f, 2))
    for path_fn, (agents, rows) in by_kind.items():
        params = np.array(rows)
        paths[agents] = path_fn(params[:, :2], *params[:, 2:].T, _TIMES)
    lanes = _centerlines(paths, LANE_POINT_SPACING)
    histories, futures = paths[:, :t].copy(), paths[:, t:].copy()
    if cfg.noise_sigma > 0.0:
        histories += rng.normal((n_agents, t, 2), std=cfg.noise_sigma)

    return Scenario(
        histories, agent_valid, futures, np.ones((n_agents, f), dtype=bool), lanes,
        focal_agent=0,
        scenario_id=f"syn-{index:06d}-{focal_maneuver}",
    )


def split_of(scenario_id: str, seed: int) -> str:
    """Train/val assignment as a pure function of (scenario_id, seed)."""
    digest = hashlib.sha256(f"{scenario_id}|{seed}".encode()).digest()
    u = int.from_bytes(digest[:8], "big") / 2.0**64
    return "train" if u < TRAIN_FRACTION else "val"


def generate_synthetic(count: int, rng: Rng, cfg: GenConfig | None = None) -> DatasetSplit:
    if count < 1:
        raise ValueError("count must be >= 1")
    cfg = cfg or GenConfig()
    seed = rng.next_u64()  # fold the stream position into the split key
    train, val = [], []
    for i in range(count):
        sc = generate_scenario(i, rng.child(i), cfg)
        (train if split_of(sc.scenario_id, seed) == "train" else val).append(sc)
    return DatasetSplit(train=train, val=val, seed=seed)


# ---------------------------------------------------------------------------
# binary container

def _write_f32(buf, arr):
    buf.write(np.ascontiguousarray(arr, dtype="<f4").tobytes())


def _write_scenario(buf, sc: Scenario):
    rec = io.BytesIO()
    sid = sc.scenario_id.encode()
    rec.write(struct.pack("<H", len(sid)))
    rec.write(sid)
    n, t = sc.agent_valid.shape
    f = sc.future_valid.shape[1]
    rec.write(struct.pack("<IHHI", n, t, f, sc.focal_agent))
    _write_f32(rec, sc.agent_histories)
    rec.write(np.ascontiguousarray(sc.agent_valid, dtype=np.uint8).tobytes())
    _write_f32(rec, sc.agent_futures)
    rec.write(np.ascontiguousarray(sc.future_valid, dtype=np.uint8).tobytes())
    rec.write(struct.pack("<I", len(sc.lanes)))
    for lane in sc.lanes:
        rec.write(struct.pack("<I", lane.shape[0]))
        _write_f32(rec, lane)
    payload = rec.getvalue()
    buf.write(struct.pack("<I", len(payload)))
    buf.write(payload)


def write_atomic(path, payload: bytes):
    """Write payload to path whole or not at all.

    The bytes go to a new file in path's directory, which is then renamed onto
    path; if anything fails, the new file is removed and whatever was at path
    before is left untouched.
    """
    path = os.fspath(path)
    tmp = os.path.join(os.path.dirname(path), f".{os.path.basename(path)}.{os.urandom(8).hex()}.tmp")
    try:
        with open(tmp, "xb") as fh:
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def save_scenarios(split: DatasetSplit, path):
    buf = io.BytesIO()
    t = split.train[0].obs_steps if split.train else (split.val[0].obs_steps if split.val else OBS_STEPS)
    f = split.train[0].pred_steps if split.train else (split.val[0].pred_steps if split.val else PRED_STEPS)
    buf.write(_MAGIC)
    buf.write(struct.pack("<IHHIIQ", _FORMAT_VERSION, t, f,
                          len(split.train), len(split.val),
                          split.seed & 0xFFFFFFFFFFFFFFFF))
    for sc in split.train:
        _write_scenario(buf, sc)
    for sc in split.val:
        _write_scenario(buf, sc)
    write_atomic(path, buf.getvalue())


class BinaryReader:
    """Bounds-checked reader over the bytes of one file, shared by the
    scenario container and the checkpoint. Every malformed input raises
    FormatError naming the file kind, never another exception."""

    def __init__(self, raw: bytes, kind: str):
        self.raw = raw
        self.kind = kind
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.raw):
            raise FormatError(f"truncated {self.kind}")
        out = self.raw[self.pos:self.pos + n]
        self.pos += n
        return out

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def string(self) -> str:
        """A u16 length prefix followed by that many UTF-8 bytes."""
        (n,) = self.unpack("<H")
        try:
            return self.take(n).decode()
        except UnicodeDecodeError:
            raise FormatError(f"{self.kind}: string is not UTF-8") from None

    def _array(self, shape, dtype) -> np.ndarray:
        # Python ints, so a corrupt shape cannot wrap to a negative byte count
        count = math.prod(int(d) for d in shape)
        flat = np.frombuffer(self.take(count * np.dtype(dtype).itemsize), dtype=dtype)
        try:
            return flat.reshape(shape)
        except ValueError:
            # more dimensions than numpy supports, or a zero-size shape whose
            # other dimensions overflow numpy's size limit
            raise FormatError(f"{self.kind}: unsupported array shape") from None

    def f32(self, shape) -> np.ndarray:
        """A little-endian float32 array of the given shape, widened to float64.

        NaN and inf are rejected: no valid coordinate or parameter is non-finite.
        """
        arr = self._array(shape, "<f4")
        if not np.isfinite(arr).all():
            raise FormatError(f"{self.kind}: non-finite value")
        return arr.astype(np.float64)

    def flags(self, shape) -> np.ndarray:
        """A one-byte-per-element bool array of the given shape."""
        return self._array(shape, np.uint8).astype(bool)

    def finish(self):
        if self.pos != len(self.raw):
            raise FormatError(f"trailing bytes in {self.kind}")


def _read_scenario(r: BinaryReader, steps) -> Scenario:
    """One length-prefixed scenario record, whose (observed, future) step
    counts must equal `steps`, the container header's."""
    (rec_len,) = r.unpack("<I")
    sub = BinaryReader(r.take(rec_len), r.kind)
    sid = sub.string()
    n, t, f, focal = sub.unpack("<IHHI")
    if (t, f) != steps:
        raise FormatError(f"{r.kind}: scenario {sid!r} has {t}+{f} steps, "
                          f"the header says {steps[0]}+{steps[1]}")
    if focal >= n:
        raise FormatError(f"{r.kind}: scenario {sid!r} has focal agent {focal} of {n}")
    hist = sub.f32((n, t, 2))
    valid = sub.flags((n, t))
    if not valid[focal].all():
        raise FormatError(f"{r.kind}: scenario {sid!r} does not fully observe its focal agent")
    fut = sub.f32((n, f, 2))
    fvalid = sub.flags((n, f))
    (n_lanes,) = sub.unpack("<I")
    lanes = []
    for _ in range(n_lanes):
        (pts,) = sub.unpack("<I")
        lanes.append(sub.f32((pts, 2)))
    sub.finish()
    return Scenario(hist, valid, fut, fvalid, lanes, focal, sid)


def load_scenarios(path) -> DatasetSplit:
    with open(path, "rb") as fh:
        r = BinaryReader(fh.read(), "scenario file")
    if r.take(4) != _MAGIC:
        raise FormatError("not a scenario container (bad magic)")
    version, t, f, n_train, n_val, seed = r.unpack("<IHHIIQ")
    if version != _FORMAT_VERSION:
        raise FormatError(f"unsupported container version {version}")
    train = [_read_scenario(r, (t, f)) for _ in range(n_train)]
    val = [_read_scenario(r, (t, f)) for _ in range(n_val)]
    r.finish()
    return DatasetSplit(train=train, val=val, seed=seed)
