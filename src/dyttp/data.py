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

    @property
    def num_agents(self) -> int:
        return self.agent_histories.shape[0]

    @property
    def obs_steps(self) -> int:
        return self.agent_histories.shape[1]

    @property
    def pred_steps(self) -> int:
        return self.agent_futures.shape[1]

    def validate(self):
        n, t = self.agent_valid.shape
        if self.agent_histories.shape != (n, t, 2):
            raise ValueError("history/validity shapes disagree")
        if self.agent_futures.shape[0] != n or self.future_valid.shape != self.agent_futures.shape[:2]:
            raise ValueError("future/validity shapes disagree")
        if not (0 <= self.focal_agent < n):
            raise ValueError("focal agent index out of range")
        if not self.agent_valid[self.focal_agent].all():
            raise ValueError("focal agent must have a fully observed history")
        for arr in (self.agent_histories, self.agent_futures, *self.lanes):
            if not np.all(np.isfinite(arr)):
                raise ValueError("non-finite coordinates")

    def translated(self, dx: float, dy: float) -> "Scenario":
        shift = np.array([dx, dy])
        return Scenario(
            self.agent_histories + shift,
            self.agent_valid.copy(),
            self.agent_futures + shift,
            self.future_valid.copy(),
            [l + shift for l in self.lanes],
            self.focal_agent,
            self.scenario_id,
        )

    def permuted(self, order) -> "Scenario":
        order = np.asarray(order)
        inv = int(np.argwhere(order == self.focal_agent)[0, 0])
        return Scenario(
            self.agent_histories[order],
            self.agent_valid[order],
            self.agent_futures[order],
            self.future_valid[order],
            [l.copy() for l in self.lanes],
            inv,
            self.scenario_id,
        )


@dataclass
class DatasetSplit:
    train: list
    val: list
    seed: int

    def all_scenarios(self):
        return self.train + self.val


# ---------------------------------------------------------------------------
# closed-form maneuver paths

def straight_path(p0, heading, speed, times):
    """Positions along a constant-velocity line at the given times."""
    times = np.asarray(times, dtype=np.float64)
    u = np.array([np.cos(heading), np.sin(heading)])
    return np.asarray(p0) + np.outer(speed * times, u)


def arc_path(p0, heading, speed, radius, turn_sign, times):
    """Constant-speed circular arc; turn_sign +1 turns left, -1 right."""
    times = np.asarray(times, dtype=np.float64)
    normal = turn_sign * np.array([-np.sin(heading), np.cos(heading)])
    center = np.asarray(p0) + radius * normal
    omega = turn_sign * speed / radius
    rel = np.asarray(p0) - center
    ang = omega * times
    cos_a, sin_a = np.cos(ang), np.sin(ang)
    x = cos_a * rel[0] - sin_a * rel[1]
    y = sin_a * rel[0] + cos_a * rel[1]
    return center + np.stack([x, y], axis=-1)


def lane_change_path(p0, heading, speed, lateral_offset, duration, times):
    """Straight longitudinal motion plus a smoothstep lateral shift.

    The shift ramps from 0 to lateral_offset over [0, duration] seconds and
    holds afterwards; negative times sit on the source lane.
    """
    times = np.asarray(times, dtype=np.float64)
    u = np.array([np.cos(heading), np.sin(heading)])
    n = np.array([-np.sin(heading), np.cos(heading)])
    tau = np.clip(times / duration, 0.0, 1.0)
    ramp = tau * tau * (3.0 - 2.0 * tau)
    return np.asarray(p0) + np.outer(speed * times, u) + np.outer(lateral_offset * ramp, n)


_MANEUVERS = ("straight", "arc_left", "arc_right", "lane_change")


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


def _agent_track(rng: Rng, p0, heading, maneuver):
    """(history [OBS_STEPS, 2], future [PRED_STEPS, 2]) of one agent."""
    # time 0 is the last observed step
    times = (np.arange(-(OBS_STEPS - 1), PRED_STEPS + 1)) * DT
    speed = rng.uniform((), *SPEED_RANGE)
    if maneuver == "straight":
        path = straight_path(p0, heading, speed, times)
    elif maneuver in ("arc_left", "arc_right"):
        radius = rng.uniform((), *RADIUS_RANGE)
        sign = 1.0 if maneuver == "arc_left" else -1.0
        path = arc_path(p0, heading, speed, radius, sign, times)
    else:
        offset = 3.5 if rng.uniform(()) < 0.5 else -3.5
        duration = rng.uniform((), 2.0, 3.0)
        path = lane_change_path(p0, heading, speed, offset, duration, times)
    return path[:OBS_STEPS], path[OBS_STEPS:]


def _centerline(path: np.ndarray, spacing: float) -> np.ndarray:
    seg = np.linalg.norm(np.diff(path, axis=0), axis=1)
    arc = np.concatenate([[0.0], np.cumsum(seg)])
    n_pts = max(2, int(arc[-1] / spacing) + 1)
    targets = np.linspace(0.0, arc[-1], n_pts)
    xs = np.interp(targets, arc, path[:, 0])
    ys = np.interp(targets, arc, path[:, 1])
    return np.stack([xs, ys], axis=-1)


def generate_scenario(index: int, rng: Rng, cfg: GenConfig) -> Scenario:
    t, f = OBS_STEPS, PRED_STEPS
    n_agents = 1 + rng.integers(cfg.max_agents)
    focal_maneuver = _pick_maneuver(rng.uniform(()), cfg.maneuver_mix)

    histories = np.zeros((n_agents, t, 2))
    futures = np.zeros((n_agents, f, 2))
    agent_valid = np.ones((n_agents, t), dtype=bool)
    future_valid = np.ones((n_agents, f), dtype=bool)
    lanes = []

    base = rng.uniform((2,), -50.0, 50.0)
    for i in range(n_agents):
        if i == 0:
            p0, heading, maneuver = base, rng.uniform((), 0.0, 2.0 * np.pi), focal_maneuver
        else:
            p0 = base + rng.uniform((2,), -30.0, 30.0)
            heading = rng.uniform((), 0.0, 2.0 * np.pi)
            maneuver = _pick_maneuver(rng.uniform(()), cfg.maneuver_mix)
        hist, fut = _agent_track(rng, p0, heading, maneuver)
        histories[i], futures[i] = hist, fut
        lanes.append(_centerline(np.concatenate([hist, fut]), LANE_POINT_SPACING))
        if i > 0 and rng.uniform(()) < 0.3:
            # late-entry neighbor: first steps unobserved, at least 2 remain valid
            missing = 1 + rng.integers(t - 2)
            agent_valid[i, :missing] = False

    if cfg.noise_sigma > 0.0:
        histories = histories + rng.normal((n_agents, t, 2), std=cfg.noise_sigma)

    sc = Scenario(
        histories, agent_valid, futures, future_valid, lanes,
        focal_agent=0,
        scenario_id=f"syn-{index:06d}-{focal_maneuver}",
    )
    sc.validate()
    return sc


def split_of(scenario_id: str, seed: int) -> str:
    """Train/val assignment as a pure function of (scenario_id, seed)."""
    digest = hashlib.sha256(f"{scenario_id}|{seed}".encode()).digest()
    u = int.from_bytes(digest[:8], "big") / 2.0**64
    return "train" if u < TRAIN_FRACTION else "val"


def generate_synthetic(count: int, rng: Rng, cfg: GenConfig | None = None) -> DatasetSplit:
    if count < 1:
        raise ValueError("count must be >= 1")
    cfg = cfg or GenConfig()
    seed = int(rng.u64(1)[0])  # fold the stream position into the split key
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


def _read_scenario(r: BinaryReader) -> Scenario:
    (rec_len,) = r.unpack("<I")
    sub = BinaryReader(r.take(rec_len), r.kind)
    sid = sub.string()
    n, t, f, focal = sub.unpack("<IHHI")
    hist = sub.f32((n, t, 2))
    valid = sub.flags((n, t))
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
    train = [_read_scenario(r) for _ in range(n_train)]
    val = [_read_scenario(r) for _ in range(n_val)]
    r.finish()
    return DatasetSplit(train=train, val=val, seed=seed)
