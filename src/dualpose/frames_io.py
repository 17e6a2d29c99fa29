"""File formats: JSON-lines frame records and the JSON run configuration.

One frame record per line:

    {"frame_index": 3, "source": "td",
     "persons": [{"person_id": 0, "joints": [[x, y, z], ...], "conf": [...]}]}

3D sources (td / bu / gt / fused) carry 3-element joints in mm; 2D
observation records (source "obs") carry 2-element joints in px.  Floats
are serialized at full round-trip precision.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields, is_dataclass
from itertools import chain
from types import UnionType
from typing import Union, get_args, get_origin, get_type_hints

import numpy as np

from .camera import CameraIntrinsics
from .errors import SchemaError
from .matching import MatchConfig, default_tau_match
from .metrics import MetricThresholds
from .skeleton import (
    Frame,
    Pose2D,
    Pose3D,
    SkeletonSpec,
    checked_pose_arrays,
    default_skeleton,
    poses_from_stack,
    require_camera_centric,
)
from .fusion import FusionStrategy
from .heatmaps import HeatmapConfig
from .synth import SceneSpec, benchmark_camera
from .tto import TtoConfig

SOURCES_3D = ("td", "bu", "gt", "fused")
SOURCES = SOURCES_3D + ("obs",)

DEFAULT_LINKER_GATE_MM = 500.0

# The Python types json.loads gives JSON numbers; bool, a subclass of int,
# is not one of them.  A JSON value's type is exact, so ``type(v) is int``
# holds for an integer and not for a boolean.
_NUMBER_TYPES = {float, int}


@dataclass
class FrameRecord:
    """All persons of one source at one frame index.

    ``persons`` are camera-centric Pose3D objects, or Pose2D for the 2D
    observation source ``obs`` (others raise ValueError, and FrameMismatchError
    for a person-centric Pose3D); ``ids[i]`` is the person id of
    ``persons[i]``, None when unlabeled (the default); a non-null id may
    occur once (SchemaError).  ``origin`` is where the record was read,
    ``"<path>: line N"``, and empty for a record built in memory.
    """

    frame_index: int
    source: str
    persons: list[Pose3D | Pose2D] = field(default_factory=list)
    ids: list[int | None] | None = None
    origin: str = ""

    def __post_init__(self):
        if self.source not in SOURCES:
            raise SchemaError(f"unknown source {self.source!r}; expected one of {SOURCES}")
        kind = Pose2D if self.source == "obs" else Pose3D
        if not all(isinstance(pose, kind) for pose in self.persons):
            raise ValueError(f"a {self.source!r} record holds {kind.__name__} persons")
        if kind is Pose3D:
            require_camera_centric(*self.persons)
        if self.ids is None:
            self.ids = [None] * len(self.persons)
        if len(self.ids) != len(self.persons):
            raise ValueError(f"{len(self.persons)} persons but {len(self.ids)} ids")
        first: dict[int, int] = {}
        for i, pid in enumerate(self.ids):
            if pid is not None and first.setdefault(pid, i) != i:
                raise self.error(f"persons[{first[pid]}] and persons[{i}] repeat person_id {pid}")

    def error(self, message: str) -> SchemaError:
        """A SchemaError about this record, naming where it was read, or its
        frame index for a record built in memory."""
        return SchemaError(f"{self.origin or f'frame_index {self.frame_index}'}: {message}")


def _validate_number(value, path: str) -> float:
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise SchemaError(f"{path}: expected a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:
        raise SchemaError(f"{path}: value is out of the float64 range") from None
    if not math.isfinite(number):
        raise SchemaError(f"{path}: value must be finite")
    return number


def _structure_fault(person, dim: int, num_joints: int | None) -> str | None:
    """One person's structural fault, as its field path below ``persons[i]``
    and the message, or None.  ``_poses`` checks the numbers."""
    if type(person) is not dict:
        return ": expected an object"
    if type(joints := person.get("joints")) is not list or not joints:
        return ".joints: expected a non-empty list"
    count = len(joints)
    if num_joints is not None and count != num_joints:
        return f".joints: expected {num_joints} joints, got {count}"
    if set(map(type, joints)) != {list} or len(widths := set(map(len, joints))) != 1:
        return ".joints: joints must all be [x, y] or [x, y, z]"
    if dim not in widths:
        return f".joints: expected {dim}-element joints, got {widths.pop()}"
    if type(conf := person.get("conf")) is not list or len(conf) != count:
        return f".conf: expected {count} confidences"
    if (person_id := person.get("person_id")) is not None and type(person_id) is not int:
        return ".person_id: expected an integer or null"
    return None


def _poses(persons: list, dim: int, where: str) -> list[Pose3D | Pose2D]:
    """The poses of persons without a structural fault, in their order, from
    one ``poses_from_stack`` per joint count.  Only when that fails are the
    persons walked to name the fault."""
    joints = [p["joints"] for p in persons]
    conf = [p["conf"] for p in persons]
    frame = None if dim == 2 else Frame.CAMERA_CENTRIC
    stacks = {}
    try:
        for count in set(map(len, joints)):
            group = [j for j in joints if len(j) == count]
            # One flat list of the group's numbers, joints then confidences,
            # for the type scan and for numpy.  Only JSON numbers may reach
            # numpy, which would also convert bools and numeric strings.
            values = [*chain.from_iterable(chain.from_iterable(group)),
                      *chain.from_iterable(c for c in conf if len(c) == count)]
            if not set(map(type, values)) <= _NUMBER_TYPES:
                break
            numbers = np.array(values, dtype=np.float64)
            split = len(group) * count * dim
            stacks[count] = iter(poses_from_stack(numbers[:split].reshape(-1, count, dim),
                                                  numbers[split:].reshape(-1, count), frame))
        else:
            return [next(stacks[len(j)]) for j in joints]
    except (OverflowError, ValueError):  # OverflowError: an int beyond float64
        pass
    # read_frames' fault order: the first bad number in file order, then the
    # first person whose confidences leave [0, 1]
    for i in range(len(persons)):
        for field, rows in (("joints", joints[i]), ("conf", [[c] for c in conf[i]])):
            for k, row in enumerate(rows):
                for value in row:
                    _validate_number(value, f"{where}: persons[{i}].{field}[{k}]")
    for i in range(len(persons)):
        try:
            checked_pose_arrays(joints[i], conf[i], dim)
        except ValueError:
            raise SchemaError(f"{where}: persons[{i}].conf: confidences must lie in [0, 1]"
                              ) from None
    raise AssertionError(f"{where}: poses_from_stack failed on sound numbers")


def _parse_record(obj, where: str, num_joints: int | None) -> FrameRecord:
    if not isinstance(obj, dict):
        raise SchemaError(f"{where}: expected a JSON object")
    if type(obj.get("frame_index")) is not int:
        raise SchemaError(f"{where}: frame_index: expected an integer")
    source = obj.get("source")
    if source not in SOURCES:
        raise SchemaError(f"{where}: source: expected one of {SOURCES}, got {source!r}")
    persons = obj.get("persons")
    if not isinstance(persons, list):
        raise SchemaError(f"{where}: persons: expected a list")
    dim = 2 if source == "obs" else 3
    for i, person in enumerate(persons):
        if (fault := _structure_fault(person, dim, num_joints)) is not None:
            raise SchemaError(f"{where}: persons[{i}]{fault}")
    return FrameRecord(obj["frame_index"], source, _poses(persons, dim, where),
                       [p.get("person_id") for p in persons], origin=where)


def read_frames(path, num_joints: int | None = None) -> list[FrameRecord]:
    """Read a JSON-lines frame file; returns records in file order, each
    holding its persons' poses and ids.

    Schema violations raise SchemaError naming the file, line and field.
    Of a record's faults, the first structural one in person order is named
    (a person's type, joint count and width, conf length, person_id type),
    else its first bad number in file order (each person's joints, then its
    conf), else its first person whose confidences leave [0, 1].
    """
    records = []
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            where = f"{path}: line {line_no}"
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise SchemaError(f"{where}: malformed JSON: {exc}") from exc
            records.append(_parse_record(obj, where, num_joints))
    return records


def write_frames(records: list[FrameRecord], path) -> None:
    """Write frame records as JSON lines with round-trip float precision."""
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            obj = {
                "frame_index": rec.frame_index,
                "source": rec.source,
                "persons": [{"person_id": pid, "joints": pose.joints.tolist(),
                             "conf": pose.conf.tolist()}
                            for pose, pid in zip(rec.persons, rec.ids)],
            }
            fh.write(json.dumps(obj, allow_nan=False))
            fh.write("\n")


def poses_to_record(frame_index: int, source: str, poses, ids=None) -> FrameRecord:
    """Bundle Pose3D or Pose2D objects into one frame record."""
    return FrameRecord(frame_index, source, list(poses),
                       None if ids is None else list(ids))


@dataclass
class RunConfig:
    """Bundle of all sub-configurations driving the processing chain.

    The JSON form mirrors the dataclass fields, section by section (see
    ``from_dict``).
    """

    skeleton: SkeletonSpec
    camera: CameraIntrinsics
    match: MatchConfig
    fusion: FusionStrategy
    tto: TtoConfig
    metrics: MetricThresholds
    seed: int = 0
    linker_gate_mm: float = DEFAULT_LINKER_GATE_MM
    scene: SceneSpec | None = None
    heatmap: HeatmapConfig = field(default_factory=HeatmapConfig)

    def __post_init__(self):
        # a gate <= 0 would leave every unlabeled pose unlinked; NaN fails too
        if not self.linker_gate_mm > 0:
            raise ValueError(f"linker_gate_mm must be positive, got {self.linker_gate_mm!r}")

    @classmethod
    def default(cls) -> "RunConfig":
        skel = default_skeleton()
        return cls(
            skeleton=skel,
            camera=benchmark_camera(),
            match=MatchConfig(tau_match=default_tau_match(skel.num_joints)),
            fusion=FusionStrategy.linear(),
            tto=TtoConfig(),
            metrics=MetricThresholds(),
        )

    @classmethod
    def from_dict(cls, d: dict) -> "RunConfig":
        """Build a config from its JSON form.

        A key absent from the file takes its field's default; an absent
        section, the section of ``RunConfig.default()``.  Derived values:
        an absent ``match.tau_match`` is ``default_tau_match`` of the
        skeleton's joint count, and an absent ``scene.seed`` is the
        top-level seed.
        """
        d = _json_object(d, "config")
        config = _from_json(cls, {k: v for k, v in d.items() if k not in ("match", "scene")},
                            "config", **vars(cls.default()))
        config.match = _from_json(MatchConfig, d.get("match", {}), "config.match",
                                  tau_match=default_tau_match(config.skeleton.num_joints))
        if d.get("scene") is not None:
            config.scene = _from_json(SceneSpec, d["scene"], "config.scene",
                                      seed=config.seed)
        return config

    def to_dict(self) -> dict:
        return _to_json(self)


# Fields never written to a config file: they hold code.
_UNSAVED = {FusionStrategy: ("integrator",)}

# Keys of removed settings that older config files carry: the value that
# left behavior unchanged, and where the setting lives now.
_REMOVED = {
    MatchConfig: {
        "scale": (1.0, "the OKS scale is match.fixed_scale_mm, or the TD pose's box"),
        "sigma_override": (None, "the matching sigmas are skeleton.oks_sigma"),
    },
    HeatmapConfig: {
        "sampling": ("bilinear", "heatmaps are always sampled bilinearly"),
    },
}


def _to_json(value):
    """JSON form of a config value: dataclasses by their saved fields."""
    if is_dataclass(value):
        skip = _UNSAVED.get(type(value), ())
        return {f.name: _to_json(getattr(value, f.name))
                for f in fields(value) if f.name not in skip}
    if isinstance(value, (tuple, list, np.ndarray)):
        return [_to_json(v) for v in value]
    return value


def _json_object(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise SchemaError(f"{path}: expected an object")
    return value


def _from_json(cls, data, path: str, **defaults):
    """Build dataclass ``cls`` from its JSON object ``data``.

    Each saved field present in ``data`` is coerced to the field's type;
    an absent one takes ``defaults``, else the field default.  Unknown keys
    are ignored.
    """
    data = _json_object(data, path)
    for key, (old_default, moved) in _REMOVED.get(cls, {}).items():
        if key in data and data[key] != old_default:
            raise SchemaError(f"{path}.{key} was removed: {moved}")
    hints = get_type_hints(cls)
    skip = _UNSAVED.get(cls, ())
    kwargs = dict(defaults)
    for f in fields(cls):
        if f.name in data and f.name not in skip:
            kwargs[f.name] = _coerce(hints[f.name], data[f.name], f"{path}.{f.name}")
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"{path}: {exc}") from exc


def _coerce(tp, value, path: str):
    """``value`` read from JSON as type ``tp``."""
    if is_dataclass(tp):
        return _from_json(tp, value, path)
    args = get_args(tp)
    if get_origin(tp) in (Union, UnionType):
        if value is None and type(None) in args:
            return None
        (tp,) = [a for a in args if a is not type(None)]
        return _coerce(tp, value, path)
    if tp is np.ndarray or get_origin(tp) is tuple:
        if not isinstance(value, list):
            raise SchemaError(f"{path}: expected a list")
        if tp is np.ndarray:
            return np.array([_validate_number(v, f"{path}[{i}]") for i, v in enumerate(value)])
        if args[-1] is not Ellipsis and len(value) != len(args):
            raise SchemaError(f"{path}: expected {len(args)} entries, got {len(value)}")
        items = args[:1] * len(value) if args[-1] is Ellipsis else args
        return tuple(_coerce(t, v, f"{path}[{i}]") for i, (t, v) in enumerate(zip(items, value)))
    if tp is float:
        return _validate_number(value, path)
    if tp is int and isinstance(value, float) and value.is_integer():
        return int(value)
    if tp in (int, bool, str):
        if not isinstance(value, tp) or (tp is int and isinstance(value, bool)):
            raise SchemaError(f"{path}: expected {tp.__name__}, got {value!r}")
    return value


def load_config(path) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"{path}: malformed JSON config: {exc}") from exc
    try:
        return RunConfig.from_dict(data)
    except SchemaError as exc:
        raise SchemaError(f"{path}: invalid config: {exc}") from exc


def save_config(config: RunConfig, path) -> None:
    """Write ``config`` as JSON.  A pluggable fusion strategy raises
    ValueError: its integrator is code, which no config file holds."""
    if config.fusion.variant == "pluggable":
        raise ValueError("config.fusion.integrator: code cannot be saved to a config file")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(config.to_dict(), fh, indent=2, allow_nan=False)
        fh.write("\n")
