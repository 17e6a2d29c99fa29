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
# is not one of them.
_NUMBER_TYPES = {float, int}


@dataclass
class FrameRecord:
    """All persons of one source at one frame index.

    ``persons`` are camera-centric Pose3D objects, or Pose2D for the 2D
    observation source ``obs`` (others raise ValueError, and FrameMismatchError
    for a person-centric Pose3D); ``ids[i]`` is the person id of
    ``persons[i]``, None when unlabeled (the default).  ``origin`` is where
    the record was read, ``"<path>: line N"``, and empty for a record built
    in memory.
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

    def error(self, message: str) -> SchemaError:
        """A SchemaError about this record, naming where it was read."""
        return SchemaError(f"{self.origin}: {message}" if self.origin else message)


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


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _pose(source: str, joints, conf) -> Pose3D | Pose2D:
    if source == "obs":
        return Pose2D(joints=joints, conf=conf)
    return Pose3D(joints=joints, conf=conf, frame=Frame.CAMERA_CENTRIC)


def _checked_numbers(joints_raw: list, conf_raw, path: str) -> tuple[list, list]:
    """A person's joints and confidences, checked entry by entry in file
    order, so the SchemaError names the first bad one as ``path...[k]``."""
    joints = [[_validate_number(c, f"{path}.joints[{k}]") for c in row]
              for k, row in enumerate(joints_raw)]
    if not isinstance(conf_raw, list) or len(conf_raw) != len(joints_raw):
        raise SchemaError(f"{path}.conf: expected {len(joints_raw)} confidences")
    conf = [_validate_number(c, f"{path}.conf[{k}]") for k, c in enumerate(conf_raw)]
    if not all(0.0 <= c <= 1.0 for c in conf):
        raise SchemaError(f"{path}.conf: confidences must lie in [0, 1]")
    return joints, conf


def _parse_person(obj, path: str, source: str,
                  num_joints: int | None) -> tuple[Pose3D | Pose2D, int | None]:
    if not isinstance(obj, dict):
        raise SchemaError(f"{path}: expected an object")
    joints_raw = obj.get("joints")
    if not isinstance(joints_raw, list) or not joints_raw:
        raise SchemaError(f"{path}.joints: expected a non-empty list")
    if num_joints is not None and len(joints_raw) != num_joints:
        raise SchemaError(
            f"{path}.joints: expected {num_joints} joints, got {len(joints_raw)}"
        )
    dims = {len(j) if isinstance(j, list) else -1 for j in joints_raw}
    if len(dims) != 1 or dims & {-1}:
        raise SchemaError(f"{path}.joints: joints must all be [x, y] or [x, y, z]")
    dim, expect_dim = dims.pop(), 2 if source == "obs" else 3
    if dim != expect_dim:
        raise SchemaError(f"{path}.joints: expected {expect_dim}-element joints, got {dim}")
    pose = _pose(source, *_checked_numbers(joints_raw, obj.get("conf"), path))
    person_id = obj.get("person_id")
    if person_id is not None and not _is_int(person_id):
        raise SchemaError(f"{path}.person_id: expected an integer or null")
    return pose, person_id


def _stacked_persons(persons_raw: list, source: str, num_joints: int | None
                     ) -> tuple[list[Pose3D | Pose2D], list[int | None]] | None:
    """A record's poses and ids, all persons checked together as one
    (n, K, d) joints stack and one (n, K) confidence stack.

    Returns None when any check fails, and for a record without persons or
    with persons of differing joint counts: the person-by-person walk then
    reads the record or names its first bad entry.
    """
    if not all(type(p) is dict for p in persons_raw):
        return None
    ids = [p.get("person_id") for p in persons_raw]
    joints_raw = [p.get("joints") for p in persons_raw]
    conf_raw = [p.get("conf") for p in persons_raw]
    try:
        # Only JSON numbers may reach numpy, which would also convert bools
        # and numeric strings.
        if not (all(pid is None or _is_int(pid) for pid in ids)
                and set(map(type, chain(chain.from_iterable(chain.from_iterable(joints_raw)),
                                        chain.from_iterable(conf_raw)))) <= _NUMBER_TYPES):
            return None
        poses = poses_from_stack(joints_raw, conf_raw,
                                 None if source == "obs" else Frame.CAMERA_CENTRIC)
    except (OverflowError, TypeError, ValueError):  # OverflowError: an int beyond float64
        return None
    if num_joints not in (None, poses[0].num_joints):
        return None
    return poses, ids


def _parse_record(obj, where: str, num_joints: int | None) -> FrameRecord:
    if not isinstance(obj, dict):
        raise SchemaError(f"{where}: expected a JSON object")
    if not _is_int(obj.get("frame_index")):
        raise SchemaError(f"{where}: frame_index: expected an integer")
    source = obj.get("source")
    if source not in SOURCES:
        raise SchemaError(f"{where}: source: expected one of {SOURCES}, got {source!r}")
    persons_raw = obj.get("persons")
    if not isinstance(persons_raw, list):
        raise SchemaError(f"{where}: persons: expected a list")
    stacked = _stacked_persons(persons_raw, source, num_joints)
    if stacked is not None:
        persons, ids = stacked
    else:
        persons, ids = [], []
        for i, p in enumerate(persons_raw):
            pose, person_id = _parse_person(p, f"{where}: persons[{i}]", source, num_joints)
            persons.append(pose)
            ids.append(person_id)
    return FrameRecord(obj["frame_index"], source, persons, ids, origin=where)


def read_frames(path, num_joints: int | None = None) -> list[FrameRecord]:
    """Read a JSON-lines frame file; returns records in file order, each
    holding its persons' poses and ids.

    Schema violations raise SchemaError naming the file, line and field.
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
