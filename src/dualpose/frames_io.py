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
from dataclasses import dataclass, field

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
)
from .fusion import FusionStrategy
from .synth import MotionSpec, SceneSpec
from .tto import TtoConfig

SOURCES_3D = ("td", "bu", "gt", "fused")
SOURCES = SOURCES_3D + ("obs",)

DEFAULT_LINKER_GATE_MM = 500.0


@dataclass
class PersonRecord:
    """One person in one frame: joints, confidences, optional identity."""

    joints: np.ndarray            # (K, 2) px or (K, 3) mm
    conf: np.ndarray              # (K,)
    person_id: int | None = None

    @property
    def is_3d(self) -> bool:
        return self.joints.shape[1] == 3

    def to_pose3d(self) -> Pose3D:
        if not self.is_3d:
            raise SchemaError("record holds 2D joints, not a 3D pose")
        return Pose3D(joints=self.joints, conf=self.conf, frame=Frame.CAMERA_CENTRIC)

    def to_pose2d(self) -> Pose2D:
        if self.is_3d:
            raise SchemaError("record holds 3D joints, not a 2D pose")
        return Pose2D(joints=self.joints, conf=self.conf)


@dataclass
class FrameRecord:
    """All persons of one source at one frame index."""

    frame_index: int
    source: str
    persons: list[PersonRecord] = field(default_factory=list)

    def __post_init__(self):
        if self.source not in SOURCES:
            raise SchemaError(f"unknown source {self.source!r}; expected one of {SOURCES}")


def _validate_number(value, path: str) -> float:
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise SchemaError(f"{path}: expected a number, got {value!r}")
    if not math.isfinite(value):
        raise SchemaError(f"{path}: value must be finite")
    return float(value)


def _parse_person(obj, path: str, expect_dim: int | None,
                  num_joints: int | None) -> PersonRecord:
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
    dim = dims.pop()
    if dim not in (2, 3) or (expect_dim is not None and dim != expect_dim):
        raise SchemaError(
            f"{path}.joints: expected {expect_dim or '2 or 3'}-element joints, got {dim}"
        )
    joints = np.array([
        [_validate_number(c, f"{path}.joints[{k}]") for c in joint]
        for k, joint in enumerate(joints_raw)
    ])
    conf_raw = obj.get("conf")
    if not isinstance(conf_raw, list) or len(conf_raw) != len(joints_raw):
        raise SchemaError(f"{path}.conf: expected {len(joints_raw)} confidences")
    conf = np.array([_validate_number(c, f"{path}.conf[{k}]")
                     for k, c in enumerate(conf_raw)])
    if np.any(conf < 0.0) or np.any(conf > 1.0):
        raise SchemaError(f"{path}.conf: confidences must lie in [0, 1]")
    person_id = obj.get("person_id")
    if person_id is not None and not isinstance(person_id, int):
        raise SchemaError(f"{path}.person_id: expected an integer or null")
    return PersonRecord(joints=joints, conf=conf, person_id=person_id)


def parse_frame_record(obj, line_no: int, num_joints: int | None = None) -> FrameRecord:
    where = f"line {line_no}"
    if not isinstance(obj, dict):
        raise SchemaError(f"{where}: expected a JSON object")
    if not isinstance(obj.get("frame_index"), int):
        raise SchemaError(f"{where}: frame_index: expected an integer")
    source = obj.get("source")
    if source not in SOURCES:
        raise SchemaError(f"{where}: source: expected one of {SOURCES}, got {source!r}")
    persons_raw = obj.get("persons")
    if not isinstance(persons_raw, list):
        raise SchemaError(f"{where}: persons: expected a list")
    expect_dim = 2 if source == "obs" else 3
    persons = [
        _parse_person(p, f"{where}: persons[{i}]", expect_dim, num_joints)
        for i, p in enumerate(persons_raw)
    ]
    return FrameRecord(frame_index=obj["frame_index"], source=source, persons=persons)


def read_frames(path, num_joints: int | None = None) -> list[FrameRecord]:
    """Read a JSON-lines frame file; returns records in file order.

    Schema violations raise SchemaError naming the line and field.
    """
    records = []
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise SchemaError(f"{path}: line {line_no}: malformed JSON: {exc}") from exc
            records.append(parse_frame_record(obj, line_no, num_joints))
    return records


def _person_to_dict(person: PersonRecord) -> dict:
    return {
        "person_id": person.person_id,
        "joints": [[float(c) for c in joint] for joint in person.joints],
        "conf": [float(c) for c in person.conf],
    }


def write_frames(records: list[FrameRecord], path) -> None:
    """Write frame records as JSON lines with round-trip float precision."""
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            obj = {
                "frame_index": rec.frame_index,
                "source": rec.source,
                "persons": [_person_to_dict(p) for p in rec.persons],
            }
            fh.write(json.dumps(obj, allow_nan=False))
            fh.write("\n")


def poses_to_record(frame_index: int, source: str, poses, ids=None) -> FrameRecord:
    """Bundle Pose3D or Pose2D objects into one frame record."""
    persons = []
    for i, pose in enumerate(poses):
        pid = ids[i] if ids is not None else None
        persons.append(PersonRecord(joints=np.asarray(pose.joints),
                                    conf=np.asarray(pose.conf), person_id=pid))
    return FrameRecord(frame_index=frame_index, source=source, persons=persons)


def frames_by_index(records: list[FrameRecord]) -> dict[int, FrameRecord]:
    out: dict[int, FrameRecord] = {}
    for rec in records:
        if rec.frame_index in out:
            raise SchemaError(f"duplicate frame_index {rec.frame_index}")
        out[rec.frame_index] = rec
    return dict(sorted(out.items()))


@dataclass
class RunConfig:
    """Bundle of all sub-configurations driving the processing chain."""

    skeleton: SkeletonSpec
    camera: CameraIntrinsics
    match: MatchConfig
    fusion: FusionStrategy
    tto: TtoConfig
    metrics: MetricThresholds
    seed: int = 0
    linker_gate_mm: float = DEFAULT_LINKER_GATE_MM
    scene: SceneSpec | None = None
    heatmap: dict = field(default_factory=dict)

    @classmethod
    def default(cls) -> "RunConfig":
        skel = default_skeleton()
        return cls(
            skeleton=skel,
            camera=CameraIntrinsics(fx=1100.0, fy=1100.0, cx=640.0, cy=360.0),
            match=MatchConfig(tau_match=default_tau_match(skel.num_joints)),
            fusion=FusionStrategy.linear(),
            tto=TtoConfig(),
            metrics=MetricThresholds(),
        )

    @classmethod
    def from_dict(cls, d: dict) -> "RunConfig":
        base = cls.default()
        skel = base.skeleton
        if "skeleton" in d:
            s = d["skeleton"]
            skel = SkeletonSpec(
                joint_names=tuple(s["joint_names"]),
                bones=tuple((int(p), int(c)) for p, c in s["bones"]),
                root_index=int(s["root_index"]),
                oks_sigma=np.array(s["oks_sigma"]) if "oks_sigma" in s else None,
            )
        camera = CameraIntrinsics.from_dict(d["camera"]) if "camera" in d else base.camera
        match = base.match
        if "match" in d:
            m = d["match"]
            match = MatchConfig(
                scale=float(m.get("scale", 1.0)),
                fixed_scale_mm=m.get("fixed_scale_mm"),
                sigma_override=np.array(m["sigma_override"]) if m.get("sigma_override") else None,
                tau_match=float(m.get("tau_match", default_tau_match(skel.num_joints))),
                distance_mode=m.get("distance_mode", "3d"),
                camera=camera if m.get("distance_mode") == "2d" else None,
            )
        fusion = base.fusion
        if "fusion" in d:
            f = d["fusion"]
            fusion = FusionStrategy(variant=f.get("variant", "linear"),
                                    alpha=float(f.get("alpha", 0.5)))
        tto = TtoConfig.from_dict(d["tto"]) if "tto" in d else base.tto
        thresholds = MetricThresholds.from_dict(d["metrics"]) if "metrics" in d \
            else base.metrics
        scene = None
        if "scene" in d:
            s = d["scene"]
            motions = tuple(
                MotionSpec(
                    kind=m.get("kind", "constant"),
                    root_coeffs=tuple(tuple(row) for row in m["root_coeffs"]),
                    body_scale=float(m.get("body_scale", 1.0)),
                    yaw_rate=float(m.get("yaw_rate", 0.0)),
                    swing_amplitude_mm=float(m.get("swing_amplitude_mm", 0.0)),
                    swing_period_frames=float(m.get("swing_period_frames", 40.0)),
                )
                for m in s["motions"]
            )
            scene = SceneSpec(
                num_persons=int(s["num_persons"]),
                num_frames=int(s["num_frames"]),
                motions=motions,
                sigma_3d_mm=float(s.get("sigma_3d_mm", 0.0)),
                sigma_2d_px=float(s.get("sigma_2d_px", 0.0)),
                conf_base=float(s.get("conf_base", 1.0)),
                conf_jitter=float(s.get("conf_jitter", 0.0)),
                drop_prob=float(s.get("drop_prob", 0.0)),
                seed=int(s.get("seed", d.get("seed", 0))),
            )
        return cls(
            skeleton=skel,
            camera=camera,
            match=match,
            fusion=fusion,
            tto=tto,
            metrics=thresholds,
            seed=int(d.get("seed", 0)),
            linker_gate_mm=float(d.get("linker_gate_mm", DEFAULT_LINKER_GATE_MM)),
            scene=scene,
            heatmap=dict(d.get("heatmap", {})),
        )

    def to_dict(self) -> dict:
        out = {
            "seed": self.seed,
            "skeleton": {
                "joint_names": list(self.skeleton.joint_names),
                "bones": [list(b) for b in self.skeleton.bones],
                "root_index": self.skeleton.root_index,
                "oks_sigma": [float(s) for s in self.skeleton.oks_sigma],
            },
            "camera": self.camera.to_dict(),
            "match": {
                "scale": self.match.scale,
                "fixed_scale_mm": self.match.fixed_scale_mm,
                "sigma_override": None if self.match.sigma_override is None
                else [float(s) for s in self.match.sigma_override],
                "tau_match": self.match.tau_match,
                "distance_mode": self.match.distance_mode,
            },
            "fusion": {"variant": self.fusion.variant, "alpha": self.fusion.alpha},
            "tto": self.tto.to_dict(),
            "metrics": self.metrics.to_dict(),
            "linker_gate_mm": self.linker_gate_mm,
            "heatmap": self.heatmap,
        }
        if self.scene is not None:
            out["scene"] = {
                "num_persons": self.scene.num_persons,
                "num_frames": self.scene.num_frames,
                "motions": [
                    {
                        "kind": m.kind,
                        "root_coeffs": [list(row) for row in m.root_coeffs],
                        "body_scale": m.body_scale,
                        "yaw_rate": m.yaw_rate,
                        "swing_amplitude_mm": m.swing_amplitude_mm,
                        "swing_period_frames": m.swing_period_frames,
                    }
                    for m in self.scene.motions
                ],
                "sigma_3d_mm": self.scene.sigma_3d_mm,
                "sigma_2d_px": self.scene.sigma_2d_px,
                "conf_base": self.scene.conf_base,
                "conf_jitter": self.scene.conf_jitter,
                "drop_prob": self.scene.drop_prob,
                "seed": self.scene.seed,
            }
        return out


def load_config(path) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"{path}: malformed JSON config: {exc}") from exc
    try:
        return RunConfig.from_dict(data)
    except (KeyError, TypeError) as exc:
        raise SchemaError(f"{path}: invalid config: {exc}") from exc


def save_config(config: RunConfig, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(config.to_dict(), fh, indent=2, allow_nan=False)
        fh.write("\n")
