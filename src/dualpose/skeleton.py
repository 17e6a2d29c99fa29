"""Skeleton topology, pose containers, and coordinate-frame semantics.

Conventions used throughout the package:

* 3D joint positions are millimeters, 2D joint positions are pixels.
* Camera-centric poses carry absolute depth; person-centric poses are
  expressed relative to the root joint (pelvis at the origin).
* The image y axis points down, so "up" in the world is negative y.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .errors import FrameMismatchError

ROOT_TOLERANCE_MM = 1e-9

# COCO keypoint falloff constants, reused as the default per-joint OKS
# sigmas (truncated / padded to the skeleton's joint count).
COCO_OKS_SIGMAS = np.array(
    [0.026, 0.025, 0.025, 0.035, 0.035, 0.079, 0.079, 0.072, 0.072,
     0.062, 0.062, 0.107, 0.107, 0.087, 0.087, 0.089, 0.089]
)


def default_oks_sigmas(num_joints: int) -> np.ndarray:
    """Per-joint OKS sigmas for an arbitrary joint count.

    Uses the COCO table, truncated when the skeleton is smaller and padded
    with the final entry when it is larger.
    """
    if num_joints <= len(COCO_OKS_SIGMAS):
        return COCO_OKS_SIGMAS[:num_joints].copy()
    pad = np.full(num_joints - len(COCO_OKS_SIGMAS), COCO_OKS_SIGMAS[-1])
    return np.concatenate([COCO_OKS_SIGMAS, pad])


class Frame(enum.Enum):
    """Coordinate frame of a 3D pose."""

    PERSON_CENTRIC = "person_centric"
    CAMERA_CENTRIC = "camera_centric"


def _frozen_array(values, dtype=np.float64) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class SkeletonSpec:
    """Joint set, bone tree, root joint, and per-joint OKS sigmas.

    ``bones`` is a list of (parent, child) joint-index pairs forming a tree
    rooted at ``root_index``.
    """

    joint_names: tuple[str, ...]
    bones: tuple[tuple[int, int], ...]
    root_index: int
    oks_sigma: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        k = len(self.joint_names)
        object.__setattr__(self, "joint_names", tuple(self.joint_names))
        object.__setattr__(
            self, "bones", tuple((int(p), int(c)) for p, c in self.bones)
        )
        if not 0 <= self.root_index < k:
            raise ValueError(f"root_index {self.root_index} outside [0, {k})")
        if len(self.bones) != k - 1:
            raise ValueError(
                f"expected {k - 1} bones for a tree over {k} joints, got {len(self.bones)}"
            )
        for p, c in self.bones:
            if not (0 <= p < k and 0 <= c < k):
                raise ValueError(f"bone ({p}, {c}) references joint outside [0, {k})")
        self._check_tree(k)
        sigma = self.oks_sigma
        if sigma is None:
            sigma = default_oks_sigmas(k)
        sigma = np.asarray(sigma, dtype=np.float64)
        if sigma.shape != (k,):
            raise ValueError(f"oks_sigma must have shape ({k},), got {sigma.shape}")
        # the comparison is False for NaN, so NaN fails it too
        if not np.all((sigma > 0) & (sigma < np.inf)):
            raise ValueError("all oks_sigma entries must be finite and positive")
        object.__setattr__(self, "oks_sigma", _frozen_array(sigma))

    def _check_tree(self, k: int) -> None:
        # Connectivity from the root over undirected edges; K-1 edges plus
        # connectivity implies a tree.
        adj: list[list[int]] = [[] for _ in range(k)]
        for p, c in self.bones:
            adj[p].append(c)
            adj[c].append(p)
        seen = {self.root_index}
        stack = [self.root_index]
        while stack:
            j = stack.pop()
            for n in adj[j]:
                if n not in seen:
                    seen.add(n)
                    stack.append(n)
        if len(seen) != k:
            raise ValueError("bone graph is not connected to the root")

    @property
    def num_joints(self) -> int:
        return len(self.joint_names)

    @property
    def bone_array(self) -> np.ndarray:
        """Bones as an (n_bones, 2) int array of (parent, child)."""
        return np.array(self.bones, dtype=np.intp)


# Default 15-joint skeleton (MuPoTS-style evaluation joints): pelvis root,
# neck, head, and left/right shoulder, elbow, wrist, hip, knee, ankle.
DEFAULT_JOINT_NAMES = (
    "pelvis", "neck", "head",
    "left_shoulder", "left_elbow", "left_wrist",
    "right_shoulder", "right_elbow", "right_wrist",
    "left_hip", "left_knee", "left_ankle",
    "right_hip", "right_knee", "right_ankle",
)

DEFAULT_BONES = (
    (0, 1),   # pelvis -> neck
    (1, 2),   # neck -> head
    (1, 3), (3, 4), (4, 5),      # left arm
    (1, 6), (6, 7), (7, 8),      # right arm
    (0, 9), (9, 10), (10, 11),   # left leg
    (0, 12), (12, 13), (13, 14), # right leg
)


def default_skeleton() -> SkeletonSpec:
    """The default 15-joint skeleton with COCO-derived OKS sigmas."""
    return SkeletonSpec(
        joint_names=DEFAULT_JOINT_NAMES,
        bones=DEFAULT_BONES,
        root_index=0,
    )


# Person-centric rest pose for the default skeleton (mm, y pointing down).
# Used as the reference for bone-length plausibility checks and as the base
# body shape for synthetic scenes.
DEFAULT_REST_OFFSETS_MM = np.array(
    [
        [0.0, 0.0, 0.0],        # pelvis
        [0.0, -520.0, 0.0],     # neck
        [0.0, -700.0, 0.0],     # head
        [170.0, -520.0, 0.0],   # left shoulder
        [230.0, -240.0, 0.0],   # left elbow
        [250.0, 20.0, 0.0],     # left wrist
        [-170.0, -520.0, 0.0],  # right shoulder
        [-230.0, -240.0, 0.0],  # right elbow
        [-250.0, 20.0, 0.0],    # right wrist
        [90.0, 60.0, 0.0],      # left hip
        [95.0, 480.0, 0.0],     # left knee
        [100.0, 900.0, 0.0],    # left ankle
        [-90.0, 60.0, 0.0],     # right hip
        [-95.0, 480.0, 0.0],    # right knee
        [-100.0, 900.0, 0.0],   # right ankle
    ]
)


def rest_pose(scale: float = 1.0) -> np.ndarray:
    """(K, 3) person-centric rest offsets in mm, uniformly scaled."""
    return DEFAULT_REST_OFFSETS_MM * float(scale)


def checked_pose_arrays(joints, conf, dim: int,
                        stacked: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """The package's one check of pose numbers.

    Takes one pose's (K, dim) joints and (K,) confidences, or with
    ``stacked`` n poses' (n, K, dim) joints and (n, K) confidences, and
    returns both as read-only float64 copies.  Raises ValueError.
    """
    joints = np.array(joints, dtype=np.float64)
    conf = np.array(conf, dtype=np.float64)
    if joints.ndim != 2 + stacked or joints.shape[-1] != dim:
        raise ValueError(f"joints must be ({'n, ' * stacked}K, {dim}), got {joints.shape}")
    if conf.shape != joints.shape[:-1]:
        raise ValueError("conf must be (K,) matching joints")
    if not np.isfinite(joints).all():
        raise ValueError("joint coordinates must be finite")
    # NaN fails both comparisons and +-inf one of them.
    if not ((conf >= 0.0) & (conf <= 1.0)).all():
        raise ValueError("confidences must be finite and within [0, 1]")
    joints.setflags(write=False)
    conf.setflags(write=False)
    return joints, conf


def _freeze_pose(pose, dim: int) -> None:
    """Check a pose's joints and confidences and store both as read-only
    float64 arrays."""
    joints, conf = checked_pose_arrays(pose.joints, pose.conf, dim)
    object.__setattr__(pose, "joints", joints)
    object.__setattr__(pose, "conf", conf)


def poses_from_stack(joints, conf, frame: Frame | None) -> list:
    """The package's one constructor for a batch of poses: one pose per row
    of n poses' (n, K, d) joints and (n, K) confidences, Pose3D tagged
    ``frame`` (d = 3) or Pose2D when ``frame`` is None (d = 2).  Both stacks
    are checked once, by ``checked_pose_arrays``; each pose holds read-only
    row views of the checked copies.  Raises ValueError."""
    if frame is not None and not isinstance(frame, Frame):
        raise ValueError(f"frame must be a Frame enum, got {frame!r}")
    joints, conf = checked_pose_arrays(joints, conf, 2 if frame is None else 3,
                                       stacked=True)
    cls = Pose2D if frame is None else Pose3D
    poses = []
    for j, c in zip(joints, conf):
        pose = object.__new__(cls)
        object.__setattr__(pose, "joints", j)
        object.__setattr__(pose, "conf", c)
        if frame is not None:
            object.__setattr__(pose, "frame", frame)
        poses.append(pose)
    return poses


def stack_poses(poses, shape: tuple[int, int] | None = None
                ) -> tuple[np.ndarray, np.ndarray]:
    """Inverse of ``poses_from_stack``: n poses' (n, K, d) joints and (n, K)
    confidences, or (0, K, d) and (0, K) stacks for no poses and a ``shape``.
    The package's one check that poses share one skeleton (it checks no frame
    tag): each pose's joints must have ``shape`` (K, d), else the first
    pose's.  Raises ValueError."""
    if shape is None:
        if not poses:
            raise ValueError("stacking no poses needs the skeleton's shape")
        shape = poses[0].joints.shape
    elif len(shape) != 2:
        raise ValueError(f"a pose stack's shape must be (K, d), got {shape}")
    if any(pose.joints.shape != shape for pose in poses):
        raise ValueError("poses must share one skeleton")
    # np.array copies a list of equal-shape arrays as np.stack does, in less
    # time; the reshape gives an empty list its shape
    return (np.array([pose.joints for pose in poses]).reshape(-1, *shape),
            np.array([pose.conf for pose in poses]).reshape(-1, shape[0]))


@dataclass(frozen=True, slots=True)
class Pose2D:
    """K joint positions in pixels with per-joint confidences."""

    joints: np.ndarray  # (K, 2) px
    conf: np.ndarray    # (K,) in [0, 1]

    def __post_init__(self):
        _freeze_pose(self, 2)

    @property
    def num_joints(self) -> int:
        return self.joints.shape[0]


@dataclass(frozen=True, slots=True)
class Pose3D:
    """K joint positions in mm with per-joint confidences and a frame tag."""

    joints: np.ndarray  # (K, 3) mm
    conf: np.ndarray    # (K,) in [0, 1]
    frame: Frame

    def __post_init__(self):
        _freeze_pose(self, 3)
        if not isinstance(self.frame, Frame):
            raise ValueError(f"frame must be a Frame enum, got {self.frame!r}")

    @property
    def num_joints(self) -> int:
        return self.joints.shape[0]

    def with_joints(self, joints: np.ndarray, frame: Frame | None = None) -> "Pose3D":
        """Copy of this pose with replaced joint positions."""
        return Pose3D(joints=joints, conf=self.conf, frame=frame or self.frame)


def pose3d_camera(joints, conf=None) -> Pose3D:
    """Convenience constructor for a camera-centric pose (conf defaults to 1)."""
    joints = np.asarray(joints, dtype=np.float64)
    if conf is None:
        conf = np.ones(joints.shape[0])
    return Pose3D(joints=joints, conf=conf, frame=Frame.CAMERA_CENTRIC)


def pose3d_person(joints, conf=None) -> Pose3D:
    """Convenience constructor for a person-centric pose (conf defaults to 1)."""
    joints = np.asarray(joints, dtype=np.float64)
    if conf is None:
        conf = np.ones(joints.shape[0])
    return Pose3D(joints=joints, conf=conf, frame=Frame.PERSON_CENTRIC)


def check_person_centric(pose: Pose3D, skel: SkeletonSpec) -> None:
    """Verify the person-centric invariant: root joint at the origin."""
    root = pose.joints[skel.root_index]
    if np.max(np.abs(root)) > ROOT_TOLERANCE_MM:
        raise ValueError(
            f"person-centric pose has non-zero root {root} (tol {ROOT_TOLERANCE_MM} mm)"
        )


def require_camera_centric(*poses: Pose3D) -> None:
    """The package's one check that poses are camera-centric: raises
    FrameMismatchError for any pose with another frame tag."""
    for pose in poses:
        if pose.frame is not Frame.CAMERA_CENTRIC:
            raise FrameMismatchError(f"expected a camera-centric pose, got {pose.frame.value}")


def to_camera_centric(pose: Pose3D, root_position) -> Pose3D:
    """Anchor a person-centric pose at an absolute root position.

    Every joint is translated by ``root_position`` (mm); the result is tagged
    camera-centric.
    """
    if pose.frame is not Frame.PERSON_CENTRIC:
        raise FrameMismatchError("to_camera_centric expects a person-centric pose")
    root_position = np.asarray(root_position, dtype=np.float64).reshape(3)
    return Pose3D(
        joints=pose.joints + root_position,
        conf=pose.conf,
        frame=Frame.CAMERA_CENTRIC,
    )


def to_person_centric(pose: Pose3D, skel: SkeletonSpec) -> tuple[Pose3D, np.ndarray]:
    """Split a camera-centric pose into (person-centric pose, root position)."""
    require_camera_centric(pose)
    root = pose.joints[skel.root_index].copy()
    centered = Pose3D(
        joints=pose.joints - root,
        conf=pose.conf,
        frame=Frame.PERSON_CENTRIC,
    )
    return centered, root


def bone_lengths(pose: Pose3D, skel: SkeletonSpec) -> np.ndarray:
    """Euclidean length of every bone, in mm, ordered as ``skel.bones``."""
    return bone_lengths_of(pose.joints, skel)


def bone_lengths_of(joints: np.ndarray, skel: SkeletonSpec) -> np.ndarray:
    """Bone lengths for a raw (..., K, 3) joint array."""
    incidence = bone_incidence(skel.num_joints, skel.bone_array)
    return vector_lengths(incidence @ np.asarray(joints, dtype=np.float64))


def bone_incidence(k: int, bones: np.ndarray) -> np.ndarray:
    """The signed (n_bones, k) incidence matrix B of a skeleton: row i holds
    +1 at bone i's child and -1 at its parent, so ``B @ joints`` gives the
    bone vectors of (..., k, 3) joints and ``B.T @ per_bone`` adds each
    bone's gradient to its child and subtracts it from its parent.

    ``bones`` is an (n_bones, 2) int array of (parent, child).
    """
    rows = np.arange(len(bones))
    incidence = np.zeros((len(bones), k))
    incidence[rows, bones[:, 1]] += 1.0
    incidence[rows, bones[:, 0]] -= 1.0
    return incidence


def vector_lengths(vectors: np.ndarray) -> np.ndarray:
    """Euclidean lengths of (..., 3) vectors: the sum np.linalg.norm forms,
    without its reduction overhead."""
    sq = vectors * vectors
    return np.sqrt(sq[..., 0] + sq[..., 1] + sq[..., 2])


@dataclass
class TrackSequence:
    """Time-indexed camera-centric poses for one person.

    ``frames`` maps frame index -> Pose3D; indices are kept sorted.
    """

    person_id: int | str
    frames: dict[int, Pose3D] = field(default_factory=dict)

    def __post_init__(self):
        require_camera_centric(*self.frames.values())
        self.frames = dict(sorted(self.frames.items()))

    def add(self, frame_index: int, pose: Pose3D) -> None:
        require_camera_centric(pose)
        # the keys are sorted, so the last one is the largest
        if self.frames and frame_index <= next(reversed(self.frames)):
            if frame_index in self.frames:
                raise ValueError(f"frame {frame_index} already present")
            self.frames = dict(sorted({**self.frames, frame_index: pose}.items()))
            return
        self.frames[frame_index] = pose

    @property
    def frame_indices(self) -> list[int]:
        return list(self.frames.keys())

    def __len__(self) -> int:
        return len(self.frames)

    def as_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(frame_indices (T,), joints (T, K, 3), conf (T, K)) in frame order."""
        return np.array(self.frame_indices, dtype=np.intp), *stack_poses(list(self.frames.values()))

    def with_joints(self, joints: np.ndarray) -> "TrackSequence":
        """Copy of this track with replaced joint positions (same conf/indices)."""
        idx = self.frame_indices
        if joints.shape[0] != len(idx):
            raise ValueError("joint array frame count does not match track")
        conf = stack_poses(list(self.frames.values()), joints.shape[1:])[1]
        poses = poses_from_stack(joints, conf, Frame.CAMERA_CENTRIC)
        return TrackSequence(person_id=self.person_id, frames=dict(zip(idx, poses)))
