"""Rendering and decoding of the bottom-up map stack.

One stack holds, on a single image grid: per-joint 2D Gaussian heatmaps,
per-joint ID-tag maps (constant per person around each joint), per-joint
relative-depth maps (mm with respect to the person's root), and one root
depth map (absolute camera depth of the root joint).
"""
from __future__ import annotations

import math
import numbers
import struct
from dataclasses import dataclass

import numpy as np

from .camera import CameraIntrinsics, back_project, project
from .errors import OutOfGridError, SchemaError
from .skeleton import (Frame, Pose2D, Pose3D, SkeletonSpec, poses_from_stack,
                       require_camera_centric, stack_poses)

MAGIC = b"PHMS"
FORMAT_VERSION = 1

DEFAULT_GRID = (128, 96)  # (width, height) px
DEFAULT_PEAK_THRESHOLD = 0.3
DEFAULT_TAG_THRESHOLD = 1.0
DEFAULT_SIGMA_PX = 2.0
# render_stack evaluates each Gaussian within ceil(WINDOW_SIGMAS * sigma) px
# of its joint; beyond 6 sigma it is below exp(-18), about 1.5e-8
WINDOW_SIGMAS = 6


@dataclass(frozen=True)
class HeatmapConfig:
    """Heatmap grid and Gaussian width for rendering, thresholds for decoding."""

    width: int = DEFAULT_GRID[0]
    height: int = DEFAULT_GRID[1]
    sigma_px: float = DEFAULT_SIGMA_PX
    theta_peak: float = DEFAULT_PEAK_THRESHOLD
    theta_tag: float = DEFAULT_TAG_THRESHOLD

    def __post_init__(self):
        for name in ("width", "height"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 1:
                raise ValueError(f"{name} must be a positive integer, got {value!r}")
        # the comparisons are False for NaN, so NaN fails them too
        for name in ("sigma_px", "theta_tag"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and positive, got {getattr(self, name)!r}")
        if not 0 < self.theta_peak < 1:
            raise ValueError(f"theta_peak must lie in (0, 1), got {self.theta_peak!r}")


def grid_camera(cam: CameraIntrinsics, width: int, height: int) -> CameraIntrinsics:
    """The camera of a ``width`` x ``height`` heatmap grid over the image of ``cam``.

    The image, taken to be centred on the principal point, is sampled at the
    smallest stride at which it fits the grid, s = max(2*cx / width, 2*cy /
    height), so fx, fy, cx and cy are divided by s; a fitted camera has s = 1.
    """
    s = max(2.0 * cam.cx / width, 2.0 * cam.cy / height)
    if not s > 0:
        raise ValueError(f"principal point ({cam.cx}, {cam.cy}) leaves no image for the grid")
    return CameraIntrinsics(fx=cam.fx / s, fy=cam.fy / s, cx=cam.cx / s, cy=cam.cy / s)


def _plane(values) -> np.ndarray:
    arr = np.asarray(values)
    return arr if arr.dtype in (np.float32, np.float64) else arr.astype(np.float64)


@dataclass(frozen=True)
class HeatmapStack:
    """Bottom-up map stack on one (height, width) grid.

    ``joint_maps`` (K, H, W) in [0, 1]; ``tag_maps`` (K, H, W) unit-free;
    ``rel_depth_maps`` (K, H, W) mm relative to the root; ``root_depth_map``
    (H, W) mm absolute.  Float32 and float64 planes are kept as given, any
    other type becomes float64.
    """

    width: int
    height: int
    joint_maps: np.ndarray
    tag_maps: np.ndarray
    rel_depth_maps: np.ndarray
    root_depth_map: np.ndarray

    def __post_init__(self):
        for name in ("joint_maps", "tag_maps", "rel_depth_maps", "root_depth_map"):
            object.__setattr__(self, name, _plane(getattr(self, name)))
        k = self.joint_maps.shape[0] if self.joint_maps.ndim == 3 else "K"
        for name in ("joint_maps", "tag_maps", "rel_depth_maps"):
            shape = getattr(self, name).shape
            if shape != (k, self.height, self.width):
                raise ValueError(
                    f"{name} must have shape ({k}, {self.height}, {self.width}), got {shape}"
                )
        root_shape = self.root_depth_map.shape
        if root_shape != (self.height, self.width):
            raise ValueError(
                f"root_depth_map must have shape {(self.height, self.width)}, got {root_shape}"
            )
        # A NaN makes the minimum and the maximum NaN, which fails every
        # comparison; ``initial`` gives an empty plane bounds that pass.
        if not (self.joint_maps.min(initial=0.0) >= 0.0
                and self.joint_maps.max(initial=0.0) <= 1.0):
            raise ValueError("joint_maps values must lie within [0, 1]")
        for name in ("tag_maps", "rel_depth_maps", "root_depth_map"):
            plane = getattr(self, name)
            if not (-math.inf < plane.min(initial=0.0) and plane.max(initial=0.0) < math.inf):
                raise ValueError(f"{name} values must be finite")

    @property
    def num_joints(self) -> int:
        return self.joint_maps.shape[0]


def in_grid(u: np.ndarray, v: np.ndarray, width: int, height: int) -> np.ndarray:
    """Which pixels (u, v) lie on a ``width`` x ``height`` grid,
    0 <= u <= width-1 and 0 <= v <= height-1 (NaN lies off it)."""
    return (u >= 0.0) & (u <= width - 1) & (v >= 0.0) & (v <= height - 1)


def bilinear_sample(grid: np.ndarray, u, v):
    """Bilinear interpolation of (H, W) planes at pixels (u, v).

    ``grid`` is one plane, sampled at every point of the equal-shape ``u``
    and ``v``, or a stack (N, H, W) whose plane n is sampled at the points
    ``u[n]``, ``v[n]``.  Every point must satisfy 0 <= u <= W-1 and
    0 <= v <= H-1.  A scalar (u, v) on one plane gives a float.
    """
    h, w = grid.shape[-2:]
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    outside = ~in_grid(u, v, w, h)
    if outside.any():
        first = np.flatnonzero(outside)[0]
        raise OutOfGridError(f"sample ({u.flat[first]}, {v.flat[first]}) outside grid {w}x{h}")
    x0 = np.minimum(np.floor(u), max(w - 2, 0)).astype(np.intp)
    y0 = np.minimum(np.floor(v), max(h - 2, 0)).astype(np.intp)
    x1 = np.minimum(x0 + 1, w - 1)
    y1 = np.minimum(y0 + 1, h - 1)
    fx = u - x0
    fy = v - y0
    plane = (np.arange(len(grid)).reshape(-1, *[1] * (u.ndim - 1)),) if grid.ndim == 3 else ()
    top = grid[(*plane, y0, x0)] * (1.0 - fx) + grid[(*plane, y0, x1)] * fx
    bot = grid[(*plane, y1, x0)] * (1.0 - fx) + grid[(*plane, y1, x1)] * fx
    out = top * (1.0 - fy) + bot * fy
    return float(out) if out.ndim == 0 else out


def extract_peaks(stack: HeatmapStack, theta_peak: float = DEFAULT_PEAK_THRESHOLD
                  ) -> list[list[tuple[float, float, float]]]:
    """Per-joint sub-pixel peak candidates (u, v, score).

    A peak is a cell strictly greater than its in-bounds 8-neighborhood with
    score >= theta_peak.  The integer location is refined by a 0.25 px shift
    toward the larger neighbor along each axis.  Peaks are ordered by
    descending score (ties by row-major position).

    Exact plateau ties (a Gaussian centered exactly halfway between two
    cells) have no strictly-greater cell and yield no peak; real-valued
    inputs hit this with probability zero.
    """
    if not 0.0 < theta_peak < 1.0:
        raise ValueError("theta_peak must lie in (0, 1)")
    k, h, w = stack.joint_maps.shape
    maps = np.ascontiguousarray(stack.joint_maps).reshape(-1)
    # The smallest value of the planes' dtype that is >= theta_peak: a cell
    # meets it exactly when its float64 value meets theta_peak, so float32
    # planes decode as their float64 copies do.  The test is on Python
    # floats, since a float32 scalar would compare in float32.
    floor = maps.dtype.type(theta_peak)
    if float(floor) < theta_peak:
        floor = np.nextafter(floor, maps.dtype.type(np.inf))
    cells = np.flatnonzero(maps >= floor)
    score = maps[cells]
    # Each candidate against its in-bounds 8 neighbors, by flat index.  A
    # neighbor's column and row are clipped to the grid, which on the border
    # gives either another in-bounds neighbor or the cell itself, and the
    # cell itself is no neighbor.
    x = cells % w
    y = cells // w % h
    cols = (cells - (x > 0), cells, cells + (x < w - 1))
    rows = (-w * (y > 0), 0, w * (y < h - 1))
    neighbors = [col + row for row in rows for col in cols]
    del neighbors[4]  # the cell itself
    is_peak = np.ones(cells.shape, dtype=bool)
    for neighbor in neighbors:
        is_peak &= (score > maps[neighbor]) | (neighbor == cells)
    cells, score, xs, ys = cells[is_peak], score[is_peak], x[is_peak], y[is_peak]
    js = cells // (h * w)
    # cells on the border keep their integer coordinate along that axis;
    # the sign of a difference of two floats of one dtype is exact
    du = np.sign(maps[cells + (xs < w - 1)] - maps[cells - (xs > 0)])
    dv = np.sign(maps[cells + w * (ys < h - 1)] - maps[cells - w * (ys > 0)])
    u = xs + np.where((xs > 0) & (xs < w - 1), 0.25 * du, 0.0)
    v = ys + np.where((ys > 0) & (ys < h - 1), 0.25 * dv, 0.0)
    order = np.lexsort((u, v, -score, js))
    peaks = list(zip(u[order].tolist(), v[order].tolist(), score[order].tolist()))
    ends = np.cumsum(np.bincount(js, minlength=k)).tolist()
    return [peaks[a:b] for a, b in zip([0, *ends], ends)]


def group_by_tags(peaks: list[list[tuple[float, float, float]]],
                  tag_maps: np.ndarray, theta_tag: float = DEFAULT_TAG_THRESHOLD
                  ) -> list[Pose2D]:
    """Greedy grouping of joint peaks into persons by ID-tag proximity.

    Each peak joins the existing group whose running mean tag is nearest and
    within ``theta_tag`` (among groups still missing that joint); otherwise
    it starts a new group.  Missing joints get position (0, 0) and conf 0.
    Peaks are placed one by one, since each placement moves a mean tag.
    """
    if not theta_tag > 0:
        raise ValueError("theta_tag must be positive")
    k = len(peaks)
    # every peak's tag in one call: one row per joint, padded with the
    # in-grid point (0, 0), whose samples go unused
    width = max(map(len, peaks), default=0)
    uv = np.array([[(u, v) for u, v, _ in joint_peaks] + [(0.0, 0.0)] * (width - len(joint_peaks))
                   for joint_peaks in peaks]).reshape(k, width, 2)
    tags = bilinear_sample(tag_maps, uv[..., 0], uv[..., 1]).tolist()
    groups: list[dict] = []  # {"joints": {k: (u, v, score)}, "tag_sum", "n"}
    for joint, joint_peaks in enumerate(peaks):
        # A group's mean moves only when it takes a peak, and that closes it
        # for this joint, so each open group's mean is taken once per joint.
        open_groups = [(g["tag_sum"] / g["n"], g) for g in groups if joint not in g["joints"]]
        for peak, tag in zip(joint_peaks, tags[joint]):
            best = None
            best_dist = None
            for i, (mean, _) in enumerate(open_groups):
                dist = abs(mean - tag)
                if dist <= theta_tag and (best_dist is None or dist < best_dist):
                    best = i
                    best_dist = dist
            if best is None:
                groups.append({"joints": {joint: peak}, "tag_sum": tag, "n": 1})
            else:
                g = open_groups.pop(best)[1]
                g["joints"][joint] = peak
                g["tag_sum"] += tag
                g["n"] += 1
    joints = [[0.0] * (2 * k) for _ in groups]
    conf = [[0.0] * k for _ in groups]
    for joints_row, conf_row, g in zip(joints, conf, groups):
        for joint, (u, v, score) in g["joints"].items():
            joints_row[2 * joint:2 * joint + 2] = u, v
            conf_row[joint] = min(max(score, 0.0), 1.0)
    return poses_from_stack(np.array(joints, dtype=np.float64).reshape(len(groups), k, 2),
                            np.array(conf, dtype=np.float64).reshape(len(groups), k), None)


def retrieve_depths(joints: np.ndarray, stack: HeatmapStack, skel: SkeletonSpec
                    ) -> tuple[float | np.ndarray, np.ndarray]:
    """Read (root depth, per-joint relative depths) at pixel joints (..., K, 2).

    The root depth map is sampled at each person's root joint and each
    relative-depth map at its own joint, one gather for all persons.  One
    person's (K, 2) joints give (float, (K,)); (P, K, 2) give ((P,), (P, K)).
    Raises OutOfGridError for joints outside the grid.
    """
    # joint axis first, so that relative-depth plane k is sampled at joint k
    u, v = np.moveaxis(joints, (-1, -2), (0, 1))
    root = skel.root_index
    z_root = bilinear_sample(stack.root_depth_map, u[root], v[root])
    return z_root, np.moveaxis(bilinear_sample(stack.rel_depth_maps, u, v), 0, -1)


def render_stack(poses: list[Pose3D], cam: CameraIntrinsics, skel: SkeletonSpec,
                 width: int, height: int, sigma_px: float = DEFAULT_SIGMA_PX,
                 tags: list[float] | None = None) -> HeatmapStack:
    """Render camera-centric poses into a map stack (synthesis oracle).

    Joint maps are max-composited Gaussians at the projected joints.  Tag
    and depth values at each pixel come from whichever person's Gaussian
    dominates there, the lowest person index on ties, so depth reads near a
    peak return that person's exact values.  All joints must project inside
    the grid.

    Each Gaussian is evaluated only on the disk of radius
    r = ceil(WINDOW_SIGMAS * sigma_px) px around its joint (r = 12 at the
    default sigma), clipped to the grid.  Outside every disk of joint k,
    joint map k and its tag and relative-depth maps are 0, and so is the
    root-depth map outside every root-joint disk.  A full-grid Gaussian is
    below exp(-r^2 / (2 sigma^2)) <= exp(-18), about 1.5e-8, there, which
    float32 cannot tell from 0 next to 1.0.  Inside the disks the planes
    equal a full-grid render's bit for bit, save cells where every Gaussian
    underflows to 0 (sigma below about 0.026 px), which hold 0.  Stack
    files of versions that rendered the full grid hold those small values,
    and the nearest person's tag and depths, outside the disks; their
    decoded poses are the same.
    """
    # the comparisons are False for NaN, so NaN fails them too
    if not 0 < sigma_px < math.inf:
        raise ValueError(f"sigma_px must be finite and positive, got {sigma_px!r}")
    k = skel.num_joints
    n = len(poses)
    joint_maps = np.zeros((k, height, width))
    tag_maps = np.zeros((k, height, width))
    rel_maps = np.zeros((k, height, width))
    root_map = np.zeros((height, width))
    if tags is None:
        tags = [float(2 * i) for i in range(n)]
    if len(tags) != n:
        raise ValueError("one tag value per pose required")
    require_camera_centric(*poses)
    joints = stack_poses(poses, (k, 3))[0]
    uv = project(joints, cam)
    if not in_grid(uv[..., 0], uv[..., 1], width, height).all():
        raise OutOfGridError("pose projects outside the heatmap grid")

    tag_vals = np.asarray(tags, dtype=np.float64)
    root_vals = joints[:, skel.root_index, 2]
    rel_vals = joints[..., 2] - root_vals[:, None]
    # Each joint's disk lies in a box: the disk's bounding square moved
    # inside the grid (the whole grid along an axis the square does not
    # fit), so every box cell is a grid cell.  A disk wider than the grid's
    # diagonal covers the grid whatever its radius.
    r = min(math.ceil(WINDOW_SIGMAS * sigma_px), width + height)
    box_w, box_h = min(2 * r + 1, width), min(2 * r + 1, height)
    corner = np.ceil(uv).astype(np.intp) - r
    xs = np.clip(corner[..., 0], 0, width - box_w)[..., None] + np.arange(box_w)
    ys = np.clip(corner[..., 1], 0, height - box_h)[..., None] + np.arange(box_h)
    dx_sq = (xs - uv[..., 0, None]) ** 2  # (n, K, box_w)
    dy_sq = (ys - uv[..., 1, None]) ** 2  # (n, K, box_h)
    rows = (np.arange(k)[:, None] * height + ys) * width  # flat index of each box row's start
    box = box_w * box_h
    root_cells = skel.root_index * box, (skel.root_index + 1) * box
    two_sigma_sq = 2.0 * sigma_px * sigma_px
    joint_flat, tag_flat, rel_flat, root_flat = (
        plane.reshape(-1) for plane in (joint_maps, tag_maps, rel_maps, root_map))
    # Persons in index order, all joints at once: a cell takes a person's
    # values only where its Gaussian is strictly larger than the cell's, so
    # on ties the lowest index keeps it, as an argmax over persons would.
    for person in range(n):
        d_sq = (dx_sq[person, :, None, :] + dy_sq[person, :, :, None]).reshape(-1)
        gauss = np.exp(-d_sq / two_sigma_sq)
        gauss[d_sq > r * r] = 0.0  # outside the disk, never larger than a cell
        cells = (rows[person, :, :, None] + xs[person, :, None, :]).reshape(-1)
        take = np.flatnonzero(gauss > joint_flat[cells])  # ascending, so joint by joint
        at = cells[take]
        joint_flat[at] = gauss[take]
        tag_flat[at] = tag_vals[person]
        rel_flat[at] = rel_vals[person, take // box]
        first, last = np.searchsorted(take, root_cells)
        root_flat[at[first:last] - skel.root_index * height * width] = root_vals[person]
    return HeatmapStack(width=width, height=height, joint_maps=joint_maps,
                        tag_maps=tag_maps, rel_depth_maps=rel_maps,
                        root_depth_map=root_map)


def _decode(stack: HeatmapStack, skel: SkeletonSpec, theta_peak: float, theta_tag: float
            ) -> tuple[list[Pose2D], np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``decode_stack``'s kept 2D poses, as poses and as (n, K, 2) joints and
    (n, K) confidences, with their (n,) root and (n, K) relative depths."""
    peaks = extract_peaks(stack, theta_peak)
    poses = [pose for pose in group_by_tags(peaks, stack.tag_maps, theta_tag)
             if pose.conf[skel.root_index] > 0.0]
    joints, conf = stack_poses(poses, (stack.num_joints, 2))
    return poses, joints, conf, *retrieve_depths(joints, stack, skel)


def decode_stack(stack: HeatmapStack, skel: SkeletonSpec,
                 theta_peak: float = DEFAULT_PEAK_THRESHOLD,
                 theta_tag: float = DEFAULT_TAG_THRESHOLD
                 ) -> list[tuple[Pose2D, float, np.ndarray]]:
    """Full decode: peaks -> person groups -> depth retrieval.

    Returns (pose2d, root depth, per-joint relative depths) per person.
    Persons whose root joint was not detected are dropped (their absolute
    depth is unreadable); the depths of the rest are read in one gather.
    """
    poses, _, _, z_root, z_rel = _decode(stack, skel, theta_peak, theta_tag)
    return list(zip(poses, z_root.tolist(), z_rel))


def decode_poses(stack: HeatmapStack, cam: CameraIntrinsics, skel: SkeletonSpec,
                 theta_peak: float = DEFAULT_PEAK_THRESHOLD,
                 theta_tag: float = DEFAULT_TAG_THRESHOLD) -> list[Pose3D]:
    """Decode a stack into camera-centric 3D poses.

    Joint depth = root depth + relative depth; each joint is back-projected
    at its own depth, all persons in one call.  Undetected joints reuse the
    root depth so the lifted point stays finite (their confidence remains 0).
    """
    _, uv, conf, z_root, z_rel = _decode(stack, skel, theta_peak, theta_tag)
    depths = z_root[:, None] + np.where(conf > 0.0, z_rel, 0.0)
    return poses_from_stack(back_project(uv, depths, cam), conf, Frame.CAMERA_CENTRIC)


def write_stack(stack: HeatmapStack, path) -> None:
    """Serialize a stack to the binary tensor format.

    Layout: magic "PHMS", u16 version, little-endian u32 {K, width, height},
    then joint/tag/rel-depth/root-depth maps as row-major float32.
    """
    header = MAGIC + struct.pack("<H3I", FORMAT_VERSION, stack.num_joints,
                                 stack.width, stack.height)
    with open(path, "wb") as fh:
        fh.write(header)
        for arr in (stack.joint_maps, stack.tag_maps, stack.rel_depth_maps,
                    stack.root_depth_map):
            fh.write(np.ascontiguousarray(arr, dtype="<f4").tobytes())


def read_stack(path, num_joints: int | None = None) -> HeatmapStack:
    """Read a stack from the binary tensor format written by write_stack.

    Raises SchemaError naming the file for a bad magic or version, a file
    size that disagrees with the header's K x width x height, a joint count
    other than ``num_joints`` (when given), and planes that HeatmapStack
    rejects (non-finite values, joint maps outside [0, 1]).  The planes
    are returned as stored, float32.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    header_size = len(MAGIC) + struct.calcsize("<H3I")
    if blob[:4] != MAGIC:
        raise SchemaError(f"{path}: not a heatmap stack file (bad magic)")
    if len(blob) < header_size:
        raise SchemaError(f"{path}: truncated header, {len(blob)} of {header_size} bytes")
    version, k, width, height = struct.unpack_from("<H3I", blob, 4)
    if version != FORMAT_VERSION:
        raise SchemaError(f"{path}: unsupported version {version}")
    plane = width * height
    expected = header_size + 4 * plane * (3 * k + 1)
    if len(blob) != expected:
        raise SchemaError(f"{path}: header K={k}, width={width}, height={height} "
                          f"needs {expected} bytes, file has {len(blob)}")
    if num_joints is not None and k != num_joints:
        raise SchemaError(f"{path}: expected {num_joints} joints, got {k}")
    data = np.frombuffer(blob, dtype="<f4", offset=header_size)
    joint, tag, rel = data[:3 * k * plane].reshape(3, k, height, width)
    try:
        return HeatmapStack(width=width, height=height, joint_maps=joint, tag_maps=tag,
                            rel_depth_maps=rel,
                            root_depth_map=data[3 * k * plane:].reshape(height, width))
    except ValueError as exc:
        raise SchemaError(f"{path}: {exc}") from exc
