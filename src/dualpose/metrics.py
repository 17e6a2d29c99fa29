"""Evaluation metrics for multi-person 3D pose estimation.

Pairwise metrics (MPJPE, PA-MPJPE, PCK variants) operate on one matched
pose pair; set-level metrics (root AP, F1, the aggregated report) handle
person-to-person matching against ground truth themselves.
"""
from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field, fields

import numpy as np

from .assignment import linear_sum_assignment
from .errors import DegenerateGeometryError
from .skeleton import Pose3D, SkeletonSpec, require_camera_centric, stack_poses

DEFAULT_PCK_THRESHOLD_MM = 150.0
DEFAULT_AUC_MAX_MM = 150.0
DEFAULT_AUC_STEP_MM = 5.0
DEFAULT_PCK_ABS_THRESHOLD_MM = 250.0
DEFAULT_AP_ROOT_RADIUS_MM = 250.0
DEFAULT_F1_THRESHOLDS_M = (0.4, 0.8, 1.2)


@dataclass(frozen=True)
class MetricThresholds:
    """Threshold set for the aggregate report; defaults follow the common
    camera-centric evaluation protocol conventions."""

    pck_mm: float = DEFAULT_PCK_THRESHOLD_MM
    auc_max_mm: float = DEFAULT_AUC_MAX_MM
    auc_step_mm: float = DEFAULT_AUC_STEP_MM
    pck_abs_mm: float = DEFAULT_PCK_ABS_THRESHOLD_MM
    ap_root_radius_mm: float = DEFAULT_AP_ROOT_RADIUS_MM
    f1_thresholds_m: tuple[float, ...] = DEFAULT_F1_THRESHOLDS_M

    def __post_init__(self):
        # the comparisons are False for NaN, so NaN fails them too
        for name in ("pck_mm", "pck_abs_mm", "auc_step_mm", "ap_root_radius_mm"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and positive, got {getattr(self, name)!r}")
        if not self.auc_step_mm <= self.auc_max_mm < math.inf:
            raise ValueError(f"auc_max_mm must be finite and at least auc_step_mm "
                             f"({self.auc_step_mm!r}), got {self.auc_max_mm!r}")
        for t in self.f1_thresholds_m:
            if not 0 < t < math.inf:
                raise ValueError(f"f1_thresholds_m must be finite and positive, got {t!r}")


@dataclass
class MetricReport:
    """Aggregated metric values plus matching diagnostics.

    ``pck``, ``pck_abs``, ``auc_rel``, and ``ap_root`` are percentages;
    F1 values are fractions in [0, 1].
    """

    mpjpe_mm: float
    pa_mpjpe_mm: float
    pck: float
    pck_abs: float
    auc_rel: float
    ap_root: float
    f1_at: dict[float, float] = field(default_factory=dict)
    matched_persons: int = 0
    missed_persons: int = 0
    extra_persons: int = 0

    def to_dict(self) -> dict:
        """JSON form; a metric left undefined (NaN: no matched pair) is None."""
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out = {k: None if isinstance(v, float) and math.isnan(v) else v
               for k, v in out.items()}
        out["f1_at"] = {repr(t): v for t, v in self.f1_at.items()}
        return out

    def to_json(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2, allow_nan=False)
            fh.write("\n")

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["metric", "value"])
            for f in fields(self):
                if f.name == "f1_at":
                    writer.writerows([f"f1_at_{t}m", repr(self.f1_at[t])]
                                     for t in sorted(self.f1_at))
                else:
                    writer.writerow([f.name, repr(getattr(self, f.name))])


def _root_aligned_distances(pred: np.ndarray, gt: np.ndarray, root: int) -> np.ndarray:
    """Per-joint distances of paired (..., K, 3) joint stacks after moving
    each pose's root to the origin."""
    p = pred - pred[..., root:root + 1, :]
    g = gt - gt[..., root:root + 1, :]
    return np.linalg.norm(p - g, axis=-1)


def mpjpe(pred: Pose3D, gt: Pose3D, skel: SkeletonSpec) -> float:
    """Mean per-joint position error after root-translation alignment (mm)."""
    (p, g), _ = stack_poses([pred, gt])
    return float(np.mean(_root_aligned_distances(p, g, skel.root_index)))


def similarity_align(source: np.ndarray, target: np.ndarray
                     ) -> tuple[np.ndarray, float | np.ndarray, np.ndarray, np.ndarray]:
    """Least-squares similarity alignment of ``source`` onto ``target``.

    Both are (..., N, 3) stacks of point sets, each aligned on its own.
    Returns (aligned points, scale, rotation, translation) of shapes (..., N, 3),
    (...), (..., 3, 3), (..., 3), minimizing sum ||s*R'source + t - target||^2
    per set.  Raises DegenerateGeometryError if any set has rank < 2.
    """
    src = np.asarray(source, dtype=np.float64)
    tgt = np.asarray(target, dtype=np.float64)
    mu_src = src.mean(axis=-2)
    mu_tgt = tgt.mean(axis=-2)
    src0 = src - mu_src[..., None, :]
    tgt0 = tgt - mu_tgt[..., None, :]
    var_src = np.sum(src0 * src0, axis=(-2, -1))
    if np.any(var_src <= 0.0):
        raise DegenerateGeometryError("source points are coincident")
    u, s, vt = np.linalg.svd(np.swapaxes(src0, -1, -2) @ tgt0)
    if np.any(s[..., 1] <= np.maximum(s[..., 0], 1.0) * 1e-12):
        raise DegenerateGeometryError("point configuration has rank < 2")
    v, ut = np.swapaxes(vt, -1, -2), np.swapaxes(u, -1, -2)
    flip = np.ones(s.shape)
    flip[..., -1] = np.sign(np.linalg.det(v @ ut))
    rot = (v * flip[..., None, :]) @ ut
    scale = np.sum(s * flip, axis=-1) / var_src
    trans = mu_tgt - ((scale[..., None, None] * rot) @ mu_src[..., None])[..., 0]
    aligned = scale[..., None, None] * src @ np.swapaxes(rot, -1, -2) + trans[..., None, :]
    return aligned, scale, rot, trans


def _pa_errors(pred: np.ndarray, gt: np.ndarray) -> np.ndarray:
    """PA-MPJPE of each pose pair of two paired (..., K, 3) joint stacks."""
    aligned = similarity_align(pred, gt)[0]
    return np.mean(np.linalg.norm(aligned - gt, axis=-1), axis=-1)


def pa_mpjpe(pred: Pose3D, gt: Pose3D) -> float:
    """MPJPE after optimal similarity (Procrustes) alignment of pred onto gt
    (the 1-pair case of the stacked alignment)."""
    (p, g), _ = stack_poses([pred, gt])
    return float(_pa_errors(p, g))


def pck(pred: Pose3D, gt: Pose3D, threshold_mm: float, skel: SkeletonSpec) -> float:
    """Fraction of joints whose root-aligned distance is below threshold."""
    if not threshold_mm > 0:
        raise ValueError("threshold must be positive")
    (p, g), _ = stack_poses([pred, gt])
    dists = _root_aligned_distances(p, g, skel.root_index)
    return float(np.mean(dists < threshold_mm))


def pck_abs(pred: Pose3D, gt: Pose3D, threshold_mm: float) -> float:
    """Fraction of joints within threshold using raw camera-centric distances."""
    if not threshold_mm > 0:
        raise ValueError("threshold must be positive")
    require_camera_centric(pred, gt)
    (p, g), _ = stack_poses([pred, gt])
    dists = np.linalg.norm(p - g, axis=-1)
    return float(np.mean(dists < threshold_mm))


def auc_thresholds(max_mm: float = DEFAULT_AUC_MAX_MM,
                   step_mm: float = DEFAULT_AUC_STEP_MM) -> np.ndarray:
    """Threshold grid step, 2*step, ..., max.

    Zero is excluded so that error-free predictions score exactly 1 under
    the strict less-than comparison.
    """
    if not step_mm > 0:
        raise ValueError("step must be positive")
    count = int(round(max_mm / step_mm))
    return step_mm * np.arange(1, count + 1)


def _pairwise_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(n, m, ...) distances between the rows of ``a`` (n, ..., 3) and ``b``."""
    return np.linalg.norm(a[:, None] - b[None], axis=-1)


def _greedy_pairs(dists: np.ndarray, gate: float = math.inf
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Globally greedy nearest-first pairing of a distance matrix's rows and
    columns, (rows, columns) in pairing order; ties by lowest flat index.
    Pairs farther apart than ``gate`` are never made."""
    # gated cells, retired rows and retired columns are inf, above every capped distance
    d = np.where(dists <= gate, np.minimum(dists, np.finfo(np.float64).max), np.inf)
    n, m = d.shape
    rows, cols = [], []
    for _ in range(min(n, m)):
        i, j = divmod(int(np.argmin(d)), m)
        if d[i, j] == np.inf:
            break
        rows.append(i)
        cols.append(j)
        d[i, :] = np.inf
        d[:, j] = np.inf
    return np.array(rows, dtype=np.intp), np.array(cols, dtype=np.intp)


def greedy_root_match(pred_roots: np.ndarray, gt_roots: np.ndarray,
                      gate_mm: float = math.inf
                      ) -> tuple[list[tuple[int, int]], list[int], list[int]]:
    """Globally greedy nearest-root pairing; roots farther apart than
    ``gate_mm`` stay unpaired (no gate by default).

    Returns (pairs, unmatched pred indices, unmatched gt indices); ties are
    resolved by lowest flattened (pred, gt) index.
    """
    rows, cols = _greedy_pairs(_pairwise_distances(np.reshape(pred_roots, (-1, 3)),
                                                   np.reshape(gt_roots, (-1, 3))), gate_mm)
    rows, cols = rows.tolist(), cols.tolist()
    return (list(zip(rows, cols)), sorted(set(range(len(pred_roots))) - set(rows)),
            sorted(set(range(len(gt_roots))) - set(cols)))


def _distance_table(pred_set: list[Pose3D], gt_set: list[Pose3D], skel: SkeletonSpec
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One frame's poses stacked once: the predictions' (n, K, 3) joints and
    (n,) mean confidences, the (m, K, 3) ground-truth joints, and the
    camera-centric distance table J (n, m, K); every person pairing reads
    the root distances ``J[..., root]``."""
    shape = (skel.num_joints, 3)
    (pred, conf), (gt, _) = stack_poses(pred_set, shape), stack_poses(gt_set, shape)
    return pred, conf.mean(axis=1), gt, _pairwise_distances(pred, gt)


def _greedy_distances(pred: np.ndarray, gt: np.ndarray, table: np.ndarray, root: int):
    """Greedy root pairing of one frame: (pred rows, GT rows, root-aligned
    and camera-centric (pairs, K) distances of the pairs)."""
    rows, cols = _greedy_pairs(table[..., root])
    return rows, cols, _root_aligned_distances(pred[rows], gt[cols], root), table[rows, cols]


def _fraction_within(dists: np.ndarray, threshold_mm: float, total_joints: int) -> float:
    """Share of ``total_joints`` ground-truth joints whose matched distance is
    below the threshold; joints without a match count as incorrect."""
    if total_joints == 0:
        return 1.0
    return float(np.sum(dists < threshold_mm)) / total_joints


def pck_set(pred_set: list[Pose3D], gt_set: list[Pose3D], threshold_mm: float,
            skel: SkeletonSpec, absolute: bool = False) -> float:
    """Set-level PCK with greedy root matching.

    Joints of unmatched ground-truth persons count as incorrect; surplus
    predictions are ignored by this metric.
    """
    pred, _, gt, table = _distance_table(pred_set, gt_set, skel)
    _, _, rel, abs_dists = _greedy_distances(pred, gt, table, skel.root_index)
    return _fraction_within(abs_dists if absolute else rel, threshold_mm, gt[..., 0].size)


def auc_rel(pred_set: list[Pose3D], gt_set: list[Pose3D], skel: SkeletonSpec,
            max_mm: float = DEFAULT_AUC_MAX_MM,
            step_mm: float = DEFAULT_AUC_STEP_MM) -> float:
    """Mean of the set-level PCK over the threshold grid (discrete AUC)."""
    grid = auc_thresholds(max_mm, step_mm)
    pred, _, gt, table = _distance_table(pred_set, gt_set, skel)
    rel = _greedy_distances(pred, gt, table, skel.root_index)[2]
    return float(np.mean([_fraction_within(rel, t, gt[..., 0].size) for t in grid]))


def _pooled_ap(scenes: list[tuple[np.ndarray, np.ndarray]], radius_mm: float) -> float:
    """Root AP over scenes given as (mean confidences (n,), root distances
    (n, m)); detections are ranked by confidence, ties by scene and index."""
    if not radius_mm > 0:
        raise ValueError("radius must be positive")
    num_gt = sum(dists.shape[1] for _, dists in scenes)
    conf = np.concatenate([c for c, _ in scenes]) if scenes else np.zeros(0)
    if num_gt == 0:
        return 1.0 if conf.size == 0 else 0.0
    detections = [(s, i) for s, (c, _) in enumerate(scenes) for i in range(c.size)]
    free = [np.ones(dists.shape[1], dtype=bool) for _, dists in scenes]
    hits = np.zeros(conf.size, dtype=bool)
    for rank, det in enumerate(np.argsort(-conf, kind="stable").tolist()):
        s, i = detections[det]
        # the nearest free ground-truth root strictly inside the radius
        dists = np.where(free[s], scenes[s][1][i], np.inf)
        if dists.size and dists.min() < radius_mm:
            free[s][np.argmin(dists)] = False
            hits[rank] = True
    precision = np.cumsum(hits) / np.arange(1, hits.size + 1)
    # a running sum in rank order, as the precision-recall area is defined
    ap = float(np.cumsum(precision[hits])[-1]) if hits.any() else 0.0
    return ap / num_gt


def ap_root(pred_set: list[Pose3D], gt_set: list[Pose3D], skel: SkeletonSpec,
            radius_mm: float = DEFAULT_AP_ROOT_RADIUS_MM) -> float:
    """Average precision of root localization.

    Predictions are ranked by mean confidence and greedily claim the nearest
    free ground-truth root within the radius (TP) or count as FP.  AP is the
    area under the precision-recall curve over that ranking.
    """
    return ap_root_pooled([(pred_set, gt_set)], skel, radius_mm)


def ap_root_pooled(scenes: list[tuple[list[Pose3D], list[Pose3D]]],
                   skel: SkeletonSpec,
                   radius_mm: float = DEFAULT_AP_ROOT_RADIUS_MM) -> float:
    """Root AP pooled over several scenes with a shared confidence ranking."""
    tables = (_distance_table(preds, gts, skel) for preds, gts in scenes)
    return _pooled_ap([(conf, table[..., skel.root_index]) for _, conf, _, table in tables],
                      radius_mm)


def _f1_matches(table: np.ndarray, root: int) -> tuple[np.ndarray, int, int]:
    """The threshold-free part of the F1 counts of one frame's distance table.

    Persons are paired by minimum-total root distance
    (``linear_sum_assignment``).  Returns (camera-centric joint distances of
    the pairs, concatenated in pair order; joints of unmatched predictions;
    joints of unmatched ground-truth persons).
    """
    n, m, k = table.shape
    rows = cols = np.zeros(0, dtype=np.intp)
    if n and m:
        rows, cols = linear_sum_assignment(table[..., root])
    return table[rows, cols].ravel(), k * (n - rows.size), k * (m - rows.size)


def _f1_tally(matches: tuple[np.ndarray, int, int],
              threshold_m: float) -> tuple[int, int, int]:
    """(TP, FP, FN) of one frame's ``_f1_matches`` at a threshold in meters."""
    if not threshold_m > 0:
        raise ValueError("threshold must be positive")
    dists, extra, missed = matches
    hits = int(np.sum(dists < threshold_m * 1000.0))
    misses = dists.size - hits
    return hits, misses + extra, misses + missed


def f1_counts(pred_set: list[Pose3D], gt_set: list[Pose3D], threshold_m: float,
              skel: SkeletonSpec) -> tuple[int, int, int]:
    """(TP, FP, FN) joint counts at a threshold given in meters.

    Persons are paired by minimum-total root distance
    (``linear_sum_assignment``); a matched joint inside the threshold is a
    TP, outside it is both an FP and an FN.
    Joints of unmatched ground-truth persons are FNs; joints of unmatched
    predictions are FPs.
    """
    table = _distance_table(pred_set, gt_set, skel)[3]
    return _f1_tally(_f1_matches(table, skel.root_index), threshold_m)


def f1_from_counts(tp: int, fp: int, fn: int) -> float:
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def f1_at(pred_set: list[Pose3D], gt_set: list[Pose3D], threshold_m: float,
          skel: SkeletonSpec) -> float:
    """Joint-level F1 at a distance threshold in meters."""
    return f1_from_counts(*f1_counts(pred_set, gt_set, threshold_m, skel))


def evaluate_frames(pred_frames: list[list[Pose3D]],
                    gt_frames: list[list[Pose3D]], skel: SkeletonSpec,
                    thresholds: MetricThresholds | None = None) -> MetricReport:
    """Aggregate report over per-frame prediction and ground-truth sets.

    Each frame's poses are stacked into one joint-distance table that every
    pairing reads: greedy root matching for the distance / PCK metrics, root
    AP pooled across frames, and per-frame optimal-assignment F1 counts.  The
    greedy pairs of all frames are Procrustes-aligned in one call after the
    frame loop, so a degenerate pair raises DegenerateGeometryError only
    once every frame has been read.
    """
    if len(pred_frames) != len(gt_frames):
        raise ValueError("prediction and ground truth must cover the same frames")
    th = thresholds or MetricThresholds()
    grid = auc_thresholds(th.auc_max_mm, th.auc_step_mm)
    root = skel.root_index

    # per frame, over its greedy pairs
    rel_dists: list[np.ndarray] = [np.zeros(0)]   # root-aligned
    abs_dists: list[np.ndarray] = [np.zeros(0)]   # camera-centric
    pa_pred: list[np.ndarray] = []
    pa_gt: list[np.ndarray] = []
    total_gt_joints = 0
    matched = missed = extra = 0
    f1_acc = {t: [0, 0, 0] for t in th.f1_thresholds_m}
    ap_scenes = []

    for preds, gts in zip(pred_frames, gt_frames):
        pred, conf, gt, table = _distance_table(preds, gts, skel)
        rows, cols, rel, absolute = _greedy_distances(pred, gt, table, root)
        total_gt_joints += gt[..., 0].size
        matched += rows.size
        missed += len(gt) - rows.size
        extra += len(pred) - rows.size
        rel_dists.append(rel.ravel())
        abs_dists.append(absolute.ravel())
        if rows.size:
            pa_pred.append(pred[rows])
            pa_gt.append(gt[cols])
        f1_matches = _f1_matches(table, root)
        for t in th.f1_thresholds_m:
            tp, fp, fn = _f1_tally(f1_matches, t)
            f1_acc[t][0] += tp
            f1_acc[t][1] += fp
            f1_acc[t][2] += fn
        ap_scenes.append((conf, table[..., root].copy()))

    all_rel = np.concatenate(rel_dists)
    all_abs = np.concatenate(abs_dists)
    mpjpe_val = float(np.mean(all_rel)) if matched else float("nan")
    pa_val = (float(np.mean(_pa_errors(np.concatenate(pa_pred), np.concatenate(pa_gt))))
              if matched else float("nan"))

    pck_val = _fraction_within(all_rel, th.pck_mm, total_gt_joints)
    pck_abs_val = _fraction_within(all_abs, th.pck_abs_mm, total_gt_joints)
    auc_val = float(np.mean([_fraction_within(all_rel, t, total_gt_joints) for t in grid]))
    ap_val = _pooled_ap(ap_scenes, th.ap_root_radius_mm)

    return MetricReport(
        mpjpe_mm=mpjpe_val,
        pa_mpjpe_mm=pa_val,
        pck=100.0 * pck_val,
        pck_abs=100.0 * pck_abs_val,
        auc_rel=100.0 * auc_val,
        ap_root=100.0 * ap_val,
        f1_at={t: f1_from_counts(*f1_acc[t]) for t in th.f1_thresholds_m},
        matched_persons=matched,
        missed_persons=missed,
        extra_persons=extra,
    )
