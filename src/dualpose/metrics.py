"""Evaluation metrics for multi-person 3D pose estimation.

Pairwise metrics (MPJPE, PA-MPJPE, PCK variants) operate on one matched
pose pair; set-level metrics (root AP, F1, the aggregated report) handle
person-to-person matching against ground truth themselves.
"""
from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field, fields

import numpy as np
from scipy.optimize import linear_sum_assignment

from .errors import DegenerateGeometryError, FrameMismatchError
from .skeleton import Frame, Pose3D, SkeletonSpec

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
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out["f1_at"] = {repr(t): v for t, v in self.f1_at.items()}
        return out

    def to_json(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2)
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


def _check_pair(pred: Pose3D, gt: Pose3D) -> None:
    if pred.num_joints != gt.num_joints:
        raise ValueError("prediction and ground truth must share one skeleton")


def _root_aligned_distances(pred: Pose3D, gt: Pose3D, skel: SkeletonSpec) -> np.ndarray:
    _check_pair(pred, gt)
    p = pred.joints - pred.joints[skel.root_index]
    g = gt.joints - gt.joints[skel.root_index]
    return np.linalg.norm(p - g, axis=-1)


def mpjpe(pred: Pose3D, gt: Pose3D, skel: SkeletonSpec) -> float:
    """Mean per-joint position error after root-translation alignment (mm)."""
    return float(np.mean(_root_aligned_distances(pred, gt, skel)))


def similarity_align(source: np.ndarray, target: np.ndarray
                     ) -> tuple[np.ndarray, float, np.ndarray, np.ndarray]:
    """Least-squares similarity alignment of ``source`` onto ``target``.

    Returns (aligned points, scale, rotation, translation) minimizing
    sum ||s*R'source + t - target||^2.  Raises DegenerateGeometryError when
    the source or target configuration has rank < 2.
    """
    src = np.asarray(source, dtype=np.float64)
    tgt = np.asarray(target, dtype=np.float64)
    mu_src = src.mean(axis=0)
    mu_tgt = tgt.mean(axis=0)
    src0 = src - mu_src
    tgt0 = tgt - mu_tgt
    var_src = float(np.sum(src0 * src0))
    if var_src <= 0.0:
        raise DegenerateGeometryError("source points are coincident")
    h = src0.T @ tgt0
    u, s, vt = np.linalg.svd(h)
    if s[1] <= max(s[0], 1.0) * 1e-12:
        raise DegenerateGeometryError("point configuration has rank < 2")
    d = np.sign(np.linalg.det(vt.T @ u.T))
    flip = np.ones(3)
    flip[-1] = d
    rot = vt.T @ np.diag(flip) @ u.T
    scale = float(np.sum(s * flip)) / var_src
    trans = mu_tgt - scale * rot @ mu_src
    aligned = scale * src @ rot.T + trans
    return aligned, scale, rot, trans


def pa_mpjpe(pred: Pose3D, gt: Pose3D) -> float:
    """MPJPE after optimal similarity (Procrustes) alignment of pred onto gt."""
    _check_pair(pred, gt)
    aligned, _, _, _ = similarity_align(pred.joints, gt.joints)
    return float(np.mean(np.linalg.norm(aligned - gt.joints, axis=-1)))


def pck(pred: Pose3D, gt: Pose3D, threshold_mm: float, skel: SkeletonSpec) -> float:
    """Fraction of joints whose root-aligned distance is below threshold."""
    if threshold_mm <= 0:
        raise ValueError("threshold must be positive")
    dists = _root_aligned_distances(pred, gt, skel)
    return float(np.mean(dists < threshold_mm))


def pck_abs(pred: Pose3D, gt: Pose3D, threshold_mm: float) -> float:
    """Fraction of joints within threshold using raw camera-centric distances."""
    if threshold_mm <= 0:
        raise ValueError("threshold must be positive")
    if pred.frame is not Frame.CAMERA_CENTRIC or gt.frame is not Frame.CAMERA_CENTRIC:
        raise FrameMismatchError("absolute PCK requires camera-centric poses")
    _check_pair(pred, gt)
    dists = np.linalg.norm(pred.joints - gt.joints, axis=-1)
    return float(np.mean(dists < threshold_mm))


def auc_thresholds(max_mm: float = DEFAULT_AUC_MAX_MM,
                   step_mm: float = DEFAULT_AUC_STEP_MM) -> np.ndarray:
    """Threshold grid step, 2*step, ..., max.

    Zero is excluded so that error-free predictions score exactly 1 under
    the strict less-than comparison.
    """
    if step_mm <= 0:
        raise ValueError("step must be positive")
    count = int(round(max_mm / step_mm))
    return step_mm * np.arange(1, count + 1)


def greedy_root_match(pred_roots: np.ndarray, gt_roots: np.ndarray
                      ) -> tuple[list[tuple[int, int]], list[int], list[int]]:
    """Globally greedy nearest-root pairing (no distance gate).

    Returns (pairs, unmatched pred indices, unmatched gt indices); ties are
    resolved by lowest flattened (pred, gt) index.
    """
    n_pred = len(pred_roots)
    n_gt = len(gt_roots)
    if n_pred == 0 or n_gt == 0:
        return [], list(range(n_pred)), list(range(n_gt))
    d = np.linalg.norm(pred_roots[:, None, :] - gt_roots[None, :, :], axis=-1)
    order = np.argsort(d, axis=None, kind="stable")
    taken_pred: set[int] = set()
    taken_gt: set[int] = set()
    pairs = []
    for flat in order.tolist():
        i, j = divmod(flat, n_gt)
        if i in taken_pred or j in taken_gt:
            continue
        pairs.append((i, j))
        taken_pred.add(i)
        taken_gt.add(j)
        if len(pairs) == min(n_pred, n_gt):
            break
    unmatched_pred = [i for i in range(n_pred) if i not in taken_pred]
    unmatched_gt = [j for j in range(n_gt) if j not in taken_gt]
    return pairs, unmatched_pred, unmatched_gt


def _roots(poses: list[Pose3D], skel: SkeletonSpec) -> np.ndarray:
    if not poses:
        return np.zeros((0, 3))
    return np.stack([p.joints[skel.root_index] for p in poses])


def _matched_distances(pred_set: list[Pose3D], gt_set: list[Pose3D],
                       skel: SkeletonSpec):
    """Greedy root matching, then the per-joint distances of matched pairs.

    Returns (pairs, unmatched pred indices, unmatched gt indices,
    root-aligned distances, camera-centric distances); the distances are
    concatenated over the pairs in match order.
    """
    pairs, un_pred, un_gt = greedy_root_match(_roots(pred_set, skel), _roots(gt_set, skel))
    if not pairs:
        return pairs, un_pred, un_gt, np.zeros(0), np.zeros(0)
    rel = np.concatenate([_root_aligned_distances(pred_set[i], gt_set[j], skel)
                          for i, j in pairs])
    absolute = np.concatenate([np.linalg.norm(pred_set[i].joints - gt_set[j].joints, axis=-1)
                               for i, j in pairs])
    return pairs, un_pred, un_gt, rel, absolute


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
    _, _, _, rel, abs_dists = _matched_distances(pred_set, gt_set, skel)
    total = sum(p.num_joints for p in gt_set)
    return _fraction_within(abs_dists if absolute else rel, threshold_mm, total)


def auc_rel(pred_set: list[Pose3D], gt_set: list[Pose3D], skel: SkeletonSpec,
            max_mm: float = DEFAULT_AUC_MAX_MM,
            step_mm: float = DEFAULT_AUC_STEP_MM) -> float:
    """Mean of the set-level PCK over the threshold grid (discrete AUC)."""
    grid = auc_thresholds(max_mm, step_mm)
    _, _, _, rel, _ = _matched_distances(pred_set, gt_set, skel)
    total = sum(p.num_joints for p in gt_set)
    return float(np.mean([_fraction_within(rel, t, total) for t in grid]))


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
    if radius_mm <= 0:
        raise ValueError("radius must be positive")
    detections = []  # (-conf, scene idx, person idx)
    num_gt = 0
    for s, (preds, gts) in enumerate(scenes):
        num_gt += len(gts)
        for i, p in enumerate(preds):
            detections.append((-float(np.mean(p.conf)), s, i))
    if num_gt == 0:
        return 1.0 if not detections else 0.0
    detections.sort()
    claimed: set[tuple[int, int]] = set()
    tp_flags = []
    for _, s, i in detections:
        preds, gts = scenes[s]
        root = preds[i].joints[skel.root_index]
        best_j = -1
        best_d = radius_mm
        for j, g in enumerate(gts):
            if (s, j) in claimed:
                continue
            d = float(np.linalg.norm(root - g.joints[skel.root_index]))
            if d < best_d:
                best_d = d
                best_j = j
        if best_j >= 0:
            claimed.add((s, best_j))
            tp_flags.append(True)
        else:
            tp_flags.append(False)
    ap = 0.0
    tp_count = 0
    for rank, flag in enumerate(tp_flags, start=1):
        if flag:
            tp_count += 1
            ap += tp_count / rank
    return ap / num_gt


def _f1_matches(pred_set: list[Pose3D], gt_set: list[Pose3D], skel: SkeletonSpec
                ) -> tuple[np.ndarray, int, int]:
    """The threshold-free part of the F1 counts of one frame.

    Persons are paired by minimum-total root distance (Hungarian).  Returns
    (camera-centric joint distances of the pairs, concatenated in pair
    order; joints of unmatched predictions; joints of unmatched
    ground-truth persons).
    """
    pairs: list[tuple[int, int]] = []
    if pred_set and gt_set:
        pred_roots = _roots(pred_set, skel)
        gt_roots = _roots(gt_set, skel)
        d = np.linalg.norm(pred_roots[:, None, :] - gt_roots[None, :, :], axis=-1)
        rows, cols = linear_sum_assignment(d)
        pairs = list(zip(rows.tolist(), cols.tolist()))
    diffs = [pred_set[i].joints - gt_set[j].joints for i, j in pairs]
    dists = np.linalg.norm(np.concatenate(diffs), axis=-1) if diffs else np.zeros(0)
    matched_pred = {i for i, _ in pairs}
    matched_gt = {j for _, j in pairs}
    extra = sum(p.num_joints for i, p in enumerate(pred_set) if i not in matched_pred)
    missed = sum(g.num_joints for j, g in enumerate(gt_set) if j not in matched_gt)
    return dists, extra, missed


def _f1_tally(matches: tuple[np.ndarray, int, int],
              threshold_m: float) -> tuple[int, int, int]:
    """(TP, FP, FN) of one frame's ``_f1_matches`` at a threshold in meters."""
    if threshold_m <= 0:
        raise ValueError("threshold must be positive")
    dists, extra, missed = matches
    hits = int(np.sum(dists < threshold_m * 1000.0))
    misses = dists.size - hits
    return hits, misses + extra, misses + missed


def f1_counts(pred_set: list[Pose3D], gt_set: list[Pose3D], threshold_m: float,
              skel: SkeletonSpec) -> tuple[int, int, int]:
    """(TP, FP, FN) joint counts at a threshold given in meters.

    Persons are paired by minimum-total root distance (Hungarian); a matched
    joint inside the threshold is a TP, outside it is both an FP and an FN.
    Joints of unmatched ground-truth persons are FNs; joints of unmatched
    predictions are FPs.
    """
    return _f1_tally(_f1_matches(pred_set, gt_set, skel), threshold_m)


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

    Persons are matched greedily by root distance per frame for the
    distance / PCK metrics; root AP pools detections across frames; F1
    counts accumulate per frame.
    """
    if len(pred_frames) != len(gt_frames):
        raise ValueError("prediction and ground truth must cover the same frames")
    th = thresholds or MetricThresholds()
    grid = auc_thresholds(th.auc_max_mm, th.auc_step_mm)

    pair_dists: list[np.ndarray] = []       # root-aligned, matched persons
    pair_abs_dists: list[np.ndarray] = []   # camera-centric, matched persons
    pa_values: list[float] = []
    total_gt_joints = 0
    matched = missed = extra = 0
    f1_acc = {t: [0, 0, 0] for t in th.f1_thresholds_m}
    ap_scenes = []

    for preds, gts in zip(pred_frames, gt_frames):
        total_gt_joints += sum(g.num_joints for g in gts)
        pairs, un_pred, un_gt, rel, abs_dists = _matched_distances(preds, gts, skel)
        matched += len(pairs)
        missed += len(un_gt)
        extra += len(un_pred)
        pair_dists.append(rel)
        pair_abs_dists.append(abs_dists)
        pa_values.extend(pa_mpjpe(preds[i], gts[j]) for i, j in pairs)
        f1_matches = _f1_matches(preds, gts, skel)
        for t in th.f1_thresholds_m:
            tp, fp, fn = _f1_tally(f1_matches, t)
            f1_acc[t][0] += tp
            f1_acc[t][1] += fp
            f1_acc[t][2] += fn
        ap_scenes.append((preds, gts))

    all_rel = np.concatenate(pair_dists) if pair_dists else np.zeros(0)
    all_abs = np.concatenate(pair_abs_dists) if pair_abs_dists else np.zeros(0)
    mpjpe_val = float(np.mean(all_rel)) if pa_values else float("nan")
    pa_val = float(np.mean(pa_values)) if pa_values else float("nan")

    pck_val = _fraction_within(all_rel, th.pck_mm, total_gt_joints)
    pck_abs_val = _fraction_within(all_abs, th.pck_abs_mm, total_gt_joints)
    auc_val = float(np.mean([_fraction_within(all_rel, t, total_gt_joints) for t in grid]))
    ap_val = ap_root_pooled(ap_scenes, skel, th.ap_root_radius_mm)

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
