"""Independent reference implementations used to cross-check the library.

These deliberately take different algorithmic routes (quaternions instead of
SVD, explicit loops instead of vectorized code, exhaustive enumeration
instead of combinatorial solvers) so agreement is meaningful.
"""
import itertools

import numpy as np


def horn_similarity_mpjpe(source, target):
    """Procrustes-aligned mean error via Horn's quaternion method."""
    src = np.asarray(source, dtype=float)
    tgt = np.asarray(target, dtype=float)
    mu_s = src.mean(axis=0)
    mu_t = tgt.mean(axis=0)
    s0 = src - mu_s
    t0 = tgt - mu_t
    m = s0.T @ t0
    sxx, sxy, sxz = m[0]
    syx, syy, syz = m[1]
    szx, szy, szz = m[2]
    n = np.array([
        [sxx + syy + szz, syz - szy, szx - sxz, sxy - syx],
        [syz - szy, sxx - syy - szz, sxy + syx, szx + sxz],
        [szx - sxz, sxy + syx, -sxx + syy - szz, syz + szy],
        [sxy - syx, szx + sxz, syz + szy, -sxx - syy + szz],
    ])
    vals, vecs = np.linalg.eigh(n)
    q = vecs[:, np.argmax(vals)]
    w, x, y, z = q
    rot = np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ])
    rotated = s0 @ rot.T
    scale = float(np.sum(rotated * t0)) / float(np.sum(s0 * s0))
    aligned = scale * rotated + mu_t
    return float(np.mean(np.linalg.norm(aligned - tgt, axis=-1)))


def brute_force_assignment_total(sim):
    """Max total over all injections of the smaller index set, by enumeration.

    Totals are accumulated in row-index order so the result is bitwise
    comparable to a row-ordered sum over the winning pair set.
    """
    n_a, n_b = sim.shape
    if n_a == 0 or n_b == 0:
        return 0.0
    best = -np.inf
    if n_a <= n_b:
        candidates = (list(enumerate(perm))
                      for perm in itertools.permutations(range(n_b), n_a))
    else:
        candidates = (sorted((i, j) for j, i in enumerate(perm))
                      for perm in itertools.permutations(range(n_a), n_b))
    for pairs in candidates:
        total = 0.0
        for i, j in pairs:
            total += float(sim[i, j])
        best = max(best, total)
    return best


def greedy_root_match_loops(pred_roots, gt_roots, gate_mm=np.inf):
    """Plain-loop re-implementation of global nearest-first root pairing;
    pairs farther apart than ``gate_mm`` are never made."""
    n_p, n_g = len(pred_roots), len(gt_roots)
    cells = []
    for i in range(n_p):
        for j in range(n_g):
            d = float(np.linalg.norm(np.asarray(pred_roots[i]) - np.asarray(gt_roots[j])))
            if d <= gate_mm:
                cells.append((d, i, j))
    cells.sort(key=lambda c: (c[0], c[1] * n_g + c[2]))
    used_p, used_g, pairs = set(), set(), []
    for d, i, j in cells:
        if i in used_p or j in used_g:
            continue
        pairs.append((i, j))
        used_p.add(i)
        used_g.add(j)
    return pairs, [i for i in range(n_p) if i not in used_p], \
        [j for j in range(n_g) if j not in used_g]


def set_pck_loops(pred_set, gt_set, threshold_mm, root_index, absolute):
    """Loop-based set PCK with greedy matching and all-miss scoring."""
    total = sum(len(g) for g in (p.joints for p in gt_set))
    if total == 0:
        return 1.0
    pred_roots = [p.joints[root_index] for p in pred_set]
    gt_roots = [g.joints[root_index] for g in gt_set]
    pairs, _, _ = greedy_root_match_loops(pred_roots, gt_roots)
    correct = 0
    for i, j in pairs:
        for k in range(gt_set[j].joints.shape[0]):
            if absolute:
                d = np.linalg.norm(pred_set[i].joints[k] - gt_set[j].joints[k])
            else:
                pr = pred_set[i].joints[k] - pred_set[i].joints[root_index]
                gr = gt_set[j].joints[k] - gt_set[j].joints[root_index]
                d = np.linalg.norm(pr - gr)
            if d < threshold_mm:
                correct += 1
    return correct / total


def ap_root_loops(pred_set, gt_set, radius_mm, root_index):
    """Loop-based average precision over the confidence ranking of one scene."""
    return ap_root_pooled_loops([(pred_set, gt_set)], radius_mm, root_index)


def ap_root_pooled_loops(scenes, radius_mm, root_index):
    """Loop-based average precision over one confidence ranking shared by
    several (predictions, ground truth) scenes; ties by scene, then index.
    Each detection claims the nearest unclaimed root of its own scene."""
    order = sorted(((-float(np.mean(p.conf)), s, i)
                    for s, (preds, _) in enumerate(scenes)
                    for i, p in enumerate(preds)))
    claimed = set()
    flags = []
    for _, s, i in order:
        preds, gts = scenes[s]
        root = preds[i].joints[root_index]
        best_j, best_d = -1, radius_mm
        for j in range(len(gts)):
            if (s, j) in claimed:
                continue
            d = float(np.linalg.norm(root - gts[j].joints[root_index]))
            if d < best_d:
                best_d, best_j = d, j
        if best_j >= 0:
            claimed.add((s, best_j))
            flags.append(True)
        else:
            flags.append(False)
    num_gt = sum(len(gts) for _, gts in scenes)
    if num_gt == 0:
        return 1.0 if not order else 0.0
    ap = 0.0
    tp = 0
    for rank, flag in enumerate(flags, start=1):
        if flag:
            tp += 1
            ap += tp / rank
    return ap / num_gt


def f1_counts_loops(pred_set, gt_set, threshold_m, root_index):
    """(TP, FP, FN) joint counts with exhaustive optimal person pairing
    (small sets only)."""
    thr = threshold_m * 1000.0
    n_p, n_g = len(pred_set), len(gt_set)
    best_pairs = []
    if n_p and n_g:
        best_cost = np.inf
        if n_p <= n_g:
            for perm in itertools.permutations(range(n_g), n_p):
                cost = sum(
                    float(np.linalg.norm(pred_set[i].joints[root_index]
                                         - gt_set[j].joints[root_index]))
                    for i, j in enumerate(perm))
                if cost < best_cost:
                    best_cost = cost
                    best_pairs = list(enumerate(perm))
        else:
            for perm in itertools.permutations(range(n_p), n_g):
                cost = sum(
                    float(np.linalg.norm(pred_set[i].joints[root_index]
                                         - gt_set[j].joints[root_index]))
                    for j, i in enumerate(perm))
                if cost < best_cost:
                    best_cost = cost
                    best_pairs = [(i, j) for j, i in enumerate(perm)]
    tp = fp = fn = 0
    used_p = {i for i, _ in best_pairs}
    used_g = {j for _, j in best_pairs}
    for i, j in best_pairs:
        for k in range(gt_set[j].joints.shape[0]):
            d = float(np.linalg.norm(pred_set[i].joints[k] - gt_set[j].joints[k]))
            if d < thr:
                tp += 1
            else:
                fp += 1
                fn += 1
    for i in range(n_p):
        if i not in used_p:
            fp += pred_set[i].joints.shape[0]
    for j in range(n_g):
        if j not in used_g:
            fn += gt_set[j].joints.shape[0]
    return tp, fp, fn


def f1_loops(pred_set, gt_set, threshold_m, root_index):
    """F1 with exhaustive optimal person pairing (small sets only)."""
    tp, fp, fn = f1_counts_loops(pred_set, gt_set, threshold_m, root_index)
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    if precision + recall == 0:
        return 0.0
    return 2 * precision * recall / (precision + recall)


def trajectory_loss_grad_loops(positions, stencils):
    """Trajectory loss and gradient by explicit loops over orders, frames and
    taps.  ``stencils`` maps each order to its extrapolation weights; the
    window is their length."""
    positions = np.asarray(positions, dtype=float)
    t_count, k, _ = positions.shape
    loss = 0.0
    grad = np.zeros_like(positions)
    for order in sorted(stencils):
        weights = stencils[order]
        w = len(weights)
        for t in range(w, t_count):
            pred = np.zeros((k, 3))
            for j in range(w):
                pred += weights[j] * positions[t - w + j]
            res = positions[t] - pred
            loss += float(np.sum(res * res)) / k
            grad[t] += (2.0 / k) * res
            for j in range(w):
                grad[t - w + j] -= (2.0 / k) * weights[j] * res
    return loss, grad


def bone_loss_grad_loops(positions, bones, latents):
    """Bone-length loss and gradients by loops over frames and bones, each
    bone adding its gradient to its child and subtracting it from its
    parent in turn."""
    positions = np.asarray(positions, dtype=float)
    loss = 0.0
    grad = np.zeros_like(positions)
    grad_latents = np.zeros(len(bones))
    for t in range(positions.shape[0]):
        for i, (parent, child) in enumerate(bones):
            d = positions[t, child] - positions[t, parent]
            length = float(np.sqrt(d @ d))
            r = length - latents[i]
            loss += r * r
            g = 2.0 * r * d / max(length, 1e-12)
            grad[t, child] += g
            grad[t, parent] -= g
            grad_latents[i] -= 2.0 * r
    return loss, grad, grad_latents


def reprojection_loss_grad_loops(positions, uv, conf, cam):
    """Reprojection loss and gradient by loops over frames and joints: the
    confidence-weighted squared pixel residual of the pinhole projection,
    summed over frames and averaged over joints."""
    positions = np.asarray(positions, dtype=float)
    t_count, k, _ = positions.shape
    loss = 0.0
    grad = np.zeros_like(positions)
    for t in range(t_count):
        for j in range(k):
            x, y, z = positions[t, j]
            du = cam.fx * x / z + cam.cx - uv[t, j, 0]
            dv = cam.fy * y / z + cam.cy - uv[t, j, 1]
            loss += conf[t, j] * (du * du + dv * dv) / k
            scale = 2.0 * conf[t, j] / k
            grad[t, j] += scale * np.array([du * cam.fx / z, dv * cam.fy / z,
                                            -(du * cam.fx * x + dv * cam.fy * y) / (z * z)])
    return loss, grad


def similarity_matrix_loops(td, bu, cfg, sigma, cam=None):
    """Pose similarities one TD/BU pair at a time:
    sum_k min(c_bu[k], c_td[k]) * exp(-d_k^2 / (2 s^2 sigma_k^2)), with s
    ``cfg.fixed_scale_mm`` or the square root of the TD pose's x-y box area
    (at least 1 mm), and d in mm or, in 2D mode, in pixels projected with
    ``cam``."""
    def positions(joints):
        if cfg.distance_mode != "2d":
            return joints
        z = joints[:, 2]
        return np.stack([cam.fx * joints[:, 0] / z + cam.cx,
                         cam.fy * joints[:, 1] / z + cam.cy], axis=-1)

    sim = np.zeros((len(td), len(bu)))
    for i, p_td in enumerate(td):
        for j, p_bu in enumerate(bu):
            if cfg.fixed_scale_mm is not None:
                s = cfg.fixed_scale_mm
            else:
                ext = p_td.joints.max(axis=0) - p_td.joints.min(axis=0)
                s = max(float(np.sqrt(max(ext[0] * ext[1], 0.0))), 1.0)
            d2 = np.sum((positions(p_bu.joints) - positions(p_td.joints)) ** 2, axis=-1)
            kern = np.exp(-d2 / (2.0 * s * s * sigma * sigma))
            sim[i, j] = float(np.sum(np.minimum(p_bu.conf, p_td.conf) * kern))
    return sim


def similarity_align_pair(source, target):
    """Least-squares similarity alignment of one (N, 3) point set onto
    another, by one SVD; returns the aligned points.  Raises
    DegenerateGeometryError for rank < 2."""
    from dualpose.errors import DegenerateGeometryError

    src = np.asarray(source, dtype=np.float64)
    tgt = np.asarray(target, dtype=np.float64)
    mu_src = src.mean(axis=0)
    mu_tgt = tgt.mean(axis=0)
    src0 = src - mu_src
    tgt0 = tgt - mu_tgt
    var_src = float(np.sum(src0 * src0))
    if var_src <= 0.0:
        raise DegenerateGeometryError("source points are coincident")
    u, s, vt = np.linalg.svd(src0.T @ tgt0)
    if s[1] <= max(s[0], 1.0) * 1e-12:
        raise DegenerateGeometryError("point configuration has rank < 2")
    flip = np.ones(3)
    flip[-1] = np.sign(np.linalg.det(vt.T @ u.T))
    rot = vt.T @ np.diag(flip) @ u.T
    scale = float(np.sum(s * flip)) / var_src
    return scale * src @ rot.T + (mu_tgt - scale * rot @ mu_src)


def pa_mpjpe_pairs(preds, gts):
    """PA-MPJPE of each (pred, gt) joint-array pair, one alignment at a time."""
    return [float(np.mean(np.linalg.norm(similarity_align_pair(p, g) - g, axis=-1)))
            for p, g in zip(preds, gts)]


def bilinear_sample_point(grid, u, v):
    """Bilinear interpolation of a (H, W) grid at one pixel (u, v), in
    scalar arithmetic; the last row / column pairs with the one before it."""
    from dualpose.errors import OutOfGridError

    h, w = grid.shape
    if not (0.0 <= u <= w - 1 and 0.0 <= v <= h - 1):
        raise OutOfGridError(f"sample ({u}, {v}) outside grid {w}x{h}")
    x0 = min(int(np.floor(u)), w - 2) if w > 1 else 0
    y0 = min(int(np.floor(v)), h - 2) if h > 1 else 0
    x1 = min(x0 + 1, w - 1)
    y1 = min(y0 + 1, h - 1)
    fx = u - x0
    fy = v - y0
    top = grid[y0, x0] * (1.0 - fx) + grid[y0, x1] * fx
    bot = grid[y1, x0] * (1.0 - fx) + grid[y1, x1] * fx
    return float(top * (1.0 - fy) + bot * fy)


def extract_peaks_loops(joint_maps, theta_peak):
    """Peaks joint by joint and cell by cell: a cell strictly above its
    in-bounds 8-neighborhood and >= theta, shifted 0.25 px toward the larger
    neighbor on interior axes, ordered by (-score, v, u)."""
    results = []
    for m in joint_maps:
        h, w = m.shape
        peaks = []
        for y in range(h):
            for x in range(w):
                neighbors = [m[y + dy, x + dx]
                             for dy in (-1, 0, 1) for dx in (-1, 0, 1)
                             if (dy or dx) and 0 <= y + dy < h and 0 <= x + dx < w]
                if m[y, x] < theta_peak or any(m[y, x] <= n for n in neighbors):
                    continue
                u, v = float(x), float(y)
                if 0 < x < w - 1:
                    u += 0.25 * float(np.sign(m[y, x + 1] - m[y, x - 1]))
                if 0 < y < h - 1:
                    v += 0.25 * float(np.sign(m[y + 1, x] - m[y - 1, x]))
                peaks.append((u, v, float(m[y, x])))
        peaks.sort(key=lambda p: (-p[2], p[1], p[0]))
        results.append(peaks)
    return results


def group_by_tags_loops(peaks, tag_maps, theta_tag):
    """Greedy tag grouping with one scalar tag sample per peak; returns
    (joints (n, K, 2), conf (n, K)) of the groups in creation order."""
    k = len(peaks)
    groups = []  # [tag_sum, count, {joint: (u, v, score)}]
    for joint in range(k):
        for u, v, score in peaks[joint]:
            tag = bilinear_sample_point(tag_maps[joint], u, v)
            best, best_dist = None, None
            for g in groups:
                if joint in g[2]:
                    continue
                dist = abs(g[0] / g[1] - tag)
                if dist <= theta_tag and (best_dist is None or dist < best_dist):
                    best, best_dist = g, dist
            if best is None:
                groups.append([tag, 1, {joint: (u, v, score)}])
            else:
                best[0] += tag
                best[1] += 1
                best[2][joint] = (u, v, score)
    joints = np.zeros((len(groups), k, 2))
    conf = np.zeros((len(groups), k))
    for i, g in enumerate(groups):
        for joint, (u, v, score) in g[2].items():
            joints[i, joint] = (u, v)
            conf[i, joint] = min(max(score, 0.0), 1.0)
    return joints, conf


def decode_loops(stack, cam, skel, theta_peak, theta_tag):
    """Decode person by person: one depth read and one back-projection per
    grouped person that has a root joint.  Returns the (pose2d, root depth,
    relative depths) triples and each person's camera-centric joints."""
    from dualpose.camera import back_project
    from dualpose.heatmaps import extract_peaks, group_by_tags, retrieve_depths

    decoded, joints3d = [], []
    for pose in group_by_tags(extract_peaks(stack, theta_peak), stack.tag_maps, theta_tag):
        if pose.conf[skel.root_index] <= 0.0:
            continue
        z_root, z_rel = retrieve_depths(pose.joints, stack, skel)
        decoded.append((pose, z_root, z_rel))
        depths = z_root + np.where(pose.conf > 0.0, z_rel, 0.0)
        joints3d.append(back_project(pose.joints, depths, cam))
    return decoded, joints3d


def link_tracks_loops(frames, root_index, gate_mm):
    """Track linking with its own pairing loop: every (pose, track) option
    within the gate, sorted by (distance, pose slot, str(track id)) and
    taken nearest first."""
    from dualpose.skeleton import TrackSequence

    tracks, last_seen, next_auto = {}, {}, 0
    for frame_idx in sorted(frames):
        poses, ids = frames[frame_idx]
        unlabeled = []
        for pose, pid in zip(poses, ids):
            if pid is not None:
                if pid not in tracks:
                    tracks[pid] = TrackSequence(person_id=pid, frames={})
                tracks[pid].add(frame_idx, pose)
                last_seen[pid] = (frame_idx, pose.joints[root_index])
            else:
                unlabeled.append((len(unlabeled), pose))
        if not unlabeled:
            continue
        candidates = [(key, root) for key, (seen_at, root) in last_seen.items()
                      if seen_at == frame_idx - 1 and frame_idx not in tracks[key].frames]
        options = []
        for slot, pose in unlabeled:
            for key, track_root in candidates:
                d = float(np.linalg.norm(pose.joints[root_index] - track_root))
                if d <= gate_mm:
                    options.append((d, slot, key))
        options.sort(key=lambda item: (item[0], item[1], str(item[2])))
        placed, assigned = set(), set()
        for d, slot, key in options:
            if slot in placed or key in assigned:
                continue
            pose = unlabeled[slot][1]
            tracks[key].add(frame_idx, pose)
            last_seen[key] = (frame_idx, pose.joints[root_index])
            placed.add(slot)
            assigned.add(key)
        for slot, pose in unlabeled:
            if slot not in placed:
                key = f"auto{next_auto}"
                next_auto += 1
                tracks[key] = TrackSequence(person_id=key, frames={frame_idx: pose})
                last_seen[key] = (frame_idx, pose.joints[root_index])
    return [tracks[k] for k in sorted(tracks, key=str)]


def render_stack_loops(poses, cam, skel, width, height, sigma_px=2.0, tags=None):
    """Render person by person inside a per-joint loop, with a second pass
    over the root joint's Gaussians for the root-depth winner.  Returns the
    (joint, tag, rel-depth, root-depth) planes."""
    from dualpose.camera import project

    k, n = skel.num_joints, len(poses)
    joint_maps = np.zeros((k, height, width))
    tag_maps = np.zeros((k, height, width))
    rel_maps = np.zeros((k, height, width))
    if n == 0:
        return joint_maps, tag_maps, rel_maps, np.zeros((height, width))
    tags = [float(2 * i) for i in range(n)] if tags is None else tags
    ys, xs = np.mgrid[0:height, 0:width].astype(np.float64)
    two_sigma_sq = 2.0 * sigma_px * sigma_px
    uv_all = [project(pose.joints, cam) for pose in poses]
    root_gauss = np.zeros((n, height, width))
    for joint in range(k):
        gauss = np.empty((n, height, width))
        for i, uv in enumerate(uv_all):
            u, v = uv[joint]
            gauss[i] = np.exp(-((xs - u) ** 2 + (ys - v) ** 2) / two_sigma_sq)
            if joint == skel.root_index:
                root_gauss[i] = gauss[i]
        winner = np.argmax(gauss, axis=0)
        joint_maps[joint] = np.max(gauss, axis=0)
        tag_maps[joint] = np.array(tags)[winner]
        rel_vals = [pose.joints[joint, 2] - pose.joints[skel.root_index, 2] for pose in poses]
        rel_maps[joint] = np.array(rel_vals)[winner]
    root_vals = np.array([pose.joints[skel.root_index, 2] for pose in poses])
    return joint_maps, tag_maps, rel_maps, root_vals[np.argmax(root_gauss, axis=0)]


def fuse_frame_per_pair(match, td, bu, strategy, skel):
    """Per-pair fusion: each matched pair fused on its own, then unmatched
    TD and unmatched BU poses passed through."""
    from dualpose.skeleton import Frame, Pose3D

    def fuse(p_td, p_bu):
        if strategy.variant == "pluggable":
            return strategy.integrator(p_td, p_bu)
        if strategy.variant == "hard":
            td_root = p_td.joints[skel.root_index]
            bu_root = p_bu.joints[skel.root_index]
            new_root = np.array([td_root[0], td_root[1], bu_root[2]])
            joints = p_td.joints - td_root + new_root
        elif strategy.variant == "linear":
            w_td = p_td.conf[:, None]
            w_bu = p_bu.conf[:, None]
            denom = w_td + w_bu
            fallback = p_td.joints if float(np.mean(p_td.conf)) >= float(np.mean(p_bu.conf)) \
                else p_bu.joints
            joints = np.where(
                denom > 0.0,
                (w_td * p_td.joints + w_bu * p_bu.joints) / np.where(denom > 0.0, denom, 1.0),
                fallback,
            )
        else:
            a = strategy.alpha
            joints = a * p_td.joints + (1.0 - a) * p_bu.joints
        conf = np.maximum(p_td.conf, p_bu.conf)
        return Pose3D(joints=joints, conf=conf, frame=Frame.CAMERA_CENTRIC)

    out = [fuse(td[i], bu[j]) for i, j, _ in match.pairs]
    out.extend(td[i] for i in match.unmatched_td)
    out.extend(bu[j] for j in match.unmatched_bu)
    return out
