"""End-to-end run on synthetic files plus the evaluation report.

The same chain is available from the command line:

    dualpose synth --config config.json --out scene/
    dualpose run --config config.json --out out/ scene/td.jsonl scene/bu.jsonl \
        --gt scene/gt.jsonl --obs scene/obs.jsonl
"""
import pathlib
import tempfile

from dualpose import RunConfig, run_pipeline
from dualpose.frames_io import poses_to_record, write_frames
from dualpose.metrics import evaluate_frames
from dualpose.skeleton import default_skeleton
from dualpose.synth import benchmark_camera, generate, make_benchmark_spec

skel = default_skeleton()
spec = make_benchmark_spec(seed=1, num_frames=60)
data = generate(spec, benchmark_camera(), skel)
ids = list(range(spec.num_persons))
gt_frames = data.gt_frames()

with tempfile.TemporaryDirectory(prefix="dualpose_demo_") as tmp:
    workdir = pathlib.Path(tmp)
    paths = {}
    for name, frames in (("gt", gt_frames), ("td", data.noisy_td),
                         ("bu", data.noisy_bu), ("obs", data.obs_2d)):
        paths[name] = workdir / f"{name}.jsonl"
        write_frames([poses_to_record(t, name, frames[t], ids)
                      for t in range(spec.num_frames)], paths[name])
    print("scene files in", workdir)

    config = RunConfig.from_dict({"tto": {"iters_per_stage": 200}})
    result = run_pipeline(config, paths["td"], bu_path=paths["bu"],
                          gt_path=paths["gt"], obs_path=paths["obs"])

fused = [rec.persons for rec in result.fused_records]
before = evaluate_frames(fused, gt_frames, skel)
after = result.report

print(f"{'':12} {'fused input':>12} {'refined':>12}")
print(f"{'MPJPE mm':12} {before.mpjpe_mm:12.2f} {after.mpjpe_mm:12.2f}")
print(f"{'PA-MPJPE mm':12} {before.pa_mpjpe_mm:12.2f} {after.pa_mpjpe_mm:12.2f}")
print(f"{'PCK %':12} {before.pck:12.2f} {after.pck:12.2f}")
print(f"{'PCK_abs %':12} {before.pck_abs:12.2f} {after.pck_abs:12.2f}")
print(f"{'AUC_rel %':12} {before.auc_rel:12.2f} {after.auc_rel:12.2f}")
print(f"{'AP_root %':12} {before.ap_root:12.2f} {after.ap_root:12.2f}")
for t in sorted(after.f1_at):
    print(f"{'F1@' + str(t) + 'm':12} {before.f1_at[t]:12.3f} {after.f1_at[t]:12.3f}")
print("persons matched / missed / extra:",
      after.matched_persons, after.missed_persons, after.extra_persons)
