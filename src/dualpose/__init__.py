"""Dual-source multi-person 3D pose toolkit.

Non-neural core of a camera-centric pose pipeline: heatmap encoding and
decoding, cross-source pose matching and fusion, semi-supervised
consistency losses, test-time sequence refinement, and evaluation metrics,
plus a synthetic-scene harness and file formats tying them together.
"""

from .camera import CameraIntrinsics, back_project, project, project_pose, rotate_about_y
from .errors import (
    BehindCameraError,
    DegenerateGeometryError,
    DomainError,
    DualPoseError,
    FrameMismatchError,
    InsufficientHistoryError,
    MisalignedFramesError,
    NumericFailureError,
    OutOfGridError,
    SchemaError,
    ScorerContractError,
)
from .frames_io import (
    FrameRecord,
    RunConfig,
    load_config,
    poses_to_record,
    read_frames,
    save_config,
    write_frames,
)
from .fusion import (
    FusionStrategy,
    PlausibilityScorers,
    corrupt_pair,
    discriminator_loss,
    discriminator_score,
    fuse_frame,
    fuse_pair,
    reference_scorers,
)
from .heatmaps import (
    HeatmapStack,
    decode_poses,
    decode_stack,
    extract_peaks,
    group_by_tags,
    read_stack,
    render_stack,
    retrieve_depths,
    write_stack,
)
from .matching import MatchConfig, MatchResult, match_sets, oks, pose_similarity
from .metrics import (
    MetricReport,
    MetricThresholds,
    ap_root,
    auc_rel,
    evaluate_frames,
    f1_at,
    mpjpe,
    pa_mpjpe,
    pck,
    pck_abs,
)
from .pipeline import PipelineResult, run_pipeline
from .skeleton import (
    Frame,
    Pose2D,
    Pose3D,
    SkeletonSpec,
    TrackSequence,
    bone_lengths,
    default_skeleton,
    rest_pose,
    to_camera_centric,
    to_person_centric,
)
from .ssl_losses import (
    Lifter,
    SslWeightState,
    multi_perspective_loss,
    offset_lifter,
    oracle_lifter,
    reprojection_loss,
    ssl_total,
    ssl_weights,
)
from .synth import MotionSpec, SceneData, SceneSpec, generate, make_benchmark_spec
from .tto import TtoConfig, TtoState, bone_loss, fit_trajectory, optimize, tto_loss, trajectory_loss

__version__ = "0.1.0"
