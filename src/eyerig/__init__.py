"""eyerig: behavioral labels in, eye-region control sequences and keypoints out."""
from __future__ import annotations

from .channels import (
    AU_NAMES,
    CHANNEL_NAMES,
    GAZE_NAMES,
    HEAD_NAMES,
    ControlSequence,
    ValidationReport,
    load_controls_csv,
    resample_sequence,
    save_controls_csv,
    validate_control_state,
    validate_sequence,
)
from .mapper import (
    KEYPOINT_LAYOUT,
    DeformationModel,
    KeypointSequence,
    default_model,
    load_keypoints_json,
    map_sequence,
    save_keypoints_json,
)
from .library import (
    NeutralBaseline,
    Prototype,
    PrototypeLibrary,
    baseline_from_model,
    build_library,
    invert_controls,
    load_library,
    query,
    save_library,
)
from .planner import (
    CATEGORIES,
    Plan,
    StagedEvent,
    load_template_table,
    plan,
    signature_aus,
    signature_channels,
)
from .composer import compose
from .critic import (
    CriticReport,
    RefineResult,
    RuleSet,
    check_physiology,
    check_semantic,
    critique,
    refine,
)
from .guidance import (
    GuidanceField,
    GuidanceParams,
    guidance_field,
    load_guidance_ogf1,
    save_guidance_ogf1,
    temporal_weight,
)
from .objectives import (
    KtoManifest,
    fm_loss,
    fm_loss_grad,
    kto_loss,
    kto_manifest_loss,
    load_kto_manifest,
    save_kto_manifest,
)
from .metrics import (
    F1Score,
    MetricConfig,
    au_f1,
    au_temp,
    dtw,
    eye_lmd,
    load_metric_config,
)
from .demo import build_demo_library
from .config import PipelineConfig, load_pipeline_config

__version__ = "0.1.0"
