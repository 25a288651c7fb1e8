"""Multi-scale action segmentation transformer, offline and causal/online."""

from .attention import (
    WindowSpec,
    sliding_window_attention,
    window_schedule,
)
from .data import (
    DatasetManifest,
    SynthConfig,
    VideoSample,
    generate_synthetic,
    load_manifest,
    load_split,
    read_feature_file,
    validate_dataset,
    write_dataset,
    write_feature_file,
)
from .errors import (
    ConfigError,
    DataError,
    FileFormatError,
    ModeError,
    MsastError,
    NumericError,
    ShapeError,
)
from .metrics import (
    EvalReport,
    Segment,
    aggregate,
    confusion_matrix,
    edit_score,
    emit_ribbon,
    evaluate_video,
    f1_at_overlap,
    f1_avg,
    frame_metrics,
    segments_from_labels,
)
from .model import (
    Model,
    ModelConfig,
    StageOutputs,
    StreamState,
    alpha_schedule,
    build_model,
    forward_full,
    forward_stream,
    multiscale_fuse,
    predict,
)
from .numerics import Parameter, Tensor, finite_diff_check, no_grad
from .training import (
    AdamState,
    TrainConfig,
    TrainingHistory,
    adam_step,
    cross_entropy_loss,
    load_checkpoint,
    save_checkpoint,
    smoothing_loss,
    total_loss,
    train,
)

__all__ = [name for name in dir() if not name.startswith("_")]
