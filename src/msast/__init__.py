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
    ResourceError,
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
    f1_avg,
    per_video_summary,
    segments_from_labels,
)
from .model import (
    Model,
    ModelConfig,
    StageOutputs,
    StreamState,
    alpha_schedule,
    build_model,
    check_input,
    forward_full,
    forward_stream,
    predict,
)
from .numerics import Parameter, Tensor, no_grad
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
