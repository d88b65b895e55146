"""Quality-aware multi-centroid one-class learning on embedding vectors."""

__version__ = "0.1.0"

from .data import (  # noqa: F401
    BONAFIDE,
    SPOOF,
    Dataset,
    QualityPolicy,
    SyntheticSpec,
    benchmark_spec,
    generate_synthetic,
    load_jsonl,
    quality_label,
    save_jsonl,
)
from .losses import (  # noqa: F401
    Batch,
    LossHyper,
    LossOutput,
    combined_loss,
    margin_one_class_loss,
    oc_softmax_loss,
    quality_loss,
    wce_loss,
    wce_quality_loss,
)
from .model import (  # noqa: F401
    BinaryHead,
    CentroidBank,
    Checkpoint,
    Encoder,
    init_centroids,
    init_encoder,
    load_checkpoint,
    save_checkpoint,
)
from .numerics import make_rng  # noqa: F401
from .scoring import compute_eer, score, score_dataset  # noqa: F401
from .training import TrainConfig, train  # noqa: F401
