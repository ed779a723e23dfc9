"""Low-bit quantization of embedding networks with data-free distillation.

The pipeline: pretrain a full-precision teacher on labeled synthetic
identities, quantize it to 4/6/8-bit with quantization-aware training
(fake quantization + straight-through gradients), recover accuracy by
matching the teacher's normalized embeddings on unlabeled synthetic data,
and evaluate with verification-style metrics.
"""

from .bench_eval import (
    PairSet,
    RangeCorrelationReport,
    VerificationReport,
    build_pairs,
    range_correlation,
    verify,
)
from .distiller import DistillConfig, KDBatchResult, calibrate, finetune, kd_loss, prepare_student
from .errors import (
    ConfigError,
    DimensionError,
    DomainError,
    FormatError,
    QuantDistillError,
    StateError,
)
from .graph import (
    EmbeddingNet,
    GradTape,
    Linear,
    build_embedding_net,
    clone_net,
    fake_quant,
    forward_embed,
    sgd_step,
)
from .model_store import SizeReport, load_model, net_size_report, save_model, size_report
from .quantizer import (
    QuantParams,
    QuantizedTensor,
    RangeObserver,
    dequantize,
    derive_params,
    quantize,
)
from .synth import Batch, IdentitySpace, make_identity_space, sample_labeled, sample_unlabeled
from .tensor_core import Tensor, l2_normalize, matmul, relu

__version__ = "0.1.0"
