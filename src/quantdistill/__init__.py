"""Low-bit quantization of embedding networks with data-free distillation.

The pipeline: pretrain a full-precision teacher on labeled synthetic
identities, quantize it to 4/6/8-bit with quantization-aware training
(fake quantization + straight-through gradients), recover accuracy by
matching the teacher's normalized embeddings on unlabeled synthetic data,
and evaluate with verification-style metrics.

The package re-exports nothing: import its modules by name
(``from quantdistill import graph``).
"""

__version__ = "0.1.0"
