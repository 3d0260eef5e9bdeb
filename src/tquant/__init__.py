"""Ternary quantization, 8-bit activations, and distillation-aware training
for a desk-scale transformer encoder."""

from .tensor import GradTape, Tensor
from .ternarize import (TernaryTensor, dequantize, laq3, lat_subproblem, quantize,
                        twn_approx, twn_exact)
from .actquant import quantize_minmax, quantize_symmetric
from .packed import load_model, pack, save_model, unpack
from .qkernels import GemmPlan, ternary_gemm
from .model import (ModelConfig, QuantPlan, SizeReport, bert_base_config, forward,
                    plan_from_notation, size_report)
from .train import DistillLossConfig, OptimizerConfig, TrainState, run_training

__version__ = "0.1.0"

__all__ = [
    "GradTape", "Tensor",
    "TernaryTensor", "dequantize", "laq3", "lat_subproblem", "quantize",
    "twn_approx", "twn_exact",
    "quantize_minmax", "quantize_symmetric",
    "load_model", "pack", "save_model", "unpack",
    "GemmPlan", "ternary_gemm",
    "ModelConfig", "QuantPlan", "SizeReport", "bert_base_config", "forward",
    "plan_from_notation", "size_report",
    "DistillLossConfig", "OptimizerConfig", "TrainState", "run_training",
]
