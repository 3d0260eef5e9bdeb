"""Ternary quantization, 8-bit activations, and distillation-aware training
for a desk-scale transformer encoder."""

from .tensor import GradTape, Tensor
from .ternarize import (TernaryTensor, dequantize, laq3, lat_subproblem, quantize,
                        twn_approx, twn_exact)
from .actquant import quantize_minmax, quantize_symmetric
from .packed import SizeReport, load_model, pack, save_model, size_report, unpack
from .qkernels import GemmPlan, ternary_gemm
from .model import ModelConfig, QuantPlan, bert_base_config, forward, plan_from_notation
from .train import DistillLossConfig, OptimizerConfig, TrainState, run_training

__version__ = "0.1.0"

__all__ = [
    "GradTape", "Tensor",
    "TernaryTensor", "dequantize", "laq3", "lat_subproblem", "quantize",
    "twn_approx", "twn_exact",
    "quantize_minmax", "quantize_symmetric",
    "SizeReport", "load_model", "pack", "save_model", "size_report", "unpack",
    "GemmPlan", "ternary_gemm",
    "ModelConfig", "QuantPlan", "bert_base_config", "forward", "plan_from_notation",
    "DistillLossConfig", "OptimizerConfig", "TrainState", "run_training",
]
