"""Two-stream pyramid cross-fusion transformer for facial expression
recognition, built on an in-package reverse-mode autodiff tensor core."""

from .attention import MsaParams, mhsa
from .data import FeatureDataset, gen_clusters, gen_xor, read_features, write_features
from .encoder import StreamBlockParams, block, drop_path, stack_forward
from .metrics import EvalReport, build_report, confusion_matrix, mean_class_accuracy, overall_accuracy
from .model import ModelConfig, ModelParams, build_params, count_params, estimate_flops, forward
from .tensor import LinearParams, Tensor, finite_diff_check, leaf_grads
from .training import TrainConfig, adam_step, evaluate, label_smoothing_ce, train_loop

__version__ = "0.1.0"
