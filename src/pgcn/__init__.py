"""Parallel graph convolutional networks over population graphs.

Builds one affinity graph per metadata element, runs a two-layer
spectral graph convolution branch on each, and fuses the branch logits
through a trainable ranking layer whose scalar weights expose how much
each graph contributes to the prediction.  Includes the full
transductive training loop, gradient verification against finite
differences, and a stratified Monte-Carlo evaluation harness with
paired significance tests.
"""

from .crossval import Arm, ArmResult, Comparison, CvReport, cross_validate
from .data import Dataset, load_dataset, synth_generate, write_dataset
from .errors import (
    ConfigError,
    ConsistencyError,
    DataError,
    DegenerateInputError,
    ParameterError,
    PgcnError,
    ShapeError,
)
from .experiments import (
    ExperimentConfig,
    RankSummary,
    build_arm_graphs,
    load_experiment_config,
    rank_report,
    render_rank_report,
    run_experiment,
)
from .graphs import (
    AffinityGraph,
    MetaColumn,
    build_affinity,
    build_edges,
    build_graph,
    load_edge_list,
    normalize,
    random_graph,
    save_edge_list,
    similarity_matrix,
)
from .linalg import SparseSymMatrix, matmul, relu, softmax_rows, spmm
from .model import (
    ForwardCache,
    ModelParams,
    backward,
    branch_forward,
    forward,
    init_params,
    load_checkpoint,
    propagate,
    rank_combine,
    save_checkpoint,
)
from .stats import SplitPlan, accuracy, auc, paired_t_test, stratified_mc_split
from .training import (
    AdamState,
    EpochRecord,
    TrainConfig,
    TrainHistory,
    adam_step,
    grad_check,
    init_adam_state,
    loss,
    train,
)

__version__ = "0.1.0"
