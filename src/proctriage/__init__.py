"""Process-list triage toolkit.

Parse host process listings, reduce them to three features (process
count, distinct user count, and their ratio), and classify the
submitting environment as a production host or an instrumented sandbox
with either a small decision tree or a small neural network.  Ships
with a statistics-matched synthetic data generator, full evaluation
metrics, a collection/classification HTTP service, and a command line.
"""
from .ann import (
    AnnConfig,
    LossHistory,
    NeuralNetModel,
    ann_from_dict,
    ann_to_dict,
    bce_loss,
    forward,
    gradient_check,
    init_network,
    predict_ann,
    sigmoid,
    train_ann,
)
from .datagen import (
    SAFE_PROFILE,
    UNSAFE_PROFILE,
    ClassProfile,
    FeatureProfile,
    GenConfig,
    generate_dataset,
    generate_process_list,
)
from .dtree import (
    DecisionTreeModel,
    TreeConfig,
    TreeNode,
    best_split,
    export_tree,
    gini,
    predict_proba,
    predict_tree,
    train_tree,
    tree_from_dict,
    tree_to_dict,
)
from .errors import (
    DatasetTooSmall,
    EmptyListing,
    EmptyNode,
    LengthMismatch,
    MalformedDatasetFile,
    MalformedRow,
    ModelFormatError,
    TriageError,
    UnrecognizedFormat,
)
from .features import (
    FEATURE_NAMES,
    FeatureVector,
    Label,
    LabeledDataset,
    LabeledSample,
    ScalerParams,
    compute_stats,
    dataset_from_csv,
    dataset_to_csv,
    featurize,
    featurize_text,
    fit_scaler,
    format_stats,
    load_dataset,
    save_dataset,
    split_dataset,
)
from .metrics import (
    accuracy,
    aggregate_metrics,
    class_metrics,
    confusion,
    evaluate_predictions,
    format_report,
    regression_errors,
)
from .proclist import (
    ProcessEntry,
    ProcessList,
    detect_format,
    parse_process_list,
    serialize_process_list,
)
from .service import (
    SampleRecord,
    SampleStore,
    Service,
    ServiceConfig,
    make_server,
    run_service,
)

__version__ = "0.1.0"

__all__ = [
    "AnnConfig", "LossHistory", "NeuralNetModel", "ann_from_dict", "ann_to_dict",
    "bce_loss", "forward", "gradient_check", "init_network", "predict_ann",
    "sigmoid", "train_ann",
    "SAFE_PROFILE", "UNSAFE_PROFILE", "ClassProfile", "FeatureProfile",
    "GenConfig", "generate_dataset", "generate_process_list",
    "DecisionTreeModel", "TreeConfig", "TreeNode", "best_split", "export_tree",
    "gini", "predict_proba", "predict_tree", "train_tree", "tree_from_dict",
    "tree_to_dict",
    "DatasetTooSmall", "EmptyListing", "EmptyNode", "LengthMismatch",
    "MalformedDatasetFile", "MalformedRow", "ModelFormatError", "TriageError",
    "UnrecognizedFormat",
    "FEATURE_NAMES", "FeatureVector", "Label", "LabeledDataset", "LabeledSample",
    "ScalerParams", "compute_stats", "dataset_from_csv", "dataset_to_csv",
    "featurize", "featurize_text", "fit_scaler", "format_stats", "load_dataset",
    "save_dataset", "split_dataset",
    "accuracy", "aggregate_metrics", "class_metrics", "confusion",
    "evaluate_predictions", "format_report", "regression_errors",
    "ProcessEntry", "ProcessList", "detect_format", "parse_process_list",
    "serialize_process_list",
    "SampleRecord", "SampleStore", "Service", "ServiceConfig", "make_server",
    "run_service",
    "__version__",
]
