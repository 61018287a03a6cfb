"""Recursive kernel learning of norm-bounded multi-layer networks."""

__version__ = "0.1.0"

from .activation import (  # noqa: F401
    Activation,
    CapacityReport,
    LogValue,
    builtin_activation,
    check_shape,
    compute_F,
    compute_H,
)
from .kernel import (  # noqa: F401
    GramMatrix,
    KernelStack,
    TruncatedFeatureMap,
    feature_map,
    gram,
    kernel_eval,
)
from .network import (  # noqa: F401
    HalfspaceFamily,
    NeuralNet,
    build_hardness_net,
    embed_quadratic,
    eval_halfspaces,
    forward,
    random_net,
    validate,
)
from .solver import (  # noqa: F401
    OneVsAllPredictor,
    SolveReport,
    TrainConfig,
    make_loss,
    project,
    sample_size,
    train,
    train_multiclass,
)
from .data import (  # noqa: F401
    FeatureDataset,
    ImageDataset,
    deskew,
    make_variant,
    preprocess,
    read_idx,
    write_idx,
)
