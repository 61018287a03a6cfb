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
    kernel_matrix,
)
from .network import (  # noqa: F401
    HalfspaceFamily,
    NeuralNet,
    build_hardness_net,
    embed_quadratic,
    forward,
    forward_many,
    random_net,
)
from .solver import (  # noqa: F401
    OneVsAllPredictor,
    SolveReport,
    TrainConfig,
    make_loss,
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
