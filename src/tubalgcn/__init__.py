"""Spatial-temporal graph convolution over dynamic graphs via the tensor
M-product, with interchangeable DFT/DCT/Haar temporal transforms and
their ensemble, trained end-to-end for link-weight estimation."""

from .tensor3 import DimensionMismatchError, facewise_product, m_product, m_transform
from .transforms import (
    TransformMatrix,
    build_dct,
    build_dft,
    build_haar,
    build_identity,
    build_transform,
)
from .gtcn import (
    TubeAdjacency,
    layer_backward,
    layer_forward,
    preprocess_adjacency,
    preprocess_tubes,
    transformed_blocks,
)
from .head_loss import head_scores, loss, mae, predict, rmse
from .data import (
    DynamicGraphDataset,
    SynthSpec,
    build_adjacency,
    build_tube_adjacency,
    generate_synthetic,
    parse_dataset,
    serialize_dataset,
    split_dataset,
)
from .training import (
    EarlyStopping,
    TrainConfig,
    adam_step,
    compute_gradients,
    grad_check,
    init_params,
    train,
)

__version__ = "0.1.0"
