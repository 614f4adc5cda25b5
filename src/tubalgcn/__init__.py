"""Spatial-temporal graph convolution over dynamic graphs via the tensor
M-product, with interchangeable DFT/DCT/Haar temporal transforms and
their ensemble, trained end-to-end for link-weight estimation.

The public API is the union of the modules' ``__all__`` lists."""

from .tensor3 import *
from .transforms import *
from .gtcn import *
from .head_loss import *
from .data import *
from .training import *

__version__ = "0.1.0"
