"""Third-order tensor completion via truncated tensor nuclear norm
minimization with DCT-domain sparse regularization, built on the t-product."""

from .errors import (
    DimensionError,
    DivergenceError,
    FormatError,
    ParameterError,
    SrtdError,
)
from .tensor_core import Tensor3, fro_norm, l1_norm, ttranspose
from .transforms import dct3, idct3
from .t_algebra import svt, tnn, tproduct, trace_pair
from .solver import (
    SolveReport,
    SolverConfig,
    SolverState,
    admm_solve,
    soft_threshold,
    srtd_complete,
)
from .evalkit import (
    ObservationMask,
    apply_mask,
    mask_from_image,
    psnr,
    random_mask,
    sampling_rate,
)
from .pnm import load_image, load_video, save_image

__version__ = "0.1.0"

__all__ = [
    "Tensor3", "ObservationMask",
    "SolverConfig", "SolverState", "SolveReport",
    "SrtdError", "DimensionError", "ParameterError", "FormatError", "DivergenceError",
    "ttranspose", "fro_norm", "l1_norm",
    "dct3", "idct3",
    "tproduct", "tnn", "trace_pair", "svt",
    "soft_threshold", "admm_solve", "srtd_complete",
    "random_mask", "mask_from_image", "sampling_rate", "apply_mask", "psnr",
    "load_image", "save_image", "load_video",
    "__version__",
]
