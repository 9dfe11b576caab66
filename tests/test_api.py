"""The public surface: srtd exports what the solver and the CLI run, and
the test oracles live in ``oracles.py``, not in the package."""

import dataclasses
import importlib
import pkgutil

import srtd

# Reference routes and tools that only tests call, the unused full-spectrum
# DFT pair with its error class and limit, the helpers that no srtd code
# called, and the outer loop's factors, product and objective.
_NOT_IN_SRTD = (
    "Matrix", "_require_same_dims", "unfold", "fold", "bcirc", "identity_tensor",
    "inner_product", "ttrace",
    "TSvdFactors", "tsvd", "tnn_via_tsvd", "ttnn", "tubal_rank", "trace_bound_check",
    "_SV_ATOL", "truncate_factors",
    "dft_mode3", "idft_mode3", "IMAG_RESIDUE_LIMIT", "SpectralTensor3",
    "SpectralConsistencyError",
    "tproduct", "trace_pair", "ttranspose", "l1_norm",
    "soft_threshold", "sampling_rate", "apply_mask",
    "tnn", "tsvd_leading", "spectral_product", "_irfft_rows", "_surrogate", "_check_state",
)

_PUBLIC = [
    "DimensionError", "DivergenceError", "FormatError", "ObservationMask", "ParameterError",
    "SolveReport", "SolverConfig", "SolverState", "SrtdError", "Tensor3", "__version__",
    "admm_solve", "dct3", "fro_norm", "idct3", "load_image", "load_video", "mask_from_image",
    "psnr", "random_mask", "save_image", "srtd_complete", "svt",
]


def test_public_api_is_the_solver_surface():
    assert sorted(srtd.__all__) == _PUBLIC
    for name in srtd.__all__:
        getattr(srtd, name)
    modules = [srtd] + [importlib.import_module(f"srtd.{info.name}")
                        for info in pkgutil.iter_modules(srtd.__path__)]
    for module in modules:
        present = [name for name in _NOT_IN_SRTD if hasattr(module, name)]
        assert present == [], f"{module.__name__} still has {present}"


def test_solver_state_fields():
    # a direct admm_solve's state between sweeps: x, the next SVT's
    # argument, the duals, mu, and what the last call measured
    assert [f.name for f in dataclasses.fields(srtd.SolverState)] == [
        "x", "arg", "y", "z", "mu", "inner_iter", "change", "residuals", "l1"]
