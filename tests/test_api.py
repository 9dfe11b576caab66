"""The public surface: srtd exports what the solver and the CLI run, and
the test oracles live in ``oracles.py``, not in the package."""

import importlib
import pkgutil

import srtd

# Reference routes that only tests call, and the unused full-spectrum DFT
# pair with its error class and limit.
_NOT_IN_SRTD = (
    "Matrix", "_require_same_dims", "unfold", "fold", "bcirc", "identity_tensor",
    "inner_product", "ttrace",
    "TSvdFactors", "tsvd", "tnn_via_tsvd", "ttnn", "tubal_rank", "trace_bound_check",
    "_SV_ATOL", "truncate_factors",
    "dft_mode3", "idft_mode3", "IMAG_RESIDUE_LIMIT", "SpectralTensor3",
    "SpectralConsistencyError",
)


def test_public_api_is_the_solver_surface():
    for name in srtd.__all__:
        getattr(srtd, name)
    modules = [srtd] + [importlib.import_module(f"srtd.{info.name}")
                        for info in pkgutil.iter_modules(srtd.__path__)]
    for module in modules:
        present = [name for name in _NOT_IN_SRTD if hasattr(module, name)]
        assert present == [], f"{module.__name__} still has {present}"
