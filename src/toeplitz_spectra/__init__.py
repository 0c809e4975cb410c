"""Toeplitz symbols: factorization, spectra, structured inversion, decay laws."""

from . import errors
from .symbol_core import (
    TrigSymbol,
    RootSet,
    SpectralFactorization,
    fourier_coeffs,
    laurent_roots,
    partial_fractions,
    symbol_from_spec,
    wiener_hopf_factor,
)
from .toeplitz_core import (
    ToeplitzMatrix,
    build,
    dense_det,
    dense_invert,
    dump_csv,
    matvec,
)

__all__ = [
    "errors",
    "TrigSymbol",
    "RootSet",
    "SpectralFactorization",
    "fourier_coeffs",
    "laurent_roots",
    "partial_fractions",
    "symbol_from_spec",
    "wiener_hopf_factor",
    "ToeplitzMatrix",
    "build",
    "dense_det",
    "dense_invert",
    "dump_csv",
    "matvec",
]
