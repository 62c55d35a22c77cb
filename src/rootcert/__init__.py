"""Certify or falsify root-location preservation by linear operators on polynomials."""

from .domains import MoebiusDomain, RegionClass, RegionTag, preset
from .errors import (AllImagesZero, DegenerateMoebius, DegenerateSample,
                     DegreeOutOfRange, HorizonError, NonConvergence, ParseError,
                     RootCertError, RootFindingFailed, UnknownPreset, ZeroInput,
                     ZeroOperator, ZeroPolynomial)
from .operators import LinearOperator, RankOneForm
from .poly import (BiPoly, Poly, RootMultiset, approx_gcd, from_roots, roots,
                   roots_batch)
from .symbols import (NonvanishingResult, ZeroWitness, base_symbol,
                      nonvanishing_check, operator_symbol)

__all__ = [
    "AllImagesZero", "BiPoly", "DegenerateMoebius", "DegenerateSample",
    "DegreeOutOfRange", "HorizonError", "LinearOperator", "MoebiusDomain",
    "NonConvergence", "NonvanishingResult", "ParseError", "Poly",
    "RankOneForm", "RegionClass", "RegionTag", "RootCertError",
    "RootFindingFailed", "RootMultiset", "UnknownPreset", "ZeroInput",
    "ZeroOperator", "ZeroPolynomial", "ZeroWitness", "approx_gcd",
    "base_symbol", "from_roots", "nonvanishing_check",
    "operator_symbol", "preset", "roots", "roots_batch",
]
