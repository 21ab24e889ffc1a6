"""Exact structural analysis of finite-dimensional evolution algebras over Q."""

from .algebra import BasicIdeal, EvolutionAlgebra, support
from .analysis import (
    CentroidBasis,
    PrimeIdealsResult,
    Verdict3,
    absorption,
    centroid,
    decompose,
    degeneracy,
    has_absorption,
    is_absolute_zero_divisor,
    is_zero_annihilator,
    prime,
    prime_ideals,
    semiprime,
    vn_algebra,
    vn_element,
)
from .errors import EngineLimitError
from .exactla import Mat, Rat, Subspace, Vec, kernel_basis, rat, rref, solve, vec
from .graph import DiGraph, SinkStrata

__version__ = "0.1.0"

__all__ = [
    "BasicIdeal",
    "CentroidBasis",
    "DiGraph",
    "EngineLimitError",
    "EvolutionAlgebra",
    "Mat",
    "PrimeIdealsResult",
    "Rat",
    "SinkStrata",
    "Subspace",
    "Vec",
    "Verdict3",
    "absorption",
    "centroid",
    "decompose",
    "degeneracy",
    "has_absorption",
    "is_absolute_zero_divisor",
    "is_zero_annihilator",
    "kernel_basis",
    "prime",
    "prime_ideals",
    "rat",
    "rref",
    "semiprime",
    "solve",
    "support",
    "vec",
    "vn_algebra",
    "vn_element",
]
