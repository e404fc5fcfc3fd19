"""Exact quantum cohomology D-modules of smooth complete toric varieties.

The pipeline: a fan (rays + maximal cones) determines a charge matrix and a
Mori cone; the cohomology ring is an explicit graded quotient; the series of
stabilized Euler-class ratios is assembled degree by degree; differential
operators in theta_j = hbar q_j d/dq_j that annihilate it are found by an
exact nullspace search, and their hbar -> 0 symbols give quantum-ring
relations.  A finite-dimensional loop model reproduces the same ratios from
critical-component weight systems and stabilizes once the mode cutoff is
large enough.  All arithmetic is exact.
"""

from .toric import (FanData, ChargeMatrix, FanError, NefBasisError, make_fan,
                    parse_fan, charge_matrix, mori_generators,
                    enumerate_degrees, in_cone, wall_relations)
from .cohomology import CohomRing, CohomClass, build_ring, monomials
from .ifunction import (Series, StrictSignError, euler_ratio, check_ratio, build_f,
                        component)
from .dmodule import (DiffOp, QuantumRelation, EmptyWindowError, apply,
                      gkz_operator, find_annihilators, semiclassical)
from .loop_model import (WeightSystem, CriticalData, ComponentAbsentError,
                         action_value, min_modes, critical_component,
                         euler_ratio_n, check_stabilization)

__all__ = [
    "FanData", "ChargeMatrix", "FanError", "NefBasisError", "make_fan",
    "parse_fan", "charge_matrix", "mori_generators",
    "enumerate_degrees", "in_cone", "wall_relations",
    "CohomRing", "CohomClass", "build_ring", "monomials",
    "Series", "StrictSignError", "euler_ratio", "check_ratio",
    "build_f", "component",
    "DiffOp", "QuantumRelation", "EmptyWindowError", "apply",
    "gkz_operator", "find_annihilators", "semiclassical",
    "WeightSystem", "CriticalData", "ComponentAbsentError", "action_value",
    "min_modes", "critical_component", "euler_ratio_n", "check_stabilization",
]

__version__ = "0.1.0"
