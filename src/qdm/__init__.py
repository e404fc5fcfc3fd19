"""Exact quantum cohomology D-modules of smooth complete toric varieties.

The pipeline: a fan (rays + maximal cones) determines a charge matrix and a
Mori cone; the cohomology ring is an explicit graded quotient; the series of
stabilized Euler-class ratios is assembled degree by degree; differential
operators in theta_j = hbar q_j d/dq_j that annihilate it are found by an
exact nullspace search, and their hbar -> 0 symbols give quantum-ring
relations.  A finite-dimensional loop model reproduces the same ratios from
critical-component mode intervals and stabilizes once the mode cutoff is
large enough.  All arithmetic is exact.

Each layer module is loaded on first use: importing the package puts every
layer in sys.modules as a lazy module, whose source is compiled and run when
one of its attributes is first read.  So a process compiles only the layers
it runs (a `cohomology` report never compiles dmodule, ifunction or
loop_model), and the exported names below resolve through __getattr__.
"""

import importlib.util
import sys

# Layer -> the names the package exports from it, in __all__ order.
_EXPORTS = {
    "toric": ("FanData", "ChargeMatrix", "MoriCone", "FanError", "NefBasisError",
              "make_fan", "parse_fan", "charge_matrix", "mori_generators",
              "enumerate_degrees", "in_cone", "wall_relations"),
    "cohomology": ("CohomRing", "CohomClass", "build_ring", "monomials"),
    "ifunction": ("Series", "euler_ratio", "check_ratio", "build_f", "component"),
    "dmodule": ("DiffOp", "EmptyWindowError", "apply",
                "gkz_operator", "find_annihilators", "semiclassical"),
    "loop_model": ("CriticalData", "ComponentAbsentError", "critical_component",
                   "euler_ratio_n", "check_stabilization"),
}
_HOME = {name: layer for layer, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)

__version__ = "0.1.0"


def _lazy(layer):
    """The layer's module, in sys.modules but not yet run."""
    spec = importlib.util.find_spec(__name__ + "." + layer)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


linalg, toric, cohomology, ifunction, dmodule, loop_model, serialize = map(
    _lazy, ("linalg", "toric", "cohomology", "ifunction", "dmodule", "loop_model",
            "serialize"))


def __getattr__(name):
    """An exported name, read from its layer (so loading it) on first use."""
    layer = _HOME.get(name)
    if layer is None:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    value = globals()[name] = getattr(globals()[layer], name)
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
