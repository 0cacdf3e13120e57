"""midconv: middle convolution on local monodromy data, exactly.

The package computes the Katz transformation on semisimple local
monodromy data for rank-r local systems on the n-punctured projective
line, runs the rank-reduction loop, classifies moduli-space dimensions,
verifies the transformation numerically through explicit twisted-
homology matrices, and constructs degree-zero cyclotomic parabolic
Higgs bundles in the nonnegative-defect range.
"""

from .divisors import EigDivisor, MonodromyVector
from .errors import MidconvError
from .higgs import (Arrangement, HiggsData, construct, good_arrangement,
                    parabolic_degree)
from .katz import (AlgorithmTrace, ConventionReport, Convoluter,
                   EmptinessCertificate, NoneffectiveReport, TerminalStatus,
                   check_conventions, check_involution, defect, detect_empty,
                   kappa, run_algorithm)
from .moduli import DimensionReport, classify_dim2, dim2_census, dimension_report
from .scalars import GroupElement, GroupMode, ScalarExpr

__version__ = "0.1.0"

# The numeric layer pulls in numpy; it loads on first use, so the
# symbolic verbs start without it.
_HOMOLOGY = ("NumericInstance", "raw_convolution_rep", "middle_convolution_rep",
             "generate_instance", "verify_instance")


def __getattr__(name):
    if name in _HOMOLOGY:
        from . import homology
        return getattr(homology, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "ScalarExpr", "GroupMode", "GroupElement",
    "EigDivisor", "MonodromyVector",
    "Convoluter", "ConventionReport", "NoneffectiveReport",
    "EmptinessCertificate", "AlgorithmTrace", "TerminalStatus",
    "defect", "kappa",
    "check_involution", "check_conventions",
    "detect_empty", "run_algorithm",
    "DimensionReport", "dimension_report", "classify_dim2",
    "dim2_census",
    "NumericInstance", "raw_convolution_rep", "middle_convolution_rep",
    "generate_instance", "verify_instance",
    "Arrangement", "HiggsData", "good_arrangement",
    "parabolic_degree", "construct",
    "MidconvError",
]
