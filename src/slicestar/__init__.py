"""slicestar: quaternionic slice-regular calculus.

The algebra of H and its complexification C (x) H, slice functions built
from holomorphic stems, the *-product, the exponential covering maps and
their monodromy, the two-parameter family of *-logarithms, *-roots, a
closed-form solver for products of *-exponentials, and the slice
derivative of the *-exponential.
"""

from .quaternion import (ImagUnit, Quaternion, exp_stratum, quat_exp,
                         quat_mul, stratum_shift, I_UNIT, J_UNIT, K_UNIT)
from .cquaternion import (CQuaternion, EvenTrigPair, Locus, classify, cq_dot,
                          cq_exp, cq_mul, cq_pow, cq_sinc, cq_wedge, even_trig)
from .covering import (BranchIndex, LiftPoint, PathSample, RootDeckGenerator,
                       SampledPath, branch_translate, concatenate,
                       deck_translate, is_exp_deck, lift_path, lifted_exp,
                       lifted_exp_preimage, loop_monodromy, project,
                       project_fibers, require_exp_deck, root_deck_action,
                       root_monodromy_generators, scalar_deck, sheet_swap,
                       unit_imaginary)
from .slicefn import (Domain, SliceFunction, constant, idempotent_minus,
                      idempotent_plus, identity, induce_value, orth_decompose,
                      polynomial, representation_formula, slice_preserving,
                      star_decompose, stem_symmetry_defect, unit_vector_part)
from .starlog import (LogBranch, log_translate, sqrt_vsym, star_exp, star_log,
                      star_root)
from .bch import (BCHReport, bch_combine, bch_condition, exp_derivative_bracket,
                  product_vsym, star_exp_derivative, star_exp_derivative_stem,
                  vanishing_vsym_partner)
from . import errors

__all__ = [
    "ImagUnit", "Quaternion", "exp_stratum", "quat_exp", "quat_mul",
    "stratum_shift", "I_UNIT", "J_UNIT", "K_UNIT",
    "CQuaternion", "EvenTrigPair", "Locus", "classify", "cq_dot", "cq_exp",
    "cq_mul", "cq_pow", "cq_sinc", "cq_wedge", "even_trig",
    "BranchIndex", "LiftPoint", "PathSample", "RootDeckGenerator",
    "SampledPath", "branch_translate", "concatenate", "deck_translate",
    "is_exp_deck", "lift_path", "lifted_exp", "lifted_exp_preimage",
    "loop_monodromy", "project", "project_fibers", "require_exp_deck",
    "root_deck_action", "root_monodromy_generators", "scalar_deck",
    "sheet_swap", "unit_imaginary",
    "Domain", "SliceFunction", "constant", "idempotent_minus",
    "idempotent_plus", "identity", "induce_value", "orth_decompose",
    "polynomial", "representation_formula", "slice_preserving",
    "star_decompose", "stem_symmetry_defect", "unit_vector_part",
    "LogBranch", "log_translate", "sqrt_vsym", "star_exp", "star_log",
    "star_root",
    "BCHReport", "bch_combine", "bch_condition", "exp_derivative_bracket",
    "product_vsym", "star_exp_derivative", "star_exp_derivative_stem",
    "vanishing_vsym_partner",
    "errors",
]

__version__ = "0.1.0"
