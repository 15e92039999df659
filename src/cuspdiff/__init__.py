"""Exact computations in rings of differential operators on monomial curve algebras.

The package models the ambient skew Laurent ring over a shifted polynomial
base, the operator rings cut out by the graded divisibility table, their
generalized Weyl presentations, module actions on Laurent vectors, and the
classification machinery for simple weight modules and normal elements.
"""

from .exactpoly import (ArityMismatch, BasePoly, DivisionByZero, NotDivisible,
                        exact_divide, linear_factors, poly_to_json,
                        rational_roots, render_poly)
from .skewlaurent import (LaurentOp, commutator, graded_divisor, op_to_json,
                          render_op, vanishing_roots)
from .cuspops import (CuspShape, StructureRelation, as_shape, bbA_presentation,
                      calA_presentation, decompose, delta_op, generating_set,
                      generator_pair, membership, phi, phi_multi, presentation,
                      structure_constant, w_minus, weyl_presentation)
from .gwa import (Embedding, GwaElement, GwaPresentation, GwaReport,
                  ImagesViolateRelations, NotInImage, PresentationMismatch,
                  gwa_multiply, render_gwa, verify_presentation)
from .modactions import (ExponentSet, GradedMask, LaurentVector, NotStable,
                         WeightSupport, act, act_on_quotient, cusp_mask,
                         quotient_mask, render_vector, restriction_blocks,
                         simplicity_probe, stability_check, support)
from .classify import (ClassifiedModule, GammaInterval, InvalidInterval,
                       LinMaxIdeal, NonlinearFactor, NormalizationResult,
                       Orbit, WeightModule, WrongShape, build_weight_module,
                       classify_DA_torsion, classify_bbA, is_normal,
                       marked_ideals, normalize, partition_orbit)
from .exprparse import ExprParseError, parse_expression, parse_poly

__version__ = "0.1.0"
