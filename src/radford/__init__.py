"""Exact kernel for the Radford Hopf algebra H_n over cyclotomic fields.

H_n is generated by g, x, y with g^n = 1, x^n = y^n = 0 and the
omega-commutation relations xg = w gx, gy = w yg, xy = w yx; it carries
a Hopf structure whose antipode has order 2n.  This package computes in
H_n exactly over Q(zeta_m), verifies every Hopf and star-structure
axiom, solves the structural linear systems (group-likes,
skew-primitives), and decides equivalence of star structures exactly,
with a verified witness: square-root-free diagonal witnesses for n > 2
and the n = 2 matrix criterion A L = conj(L) B.
"""

from .algebra import Element, FreeWord, Monomial, basis, generators, \
    monomial_mul, rewrite_word
from .classify import (
    Automorphism,
    EquivalenceResult,
    apply_automorphism,
    equivalence_witness_diag,
    make_automorphism_diag,
    make_automorphism_matrix,
    scan_star_candidates,
    solve_equivalence_n2,
    verify_equivalence,
)
from .coalgebra import (
    TensorElement,
    antipode,
    antipode_order,
    counit,
    delta,
    delta_closed,
    tensor_map,
    tensor_mul,
    tensor_of,
)
from .errors import (
    ContextMismatchError,
    ExprSyntaxError,
    InvalidAutomorphismError,
    InvalidStarStructureError,
    KernelError,
)
from .parser import format_element, format_scalar, format_tensor, parse, \
    parse_element
from .scalars import CyclotomicScalar, FieldContext, Rational, make_context, \
    unify_contexts
from .solver import (
    ConjTerm,
    ConjugateLinearSystem,
    FieldMatrix,
    field_nullspace,
    is_grouplike,
    rational_nullspace,
    rationalize,
    skew_primitive_space,
)
from .star import (
    StarStructure,
    VerificationReport,
    apply_star,
    make_star_diag,
    make_star_matrix,
    make_star_raw,
    verify_hopf_axioms,
    verify_star_axioms,
)

__version__ = "0.1.0"
