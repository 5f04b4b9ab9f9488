"""Exact kernel for the Radford Hopf algebra H_n over cyclotomic fields.

H_n is generated by g, x, y with g^n = 1, x^n = y^n = 0 and the
omega-commutation relations xg = w gx, gy = w yg, xy = w yx; it carries
a Hopf structure whose antipode has order 2n.  This package computes in
H_n exactly over Q(zeta_m), verifies every Hopf and star-structure
axiom, writes down and re-verifies the structural answers (group-likes,
skew-primitives), and decides equivalence of star structures exactly:
every verified star is g* = g, (x*, y*) = A (x, y) with conj(A) A = I,
and one witness L_A conj(L_B) / 4, which takes no square root and
divides by no scalar, carries A to B at every n.

The package re-exports nothing and importing it runs no layer.  Import
names from the layer modules (``radford.scalars``, ``radford.algebra``,
``radford.coalgebra``, ``radford.star``, ``radford.solver``,
``radford.classify``, ``radford.parser``, ``radford.jsonio``), so that a
``radford`` call compiles only the layers its command uses.
"""

__version__ = "0.1.0"
