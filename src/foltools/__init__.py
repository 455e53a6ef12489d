"""foltools: exact verification toolkit for planar polynomial vector fields.

Invariant-curve certificates, branch multiplicities and the Euler identity,
closed-form cycle bounds, reference constructions, certified oval counting,
and numeric hyperbolicity certificates, all over exact Gaussian rationals.

Import the module you need (``from foltools.singularities import ...``): the
package imports nothing itself, so importing one module loads only what that
module imports.
"""
