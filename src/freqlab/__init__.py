"""freqlab: numerical laboratory for frequency functions of rough
divergence-form elliptic equations -div(A grad u) = 0.

Modules
-------
modulus       moduli of continuity: each kind's omega, phi and h pair;
              Osgood classification, transform checks
growth        growth bounds and discrete cascades, kind-free (via Modulus)
coefficients  coefficient fields: generation, mollification, projections
solver        polar grids on disks, Dirichlet solves, and the
              quadratic functionals D, H
frequency     Almgren-type frequency profiles and monotonicity checks
experiments   scenario runners comparing measured margins to the estimates
io            file formats: canonical JSON (the one JSON-plaining rule),
              CSV tables, the binary grid container
svg           byte-stable SVG plots of profiles and margins
cli         command line front end (``freqlab``)
"""

__version__ = "0.1.0"

from .modulus import Modulus, OsgoodClass, classify_osgood, select_exponents

__all__ = [
    "Modulus",
    "OsgoodClass",
    "classify_osgood",
    "select_exponents",
    "__version__",
]
