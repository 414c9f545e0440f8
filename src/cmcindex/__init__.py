"""Numerical laboratory for CMC-surface second variations, spectra and index bounds.

Modules:

* ``ambient``    -- model ambient 3-manifolds (R3, S3, H3, flat T3);
* ``grids``      -- conformal chart grids, quadrature, differentiation stencils;
* ``surfaces``   -- sampled conformal immersions and induced geometry;
* ``delaunay``   -- unduloid profiles and k-lobed CMC tori in the flat 3-torus;
* ``gallery``    -- the analytic CMC gallery with reference data;
* ``variations`` -- variation fields, first/second variation forms, the
  conformal-defect comparison identity, finite-difference oracles;
* ``span``       -- the seeded span of a surface and the Gram matrices of the
  comparison identity on it (not imported here: ``from cmcindex import span``);
* ``spectral``   -- Jacobi / Laplace-Beltrami eigensolves, index, nullity,
  weak (volume-constrained) index, heat traces;
* ``bounds``     -- r(g,b), the explicit-constant pipeline, the linear index
  bound, analytic-inequality checks, the negative-curvature dichotomy;
* ``cli``        -- the ``cmcindex`` command-line front end.
"""

from . import ambient, bounds, delaunay, gallery, grids, spectral, surfaces, variations
from .ambient import FLAT_T3, H3, R3, S3, AmbientSpace
from .gallery import gallery as build_surface
from .surfaces import Immersion
from .variations import VariationField

__all__ = [
    "ambient", "bounds", "delaunay", "gallery", "grids", "spectral",
    "surfaces", "variations", "R3", "S3", "H3", "FLAT_T3", "AmbientSpace",
    "build_surface", "Immersion", "VariationField",
]

__version__ = "0.1.0"
