"""Graph complexes toolkit: total cut complexes, neighborhood complexes,
nerves of covers, exact integer homology, and discrete Morse machinery.

The package is organized by layer:

- ``graphs``         graph families and independent-set machinery
- ``complexes``      simplicial complexes as facet masks, compared by ``==``
- ``constructions``  derived complexes (neighborhood, total cut, covers, nerves)
- ``homology``       reduced integer homology by Morse reduction and Smith normal form
- ``morse``          matchings, collapses, collapsibility search
- ``verify``         scenario registry binding claims to executable checks
- ``values``         the immutable value-class base of profiles, covers, witnesses and reports
- ``errors``         the two refusals (bad input, face budget) and the JSON input checks
"""

__version__ = "0.1.0"

from .graphs import Graph
from .complexes import SimplicialComplex
from .homology import HomologyProfile, reduced_homology

__all__ = ["Graph", "SimplicialComplex", "HomologyProfile", "reduced_homology", "__version__"]
