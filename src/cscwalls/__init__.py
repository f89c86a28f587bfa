"""Complete square complexes, rectangle development, aperiodic-flat overlap
certificates, and staircase contact-graph certificates."""

__version__ = "0.1.0"

from .complexes import (
    HORIZONTAL,
    VERTICAL,
    EdgeLabel,
    OrientedEdge,
    Square,
    SquareComplexPresentation,
    ValidationReport,
    enumerate_csc,
    load_complex,
    parse_complex,
    serialize_complex,
    validate_csc,
)
from .develop import (
    BACKEND,
    PeriodicWord,
    Rectangle,
    Word,
    fill_rectangle,
    parse_word,
)
from .antitorus import (
    AntiTorusQuery,
    GammaResult,
    commuting_powers_search,
    find_periodic_top,
    overlap_gamma,
)
from .obstruction import (
    ObstructionTable,
    ProjectionResult,
    WellSeparationResult,
    obstruction_table,
    projection_diameter,
    well_separation,
)
from .staircase import (
    ContactGraph,
    CubeWindow,
    NonAcylCertificate,
    StairParams,
    build_staircase,
    contact_distance,
    contact_distances,
    contact_graph,
    nonacyl_certificate,
    walls,
)
from . import errors

__all__ = [
    "HORIZONTAL",
    "VERTICAL",
    "EdgeLabel",
    "OrientedEdge",
    "Square",
    "SquareComplexPresentation",
    "ValidationReport",
    "enumerate_csc",
    "load_complex",
    "parse_complex",
    "serialize_complex",
    "validate_csc",
    "BACKEND",
    "PeriodicWord",
    "Rectangle",
    "Word",
    "fill_rectangle",
    "parse_word",
    "AntiTorusQuery",
    "GammaResult",
    "commuting_powers_search",
    "find_periodic_top",
    "overlap_gamma",
    "ObstructionTable",
    "ProjectionResult",
    "WellSeparationResult",
    "obstruction_table",
    "projection_diameter",
    "well_separation",
    "ContactGraph",
    "CubeWindow",
    "NonAcylCertificate",
    "StairParams",
    "build_staircase",
    "contact_distance",
    "contact_distances",
    "contact_graph",
    "nonacyl_certificate",
    "walls",
    "errors",
]
