"""Complete square complexes, rectangle development, aperiodic-flat overlap
certificates, and staircase contact-graph certificates.

Public names are imported from their submodule on first use (PEP 562), so
``import cscwalls`` loads no submodule and a caller pays only for the
modules it uses.
"""

import importlib

__version__ = "0.1.0"

#: Each public name and the submodule it comes from, in ``__all__`` order;
#: ``errors`` is a submodule itself.
_SOURCE = {
    "HORIZONTAL": "complexes",
    "VERTICAL": "complexes",
    "EdgeLabel": "complexes",
    "OrientedEdge": "complexes",
    "Square": "complexes",
    "SquareComplexPresentation": "complexes",
    "ValidationReport": "complexes",
    "enumerate_csc": "complexes",
    "load_complex": "complexes",
    "parse_complex": "complexes",
    "serialize_complex": "complexes",
    "validate_csc": "complexes",
    "BACKEND": "develop",
    "PeriodicWord": "develop",
    "Rectangle": "develop",
    "Word": "develop",
    "fill_rectangle": "develop",
    "parse_word": "develop",
    "AntiTorusQuery": "antitorus",
    "GammaResult": "antitorus",
    "commuting_powers_search": "antitorus",
    "find_periodic_top": "antitorus",
    "overlap_gamma": "antitorus",
    "ObstructionTable": "obstruction",
    "ProjectionResult": "obstruction",
    "WellSeparationResult": "obstruction",
    "obstruction_table": "obstruction",
    "projection_diameter": "obstruction",
    "well_separation": "obstruction",
    "ContactGraph": "staircase",
    "CubeWindow": "staircase",
    "NonAcylCertificate": "staircase",
    "StairParams": "staircase",
    "build_staircase": "staircase",
    "contact_distance": "staircase",
    "contact_distances": "staircase",
    "contact_graph": "staircase",
    "nonacyl_certificate": "staircase",
    "walls": "staircase",
    "errors": "errors",
}

__all__ = list(_SOURCE)


def __getattr__(name):
    """Import a public name from its submodule and keep it in this module."""
    try:
        modname = _SOURCE[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    module = importlib.import_module(f".{modname}", __name__)
    value = module if name == modname else getattr(module, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
