"""dla: dataset license compliance analyzer.

Records dataset provenance, traces lineage across data sources, decomposes
licenses into rights and obligations, resolves a verified license by
restrictive-wins reconciliation, and assesses commercial usage scenarios.
The tool flags potential compliance risk; it does not render legal advice.

Every exported name but ``__version__`` is imported from its module on first
access (PEP 562), so ``import dla`` and a command that needs one layer do not
load the others.
"""

from importlib import import_module
from typing import Any

from .version import __version__

# The module that defines each exported name.
_HOMES = {
    name: module
    for module, names in {
        "assessment": ("assess", "assess_all", "default_scenarios", "render_markdown"),
        "catalog": ("LicenseCatalog", "extend_schema", "load_catalog", "load_interpretations_dir"),
        "engine": ("EnginePolicy", "fingerprint_inputs", "verify"),
        "lineage": ("LineageGraph", "build_lineage", "compute_license_range", "select_capture"),
        "model": (
            "FIXED_RIGHTS", "MODEL_RIGHTS", "STANDALONE_RIGHTS", "AssessmentRow",
            "AssessmentTable", "CaptureStatus", "Digest", "Grant", "LicenseCapture",
            "LicenseMetadata", "LicenseRange", "Obligation", "ObligationKind", "ProvenanceRecord",
            "RightEntry", "RightsVector", "SubjectKind", "TriState", "UsageScenario",
            "VerifiedLicense", "Violation", "validate_provenance", "validate_rights_vector",
        ),
        "store": ("AnalysisStore", "Bundle", "analysis_key", "lookup_or_verify"),
    }.items()
    for name in names
}

__all__ = ["__version__", *sorted(_HOMES)]


def _export(name: str) -> Any:
    """An exported name, imported from its module and kept in this one's
    globals, so the next access does not come here."""
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f"{__name__}.{home}"), name)
    return value


def _names() -> list[str]:
    return sorted(globals().keys() | _HOMES.keys())


# The module hooks of PEP 562: Python calls __getattr__ for a name this
# module does not hold yet, and __dir__ for dir(dla).
__getattr__, __dir__ = _export, _names
