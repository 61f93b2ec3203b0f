"""dla: dataset license compliance analyzer.

Records dataset provenance, traces lineage across data sources, decomposes
licenses into rights and obligations, resolves a verified license by
restrictive-wins reconciliation, and assesses commercial usage scenarios.
The tool flags potential compliance risk; it does not render legal advice.
"""

from .assessment import assess, assess_all, default_scenarios, render_markdown
from .catalog import (
    LicenseCatalog,
    extend_schema,
    load_catalog,
    load_interpretations_dir,
)
from .engine import EnginePolicy, fingerprint_inputs, verify
from .lineage import (
    LineageGraph,
    build_lineage,
    compute_license_range,
    select_capture,
)
from .model import (
    FIXED_RIGHTS,
    MODEL_RIGHTS,
    STANDALONE_RIGHTS,
    AssessmentRow,
    AssessmentTable,
    CaptureStatus,
    Digest,
    Grant,
    LicenseCapture,
    LicenseMetadata,
    LicenseRange,
    Obligation,
    ObligationKind,
    ProvenanceRecord,
    RightEntry,
    RightsVector,
    SubjectKind,
    TriState,
    UsageScenario,
    VerifiedLicense,
    Violation,
    validate_provenance,
    validate_rights_vector,
)
from .store import AnalysisStore, Bundle, analysis_key, lookup_or_verify
from .version import __version__

__all__ = [
    "__version__",
    "AnalysisStore",
    "AssessmentRow",
    "AssessmentTable",
    "Bundle",
    "CaptureStatus",
    "Digest",
    "EnginePolicy",
    "FIXED_RIGHTS",
    "Grant",
    "LicenseCapture",
    "LicenseCatalog",
    "LicenseMetadata",
    "LicenseRange",
    "LineageGraph",
    "MODEL_RIGHTS",
    "Obligation",
    "ObligationKind",
    "ProvenanceRecord",
    "RightEntry",
    "RightsVector",
    "STANDALONE_RIGHTS",
    "SubjectKind",
    "TriState",
    "UsageScenario",
    "VerifiedLicense",
    "Violation",
    "analysis_key",
    "assess",
    "assess_all",
    "build_lineage",
    "compute_license_range",
    "default_scenarios",
    "extend_schema",
    "fingerprint_inputs",
    "load_catalog",
    "load_interpretations_dir",
    "lookup_or_verify",
    "render_markdown",
    "select_capture",
    "validate_provenance",
    "validate_rights_vector",
    "verify",
]
