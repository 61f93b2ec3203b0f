"""Exception and warning hierarchy shared by all dla modules."""

from __future__ import annotations

from pathlib import Path


class DlaError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(DlaError):
    """A document could not be parsed into a domain value.

    Carries the JSON-path-ish location of the offending field in ``path``.
    """

    def __init__(self, path: str, message: str) -> None:
        self.path = path
        super().__init__(f"{path}: {message}")


class InputError(DlaError):
    """An input file could not be read or is not UTF-8 JSON."""

    def __init__(self, path: Path, message: str) -> None:
        self.path = path
        super().__init__(f"{path}: {message}")


class SchemaViolation(DlaError):
    """A parsed value breaks a structural schema rule."""


class LineageError(DlaError):
    """Base class for lineage graph construction and traversal errors."""


class CycleDetected(LineageError):
    def __init__(self, cycle: tuple[str, ...]) -> None:
        self.cycle = cycle
        super().__init__("cycle detected: " + " -> ".join(cycle))


class DanglingReference(LineageError):
    referrer = "edge"

    def __init__(self, missing_id: str) -> None:
        self.missing_id = missing_id
        super().__init__(f"{self.referrer} references unknown subject: {missing_id!r}")


class UnknownRoot(DanglingReference):
    """The lineage's root_id names no record."""

    referrer = "root_id"


class UnreachableNode(LineageError):
    def __init__(self, node_id: str) -> None:
        self.node_id = node_id
        super().__init__(f"node not reachable from root: {node_id!r}")


class MissingOriginYear(LineageError):
    def __init__(self, node_id: str) -> None:
        self.node_id = node_id
        super().__init__(f"dataset node {node_id!r} has no origin_year")


class NoDatasetAncestor(LineageError):
    def __init__(self, node_id: str) -> None:
        self.node_id = node_id
        super().__init__(f"node {node_id!r} has no dataset ancestor to inherit a range from")


class AmbiguousRange(LineageError):
    def __init__(self, node_id: str, ancestors: tuple[str, ...]) -> None:
        self.node_id = node_id
        self.ancestors = ancestors
        super().__init__(
            f"node {node_id!r} has equally near dataset ancestors with different "
            f"ranges: {', '.join(ancestors)}"
        )


class UnknownLicense(DlaError):
    def __init__(self, license_id: str, version: str | None = None) -> None:
        self.license_id = license_id
        self.version = version
        suffix = f" version {version!r}" if version else ""
        super().__init__(f"no template for license {license_id!r}{suffix}")


class DuplicateRight(DlaError):
    def __init__(self, right_name: str) -> None:
        self.right_name = right_name
        super().__init__(f"right name already defined: {right_name!r}")


class MissingRootInterpretation(DlaError):
    def __init__(self, root_id: str) -> None:
        self.root_id = root_id
        super().__init__(f"root subject {root_id!r} has no license interpretation")


class UninterpretedNode(DlaError):
    def __init__(self, node_id: str) -> None:
        self.node_id = node_id
        super().__init__(
            f"node {node_id!r} is neither interpreted nor marked unavailable"
        )


class UnknownRight(DlaError):
    def __init__(self, right_name: str) -> None:
        self.right_name = right_name
        super().__init__(f"scenario requires unknown right: {right_name!r}")


class DuplicateScenario(DlaError):
    def __init__(self, scenario_id: str) -> None:
        self.scenario_id = scenario_id
        super().__init__(f"duplicate scenario id: {scenario_id!r}")


class StoreError(DlaError):
    """Base class for analysis store errors."""


class StoreCorrupt(StoreError):
    def __init__(self, key: str, detail: str) -> None:
        self.key = key
        super().__init__(f"store entry {key!r} is corrupt: {detail}")


class DlaWarning(UserWarning):
    """Base class for warnings emitted by this package."""


class UnknownFieldWarning(DlaWarning):
    """Lenient parsing encountered (and dropped) an unknown field."""


class StaleEntryWarning(DlaWarning):
    """A cached analysis exists under the key but was computed from other
    inputs or by another engine version."""
