"""Restrictive-wins license resolution over a lineage graph.

A use is permitted only when the root dataset's license and every interpreted
data-source license agree that it is; any interpreted source that withholds a
right (explicitly denied or simply unspecified) forces the verified grant to
Denied and is recorded as a restrictor. Sources whose license content is
unavailable do not restrict anything by default; they are surfaced as
residual risk instead. The ``unknown_denies`` policy flips that default for
conservative callers.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Mapping

from .errors import MissingRootInterpretation, UninterpretedNode
from .lineage import LineageGraph
from .model import (
    FIXED_RIGHTS,
    AuditInfo,
    Document,
    Grant,
    RightEntry,
    RightsVector,
    VerifiedLicense,
    canonical_json,
    merge_obligations,
)
from .version import __version__

ENGINE_VERSION = __version__


@dataclass(frozen=True)
class EnginePolicy(Document, path="policy"):
    """Resolution policy knobs. Part of every cache key and audit trailer."""

    unknown_denies: bool = False

    def token(self) -> str:
        return f"unknown_denies={int(self.unknown_denies)}"


def _leaf(value: bytes | LineageGraph | Document | None) -> str:
    if not isinstance(value, bytes):
        value = canonical_json(value.to_dict() if value is not None else None).encode("utf-8")
    return hashlib.sha256(value).hexdigest()


def _node(children: Mapping[str, str]) -> str:
    return _leaf(json.dumps(children, sort_keys=True, separators=(",", ":")).encode("utf-8"))


def fingerprint_inputs(
    lineage: LineageGraph | bytes,
    interpretations: Mapping[str, RightsVector | bytes | None],
    policy: EnginePolicy,
    *,
    template_digests: Mapping[str, str] | None = None,
    strict: bool = True,
) -> str:
    """Stable digest of everything the engine's answer depends on: a Merkle
    root (Merkle 1987) over sha256 leaves of the lineage, each interpretation
    by name, each template digest by name, the policy, the parse mode and the
    engine version. A leaf hashes authored bytes (the CLI: files by name,
    every template) or a parsed object's canonical JSON (library callers:
    vectors by subject id), so the two kinds of digest differ.
    """
    return _node({
        "lineage": _leaf(lineage),
        "interpretations": _node({name: _leaf(v) for name, v in interpretations.items()}),
        "templates": _node(dict(template_digests or {})),
        "policy": _leaf(policy.token().encode("utf-8")),
        "mode": _leaf(b"strict" if strict else b"lenient"),
        "engine": _leaf(ENGINE_VERSION.encode("utf-8")),
    })


def _right_space(
    root_vector: RightsVector,
    vectors: list[RightsVector],
) -> tuple[str, ...]:
    names = list(FIXED_RIGHTS) + list(root_vector.custom_rights)
    seen = set(names)
    extra: set[str] = set()
    for vector in vectors:
        for name in vector.custom_rights:
            if name not in seen:
                extra.add(name)
    return tuple(names) + tuple(sorted(extra))


def verify(
    graph: LineageGraph,
    interpretations: Mapping[str, RightsVector | None],
    policy: EnginePolicy = EnginePolicy(),
    *,
    template_digests: Mapping[str, str] | None = None,
    inputs_digest: str | None = None,
) -> VerifiedLicense:
    """Resolve the verified license of the graph's root dataset.

    ``interpretations`` must cover every graph node: a rights vector for each
    interpreted subject, or None for a subject whose license content is
    unavailable. The output is deterministic: node order never matters, and
    obligation unions list the root's obligations first, then each source's
    in subject-id order. The audit trailer's ``generated_at`` is left null;
    a caller that wants a timestamp stamps the result it emits.
    ``inputs_digest`` is their :func:`fingerprint_inputs`, if already known.
    """
    if graph.root_id not in interpretations or interpretations[graph.root_id] is None:
        raise MissingRootInterpretation(graph.root_id)
    for node_id in sorted(graph.nodes):
        if node_id not in interpretations:
            raise UninterpretedNode(node_id)

    root_vector = interpretations[graph.root_id]
    assert root_vector is not None
    source_ids = sorted(n for n in graph.nodes if n != graph.root_id)
    interpreted = [(s, interpretations[s]) for s in source_ids if interpretations[s] is not None]
    unavailable = tuple(s for s in source_ids if interpretations[s] is None)

    right_space = _right_space(root_vector, [v for _, v in interpreted])

    rights: dict[str, RightEntry] = {}
    restrictors: dict[str, tuple[str, ...]] = {}
    changed: list[str] = []

    for right in right_space:
        root_grant = root_vector.grant(right)
        root_entry = root_vector.entry(right) or RightEntry(grant=Grant.UNSPECIFIED)
        denying = [s for s, v in interpreted if v.grant(right) is not Grant.GRANTED]
        if policy.unknown_denies:
            denying.extend(unavailable)
        denying.sort()

        if root_grant is Grant.GRANTED and not denying:
            obligations = merge_obligations(
                [root_entry.obligations]
                + [
                    v.entry(right).obligations
                    for _, v in interpreted
                    if v.entry(right) is not None
                ]
            )
            rights[right] = RightEntry(grant=Grant.GRANTED, obligations=obligations)
            restrictors[right] = ()
        elif root_grant is Grant.GRANTED:
            rights[right] = RightEntry(grant=Grant.DENIED, obligations=root_entry.obligations)
            restrictors[right] = tuple(denying)
            changed.append(right)
        else:
            # The root itself withholds the right; sources cannot restrict
            # further and the root's literal grant is preserved.
            rights[right] = root_entry
            restrictors[right] = ()

    return VerifiedLicense(
        root_id=graph.root_id,
        rights=rights,
        restrictors=restrictors,
        changed=tuple(changed),
        residual_risk_flags=unavailable,
        audit=AuditInfo(
            engine_version=ENGINE_VERSION,
            inputs_digest=inputs_digest
            or fingerprint_inputs(graph, interpretations, policy, template_digests=template_digests),
            policy=policy.to_dict(),
            template_digests=dict(template_digests or {}),
        ),
    )
