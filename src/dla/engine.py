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
    merge_obligations,
)

# The version of the engine's answers, apart from the package version: bumped
# whenever a change makes the engine accept other inputs or give other output,
# so an analysis stored before the change reads as stale.
# ``tests/data/engine_version.json`` ties it to the goldens' hashes.
ENGINE_VERSION = "0.2.0"

# The grants verify compares in its loop over every vector: a module global
# reads faster than an enum member, which Python looks up as a descriptor.
_GRANTED, _DENIED, _UNSPECIFIED = Grant.GRANTED, Grant.DENIED, Grant.UNSPECIFIED


class EnginePolicy(Document, path="policy"):
    """Resolution policy knobs. Part of every cache key and audit trailer."""

    unknown_denies: bool = False

    def token(self) -> str:
        return f"unknown_denies={int(self.unknown_denies)}"


def _leaf(value: bytes) -> str:
    return hashlib.sha256(value).hexdigest()


def _node(children: Mapping[str, str]) -> str:
    return _leaf(json.dumps(children, sort_keys=True, separators=(",", ":")).encode("utf-8"))


def fingerprint_inputs(
    lineage: bytes,
    interpretations: Mapping[str, bytes],
    templates: Mapping[str, bytes],
    policy: EnginePolicy,
    *,
    strict: bool = True,
) -> str:
    """Stable digest of everything the engine's answer depends on: a Merkle
    root (Merkle 1987) over sha256 leaves of the lineage file's bytes, of each
    interpretation file and each template file by name, and of the policy,
    the parse mode and the engine version.
    """
    return _node({
        "lineage": _leaf(lineage),
        "interpretations": _node({name: _leaf(raw) for name, raw in interpretations.items()}),
        "templates": _node({name: _leaf(raw) for name, raw in templates.items()}),
        "policy": _leaf(policy.token().encode("utf-8")),
        "mode": _leaf(b"strict" if strict else b"lenient"),
        "engine": _leaf(ENGINE_VERSION.encode("utf-8")),
    })


def verify(
    graph: LineageGraph,
    interpretations: Mapping[str, RightsVector | None],
    policy: EnginePolicy | None = None,
    *,
    template_digests: Mapping[str, str] | None = None,
    inputs_digest: str,
) -> VerifiedLicense:
    """Resolve the verified license of the graph's root dataset.

    ``interpretations`` must cover every graph node: a rights vector for each
    interpreted subject, or None for a subject whose license content is
    unavailable. The output is deterministic: node order never matters, and
    obligation unions list the root's obligations first, then each source's
    in subject-id order. The audit trailer's ``generated_at`` is left null;
    a caller that wants a timestamp stamps the result it emits.
    ``inputs_digest`` is the :func:`fingerprint_inputs` of the files they
    were parsed from, for the audit trailer.
    """
    if graph.root_id not in interpretations or interpretations[graph.root_id] is None:
        raise MissingRootInterpretation(graph.root_id)
    policy = policy or EnginePolicy()
    source_ids = sorted(graph.nodes)
    for node_id in source_ids:
        if node_id not in interpretations:
            raise UninterpretedNode(node_id)
    source_ids.remove(graph.root_id)

    root_vector = interpretations[graph.root_id]
    assert root_vector is not None
    root_rights = root_vector.rights_by_name()
    # Only a right the root grants can be restricted by a source. Each source,
    # visited once in id order, files itself under each such right: among the
    # sources denying it, or with its obligations after the root's.
    owed = {name: [entry.obligations] for name, entry in root_rights.items() if entry.grant is _GRANTED}
    denying: dict[str, list[str]] = {name: [] for name in owed}
    unavailable, custom = [], set()
    for source_id in source_ids:
        vector = interpretations[source_id]
        if vector is None:
            unavailable.append(source_id)
            continue
        custom.update(vector.custom_rights)
        by_name = vector.rights_by_name()
        for name, obligations in owed.items():
            entry = by_name.get(name)
            if entry is None or entry.grant is not _GRANTED:
                denying[name].append(source_id)
            else:
                obligations.append(entry.obligations)
    if policy.unknown_denies:
        for sources in denying.values():
            sources.extend(unavailable)

    right_space = FIXED_RIGHTS + tuple(root_vector.custom_rights)
    right_space += tuple(sorted(custom.difference(right_space)))
    rights: dict[str, RightEntry] = {}
    restrictors: dict[str, tuple[str, ...]] = {}
    changed: list[str] = []
    for right in right_space:
        root_entry = root_rights.get(right)
        if right not in denying:
            # The root itself withholds the right; sources cannot restrict
            # further and the root's literal grant is preserved.
            rights[right] = root_entry or RightEntry(grant=_UNSPECIFIED)
            restrictors[right] = ()
        elif denying[right]:
            rights[right] = RightEntry(grant=_DENIED, obligations=root_entry.obligations)
            restrictors[right] = tuple(sorted(denying[right]))
            changed.append(right)
        else:
            rights[right] = RightEntry(grant=_GRANTED, obligations=merge_obligations(owed[right]))
            restrictors[right] = ()

    return VerifiedLicense(
        root_id=graph.root_id,
        rights=rights,
        restrictors=restrictors,
        changed=tuple(changed),
        residual_risk_flags=tuple(unavailable),
        audit=AuditInfo(
            engine_version=ENGINE_VERSION,
            inputs_digest=inputs_digest,
            policy=policy.to_dict(),
            template_digests=dict(template_digests or {}),
        ),
    )
