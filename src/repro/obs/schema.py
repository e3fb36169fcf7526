"""Versioning for emitted observability artifacts.

Every artifact the obs stack writes to disk — the metrics digest JSON,
the Chrome-trace JSON, the progress JSONL stream, and flight-recorder
postmortem bundles — carries the same two fields so a future campaign
*service* can negotiate formats with clients running older or newer
library versions:

* ``schema_version`` — the artifact format generation (bumped on
  breaking layout changes);
* ``repro_version`` — the library version that produced the artifact
  (forensics: "which code wrote this file?").

Loaders are **v0-tolerant**: an artifact written before these fields
existed simply has no ``schema_version`` key, and
:func:`artifact_version` maps that to ``0`` instead of failing — old
files keep loading forever. A loader that cannot read a newer layout
rejects an artifact stamped above :data:`SCHEMA_VERSION`
(:func:`repro.obs.flight.load_postmortem`).
"""

from __future__ import annotations

from typing import Mapping

__all__ = ["SCHEMA_VERSION", "artifact_stamp", "artifact_version"]

#: current format generation for obs-emitted artifacts
SCHEMA_VERSION = 1


def artifact_stamp() -> dict:
    """The ``{schema_version, repro_version}`` fields to embed in artifacts."""
    from repro import __version__

    return {"schema_version": SCHEMA_VERSION, "repro_version": __version__}


def artifact_version(payload: Mapping | None) -> int:
    """The schema generation an artifact was written under.

    Artifacts predating the stamp (no ``schema_version`` key) are
    generation ``0`` — loaders accept them unchanged.
    """
    if not payload:
        return 0
    try:
        return int(payload.get("schema_version", 0))
    except (TypeError, ValueError):
        return 0
