"""Canonical spec fingerprints: the content address of one workload run.

A fingerprint is a stable SHA-256 over everything a
:class:`~repro.experiments.parallel.RunSpec`'s *outcome* depends on —
(mix, scheme, scheme_kwargs, seed, effective instructions, machine) —
and over nothing else. The simulator is deterministic per spec (see
:mod:`repro.experiments.parallel`), so two specs with equal fingerprints
produce field-for-field equal :class:`~repro.experiments.runner.WorkloadResult`s,
which is what lets the :class:`~repro.campaign.store.ResultStore` treat a
fingerprint as a cache key across processes, hosts, and repo checkouts.

Canonicalisation rules (see ``docs/campaigns.md`` for the stability
guarantee):

- ``instructions`` is resolved to its *effective* value
  (``spec.instructions or config.instructions``), so a spec that spells
  out the machine default hashes identically to one that leaves it
  ``None`` — exactly the pairs :func:`~repro.experiments.runner.run_workload`
  cannot distinguish.
- The machine contributes only fields the run reads: core count,
  geometry, controller count, workload scale, the private-L1 hierarchy
  (geometry + inclusion mode) and the DRAM bank/row configuration. Its
  default instruction budget is *not* hashed separately (it is already
  folded into the effective instructions).
- ``spec.telemetry`` is excluded: recording a trace observes a run, it
  does not change it.
- The payload is versioned; :data:`FINGERPRINT_VERSION` bumps whenever a
  rule above changes, invalidating old stores loudly rather than
  silently colliding.
"""

from __future__ import annotations

import hashlib
import json
from typing import Union

from repro.experiments.configs import MachineConfig
from repro.experiments.parallel import RunSpec
from repro.workloads.registry import WorkloadSource, resolve_workload

__all__ = ["FINGERPRINT_VERSION", "canonical_payload", "spec_fingerprint"]

#: Bump when the canonicalisation rules change (old fingerprints must not
#: collide with new ones). v2: the machine payload grew the cache
#: hierarchy (private L1, inclusion mode) and DRAM bank/row fields, and
#: the DRAM service-occupancy timing fix changed results for otherwise
#: identical specs — so every v1 digest had to be invalidated anyway.
#: v3: the payload grew ``clusters`` (cluster-granular management changes
#: results, so it must key the store).
FINGERPRINT_VERSION = 3


def _canonical_mix(mix) -> Union[str, list, dict]:
    """A mix argument as hashable JSON.

    Plain mix names stay bare strings and benchmark lists stay name lists
    (byte-compatible with every fingerprint ever written); ``family:spec``
    references and :class:`~repro.workloads.registry.WorkloadSource`
    objects hash their full workload *identity* payload, so a result is
    keyed by what the trace generator actually produces, not by the
    reference that named it.
    """
    if isinstance(mix, WorkloadSource):
        return mix.identity()
    if isinstance(mix, str):
        if ":" in mix:
            return resolve_workload(mix).identity()
        return mix
    names = []
    for item in mix:
        names.append(item if isinstance(item, str) else getattr(item, "name", str(item)))
    return names


def canonical_payload(spec: RunSpec, config: MachineConfig) -> dict:
    """The exact JSON object that gets hashed (exposed for tests/docs)."""
    return {
        "version": FINGERPRINT_VERSION,
        "mix": _canonical_mix(spec.mix),
        "scheme": spec.scheme,
        "scheme_kwargs": dict(spec.scheme_kwargs) if spec.scheme_kwargs else None,
        "seed": spec.seed,
        "instructions": (
            spec.instructions if spec.instructions is not None else config.instructions
        ),
        "clusters": getattr(spec, "clusters", None),
        "machine": {
            "num_cores": config.num_cores,
            "geometry": _geometry_payload(config.geometry),
            "num_controllers": config.num_controllers,
            "workload_scale": config.workload_scale,
            "l1_geometry": _geometry_payload(config.l1_geometry),
            "l1_inclusive": config.l1_inclusive,
            "dram_banks": config.dram_banks,
            "dram_row_blocks": config.dram_row_blocks,
        },
    }


def _geometry_payload(geometry) -> Union[dict, None]:
    if geometry is None:
        return None
    return {
        "size_bytes": geometry.size_bytes,
        "block_bytes": geometry.block_bytes,
        "assoc": geometry.assoc,
    }


def spec_fingerprint(spec: RunSpec, config: MachineConfig) -> str:
    """SHA-256 hex digest of the canonical payload.

    ``json.dumps(sort_keys=True)`` sorts every dict (including
    ``scheme_kwargs``) recursively, so key insertion order never leaks
    into the digest.
    """
    text = json.dumps(canonical_payload(spec, config), sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
