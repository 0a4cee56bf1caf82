"""Served front door for the hot-path coordinator.

The paper describes a client/coordinator *protocol*; this package is the
deployment of it — an asyncio TCP front end accepting location-update
batches from many concurrent clients, an epoch batcher with bounded queues
and backpressure feeding :meth:`Coordinator.run_epoch`, wire encode/decode
for updates and corridor/top-k responses, and a scenario-based load +
deterministic chaos harness that proves the served fleet bit-for-bit equal
to a seed coordinator replaying the same accepted updates.

Layout:

* :mod:`repro.serving.protocol` — newline-delimited JSON wire format and
  the canonical report snapshot used by the equivalence contract;
* :mod:`repro.serving.batcher` — :class:`EpochBatcher`: dedupe,
  backpressure, canonical epoch ordering and the accepted-update log;
* :mod:`repro.serving.server` — :class:`IngestionServer`, the asyncio TCP
  endpoint;
* :mod:`repro.serving.scenarios` — :class:`BaseScenario` registry,
  :class:`InjectionConfig` fault injection and the :class:`ScenarioRunner`.

Names are exported lazily (PEP 562): ``from repro.serving import X``
imports only the module defining ``X``, so the server does not load the
scenario harness.
"""

from typing import Tuple

from repro._exports import lazy_exports

#: The injectable fault classes of the chaos harness
#: (:mod:`repro.serving.scenarios`), defined here so the command line can
#: offer them without loading the harness.
FAULT_TYPES: Tuple[str, ...] = (
    "drop_batch",
    "duplicate_batch",
    "reorder_batch",
    "kill_worker",
    "stall_epoch",
)

#: Exported name -> the module defining it.
_EXPORTS = {
    "PROTOCOL_VERSION": "repro.serving.protocol",
    "ProtocolError": "repro.serving.protocol",
    "coordinator_snapshot": "repro.serving.protocol",
    "decode_message": "repro.serving.protocol",
    "decode_update": "repro.serving.protocol",
    "encode_message": "repro.serving.protocol",
    "encode_update": "repro.serving.protocol",
    "BatchDecision": "repro.serving.batcher",
    "EpochBatcher": "repro.serving.batcher",
    "IngestionServer": "repro.serving.server",
    "ServingConfig": "repro.serving.server",
    "SCENARIOS": "repro.serving.scenarios",
    "BaseScenario": "repro.serving.scenarios",
    "InjectionConfig": "repro.serving.scenarios",
    "ScenarioResult": "repro.serving.scenarios",
    "ScenarioRunner": "repro.serving.scenarios",
    "get_scenario": "repro.serving.scenarios",
    "replay_accepted_log": "repro.serving.scenarios",
}

__all__ = ["FAULT_TYPES", *_EXPORTS]


__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
