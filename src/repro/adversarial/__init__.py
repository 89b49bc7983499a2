"""Adversarial marketplace subsystem: handshakes, abuse, chaos, audit.

PRs 1-9 only ever exercised the platform against *failure* — crashed
hosts, cut links, overload.  This package opens the second correctness
axis, behaviour under *hostility*:

- :mod:`repro.adversarial.handshake` — the ``TradeHandshake`` protocol
  (init → nonce challenge → HMAC echo → finalize) securing every
  marketplace trade when ``PlatformConfig.handshake_trades`` is on,
  with typed rejections for forged nonces, replayed offers, stale
  credentials and double-finalize attempts;
- :mod:`repro.workload.adversary` — the ``AdversaryDriver`` scripting
  scalper fleets, replay/forgery bots and quota abuse against the
  admission layer (a workload driver, so it lives in :mod:`repro.workload`);
- :mod:`repro.adversarial.chaos` — the seeded, replayable
  ``ChaosSchedule`` generator compiling crash/partition/recover
  sequences into the existing :class:`~repro.platform.failure.FailurePlan`;
- :mod:`repro.adversarial.audit` — the ``InvariantAuditor`` sweeping the
  final platform state for global invariants: no double purchase, no
  lost paid transaction, balanced ledger, closed envelope taxonomy,
  every finalized trade backed by a verified handshake.

Nothing here imports :mod:`repro.ecommerce` at module level — the
e-commerce trade services import the handshake module, so this package
must sit *below* them in the import graph.
"""

from repro.adversarial.audit import AuditReport, InvariantAuditor
from repro.adversarial.chaos import ChaosEvent, ChaosSchedule
from repro.adversarial.handshake import (
    HandshakeBroker,
    HandshakeTranscript,
    TradeHandshake,
)

__all__ = [
    "AuditReport",
    "ChaosEvent",
    "ChaosSchedule",
    "HandshakeBroker",
    "HandshakeTranscript",
    "InvariantAuditor",
    "TradeHandshake",
]
