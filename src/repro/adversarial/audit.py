"""End-of-run global invariant audit over the whole platform state.

A chaos run proves nothing by finishing; it proves something when an
independent sweep of the final state finds the books balanced.  The
:class:`InvariantAuditor` walks every marketplace ledger, every buyer
server's primary UserDB and every hosted replica, and asserts the
invariants an honest marketplace must keep *no matter what* was crashed,
partitioned, replayed or forged along the way:

- **no double purchase** — every transaction id is minted once and
  recorded on exactly one primary;
- **no lost paid transaction** — every transaction a marketplace
  recorded (money changed hands) is present on the buyer's side;
- **balanced ledger** — buyer-side and marketplace-side prices agree,
  transaction by transaction and in total, and every converged replica
  carries the same transactions as its primary;
- **closed envelope taxonomy** — every observed envelope status and
  error code is in the published taxonomy;
- **handshake-backed trades** — with ``handshake_trades`` on, every
  recorded transaction is backed by a verified, finalized handshake
  transcript.

The auditor only reads; it never mutates platform state.  Violations
are collected (deterministically ordered) rather than raised, so a
report can be embedded byte-reproducibly in a benchmark artifact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional

from repro.api.envelope import ApiStatus, KNOWN_ERROR_CODES

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.ecommerce.platform_builder import ECommercePlatform

__all__ = ["AuditReport", "InvariantAuditor"]


@dataclass
class AuditReport:
    """Outcome of one invariant sweep: what was checked, what failed."""

    violations: List[str] = field(default_factory=list)
    checks: Dict[str, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.violations

    def _count(self, invariant: str, amount: int = 1) -> None:
        self.checks[invariant] = self.checks.get(invariant, 0) + amount

    def as_dict(self) -> Dict[str, object]:
        return {
            "ok": self.ok,
            "violations": list(self.violations),
            "checks": {key: self.checks[key] for key in sorted(self.checks)},
        }


class InvariantAuditor:
    """Sweeps a quiesced platform for the global marketplace invariants."""

    def __init__(self, platform: "ECommercePlatform") -> None:
        self.platform = platform

    # -- helpers ------------------------------------------------------------

    def _primary_servers(self):
        """Every non-retired buyer server, in fleet order."""
        fleet = self.platform.fleet
        if fleet is None:
            return [self.platform.buyer_server]
        return fleet.members()

    # -- the sweep ----------------------------------------------------------

    def audit(
        self,
        statuses: Optional[Dict[str, int]] = None,
        error_codes: Optional[Dict[str, int]] = None,
        require_converged: bool = True,
    ) -> AuditReport:
        """Run every invariant; return the collected report.

        ``statuses`` / ``error_codes`` are the envelope histograms a
        scenario observed (status name → count, error code → count);
        pass them to close the taxonomy invariant over actual traffic.
        ``require_converged`` additionally demands every hosted replica
        carry *exactly* its primary's transactions — set it when the
        run quiesced (faults repaired, anti-entropy settled) before the
        audit, which is how ``chaos_marketplace_day`` calls it.
        """
        report = AuditReport()
        self._audit_marketplace_ledgers(report)
        self._audit_buyer_side(report)
        self._audit_replicas(report, require_converged)
        self._audit_taxonomy(report, statuses, error_codes)
        self._audit_handshakes(report)
        return report

    def _audit_marketplace_ledgers(self, report: AuditReport) -> None:
        """Transaction ids minted once; catalog sold counts match the ledger."""
        seen: Dict[str, str] = {}
        for marketplace in self.platform.marketplaces:
            sold_by_item: Dict[str, int] = {}
            for txn in marketplace.transactions:
                report._count("unique-transaction-ids")
                if txn.transaction_id in seen:
                    report.violations.append(
                        f"double purchase: transaction {txn.transaction_id} "
                        f"recorded on {seen[txn.transaction_id]} and "
                        f"{marketplace.name}"
                    )
                seen[txn.transaction_id] = marketplace.name
                sold_by_item[txn.item_id] = sold_by_item.get(txn.item_id, 0) + 1
            for listing in marketplace.catalog.listings():
                report._count("catalog-sold-matches-ledger")
                recorded = sold_by_item.get(listing.item.item_id, 0)
                if listing.sold != recorded:
                    report.violations.append(
                        f"catalog drift on {marketplace.name}: item "
                        f"{listing.item.item_id} shows sold={listing.sold} but "
                        f"the ledger records {recorded} transactions"
                    )
                if listing.stock < 0:
                    report.violations.append(
                        f"negative stock on {marketplace.name}: item "
                        f"{listing.item.item_id} has stock={listing.stock}"
                    )

    def _audit_buyer_side(self, report: AuditReport) -> None:
        """Every marketplace transaction is on the buyer's side, exactly once."""
        holders: Dict[str, List[str]] = {}
        prices: Dict[str, float] = {}
        for server in self._primary_servers():
            for txn in server.user_db.all_transactions():
                holders.setdefault(txn.transaction_id, []).append(server.name)
                prices[txn.transaction_id] = txn.price
        marketplace_total = 0.0
        buyer_total = 0.0
        for marketplace in self.platform.marketplaces:
            for txn in marketplace.transactions:
                report._count("no-lost-paid-transaction")
                marketplace_total += txn.price
                recorded_on = holders.get(txn.transaction_id, [])
                if not recorded_on:
                    report.violations.append(
                        f"lost paid transaction: {txn.transaction_id} "
                        f"({txn.user_id} on {marketplace.name}) is on no "
                        f"buyer server"
                    )
                    continue
                if len(recorded_on) > 1:
                    report.violations.append(
                        f"double purchase: {txn.transaction_id} is recorded "
                        f"on {sorted(recorded_on)}"
                    )
                buyer_price = prices[txn.transaction_id]
                buyer_total += buyer_price
                if abs(buyer_price - txn.price) > 1e-9:
                    report.violations.append(
                        f"unbalanced ledger: {txn.transaction_id} is "
                        f"{txn.price:.2f} at {marketplace.name} but "
                        f"{buyer_price:.2f} buyer-side"
                    )
        if abs(marketplace_total - buyer_total) > 1e-6:
            report.violations.append(
                f"unbalanced ledger: marketplaces sum to "
                f"{marketplace_total:.2f} but buyer servers sum to "
                f"{buyer_total:.2f}"
            )
        report._count("ledger-balance-totals")

    def _audit_replicas(self, report: AuditReport, require_converged: bool) -> None:
        """Hosted replicas never invent transactions; converged ones match."""
        for server in self._primary_servers():
            manager = server.replication
            if manager is None:
                continue
            primary_ids = {
                txn.transaction_id for txn in server.user_db.all_transactions()
            }
            for peer in manager.peers:
                if peer.replication is None:
                    continue
                replica = peer.replication.hosted.get(server.name)
                if replica is None:
                    continue
                report._count("replica-ledgers")
                replica_ids = {
                    txn.transaction_id for txn in replica.db.all_transactions()
                }
                invented = sorted(replica_ids - primary_ids)
                if invented:
                    report.violations.append(
                        f"replica of {server.name} on {peer.name} carries "
                        f"transactions its primary does not: {invented}"
                    )
                if require_converged:
                    missing = sorted(primary_ids - replica_ids)
                    if missing:
                        report.violations.append(
                            f"replica of {server.name} on {peer.name} is "
                            f"missing transactions after quiesce: {missing}"
                        )

    def _audit_taxonomy(
        self,
        report: AuditReport,
        statuses: Optional[Dict[str, int]],
        error_codes: Optional[Dict[str, int]],
    ) -> None:
        """Observed envelope statuses and error codes stay in the taxonomy."""
        for status in sorted(statuses or {}):
            report._count("envelope-statuses")
            if status not in ApiStatus.ALL:
                report.violations.append(
                    f"envelope status {status!r} is outside the taxonomy"
                )
        for code in sorted(error_codes or {}):
            report._count("envelope-error-codes")
            if code not in KNOWN_ERROR_CODES:
                report.violations.append(
                    f"envelope error code {code!r} is outside the taxonomy"
                )

    def _audit_handshakes(self, report: AuditReport) -> None:
        """With handshake_trades on, every trade is transcript-backed."""
        for marketplace in self.platform.marketplaces:
            broker = marketplace.handshakes
            if broker is None:
                continue
            for txn in marketplace.transactions:
                report._count("handshake-backed-trades")
                transcript = marketplace.trade_handshakes.get(txn.transaction_id)
                if transcript is None:
                    report.violations.append(
                        f"unbacked trade: {txn.transaction_id} on "
                        f"{marketplace.name} has no handshake transcript"
                    )
                    continue
                if not transcript.verified:
                    report.violations.append(
                        f"unverified handshake behind {txn.transaction_id} "
                        f"on {marketplace.name}"
                    )
                if transcript.handshake_id not in broker.completed:
                    report.violations.append(
                        f"orphan transcript behind {txn.transaction_id}: "
                        f"{transcript.handshake_id} was never finalized on "
                        f"{marketplace.name}"
                    )
            if broker.redeemed_count < len(marketplace.trade_handshakes):
                report.violations.append(
                    f"{marketplace.name} recorded more handshake-backed "
                    f"trades than redeemed transcripts"
                )
