"""The trade handshake protocol: init → nonce challenge → HMAC echo → finalize.

§4.1's authentication principles stop at the MBA's return trip; real
buyer/seller traffic (the Summoner ``HSBuyAgent`` suite this is modeled
on) secures each *trade* with a handshake: the marketplace issues a
fresh nonce, the buyer echoes it back under an HMAC keyed by its
credential's session key, and only a finalized handshake entitles its
holder to a trade.  The discipline is the one Snippet 2 enforces —
nonce echo, duplicate-nonce drop and a single finalize; a nonce answers
one challenge ever, so a consumed nonce can never be replayed.

Each way the protocol can be abused raises its own typed error
(:class:`~repro.errors.HandshakeError` family), so the gateway's
envelope taxonomy can name the rejection:

- ``ForgedNonceError`` — the echo is not the issued nonce, or the HMAC
  does not prove possession of the session key;
- ``ReplayedOfferError`` — an already-consumed nonce answers a new
  challenge, or a finalized transcript is redeemed for a second trade;
- ``DoubleFinalizeError`` — a handshake is finalized twice;
- ``StaleCredentialError`` — the opening credential is expired or
  revoked.

The broker draws nonces and session keys from its
:class:`~repro.agents.security.AuthenticationService` — seeded by the
platform builder — so same-seed runs produce identical handshake
streams end to end.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Optional, Set

from repro.errors import (
    AuthenticationError,
    DoubleFinalizeError,
    ForgedNonceError,
    HandshakeError,
    ReplayedOfferError,
    StaleCredentialError,
)
from repro.agents.security import AgentCredential, AuthenticationService

__all__ = [
    "HandshakeBroker",
    "HandshakeTranscript",
    "TradeHandshake",
    "TAMPER_MODES",
]

#: Sabotage modes :meth:`HandshakeBroker.attempt` understands — one per
#: typed rejection, used by the attack drivers and the gateway's
#: ``handshake`` probe operation.
TAMPER_MODES = (
    "forged-nonce",
    "replayed-offer",
    "double-finalize",
    "stale-credential",
)


@dataclass(frozen=True)
class HandshakeTranscript:
    """The verifiable record a finalized handshake leaves behind.

    Frozen and content-complete: a marketplace stores one per finalized
    trade (``MarketplaceServer.trade_handshakes``), and the invariant
    auditor re-checks that every recorded transaction is backed by one.
    """

    handshake_id: str
    marketplace: str
    buyer: str
    nonce: str
    opened_at: float
    finalized_at: float
    verified: bool = True


class TradeHandshake:
    """One in-flight handshake session (init → echo → finalize)."""

    OPEN = "open"
    VERIFIED = "verified"
    FINALIZED = "finalized"

    def __init__(
        self,
        handshake_id: str,
        marketplace: str,
        buyer: str,
        credential: AgentCredential,
        nonce: str,
        opened_at: float,
    ) -> None:
        self.handshake_id = handshake_id
        self.marketplace = marketplace
        self.buyer = buyer
        self.credential = credential
        self.nonce = nonce
        self.opened_at = opened_at
        self.state = self.OPEN

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TradeHandshake(id={self.handshake_id!r}, buyer={self.buyer!r}, "
            f"state={self.state!r})"
        )


class HandshakeBroker:
    """Runs the handshake protocol for one marketplace.

    The broker owns all protocol state: open sessions, the set of
    consumed nonces (a nonce answers exactly one challenge, ever), the
    finalized transcripts and the set of transcripts already redeemed
    for a trade (a transcript entitles its holder to exactly one).  A
    session lives until its transcript is redeemed: what the replay rules
    and the invariant auditor read afterwards is the transcript, the
    consumed nonce and the redeemed id, not the session or its credential.
    """

    def __init__(self, marketplace: str, auth: AuthenticationService) -> None:
        self.marketplace = marketplace
        self.auth = auth
        self._seq = itertools.count(1)
        self._sessions: Dict[str, TradeHandshake] = {}
        self._outstanding_nonces: Set[str] = set()
        self._consumed_nonces: Set[str] = set()
        self._redeemed: Set[str] = set()
        self.completed: Dict[str, HandshakeTranscript] = {}
        self.opened_count = 0
        self.finalized_count = 0
        self.redeemed_count = 0
        self.rejections: Dict[str, int] = {}

    # -- bookkeeping --------------------------------------------------------

    def _reject(self, code: str) -> None:
        self.rejections[code] = self.rejections.get(code, 0) + 1

    def _session(self, handshake_id: str) -> TradeHandshake:
        session = self._sessions.get(handshake_id)
        if session is None:
            self._reject("handshake")
            raise HandshakeError(
                f"unknown handshake {handshake_id!r} on {self.marketplace!r}"
            )
        return session

    def _fresh_nonce(self) -> str:
        # Duplicate-nonce drop: a nonce that was ever issued is never
        # issued again — a colliding draw is discarded and redrawn.
        nonce = self.auth.challenge()
        while nonce in self._consumed_nonces or nonce in self._outstanding_nonces:
            nonce = self.auth.challenge()
        return nonce

    def stats(self) -> Dict[str, float]:
        return {
            "opened": float(self.opened_count),
            "finalized": float(self.finalized_count),
            "redeemed": float(self.redeemed_count),
            "rejected": float(sum(self.rejections.values())),
        }

    # -- the protocol -------------------------------------------------------

    def open(
        self,
        buyer: str,
        now: float,
        credential: Optional[AgentCredential] = None,
    ) -> TradeHandshake:
        """Init step: verify the buyer's credential, issue the nonce challenge.

        With no ``credential`` the broker issues a fresh one (the honest
        path: the marketplace vouches for a buyer its auth service just
        credentialed).  A presented credential that is expired, revoked
        or mis-signed is refused with :class:`StaleCredentialError`.
        """
        if credential is None:
            credential = self.auth.issue(
                f"hs-{self.marketplace}-{buyer}", owner=buyer, now=now
            )
        try:
            self.auth.verify(credential, now)
        except AuthenticationError as exc:
            self._reject("stale-credential")
            raise StaleCredentialError(
                f"handshake refused on {self.marketplace!r}: {exc}"
            ) from exc
        handshake_id = f"handshake-{self.marketplace}-{next(self._seq)}"
        nonce = self._fresh_nonce()
        session = TradeHandshake(
            handshake_id=handshake_id,
            marketplace=self.marketplace,
            buyer=buyer,
            credential=credential,
            nonce=nonce,
            opened_at=now,
        )
        self._sessions[handshake_id] = session
        self._outstanding_nonces.add(nonce)
        self.opened_count += 1
        return session

    def exchange(
        self, handshake_id: str, nonce: str, response: str, now: float
    ) -> TradeHandshake:
        """Echo step: the buyer answers the challenge with HMAC(session_key, nonce).

        The echo must present the exact nonce this session was issued
        (anything else is a forgery), the nonce must never have answered
        a challenge before (a consumed nonce is a replayed offer), and
        the HMAC must prove possession of the credential's session key.
        """
        session = self._session(handshake_id)
        if session.state != TradeHandshake.OPEN:
            self._reject("handshake")
            raise HandshakeError(
                f"handshake {handshake_id!r} is {session.state}; cannot exchange"
            )
        if nonce in self._consumed_nonces:
            self._reject("replayed-offer")
            raise ReplayedOfferError(
                f"nonce {nonce!r} already answered a challenge on "
                f"{self.marketplace!r}; offer replay refused"
            )
        if nonce != session.nonce:
            self._reject("forged-nonce")
            raise ForgedNonceError(
                f"handshake {handshake_id!r} was challenged with a different "
                f"nonce; forged echo refused"
            )
        try:
            self.auth.verify_response(session.credential, nonce, response, now)
        except AuthenticationError as exc:
            self._reject("forged-nonce")
            raise ForgedNonceError(
                f"handshake {handshake_id!r} echo does not prove the session "
                f"key: {exc}"
            ) from exc
        self._outstanding_nonces.discard(nonce)
        self._consumed_nonces.add(nonce)
        session.state = TradeHandshake.VERIFIED
        return session

    def finalize(self, handshake_id: str, now: float) -> HandshakeTranscript:
        """Finalize step: seal the handshake into a one-trade transcript.

        Single-finalize rule: a handshake finalizes exactly once (the
        Snippet-2 discipline).
        """
        session = self._session(handshake_id)
        if session.state == TradeHandshake.FINALIZED:
            self._reject("double-finalize")
            raise DoubleFinalizeError(
                f"handshake {handshake_id!r} is already finalized"
            )
        if session.state != TradeHandshake.VERIFIED:
            self._reject("handshake")
            raise HandshakeError(
                f"handshake {handshake_id!r} cannot finalize before its nonce "
                f"echo is verified"
            )
        session.state = TradeHandshake.FINALIZED
        transcript = HandshakeTranscript(
            handshake_id=session.handshake_id,
            marketplace=self.marketplace,
            buyer=session.buyer,
            nonce=session.nonce,
            opened_at=session.opened_at,
            finalized_at=now,
        )
        self.completed[session.handshake_id] = transcript
        self.finalized_count += 1
        return transcript

    def perform(self, buyer: str, now: float) -> HandshakeTranscript:
        """The honest three-step flow, run to a finalized transcript."""
        session = self.open(buyer, now)
        response = AuthenticationService.respond(session.credential, session.nonce)
        self.exchange(session.handshake_id, session.nonce, response, now)
        return self.finalize(session.handshake_id, now)

    def redeem(self, transcript: HandshakeTranscript) -> HandshakeTranscript:
        """Spend a finalized transcript on one trade (exactly once)."""
        known = self.completed.get(transcript.handshake_id)
        if known is None or known != transcript:
            self._reject("handshake")
            raise HandshakeError(
                f"transcript {transcript.handshake_id!r} was never finalized "
                f"on {self.marketplace!r}"
            )
        if transcript.handshake_id in self._redeemed:
            self._reject("replayed-offer")
            raise ReplayedOfferError(
                f"transcript {transcript.handshake_id!r} was already redeemed "
                f"for a trade; offer replay refused"
            )
        self._redeemed.add(transcript.handshake_id)
        del self._sessions[transcript.handshake_id]
        self.redeemed_count += 1
        return transcript

    # -- the attack surface -------------------------------------------------

    def attempt(
        self, buyer: str, now: float, tamper: Optional[str] = None
    ) -> HandshakeTranscript:
        """Run a handshake, optionally sabotaged in one specific way.

        ``tamper=None`` is the honest flow.  Each mode in
        :data:`TAMPER_MODES` exercises exactly one protocol violation
        and raises its typed error — this is what the replay/forgery
        bots and the gateway's ``handshake`` probe call.
        """
        if tamper is not None and tamper not in TAMPER_MODES:
            raise HandshakeError(
                f"unknown tamper mode {tamper!r}; expected one of {TAMPER_MODES}"
            )
        replayed = self.perform(buyer, now).nonce if tamper == "replayed-offer" else None
        stale = None
        if tamper == "stale-credential":
            stale = self.auth.issue(
                f"hs-{self.marketplace}-{buyer}",
                owner=buyer,
                now=now - self.auth.credential_lifetime_ms - 1.0,
            )
        session = self.open(buyer, now, credential=stale)
        nonce = replayed or session.nonce
        if tamper == "forged-nonce":
            nonce = "0" * 32 if session.nonce == "f" * 32 else "f" * 32
        response = AuthenticationService.respond(session.credential, nonce)
        self.exchange(session.handshake_id, nonce, response, now)
        transcript = self.finalize(session.handshake_id, now)
        if tamper == "double-finalize":
            self.finalize(session.handshake_id, now)
        if tamper is not None:
            raise HandshakeError(  # pragma: no cover - a tamper step must raise
                f"{tamper} was unexpectedly accepted"
            )
        return transcript
