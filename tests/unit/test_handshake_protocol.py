"""Unit coverage for the trade handshake protocol and its typed rejections.

Pins the :class:`~repro.adversarial.handshake.HandshakeBroker` state
machine (init → nonce challenge → HMAC echo → finalize → one redeem)
and — per the adversarial-marketplace acceptance bar — that every way
the protocol can be abused raises its *own* typed error which
``classify_error`` maps to a *distinct, stable* code the gateway's
envelope taxonomy and ``api.auth.rejected.*`` counters key on.
"""

from __future__ import annotations

import random

import pytest

from repro.errors import (
    DoubleFinalizeError,
    ForgedNonceError,
    HandshakeError,
    ReplayedOfferError,
    StaleCredentialError,
)
from repro.agents.security import AuthenticationService
from repro.adversarial.handshake import (
    HandshakeBroker,
    TAMPER_MODES,
    TradeHandshake,
)
from repro.api.envelope import AUTH_REJECTION_CODES, classify_error


def _broker(seed: int = 3) -> HandshakeBroker:
    token = f"auth|{seed}|market-1"
    auth = AuthenticationService(
        "market-1", secret=token.encode("utf-8"), rng=random.Random(token)
    )
    return HandshakeBroker("market-1", auth)


class TestHonestFlow:
    def test_three_step_flow_produces_a_verified_transcript(self):
        broker = _broker()
        session = broker.open("alice", now=10.0)
        assert session.state == TradeHandshake.OPEN

        echo = AuthenticationService.respond(session.credential, session.nonce)
        broker.exchange(session.handshake_id, session.nonce, echo, now=11.0)
        assert session.state == TradeHandshake.VERIFIED

        transcript = broker.finalize(session.handshake_id, now=12.0)
        assert transcript.verified
        assert transcript.buyer == "alice"
        assert transcript.nonce == session.nonce
        assert broker.completed[transcript.handshake_id] == transcript

    def test_transcript_redeems_exactly_once(self):
        broker = _broker()
        transcript = broker.perform("alice", now=0.0)
        assert broker.redeem(transcript) == transcript
        with pytest.raises(ReplayedOfferError, match="already redeemed"):
            broker.redeem(transcript)
        assert broker.stats()["redeemed"] == 1.0

    def test_stats_count_the_whole_protocol(self):
        broker = _broker()
        for _ in range(3):
            broker.redeem(broker.perform("alice", now=0.0))
        assert broker.stats() == {
            "opened": 3.0,
            "finalized": 3.0,
            "redeemed": 3.0,
            "rejected": 0.0,
        }


class TestDuplicateNonceDrop:
    def test_colliding_nonce_draw_is_discarded_and_redrawn(self):
        broker = _broker()
        first = broker.perform("alice", now=0.0)

        # Force the auth service to re-draw the consumed nonce first: the
        # broker must discard it and keep drawing until a fresh one appears.
        draws = iter([first.nonce, first.nonce, "a" * 32])
        broker.auth.challenge = lambda: next(draws)
        session = broker.open("bob", now=1.0)
        assert session.nonce == "a" * 32

    def test_outstanding_nonce_is_never_reissued(self):
        broker = _broker()
        open_session = broker.open("alice", now=0.0)
        draws = iter([open_session.nonce, "b" * 32])
        broker.auth.challenge = lambda: next(draws)
        other = broker.open("bob", now=1.0)
        assert other.nonce == "b" * 32


class TestTypedRejections:
    def test_forged_nonce_echo_is_refused(self):
        broker = _broker()
        session = broker.open("mallory", now=0.0)
        forged = "f" * 32 if session.nonce != "f" * 32 else "0" * 32
        echo = AuthenticationService.respond(session.credential, forged)
        with pytest.raises(ForgedNonceError, match="different"):
            broker.exchange(session.handshake_id, forged, echo, now=1.0)

    def test_correct_nonce_with_wrong_key_is_a_forgery(self):
        broker = _broker()
        session = broker.open("mallory", now=0.0)
        with pytest.raises(ForgedNonceError, match="session"):
            broker.exchange(
                session.handshake_id, session.nonce, "0" * 64, now=1.0
            )

    def test_consumed_nonce_is_a_replayed_offer_even_on_a_new_session(self):
        broker = _broker()
        first = broker.perform("alice", now=0.0)
        second = broker.open("mallory", now=1.0)
        replay = AuthenticationService.respond(second.credential, first.nonce)
        # The replay check fires before the nonce-match check: a consumed
        # nonce names the attack precisely instead of degrading to forgery.
        with pytest.raises(ReplayedOfferError, match="already answered"):
            broker.exchange(second.handshake_id, first.nonce, replay, now=1.0)

    def test_double_finalize_is_refused(self):
        broker = _broker()
        session = broker.open("mallory", now=0.0)
        echo = AuthenticationService.respond(session.credential, session.nonce)
        broker.exchange(session.handshake_id, session.nonce, echo, now=1.0)
        broker.finalize(session.handshake_id, now=2.0)
        with pytest.raises(DoubleFinalizeError, match="already finalized"):
            broker.finalize(session.handshake_id, now=3.0)

    def test_stale_credential_is_refused_at_open(self):
        broker = _broker()
        expired = broker.auth.issue(
            "hs-market-1-mallory",
            owner="mallory",
            now=-broker.auth.credential_lifetime_ms - 1.0,
        )
        with pytest.raises(StaleCredentialError, match="refused"):
            broker.open("mallory", now=0.0, credential=expired)

    def test_finalize_before_echo_is_a_generic_handshake_error(self):
        broker = _broker()
        session = broker.open("alice", now=0.0)
        with pytest.raises(HandshakeError, match="cannot finalize"):
            broker.finalize(session.handshake_id, now=1.0)

    def test_unknown_handshake_and_unknown_transcript_are_refused(self):
        broker = _broker()
        with pytest.raises(HandshakeError, match="unknown handshake"):
            broker.exchange("handshake-nowhere-9", "n", "r", now=0.0)
        foreign = _broker(seed=4).perform("alice", now=0.0)
        with pytest.raises(HandshakeError, match="never finalized"):
            broker.redeem(foreign)

    def test_rejections_are_tallied_by_code(self):
        broker = _broker()
        for tamper in TAMPER_MODES:
            with pytest.raises(HandshakeError):
                broker.attempt("mallory", now=0.0, tamper=tamper)
        assert broker.rejections == {code: 1 for code in TAMPER_MODES}

    def test_unknown_tamper_mode_is_refused(self):
        broker = _broker()
        with pytest.raises(HandshakeError, match="unknown tamper mode"):
            broker.attempt("mallory", now=0.0, tamper="bribery")


class TestAttemptRaisesTheMatchingTypedError:
    """``attempt`` is the attack surface: one tamper mode, one exact error."""

    @pytest.mark.parametrize(
        "tamper, exc_type",
        [
            ("forged-nonce", ForgedNonceError),
            ("replayed-offer", ReplayedOfferError),
            ("double-finalize", DoubleFinalizeError),
            ("stale-credential", StaleCredentialError),
        ],
    )
    def test_each_mode_raises_its_own_error(self, tamper, exc_type):
        broker = _broker()
        with pytest.raises(exc_type):
            broker.attempt("mallory", now=0.0, tamper=tamper)

    def test_honest_attempt_finalizes(self):
        broker = _broker()
        transcript = broker.attempt("alice", now=0.0, tamper=None)
        assert transcript.verified


class TestTaxonomyPins:
    """The stable (exception → code/kind) pins the acceptance bar names."""

    @pytest.mark.parametrize(
        "exc, code, kind",
        [
            (ForgedNonceError("x"), "forged-nonce", "ForgedNonceError"),
            (ReplayedOfferError("x"), "replayed-offer", "ReplayedOfferError"),
            (DoubleFinalizeError("x"), "double-finalize", "DoubleFinalizeError"),
            (StaleCredentialError("x"), "stale-credential", "StaleCredentialError"),
            (HandshakeError("x"), "handshake", "HandshakeError"),
        ],
    )
    def test_each_rejection_maps_to_a_distinct_stable_code(self, exc, code, kind):
        error = classify_error(exc)
        assert error.code == code
        assert error.kind == kind
        assert error.retryable is False
        assert code in AUTH_REJECTION_CODES

    def test_tamper_modes_cover_distinct_codes(self):
        codes = {classify_error(exc).code for exc in (
            ForgedNonceError("x"),
            ReplayedOfferError("x"),
            DoubleFinalizeError("x"),
            StaleCredentialError("x"),
        )}
        assert codes == set(TAMPER_MODES)
        assert len(codes) == 4
