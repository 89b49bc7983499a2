"""Authentication of mobile agents returning to their home server.

Principle 2 of §4.1: "MBA must authenticate itself to BSMA when MBA finishes
its work and migrates back to the recommendation mechanism."  Future-work item
4 asks for a stronger mechanism.  This module implements both:

- a **credential scheme**: before dispatch the home server issues the MBA an
  HMAC-signed credential binding the agent id, its owner and an expiry time;
  on return the server verifies the signature and freshness;
- an optional **challenge/response** step (the future-work hardening): the
  returning agent must answer a nonce challenge with an HMAC keyed by the
  credential's session key, proving it still holds the secret it left with.
"""

from __future__ import annotations

import hashlib
import hmac
import random
import secrets
from dataclasses import dataclass, field
from typing import Optional

from repro.errors import AuthenticationError
from repro.wire import WireValue

__all__ = ["AgentCredential", "AuthenticationService"]


@dataclass(frozen=True)
class AgentCredential(WireValue):
    """Signed credential issued to a mobile agent before dispatch."""

    agent_id: str
    owner: str
    issued_at: float
    expires_at: float
    session_key: str
    signature: str

    def is_expired(self, now: float) -> bool:
        return now > self.expires_at


class AuthenticationService:
    """Issues and verifies credentials for mobile agents (one per home server).

    By default the signing secret and the per-credential tokens draw from
    OS entropy (``secrets``), which is fine for a standalone service but
    breaks same-seed reproducibility of anything that stores a session key
    or nonce.  A simulated platform therefore passes both a derived
    ``secret`` *and* a seeded ``rng``: the tokens then come from the RNG
    (same 32-hex-char shape as ``secrets.token_hex(16)``) and an identical
    seed yields an identical credential/nonce stream.
    """

    def __init__(self, server_name: str, secret: Optional[bytes] = None,
                 credential_lifetime_ms: float = 600_000.0,
                 rng: Optional[random.Random] = None) -> None:
        self.server_name = server_name
        self._secret = secret if secret is not None else secrets.token_bytes(32)
        self.credential_lifetime_ms = credential_lifetime_ms
        self._rng = rng
        self._revoked: set = set()
        self.issued_count = 0
        self.verified_count = 0
        self.rejected_count = 0

    def _token(self) -> str:
        """A fresh 128-bit token, deterministic when a seeded RNG was given."""
        if self._rng is not None:
            return "%032x" % self._rng.getrandbits(128)
        return secrets.token_hex(16)

    # -- issuing ------------------------------------------------------------

    def _sign(self, agent_id: str, owner: str, issued_at: float, expires_at: float,
              session_key: str) -> str:
        material = f"{self.server_name}|{agent_id}|{owner}|{issued_at}|{expires_at}|{session_key}"
        return hmac.new(self._secret, material.encode("utf-8"), hashlib.sha256).hexdigest()

    def issue(self, agent_id: str, owner: str, now: float) -> AgentCredential:
        """Issue a fresh credential for ``agent_id`` owned by ``owner``."""
        session_key = self._token()
        expires_at = now + self.credential_lifetime_ms
        signature = self._sign(agent_id, owner, now, expires_at, session_key)
        credential = AgentCredential(
            agent_id=agent_id,
            owner=owner,
            issued_at=now,
            expires_at=expires_at,
            session_key=session_key,
            signature=signature,
        )
        self.issued_count += 1
        return credential

    def revoke(self, agent_id: str) -> None:
        """Revoke any credential issued to ``agent_id``."""
        self._revoked.add(agent_id)

    # -- verification -------------------------------------------------------

    def verify(self, credential: AgentCredential, now: float) -> bool:
        """Verify a returning agent's credential; raise on any failure."""
        if credential.agent_id in self._revoked:
            self.rejected_count += 1
            raise AuthenticationError(
                f"credential for agent {credential.agent_id!r} has been revoked"
            )
        if credential.is_expired(now):
            self.rejected_count += 1
            raise AuthenticationError(
                f"credential for agent {credential.agent_id!r} expired at "
                f"{credential.expires_at:.1f}ms (now {now:.1f}ms)"
            )
        expected = self._sign(
            credential.agent_id,
            credential.owner,
            credential.issued_at,
            credential.expires_at,
            credential.session_key,
        )
        if not hmac.compare_digest(expected, credential.signature):
            self.rejected_count += 1
            raise AuthenticationError(
                f"credential signature mismatch for agent {credential.agent_id!r}"
            )
        self.verified_count += 1
        return True

    # -- challenge / response (future-work hardening) ------------------------

    def challenge(self) -> str:
        """Produce a fresh nonce for the challenge/response exchange."""
        return self._token()

    @staticmethod
    def respond(credential: AgentCredential, challenge: str) -> str:
        """Compute the response an agent must give for ``challenge``."""
        return hmac.new(
            credential.session_key.encode("utf-8"),
            challenge.encode("utf-8"),
            hashlib.sha256,
        ).hexdigest()

    def verify_response(
        self, credential: AgentCredential, challenge: str, response: str, now: float
    ) -> bool:
        """Verify the challenge/response pair on top of the credential check."""
        self.verify(credential, now)
        expected = self.respond(credential, challenge)
        if not hmac.compare_digest(expected, response):
            self.rejected_count += 1
            raise AuthenticationError(
                f"challenge/response failed for agent {credential.agent_id!r}"
            )
        return True
