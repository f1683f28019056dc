"""Accounts, certificates and billing — the Globus contrast (§2).

The paper's critique: Globus needs per-user accounts created by an
administrator and certificates from a CA, which is "a daunting task
indeed" at consumer scale; Triana instead runs everything under one
*virtual account* per resource, with "a daemon informing the CA of the
resources available.  The shell would also maintain billing information
for resources used."

This module implements both worlds so experiment E9 can count the
administrative operations each needs:

* :class:`CertificateAuthority` + :class:`Credential` — Globus-style PKI;
* :class:`GlobusAccountManager` — one admin-created account per user;
* :class:`VirtualAccountManager` — one shared account, per-user billing.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..simkernel.rng import stable_hash
from .errors import ResourceError

__all__ = [
    "Credential",
    "CertificateAuthority",
    "GlobusAccountManager",
    "VirtualAccountManager",
    "UsageRecord",
]


@dataclass(frozen=True)
class Credential:
    """A signed identity assertion (public-key certificate stand-in)."""

    subject: str
    issuer: str
    expires_at: float
    signature: int


class CertificateAuthority:
    """A toy CA: issues signed credentials and counts them.

    The signature is a keyed hash over the certificate fields, a stand-in
    for real crypto: E9 counts the certificates, it never checks one.
    """

    def __init__(self, name: str, secret: int = 0xC0FFEE):
        self.name = name
        self._secret = secret
        self.issued = 0

    def _sign(self, subject: str, expires_at: float) -> int:
        return stable_hash(f"{self.name}|{subject}|{expires_at}|{self._secret}")

    def issue(self, subject: str, now: float, lifetime: float = 3.15e7) -> Credential:
        self.issued += 1
        expires = now + lifetime
        return Credential(subject, self.name, expires, self._sign(subject, expires))


@dataclass
class UsageRecord:
    """Billing line: cpu-seconds consumed by one principal."""

    principal: str
    cpu_seconds: float = 0.0
    jobs: int = 0


class GlobusAccountManager:
    """Per-user accounts that an administrator must create explicitly.

    "Administrators with resources that they are willing to make
    available have to create accounts explicitly for Globus users."
    """

    def __init__(self, ca: CertificateAuthority):
        self.ca = ca
        self.accounts: dict[str, UsageRecord] = {}
        self.admin_operations = 0

    def create_account(self, user: str) -> None:
        if user in self.accounts:
            raise ResourceError(f"account {user!r} already exists")
        self.admin_operations += 1
        self.accounts[user] = UsageRecord(principal=user)


class VirtualAccountManager:
    """One shared account per resource; per-user billing lines only.

    "This functionality would perhaps be best served by the creation of a
    single Globus account ... The shell would also maintain billing
    information for resources used."  Enrolment is self-service —
    zero administrator operations per user.
    """

    def __init__(self, resource_name: str):
        self.resource_name = resource_name
        self.admin_operations = 1  # installing the service daemon, once
        self.billing: dict[str, UsageRecord] = {}

    def authorise(self, user: str) -> UsageRecord:
        """Any user may run; a billing record appears on first use."""
        if user not in self.billing:
            self.billing[user] = UsageRecord(principal=user)
        return self.billing[user]

    def charge(self, user: str, cpu_seconds: float) -> None:
        record = self.authorise(user)
        record.cpu_seconds += cpu_seconds
        record.jobs += 1
