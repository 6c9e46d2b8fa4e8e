"""Typed fluent client for the simulation job service.

:class:`Session` talks to a running ``repro serve`` instance; campaigns
are built fluently and jobs are queried through chainable lazy
collections.  See :mod:`repro.client.session` for the full tour and
docs/SERVICE.md for the quickstart.
"""

from repro.client.session import (
    Campaign,
    CampaignBuilder,
    Job,
    JobCollection,
    JobEvent,
    ServiceError,
    Session,
    StreamInterrupted,
    TransportError,
)

__all__ = [
    "Campaign",
    "CampaignBuilder",
    "Job",
    "JobCollection",
    "JobEvent",
    "ServiceError",
    "Session",
    "StreamInterrupted",
    "TransportError",
]
