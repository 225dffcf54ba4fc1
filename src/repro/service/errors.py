"""The service's error vocabulary: exceptions that map to HTTP responses.

Handlers raise these anywhere below the HTTP layer; the request handler
catches :class:`ServiceError` and renders ``{"error": <code>, "message":
<str(exc)>}`` with the class's status — so route code never touches status
codes or response formatting.
"""

from __future__ import annotations

__all__ = [
    "ServiceError",
    "BadRequest",
    "NotFound",
    "MethodNotAllowed",
    "Conflict",
    "PayloadTooLarge",
]


class ServiceError(Exception):
    """Base of every error the service turns into an HTTP error response."""

    status = 500
    code = "internal"


class BadRequest(ServiceError):
    """The request body or parameters are malformed (HTTP 400)."""

    status = 400
    code = "bad-request"


class NotFound(ServiceError):
    """No such route or job (HTTP 404)."""

    status = 404
    code = "not-found"


class MethodNotAllowed(ServiceError):
    """The route exists but not for this HTTP method (HTTP 405)."""

    status = 405
    code = "method-not-allowed"


class Conflict(ServiceError):
    """The job is not in a state that allows the request (HTTP 409)."""

    status = 409
    code = "conflict"


class PayloadTooLarge(ServiceError):
    """The request body exceeds the service's size limit (HTTP 413)."""

    status = 413
    code = "payload-too-large"
