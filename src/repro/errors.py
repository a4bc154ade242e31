"""Errors a request causes by itself.

A malformed query, an unknown class label or an option value outside
its domain is wrong on its face: retrying never helps, and the endpoint
that rejected it is healthy. Every input check on a read path raises a
subclass of :class:`InvalidRequest`, so the serving tier tells these
apart from failures by type (:func:`repro.server.errors.is_request_error`)
— not by message, and without exempting ``ValueError`` or ``KeyError``
wholesale, which would hide a genuine evaluator bug.

The concrete classes keep the builtin base the check raised before, so
``except ValueError`` / ``except KeyError`` callers are unaffected.
"""

import re


class InvalidRequest(Exception):
    """Base class of every error a request causes by itself."""


class InvalidOption(InvalidRequest, ValueError):
    """An option value outside its domain (e.g. a lineage direction)."""


class UnknownName(InvalidRequest, KeyError):
    """A name or label that resolves to nothing (e.g. a class filter)."""


class InvalidPattern(InvalidOption, re.error):
    """A malformed regular expression (e.g. a search term in regex mode)."""
