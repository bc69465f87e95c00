"""Errors shared by the evaluator and SUT adapters."""

from __future__ import annotations


class EvalError(Exception):
    """EMR evaluation failed for a structural reason (not a SUT fault): a
    non-boolean operand, an unbound stub, an ill-formed construct."""


class AdapterFailure(Exception):
    """The SUT session failed to execute an action."""


class RunAborted(OSError):
    """A recorded run's cassette line could not be written: it ends the run, not one pair."""
