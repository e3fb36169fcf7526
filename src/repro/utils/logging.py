"""Structured logging helpers.

A thin wrapper over :mod:`logging` that gives every subsystem a namespaced
logger (``repro.core``, ``repro.mcmc``, ...) with a consistent format, and a
single knob to raise verbosity for campaign debugging.
"""

from __future__ import annotations

import logging
import sys

__all__ = ["get_logger", "set_verbosity", "get_verbosity"]

_FORMAT = "%(asctime)s %(name)s %(levelname)s %(message)s"
_configured = False


def _configure_root() -> None:
    global _configured
    if _configured:
        return
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter(_FORMAT, datefmt="%H:%M:%S"))
    root = logging.getLogger("repro")
    root.addHandler(handler)
    root.setLevel(logging.WARNING)
    root.propagate = False
    _configured = True


def get_logger(name: str) -> logging.Logger:
    """Return the library logger for ``name`` (auto-prefixed with ``repro.``)."""
    _configure_root()
    if not name.startswith("repro"):
        name = f"repro.{name}"
    return logging.getLogger(name)


def set_verbosity(level: int | str) -> None:
    """Set the log level for the whole library (e.g. ``"INFO"`` or ``logging.DEBUG``)."""
    _configure_root()
    logging.getLogger("repro").setLevel(level)


def get_verbosity() -> int:
    """Current numeric log level of the library root logger.

    Executor workers spawn with default logging state; the driver ships
    this level to them (via :meth:`repro.obs.Session.worker_config`) so worker
    processes honour ``set_verbosity`` instead of silently dropping
    everything below WARNING.
    """
    _configure_root()
    return logging.getLogger("repro").level
