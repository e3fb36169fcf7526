"""Deterministic infrastructure fault injection for the campaign stack.

The library injects faults into *networks* all day; this module injects
faults into *ourselves* — the executor, the journal, the persistence
layer — so the recovery paths the Bayesian assessment depends on are
exercised instead of trusted. A :class:`ChaosPlan` names the sites to
perturb (worker SIGKILL, dropped result-pipe messages, failing fsyncs,
torn journal tails, a full disk) with per-site rates, and the execution
stack consults :func:`should_fire` at each site.

Design constraints, in order:

* **Deterministic.** Every fire/no-fire decision is a pure function of
  ``(plan seed, site, coordinates)`` — a hash, not a live RNG — so a
  chaos run is reproducible from its seed and, crucially, *never touches
  the campaign RNG streams*: a campaign that completes under chaos is
  bit-identical to a clean run.
* **Free when off.** Sites compile to a module-global ``None`` check;
  nothing is imported, allocated, or hashed until a plan is installed.
* **Observable.** Every fired event counts into the attached
  :class:`~repro.obs.MetricsRegistry` (``chaos.fired.<site>``), emits a
  trace span, and publishes a ``chaos.fired`` progress event, so chaos
  runs are forensically reconstructable from their telemetry.

Coordinates: driver-side sites (journal/persist) key decisions off a
per-site visit counter; executor sites key off ``(task index, attempt)``
so the decision for a retry is independent of scheduling order and
identical whether evaluated in the driver or inside the worker process.
"""

from __future__ import annotations

import errno
import hashlib
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterable, Mapping

__all__ = [
    "SITES",
    "ChaosError",
    "ChaosRule",
    "ChaosPlan",
    "ChaosInjector",
    "active",
    "active_plan",
    "install",
    "uninstall",
    "chaos_enabled",
    "should_fire",
    "chaos_uniform",
    "disk_full_error",
]

#: every named injection site wired through the campaign stack
SITES = frozenset(
    {
        "worker.sigkill",      # worker process dies hard at task start
        "worker.hang",         # worker stalls past any reasonable deadline
        "worker.slow_start",   # worker stalls briefly before running
        "pipe.drop",           # a completed result message is discarded
        "pipe.duplicate",      # a completed result message is delivered twice
        "journal.fsync",       # journal fsync raises OSError (EIO)
        "journal.torn_tail",   # the just-appended record is truncated mid-line
        "journal.corrupt_tail",  # the just-appended record is bit-corrupted
        "disk.full",           # journal/persist writes raise ENOSPC
        "persist.fsync",       # atomic-write fsync raises OSError (EIO)
        "persist.replace",     # atomic-write os.replace raises OSError (EIO)
    }
)


class ChaosError(ValueError):
    """A chaos plan is malformed (unknown site, bad rate, bad syntax)."""


@dataclass(frozen=True)
class ChaosRule:
    """Fire policy for one site: probability per visit, capped fire count."""

    rate: float = 0.0
    #: maximum number of fires across the process lifetime (``None`` = unbounded)
    count: int | None = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.rate <= 1.0:
            raise ChaosError(f"chaos rate must be in [0, 1], got {self.rate}")
        if self.count is not None and self.count < 1:
            raise ChaosError(f"chaos count must be >= 1, got {self.count}")


@dataclass(frozen=True)
class ChaosPlan:
    """A frozen, picklable (site → rule) schedule plus the decision seed.

    Plans travel whole to worker processes, so worker-side sites
    (``worker.*``) make the same deterministic decisions the driver would.
    """

    rules: tuple[tuple[str, ChaosRule], ...] = ()
    seed: int = 0
    #: how long a ``worker.hang`` stalls (long enough to trip any timeout)
    hang_s: float = 3600.0
    #: how long a ``worker.slow_start`` stalls (short; exercises heartbeats)
    slow_start_s: float = 0.05

    def __post_init__(self) -> None:
        for site, rule in self.rules:
            if site not in SITES:
                raise ChaosError(f"unknown chaos site {site!r}; choose from {sorted(SITES)}")
            if not isinstance(rule, ChaosRule):
                raise ChaosError(f"site {site!r}: expected a ChaosRule, got {type(rule).__name__}")
        object.__setattr__(self, "rules", tuple(sorted(self.rules)))

    @classmethod
    def from_rates(
        cls, rates: Mapping[str, float | ChaosRule], seed: int = 0, **kwargs
    ) -> "ChaosPlan":
        """Build a plan from a plain ``{site: rate}`` (or rule) mapping."""
        rules = tuple(
            (site, rule if isinstance(rule, ChaosRule) else ChaosRule(rate=float(rule)))
            for site, rule in rates.items()
        )
        return cls(rules=rules, seed=seed, **kwargs)

    @classmethod
    def parse(cls, specs: Iterable[str] | str, seed: int = 0) -> "ChaosPlan":
        """Parse the CLI syntax ``site=rate[:count]``, comma- or list-separated.

        Example: ``worker.sigkill=0.3,journal.torn_tail=0.5:2``.
        """
        if isinstance(specs, str):
            specs = specs.split(",")
        rules: list[tuple[str, ChaosRule]] = []
        for item in specs:
            item = item.strip()
            if not item:
                continue
            site, _, value = item.partition("=")
            if not value:
                raise ChaosError(f"chaos spec {item!r} is not of the form site=rate[:count]")
            rate_text, _, count_text = value.partition(":")
            try:
                rate = float(rate_text)
                count = int(count_text) if count_text else None
            except ValueError as exc:
                raise ChaosError(f"chaos spec {item!r}: {exc}") from exc
            rules.append((site.strip(), ChaosRule(rate=rate, count=count)))
        return cls(rules=tuple(rules), seed=seed)

    def rule(self, site: str) -> ChaosRule | None:
        for name, rule in self.rules:
            if name == site:
                return rule
        return None

    def describe(self) -> str:
        return ",".join(
            f"{site}={rule.rate:g}" + (f":{rule.count}" if rule.count is not None else "")
            for site, rule in self.rules
        )


def chaos_uniform(seed: int, site: str, key: object) -> float:
    """Deterministic uniform in [0, 1) for one (seed, site, coordinate).

    A SHA-256 hash, not an RNG stream: no state, no ordering sensitivity,
    and no interaction with the campaign's ``RngFactory`` substreams.
    """
    digest = hashlib.sha256(f"chaos:{seed}:{site}:{key!r}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") / float(1 << 64)


class ChaosInjector:
    """Runtime decision engine for one installed :class:`ChaosPlan`.

    Thread-safe; one instance per process. Worker processes build their
    own from the plan the executor ships them.
    """

    def __init__(self, plan: ChaosPlan) -> None:
        self.plan = plan
        self._lock = threading.Lock()
        self._visits: dict[str, int] = {}
        self._fired: dict[str, int] = {}

    def should_fire(self, site: str, key: object = None) -> bool:
        """Decide (deterministically) whether ``site`` misbehaves this visit.

        ``key`` pins the decision to explicit coordinates (task index,
        attempt); without one, a per-site visit counter is used.
        """
        if site not in SITES:
            raise ChaosError(f"unknown chaos site {site!r}")
        rule = self.plan.rule(site)
        if rule is None or rule.rate <= 0.0:
            return False
        with self._lock:
            visit = self._visits.get(site, 0)
            self._visits[site] = visit + 1
            if rule.count is not None and self._fired.get(site, 0) >= rule.count:
                return False
            fire = chaos_uniform(self.plan.seed, site, key if key is not None else visit) < rule.rate
            if fire:
                self._fired[site] = self._fired.get(site, 0) + 1
        if fire:
            self._observe(site, key)
        return fire

    def _observe(self, site: str, key: object) -> None:
        """Route one fired event into the obs stack (metrics + trace + progress)."""
        import repro.obs as obs

        registry = obs.metrics()
        if registry is not None:
            registry.inc("chaos.fired")
            registry.inc(f"chaos.fired.{site}")
        with obs.span("chaos.fired", category="chaos", site=site, key=repr(key)):
            pass
        obs.publish("chaos.fired", site=site, key=repr(key))

    def fired(self) -> dict[str, int]:
        """Fire counts per site (telemetry / soak-harness assertions)."""
        with self._lock:
            return dict(sorted(self._fired.items()))

    def visits(self) -> dict[str, int]:
        with self._lock:
            return dict(sorted(self._visits.items()))

    def __repr__(self) -> str:
        return f"ChaosInjector(plan={self.plan.describe()!r}, fired={sum(self.fired().values())})"


# ---------------------------------------------------------------------- #
# process-global installation (apart from repro.obs.Session: chaos
# injects faults rather than observing them)
# ---------------------------------------------------------------------- #

_active: ChaosInjector | None = None


def active() -> ChaosInjector | None:
    """The installed injector, or ``None`` (chaos off — the default)."""
    return _active


def active_plan() -> ChaosPlan | None:
    """The installed plan, or ``None``; what the executor ships to workers."""
    return None if _active is None else _active.plan


def install(plan: ChaosPlan) -> ChaosInjector:
    """Install a plan process-wide; returns the live injector."""
    global _active
    _active = ChaosInjector(plan)
    return _active


def uninstall() -> None:
    """Disable chaos (every site back to a no-op)."""
    global _active
    _active = None


@contextmanager
def chaos_enabled(plan: ChaosPlan):
    """Scoped install — the test/soak-harness entry point."""
    injector = install(plan)
    try:
        yield injector
    finally:
        uninstall()


def should_fire(site: str, key: object = None) -> bool:
    """Module-level site hook: free (``None`` check) when chaos is off."""
    if _active is None:
        return False
    return _active.should_fire(site, key)


def disk_full_error(path: str) -> OSError:
    """The OSError a full disk raises (ENOSPC), for injection sites."""
    return OSError(errno.ENOSPC, "No space left on device (chaos)", path)
