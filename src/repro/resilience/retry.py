"""One retry policy — jittered exponential backoff — for every layer.

The service client, store I/O and transient stage failures all retry
through the same :class:`RetryPolicy`, replacing the previous ad-hoc busy
loops and bare re-raises.  The policy is a frozen value: delays are a
pure function of the attempt index (plus deterministic jitter when seeded),
so a chaos test can assert the exact backoff schedule.

Jitter pulls each delay *down* by up to ``jitter`` of its nominal value
(decorrelating a thundering herd without ever exceeding the exponential
envelope), and delays are capped at ``max_delay``.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Optional, Tuple, Type

from repro.seeding import derive_seed

_DRAW_SPACE = float(2**31 - 1)


class TransientError(RuntimeError):
    """A failure the caller believes a retry can recover from.

    Raised by code that wants a :class:`RetryPolicy` wrapper above it to
    retry without widening the retryable set to all exceptions.
    """


class RetryExhausted(RuntimeError):
    """Every attempt of a retried operation failed (chains the last error)."""


@dataclass(frozen=True)
class RetryPolicy:
    """Jittered exponential backoff.

    Attributes:
        attempts: Total tries, including the first (1 = no retries).
        base_delay: Delay before the first retry, in seconds.
        multiplier: Exponential growth factor per retry.
        max_delay: Upper bound on any single delay.
        jitter: Fraction of each delay randomized away (0 disables jitter,
            0.5 means delays land in ``[0.5 * d, d]``).
        seed: When set, jitter derives deterministically from
            ``(seed, salt, attempt)`` via :func:`repro.seeding.derive_seed`;
            when None, :mod:`random` supplies it (sleep lengths never
            influence computed results, so unseeded jitter stays
            reproducibility-safe).
    """

    attempts: int = 3
    base_delay: float = 0.05
    multiplier: float = 2.0
    max_delay: float = 2.0
    jitter: float = 0.5
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        if self.attempts < 1:
            raise ValueError("attempts must be at least 1")
        if self.base_delay < 0 or self.max_delay < 0:
            raise ValueError("delays must be non-negative")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must be in [0, 1]")
        if self.multiplier < 1.0:
            raise ValueError("multiplier must be >= 1")

    def delay(self, attempt: int, salt: str = "") -> float:
        """The backoff before retry number ``attempt`` (0-based)."""
        nominal = min(
            self.max_delay, self.base_delay * self.multiplier ** int(attempt)
        )
        if self.jitter <= 0.0 or nominal <= 0.0:
            return nominal
        if self.seed is None:
            fraction = random.random()
        else:
            fraction = (
                derive_seed(self.seed, "retry", salt, int(attempt)) / _DRAW_SPACE
            )
        return nominal * (1.0 - self.jitter * fraction)

    def delays(self, salt: str = "") -> Iterator[float]:
        """The finite backoff schedule (one delay per retry)."""
        for attempt in range(self.attempts - 1):
            yield self.delay(attempt, salt)

    def call(
        self,
        operation: Callable[[int], Any],
        retry_on: Tuple[Type[BaseException], ...] = (TransientError,),
        salt: str = "",
        sleep: Callable[[float], None] = time.sleep,
        on_retry: Optional[Callable[[int, BaseException], None]] = None,
    ) -> Any:
        """Run ``operation(attempt)`` with retries.

        The attempt index is passed to the operation so downstream fault
        hooks (and logging) can key on it.  Exceptions outside ``retry_on``
        propagate immediately; the final failure propagates as-is after the
        last attempt.
        """
        last: Optional[BaseException] = None
        for attempt in range(self.attempts):
            try:
                return operation(attempt)
            except retry_on as exc:
                last = exc
                if attempt == self.attempts - 1:
                    raise
                # Lazy import: metrics depend on nothing, but keeping the
                # observability layer out of this module's import graph
                # means a stripped-down deployment can drop repro.obs.
                from repro.obs.metrics import note_retry

                note_retry()
                if on_retry is not None:
                    on_retry(attempt, exc)
                pause = self.delay(attempt, salt)
                if pause > 0:
                    sleep(pause)
        raise RetryExhausted("retry loop fell through") from last  # pragma: no cover


#: Store I/O retries: quick, local disk — short delays, a few attempts.
STORE_RETRY = RetryPolicy(attempts=3, base_delay=0.01, max_delay=0.1)

#: Transient stage failures inside a job (injected faults, marked transients).
STAGE_RETRY = RetryPolicy(attempts=3, base_delay=0.01, max_delay=0.25)

#: Client transport/backpressure retries (connection drops, 429 busy).
CLIENT_RETRY = RetryPolicy(attempts=4, base_delay=0.1, max_delay=2.0)
