"""Fault-isolated spec execution: one process per attempt, typed failures.

The plain pool in :mod:`repro.experiments.parallel` is built for the happy
path — any worker exception aborts the whole grid (now at least wrapped
with the failing spec's context, see
:class:`~repro.experiments.parallel.SpecRunError`). Campaigns need the
opposite contract: one bad spec must not cost the other thousand. This
module executes each attempt in its *own* child process, so

- an exception inside a run becomes a typed :class:`SpecError` on that
  spec's outcome while every other spec keeps running;
- a hung run is killed at ``timeout`` seconds (the child holds no state
  anyone needs — results only exist once they arrive over the pipe);
- a retry really is a *fresh worker*: new process, no poisoned
  interpreter state from the failed attempt.

Determinism is unaffected: a run's outcome depends only on its spec (see
:mod:`repro.experiments.parallel`), so isolated results are field-for-field
equal to pool or serial results. The price is that per-worker memo warmth
(the stand-alone IPC cache) only carries *into* children via fork, not
between them — campaigns trade a little throughput for survivability.

When ``jobs`` resolves to 1 and no timeout is requested, specs run
in-process (exceptions are still caught per spec; only a hard crash of
the driver itself is fatal, and the campaign store makes that resumable).
"""

from __future__ import annotations

import time
import traceback
from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence

from repro.experiments.configs import MachineConfig
from repro.experiments.parallel import RunSpec, _pool_context, resolve_jobs
from repro.experiments.runner import WorkloadResult

__all__ = ["SpecError", "SpecOutcome", "iter_isolated", "run_in_process"]

#: Error types that identify a *deterministic* failure: the run would fail
#: identically in a fresh process, so retrying only burns attempts. An
#: InvariantViolation (repro.check) means the engine's internal state went
#: inconsistent — a bug to report, not a flake to retry.
NON_RETRYABLE_ERRORS = ("InvariantViolation",)


@dataclass(frozen=True)
class SpecError:
    """Why one attempt (or a whole spec, after retries) failed."""

    error_type: str
    message: str
    traceback: str = ""
    timed_out: bool = False


@dataclass(frozen=True)
class SpecOutcome:
    """Terminal state of one spec: a result, or the last attempt's error."""

    index: int
    spec: RunSpec
    result: Optional[WorkloadResult]
    error: Optional[SpecError]
    attempts: int
    wall_seconds: float

    @property
    def ok(self) -> bool:
        return self.result is not None


def run_in_process(
    spec: RunSpec, config: MachineConfig, retries: int = 0, index: int = 0
) -> SpecOutcome:
    """Run ``spec`` here, retrying up to ``retries`` times; never raises.

    The one in-process attempt loop: an exception becomes the outcome's
    :class:`SpecError`, and a :data:`NON_RETRYABLE_ERRORS` type stops
    the retries early. The serial campaign path and the herd worker both
    run specs through it.
    """
    error: Optional[SpecError] = None
    elapsed = 0.0
    for attempt in range(1, retries + 2):
        start = time.perf_counter()
        try:
            result = spec.run(config)
        except Exception as exc:
            elapsed = time.perf_counter() - start
            error = SpecError(
                error_type=type(exc).__name__,
                message=str(exc),
                traceback=traceback.format_exc(),
            )
            if error.error_type in NON_RETRYABLE_ERRORS:
                break  # deterministic failure: retrying cannot help
            continue
        return SpecOutcome(
            index=index,
            spec=spec,
            result=result,
            error=None,
            attempts=attempt,
            wall_seconds=time.perf_counter() - start,
        )
    return SpecOutcome(
        index=index,
        spec=spec,
        result=None,
        error=error,
        attempts=attempt,
        wall_seconds=elapsed,
    )


def _child_main(conn, spec: RunSpec, config: MachineConfig) -> None:
    """Child-process entry: run the spec, ship the outcome over the pipe."""
    start = time.perf_counter()
    try:
        result = spec.run(config)
        conn.send(("ok", result, time.perf_counter() - start))
    except BaseException as exc:  # everything, incl. KeyError/SystemExit
        conn.send(
            (
                "error",
                type(exc).__name__,
                str(exc),
                traceback.format_exc(),
                time.perf_counter() - start,
            )
        )
    finally:
        conn.close()


@dataclass
class _Attempt:
    index: int
    spec: RunSpec
    attempt: int  # 1-based
    process: object
    conn: object
    deadline: Optional[float]
    started: float


def iter_isolated(
    specs: Sequence[RunSpec],
    config: MachineConfig,
    jobs: Optional[int] = None,
    retries: int = 0,
    timeout: Optional[float] = None,
) -> Iterator[SpecOutcome]:
    """Execute specs with per-spec fault isolation, yielding as they finish.

    Args:
        specs: runs to execute.
        config: machine shared by every run.
        jobs: concurrent attempt processes (same resolution rules as
            :func:`~repro.experiments.parallel.resolve_jobs`).
        retries: extra attempts after a failed one, each in a fresh
            process (``0`` = one attempt total).
        timeout: per-attempt wall-clock limit in seconds; a timed-out
            child is SIGKILLed and the attempt counts as failed.

    Yields:
        One :class:`SpecOutcome` per spec, in completion order.
        ``wall_seconds`` covers the successful (or last) attempt only.
    """
    specs = list(specs)
    jobs = resolve_jobs(jobs)
    if not specs:
        return
    if jobs <= 1 and timeout is None:
        for index, spec in enumerate(specs):
            yield run_in_process(spec, config, retries, index=index)
        return

    from multiprocessing.connection import wait as conn_wait

    ctx = _pool_context()
    pending = [(index, spec, 1) for index, spec in enumerate(specs)]
    pending.reverse()  # pop() from the front of the original order
    running: List[_Attempt] = []

    def launch(index: int, spec: RunSpec, attempt: int) -> None:
        parent_conn, child_conn = ctx.Pipe(duplex=False)
        process = ctx.Process(
            target=_child_main, args=(child_conn, spec, config), daemon=True
        )
        process.start()
        child_conn.close()
        now = time.monotonic()
        running.append(
            _Attempt(
                index=index,
                spec=spec,
                attempt=attempt,
                process=process,
                conn=parent_conn,
                deadline=(now + timeout) if timeout is not None else None,
                started=now,
            )
        )

    def finish(attempt: _Attempt, payload, timed_out: bool = False):
        """Turn one attempt's payload (or lack of one) into error/result."""
        running.remove(attempt)
        attempt.conn.close()
        attempt.process.join()
        if timed_out:
            return None, SpecError(
                error_type="Timeout",
                message=f"exceeded {timeout:g}s wall-clock limit",
                timed_out=True,
            ), time.monotonic() - attempt.started
        if payload is None:  # died without sending (crash/SIGKILL)
            code = attempt.process.exitcode
            return None, SpecError(
                error_type="WorkerCrash",
                message=f"worker exited with code {code} before reporting",
            ), time.monotonic() - attempt.started
        if payload[0] == "ok":
            _, result, elapsed = payload
            return result, None, elapsed
        _, error_type, message, tb, elapsed = payload
        return None, SpecError(error_type=error_type, message=message, traceback=tb), elapsed

    try:
        while pending or running:
            while pending and len(running) < jobs:
                index, spec, attempt = pending.pop()
                launch(index, spec, attempt)

            now = time.monotonic()
            poll: Optional[float] = None
            if timeout is not None:
                nearest = min(a.deadline for a in running)
                poll = max(0.0, nearest - now)
            ready = conn_wait([a.conn for a in running], timeout=poll)

            finished = []
            for attempt in list(running):
                if attempt.conn in ready:
                    try:
                        payload = attempt.conn.recv()
                    except (EOFError, OSError):
                        payload = None
                    finished.append((attempt, payload, False))
                elif attempt.deadline is not None and time.monotonic() >= attempt.deadline:
                    attempt.process.kill()
                    finished.append((attempt, None, True))

            for attempt, payload, timed_out in finished:
                result, error, elapsed = finish(attempt, payload, timed_out)
                if result is not None:
                    yield SpecOutcome(
                        index=attempt.index,
                        spec=attempt.spec,
                        result=result,
                        error=None,
                        attempts=attempt.attempt,
                        wall_seconds=elapsed,
                    )
                elif (
                    attempt.attempt <= retries
                    and error.error_type not in NON_RETRYABLE_ERRORS
                ):
                    pending.append((attempt.index, attempt.spec, attempt.attempt + 1))
                else:
                    yield SpecOutcome(
                        index=attempt.index,
                        spec=attempt.spec,
                        result=None,
                        error=error,
                        attempts=attempt.attempt,
                        wall_seconds=elapsed,
                    )
    finally:
        for attempt in running:
            attempt.process.kill()
            attempt.conn.close()
        for attempt in running:
            attempt.process.join()
