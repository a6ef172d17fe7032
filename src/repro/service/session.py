"""Sessions: one execution surface for local and remote scheduling.

The CLI's ``schedule``/``sweep``/``certify`` commands run through a
:class:`Session`: :class:`LocalSession` owns a private
:class:`~repro.service.jobstore.JobStore` and executes jobs inline
(still journaled and cached when given a persistent ``state_dir``),
while :class:`RemoteSession` submits the same specs to a ``repro
serve`` daemon over :class:`~repro.service.client.ServiceClient` and
waits for the result.  Both return the identical
:class:`JobOutcome` — payload parsed from the *cached bytes*, so a
command's output is byte-grounded in the same artifact either way and
``repro --server ADDR`` is a thin client by construction.
"""

from __future__ import annotations

import json
import tempfile
from typing import Any, Dict, Mapping, Optional

from .jobstore import JobStore, ServiceError


class JobOutcome:
    """One finished job: its payload plus how it was obtained."""

    __slots__ = ("job_id", "payload", "raw", "cached")

    def __init__(
        self, job_id: str, raw: bytes, *, cached: bool
    ) -> None:
        self.job_id = job_id
        self.raw = raw
        self.cached = cached
        try:
            self.payload: Dict[str, object] = json.loads(raw.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as exc:
            raise ServiceError(
                f"job {job_id} returned a malformed payload: {exc}"
            ) from exc


class Session:
    """Abstract execution surface; see the concrete sessions below."""

    def run(
        self,
        kind: str,
        problem_text: str,
        options: Optional[Mapping[str, object]] = None,
        fault: Optional[str] = None,
    ) -> JobOutcome:
        raise NotImplementedError

    def schedule(
        self,
        problem_text: str,
        options: Optional[Mapping[str, object]] = None,
    ) -> JobOutcome:
        return self.run("schedule", problem_text, options)

    def sweep(
        self,
        problem_text: str,
        options: Optional[Mapping[str, object]] = None,
    ) -> JobOutcome:
        return self.run("sweep", problem_text, options)

    def certify(
        self,
        problem_text: str,
        options: Optional[Mapping[str, object]] = None,
    ) -> JobOutcome:
        return self.run("certify", problem_text, options)

    def close(self) -> None:  # pragma: no cover - overridden where needed
        pass

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class LocalSession(Session):
    """Runs jobs inline through a private :class:`JobStore`.

    With a persistent ``state_dir`` the session gets the full service
    semantics — durable journal, content-addressed cache (a rerun of
    the same command is answered from disk), sweep-journal resume.
    Without one, state lives in a throwaway temporary directory.
    """

    def __init__(
        self,
        state_dir: Optional[str] = None,
        **store_kwargs: Any,
    ) -> None:
        self._tempdir: Optional[tempfile.TemporaryDirectory] = None
        if state_dir is None:
            self._tempdir = tempfile.TemporaryDirectory(prefix="repro-job-")
            state_dir = self._tempdir.name
        self.store = JobStore(state_dir, **store_kwargs)
        self.store.recover()

    def run(
        self,
        kind: str,
        problem_text: str,
        options: Optional[Mapping[str, object]] = None,
        fault: Optional[str] = None,
    ) -> JobOutcome:
        record, hit = self.store.submit(kind, problem_text, options, fault)
        if not hit:
            self.store.run_until_idle()
            record = self.store.wait(record.job_id, timeout=0)
        if record.state != "done":
            raise ServiceError(
                f"{kind} job {record.job_id[:16]} {record.state}"
                + (f": {record.error}" if record.error else "")
            )
        return JobOutcome(
            record.job_id,
            self.store.result_bytes(record.job_id),
            cached=hit,
        )

    def close(self) -> None:
        self.store.close()
        if self._tempdir is not None:
            self._tempdir.cleanup()
            self._tempdir: Optional[tempfile.TemporaryDirectory] = None


class RemoteSession(Session):
    """Submits jobs to a running ``repro serve`` daemon and waits."""

    def __init__(
        self,
        address: str,
        *,
        timeout: Optional[float] = None,
        poll: float = 0.1,
    ) -> None:
        from .client import ServiceClient

        self.client = ServiceClient(address)
        self.timeout = timeout
        self.poll = poll

    def run(
        self,
        kind: str,
        problem_text: str,
        options: Optional[Mapping[str, object]] = None,
        fault: Optional[str] = None,
    ) -> JobOutcome:
        status = self.client.submit(kind, problem_text, options, fault)
        job_id = str(status["job"])
        hit = bool(status.get("cached"))
        if status.get("state") != "done":
            status = self.client.wait(
                job_id, timeout=self.timeout, poll=self.poll
            )
        if status.get("state") != "done":
            error = status.get("error")
            raise ServiceError(
                f"{kind} job {job_id[:16]} {status.get('state')}"
                + (f": {error}" if error else "")
            )
        return JobOutcome(
            job_id, self.client.result_bytes(job_id), cached=hit
        )
