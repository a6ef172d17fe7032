"""Scheduling-as-a-service: async jobs, result cache, crash recovery.

The ``repro.service`` subsystem turns the schedulers into a long-running
service (docs/service.md):

* :class:`JobStore` — a durable submit/status/result/cancel queue whose
  every state transition is journaled crash-safe and whose results live
  in a content-addressed on-disk cache (:mod:`repro.service.jobstore`);
* :func:`cache_key` — the canonical content hash identifying a job:
  identical problems (modulo whitespace/comments) with identical options
  hit the same cached, byte-identical payload
  (:mod:`repro.service.cachekey`);
* :class:`ServiceServer` / :func:`serve` — the stdlib-HTTP ``repro
  serve`` daemon, TCP or unix-socket (:mod:`repro.service.server`);
* :class:`ServiceClient` — the matching thin client
  (:mod:`repro.service.client`);
* :class:`LocalSession` / :class:`RemoteSession` — the shared execution
  surface the CLI commands run on (:mod:`repro.service.session`).

``repro serve --state DIR`` starts the daemon; ``repro --server ADDR
schedule|sweep|certify`` turns those commands into thin clients;
``repro jobs --server ADDR`` inspects and watches the queue.
"""

from .._lazy import attach

_EXPORTS = {
    "cachekey": ["CACHE_KEY_FORMAT", "cache_key", "canonical_problem_text"],
    "client": ["ServiceClient"],
    "jobstore": [
        "JOB_KINDS",
        "JobCancelled",
        "JobRecord",
        "JobSpec",
        "JobStore",
        "QueueFullError",
        "ServiceError",
        "UnknownJobError",
    ],
    "runner": ["PAYLOAD_FORMAT", "RunContext", "execute_job", "validate_options"],
    "server": ["ServiceServer", "serve"],
    "session": ["JobOutcome", "LocalSession", "RemoteSession", "Session"],
}

__getattr__, __dir__, __all__ = attach(__name__, _EXPORTS)
