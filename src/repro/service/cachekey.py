"""Content-addressed identity of scheduling-service jobs.

A job's :func:`cache_key` is a SHA-256 over a canonical JSON envelope of
*what is being computed*: the job kind, the problem in canonical ``.sys``
form, and the scheduler options.  Two submissions with the same key are
the same computation — the schedulers are deterministic — so the service
answers the second one from its result cache with byte-identical payload
bytes instead of rescheduling.

Canonicalization is a parse→re-emit round trip
(:func:`canonical_problem_text`): comments, blank lines, indentation,
and directive spelling variations disappear, and the emitted directive
order is a function of the parsed document alone.  Texts that differ
only in whitespace or comments therefore hash identically, while any
*semantic* change — a period, a deadline, a resource's latency or area,
a scope group, an extra edge — changes the canonical text and with it
the key.  Reordering operations or edges is deliberately **not**
normalized away: graph construction order feeds the schedulers'
deterministic tie-breaks, so differently-ordered texts are genuinely
different computations.

The option dict is canonicalized by a JSON round trip with sorted keys,
then validated against its kind's whitelist, with each value in its
declared type and every option equal to its default left out
(:func:`repro.service.runner.normalize_options`).  Options that do not
affect the result (observability toggles, fault directives for the
chaos harness) must be kept out of the options dict by the caller —
:mod:`repro.service.jobstore` does.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, Mapping, Optional

from ..errors import SpecificationError

__all__ = [
    "CACHE_KEY_FORMAT",
    "cache_key",
    "canonical_options",
    "canonical_problem_text",
    "key_of_canonical",
]

#: Version tag folded into every key; bump on incompatible envelope or
#: payload changes so stale caches miss instead of replaying old bytes.
CACHE_KEY_FORMAT = "repro-job/1"


def canonical_problem_text(text: str) -> str:
    """The canonical ``.sys`` spelling of ``text`` (parse + re-emit).

    Raises the parser's own ``SPEC``/``GRAPH``-coded errors for invalid
    input — an unparseable problem has no canonical form and no key.
    """
    from ..api import dumps_problem, loads_problem

    return dumps_problem(loads_problem(text))


def canonical_options(
    kind: str, options: Optional[Mapping[str, object]]
) -> Dict[str, object]:
    """The options of a ``kind`` job as its key hashes them.

    A JSON round trip gives a plain, comparable copy and rejects values
    JSON cannot express; validation then rejects unknown or ill-typed
    options, and defaults are left out, so spellings of the same
    computation share one key.
    """
    from .runner import normalize_options

    if not options:
        return {}
    try:
        plain = json.loads(json.dumps(dict(options), sort_keys=True))
    except (TypeError, ValueError) as exc:
        raise SpecificationError(
            f"job options are not JSON-serializable: {exc}"
        ) from exc
    return normalize_options(kind, plain)


def cache_key(
    kind: str,
    problem_text: str,
    options: Optional[Mapping[str, object]] = None,
) -> str:
    """The content hash identifying one service job.

    ``kind`` is the job kind (``schedule`` / ``sweep`` / ``certify``),
    ``problem_text`` any ``.sys`` spelling of the problem (periods and
    the resource library live inside it), ``options`` the
    result-affecting scheduler options.
    """
    return key_of_canonical(
        kind,
        canonical_problem_text(problem_text),
        canonical_options(kind, options),
    )


def key_of_canonical(
    kind: str, canonical_text: str, canonical_opts: Mapping[str, object]
) -> str:
    """The :func:`cache_key` of parts that are already canonical.

    ``canonical_text`` must come from :func:`canonical_problem_text` and
    ``canonical_opts`` from :func:`canonical_options`; nothing is parsed
    again here.
    """
    envelope = {
        "format": CACHE_KEY_FORMAT,
        "kind": kind,
        "problem": canonical_text,
        "options": canonical_opts,
    }
    blob = json.dumps(
        envelope, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()
