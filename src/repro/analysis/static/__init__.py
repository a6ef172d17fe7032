"""Static analysis: safety certification and IR lint.

Two pillars (see docs/static-analysis.md):

* :func:`certify` proves, per global resource type, that the summed
  slot occupancy never exceeds the allocated pool under *every*
  admissible block-start offset combination of the eq. 2-3 period grid,
  emitting a machine-checkable :class:`Certificate` — or a concrete
  :class:`Counterexample` offset assignment when the proof fails.
  :func:`check_certificate` re-verifies the artifact independently.
* :func:`run_lint` drives rule-based IR lint passes with stable
  ``LINT*`` diagnostic codes over a problem and its schedule.
"""

from ..._lazy import attach

_EXPORTS = {
    "certificate": [
        "CERTIFICATE_FORMAT",
        "CERTIFICATE_VERSION",
        "Certificate",
        "Contribution",
        "Counterexample",
        "METHOD_ENUMERATION",
        "METHOD_INTERVAL",
        "MODEL_ANY",
        "MODEL_DEPLOYED",
        "ProcessEnvelope",
        "SlotWitness",
        "TypeProof",
        "VERDICT_SAFE",
        "VERDICT_UNSAFE",
    ],
    "certifier": ["CertificationError", "certify", "pool_conflict"],
    "checker": ["check_certificate"],
    "lint": [
        "DEFAULT_RULES",
        "LintContext",
        "LintRule",
        "RULES_BY_NAME",
        "SCOPE_PROBLEM",
        "SCOPE_SCHEDULE",
        "run_lint",
    ],
}

__getattr__, __dir__, __all__ = attach(__name__, _EXPORTS)
