"""The compilation service: a long-lived daemon over the compile pipeline.

Every CLI entry point (``repro compile/analyze/simulate``) is a cold
start: it re-imports the package, re-parses the program and re-derives
the transformation pipeline per invocation.  The paper's block-transfer
argument (Section 1: amortize the 70 us iPSC message startup over many
elements) applies to the toolchain itself — this package amortizes the
per-request startup over a process lifetime by serving the pipeline from
a warm asyncio daemon with shared caches.

Layers:

* :mod:`repro.service.protocol` — wire shapes, config, error taxonomy;
* :mod:`repro.service.jobs` — pure job execution shared with the direct
  CLI (which is what makes served output byte-identical to ``repro``);
* :mod:`repro.service.queueing` — bounded admission with backpressure;
* :mod:`repro.service.batching` — micro-batching + in-flight dedup;
* :mod:`repro.service.daemon` — the asyncio HTTP daemon skeleton both
  daemons share (parsing, responses, listen → serve → drain, logging);
* :mod:`repro.service.server` — the compilation daemon on that skeleton;
* :mod:`repro.service.router` — the consistent-hash fleet router on that
  skeleton (cross-replica dedup, health checks, retry-on-next-replica);
* :mod:`repro.service.fleet` — the ``repro fleet`` replica launcher;
* :mod:`repro.service.client` — a thin synchronous client with optional
  bounded retry/backoff;
* :mod:`repro.service.cli` — ``repro serve``, ``repro fleet`` and
  ``repro submit``.
"""

from repro.service.client import ServiceClient
from repro.service.protocol import ServiceConfig, ServiceError
from repro.service.router import HashRing, RouterConfig, request_fingerprint

__all__ = [
    "HashRing",
    "RouterConfig",
    "ServiceClient",
    "ServiceConfig",
    "ServiceError",
    "request_fingerprint",
]
