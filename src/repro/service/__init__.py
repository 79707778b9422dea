"""Campaign job service: async submit/status/results API + live metrics.

Three layers (see ``docs/SERVICE.md``):

* :mod:`repro.service.jobs` — the async job manager: submit a campaign
  spec, get a job id; jobs run on background workers over the shared
  sqlite store, survive server SIGKILL and resume on restart.
* :mod:`repro.service.api` — the stdlib HTTP surface
  (``ThreadingHTTPServer``): ``POST /jobs``, ``GET /jobs/<id>``,
  ``GET /jobs/<id>/results``, ``DELETE /jobs/<id>``, ``GET /healthz``,
  ``GET /metrics`` — wired to ``python -m repro serve``.
* :mod:`repro.service.metrics` — the cache-counter collectors behind
  ``repro cache stats`` and the ``repro_cache_events`` gauges; the
  instruments themselves are :mod:`repro.obs`, at the bottom of the
  stack, where the campaign runner also records its task metrics.

Names resolve lazily (PEP 562 ``__getattr__``), so importing the
package does not start the HTTP and job-manager imports.
"""

from __future__ import annotations

_LAZY = {
    "JobManager": "repro.service.jobs",
    "JobSpec": "repro.service.jobs",
    "ServiceClient": "repro.service.api",
    "create_server": "repro.service.api",
    "serve_forever": "repro.service.api",
}

__all__ = sorted(_LAZY)


def __getattr__(name: str):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)
