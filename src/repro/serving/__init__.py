"""The concurrent serving tier (see docs/serving.md).

Layering, outermost first:

* :class:`NetServer` — optional TCP front end; one REPL + serving
  session per connection.
* :class:`QueryServer` — sessions, the submit path, serving stats and
  the ``repro_serving_*`` Prometheus families.  Reached via
  :meth:`~repro.engine.Database.serve`.
* :class:`Session` — per-client isolation: settings, fault injector,
  cancel scope (:meth:`~repro.engine.Database.session`).
* :class:`AdmissionController` / :class:`ServingConfig` — concurrency
  slots, bounded fair-share run queue and load shedding
  (:class:`~repro.errors.ServerOverloaded`).
* :class:`ScrapeServer` — HTTP sidecar serving ``/metrics``,
  ``/healthz`` and ``/activity`` for monitoring systems
  (:meth:`~repro.engine.Database.serve_scrape`).
"""

from ..errors import ServerOverloaded
from .admission import AdmissionController, AdmissionSlot, ServingConfig
from .netserver import EOT, NetServer
from .scrape import ScrapeServer
from .server import QueryServer, ServingStats
from .session import Session

__all__ = [
    "AdmissionController",
    "AdmissionSlot",
    "ServingConfig",
    "QueryServer",
    "ScrapeServer",
    "ServingStats",
    "Session",
    "NetServer",
    "EOT",
    "ServerOverloaded",
]
