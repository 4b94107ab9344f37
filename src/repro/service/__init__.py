"""Optimization-as-a-service: the async serving layer over the pipeline.

PRs 1–3 made single invocations fast (warm-started simplex, the compiled
batch simulation engine, the sharded pipeline with its content-addressed
artifact store); this package turns those invocations into a long-lived
service:

* :mod:`repro.service.protocol` — request validation and the cache/batch
  keys (the same RRG-fingerprint + stage-parameter identities the artifact
  store uses);
* :mod:`repro.service.broker` — admission control (bounded queue, 429
  backpressure), coalescing of identical in-flight requests, batching of
  compatible simulation requests, and the tiered result cache (in-process
  LRU → persistent store);
* :mod:`repro.service.worker` — the bridge driving
  :func:`repro.experiments.presets.run_preset` / the batched simulation
  engine on a background executor, streaming pipeline events back;
* :mod:`repro.service.server` — the stdlib asyncio JSON-over-HTTP front
  (``submit`` / ``status`` / ``result`` / ``stats``) with graceful
  SIGINT/SIGTERM draining;
* :mod:`repro.service.client` — the blocking client (used by
  ``python -m repro submit``).

``python -m repro serve`` is one process running one
:class:`~repro.service.server.ServiceServer`; ``--shards N`` gives each
pipeline run N worker processes.

Quickstart::

    $ python -m repro serve --store .repro-store &
    $ python -m repro submit table2-small --names s27

or programmatically::

    from repro.service import ServerThread, ServiceClient

    with ServerThread(store=".repro-store") as server:
        client = ServiceClient(port=server.port)
        result = client.submit_and_wait(
            {"kind": "run", "target": "figure1a",
             "options": {"cycles": 800, "epsilon": 0.2}}
        )
"""

from repro.service.broker import Broker, RequestRecord
from repro.service.client import (
    RequestFailed,
    ServiceBusy,
    ServiceClient,
    ServiceError,
)
from repro.service.protocol import (
    PreparedRequest,
    QueueFullError,
    RequestError,
    ShuttingDownError,
    prepare_request,
)
from repro.service.server import ServerThread, ServiceServer, serve

__all__ = [
    "Broker",
    "PreparedRequest",
    "QueueFullError",
    "RequestError",
    "RequestFailed",
    "RequestRecord",
    "ServerThread",
    "ServiceBusy",
    "ServiceClient",
    "ServiceError",
    "ServiceServer",
    "ShuttingDownError",
    "prepare_request",
    "serve",
]
