"""Horizontal scale-out: load-balanced tier pools + a replicated DB.

The paper stops at one machine per tier; this package grows each tier
sideways.  A :class:`~repro.topology.spec.TopologySpec` (web pool size,
servlet pool size, DB read replicas, replication lag, balancing
policies) names the shape -- e.g. ``Ws{2}-Servlet{4}-DB(1+2)`` -- and
:class:`~repro.cluster.layer.ClusterLayer` wraps the simulated site's
stages with the balancers and the replicated database.  The
``python -m repro scale`` CLI sweeps replica counts over the bookstore
mixes (``repro.experiments.ext_scaleout``).

A trivial cluster (``web=1, gen=1, db_replicas=0``) reproduces its
paper configuration's reports field for field; the six paper
configurations themselves never touch this package.
"""

from repro.cluster.balancer import LoadBalancer
from repro.cluster.layer import ClusterLayer, ClusterRoute
from repro.cluster.replication import DbInstance, ReplicatedDb, SessionState

__all__ = [
    "ClusterLayer",
    "ClusterRoute",
    "DbInstance",
    "LoadBalancer",
    "ReplicatedDb",
    "SessionState",
]
