"""Horizontal database partitioning: routing, 2PC, and the shard layer.

The paper scales its write-bound configurations by replicating the
database, but replication does nothing for the bookstore ordering mix:
every checkout's ``LOCK TABLES`` span still serializes on the one write
primary.  This package partitions the customer- and item-rooted table
groups across N independent primaries (``DB[N]`` in the topology
grammar), routes statements at the driver, scatter-gathers unrouted
reads, and runs two-phase commit for the cross-shard writes (checkout,
bid) -- dissolving the table-lock convoy instead of working around it.

Paper configurations and ``DB[1]`` topologies never import this
package (``build_site`` installs :class:`ShardLayer` for
``db_shards > 1`` only); CI asserts it.
"""

from repro.shard.layer import ShardCosts, ShardLayer

from repro.shard.routing import (
    SCHEMES,
    ShardScheme,
    scheme_for,
    shard_index,
)
from repro.shard.twopc import ShardStats, TwoPcCoordinator, TwoPcCosts

__all__ = [
    "SCHEMES",
    "ShardCosts",
    "ShardLayer",
    "ShardScheme",
    "ShardStats",
    "TwoPcCoordinator",
    "TwoPcCosts",
    "scheme_for",
    "shard_index",
]
