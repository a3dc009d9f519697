"""The TDStore route table.

Keys are hashed onto a fixed set of *data instances* (buckets). Each
instance has a host data server and a slave data server; the backup is
done "in the granularity of data instance ... a data server may be the
host server of some data instances but the backup server of others", so
almost every server serves reads and writes simultaneously (Section 3.3).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import RouteError
from repro.utils.hashing import stable_hash


@dataclass(frozen=True)
class InstanceRoute:
    """Placement of one data instance: its host and slave server ids."""

    instance: int
    host: int
    slave: int


class RouteTable:
    """Immutable map of instance -> (host, slave).

    The ``version`` is the cluster's route epoch: every derivation
    (:meth:`promote_slave`, :meth:`with_host`, :meth:`with_slave`)
    returns a *new* table constructed with a bumped version, so clients
    comparing epochs can never observe a half-updated table — a table
    object's routes and version are fixed for its whole lifetime.
    """

    def __init__(
        self,
        routes: dict[int, InstanceRoute],
        num_instances: int,
        version: int = 0,
    ):
        if num_instances <= 0:
            raise RouteError(f"num_instances must be positive: {num_instances}")
        if version < 0:
            raise RouteError(f"version must be >= 0: {version}")
        missing = [i for i in range(num_instances) if i not in routes]
        if missing:
            raise RouteError(f"route table missing instances {missing}")
        self._routes = dict(routes)
        self.num_instances = num_instances
        self.version = version

    @classmethod
    def balanced(cls, num_instances: int, server_ids: list[int]) -> "RouteTable":
        """Spread host/slave roles round-robin so every server hosts some
        instances and backs up others."""
        if len(server_ids) < 2:
            raise RouteError(
                f"replication needs at least two servers, got {len(server_ids)}"
            )
        routes = {}
        count = len(server_ids)
        for instance in range(num_instances):
            host = server_ids[instance % count]
            slave = server_ids[(instance + 1) % count]
            routes[instance] = InstanceRoute(instance, host, slave)
        return cls(routes, num_instances)

    def instance_for_key(self, key: str) -> int:
        return stable_hash(key) % self.num_instances

    def route(self, instance: int) -> InstanceRoute:
        try:
            return self._routes[instance]
        except KeyError:
            raise RouteError(f"unknown data instance {instance}") from None

    def route_for_key(self, key: str) -> InstanceRoute:
        # the constructor checked that every instance has a route
        return self._routes[stable_hash(key) % self.num_instances]

    def instances_hosted_by(self, server_id: int) -> list[int]:
        return sorted(
            r.instance for r in self._routes.values() if r.host == server_id
        )

    def instances_backed_by(self, server_id: int) -> list[int]:
        return sorted(
            r.instance for r in self._routes.values() if r.slave == server_id
        )

    def promote_slave(self, instance: int, new_slave: int) -> "RouteTable":
        """Return a new table where ``instance``'s slave becomes host.

        ``new_slave`` is the server that will back up the promoted host.
        """
        old = self.route(instance)
        if new_slave == old.slave:
            raise RouteError(
                f"instance {instance}: new slave must differ from promoted "
                f"host {old.slave}"
            )
        return self._derive(InstanceRoute(instance, old.slave, new_slave))

    def with_host(
        self, instance: int, new_host: int, new_slave: int | None = None
    ) -> "RouteTable":
        """Return a new table where ``instance`` is hosted by ``new_host``.

        The slave stays unless ``new_slave`` is given; the migration
        cutover uses this to move the host role to the catch-up target
        in one epoch bump.
        """
        old = self.route(instance)
        slave = old.slave if new_slave is None else new_slave
        if new_host == slave:
            raise RouteError(
                f"instance {instance}: host and slave must differ, both "
                f"{new_host}"
            )
        return self._derive(InstanceRoute(instance, new_host, slave))

    def with_slave(self, instance: int, new_slave: int) -> "RouteTable":
        """Return a new table where ``instance`` is backed by ``new_slave``."""
        old = self.route(instance)
        if new_slave == old.host:
            raise RouteError(
                f"instance {instance}: new slave must differ from host "
                f"{old.host}"
            )
        return self._derive(InstanceRoute(instance, old.host, new_slave))

    def _derive(self, route: InstanceRoute) -> "RouteTable":
        routes = dict(self._routes)
        routes[route.instance] = route
        return RouteTable(routes, self.num_instances, version=self.version + 1)

    def host_load(self) -> dict[int, int]:
        """server id -> number of instances it hosts."""
        load: dict[int, int] = {}
        for route in self._routes.values():
            load[route.host] = load.get(route.host, 0) + 1
        return load
