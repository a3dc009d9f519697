"""Process lifecycle: hung-worker killing, orphan hygiene, signal
teardown, and crash-restart recovery (worker reload, WAL replay).

These tests spawn real OS processes; each one owns its tree and must
leave ``multiprocessing.active_children()`` free of repro processes.
"""

import multiprocessing
import os
import signal
import subprocess
import sys
import textwrap
import time

import pytest

from repro.runtime.rpc import RpcClient
from repro.runtime.substrate import ProcessSubstrate, SimSubstrate
from repro.runtime.supervisor import ProcessSupervisor
from repro.runtime.wire import Request
from repro.runtime.worker_host import worker_host_main
from repro.utils.clock import SimClock

WORKER_CONFIG = {"worker_index": 0, "num_workers": 1}


def assert_no_repro_children(supervisor):
    """No zombie/orphan children from this supervisor's tree."""
    assert supervisor.reap() == []
    lingering = {
        child.name
        for child in multiprocessing.active_children()
        if child.name in supervisor._ever_spawned
    }
    assert lingering == set()


def wait_for_death(pid: int, timeout: float = 10.0) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return True
        time.sleep(0.1)
    return False


class TestSupervisorLifecycle:
    def test_spawn_ping_stop_leaves_no_children(self):
        with ProcessSupervisor(spawn_timeout=60.0) as supervisor:
            managed = supervisor.spawn("storm-worker-0", worker_host_main, WORKER_CONFIG)
            assert managed.alive
            assert supervisor.ping("storm-worker-0", timeout=10.0)
            stats = RpcClient(*managed.address).call("_stats")
            assert stats["worker_index"] == 0
            assert stats["pid"] == managed.pid
            supervisor.stop("storm-worker-0")
            assert not managed.alive
        assert_no_repro_children(supervisor)

    def test_kill_hung_worker_after_deadline(self):
        with ProcessSupervisor(spawn_timeout=60.0) as supervisor:
            managed = supervisor.spawn("storm-worker-0", worker_host_main, WORKER_CONFIG)
            hung_pid = managed.pid
            # wedge the single-threaded worker: request a long sleep and
            # never read the response, so heartbeats cannot be served
            wedger = RpcClient(*managed.address)
            wedger.send_request(Request("_sleep", (30.0,)))
            time.sleep(0.3)  # let silence exceed the deadline
            try:
                killed = supervisor.kill_hung(
                    deadline=0.2, ping_timeout=0.2, restart=False
                )
                assert killed == ["storm-worker-0"]
                assert not managed.alive
                assert wait_for_death(hung_pid)
            finally:
                wedger.close()
            # a healthy worker is spared by the same sweep
            revived = supervisor.restart("storm-worker-0")
            assert revived.pid != hung_pid
            assert supervisor.ping("storm-worker-0", timeout=10.0)
            assert supervisor.kill_hung(deadline=1.0, ping_timeout=10.0) == []
        assert_no_repro_children(supervisor)

    def test_kill_hung_with_restart_true_respawns_in_place(self):
        with ProcessSupervisor(spawn_timeout=60.0) as supervisor:
            managed = supervisor.spawn("storm-worker-0", worker_host_main, WORKER_CONFIG)
            wedger = RpcClient(*managed.address)
            wedger.send_request(Request("_sleep", (30.0,)))
            time.sleep(0.3)
            try:
                killed = supervisor.kill_hung(deadline=0.2, ping_timeout=0.2)
            finally:
                wedger.close()
            assert killed == ["storm-worker-0"]
            assert managed.alive  # same handle, respawned process
            assert managed.restarts == 1
            assert supervisor.ping("storm-worker-0", timeout=10.0)
        assert_no_repro_children(supervisor)


class TestSubstrateTeardown:
    def test_teardown_is_idempotent_and_leaves_no_children(self):
        substrate = ProcessSubstrate(worker_procs=2, server_procs=1)
        substrate.build_tdstore(2, 4)
        substrate.build_storm(SimClock())
        supervisor = substrate.supervisor
        assert len(supervisor.names()) == 3  # 1 host + 2 workers
        substrate.teardown()
        substrate.teardown()
        assert_no_repro_children(supervisor)

    def test_sigterm_tears_down_the_whole_tree(self, tmp_path):
        # a driver script that installs the signal handlers, deploys a
        # process substrate, reports every child pid, then idles
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        script = tmp_path / "driver.py"
        script.write_text(textwrap.dedent(f"""
            import sys, time
            sys.path.insert(0, {os.path.abspath(src)!r})
            from repro.runtime.substrate import (
                ProcessSubstrate,
                install_parent_signal_handlers,
            )
            from repro.utils.clock import SimClock

            def main():
                install_parent_signal_handlers()
                substrate = ProcessSubstrate(worker_procs=2, server_procs=1)
                substrate.build_tdstore(2, 4)
                substrate.build_storm(SimClock())
                supervisor = substrate.supervisor
                pids = [supervisor.get(n).pid for n in supervisor.names()]
                print("PIDS " + " ".join(map(str, pids)), flush=True)
                while True:
                    time.sleep(0.2)

            if __name__ == "__main__":
                main()
        """))
        driver = subprocess.Popen(
            [sys.executable, str(script)],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        try:
            line = driver.stdout.readline().strip()
            assert line.startswith("PIDS "), driver.stderr.read()
            child_pids = [int(p) for p in line.split()[1:]]
            assert len(child_pids) == 3
            driver.send_signal(signal.SIGTERM)
            assert driver.wait(timeout=30.0) == 0
        finally:
            driver.kill()
            driver.wait()
        for pid in child_pids:
            assert wait_for_death(pid), f"child {pid} survived SIGTERM teardown"


class TestCrashRecovery:
    def test_worker_crash_triggers_reload_on_next_call(self):
        # SIGKILL a worker after a full run; the next parent->worker call
        # must transparently restart it and reload its topologies
        from repro.runtime import topology_recipe
        from tests.recovery.helpers import TOPIC, make_payloads, make_tdaccess

        with ProcessSubstrate(worker_procs=2, server_procs=1) as substrate:
            clock = SimClock()
            store = substrate.build_tdstore(2, 4)
            cluster = substrate.build_storm(clock, tick_interval=240.0)
            consumer = make_tdaccess(make_payloads(8)).consumer(TOPIC)
            factory = topology_recipe(
                "tests.recovery.helpers", "cf_topology_factory", batch_size=4
            )
            cluster.submit(factory(clock, store.client, consumer))
            cluster.run_until_idle()

            victim = substrate.supervisor.get("storm-worker-0")
            os.kill(victim.pid, signal.SIGKILL)
            victim.process.join(timeout=10.0)
            assert not victim.alive

            stats = cluster._worker_call(0, "_stats")
            assert cluster.worker_recoveries == 1
            assert victim.restarts == 1
            assert stats["topologies"] == ["cf-stream"]
            assert stats["executed"] == 0  # fresh process, state reloaded

    def test_server_host_restart_replays_wal(self, tmp_path):
        # SIGKILL the only TDStore host after durable mutations of every
        # kind, single and enveloped; the restart hook replays its WAL,
        # and each one-record envelope re-derives every host write *and*
        # replica sync in it — so every engine, host and slave, matches
        # an un-crashed simulator
        def mutate(store):
            client = store.client()
            for index in range(20):
                client.put(f"key:{index}", {"value": index})
                client.apply(f"count:{index % 3}", f"op-{index}", 1.5)
                client.put_once(f"list:{index}", f"op-{index}", [index])
                client.run_once(f"seen:{index}", f"op-{index}")
            client.delete("key:7")
            client.check_and_set("cas", "v1", 0)
            client.apply("count:0", "op-0", 1.5)  # a logged dedup
            # one envelope over both logical servers: one log record
            # that must replay every op and every replica sync in order
            client.mutate(
                [
                    ("put", ("env:a", {"n": 1})),
                    ("apply_op", ("count:1", "env-1", 2.5)),
                    ("put_once", ("list:3", "env-2", [3, 3])),
                    ("delete", ("key:9",)),
                    ("put_once", ("list:3", "op-3", [0])),  # deduped
                    ("put", ("env:a", {"n": 2})),
                ]
            )

        def engines(store):
            store.sync_replicas()
            return {
                server.server_id: {
                    instance: server.snapshot_instance(instance)
                    for instance in server.instances()
                }
                for server in store.data_servers
            }

        with SimSubstrate() as sim:
            reference = sim.build_tdstore(2, 4)
            mutate(reference)
            want = engines(reference)

        with ProcessSubstrate(
            worker_procs=1, server_procs=1, wal_dir=str(tmp_path)
        ) as substrate:
            store = substrate.build_tdstore(2, 4)
            mutate(store)

            host = substrate.supervisor.get("tdstore-host-0")
            os.kill(host.pid, signal.SIGKILL)
            host.process.join(timeout=10.0)
            assert not host.alive

            substrate.supervisor.restart("tdstore-host-0")
            fresh = store.client()
            for index in range(20):
                if index not in (7, 9):
                    assert fresh.get(f"key:{index}") == {"value": index}
            assert engines(store) == want
