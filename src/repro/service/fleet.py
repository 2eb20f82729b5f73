"""``repro fleet`` — N serve replicas behind one consistent-hash router.

The launcher spawns ``--replicas`` copies of ``repro serve`` as child
processes (each on an ephemeral port, learned from the ``listening``
lifecycle event in its log), points every replica at the same shared
disk-cache tier (``--cache-dir`` / ``REPRO_CACHE_DIR``), then runs the
:class:`~repro.service.router.FleetRouter` in the foreground on
``--port``.  Clients talk only to the router; identical requests are
consistent-hash routed to the replica whose in-memory caches are warm.

Shutdown is a two-stage graceful drain: SIGTERM (or SIGINT) first
drains the router — in-flight forwards finish, new work is refused —
then each replica receives SIGTERM and performs its own zero-drop drain
before the launcher exits.  ``--state-file`` writes a JSON description
of the running topology (router port, replica pids/ports/logs) that the
load harness and operators use to address or kill individual replicas.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.service.daemon import run_daemon
from repro.service.router import FleetRouter, RouterConfig


@dataclass
class FleetConfig:
    """Everything ``repro fleet`` needs to run a replica fleet."""

    host: str = "127.0.0.1"
    port: int = 0
    replicas: int = 3
    jobs: int = 1
    queue_limit: int = 64
    timeout_s: float = 60.0
    batch_window_s: float = 0.01
    drain_grace_s: float = 30.0
    cache_dir: Optional[str] = None
    cache_max_entries: Optional[int] = None
    log_dir: Optional[str] = None
    state_file: Optional[str] = None
    health_interval_s: float = 1.0
    quiet_replicas: bool = True
    log_requests: bool = True


class ReplicaProcess:
    """One spawned ``repro serve`` child and its log file."""

    def __init__(self, index: int, process: subprocess.Popen, log_path: str):
        self.index = index
        self.process = process
        self.log_path = log_path
        self.port: Optional[int] = None

    @property
    def pid(self) -> int:
        return self.process.pid

    def wait_for_port(self, timeout: float = 30.0) -> int:
        """Poll the replica's log for the ``listening`` event's port."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self.process.poll() is not None:
                raise RuntimeError(
                    f"replica {self.index} exited with code "
                    f"{self.process.returncode} before listening "
                    f"(see {self.log_path})"
                )
            try:
                with open(self.log_path, "r", encoding="utf-8") as handle:
                    for line in handle:
                        if '"listening"' not in line:
                            continue
                        try:
                            record = json.loads(line)
                        except json.JSONDecodeError:
                            continue
                        if record.get("event") == "listening":
                            self.port = int(record["port"])
                            return self.port
            except OSError:
                pass
            time.sleep(0.05)
        raise RuntimeError(
            f"replica {self.index} never reported a listening port "
            f"(see {self.log_path})"
        )


def spawn_replicas(config: FleetConfig) -> List[ReplicaProcess]:
    """Start the serve children and wait until each reports its port."""
    log_dir = config.log_dir or tempfile.mkdtemp(prefix="repro-fleet-")
    os.makedirs(log_dir, exist_ok=True)
    replicas: List[ReplicaProcess] = []
    try:
        for index in range(config.replicas):
            argv = [
                sys.executable, "-m", "repro", "serve",
                "--host", config.host,
                "--port", "0",
                "--jobs", str(config.jobs),
                "--queue-limit", str(config.queue_limit),
                "--timeout", str(config.timeout_s),
                "--batch-window", str(config.batch_window_s),
                "--drain-grace", str(config.drain_grace_s),
            ]
            if config.cache_dir:
                argv += ["--cache-dir", config.cache_dir]
            if config.cache_max_entries is not None:
                argv += ["--cache-max-entries", str(config.cache_max_entries)]
            if config.quiet_replicas:
                argv.append("--quiet")
            log_path = os.path.join(log_dir, f"replica-{index}.log")
            log_file = open(log_path, "w", encoding="utf-8")
            try:
                process = subprocess.Popen(
                    argv,
                    stdout=subprocess.DEVNULL,
                    stderr=log_file,
                )
            finally:
                # The child holds its own descriptor; the parent's copy
                # would otherwise leak one fd per replica.
                log_file.close()
            replicas.append(ReplicaProcess(index, process, log_path))
        for replica in replicas:
            replica.wait_for_port()
    except Exception:
        terminate_replicas(replicas, grace_s=5.0)
        raise
    return replicas


def terminate_replicas(
    replicas: Sequence[ReplicaProcess], grace_s: float = 30.0
) -> int:
    """SIGTERM every replica, wait for graceful drains; returns the
    number that had to be killed outright."""
    for replica in replicas:
        if replica.process.poll() is None:
            try:
                replica.process.send_signal(signal.SIGTERM)
            except ProcessLookupError:
                pass
    killed = 0
    deadline = time.monotonic() + grace_s
    for replica in replicas:
        remaining = max(0.1, deadline - time.monotonic())
        try:
            replica.process.wait(timeout=remaining)
        except subprocess.TimeoutExpired:
            replica.process.kill()
            replica.process.wait()
            killed += 1
    return killed


def write_state_file(
    path: str,
    host: str,
    router_port: int,
    replicas: Sequence[ReplicaProcess],
) -> None:
    """Describe the running topology for harnesses and operators."""
    state: Dict[str, object] = {
        "schema": 1,
        "pid": os.getpid(),
        "router": {"host": host, "port": router_port},
        "replicas": [
            {
                "index": replica.index,
                "pid": replica.pid,
                "host": host,
                "port": replica.port,
                "log": replica.log_path,
            }
            for replica in replicas
        ],
    }
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(state, handle, indent=2, sort_keys=True)
        handle.write("\n")
    os.replace(tmp, path)


def run_fleet(config: FleetConfig) -> int:
    """Blocking entry point for ``repro fleet``."""
    replicas = spawn_replicas(config)
    addresses = [f"{config.host}:{replica.port}" for replica in replicas]
    router_config = RouterConfig(
        host=config.host,
        port=config.port,
        replicas=addresses,
        health_interval_s=config.health_interval_s,
        forward_timeout_s=max(config.timeout_s * 2.0, 30.0),
        drain_grace_s=config.drain_grace_s,
        log_requests=config.log_requests,
    )

    def _write_state(router: FleetRouter) -> None:
        # The router's port is known only once it has bound.
        if config.state_file:
            assert router.port is not None
            write_state_file(
                config.state_file, config.host, router.port, replicas
            )

    try:
        run_daemon(FleetRouter(router_config), on_listening=_write_state)
    finally:
        killed = terminate_replicas(replicas, grace_s=config.drain_grace_s)
        if killed:
            print(
                f"fleet: {killed} replica(s) exceeded the drain grace and "
                "were killed",
                file=sys.stderr,
            )
    return 0


__all__ = [
    "FleetConfig",
    "ReplicaProcess",
    "run_fleet",
    "spawn_replicas",
    "terminate_replicas",
    "write_state_file",
]
