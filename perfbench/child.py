"""One fresh-interpreter pass of a workload (spawned by ``run.py``).

Usage::

    python3 perfbench/child.py --workload NAME --seed N --role setup
    python3 perfbench/child.py --workload NAME --seed N --role measure [--trace]

``setup`` times the set-up only: importing the program's packages and
building the workload's inputs (for ``serve``: starting the daemon until
it listens).  ``measure`` also runs the op list once, timed, then checks
every output outside the timed region.  Both print one JSON line.  All
times are in normalised seconds (see :mod:`normclock`); the reference
kernel ticks for the whole pass.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import select
import signal
import subprocess
import sys
import threading
import time
from collections import deque

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

from normclock import NormClock  # noqa: E402

#: Environment variables that would let a pass share state with another
#: process (the on-disk simulation store); removed for every subprocess.
ISOLATION_UNSET = ("REPRO_CACHE_DIR", "REPRO_CACHE_MAX_ENTRIES")

DAEMON_START_TIMEOUT_S = 60.0
SERVE_CONNECTIONS = 2


def isolated_env():
    env = {k: v for k, v in os.environ.items() if k not in ISOLATION_UNSET}
    env.pop("PYTHONPATH", None)
    return env


def import_program() -> None:
    """Import every package the workloads drive (counted as set-up)."""
    sys.path.insert(0, SRC)
    import repro.bench  # noqa: F401
    import repro.codegen  # noqa: F401
    import repro.core  # noqa: F401
    import repro.fuzz  # noqa: F401
    import repro.lang  # noqa: F401
    import repro.numa.counting  # noqa: F401
    import repro.numa.symbolic  # noqa: F401
    import repro.runtime  # noqa: F401
    import repro.service.client  # noqa: F401
    import repro.tune  # noqa: F401


class Daemon:
    """A ``repro serve --jobs 1`` subprocess on an ephemeral port."""

    def __init__(self, traced: bool) -> None:
        command = [
            sys.executable, os.path.join(HERE, "daemon.py"),
            "--trace", "1" if traced else "0",
            "serve", "--port", "0", "--jobs", "1", "--quiet",
        ]
        self.process = subprocess.Popen(
            command, cwd=ROOT, env=isolated_env(),
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        self.port = self._wait_listening()

    def _wait_listening(self) -> int:
        deadline = time.monotonic() + DAEMON_START_TIMEOUT_S
        buffer = b""
        stream = self.process.stderr
        while time.monotonic() < deadline:
            ready, _, _ = select.select([stream], [], [], 0.1)
            if not ready:
                if self.process.poll() is not None:
                    break
                continue
            chunk = os.read(stream.fileno(), 4096)
            if not chunk:
                break
            buffer += chunk
            while b"\n" in buffer:
                line, buffer = buffer.split(b"\n", 1)
                try:
                    event = json.loads(line)
                except ValueError:
                    continue
                if event.get("event") == "listening":
                    return int(event["port"])
        self.stop()
        raise RuntimeError(f"daemon did not start: {buffer.decode(errors='replace')[-500:]}")

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.process.pid}/status", "r", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM not found")

    def stop(self) -> str:
        """SIGTERM (graceful drain) and wait; returns the daemon's stdout
        (empty when it was already stopped)."""
        if self.process.returncode is not None:
            return ""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
        try:
            out, _ = self.process.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            self.process.kill()
            out, _ = self.process.communicate()
        return out.decode("utf-8", errors="replace")


def own_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_ops(ops):
    """Run ops serially; returns (labels, outputs, (start, end) stamps)."""
    labels, outputs, stamps = [], [], []
    for label, fn in ops:
        start = time.perf_counter()
        try:
            output = fn()
        except Exception as error:  # an op that fails counts as an error
            output = error
        stamps.append((start, time.perf_counter()))
        labels.append(label)
        outputs.append(output)
    return labels, outputs, stamps


def run_serve(workload, daemon):
    """Closed loop: each connection sends its next request on a reply."""
    from repro.service.client import ServiceClient

    pending = deque(workload.order)
    lock = threading.Lock()
    records = []

    def connection() -> None:
        client = ServiceClient("127.0.0.1", daemon.port, timeout=120.0)
        while True:
            with lock:
                if not pending:
                    return
                key = pending.popleft()
            op, payload = workload.requests[key]
            start = time.perf_counter()
            try:
                response = client.submit(op, payload)
            except Exception as error:  # refused or failed: an error
                response = error
            stamps = (start, time.perf_counter())
            with lock:
                records.append((key, response, stamps))

    threads = [threading.Thread(target=connection) for _ in range(SERVE_CONNECTIONS)]
    for thread in threads:
        thread.start()
    # Join with a timeout so the main thread keeps running SIGALRM ticks.
    for thread in threads:
        while thread.is_alive():
            thread.join(0.05)
    return (
        [key for key, _, _ in records],
        [response for _, response, _ in records],
        [stamps for _, _, stamps in records],
    )


def service_delta(before, after):
    """Counters and stage timers the daemon accumulated in between."""
    def diff(section):
        old = before["metrics"][section]
        return {
            name: value - old.get(name, 0)
            for name, value in after["metrics"][section].items()
        }
    return {"counters": diff("counters"), "timers": diff("timers")}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--role", choices=("setup", "measure"), required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument(
        "--inject-wrong-count", action="store_true",
        help="corrupt one op's output before checking (tests the checks)",
    )
    parser.add_argument(
        "--max-ops", type=int, default=None,
        help="run only the first N ops (smoke size for the tests)",
    )
    args = parser.parse_args(argv)

    clock = NormClock().start()
    setup_start = time.perf_counter()
    import_program()
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed)
    workload.setup()
    if args.max_ops is not None and args.workload == "serve":
        workload.order = workload.order[:args.max_ops]
    daemon = Daemon(args.trace) if args.workload == "serve" else None
    setup_end = time.perf_counter()
    try:
        return timed_pass(args, clock, workload, daemon, setup_start, setup_end)
    finally:
        if daemon is not None:
            daemon.stop()


def timed_pass(args, clock, workload, daemon, setup_start, setup_end) -> int:
    """The rest of a pass, once set up: time the ops, check, report."""
    from cachestats import cache_counters

    if args.role == "setup":
        clock.stop()
        print(json.dumps({"setup_s": clock.normalised(setup_start, setup_end)}))
        return 0

    tracer = None
    if args.trace and daemon is None:
        from tracer import Tracer, install

        tracer = Tracer(clock.now)
        install(tracer)

    cache_before = cache_counters()
    if daemon is not None:
        from repro.service.client import ServiceClient

        metrics_before = ServiceClient("127.0.0.1", daemon.port).metrics()

    ops = workload.ops()[:args.max_ops] if daemon is None else None
    start = time.perf_counter()
    work_start = clock.now()
    if daemon is not None:
        labels, outputs, stamps = run_serve(workload, daemon)
    elif tracer is not None:
        (labels, outputs, stamps), _ = tracer.call("bench.driver", run_ops, ops)
    else:
        labels, outputs, stamps = run_ops(ops)
    work = clock.now() - work_start
    end = time.perf_counter()

    layers = {}
    if daemon is not None:
        metrics_after = ServiceClient("127.0.0.1", daemon.port).metrics()
        peak_rss = daemon.peak_rss_mb()
        daemon_out = daemon.stop()
        layers["service"] = service_delta(metrics_before, metrics_after)
        if args.trace:
            document = json.loads(daemon_out.strip().splitlines()[-1])
            layers["trace"] = document["trace"]
            layers["cache"] = document["cache"]
    else:
        peak_rss = own_peak_rss_mb()
        cache_after = cache_counters()
        layers["cache"] = {k: cache_after[k] - cache_before[k] for k in cache_after}
        if tracer is not None:
            layers["trace"] = tracer.snapshot()
        if args.workload == "tune":
            layers["tune"] = workload.metrics.to_dict()
    clock.stop()
    factor = clock.speed_factor()

    if args.inject_wrong_count:
        from workloads import corrupt

        outputs[-1] = corrupt(outputs[-1])
    failed = sorted(
        set(workload.check(labels, outputs))
        | {i for i, output in enumerate(outputs) if isinstance(output, Exception)}
    )

    print(json.dumps({
        "setup_s": clock.normalised(setup_start, setup_end),
        "wall_s": clock.normalised(start, end),
        "raw_wall_s": end - start,
        "work_s": work,
        "op_s": [clock.normalised(a, b) for a, b in stamps],
        "speed_factor": factor,
        "ticks": len(clock.ticks),
        "peak_rss_mb": peak_rss,
        "attempted": len(labels),
        "failed": len(failed),
        "failures": [labels[i] for i in failed[:10]],
        "layers": layers,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
