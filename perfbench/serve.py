"""The ``serve`` workload: a closed loop over two keep-alive connections.

``repro serve --workers 1`` runs as its own process (started through
``serve_launcher.py``).  The store is prefilled during set-up.

* The read connection (the calling thread) sends ``GET /predict`` for
  stored specs, plus an occasional ``GET /query``.
* The write connection (one extra thread) POSTs an analytical 8x8 spec that
  is not stored, then polls ``GET /predict`` until it answers 200.

Both connections stay open for the whole run, as an HTTP/1.1 client keeps
them: the benchmark must show how the server behaves on a reused
connection, not work around it.
"""

from __future__ import annotations

import http.client
import itertools
import json
import random
import select
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent

#: Topologies the spec pool rotates through, so every seed gets the same mix.
#: Their analytical 8x8 predictions all take about 0.1 s (the ring takes
#: three times longer and would make the miss tail depend on the seed).
TOPOLOGIES = ("mesh", "torus", "folded_torus", "hypercube", "sparse_hamming",
              "flattened_butterfly")
PREFILL = 12
MISS_POOL = 400
#: One read request in this many is a ``/query`` instead of a ``/predict``.
QUERY_EVERY = 10
MISS_TIMEOUT_S = 30.0
#: Upper end of the writer's random think time before each POST.  It spreads
#: the POSTs over the worker's 0.2 s queue poll, as independent users would;
#: without it the closed loop locks onto the poll and the miss latencies
#: depend on that phase instead of on the service.
THINK_S = 0.2
#: Upper end of the random pause before each status poll.  Back-to-back polls
#: would quantize every ready time to whole round trips (44 ms at this
#: commit), and the median would jump between those steps from run to run.
POLL_JITTER_S = 0.05
START_TIMEOUT_S = 60.0


def run_setup_probe(*args: str, timeout: float) -> None:
    """Run ``setup_probe.py`` with ``args`` in a fresh interpreter and wait for it.

    ``Popen.wait(timeout=...)`` polls in steps of up to 50 ms, which would
    round the set-up time that the caller measures up to such a step, so
    the wait blocks and a timer kills a probe that hangs.
    """
    proc = subprocess.Popen([sys.executable, str(HERE / "setup_probe.py"), *args])
    killer = threading.Timer(timeout, proc.kill)
    killer.start()
    try:
        code = proc.wait()
    finally:
        killer.cancel()
    if code != 0:
        raise subprocess.CalledProcessError(code, proc.args)


def spec_pools(seed: int, stored: int, missed: int, tiny: bool) -> tuple[list[dict], list[dict]]:
    """Analytical specs (as dicts) to prefill and to miss; the seed picks every architecture.

    The endpoint areas are drawn without replacement from one stream, so no
    two specs of either pool share a spec_id and no miss is ever stored.
    """
    areas = random.Random(f"serve:specs:{seed}").sample(range(20_000, 50_000), stored + missed)

    def spec(index: int, area: int) -> dict[str, Any]:
        if tiny:
            return {"topology": TOPOLOGIES[index % 3], "rows": 4, "cols": 4,
                    "arch": {"endpoint_area_ge": float(area * 100)}}
        return {"topology": TOPOLOGIES[index % len(TOPOLOGIES)], "rows": 8, "cols": 8,
                "scenario": "a", "arch": {"endpoint_area_ge": float(area * 1000)}}

    return ([spec(index, area) for index, area in enumerate(areas[:stored])],
            [spec(index, area) for index, area in enumerate(areas[stored:])])


class Connection:
    """One persistent HTTP/1.1 connection; every request carries an id header."""

    def __init__(self, port: int, tag: str) -> None:
        self._conn = http.client.HTTPConnection("127.0.0.1", port, timeout=MISS_TIMEOUT_S)
        self._ids = itertools.count()
        self._tag = tag
        self.log: list[tuple[str, float]] = []  # (request id, client latency)

    def request(self, method: str, path: str, body: bytes | None = None):
        request_id = f"{self._tag}{next(self._ids)}"
        headers = {"X-Bench-Request": request_id}
        if body is not None:
            headers["Content-Type"] = "application/json"
        start = time.perf_counter()
        self._conn.request(method, path, body=body, headers=headers)
        response = self._conn.getresponse()
        data = response.read()
        latency = time.perf_counter() - start
        self.log.append((request_id, latency))
        return response.status, data, latency

    def close(self) -> None:
        self._conn.close()


class Server:
    """A ``repro serve`` child process, optionally tracing its layers."""

    def __init__(self, db: Path, workdir: Path, trace_out: Path | None) -> None:
        command = [sys.executable, str(HERE / "serve_launcher.py")]
        if trace_out is not None:
            command += ["--trace-out", str(trace_out)]
        command += ["--db", str(db), "--port", "0", "--workers", "1"]
        self._stderr = open(workdir / f"server-{db.stem}.log", "wb")
        self.proc = subprocess.Popen(command, stdout=subprocess.PIPE, stderr=self._stderr)
        self.port = self._read_port()

    def _read_port(self) -> int:
        ready, _, _ = select.select([self.proc.stdout], [], [], START_TIMEOUT_S)
        line = self.proc.stdout.readline().decode() if ready else ""
        if "http://" not in line:
            self.stop()
            raise RuntimeError(f"repro serve did not start (stdout: {line!r})")
        return int(line.split("http://", 1)[1].split()[0].rsplit(":", 1)[1])

    def wait_healthy(self) -> None:
        conn = Connection(self.port, "h")
        try:
            status, data, _ = conn.request("GET", "/healthz")
        finally:
            conn.close()
        if status != 200 or not json.loads(data).get("ok"):
            raise RuntimeError(f"/healthz answered {status}")

    def peak_rss_mb(self) -> float:
        for line in Path(f"/proc/{self.proc.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        return 0.0

    def stop(self) -> None:
        """SIGINT lets ``repro serve`` shut down cleanly (and the launcher dump spans)."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self._stderr.close()


def setup(workdir: Path, prefill: list[dict], index: int | str,
          trace_out: Path | None = None) -> tuple[Server, dict[str, Any]]:
    """Prefill a fresh store in a fresh interpreter, start the server, check health.

    Returns the running server and the prefilled payloads by spec_id.
    """
    db = workdir / f"serve-{index}.sqlite"
    specs_file = workdir / f"prefill-{index}.json"
    payloads_file = workdir / f"payloads-{index}.json"
    specs_file.write_text(json.dumps(prefill))
    run_setup_probe("--db", str(db), "--prefill", str(specs_file),
                    "--out", str(payloads_file), timeout=START_TIMEOUT_S * 3)
    server = Server(db, workdir, trace_out)
    try:
        server.wait_healthy()
    except BaseException:
        server.stop()
        raise
    return server, json.loads(payloads_file.read_text())


class Loop:
    """The read and write connections of one measured window."""

    def __init__(self, port: int, seed: int, expected: dict[str, Any],
                 misses: list[dict]) -> None:
        self.reads = Connection(port, "r")
        self.writes = Connection(port, "w")
        self.rng = random.Random(f"serve:reads:{seed}")
        self.think = random.Random(f"serve:writes:{seed}")
        self.expected = expected
        self.stored_ids = sorted(expected)
        self.misses = misses
        self.read_log: list[tuple[str, int, Any]] = []  # (path, status, body)
        self.read_failures = 0
        self.predict_hits = 0
        self.miss_ready: list[float] = []
        self.miss_bodies: dict[str, Any] = {}
        self.miss_failures = 0
        self.miss_attempts = 0
        self.error: BaseException | None = None
        self._stop = threading.Event()

    def _read_path(self) -> str:
        if self.rng.randrange(QUERY_EVERY) == 0:
            topology = self.rng.choice(TOPOLOGIES[:3])
            return f"/query?topology={topology}&limit={self.rng.randrange(1, 6)}"
        return f"/predict?spec_id={self.rng.choice(self.stored_ids)}"

    def read_loop(self, deadline: float | None, count: int | None) -> float:
        """Send reads until ``deadline`` or ``count`` requests; returns the wall time."""
        start = time.perf_counter()
        for index in itertools.count():
            if (count is not None and index >= count) or (
                deadline is not None and time.perf_counter() >= deadline
            ):
                break
            path = self._read_path()
            status, data, _ = self.reads.request("GET", path)
            body = json.loads(data) if status == 200 else None
            self.read_log.append((path, status, body))
            if status != 200:
                self.read_failures += 1
            elif path.startswith("/predict"):
                self.predict_hits += 1
                if body["result"] != self.expected.get(body["spec_id"]):
                    self.read_failures += 1
        return time.perf_counter() - start

    def write_loop(self) -> None:
        try:
            for spec in self.misses:
                if self._stop.is_set():
                    return
                self.miss_attempts += 1
                self._one_miss(spec)
        except BaseException as error:  # reported by the caller
            self.error = error

    def _one_miss(self, spec: dict) -> None:
        time.sleep(self.think.uniform(0.0, THINK_S))
        start = time.perf_counter()
        status, data, _ = self.writes.request("POST", "/predict", json.dumps(spec).encode())
        if status != 202:
            self.miss_failures += 1
            return
        spec_id = json.loads(data)["spec_id"]
        while time.perf_counter() - start < MISS_TIMEOUT_S:
            time.sleep(self.think.uniform(0.0, POLL_JITTER_S))
            status, data, _ = self.writes.request("GET", f"/predict?spec_id={spec_id}")
            if status == 200:
                self.miss_ready.append(time.perf_counter() - start)
                self.miss_bodies[spec_id] = json.loads(data)["result"]
                return
            if status != 202:
                break
        self.miss_failures += 1

    def run(self, seconds: float | None, read_count: int | None = None) -> float:
        writer = threading.Thread(target=self.write_loop, name="perfbench-writes")
        writer.start()
        deadline = time.perf_counter() + seconds if seconds is not None else None
        try:
            wall = self.read_loop(deadline, read_count)
        finally:
            self._stop.set()
            writer.join(timeout=MISS_TIMEOUT_S * 2)
            self.reads.close()
            self.writes.close()
        if writer.is_alive():
            raise RuntimeError("write connection did not finish")
        if self.error is not None:
            raise self.error
        return wall


def check_against_store(db: Path, loop: Loop) -> int:
    """Every 200 body must equal the stored payload; returns the mismatch count."""
    from repro.service.store import ResultStore

    store = ResultStore(db)
    mismatches = 0
    for spec_id, result in loop.miss_bodies.items():
        row = store.get(spec_id)
        mismatches += row is None or row.result != result
    for path, status, body in loop.read_log:
        if status == 200 and path.startswith("/query"):
            for entry in body["results"]:
                row = store.get(entry["spec_id"])
                mismatches += row is None or row.result != entry["result"]
    return mismatches

