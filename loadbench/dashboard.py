"""``dashboard``: scalar hot-key traffic through the TCP fleet.

A Zipf-skewed trace over a pool of 2-attribute Age x Income boxes is
sent as scalar ``op=query`` requests to a ``NetworkServer(workers=1)``
serving the 4-D Brazil census Privelet+ coefficient release from its
archive.  The front-end (this process) and the worker fill the two
cores; load comes from one separate generator process with two
connections: first an open loop of evenly spaced requests at a fixed
rate (``p50_ms``), then a closed loop with a fixed number in flight
(``p99_ms``, ``peak_qps``).  This is the only workload that loads
the network path, wire decode, micro-batching and the engine's
per-call cost; the profile cache runs hot.

The traced run adds per-pid CPU of the fleet and an in-process replay
of the same scalar trace against the same release, once untraced and
once with layer spans, for the decode/batching/engine split (tracing
inside worker processes is not available).
"""

from __future__ import annotations

import gc
import json
import os
import socket
import subprocess
import sys
import time

import numpy as np

import common
import spans

RELEASE = "census"
#: Open-loop requests per second, evenly spaced: about half the
#: closed-loop peak on 2 shared cores (BENCHMARK.json repeats it).
OPEN_RATE = 400.0
CONNECTIONS = 2
#: The attributes the hot boxes restrict; the others span their domain.
HOT_ATTRIBUTES = ("Age", "Income")
#: Requests in flight per connection in the closed loop.
DEPTH = 8
#: Share of ``--seconds`` given to the open loop (the rest: closed loop,
#: whose throughput and tail need more samples than the open loop's median).
OPEN_SHARE = 0.4
#: Closed-loop throughput is the median of per-window answer counts.
QPS_WINDOW_S = 1.0
ZIPF_EXPONENT = 1.5
TIMEOUT_S = 2.0
#: Fleets started per set-up before a warm-up that times out fails the run.
WARM_TRIES = 3
SETUP_REPEATS = 3
#: Rounds of one live refresh + read, one cold open and one publish.
ROUNDS = 24

SIZES = {
    "full": {"scale": 0.1, "rows": 60_000, "pool": 64, "rel_boxes": 8192},
    "tiny": {"scale": 0.05, "rows": 5_000, "pool": 16, "rel_boxes": 128},
}


def _pool(rng, schema, count: int):
    """The hot boxes: Age x Income ranges, other axes full."""
    axes = [schema.index_of(name) for name in HOT_ATTRIBUTES]
    return common.uniform_boxes(rng, schema.shape, count, axes=axes)


def _templates(names, lows, highs) -> list[str]:
    """One scalar wire line per pool box, ``%d`` standing for the id."""
    lines = []
    for low, high in zip(lows, highs):
        ranges = {
            name: [int(lo), int(hi)]
            for name, lo, hi in zip(names, low, high)
            if name in HOT_ATTRIBUTES
        }
        body = json.dumps({"op": "query", "release": RELEASE, "ranges": ranges})
        lines.append(body[:-1] + ', "id": %d}\n')
    return lines


def _zipf_trace(rng, pool: int, length: int) -> list[int]:
    return ((rng.zipf(ZIPF_EXPONENT, size=length) - 1) % pool).tolist()


def _exchange(address, lines: list[bytes], timeout: float) -> list[dict | None]:
    """Send lines on one connection, each after the previous one's reply.

    A line not answered within ``timeout`` seconds, and every line after
    it, gets ``None``.
    """
    replies = []
    try:
        with socket.create_connection(address, timeout=timeout) as sock:
            stream = sock.makefile("rwb")
            for line in lines:
                stream.write(line)
                stream.flush()
                replies.append(json.loads(stream.readline()))
    except OSError:
        pass
    return replies + [None] * (len(lines) - len(replies))


class Dashboard:
    def __init__(self, cfg):
        from repro import BRAZIL, generate_census_table, publish

        self.cfg = cfg
        self.size = SIZES[cfg.size]
        rng = np.random.default_rng(cfg.seed)
        self.build_table = lambda: generate_census_table(
            BRAZIL.scaled(self.size["scale"]), self.size["rows"], seed=cfg.seed
        )
        self.publish = lambda table: publish(
            table, 1.0, representation="coefficients", seed=cfg.seed + 1
        )
        table = self.build_table()
        self.names = table.schema.names
        self.shape = table.schema.shape
        self.pool_lows, self.pool_highs = _pool(rng, table.schema, self.size["pool"])
        self.templates = _templates(self.names, self.pool_lows, self.pool_highs)
        self.trace = _zipf_trace(rng, self.size["pool"], 1 << 16)
        self.rel_lows, self.rel_highs = common.uniform_boxes(
            rng, self.shape, self.size["rel_boxes"]
        )
        self.archive = os.path.join(cfg.workdir, "dashboard.npz")
        self.tally = common.Tally()
        self.log = common.PhaseLog()
        self.memory = common.MemoryPeak()
        self.record: dict = {}
        self.warm_failures: list[int] = []

    # -- set-up -----------------------------------------------------------
    def _setup(self, _attempt):
        from repro import save_result
        from repro.serving.network import NetworkServer

        table = self.build_table()
        result = self.publish(table)
        if os.path.exists(self.archive):
            os.unlink(self.archive)
        save_result(self.archive, result)
        # Warm up as clients first arrive: one request at a time.
        warm = [(t % i).encode() for i, t in enumerate(self.templates)]
        for _ in range(WARM_TRIES):
            server = NetworkServer(workers=1, start_method="spawn")
            server.register_archive(self.archive, name=RELEASE)
            try:
                address = server.start()
                replies = _exchange(address, warm, TIMEOUT_S)
            except BaseException:
                server.close()
                raise
            # A fleet that stops answering is counted, recorded and
            # replaced; the run goes on with a fleet that answers.
            failed = sum(1 for reply in replies if not (reply and reply.get("ok")))
            self.tally.attempted += len(warm)
            self.tally.failed += failed
            if not failed:
                return {"table": table, "result": result, "server": server, "address": address}
            self.warm_failures.append(failed)
            server.close()
        raise RuntimeError(f"fleet warm-up failed {WARM_TRIES} times")

    # -- load phases --------------------------------------------------------
    def _generate(self, shape: str, **job) -> dict:
        job.update(
            shape=shape,
            address=list(self.state["address"]),
            templates=self.templates,
            trace=self.trace,
            timeout_s=TIMEOUT_S,
            connections=CONNECTIONS,
        )
        job_path = os.path.join(self.cfg.workdir, f"loadgen-{shape}.json")
        out_path = os.path.join(self.cfg.workdir, f"loadgen-{shape}.out.json")
        with open(job_path, "w") as handle:
            json.dump(job, handle)
        pids = [os.getpid(), *self.state["server"].worker_pids]
        cpu_before = [common.process_cpu_seconds(pid) for pid in pids]
        self.log.start(f"{shape}-loop")
        generator = subprocess.Popen(
            [sys.executable, os.path.join(self.cfg.bench_dir, "loadgen.py"), job_path, out_path]
        )
        try:
            code = generator.wait(timeout=float(job["seconds"]) + 60.0)
        finally:
            if generator.poll() is None:
                generator.kill()
                generator.wait()
        phase = self.log.stop()
        cpu = [common.process_cpu_seconds(pid) - before for pid, before in zip(pids, cpu_before)]
        self.memory.sample(pids)
        if code != 0:
            raise RuntimeError(f"load generator exited with {code}")
        with open(out_path) as handle:
            out = json.load(handle)
        out["frontend_cpu_s"] = cpu[0]
        out["worker_cpu_s"] = sum(cpu[1:])
        out["phase"] = phase
        self._check(out)
        return out

    def _account(self, keys, answered, estimates, stds) -> np.ndarray:
        """Check scalar answers to pool boxes ``keys``; returns which are right.

        ``answered`` marks the requests that got an ``ok`` reply; the
        rest were refused, timed out or unmatched.
        """
        keys = np.asarray(keys, dtype=np.int64)
        answered = np.asarray(answered, dtype=bool)
        estimates = np.where(answered, np.asarray(estimates, dtype=np.float64), np.nan)
        stds = np.where(answered, np.asarray(stds, dtype=np.float64), np.nan)
        right = answered & (estimates == self.reference.estimates[keys])
        right &= np.isclose(stds, self.reference.noise_stds[keys], rtol=common.STD_RTOL, atol=0.0)
        self.tally.attempted += keys.size
        self.tally.failed += int((~right).sum())
        self.tally.wrong += int((answered & ~right).sum())
        return right

    def _check(self, out: dict) -> None:
        """Account one generator phase; failed requests take the timeout."""
        answered = [status == "ok" for status in out["status"]]
        estimates = [e if ok else np.nan for e, ok in zip(out["estimate"], answered)]
        stds = [e if ok else np.nan for e, ok in zip(out["noise_std"], answered)]
        right = self._account(out["keys"], answered, estimates, stds)
        latency = np.asarray(out["latency_s"], dtype=np.float64)
        latency[~right] = TIMEOUT_S  # a failed request misses any limit
        out["latency_s"] = latency
        out["ok"] = right
        out["ok_rows"] = int(right.sum())
        out["failed"] = int((~right).sum())

    # -- in-process replay (traced run) -------------------------------------
    def _replay(self, seconds: float, tracer: spans.Tracer | None) -> dict:
        from repro.serving import requests
        from repro.serving.server import ReleaseServer

        if tracer is not None:
            spans.install_serving_layers(tracer)
        server = ReleaseServer()
        try:
            server.register_archive(self.archive, name=RELEASE)
            # Warm up as the fleet was: one request at a time.
            for index, template in enumerate(self.templates):
                server.submit(requests.parse_request_line(template % index)).result()
            window = CONNECTIONS * DEPTH
            done = 0
            started = time.perf_counter()
            end = started + seconds
            while time.perf_counter() < end:
                keys = [self.trace[(done + i) % len(self.trace)] for i in range(window)]
                lines = [self.templates[key] % (done + i) for i, key in enumerate(keys)]
                with spans.request(tracer):
                    futures = [server.submit(requests.parse_request_line(line)) for line in lines]
                    answers = [future.result() for future in futures]
                self._account(
                    keys, [True] * window,
                    [answer.estimate for answer in answers],
                    [answer.noise_std for answer in answers],
                )
                done += window
            elapsed = time.perf_counter() - started
            stats = server.stats()
        finally:
            server.close()
            if tracer is not None:
                tracer.uninstall()
        return {"requests": done, "seconds": elapsed, "qps": done / elapsed, "stats": stats}

    # -- run ----------------------------------------------------------------
    def run(self) -> dict:
        self.log.start("setup")
        self.state, setup_times = common.timed_setups(
            self._setup, SETUP_REPEATS, lambda state: state["server"].close()
        )
        self.log.stop()
        server = self.state["server"]
        try:
            self._references()
            self.memory.sample([os.getpid(), *server.worker_pids])
            open_out = self._generate(
                "open", rate=OPEN_RATE, seconds=self.cfg.seconds * OPEN_SHARE,
            )
            closed_out = self._generate(
                "closed", depth=DEPTH, seconds=self.cfg.seconds * (1 - OPEN_SHARE)
            )
            fleet = server.stats()
            rel = self._rel_err()
            if self.cfg.trace:
                replay = self._replays()
                io_open = common.archive_open_ms(self.archive)
            else:
                rounds = self._rounds()
        finally:
            server.close()
        open_t = common.timing_summary(open_out["latency_s"])
        closed_t = common.timing_summary(closed_out["latency_s"])
        rows = open_out["ok_rows"] + closed_out["ok_rows"]
        cpu = sum(out["frontend_cpu_s"] + out["worker_cpu_s"] for out in (open_out, closed_out))
        self.record = {
            "setup_s": setup_times,
            "warm_up_failures": self.warm_failures,
            "open_loop": dict(open_t, rate=OPEN_RATE, late_ms=_late(open_out)),
            "closed_loop": {
                "in_flight": CONNECTIONS * DEPTH,
                "window_qps": _window_qps(closed_out),
                "answered_in_window": closed_out["answered_in_window"],
                "seconds": closed_out["elapsed_s"],
                **closed_t,
            },
            "phases": self.log.phases,
            "fleet_stats": {k: v for k, v in fleet.items() if k != "per_worker"},
        }
        if self.cfg.trace:
            return self._layers(open_out, closed_out, fleet, replay, io_open)
        self.record.update(rounds)
        closed_ok = int(closed_out["ok"].sum())
        return {
            "setup_s": (common.median(setup_times), "s"),
            "p50_ms": (open_t["p50_ms"], "ms"),
            # The open loop's 1% tail is set by host preemption, not the
            # server (see README.md); the closed loop's by queueing.
            "p99_ms": (closed_t["tail_ms"], "ms"),
            "peak_qps": (_peak_qps(closed_out), "queries/s"),
            "rows_per_s": (closed_ok / closed_out["elapsed_s"], "rows/s"),
            "cpu_ms_per_kq": (1e6 * cpu / max(rows, 1), "ms"),
            "rel_err_median": (rel, "ratio"),
            "epoch_ms": (rounds["epoch_publish"]["p50_ms"], "ms"),
            "refresh_read_ms": (rounds["refresh_read"]["p50_ms"], "ms"),
            "cold_open_ms": (rounds["cold_open"]["p50_ms"], "ms"),
            "archive_mb": (os.path.getsize(self.archive) / 1e6, "MB"),
            "rss_mb": (self.memory.peak_mb, "MB"),
        }

    def _references(self) -> None:
        """Reference answers and true counts, then free the harness's copies.

        The table and the in-memory release are dropped before any memory
        sample, so ``rss_mb`` counts the server, not the benchmark.
        """
        from repro import QueryEngine

        engine = QueryEngine(self.state.pop("result"))
        self.reference = engine.answer_columnar(self.pool_lows, self.pool_highs)
        if self.cfg.perturb:
            self.reference = common.perturbed(self.reference)
        self.rel_reference = engine.answer_columnar(self.rel_lows, self.rel_highs)
        self.rel_exact = common.exact_answers(
            self.state.pop("table"), self.rel_lows, self.rel_highs
        )
        del engine
        gc.collect()

    def _rounds(self) -> dict:
        """Refresh + read, cold open and publish, one of each per round."""
        table = self.build_table()
        with socket.create_connection(self.state["address"], timeout=30) as sock:
            stream = sock.makefile("rwb")
            return common.in_turn(
                ROUNDS,
                refresh_read=lambda index: self._refresh_read(stream, index),
                cold_open=self._cold_open,
                epoch_publish=lambda _: self._epoch_publish(table),
            )

    def _epoch_publish(self, table) -> float:
        """Publish the table as the one-epoch release."""
        started = time.perf_counter()
        self.publish(table)
        return time.perf_counter() - started

    def _refresh_read(self, stream, index: int) -> float:
        """Refresh the fleet's release from its archive; time the next read."""
        self.state["server"].refresh(RELEASE)
        key = self.trace[index]
        started = time.perf_counter()
        stream.write((self.templates[key] % index).encode())
        stream.flush()
        reply = json.loads(stream.readline())
        elapsed = time.perf_counter() - started
        self._account(
            [key], [bool(reply.get("ok"))],
            [reply.get("estimate", np.nan)], [reply.get("noise_std", np.nan)],
        )
        return elapsed

    def _cold_open(self, index: int) -> float:
        """A fresh in-process server on the archive answering one request."""
        from repro.serving.requests import parse_request_line
        from repro.serving.server import ReleaseServer

        key = self.trace[index]
        started = time.perf_counter()
        server = ReleaseServer()
        try:
            server.register_archive(self.archive, name=RELEASE)
            answer = server.query(parse_request_line(self.templates[key] % index))
            elapsed = time.perf_counter() - started
        finally:
            server.close()
        self._account([key], [True], [answer.estimate], [answer.noise_std])
        return elapsed

    def _rel_err(self) -> float:
        """Answer the fixed uniform box set once over TCP, untimed, and check it."""
        payload = common.batch_payload(
            RELEASE, self.names, self.rel_lows, self.rel_highs, request_id=0
        )
        line = (json.dumps(payload) + "\n").encode()
        (reply,) = _exchange(self.state["address"], [line], timeout=30.0)
        if not (reply and reply.get("ok")):
            self.tally.attempted += len(self.rel_lows)
            self.tally.failed += len(self.rel_lows)
            return float("nan")
        self.tally.check(reply["estimates"], reply["noise_stds"], self.rel_reference)
        return common.rel_err_median(
            np.asarray(reply["estimates"]), self.rel_exact, self.size["rows"]
        )

    def _replays(self) -> dict:
        seconds = self.cfg.seconds / 4.0
        self.log.start("replay-untraced")
        plain = self._replay(seconds, None)
        self.log.stop()
        tracer = spans.Tracer()
        self.log.start("replay-traced")
        traced = self._replay(seconds, tracer)
        self.log.stop()
        return {"plain": plain, "traced": traced, "tracer": tracer}

    def _layers(self, open_out, closed_out, fleet, replay, io_open) -> dict:
        import layers

        tracer = replay["tracer"]
        closed_requests = max(len(closed_out["status"]), 1)
        attempted = len(open_out["status"]) + len(closed_out["status"])
        failed = open_out["failed"] + closed_out["failed"]
        metrics = layers.zeros()
        metrics.update(layers.serving(tracer, replay["traced"]["stats"]))
        metrics.update(
            {
                "network.frontend_cpu_ms_per_req":
                    1e3 * closed_out["frontend_cpu_s"] / closed_requests,
                "network.worker_cpu_ms_per_req":
                    1e3 * closed_out["worker_cpu_s"] / closed_requests,
                "network.failed_share": failed / attempted,
                "loadgen.late_ms": _late(open_out)["mean"],
                "batching.mean_batch_size": fleet["mean_batch_size"],
                "plans.hit_rate": fleet["plan_cache_hit_rate"],
                "profiles.hit_rate": fleet["profile_cache_hit_rate"],
                "io.open_ms": io_open,
                "trace.overhead": replay["traced"]["qps"] / replay["plain"]["qps"],
                "trace.uncovered_share": tracer.uncovered_share(),
            }
        )
        self.record["replay"] = {
            "untraced_qps": replay["plain"]["qps"],
            "traced_qps": replay["traced"]["qps"],
        }
        return layers.with_units(metrics)


def _window_qps(out: dict) -> list[float]:
    """Correct answers per second in each whole window of the closed loop."""
    start, end = out["window"]
    done = np.asarray(out["started"]) + np.asarray(out["latency_s"])
    done = done[out["ok"]]
    width = min(QPS_WINDOW_S, end - start)
    edges = start + width * np.arange(int((end - start) // width) + 1)
    return (np.histogram(done, bins=edges)[0] / width).tolist()


def _peak_qps(out: dict) -> float:
    return common.median(_window_qps(out))


def _late(out: dict) -> dict:
    late = np.asarray(out["late_s"], dtype=np.float64) * 1e3
    return {
        "mean": float(late.mean()),
        "p50": float(np.percentile(late, 50)),
        "max": float(late.max()),
    }


def run(cfg) -> tuple[dict, "Dashboard"]:
    workload = Dashboard(cfg)
    return workload.run(), workload
