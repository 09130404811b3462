"""``olap``: columnar batches of random 4-D boxes on flat and composed releases.

One closed-loop caller sends 256-row ``query_batch`` requests to an
in-process ``ReleaseServer``.  Batches alternate between a flat
Privelet+ coefficient release and ``publish(table, 1.0,
shard_by="Age", shards=4, stream=timestamps)`` over 8 epochs (a
Partition of per-shard TimeTrees), the composed ones with random time
windows; one batch in four is a view-eligible marginal sweep (cells of
the Age x Gender cube over every epoch).  The planner, compose routing,
coefficient gather and exact variance do most of the work; random boxes
overflow the profile cache's 4096 entries per axis, so it misses.  No
network, and one caller means no coalescing in the micro-batcher.

The flat release is served from its archive.  The composed one is
registered in memory: its archive would be ~140 MB and take seconds to
write on every set-up; archive I/O is the ``ingest`` workload's layer.

The batches cycle through a fixed, seed-determined pool whose reference
answers are computed before timing starts, so every timed response is
checked without charging the check to the server.
"""

from __future__ import annotations

import dataclasses
import gc
import os
import time

import numpy as np

import common
import spans

EPOCHS = 8
SHARDS = 4
SETUP_REPEATS = 3
#: Rounds of one refresh + flat batch, one cold open of the flat
#: archive and one single-epoch publish in the composed shape.
ROUNDS = 24
#: Kinds of batch in one cycle of the pool, in order.
CYCLE = ("flat", "window", "flat", "sweep")

SIZES = {
    "full": {"scale": 0.1, "rows": 60_000, "batch": 256, "cycles": 36, "rel_boxes": 4096},
    "tiny": {"scale": 0.05, "rows": 5_000, "batch": 32, "cycles": 2, "rel_boxes": 64},
}


@dataclasses.dataclass
class Batch:
    kind: str
    payload: dict
    bounds: tuple
    reference: object = None


class Olap:
    def __init__(self, cfg):
        from repro import BRAZIL, generate_census_table

        self.cfg = cfg
        self.size = SIZES[cfg.size]
        self.spec = BRAZIL.scaled(self.size["scale"])
        self.generate = generate_census_table
        rng = np.random.default_rng(cfg.seed)
        table = self._table()
        self.names = table.schema.names
        self.shape = table.schema.shape
        self.timestamps = rng.integers(0, EPOCHS, table.num_rows)
        self.pool = self._pool(rng)
        self.rel_lows, self.rel_highs = common.uniform_boxes(
            rng, self.shape, self.size["rel_boxes"]
        )
        self.archive = os.path.join(cfg.workdir, "olap-flat.npz")
        self.tally = common.Tally()
        self.log = common.PhaseLog()
        self.memory = common.MemoryPeak()
        self.record: dict = {}

    def _table(self):
        return self.generate(self.spec, self.size["rows"], seed=self.cfg.seed)

    def _pool(self, rng) -> list[Batch]:
        count = self.size["batch"]
        age, gender = self.names.index("Age"), self.names.index("Gender")
        # Every epoch window once per pass over the pool, in seeded order,
        # so the mix of window widths is the same for every seed.
        windows = [(lo, hi) for lo in range(EPOCHS) for hi in range(lo + 1, EPOCHS + 1)]
        order = rng.permutation(len(windows))
        pool = []
        for cycle in range(self.size["cycles"]):
            for kind in CYCLE:
                request_id = len(pool)
                if kind == "sweep":
                    lows = np.zeros((count, len(self.shape)), dtype=np.int64)
                    highs = np.tile(np.asarray(self.shape, dtype=np.int64), (count, 1))
                    for axis in (age, gender):
                        lows[:, axis] = rng.integers(0, self.shape[axis], count)
                        highs[:, axis] = lows[:, axis] + 1
                    names = ("Age", "Gender")
                    payload = common.batch_payload(
                        "composed", names, lows[:, [age, gender]],
                        highs[:, [age, gender]], request_id=request_id,
                    )
                else:
                    lows, highs = common.uniform_boxes(rng, self.shape, count)
                    time_range = None
                    if kind == "window":
                        time_range = windows[order[cycle % len(windows)]]
                    release = "flat" if kind == "flat" else "composed"
                    payload = common.batch_payload(
                        release, self.names, lows, highs,
                        time_range=time_range, request_id=request_id,
                    )
                pool.append(Batch(kind, payload, (lows, highs)))
        return pool

    # -- set-up -----------------------------------------------------------
    def _setup(self, _attempt):
        from repro import publish, save_result

        table = self._table()
        flat = publish(table, 1.0, representation="coefficients", seed=self.cfg.seed + 1)
        composed = publish(
            table, 1.0, shard_by="Age", shards=SHARDS, stream=self.timestamps,
            seed=self.cfg.seed + 2,
        )
        if os.path.exists(self.archive):
            os.unlink(self.archive)
        save_result(self.archive, flat)
        server = self._serve(composed)
        return {"table": table, "flat": flat, "composed": composed, "server": server}

    def _serve(self, composed):
        """A started server with both releases, warmed on one pool cycle."""
        from repro.serving.requests import QueryBatchRequest
        from repro.serving.server import ReleaseServer

        server = ReleaseServer()
        server.register_archive(self.archive, name="flat")
        server.register("composed", composed)
        for batch in self.pool[: len(CYCLE)]:
            server.query_columnar(QueryBatchRequest.from_dict(batch.payload))
        return server

    def _references(self) -> None:
        """Reference answers and true counts, then free the harness's copies.

        Every pool batch and every rel-err chunk is answered once by a
        reference engine; the engines, the flat release and the table are
        dropped before any memory sample, so ``rss_mb`` counts the server,
        not the benchmark.
        """
        from repro import QueryEngine

        composed = self.state["composed"]
        engines = {
            "flat": QueryEngine(self.state.pop("flat")),
            "composed": QueryEngine(composed),
        }
        for batch in self.pool:
            window = batch.payload.get("time_range")
            key = batch.payload["release"] if window is None else tuple(window)
            if key not in engines:
                view = composed.release.window(*window)
                engines[key] = QueryEngine(dataclasses.replace(composed, release=view))
            batch.reference = engines[key].answer_columnar(*batch.bounds)
            if self.cfg.perturb:
                batch.reference = common.perturbed(batch.reference)
        self.rel_references = {
            release: [
                engines[release].answer_columnar(lows, highs)
                for lows, highs in self._rel_chunks()
            ]
            for release in ("flat", "composed")
        }
        self.rel_exact = common.exact_answers(
            self.state.pop("table"), self.rel_lows, self.rel_highs
        )
        del engines
        gc.collect()

    def _rel_chunks(self):
        step = self.size["batch"]
        for start in range(0, len(self.rel_lows), step):
            yield self.rel_lows[start:start + step], self.rel_highs[start:start + step]

    # -- timed loop ---------------------------------------------------------
    def _loop(self, server, seconds: float, tracer: spans.Tracer | None) -> dict:
        from repro.serving.requests import QueryBatchRequest

        latencies, cpu, rows = [], 0.0, 0
        kinds = []
        end = time.perf_counter() + seconds
        index = len(CYCLE)  # the first cycle warmed the server
        while time.perf_counter() < end:
            batch = self.pool[index % len(self.pool)]
            index += 1
            cpu_start = time.process_time()
            started = time.perf_counter()
            with spans.request(tracer):
                response = server.query_columnar(QueryBatchRequest.from_dict(batch.payload))
            latencies.append(time.perf_counter() - started)
            cpu += time.process_time() - cpu_start
            kinds.append(batch.kind)
            wrong = self.tally.check(response.estimates, response.noise_stds, batch.reference)
            rows += len(batch.reference.estimates) - wrong
        busy = float(np.sum(latencies))
        return {
            "latency_s": latencies,
            "kinds": kinds,
            "rows": rows,
            "busy_s": busy,
            "rows_per_s": rows / busy,
            "cpu_s": cpu,
        }

    def _rel_err(self, server) -> float:
        """The fixed uniform box set on both releases, untimed and checked."""
        from repro.serving.requests import QueryBatchRequest

        estimates = []
        for release in ("flat", "composed"):
            for (lows, highs), reference in zip(self._rel_chunks(), self.rel_references[release]):
                payload = common.batch_payload(release, self.names, lows, highs)
                response = server.query_columnar(QueryBatchRequest.from_dict(payload))
                self.tally.check(response.estimates, response.noise_stds, reference)
                estimates.append(response.estimates)
        exact = np.concatenate([self.rel_exact, self.rel_exact])
        return common.rel_err_median(np.concatenate(estimates), exact, self.size["rows"])

    # -- run ----------------------------------------------------------------
    def run(self) -> dict:
        self.log.start("setup")
        self.state, setup_times = common.timed_setups(
            self._setup, SETUP_REPEATS, lambda state: state["server"].close()
        )
        self.log.stop()
        server = self.state["server"]
        pid = [os.getpid()]
        try:
            self._references()
            self.memory.sample(pid)
            seconds = self.cfg.seconds / (2.0 if self.cfg.trace else 1.0)
            self.log.start("closed-loop")
            plain = self._loop(server, seconds, None)
            self.log.stop()
            self.memory.sample(pid)
            rel = self._rel_err(server)
            stats = server.stats()
            if not self.cfg.trace:
                rounds = self._rounds(server)
        finally:
            server.close()
        timing = common.timing_summary(plain["latency_s"])
        self.record = {
            "setup_s": setup_times,
            "batches": dict(timing, busy_s=plain["busy_s"], rows=plain["rows"]),
            "p50_ms_by_kind": {
                kind: 1e3 * common.median(
                    [s for s, k in zip(plain["latency_s"], plain["kinds"]) if k == kind]
                )
                for kind in sorted(set(CYCLE))
            },
            "phases": self.log.phases,
            "server_stats": dataclasses.asdict(stats),
        }
        if self.cfg.trace:
            return self._layers(plain)
        self.record.update(rounds)
        return {
            "setup_s": (common.median(setup_times), "s"),
            "p50_ms": (timing["p50_ms"], "ms"),
            "p99_ms": (timing["tail_ms"], "ms"),
            "peak_qps": (len(plain["latency_s"]) / plain["busy_s"], "queries/s"),
            "rows_per_s": (plain["rows_per_s"], "rows/s"),
            "cpu_ms_per_kq": (1e6 * plain["cpu_s"] / plain["rows"], "ms"),
            "rel_err_median": (rel, "ratio"),
            "epoch_ms": (rounds["epoch_publish"]["p50_ms"], "ms"),
            "refresh_read_ms": (rounds["refresh_read"]["p50_ms"], "ms"),
            "cold_open_ms": (rounds["cold_open"]["p50_ms"], "ms"),
            "archive_mb": (os.path.getsize(self.archive) / 1e6, "MB"),
            "rss_mb": (self.memory.peak_mb, "MB"),
        }

    def _rounds(self, server) -> dict:
        """Refresh + batch, cold open and epoch publish, one of each per round."""
        table = self._table()
        flat = [batch for batch in self.pool if batch.kind == "flat"]
        return common.in_turn(
            ROUNDS,
            refresh_read=lambda index: self._refresh_read(server, flat[index % len(flat)]),
            cold_open=lambda index: self._cold_open(flat[index % len(flat)]),
            epoch_publish=lambda index: self._epoch_publish(table, index),
        )

    def _epoch_publish(self, table, index: int) -> float:
        """Publish one epoch of the table in the composed shape."""
        from repro import publish
        from repro.data.table import Table

        rows = table.rows[self.timestamps == index % EPOCHS]
        started = time.perf_counter()
        publish(
            Table(table.schema, rows), 1.0, shard_by="Age", shards=SHARDS,
            stream=np.zeros(len(rows), dtype=np.int64), seed=self.cfg.seed + 3 + index,
        )
        return time.perf_counter() - started

    def _refresh_read(self, server, batch: Batch) -> float:
        """Re-open the flat release from its archive; time the next batch."""
        from repro.serving.requests import QueryBatchRequest

        server.refresh("flat")
        started = time.perf_counter()
        response = server.query_columnar(QueryBatchRequest.from_dict(batch.payload))
        elapsed = time.perf_counter() - started
        self.tally.check(response.estimates, response.noise_stds, batch.reference)
        return elapsed

    def _cold_open(self, batch: Batch) -> float:
        """A fresh server on the flat archive answering one batch."""
        from repro.serving.requests import QueryBatchRequest
        from repro.serving.server import ReleaseServer

        started = time.perf_counter()
        server = ReleaseServer()
        try:
            server.register_archive(self.archive, name="flat")
            response = server.query_columnar(QueryBatchRequest.from_dict(batch.payload))
            elapsed = time.perf_counter() - started
        finally:
            server.close()
        self.tally.check(response.estimates, response.noise_stds, batch.reference)
        return elapsed

    def _layers(self, plain) -> dict:
        import layers

        tracer = spans.Tracer()
        spans.install_serving_layers(tracer)
        try:
            server = self._serve(self.state["composed"])
            try:
                self.log.start("closed-loop-traced")
                traced = self._loop(server, self.cfg.seconds / 2.0, tracer)
                self.log.stop()
                stats = server.stats()
            finally:
                server.close()
        finally:
            tracer.uninstall()
        metrics = layers.zeros()
        metrics.update(layers.serving(tracer, stats))
        metrics.update(
            {
                "io.open_ms": common.archive_open_ms(self.archive),
                "trace.overhead": traced["rows_per_s"] / plain["rows_per_s"],
                "trace.uncovered_share": tracer.uncovered_share(),
            }
        )
        self.record["traced_rows_per_s"] = traced["rows_per_s"]
        return layers.with_units(metrics)


def run(cfg):
    workload = Olap(cfg)
    return workload.run(), workload
