"""``ingest``: epochs written beside reads of the live stream.

A ``StreamingPublisher`` ingests seed-determined rows (Age x Income of
the census) and closes a fixed number of small epochs, appending each
to a v4 stream archive.  After every close one caller reads windows
over the last 8 epochs from a ``ReleaseServer(watch_streams=True)``
registered on that archive, so the first read after each close pays the
live refresh.  Then fresh servers are opened on the finished archive
one after another (cold opens) until the run's time is up.  This is
the only workload that loads ``core`` publish, ``streaming``, ``io``
append/open and the server's refresh; the planner runs on small
batches and the network is bypassed.

The epoch count is fixed, not timed, so the archive and its size are
the same on every run with the same seed.
"""

from __future__ import annotations

import contextlib
import dataclasses
import os
import time

import numpy as np

import common
import spans

RELEASE = "stream"
ATTRIBUTES = ("Age", "Income")
#: Read windows after each close, newest epochs, widest first.
WINDOWS = (8, 4, 2, 1)
SETUP_REPEATS = 3

SIZES = {
    "full": {
        "scale": 0.05, "warm_epochs": 8, "epochs": 192, "rows_per_epoch": 1500,
        "read_rows": 64, "rel_boxes": 4096,
    },
    "tiny": {
        "scale": 0.05, "warm_epochs": 8, "epochs": 8, "rows_per_epoch": 100,
        "read_rows": 8, "rel_boxes": 64,
    },
}


class Ingest:
    def __init__(self, cfg):
        from repro import BRAZIL, generate_census_table
        from repro.data.census import census_schema
        from repro.data.schema import Schema

        self.cfg = cfg
        self.size = SIZES[cfg.size]
        rng = np.random.default_rng(cfg.seed)
        total_epochs = self.size["warm_epochs"] + self.size["epochs"]
        self.counts = rng.poisson(self.size["rows_per_epoch"], total_epochs)
        self.spec = BRAZIL.scaled(self.size["scale"])
        self.generate = generate_census_table
        full = census_schema(self.spec)
        self.schema = Schema([full[name] for name in ATTRIBUTES])
        self.reads = [
            [common.uniform_boxes(rng, self.schema.shape, self.size["read_rows"]) for _ in WINDOWS]
            for _ in range(total_epochs)
        ]
        self.rel_lows, self.rel_highs = common.uniform_boxes(
            rng, self.schema.shape, self.size["rel_boxes"]
        )
        self.tracer = None
        self.tally = common.Tally()
        self.log = common.PhaseLog()
        self.memory = common.MemoryPeak()
        self.record: dict = {}

    def _archive(self, tag) -> str:
        return os.path.join(self.cfg.workdir, f"stream-{tag}.npz")

    # -- set-up -------------------------------------------------------------
    def _setup(self, tag):
        """Input rows, publisher + archive with the warm epochs closed, warm server."""
        from repro import PriveletPlusMechanism, StreamingPublisher
        from repro.serving.server import ReleaseServer

        census = self.generate(self.spec, int(self.counts.sum()), seed=self.cfg.seed)
        axes = [census.schema.index_of(name) for name in ATTRIBUTES]
        self.epoch_rows = np.split(census.rows[:, axes], np.cumsum(self.counts)[:-1])
        path = self._archive(tag)
        if os.path.exists(path):
            os.unlink(path)
        publisher = StreamingPublisher(
            self.schema, PriveletPlusMechanism(sa_names="auto"), 1.0,
            seed=self.cfg.seed, archive_path=path,
        )
        state = {"publisher": publisher, "path": path}
        for epoch in range(self.size["warm_epochs"]):
            self._close(publisher, epoch)
        server = ReleaseServer(watch_streams=True)
        server.register_archive(path, name=RELEASE)
        state["server"] = server
        self._read(state, self.size["warm_epochs"] - 1, None, check=False)
        return state

    def _close(self, publisher, epoch: int) -> None:
        from repro.data.table import Table

        rows = self.epoch_rows[epoch]
        timestamps = np.full(rows.shape[0], epoch, dtype=np.int64)
        publisher.ingest(Table(self.schema, rows), timestamps)
        publisher.advance_epoch()

    def _read(self, state, epoch: int, samples, check=True) -> None:
        """Read every window ending at the newest epoch; time and check each."""
        from repro.serving.requests import QueryBatchRequest

        server = state["server"]
        newest = epoch + 1
        for width, (lows, highs) in zip(WINDOWS, self.reads[epoch]):
            window = (max(newest - width, 0), newest)
            payload = common.batch_payload(
                RELEASE, self.schema.names, lows, highs, time_range=window
            )
            cpu_start = time.process_time()
            started = time.perf_counter()
            response = server.query_columnar(QueryBatchRequest.from_dict(payload))
            elapsed = time.perf_counter() - started
            if samples is not None:
                samples["read_s"].append(elapsed)
                samples["read_cpu_s"] += time.process_time() - cpu_start
            if not check:
                continue
            wrong = self.tally.check(
                response.estimates, response.noise_stds,
                self._reference(state["publisher"], window, lows, highs),
            )
            if samples is not None:
                samples["read_rows"] += len(lows) - wrong

    def _reference(self, publisher, window, lows, highs):
        from repro import QueryEngine

        pause = self.tracer.paused() if self.tracer is not None else contextlib.nullcontext()
        with pause:
            result = publisher.result()
            view = dataclasses.replace(result, release=result.release.window(*window))
            reference = QueryEngine(view).answer_columnar(lows, highs)
        return common.perturbed(reference) if self.cfg.perturb else reference

    # -- timed phases -----------------------------------------------------
    def _epochs(self, state, tracer) -> dict:
        samples = {
            "epoch_s": [], "first_read_s": [], "read_s": [], "read_cpu_s": 0.0, "read_rows": 0,
        }
        publisher = state["publisher"]
        start_bytes = os.path.getsize(state["path"])
        first = self.size["warm_epochs"]
        for epoch in range(first, first + self.size["epochs"]):
            started = time.perf_counter()
            with spans.request(tracer):
                self._close(publisher, epoch)
            samples["epoch_s"].append(time.perf_counter() - started)
            before = len(samples["read_s"])
            with spans.request(tracer):
                self._read(state, epoch, samples)
            samples["first_read_s"].append(samples["read_s"][before])
        grown = os.path.getsize(state["path"]) - start_bytes
        samples["bytes_per_epoch"] = grown / self.size["epochs"]
        return samples

    def _cold_opens(self, path, seconds: float) -> list[float]:
        """Fresh servers on the finished archive, each answering one window."""
        from repro.serving.requests import QueryBatchRequest
        from repro.serving.server import ReleaseServer

        newest = self.size["warm_epochs"] + self.size["epochs"]
        lows, highs = self.reads[newest - 1][0]
        window = (newest - WINDOWS[0], newest)
        payload = common.batch_payload(RELEASE, self.schema.names, lows, highs, time_range=window)
        reference = self._reference(self.state["publisher"], window, lows, highs)
        times = []
        end = time.perf_counter() + seconds
        while time.perf_counter() < end or len(times) < 5:
            started = time.perf_counter()
            server = ReleaseServer(watch_streams=True)
            try:
                server.register_archive(path, name=RELEASE)
                response = server.query_columnar(QueryBatchRequest.from_dict(payload))
                times.append(time.perf_counter() - started)
            finally:
                server.close()
            self.tally.check(response.estimates, response.noise_stds, reference)
        return times

    def _rel_err(self, path) -> float:
        """The fixed boxes over every aligned 8-epoch window, untimed.

        Each aligned window is one tree node with its own noise draw, so
        the median spans many independent draws, not the few nodes that
        cover the whole stream.
        """
        from repro.data.table import Table
        from repro.serving.requests import QueryBatchRequest
        from repro.serving.server import ReleaseServer

        width = WINDOWS[0]
        windows = (self.size["warm_epochs"] + self.size["epochs"]) // width
        errors = []
        with ReleaseServer() as server:
            server.register_archive(path, name=RELEASE)
            for index, rows in enumerate(np.array_split(np.arange(len(self.rel_lows)), windows)):
                window = (index * width, (index + 1) * width)
                lows, highs = self.rel_lows[rows], self.rel_highs[rows]
                payload = common.batch_payload(
                    RELEASE, self.schema.names, lows, highs, time_range=window
                )
                response = server.query_columnar(QueryBatchRequest.from_dict(payload))
                reference = self._reference(self.state["publisher"], window, lows, highs)
                self.tally.check(response.estimates, response.noise_stds, reference)
                table = Table(self.schema, np.concatenate(self.epoch_rows[window[0]:window[1]]))
                exact = common.exact_answers(table, lows, highs)
                errors.append(common.relative_errors(response.estimates, exact, table.num_rows))
        return float(np.median(np.concatenate(errors)))

    # -- run ------------------------------------------------------------------
    def run(self) -> dict:
        self.log.start("setup")
        self.state, setup_times = common.timed_setups(
            self._setup, SETUP_REPEATS, lambda state: state["server"].close()
        )
        self.log.stop()
        pid = [os.getpid()]
        try:
            self.memory.sample(pid)
            self.log.start("epochs")
            plain = self._epochs(self.state, None)
            self.log.stop()
            self.memory.sample(pid)
        finally:
            self.state["server"].close()
        path = self.state["path"]
        archive_mb = os.path.getsize(path) / 1e6
        rel = self._rel_err(path)
        self.log.start("cold-opens")
        cold = self._cold_opens(path, self.cfg.seconds / 4.0)
        self.log.stop()
        self.memory.sample(pid)
        epoch_t = common.timing_summary(plain["epoch_s"])
        read_t = common.timing_summary(plain["read_s"])
        refresh_t = common.timing_summary(plain["first_read_s"])
        cold_t = common.timing_summary(cold)
        self.record = {
            "setup_s": setup_times,
            "epochs": self.size["epochs"],
            "epoch": epoch_t,
            "read": read_t,
            "refresh_read": refresh_t,
            "cold_open": cold_t,
            "phases": self.log.phases,
        }
        if self.cfg.trace:
            return self._layers(plain)
        read_s = float(np.sum(plain["read_s"]))
        return {
            "setup_s": (common.median(setup_times), "s"),
            "p50_ms": (read_t["p50_ms"], "ms"),
            "p99_ms": (read_t["tail_ms"], "ms"),
            "peak_qps": (len(plain["read_s"]) / read_s, "queries/s"),
            "rows_per_s": (plain["read_rows"] / read_s, "rows/s"),
            "cpu_ms_per_kq": (1e6 * plain["read_cpu_s"] / plain["read_rows"], "ms"),
            "rel_err_median": (rel, "ratio"),
            "epoch_ms": (epoch_t["p50_ms"], "ms"),
            "refresh_read_ms": (refresh_t["p50_ms"], "ms"),
            "cold_open_ms": (cold_t["p50_ms"], "ms"),
            "archive_mb": (archive_mb, "MB"),
            "rss_mb": (self.memory.peak_mb, "MB"),
        }

    def _layers(self, plain) -> dict:
        import layers
        import repro.io as archive_io
        from repro.core.framework import PublishingMechanism
        from repro.serving.server import ReleaseServer
        from repro.streaming.publisher import StreamingPublisher

        tracer = self.tracer = spans.Tracer()
        spans.install_serving_layers(tracer)
        tracer.patch(PublishingMechanism, "publish", "publish")
        tracer.patch(StreamingPublisher, "ingest", "streaming")
        tracer.patch(StreamingPublisher, "advance_epoch", "streaming")
        tracer.patch(archive_io, "append_stream_nodes", "io.append")
        tracer.patch(ReleaseServer, "refresh", "server.refresh")
        try:
            state = self._setup("traced")
            try:
                self.log.start("epochs-traced")
                traced = self._epochs(state, tracer)
                self.log.stop()
                stats = state["server"].stats()
            finally:
                state["server"].close()
        finally:
            tracer.uninstall()
            self.tracer = None
        epochs = float(self.size["epochs"] + self.size["warm_epochs"])
        get = tracer.get
        metrics = layers.zeros()
        metrics.update(layers.serving(tracer, stats))
        metrics.update(
            {
                "publish.ms_per_epoch": 1e3 * get("publish").total_s / epochs,
                "streaming.ingest_ms_per_epoch": 1e3 * get("streaming").self_s / epochs,
                "io.append_ms_per_epoch": 1e3 * get("io.append").total_s / epochs,
                "io.bytes_per_epoch": plain["bytes_per_epoch"],
                "server.refresh_ms":
                    1e3 * get("server.refresh").total_s / max(get("server.refresh").calls, 1),
                "io.open_ms": common.archive_open_ms(self.state["path"]),
                "trace.overhead":
                    float(np.sum(plain["epoch_s"])) / float(np.sum(traced["epoch_s"])),
                "trace.uncovered_share": tracer.uncovered_share(),
            }
        )
        return layers.with_units(metrics)


def run(cfg):
    workload = Ingest(cfg)
    return workload.run(), workload
