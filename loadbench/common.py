"""Shared pieces of the repository benchmark.

Host probes (``/proc`` CPU, steal, load, PSS), the timing summary every
latency metric uses, seeded box generation, answer checking against a
reference engine, and the phase log that goes into each run record.
Nothing here imports a workload; workloads import this module.
"""

from __future__ import annotations

import os
import time

import numpy as np

#: Clock ticks per second for ``/proc/<pid>/stat`` and ``/proc/stat``.
CLK_TCK = os.sysconf("SC_CLK_TCK")

#: Relative tolerance on a served noise std against the reference
#: engine's.  Estimates must match bit for bit; the std is a product of
#: cached per-axis profiles whose evaluation order may differ between a
#: batched and a solo call, so it is held to float64 rounding instead.
STD_RTOL = 1e-9

#: Smallest number of samples that must lie beyond a reported tail
#: percentile (see :func:`timing_summary`).
TAIL_SAMPLES = 10


# ----------------------------------------------------------------------
# /proc probes
# ----------------------------------------------------------------------
def process_cpu_seconds(pid: int) -> float:
    """user + sys CPU seconds of process ``pid`` (all its threads)."""
    with open(f"/proc/{pid}/stat", "rb") as handle:
        raw = handle.read().decode()
    # The command name may hold spaces; fields resume after its ')'.
    fields = raw[raw.rindex(")") + 2:].split()
    return (int(fields[11]) + int(fields[12])) / CLK_TCK


def process_pss_mb(pid: int) -> float:
    """Proportional set size of ``pid`` in MiB (shared pages split)."""
    try:
        with open(f"/proc/{pid}/smaps_rollup") as handle:
            for line in handle:
                if line.startswith("Pss:"):
                    return int(line.split()[1]) / 1024.0
    except FileNotFoundError:
        pass
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmRSS:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no memory figure for pid {pid}")


def host_steal_seconds() -> float:
    """Cumulative CPU steal of the whole host view, in seconds."""
    with open("/proc/stat") as handle:
        fields = handle.readline().split()
    return int(fields[8]) / CLK_TCK


def load_average() -> list[float]:
    """The 1, 5 and 15 minute load averages."""
    with open("/proc/loadavg") as handle:
        return [float(value) for value in handle.read().split()[:3]]


class PhaseLog:
    """Wall time, host steal and load average of each named phase.

    A noisy run is explained by this log, never dropped or trimmed.
    """

    def __init__(self):
        self.phases: list[dict] = []
        self._name = None

    def start(self, name: str) -> None:
        self._name = name
        self._wall = time.perf_counter()
        self._steal = host_steal_seconds()

    def stop(self) -> dict:
        entry = {
            "phase": self._name,
            "wall_s": time.perf_counter() - self._wall,
            "steal_s": host_steal_seconds() - self._steal,
            "loadavg": load_average(),
        }
        self.phases.append(entry)
        self._name = None
        return entry


class MemoryPeak:
    """Peak of the summed PSS of a set of processes, sampled on demand."""

    def __init__(self):
        self.peak_mb = 0.0

    def sample(self, pids) -> float:
        total = sum(process_pss_mb(pid) for pid in pids)
        self.peak_mb = max(self.peak_mb, total)
        return total


# ----------------------------------------------------------------------
# Timing summaries
# ----------------------------------------------------------------------
def tail_percentile(count: int) -> float:
    """Highest percentile with ``TAIL_SAMPLES`` samples beyond it, capped at 99."""
    if count <= TAIL_SAMPLES:
        return 50.0
    return min(99.0, 100.0 * (1.0 - TAIL_SAMPLES / count))


def timing_summary(seconds) -> dict:
    """Median and supported tail of latency samples, in milliseconds.

    ``tail_ms`` is the highest percentile with ``TAIL_SAMPLES`` samples
    beyond it, capped at p99 (:func:`tail_percentile`); the summary
    gives the sample count and the percentile, so a tail the sample
    cannot support shows.
    """
    values = np.asarray(seconds, dtype=np.float64) * 1e3
    if values.size == 0:
        raise ValueError("no latency samples")
    tail = tail_percentile(values.size)
    return {
        "samples": int(values.size),
        "p50_ms": float(np.percentile(values, 50)),
        "tail_percentile": tail,
        "tail_ms": float(np.percentile(values, tail)),
        "max_ms": float(values.max()),
    }


def in_turn(rounds: int, **takers) -> dict:
    """``rounds`` samples of each taker, one of each in turn, summarised.

    Each taker gets the round index and returns one sample in seconds.
    Taking the series in turn spreads each over the whole phase, so a
    slow spell of the shared host does not fall on one series alone.
    """
    series = {name: [] for name in takers}
    for index in range(rounds):
        for name, take in takers.items():
            series[name].append(take(index))
    return {name: timing_summary(samples) for name, samples in series.items()}


def median(values) -> float:
    return float(np.median(np.asarray(values, dtype=np.float64)))


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
def uniform_boxes(rng, shape, count: int, axes=None):
    """``count`` uniform-random boxes: ``lo`` uniform, ``hi`` uniform above it.

    Axes outside ``axes`` (default: every axis) span their full domain.
    Returns ``(lows, highs)`` int64 arrays of shape ``(count, d)``.
    """
    sizes = np.asarray(shape, dtype=np.int64)
    lows = np.zeros((count, sizes.size), dtype=np.int64)
    highs = np.tile(sizes, (count, 1))
    for axis in range(sizes.size) if axes is None else axes:
        lo = rng.integers(0, sizes[axis], count)
        lows[:, axis] = lo
        highs[:, axis] = rng.integers(lo + 1, sizes[axis] + 1)
    return lows, highs


def batch_payload(release: str, names, lows, highs, *, time_range=None, request_id=None) -> dict:
    """A ``query_batch`` wire dict for full-width ``(n, d)`` bounds."""
    payload = {
        "op": "query_batch",
        "release": release,
        "id": request_id,
        "ranges": {
            name: {"lo": lows[:, axis].tolist(), "hi": highs[:, axis].tolist()}
            for axis, name in enumerate(names)
        },
    }
    if time_range is not None:
        payload["time_range"] = list(time_range)
    return payload


# ----------------------------------------------------------------------
# Checks
# ----------------------------------------------------------------------
class Tally:
    """Attempted, failed and wrong answer counts of one run.

    ``failed`` includes ``wrong``: a refused, timed-out, unmatched or
    wrong answer is a failed one.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0

    def check(self, estimates, noise_stds, reference) -> int:
        """Account one answered batch against its reference; rows wrong."""
        wrong = count_wrong(estimates, noise_stds, reference)
        self.attempted += len(reference.estimates)
        self.failed += wrong
        self.wrong += wrong
        return wrong


def count_wrong(estimates, noise_stds, reference) -> int:
    """Rows whose estimate is not bit-equal or whose std is off tolerance.

    ``reference`` is a :class:`~repro.queries.engine.BatchQueryAnswers`
    (or anything with ``estimates`` and ``noise_stds`` arrays).
    """
    estimates = np.asarray(estimates, dtype=np.float64)
    noise_stds = np.asarray(noise_stds, dtype=np.float64)
    if estimates.shape != reference.estimates.shape:
        return int(reference.estimates.size)
    bad = estimates != reference.estimates
    bad |= ~np.isclose(noise_stds, reference.noise_stds, rtol=STD_RTOL, atol=0.0)
    return int(bad.sum())


def perturbed(reference):
    """A copy of ``reference`` with one estimate nudged by one ulp.

    The self-test feeds this in place of the true reference to prove
    that a wrong answer is counted and makes the run incorrect.
    """
    from repro.queries.engine import BatchQueryAnswers

    estimates = reference.estimates.copy()
    estimates[0] = np.nextafter(estimates[0], np.inf)
    return BatchQueryAnswers(
        estimates=estimates,
        noise_stds=reference.noise_stds,
        lowers=reference.lowers,
        uppers=reference.uppers,
        confidence=reference.confidence,
    )


def exact_answers(table, lows, highs) -> np.ndarray:
    """True counts of the boxes on ``table``."""
    from repro import RangeSumOracle

    return RangeSumOracle(table.frequency_matrix()).answer_boxes(lows, highs)


def relative_errors(estimates, exact, rows: int) -> np.ndarray:
    """§VII-A relative errors (0.1% sanity bound of ``rows``) against ``exact``."""
    from repro import relative_error, sanity_bound

    return relative_error(estimates, exact, sanity_bound(rows))


def rel_err_median(estimates, exact, rows: int) -> float:
    """Median §VII-A relative error against ``exact``."""
    return float(np.median(relative_errors(estimates, exact, rows)))


#: Archive loads timed for the per-layer ``io.open_ms``.
OPEN_REPEATS = 20


def archive_open_ms(path) -> float:
    """Median milliseconds of ``repro.io.load_result`` on ``path``."""
    from repro.io import load_result

    times = []
    for _ in range(OPEN_REPEATS):
        started = time.perf_counter()
        load_result(path)
        times.append(time.perf_counter() - started)
    return 1e3 * median(times)


def timed_setups(build, repeats: int, teardown):
    """Run ``build`` ``repeats`` times; keep the last, tear down the rest.

    Returns ``(state, seconds)`` with one wall time per build, so the
    median set-up time is reported and work moved into set-up shows.
    """
    seconds, state = [], None
    for attempt in range(repeats):
        if state is not None:
            teardown(state)
            state = None  # free it before the next build, not after
        started = time.perf_counter()
        state = build(attempt)
        seconds.append(time.perf_counter() - started)
    return state, seconds
