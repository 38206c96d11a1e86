"""The batch workloads: similarity self-joins on generated datasets.

:func:`prepare` generates a seed's input file and the oracle's answer
(pair counts and digests) under ``perfbench/out/``; ``run.py`` calls it in
its own process, so the process that measures only loads that file, sets
up and runs the joins, and its peak RSS is the program's.

A timed run (``trace=False``) sets the workload up, runs the workload's
join list back to back for the requested seconds with tracing off,
checking every result against the oracle's answer, then sets up several
more times; its time metrics are rescaled to the host's reference speed
(``calib.py``).  A traced
run does an untraced pass, a pass under the program's ``Tracer`` with the
layer wrappers installed, and another untraced pass, and derives the
per-layer metrics.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import sys
from dataclasses import dataclass
from time import perf_counter

from . import arith, oracle
from .calib import Calibration
from .layers import LayerTimers

#: Layers the batch workloads measure; the others report 0.
LAYERS = ("rankings", "joins", "kernels", "scheduler", "executors",
          "broadcast", "trace")

#: Set-ups per run: one before the passes, then more after them until
#: there are this many and they took this many seconds together (a
#: small input loads in milliseconds, and its median needs many).
MIN_SETUPS = 8
SETUP_SECONDS = 0.5
#: Calibration samples after every pass and after the set-ups, beside
#: one after each join.
CALIBRATIONS_PER_PASS = 8
#: Slack of the traced run's reconciliation checks (share of the wall).
RECONCILE_EPS = 0.05
#: Stages below this share of the summed stage wall do not enter
#: ``scheduler.skew_max`` (a 0.1 ms stage's ratio is timer noise).
SKEW_MIN_SHARE = 0.05


@dataclass(frozen=True)
class BatchWorkload:
    name: str
    profile: str
    scale: int
    joins: tuple  # (algorithm, theta) pairs, run in order each pass
    executor: str = "serial"
    workers: int = 1
    partitions: int = 64


SWEEP_THETAS = (0.1, 0.2, 0.3, 0.4)

WORKLOADS = {
    w.name: w
    for w in (
        BatchWorkload(
            "dblp-sweep", "dblp", 1,
            tuple(
                (algorithm, theta)
                for algorithm in ("vj", "vj-nl", "cl", "cl-p")
                for theta in SWEEP_THETAS
            ),
        ),
        # 256 partitions give 1,024 tasks per pass, enough for a p99.
        BatchWorkload(
            "orku25-vj", "orku25", 8, (("vj", 0.25),),
            executor="processes", workers=2, partitions=256,
        ),
    )
}


def peak_rss_mb() -> float:
    """Peak RSS of this process plus its largest waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def print_raw(raw: dict, calibration) -> None:
    """Print the time metrics before rescaling, and the scale factor."""
    samples = calibration.samples
    print(
        f"# raw {', '.join(f'{k} {v:.6g}' for k, v in raw.items())}; "
        f"calibration fastest {min(samples) * 1000:.3f} ms of "
        f"{len(samples)}, factor {calibration.factor():.4f}",
        file=sys.stderr,
    )


def input_paths(workload: BatchWorkload, seed: int, out_dir: str) -> tuple:
    """The generated input file and the oracle's answer file."""
    stem = os.path.join(out_dir, f"{workload.name}-{seed}")
    return stem + ".txt", stem + ".expected.json"


def prepare(workload: BatchWorkload, seed: int, out_dir: str) -> None:
    """Generate the seed's input file and the oracle's answer: per theta,
    the count and digest of the exact ``(rid, rid, distance)`` set."""
    from repro import make_dataset
    from repro.rankings.distances import max_footrule

    path, expected_path = input_paths(workload, seed, out_dir)
    generated = make_dataset(workload.profile, scale=workload.scale,
                             seed=seed)
    generated.save(path)
    rid = [r.rid for r in generated.rankings]
    codes, domain = oracle.encode(r.items for r in generated.rankings)
    k = generated.k
    top = max(theta for _algorithm, theta in workload.joins)
    widest = oracle.self_join(codes, domain, top * max_footrule(k))
    expected = {}
    for theta in sorted({theta for _a, theta in workload.joins}):
        limit = theta * max_footrule(k)
        pairs = {(rid[a], rid[b], d) for a, b, d in widest if d <= limit}
        expected[repr(theta)] = {"count": len(pairs),
                                 "digest": oracle.digest(pairs)}
    with open(expected_path, "w", encoding="utf-8") as f:
        json.dump(expected, f)


class Batch:
    """One batch workload bound to one seed's prepared input file."""

    def __init__(self, workload: BatchWorkload, seed: int, out_dir: str):
        self.workload = workload
        self.seed = seed
        self.path, expected_path = input_paths(workload, seed, out_dir)
        with open(expected_path, encoding="utf-8") as f:
            self.expected = {
                float(theta): answer for theta, answer in json.load(f).items()
            }
        self.failures: list = []
        self.attempted = 0
        self.reference_stats: dict = {}

    # ------------------------------------------------------------ set-up

    def context(self, tracer):
        from repro import Context

        w = self.workload
        return Context(
            default_parallelism=w.partitions,
            executor=w.executor,
            max_workers=w.workers,
            tracer=tracer,
            shm_broadcast=True,  # pinned on, whatever REPRO_NO_SHM says
        )

    def setup(self):
        """Load the generated file and build the context (timed)."""
        from repro.rankings.dataset import RankingDataset

        start = perf_counter()
        dataset = RankingDataset.load(self.path)
        ctx = self.context(False)
        return dataset, ctx, perf_counter() - start

    # -------------------------------------------------------------- joins

    def _options(self, algorithm: str, theta: float, n: int) -> dict:
        if algorithm == "cl-p":
            from repro.bench.harness import default_delta

            return {"partition_threshold": default_delta(n, theta)}
        return {}

    def run_pass(self, dataset, ctx, calibration=None) -> dict:
        """Run the join list once; returns wall time and results.  With a
        ``calibration``, it is sampled after each join, outside the join's
        own time."""
        from repro import similarity_join

        results, join_walls = [], []
        start = perf_counter()
        for algorithm, theta in self.workload.joins:
            self.attempted += 1
            join_start = perf_counter()
            try:
                result = similarity_join(
                    dataset, theta, algorithm=algorithm, ctx=ctx,
                    num_partitions=self.workload.partitions,
                    **self._options(algorithm, theta, len(dataset)),
                )
            except Exception as error:  # counted, reported, not fatal
                result = error
            join_walls.append(perf_counter() - join_start)
            results.append((algorithm, theta, result))
            if calibration is not None:
                calibration.sample(1)
        wall = perf_counter() - start
        self.check(dataset, results)
        return {"wall": wall, "join_walls": join_walls, "results": results}

    def check(self, dataset, results) -> None:
        """Pairs and distances must match the oracle's count and digest,
        and ``vars(stats)`` must repeat exactly from pass to pass."""
        for algorithm, theta, result in results:
            label = f"{algorithm}@{theta}"
            if isinstance(result, Exception):
                self.failures.append(f"{label}: raised {result!r}")
                continue
            got = {
                (a, b, d) for a, b, d in result.with_distances(dataset).pairs
            }
            got_digest = oracle.digest(got)
            want = self.expected[theta]
            stats = dict(vars(result.stats))
            reference = self.reference_stats.setdefault(label, stats)
            if (len(got), got_digest) != (want["count"], want["digest"]):
                self.failures.append(
                    f"{label}: {len(got)} pairs, oracle has {want['count']} "
                    f"(digest {got_digest[:12]} vs {want['digest'][:12]})"
                )
            elif stats != reference:
                self.failures.append(f"{label}: stats changed: {stats}")

    # ------------------------------------------------------------ timed

    def _setup_once(self) -> tuple:
        # Each set-up starts like a fresh process: earlier garbage is
        # not collected on its clock.
        gc.collect()
        dataset, ctx, elapsed = self.setup()
        self.setups.append(elapsed)
        ctx.broadcasts.release_all()
        return dataset, ctx

    def timed(self, seconds: float) -> dict:
        with Calibration() as self.calibration:
            return self._timed(seconds)

    def _timed(self, seconds: float) -> dict:
        self.setups: list = []
        dataset, ctx = self._setup_once()
        join_walls, task_walls = [], []
        started = perf_counter()
        while perf_counter() - started < seconds or len(join_walls) < 2:
            ctx.reset_metrics()
            outcome = self.run_pass(dataset, ctx, self.calibration)
            join_walls.append(outcome["join_walls"])
            task_walls.append([
                t for job in ctx.metrics.jobs for stage in job.stages
                for t in stage.task_seconds
            ])
            self.calibration.sample(CALIBRATIONS_PER_PASS)
        ctx.broadcasts.release_all()
        peak = peak_rss_mb()  # the calibration process is still running
        # The other set-ups come after the passes: loads repeated before
        # them left a heap on which forked workers ran slower tasks.
        dataset = ctx = None
        while (len(self.setups) < MIN_SETUPS
               or sum(self.setups) < SETUP_SECONDS):
            self._setup_once()
        self.calibration.sample(CALIBRATIONS_PER_PASS)
        # Each join and each task at its fastest pass: the fastest pass is
        # the one least slowed by other tenants of the host (README).
        wall = sum(arith.fastest_each(join_walls))
        tasks = arith.fastest_each(task_walls)
        raw = {
            "setup_s": arith.median(self.setups),
            "wall_s": wall,
            "p50_ms": 1000.0 * arith.percentile(tasks, 50.0),
            "p99_ms": 1000.0 * arith.percentile(
                tasks, 99.0, min_beyond=arith.MIN_BEYOND),
        }
        factor = self.calibration.factor()
        values = {name: value * factor for name, value in raw.items()}
        failed = len(self.failures)
        values.update({
            "peak_rss_mb": peak,
            "success_rate": (self.attempted - failed) / self.attempted,
            "max_qps": len(self.workload.joins) / values["wall_s"],
        })
        print(
            f"# {self.workload.name}: {len(join_walls)} passes, pass walls "
            f"{[round(sum(w), 3) for w in join_walls]}, {len(tasks)} tasks, "
            f"{len(self.setups)} set-ups, "
            f"error_rate {failed / self.attempted:g}",
            file=sys.stderr,
        )
        print_raw(raw, self.calibration)
        return values

    # ----------------------------------------------------------- traced

    def traced(self, trace_path: str) -> dict:
        from repro.joins import kernels
        from repro.minispark.broadcast import BroadcastManager
        from repro.minispark.tracing import Tracer
        from repro.rankings.dataset import RankingDataset

        loads = LayerTimers()
        loads.patch(RankingDataset, "load", "rankings.load")
        try:
            dataset, ctx, _setup = self.setup()
        finally:
            loads.restore()
        # Untraced passes before and after the traced one; the faster is
        # the base of the tracing overhead.
        untraced = [self.run_pass(dataset, ctx)["wall"]]

        def traced_pass(executor_ctx):
            timers = LayerTimers()
            timers.patch_everywhere(kernels.batch_filter_verify,
                                    "kernels.array")
            timers.patch_everywhere(kernels.store_batch_verify,
                                    "kernels.array")
            timers.patch(kernels.GroupColumns, "from_store",
                         "kernels.columns")
            timers.patch(BroadcastManager, "broadcast", "broadcast.publish")
            try:
                outcome = self.run_pass(dataset, executor_ctx)
            finally:
                timers.restore()
            executor_ctx.broadcasts.release_all()
            return outcome, timers

        tracer = Tracer()
        main_ctx = self.context(tracer)
        main, main_timers = traced_pass(main_ctx)
        worker_rss = resource.getrusage(
            resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
        tracer.write_chrome_trace(trace_path)
        if self.workload.executor == "serial":
            kernel_tracer, kernel_timers, serial = tracer, main_timers, main
        else:
            from repro import Context

            kernel_tracer = Tracer()
            serial_ctx = Context(
                default_parallelism=self.workload.partitions,
                executor="serial", tracer=kernel_tracer,
                shm_broadcast=True,  # pinned on, as in ``context``
            )
            serial, kernel_timers = traced_pass(serial_ctx)
        untraced = min(untraced + [self.run_pass(dataset, ctx)["wall"]])
        ctx.broadcasts.release_all()
        metrics, checks = layer_metrics(
            self.workload, tracer, main, main_ctx, kernel_tracer,
            kernel_timers, serial,
        )
        metrics.update({
            "rankings.load_s": loads.total_s["rankings.load"],
            "broadcast.publish_s": main_timers.total_s["broadcast.publish"],
            "executors.worker_rss_mb": (
                worker_rss if self.workload.executor != "serial" else 0.0
            ),
            "trace.overhead_frac": main["wall"] / untraced - 1.0,
        })
        return {"metrics": metrics, "checks": checks,
                "untraced_wall_s": untraced}


def _phase_spans(tracer, name: str) -> list:
    return [s for s in tracer.spans_of("phase") if s.name == name]


def _phase_seconds(tracer, name: str) -> float:
    return sum(s.duration for s in _phase_spans(tracer, name))


def _top_phase_seconds(tracer) -> float:
    phase_ids = {s.span_id for s in tracer.spans_of("phase")}
    return sum(
        s.duration
        for s in tracer.spans_of("phase")
        if s.parent_id not in phase_ids
    )


def _sum_stats(results) -> dict:
    total: dict = {}
    for _algorithm, _theta, result in results:
        if isinstance(result, Exception):
            continue
        for key, value in vars(result.stats).items():
            total[key] = total.get(key, 0) + value
    return total


def layer_metrics(workload, tracer, main, ctx, kernel_tracer, kernel_timers,
                  serial) -> tuple:
    """Per-layer metrics of a traced pass and its reconciliation checks.

    ``tracer``/``main``/``ctx`` are the workload's own traced pass;
    ``kernel_tracer``/``kernel_timers``/``serial`` the pass whose kernel
    calls ran in this process (the same pass for a serial workload, an
    extra serial pass of the same joins otherwise).
    """
    wall = main["wall"]
    stats = _sum_stats(main["results"])
    stages = tracer.spans_of("stage")
    stage_wall = sum(s.duration for s in stages)
    task_s = sum(s.duration for s in tracer.spans_of("task"))
    digest = tracer.digest()
    broadcast = digest.get("broadcast", {})
    workers = workload.workers if workload.executor != "serial" else 1
    skews = [
        s.args["task_stats"]["max"] / s.args["task_stats"]["median"]
        for s in stages
        if s.duration >= SKEW_MIN_SHARE * stage_wall
        and s.args.get("task_stats", {}).get("median", 0) > 0
    ]
    shuffle_records = sum(s.args.get("shuffle_records", 0) for s in stages)
    shuffle_bytes = sum(s.args.get("shuffle_bytes", 0) for s in stages)
    retries = sum(
        stage.retries for job in ctx.metrics.jobs for stage in job.stages
    )

    verify_windows = [
        (s.begin, s.end) for s in _phase_spans(kernel_tracer, "verify")
    ]
    verify_s = sum(end - begin for begin, end in verify_windows)
    array_in_verify = kernel_timers.self_within("kernels.array",
                                                verify_windows)
    columns_in_verify = kernel_timers.self_within("kernels.columns",
                                                  verify_windows)
    array_s = kernel_timers.self_s["kernels.array"]
    kernel_stats = _sum_stats(serial["results"])

    metrics = {
        "rankings.ordering_s": _phase_seconds(tracer, "ordering"),
        "joins.group_s": _phase_seconds(tracer, "group"),
        "joins.verify_s": _phase_seconds(tracer, "verify"),
        "joins.clustering_s": _phase_seconds(tracer, "clustering"),
        "joins.joining_s": _phase_seconds(tracer, "joining"),
        "joins.expansion_s": _phase_seconds(tracer, "expansion"),
        "joins.candidates": stats.get("candidates", 0),
        "joins.verified": stats.get("verified", 0),
        "joins.results": stats.get("results", 0),
        "joins.dedup_skipped": stats.get("dedup_skipped", 0),
        "joins.triangle_accepted": stats.get("triangle_accepted", 0),
        "joins.result_yield": (
            stats["results"] / stats["verified"] if stats.get("verified")
            else 0.0
        ),
        "kernels.array_calls": kernel_timers.calls["kernels.array"],
        "kernels.array_s": array_s,
        "kernels.columns_calls": kernel_timers.calls["kernels.columns"],
        "kernels.columns_s": kernel_timers.self_s["kernels.columns"],
        "kernels.glue_s": (
            verify_s - array_in_verify - columns_in_verify
            if verify_windows else 0.0
        ),
        "kernels.pairs_per_s": (
            kernel_stats.get("verified", 0) / array_s if array_s else 0.0
        ),
        "scheduler.stages": digest["num_stages"],
        "scheduler.tasks": digest["num_tasks"],
        "scheduler.retries": retries,
        "scheduler.task_s": task_s,
        "scheduler.driver_s": wall - stage_wall,
        "scheduler.shuffle_records": shuffle_records,
        "scheduler.shuffle_mb": shuffle_bytes / 2**20,
        "scheduler.skew_max": max(skews, default=1.0),
        "executors.busy_frac": task_s / (workers * stage_wall),
        "executors.idle_s": workers * stage_wall - task_s,
        "executors.serial_ratio": (
            serial["wall"] / wall if workload.executor != "serial" else 0.0
        ),
        "broadcast.segments": broadcast.get("segments", 0),
        "broadcast.segment_mb": broadcast.get("segment_bytes", 0) / 2**20,
        "broadcast.attaches": broadcast.get("attaches", 0),
        "broadcast.stage_bytes_max": broadcast.get(
            "stage_broadcast_bytes_max", 0),
    }
    phases = arith.reconcile(
        {"phases": _top_phase_seconds(tracer)}, wall, RECONCILE_EPS)
    checks = {
        "phases_vs_wall": phases,
        "stages_within_wall": arith.contained(stage_wall, wall, 0.0),
        "tasks_within_workers": arith.contained(
            task_s, workers * stage_wall, RECONCILE_EPS),
        "kernels_within_verify": arith.contained(
            array_in_verify + columns_in_verify, verify_s, RECONCILE_EPS),
        "no_retries": retries == 0,
    }
    return metrics, checks
