"""The benchmark's four workloads and the layer wrappers each one traces.

Why each workload exists, the prediction table and the measured layer
shares are in ``README.md`` next to this file.  In short:

* ``eptas_milp`` -- inline ``eptas_schedule`` where every op solves its
  configuration MILP (the ``solver`` layer dominates);
* ``eptas_patterns`` -- inline ``eptas_schedule`` where every op hits the
  pattern cap inside ``enumerate_patterns`` and the MILP never runs;
* ``service_journal`` -- a ``ScheduleServer`` over TCP, driven by two
  closed-loop client threads (journal reads and writes dominate);
* ``orch_warm_drain`` -- ``run_workers`` draining a warm grid through a
  ``StoreServer`` (claim, wire, cache lookup and complete are the cost).

Each workload builds its inputs from the run's seed; the program only ever
receives the generated instances and grids.
"""

from __future__ import annotations

import itertools
import json
import random
import shutil
import sqlite3
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from benchstats import host_scale
from spans import Tracer

REFERENCE_FILE = Path(__file__).with_name("reference.json")


@dataclass
class Op:
    """Outcome of one measured operation.

    ``scale`` turns the op's measured seconds into reference seconds: it is
    ``benchstats.host_scale()`` probed right after the op (or its pass or
    slice), so ``latency * scale`` does not move with the host's speed.
    """

    latency: float
    ok: bool
    scale: float = 1.0
    why: str = ""
    eptas: bool | None = None
    ratio: float | None = None
    counts: dict[str, Any] | None = None
    key: str = ""
    extra: dict[str, float] = field(default_factory=dict)


@dataclass
class Measurement:
    """What one measuring phase produced."""

    ops: list[Op]
    busy_s: float  # the measured time ops_per_s divides by
    busy_ref_s: float  # the same time in reference seconds


class Workload:
    """A set of inputs plus the loop that runs them against the program."""

    modules: tuple[str, ...] = ()  # imported before the timed set-ups

    def setup(self, seed: int, work: Path) -> None:
        raise NotImplementedError

    def teardown(self) -> None:
        raise NotImplementedError

    def measure(self, seconds: float, tracer: Tracer) -> Measurement:
        raise NotImplementedError

    def patch(self, tracer: Tracer, work: Path) -> None:
        """Install this workload's layer wrappers (before any worker fork)."""
        raise NotImplementedError


# ----------------------------------------------------------------------
# EPTAS workloads: one inline, single-threaded eptas_schedule call per op
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class EptasCase:
    """One recorded (instance, eps) pair of a workload's pool."""

    num_jobs: int
    num_machines: int
    num_bags: int
    instance_seed: int
    eps: float

    @property
    def key(self) -> str:
        return (
            f"uniform-n{self.num_jobs}-m{self.num_machines}-b{self.num_bags}"
            f"-s{self.instance_seed}@{self.eps:g}"
        )

    def instance(self) -> Any:
        from repro.generators.families import uniform_random_instance

        return uniform_random_instance(
            num_jobs=self.num_jobs,
            num_machines=self.num_machines,
            num_bags=self.num_bags,
            seed=self.instance_seed,
        ).instance


def milp_pool() -> list[list[EptasCase]]:
    """``eptas_milp``: 120 uniform instances, each at eps 1/2 and 1/4.

    n=16 jobs on 5 machines in 7 bags (the E4 generator one size down):
    every op solves a configuration MILP of a few hundred to a few thousand
    integer variables, in about 0.1 s, so a run holds well over 100 ops.
    """
    return [
        [EptasCase(16, 5, 7, seed, eps) for eps in (0.5, 0.25)]
        for seed in range(120)
    ]


def patterns_pool() -> list[list[EptasCase]]:
    """``eptas_patterns``: 24 instances of n=40 and 12 of n=60, at eps 1/4.

    m=6 machines, 10 bags: pattern enumeration exceeds the default
    ``max_patterns=50_000`` on every one of them.  An n=40 op takes about
    0.9 s and an n=60 op about 1.1 s; with two n=40 ops to each n=60 op the
    median falls inside the n=40 cluster and p90 inside the n=60 one,
    instead of on the gap between them.
    """
    return [[EptasCase(40, 6, 10, seed, 0.25)] for seed in range(24)] + [
        [EptasCase(60, 6, 10, seed, 0.25)] for seed in range(12)
    ]


def op_counts(diagnostics: dict[str, Any]) -> dict[str, Any]:
    """The exact per-op counts that must repeat from run to run."""
    attempts = [
        [
            attempt.get("num_patterns"),
            attempt.get("integer_variables"),
            attempt.get("continuous_variables"),
            attempt.get("constraints"),
            attempt.get("milp_status"),
            attempt.get("repair_conflicts"),
        ]
        for attempt in diagnostics.get("attempts", [])
    ]
    return {
        "search_iterations": diagnostics.get("search_iterations"),
        "attempts": attempts,
        "limit_errors": list(diagnostics.get("limit_errors", [])),
    }


def solve_case(case: EptasCase, instance: Any) -> tuple[Any, float]:
    """One timed ``eptas_schedule`` call with the default configuration."""
    from repro.eptas.driver import eptas_schedule

    started = time.perf_counter()
    result = eptas_schedule(instance, eps=case.eps)
    return result, time.perf_counter() - started


def check_case(result: Any, reference: dict[str, Any] | None) -> tuple[bool, str]:
    """Validate the schedule and compare its makespan with the reference."""
    from repro.core.errors import ReproError

    try:
        result.schedule.validate(require_complete=True)
    except ReproError as exc:
        return False, f"invalid schedule: {exc}"
    if reference is None:
        return False, "no recorded reference"
    if result.makespan != reference["makespan"]:
        return False, f"makespan {result.makespan!r} != reference {reference['makespan']!r}"
    return True, ""


STRATA = 10


def stratified_order(groups: list[Any], seed: int, key: Callable[[Any], Any]) -> list[Any]:
    """A seeded order of ``groups`` in which every prefix mixes easy and hard.

    Groups are ranked by ``key`` and cut into ``STRATA`` equal strata; the
    seed shuffles each stratum and the order of the strata in each round,
    and the order takes one group per stratum per round.  A run that covers
    only a prefix of the pool then still measures a mix that does not hinge
    on the seed, while the seed still decides which instances it measures.
    """
    rng = random.Random(seed)
    ranked = sorted(groups, key=key)
    size = -(-len(ranked) // STRATA)
    strata = [ranked[start : start + size] for start in range(0, len(ranked), size)]
    for stratum in strata:
        rng.shuffle(stratum)
    order = []
    for index in range(size):
        round_ = [stratum[index] for stratum in strata if index < len(stratum)]
        rng.shuffle(round_)
        order.extend(round_)
    return order


class EptasWorkload(Workload):
    """Runs the pool in a seeded order, one op per ``eptas_schedule`` call.

    The seed orders the pool's instances (each instance keeps its eps
    values together; see :func:`stratified_order`), so each run measures a
    different prefix of the same recorded pool; every op is checked against
    ``reference.json``.
    """

    modules = ("repro.eptas.driver", "repro.generators.families")

    def __init__(self, pool: Callable[[], list[list[EptasCase]]]) -> None:
        self._pool = pool
        self._order: list[EptasCase] = []
        self._reference: dict[str, Any] = {}
        self._seen: dict[str, dict[str, Any]] = {}

    def setup(self, seed: int, work: Path) -> None:
        from repro.generators.families import figure1_adversarial_instance
        from repro.eptas.driver import eptas_schedule

        self._reference = json.loads(REFERENCE_FILE.read_text())["cases"]
        self._order = [
            case
            for group in stratified_order(self._pool(), seed, self._difficulty)
            for case in group
        ]
        # Warm the solver path once (backend imports, first HiGHS call) on a
        # tiny instance outside the pool.
        eptas_schedule(figure1_adversarial_instance(num_machines=3, seed=0).instance, eps=0.5)

    def _difficulty(self, group: list[EptasCase]) -> tuple[int, int]:
        """Recorded integer variables of the group's MILPs, then its size."""
        int_vars = sum(
            attempt[1] or 0
            for case in group
            for attempt in self._reference.get(case.key, {}).get("counts", {}).get("attempts", [])
        )
        return int_vars, group[0].num_jobs

    def teardown(self) -> None:
        self._order = []

    def measure(self, seconds: float, tracer: Tracer) -> Measurement:
        ops: list[Op] = []
        busy = busy_ref = 0.0
        deadline = time.perf_counter() + seconds
        index = 0
        while time.perf_counter() < deadline:
            case = self._order[index % len(self._order)]
            index += 1
            instance = case.instance()
            with tracer.span("op", op=tracer.new_op()):
                result, latency = solve_case(case, instance)
            scale = host_scale()
            busy += latency
            busy_ref += latency * scale
            reference = self._reference.get(case.key)
            ok, why = check_case(result, reference)
            counts = op_counts(result.diagnostics)
            seen = self._seen.setdefault(case.key, counts)
            if seen != counts:
                ok, why = False, "per-op counts changed between repeats in one run"
            diagnostics = result.diagnostics
            feasible = any(a.get("feasible") for a in diagnostics.get("attempts", []))
            ops.append(
                Op(
                    latency=latency,
                    ok=ok,
                    scale=scale,
                    why=why,
                    eptas=feasible and not diagnostics.get("limit_errors"),
                    ratio=result.makespan / diagnostics["lower_bound"],
                    counts=counts,
                    key=case.key,
                )
            )
            if reference is not None and reference.get("counts") != counts:
                ops[-1].extra["count_drift"] = 1.0
        return Measurement(ops, busy, busy_ref)

    def patch(self, tracer: Tracer, work: Path) -> None:
        patch_eptas(tracer)


def _count_patterns(tracer: Tracer, result: Any, args: tuple, kwargs: dict) -> None:
    tracer.count("eptas.patterns.count", len(result))


def _count_limit(tracer: Tracer, exc: Exception, args: tuple, kwargs: dict) -> None:
    from repro.core.errors import SolverLimitError

    if isinstance(exc, SolverLimitError):
        tracer.count("eptas.patterns.limit_hits")


def _count_model(tracer: Tracer, result: Any, args: tuple, kwargs: dict) -> None:
    summary = result.summary()
    tracer.count("eptas.milp.int_vars", summary.get("integer_variables", 0))
    tracer.count("eptas.milp.cont_vars", summary.get("continuous_variables", 0))
    tracer.count("eptas.milp.rows", summary.get("constraints", 0))


def _count_solves(tracer: Tracer, result: Any, args: tuple, kwargs: dict) -> None:
    from repro.milp.model import SolutionStatus

    tracer.count("solver.solves", len(result))
    limits = sum(
        1 for item in result if getattr(item, "status", None) is SolutionStatus.LIMIT
    )
    tracer.count("solver.status_limit", limits)


def _count_swaps(tracer: Tracer, result: Any, args: tuple, kwargs: dict) -> None:
    tracer.count("eptas.large_jobs.swaps", result.swaps)


def _count_conflicts(tracer: Tracer, result: Any, args: tuple, kwargs: dict) -> None:
    tracer.count("eptas.repair.conflicts", result.conflicts_found)


def patch_eptas(tracer: Tracer) -> None:
    """Wrap every stage function ``eptas/driver.py`` calls, plus the solver."""
    from repro.eptas import driver
    from repro.solver.service import SolverService

    stages = {
        "best_lower_bound": "bounds",
        "greedy_assign": "baselines",
        "scale_and_round": "eptas.rounding",
        "classify_jobs": "eptas.classification",
        "classify_bags": "eptas.classification",
        "transform_instance": "eptas.transformation",
        "reinsert_medium_jobs": "eptas.transformation",
        "revert_to_original": "eptas.transformation",
        "collect_entry_types": "eptas.patterns",
        "place_small_jobs": "eptas.small_jobs",
    }
    for attr, layer in stages.items():
        tracer.patch(driver, attr, layer)
    tracer.patch(
        driver, "enumerate_patterns", "eptas.patterns",
        on_result=_count_patterns, on_error=_count_limit,
    )
    tracer.patch(driver, "build_configuration_milp", "eptas.milp.build", on_result=_count_model)
    tracer.patch(driver, "interpret_milp_solution", "eptas.milp.interpret")
    tracer.patch(driver, "place_large_and_medium", "eptas.large_jobs", on_result=_count_swaps)
    tracer.patch(driver, "resolve_conflicts", "eptas.repair", on_result=_count_conflicts)
    tracer.patch(SolverService, "solve_many", "solver", on_result=_count_solves)


# ----------------------------------------------------------------------
# service_journal: ScheduleServer over TCP, two closed-loop clients
# ----------------------------------------------------------------------
SERVICE_JOBS = 24
SERVICE_MACHINES = 4
SERVICE_BAGS = 8
JOURNAL_ROWS = 200  # completed rows in the journal before measuring
DUPLICATE_EVERY = 4  # every 4th submit re-sends a journaled instance
CLIENTS = 2
EXECUTORS = 2
SLICE_S = 2.0  # closed-loop slice between two host probes
SLICE_TIMEOUT_S = 120.0


def service_instance(seed: int) -> Any:
    from repro.generators.families import uniform_random_instance

    return uniform_random_instance(
        num_jobs=SERVICE_JOBS,
        num_machines=SERVICE_MACHINES,
        num_bags=SERVICE_BAGS,
        seed=seed,
    ).instance


class ServiceWorkload(Workload):
    """Closed loop of ``lpt`` submits against a pre-filled journal.

    Instance seeds: the journal holds ``seed * 10**6 + j`` for
    ``j < JOURNAL_ROWS``; unique submit ``i`` sends ``seed * 10**6 + 500_000
    + i``; every ``DUPLICATE_EVERY``-th submit instead re-sends a journaled
    instance chosen by the seed.  A fixed duplicate share keeps the mix of
    cache-probe reads and journal writes the same from seed to seed.
    """

    modules = ("repro.service.server", "repro.service.client")

    def __init__(self) -> None:
        self._server: Any = None
        self._db: Path | None = None
        self._seed = 0
        self._journal: list[tuple[Any, float]] = []

    def setup(self, seed: int, work: Path) -> None:
        from repro.orchestration.store import ExperimentStore
        from repro.service.requests import (
            SERVICE_EXPERIMENT,
            SERVICE_TELEMETRY_KEY,
            execute_request,
            normalise_request,
        )
        from repro.service.server import ScheduleServer

        self._seed = seed
        self._db = work / "journal.db"
        base = seed * 10**6
        instances = [service_instance(base + j) for j in range(JOURNAL_ROWS)]
        self._journal = []
        with ExperimentStore(self._db) as store:
            grid = [
                {"instance": instance.to_dict(), "solver": "lpt", "config": {"eps": 0.25}}
                for instance in instances
            ]
            store.add_rows(SERVICE_EXPERIMENT, grid)
            for instance in instances:
                row = store.claim_next("prefill", [SERVICE_EXPERIMENT])
                request = normalise_request(row.params)
                payload, duration = execute_request(request)
                store.cache_put(request.cache_key(), "lpt", payload)
                store.complete(
                    row.id,
                    {**payload, "cache_hit": False, SERVICE_TELEMETRY_KEY: {}},
                    duration=duration,
                    worker="prefill",
                )
                self._journal.append((request.instance, payload["makespan"]))
        self._server = ScheduleServer(self._db, executors=EXECUTORS).start()

    def teardown(self) -> None:
        if self._server is not None:
            self._server.shutdown()
            self._server = None
        if self._db is not None:
            for path in self._db.parent.glob(self._db.name + "*"):
                path.unlink()

    def _plan(self, index: int) -> tuple[Any, float | None, bool]:
        """Op ``index``'s instance, its known makespan (duplicates) and kind."""
        if index % DUPLICATE_EVERY == DUPLICATE_EVERY - 1:
            rng = random.Random(self._seed * 7_919 + index)
            instance, makespan = self._journal[rng.randrange(len(self._journal))]
            return instance, makespan, True
        return service_instance(self._seed * 10**6 + 500_000 + index), None, False

    def measure(self, seconds: float, tracer: Tracer) -> Measurement:
        """Closed loop in slices of ``SLICE_S``; the host probe runs between them.

        The clients pause at the end of each slice, once their last submit
        has returned, so the probe never competes with the service.
        """
        from repro.service.client import ScheduleClient

        host, port = self._server.address
        next_index = itertools.count()
        lock = threading.Lock()
        records: list[tuple[Any, float | None, float, Any, int]] = []
        errors: list[BaseException] = []
        gate = threading.Barrier(CLIENTS + 1, timeout=SLICE_TIMEOUT_S)
        current = {"slice": 0, "until": 0.0, "stop": False}

        def client_loop() -> None:
            try:
                with ScheduleClient(f"{host}:{port}") as client:
                    while True:
                        gate.wait()  # the slice opens
                        if current["stop"]:
                            return
                        while time.perf_counter() < current["until"]:
                            with lock:
                                index = next(next_index)
                            instance, known, _ = self._plan(index)
                            begin = time.perf_counter()
                            try:
                                with tracer.span("op", op=tracer.new_op()):
                                    reply = client.submit(instance, solver="lpt")
                            except Exception as exc:  # noqa: BLE001 - a failed op
                                reply = exc
                            latency = time.perf_counter() - begin
                            with lock:
                                records.append((instance, known, latency, reply, current["slice"]))
                        gate.wait()  # the slice closes
            except BaseException as exc:  # noqa: BLE001 - reported after join
                errors.append(exc)
                gate.abort()

        threads = [threading.Thread(target=client_loop) for _ in range(CLIENTS)]
        for thread in threads:
            thread.start()
        slices: list[tuple[float, float]] = []  # (wall seconds, host scale)
        deadline = time.perf_counter() + seconds
        try:
            while time.perf_counter() < deadline:
                begin = time.perf_counter()
                current["slice"], current["until"] = len(slices), begin + SLICE_S
                gate.wait()
                gate.wait()
                slices.append((time.perf_counter() - begin, host_scale()))
            current["stop"] = True
            gate.wait()
        except threading.BrokenBarrierError:
            pass
        for thread in threads:
            thread.join()
        if errors:
            raise errors[0]
        ops = [
            self._check(instance, known, latency, reply, slices[index][1])
            for instance, known, latency, reply, index in records
        ]
        return Measurement(
            ops,
            sum(wall for wall, _ in slices),
            sum(wall * scale for wall, scale in slices),
        )

    @staticmethod
    def _check(
        instance: Any, known: float | None, latency: float, reply: Any, scale: float = 1.0
    ) -> Op:
        from repro.baselines import lpt_schedule

        if isinstance(reply, Exception):
            return Op(latency, False, scale, f"{type(reply).__name__}: {reply}")
        expected = known if known is not None else lpt_schedule(instance).makespan
        ok = reply.get("makespan") == expected
        why = "" if ok else f"makespan {reply.get('makespan')!r} != inline lpt {expected!r}"
        extra = {
            "cache_hit": 1.0 if reply.get("cache_hit") else 0.0,
            "wait_s": latency - float(reply.get("wall_time", 0.0)),
        }
        return Op(latency, ok, scale, why, extra=extra)

    def patch(self, tracer: Tracer, work: Path) -> None:
        from repro.service import server

        patch_store(tracer)
        tracer.patch(server, "execute_request", "service.execute")
        tracer.patch(server, "params_hash", "service.params_hash")
        tracer.patch(server.ScheduleServer, "_find_row", "service.find_row")
        tracer.patch(server.ScheduleServer, "_submit", "service.submit", starts_op=True)
        tracer.patch(server.ScheduleServer, "_run_row", "service.run_row", starts_op=True)


STORE_METHODS = ("fetch_rows", "cache_get", "cache_put", "add_rows", "claim_next", "complete")
CLIENT_METHODS = ("claim_next", "complete", "cache_get")


def _count_rows(tracer: Tracer, result: Any, args: tuple, kwargs: dict) -> None:
    tracer.count("orchestration.store.fetch_rows.rows", len(result))


def patch_store(tracer: Tracer) -> None:
    """Wrap the ``ExperimentStore`` methods the service and servers call."""
    from repro.orchestration.store import ExperimentStore

    for method in STORE_METHODS:
        tracer.patch(
            ExperimentStore,
            method,
            f"orchestration.store.{method}",
            on_result=_count_rows if method == "fetch_rows" else None,
        )


# ----------------------------------------------------------------------
# orch_warm_drain: run_workers against an in-process StoreServer
# ----------------------------------------------------------------------
# Quick grids whose cells all go through the result cache and whose cold
# fill takes well under a second (e2's cold fill takes ~11 s, too long to
# repeat for the set-up median).
DRAIN_GRIDS = ("smoke", "e1", "e5", "e6", "e9")
DRAIN_WORKERS = 2


# Row fields that say how a result was produced (served from the cache; the
# solver telemetry of a cold solve), not what the result is.
PRODUCTION_FIELDS = ("cache_hit", "_solver_telemetry")


def _comparable(result: dict[str, Any] | None) -> str:
    """A row result without the fields that describe how it was produced."""
    if result is None:
        return "null"
    kept = {k: v for k, v in result.items() if k not in PRODUCTION_FIELDS}
    return json.dumps(kept, sort_keys=True)


class DrainWorkload(Workload):
    """Each pass resets the warm grids' rows to pending and drains them."""

    modules = ("repro.orchestration.runner", "repro.distributed.server")

    def __init__(self) -> None:
        self._server: Any = None
        self._db: Path | None = None
        self._expected: dict[int, str] = {}

    def setup(self, seed: int, work: Path) -> None:
        from repro.distributed.server import StoreServer
        from repro.orchestration.runner import populate, run_workers
        from repro.orchestration.store import ExperimentStore

        self._db = work / "drain.db"
        with ExperimentStore(self._db) as store:
            populate(store, DRAIN_GRIDS, quick=True, seed=seed)
        self._server = StoreServer(self._db).start()
        report = run_workers(self._server.url, DRAIN_GRIDS, workers=DRAIN_WORKERS)
        if report.errors:
            raise RuntimeError(f"cold fill failed on {report.errors} rows")
        self._expected = {
            row.id: _comparable(row.result) for row in self._rows() if row.status == "done"
        }

    def _rows(self) -> list[Any]:
        from repro.distributed.client import RemoteStore

        with RemoteStore(self._server.url) as store:
            return [row for name in DRAIN_GRIDS for row in store.fetch_rows(name)]

    def teardown(self) -> None:
        if self._server is not None:
            self._server.shutdown()
            self._server = None
        if self._db is not None:
            for path in self._db.parent.glob(self._db.name + "*"):
                path.unlink()

    def _latencies(self) -> dict[int, float]:
        """Claim-to-finish seconds of each row, as the store stamped them."""
        with sqlite3.connect(f"file:{self._db}?mode=ro", uri=True) as conn:
            return {
                row_id: finished - claimed
                for row_id, claimed, finished in conn.execute(
                    "SELECT id, claimed_at, finished_at FROM runs"
                )
                if row_id in self._expected and claimed is not None and finished is not None
            }

    def measure(self, seconds: float, tracer: Tracer) -> Measurement:
        from repro.distributed.client import RemoteStore
        from repro.orchestration.runner import run_workers

        ops: list[Op] = []
        busy = busy_ref = 0.0
        deadline = time.perf_counter() + seconds
        with RemoteStore(self._server.url) as control:
            while time.perf_counter() < deadline:
                begin = time.perf_counter()
                with tracer.span("op", op=tracer.new_op()):
                    control.reset(list(DRAIN_GRIDS), statuses=("done",))
                    run_workers(self._server.url, DRAIN_GRIDS, workers=DRAIN_WORKERS)
                elapsed = time.perf_counter() - begin
                scale = host_scale()
                busy += elapsed
                busy_ref += elapsed * scale
                latencies = self._latencies()
                for row in self._rows():
                    expected = self._expected.get(row.id)
                    ok = row.status == "done" and _comparable(row.result) == expected
                    why = "" if ok else f"row {row.id} ended {row.status} with another result"
                    ops.append(Op(latencies.get(row.id, 0.0), ok, scale, why))
        return Measurement(ops, busy, busy_ref)

    def patch(self, tracer: Tracer, work: Path) -> None:
        from repro.distributed.client import RemoteStore
        from repro.orchestration import grids, registry, runner

        patch_store(tracer)
        for method in CLIENT_METHODS:
            tracer.patch(
                RemoteStore, method, f"distributed.client.{method}",
                starts_op=method == "claim_next",
            )
        tracer.patch(
            runner, "run_worker", "orchestration.runner.run_worker",
            on_result=lambda t, *_: t.flush_child(work),
            on_error=lambda t, *_: t.flush_child(work),
        )
        tracer.patch(registry, "execute_cell", "orchestration.runner.execute_cell")
        tracer.patch(
            runner, "replan", "orchestration.runner.replan",
            on_result=lambda t, *_: t.count("orchestration.runner.replans"),
        )
        tracer.patch(
            grids, "cached_solve", "orchestration.cache.cached_solve",
            on_result=lambda t, result, *_: t.count(
                "orchestration.cache.cached_solve.hits", 1 if result.get("cache_hit") else 0
            ),
        )


WORKLOADS: dict[str, Callable[[], Workload]] = {
    "eptas_milp": lambda: EptasWorkload(milp_pool),
    "eptas_patterns": lambda: EptasWorkload(patterns_pool),
    "service_journal": ServiceWorkload,
    "orch_warm_drain": DrainWorkload,
}


def reset_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path
