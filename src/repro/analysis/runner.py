"""Parallel, cached, crash-safe experiment runner (fan-out + reuse).

Every figure bench and ablation sweep ultimately runs the same kind of
job — simulate one (benchmark, policy, configuration) triple — and many
of them share jobs: Figs. 3/7/9/10 reuse the per-benchmark policy suite,
`smd_threshold_sweep` reuses the baseline suite across thresholds, and
re-running a bench recomputes everything from scratch.  This module
factors that work into an :class:`ExperimentRunner` that

* fans independent :class:`JobSpec` s out over a ``concurrent.futures``
  process pool (``jobs > 1``) or runs them inline (``jobs == 1``),
* memoizes results on disk in a :class:`ResultCache` keyed by a content
  hash of the complete job description — benchmark trace spec, policy
  name and parameters, DRAM organization/timings/power, scheme
  latencies, and a fingerprint of the ``repro`` source tree — so a
  cached result can never be served for changed code or config, and
* records an observability manifest per invocation: one record per job
  (wall time, cache hit/miss, final status), aggregate hit/miss
  counters, and the parallelism settings, renderable via
  :func:`repro.analysis.report.render_runner_summary`.

Resilience (the parts that make long sweeps survivable):

* **Checksummed cache entries** — every entry carries a SHA-256 of its
  own payload; an entry that fails the checksum, is not a JSON object,
  or lacks its result block is *quarantined* (moved to
  ``<cache>/_quarantine/``), logged, and treated as a miss so the job is
  recomputed instead of crashing the sweep.
* **Per-job wall-clock timeouts** (``timeout_s``) — enforced by waiting
  on each worker future with a deadline; on expiry the worker pool is
  killed (``SIGTERM`` to every worker) and the job is marked timed out.
  Setting a timeout forces pool execution even for a single job, since
  an inline job cannot be preempted.
* **Bounded retries with exponential backoff** (``retries``,
  ``retry_backoff_s``) — failed or timed-out jobs are re-attempted up to
  ``retries`` extra times; jobs still failing raise a single aggregated
  :class:`repro.errors.JobExecutionError` *after* every healthy job has
  completed and been cached.
* **Serial fallback** — a :class:`BrokenProcessPool` (worker killed by
  the OS, OOM, etc.) permanently downgrades the runner to inline
  execution for the rest of the sweep rather than losing it.
* **Checkpoint/resume** — with ``checkpoint_path`` set, the manifest is
  rewritten atomically after *every* job disposition; a sweep killed
  mid-run can be resumed by pointing :meth:`ExperimentRunner.resume_from`
  at that manifest (completed jobs are then served from the cache and
  marked ``"resumed"`` in the new manifest).

The runner is deterministic by construction: jobs are pure functions of
their spec (fixed seeds end to end), so ``jobs=N`` produces bit-identical
results to ``jobs=1``, and a cache hit returns exactly the bytes a cold
run would compute.

Configuration is either explicit (:func:`configure_runner`) or via the
environment: ``REPRO_JOBS`` sets the worker count, ``REPRO_CACHE_DIR``
enables the on-disk cache (unset → in-process memoization only),
``REPRO_JOB_TIMEOUT_S`` / ``REPRO_RETRIES`` set the resilience knobs,
and ``REPRO_CHECKPOINT`` names the incremental checkpoint manifest.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import logging
import multiprocessing
import os
import random
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

from repro.analysis.backoff import DecorrelatedJitter
from repro.core.smd import DEFAULT_THRESHOLD_MPKC
from repro.ecc import backend as codec_backend
from repro.errors import ConfigurationError, JobExecutionError, JobTimeoutError
from repro.sim.system import ScaledRun, SystemConfig
from repro.types import SimResult
from repro.workloads.spec import BenchmarkSpec

#: Bump when the cached payload layout changes; old entries become misses.
#: Schema 2 added the per-entry payload checksum; schema 3 records the
#: codec backend that computed each entry.
CACHE_SCHEMA = 3

#: Default cap on corrupt-entry files kept under ``<cache>/_quarantine/``.
QUARANTINE_LIMIT = 64

logger = logging.getLogger("repro.analysis.runner")


# ---------------------------------------------------------------------------
# Job descriptions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class JobSpec:
    """One independent simulation job: benchmark x policy x configuration.

    Frozen and fully value-typed, so a spec works as a dict key, pickles
    to worker processes, and hashes into a stable cache key.  The
    benchmark is carried by value (not by name) so ad-hoc specs outside
    the registry cache correctly too.
    """

    benchmark: BenchmarkSpec
    instructions: int
    policy: str
    config: SystemConfig = field(default_factory=SystemConfig)
    #: SMD parameters; only meaningful for the ``mecc+smd`` policy.
    threshold_mpkc: float | None = None
    quantum_cycles: int | None = None

    @classmethod
    def build(
        cls,
        benchmark: BenchmarkSpec,
        run: ScaledRun,
        policy: str,
        config: SystemConfig | None = None,
        threshold_mpkc: float | None = None,
    ) -> "JobSpec":
        """Build a spec, filling SMD scaling parameters from ``run``."""
        config = config or SystemConfig()
        if policy == "mecc+smd":
            return cls(
                benchmark=benchmark,
                instructions=run.instructions,
                policy=policy,
                config=config,
                threshold_mpkc=(
                    DEFAULT_THRESHOLD_MPKC if threshold_mpkc is None else threshold_mpkc
                ),
                quantum_cycles=run.quantum_cycles,
            )
        return cls(
            benchmark=benchmark,
            instructions=run.instructions,
            policy=policy,
            config=config,
        )

    def describe(self) -> dict:
        """Canonical plain-dict form — the content the cache key hashes."""
        return {
            "benchmark": dataclasses.asdict(self.benchmark),
            "instructions": self.instructions,
            "policy": self.policy,
            "config": self.config.describe(),
            "threshold_mpkc": self.threshold_mpkc,
            "quantum_cycles": self.quantum_cycles,
        }

    def key(self, code_version: str | None = None) -> str:
        """Content-hash cache key: job description + code fingerprint."""
        payload = {
            "schema": CACHE_SCHEMA,
            "code": code_version if code_version is not None else code_fingerprint(),
            "job": self.describe(),
        }
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    def label(self) -> str:
        """Short human-readable name for logs and error messages."""
        return f"{self.benchmark.name}/{self.policy}"


@dataclass(frozen=True)
class JobOutcome:
    """The result of one job plus its provenance/observability data."""

    result: SimResult
    #: SMD disabled-time fraction; None unless the policy was ``mecc+smd``.
    smd_disabled_fraction: float | None
    #: Simulation wall time in seconds (the *original* run's time when
    #: served from cache).
    wall_s: float
    cached: bool
    key: str
    #: Codec backend the *executing* process resolved (``matrix`` /
    #: ``bitsliced``); the original run's backend when served
    #: from cache, or None for entries written before this field existed.
    backend: str | None = None


def code_fingerprint() -> str:
    """Digest of the installed ``repro`` sources (cache-invalidation tag).

    Hashes every ``.py`` file in the package (path + contents), so any
    code change — simulator, policies, traces, power model — invalidates
    all previously cached results.  Computed once per process.
    """
    global _CODE_FINGERPRINT
    if _CODE_FINGERPRINT is None:
        import repro

        root = Path(repro.__file__).resolve().parent
        digest = hashlib.sha256()
        for path in sorted(root.rglob("*.py")):
            digest.update(path.relative_to(root).as_posix().encode("utf-8"))
            digest.update(b"\0")
            digest.update(path.read_bytes())
        _CODE_FINGERPRINT = digest.hexdigest()[:16]
    return _CODE_FINGERPRINT


_CODE_FINGERPRINT: str | None = None


# ---------------------------------------------------------------------------
# Job execution (importable at module top level so it pickles to workers)
# ---------------------------------------------------------------------------

#: Per-process trace memo keyed by the frozen spec itself (its seed and
#: model, not just its name); worker processes forked from the parent
#: start with the parent's already-calibrated traces.
_TRACE_MEMO: dict = {}


def trace_for(benchmark: BenchmarkSpec, instructions: int):
    """Generate (and memoize per process) one benchmark's perf trace."""
    memo_key = (benchmark, instructions)
    if memo_key not in _TRACE_MEMO:
        _TRACE_MEMO[memo_key] = benchmark.trace(instructions)
    return _TRACE_MEMO[memo_key]


def clear_trace_memo() -> None:
    """Drop memoized traces (tests use this for isolation)."""
    _TRACE_MEMO.clear()


def _pool_initializer(backend_request: str | None) -> None:
    """Worker bootstrap: carry the parent's codec-backend request across.

    ``ProcessPoolExecutor`` workers do not inherit the parent's
    process-local :func:`repro.ecc.backend.set_backend` override (the
    CLI's ``--codec-backend``): under the spawn start method they begin
    from fresh module state, so a forced-backend sweep would silently
    run ``auto`` inside every worker.  The request is installed both as
    the worker's explicit override and in its environment, so any
    grandchild process inherits it too.
    """
    if backend_request is not None:
        os.environ[codec_backend.ENV_VAR] = backend_request
        codec_backend.set_backend(backend_request)


def execute_job(spec: JobSpec) -> tuple[SimResult, float | None, float, str]:
    """Run one job; returns (result, smd_disabled_fraction, wall_s, backend).

    ``backend`` is the codec backend the executing process actually
    resolved (:func:`repro.ecc.backend.selected_backend`), reported back
    so the run manifest can prove which engine did the work — in
    particular that pool workers honored a forced ``--codec-backend``.
    """
    from repro.sim.engine import simulate

    start = time.perf_counter()
    trace = trace_for(spec.benchmark, spec.instructions)
    if spec.policy == "mecc+smd":
        policy = spec.config.policy_by_name(
            "mecc+smd",
            quantum_cycles=spec.quantum_cycles,
            threshold_mpkc=spec.threshold_mpkc,
        )
    else:
        policy = spec.config.policy_by_name(spec.policy)
    result = simulate(trace, policy)
    smd = getattr(policy, "smd", None)
    disabled = smd.report(result.cycles).disabled_fraction if smd is not None else None
    backend = codec_backend.selected_backend()
    return result, disabled, time.perf_counter() - start, backend


# ---------------------------------------------------------------------------
# On-disk result cache
# ---------------------------------------------------------------------------


def _payload_checksum(payload: dict) -> str:
    """Canonical SHA-256 of a JSON-native payload (checksum field excluded)."""
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class ResultCache:
    """Content-addressed store of job results, one JSON file per key.

    Entries live at ``<root>/<key[:2]>/<key>.json`` and are written
    atomically (temp file + rename), so concurrent runners sharing a
    cache directory never observe torn entries.  Every entry carries a
    SHA-256 checksum of its own payload; a *stale* entry (old schema or
    foreign key) is a plain miss, while a *corrupt* entry — undecodable
    JSON, non-object payload, checksum mismatch, or a missing result
    block — is moved to ``<root>/_quarantine/``, logged, and counted in
    :attr:`quarantined`, so the job recomputes instead of crashing.

    The quarantine directory itself is bounded: at most
    ``max_quarantine`` entries are kept, oldest evicted (deleted) first,
    so a long-lived cache hammered by corruption cannot grow it without
    bound.  Evictions count in :attr:`quarantine_evicted`.
    """

    def __init__(
        self, root: str | os.PathLike, max_quarantine: int = QUARANTINE_LIMIT
    ):
        if max_quarantine < 1:
            raise ConfigurationError("max_quarantine must be >= 1")
        self.root = Path(root)
        self.max_quarantine = max_quarantine
        self.hits = 0
        self.misses = 0
        self.quarantined = 0
        self.quarantine_evicted = 0

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def _quarantine(self, path: Path, reason: str) -> None:
        """Move a corrupt entry aside (best effort) and log it."""
        dest: Path | None = self.root / "_quarantine" / path.name
        try:
            dest.parent.mkdir(parents=True, exist_ok=True)
            os.replace(path, dest)
        except OSError:
            dest = None
        self.quarantined += 1
        logger.warning(
            "quarantined corrupt cache entry %s (%s)%s; the job will be recomputed",
            path.name,
            reason,
            f" -> {dest}" if dest is not None else "",
        )
        if dest is not None:
            self._bound_quarantine()

    def _bound_quarantine(self) -> None:
        """Evict oldest quarantined entries beyond :attr:`max_quarantine`."""
        quarantine = self.root / "_quarantine"
        try:
            entries = sorted(
                (p for p in quarantine.iterdir() if p.is_file()),
                key=lambda p: (p.stat().st_mtime, p.name),
            )
        except OSError:
            return
        for victim in entries[: max(0, len(entries) - self.max_quarantine)]:
            try:
                victim.unlink()
            except OSError:
                continue
            self.quarantine_evicted += 1
            logger.info(
                "evicted oldest quarantined cache entry %s (quarantine "
                "bounded at %d entries)",
                victim.name,
                self.max_quarantine,
            )

    def load(self, key: str) -> dict | None:
        """Return the cached payload for ``key``, counting hit/miss.

        Never raises on a bad entry: corruption quarantines and misses.
        """
        path = self._path(key)
        try:
            with open(path, encoding="utf-8") as stream:
                payload = json.load(stream)
        except FileNotFoundError:
            self.misses += 1
            return None
        except (OSError, ValueError) as exc:
            self._quarantine(path, f"undecodable entry: {exc}")
            self.misses += 1
            return None
        if not isinstance(payload, dict):
            self._quarantine(path, "payload is not a JSON object")
            self.misses += 1
            return None
        if payload.get("schema") != CACHE_SCHEMA or payload.get("key") != key:
            # Stale, not corrupt: written by an older schema or for
            # another key.  Leave it alone and recompute.
            self.misses += 1
            return None
        body = {k: v for k, v in payload.items() if k != "checksum"}
        if payload.get("checksum") != _payload_checksum(body):
            self._quarantine(path, "checksum mismatch")
            self.misses += 1
            return None
        if not isinstance(body.get("result"), dict):
            self._quarantine(path, "missing result block")
            self.misses += 1
            return None
        self.hits += 1
        return payload

    def store(self, key: str, payload: dict) -> None:
        """Atomically persist ``payload`` under ``key`` with its checksum."""
        body = {k: v for k, v in payload.items() if k != "checksum"}
        body["checksum"] = _payload_checksum(body)
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
        with open(tmp, "w", encoding="utf-8") as stream:
            json.dump(body, stream, sort_keys=True)
        os.replace(tmp, path)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


# ---------------------------------------------------------------------------
# The runner
# ---------------------------------------------------------------------------


@dataclass
class JobRecord:
    """One manifest line: what ran, how long, from where, and how it ended."""

    key: str
    benchmark: str
    policy: str
    instructions: int
    wall_s: float
    source: str  # "run" | "cache"
    status: str = "ok"  # "ok" | "resumed" | "failed" | "timeout"
    #: Codec backend resolved by the process that computed the result
    #: (None for failures and pre-existing cache entries without one).
    backend: str | None = None


#: Exceptions meaning "the pool itself died", not "the job failed".
_POOL_DEATH = (BrokenProcessPool,)


class ExperimentRunner:
    """Fan independent jobs out over processes, backed by the cache.

    Args:
        jobs: worker processes; 1 runs jobs inline (no pool) unless a
            timeout forces process isolation.
        cache: on-disk result cache, or None for no persistence.
        timeout_s: per-job wall-clock deadline; on expiry the worker
            pool is killed and the job counts as timed out (retryable).
            None disables the deadline (and inline jobs are never
            preempted regardless).
        retries: extra attempts for failed/timed-out jobs (0 = one
            attempt total).
        retry_backoff_s: base delay before the first retry; subsequent
            delays use decorrelated jitter (``min(30, U(base, 3 *
            previous))``) so synchronized failures do not retry in
            lockstep.  0 disables backoff entirely.
        checkpoint_path: when set, the manifest is rewritten atomically
            after every job disposition (see :meth:`resume_from`).
        start_method: multiprocessing start method for the worker pool
            (``fork`` / ``spawn`` / ``forkserver``); None uses the
            platform default.  Results are identical either way — the
            backend-propagation initializer makes spawn safe.
        backend: the execution backend; only ``"local"`` (the process
            pool or inline execution) exists.
        backoff_rng: randomness for the retry jitter (injectable so
            tests stay deterministic); None draws a private RNG.
        sleep: the backoff sleep hook (injectable for tests).
    """

    def __init__(
        self,
        jobs: int = 1,
        cache: ResultCache | None = None,
        timeout_s: float | None = None,
        retries: int = 0,
        retry_backoff_s: float = 0.25,
        checkpoint_path: str | os.PathLike | None = None,
        start_method: str | None = None,
        backend: str = "local",
        backoff_rng: random.Random | None = None,
        sleep: Callable[[float], None] = time.sleep,
    ):
        if jobs < 1:
            raise ConfigurationError("jobs must be >= 1")
        if backend != "local":
            raise ConfigurationError(
                f"unknown runner backend {backend!r}; the only backend is 'local'"
            )
        if start_method is not None and start_method not in (
            multiprocessing.get_all_start_methods()
        ):
            raise ConfigurationError(
                f"unknown start method {start_method!r}; choose from "
                f"{', '.join(multiprocessing.get_all_start_methods())}"
            )
        if timeout_s is not None and timeout_s <= 0:
            raise ConfigurationError("timeout_s must be positive (or None)")
        if retries < 0:
            raise ConfigurationError("retries must be >= 0")
        if retry_backoff_s < 0:
            raise ConfigurationError("retry_backoff_s must be >= 0")
        self.jobs = jobs
        self.cache = cache
        self.timeout_s = timeout_s
        self.retries = retries
        self.retry_backoff_s = retry_backoff_s
        self.checkpoint_path = checkpoint_path
        self.start_method = start_method
        self.backend = backend
        self._backoff_rng = backoff_rng
        self._sleep = sleep
        self.records: list[JobRecord] = []
        #: Cache keys a resume manifest reported complete (see
        #: :meth:`resume_from`); hits on these are marked ``"resumed"``.
        self.resumed_keys: set[str] = set()
        #: Jobs that hit their wall-clock deadline (across attempts).
        self.timeouts = 0
        #: Times the worker pool itself died (BrokenProcessPool).
        self.pool_failures = 0
        self._pool_broken = False

    # -- resume ----------------------------------------------------------------

    def resume_from(self, manifest_path: str | os.PathLike) -> int:
        """Load a checkpoint manifest; returns the completed-job count.

        Completion is keyed by the content-hash cache key, so resumed
        jobs are simply served from the cache (the checkpoint guarantees
        their entries were stored before the manifest line was written).
        A manifest from a different code version is accepted with a
        warning — its keys cannot match the new fingerprint, so every
        job transparently re-runs.

        A *truncated* manifest (undecodable JSON — e.g. the filesystem
        tore a write when the machine died) is treated as **absent**:
        the resume is a no-op (0 completed jobs) with a warning, never a
        crash, because re-running every job is always safe.  A manifest
        that decodes to the wrong shape, or a path that cannot be read
        at all, is still a :class:`ConfigurationError` — that is a wrong
        ``--resume`` argument, not a torn write.
        """
        path = Path(manifest_path)
        try:
            with open(path, encoding="utf-8") as stream:
                payload = json.load(stream)
        except ValueError as exc:
            logger.warning(
                "resume manifest %s is truncated or undecodable (%s); "
                "treating it as absent — every job will re-run",
                path,
                exc,
            )
            self.resumed_keys = set()
            return 0
        except OSError as exc:
            raise ConfigurationError(
                f"cannot read resume manifest {path}: {exc}"
            ) from exc
        if not isinstance(payload, dict):
            raise ConfigurationError(
                f"resume manifest {path} is not a JSON object"
            )
        if payload.get("code_version") != code_fingerprint():
            logger.warning(
                "resume manifest %s was written by a different code version; "
                "previously completed jobs will re-run",
                path,
            )
        keys = {
            record.get("key")
            for record in payload.get("jobs", [])
            if isinstance(record, dict)
            and record.get("status", "ok") in ("ok", "resumed")
        }
        keys.discard(None)
        self.resumed_keys = keys
        return len(self.resumed_keys)

    # -- execution -------------------------------------------------------------

    def run(self, specs: Sequence[JobSpec]) -> dict[JobSpec, JobOutcome]:
        """Execute ``specs`` (deduplicated), reusing cached results.

        Returns one :class:`JobOutcome` per distinct spec.  Results are
        independent of ``jobs`` — each job is a deterministic pure
        function of its spec — so parallel runs match serial runs
        bit for bit.  If any job still fails after its retries, a single
        :class:`JobExecutionError` aggregating every failure is raised
        — but only after all healthy jobs have completed, been cached,
        and been checkpointed, so the sweep is resumable.
        """
        unique: list[JobSpec] = []
        seen = set()
        for spec in specs:
            if spec not in seen:
                seen.add(spec)
                unique.append(spec)
        code = code_fingerprint()
        outcomes: dict[JobSpec, JobOutcome] = {}
        misses: list[tuple[JobSpec, str]] = []
        for spec in unique:
            key = spec.key(code)
            payload = self.cache.load(key) if self.cache is not None else None
            if payload is not None:
                outcome = JobOutcome(
                    result=SimResult.from_dict(payload["result"]),
                    smd_disabled_fraction=payload.get("smd_disabled_fraction"),
                    wall_s=payload.get("wall_s", 0.0),
                    cached=True,
                    key=key,
                    backend=payload.get("backend"),
                )
                outcomes[spec] = outcome
                status = "resumed" if key in self.resumed_keys else "ok"
                self._record(
                    spec, key, outcome.wall_s, "cache", status, outcome.backend
                )
                self._checkpoint()
            else:
                misses.append((spec, key))
        failures: list[tuple[str, Exception]] = []
        if misses:

            def harvest(position: int, triple) -> None:
                spec, key = misses[position]
                result, disabled, wall_s, backend = triple
                outcomes[spec] = JobOutcome(
                    result=result,
                    smd_disabled_fraction=disabled,
                    wall_s=wall_s,
                    cached=False,
                    key=key,
                    backend=backend,
                )
                if self.cache is not None:
                    self.cache.store(
                        key,
                        {
                            "schema": CACHE_SCHEMA,
                            "key": key,
                            "job": spec.describe(),
                            "result": result.to_dict(),
                            "smd_disabled_fraction": disabled,
                            "wall_s": wall_s,
                            "backend": backend,
                        },
                    )
                self._record(spec, key, wall_s, "run", "ok", backend)
                self._checkpoint()

            errors = self._execute_resilient(
                [spec for spec, _ in misses], harvest
            )
            for position in sorted(errors):
                spec, key = misses[position]
                exc = errors[position]
                status = "timeout" if isinstance(exc, JobTimeoutError) else "failed"
                self._record(spec, key, 0.0, "run", status)
                self._checkpoint()
                failures.append((spec.label(), exc))
        if failures:
            summary = "; ".join(f"{label}: {exc}" for label, exc in failures)
            raise JobExecutionError(
                f"{len(failures)} job(s) failed after "
                f"{self.retries + 1} attempt(s): {summary}",
                failures=failures,
            )
        return outcomes

    def _use_pool(self, n_jobs: int) -> bool:
        if self._pool_broken:
            return False
        if self.jobs > 1 and n_jobs > 1:
            return True
        # A timeout can only be enforced on a killable worker process.
        return self.timeout_s is not None and n_jobs > 0

    def _execute_resilient(
        self, specs: list[JobSpec], harvest: Callable[[int, tuple], None]
    ) -> dict[int, Exception]:
        """Run every spec, retrying failures; returns index -> final error.

        ``harvest`` is invoked once per *successful* job, in submission
        order within each attempt, so caching/checkpointing happens as
        results arrive rather than at sweep end.
        """
        errors: dict[int, Exception] = {}
        pending: list[tuple[int, JobSpec]] = list(enumerate(specs))
        backoff = DecorrelatedJitter(
            self.retry_backoff_s, 30.0, rng=self._backoff_rng
        )
        for attempt in range(self.retries + 1):
            if not pending:
                break
            if attempt:
                delay = backoff.next_delay()
                logger.info(
                    "retry %d/%d for %d job(s) after %.2f s backoff",
                    attempt,
                    self.retries,
                    len(pending),
                    delay,
                )
                if delay:
                    self._sleep(delay)
            failed: list[tuple[int, JobSpec, Exception]] = []
            leftover = pending
            if self._use_pool(len(pending)):
                failed, leftover = self._attempt_pool(pending, harvest)
            for index, spec in leftover:
                # Inline path: jobs == 1, pool permanently broken, or
                # jobs a killed pool never got to.
                try:
                    harvest(index, execute_job(spec))
                except KeyboardInterrupt:
                    raise
                except Exception as exc:
                    failed.append((index, spec, exc))
            pending = []
            for index, spec, exc in failed:
                errors[index] = exc
                pending.append((index, spec))
            pending.sort()
        return {index: errors[index] for index, _ in pending}

    def _attempt_pool(
        self,
        pending: list[tuple[int, JobSpec]],
        harvest: Callable[[int, tuple], None],
    ) -> tuple[list[tuple[int, JobSpec, Exception]], list[tuple[int, JobSpec]]]:
        """One pooled attempt; returns (failed-with-error, never-ran).

        Jobs in the second list were victims of a pool death or timeout
        kill — they did not fail on their own and run inline (or retry)
        without consuming extra attempts for a fault that was not theirs.
        """
        failed: list[tuple[int, JobSpec, Exception]] = []
        leftover: list[tuple[int, JobSpec]] = []
        workers = min(self.jobs, len(pending)) if self.jobs > 1 else 1
        # The initializer replays the parent's codec-backend request in
        # every worker: an explicit set_backend() override lives in
        # process-local module state that spawn-started workers would
        # otherwise never see (forced-backend sweeps silently ran `auto`).
        pool = ProcessPoolExecutor(
            max_workers=workers,
            mp_context=(
                multiprocessing.get_context(self.start_method)
                if self.start_method
                else None
            ),
            initializer=_pool_initializer,
            initargs=(codec_backend.requested_backend(),),
        )
        futures = []
        try:
            for index, spec in pending:
                futures.append((pool.submit(execute_job, spec), index, spec))
        except _POOL_DEATH + (RuntimeError,):
            self._mark_pool_broken()
            submitted = {idx for _, idx, _ in futures}
            leftover.extend(
                (idx, spec) for idx, spec in pending if idx not in submitted
            )
        dead = False
        for future, index, spec in futures:
            if dead:
                # Pool already killed/broken: salvage finished results,
                # requeue everything else.
                if future.done() and not future.cancelled():
                    exc = future.exception()
                    if exc is None:
                        try:
                            harvest(index, future.result())
                        except Exception as err:
                            failed.append((index, spec, err))
                    elif isinstance(exc, _POOL_DEATH):
                        leftover.append((index, spec))
                    else:
                        failed.append((index, spec, exc))
                else:
                    leftover.append((index, spec))
                continue
            try:
                triple = future.result(timeout=self.timeout_s)
            except FutureTimeoutError:
                self.timeouts += 1
                failed.append(
                    (
                        index,
                        spec,
                        JobTimeoutError(
                            f"job {spec.label()} exceeded the "
                            f"{self.timeout_s:g} s wall-clock deadline; "
                            "worker pool killed"
                        ),
                    )
                )
                logger.warning(
                    "job %s timed out after %g s; killing the worker pool",
                    spec.label(),
                    self.timeout_s,
                )
                self._kill_pool(pool)
                dead = True
                continue
            except _POOL_DEATH:
                self._mark_pool_broken()
                leftover.append((index, spec))
                dead = True
                continue
            except Exception as exc:
                failed.append((index, spec, exc))
                continue
            try:
                harvest(index, triple)
            except Exception as err:
                failed.append((index, spec, err))
        if not dead:
            pool.shutdown(wait=True)
        return failed, leftover

    def _mark_pool_broken(self) -> None:
        self.pool_failures += 1
        if not self._pool_broken:
            logger.warning(
                "worker pool died (BrokenProcessPool); falling back to "
                "serial in-process execution for the rest of the sweep"
            )
        self._pool_broken = True

    @staticmethod
    def _kill_pool(pool: ProcessPoolExecutor) -> None:
        """Terminate every worker and abandon the pool (timeout path)."""
        processes = getattr(pool, "_processes", None) or {}
        for proc in list(processes.values()):
            try:
                proc.terminate()
            except OSError:
                pass
        pool.shutdown(wait=False, cancel_futures=True)

    def _record(
        self,
        spec: JobSpec,
        key: str,
        wall_s: float,
        source: str,
        status: str = "ok",
        backend: str | None = None,
    ) -> None:
        self.records.append(
            JobRecord(
                key=key,
                benchmark=spec.benchmark.name,
                policy=spec.policy,
                instructions=spec.instructions,
                wall_s=wall_s,
                source=source,
                status=status,
                backend=backend,
            )
        )

    def _checkpoint(self) -> None:
        if self.checkpoint_path is not None:
            self.write_manifest(self.checkpoint_path)

    # -- observability ---------------------------------------------------------

    @property
    def cache_hits(self) -> int:
        return sum(1 for r in self.records if r.source == "cache")

    @property
    def cache_misses(self) -> int:
        return sum(1 for r in self.records if r.source == "run")

    def manifest(self) -> dict:
        """Structured run manifest: per-job records + aggregate counters."""
        ran = [r for r in self.records if r.source == "run"]
        total = len(self.records)
        return {
            "schema": CACHE_SCHEMA,
            "code_version": code_fingerprint(),
            "parallelism": {
                "jobs": self.jobs,
                "start_method": self.start_method,
            },
            # Which codec engines actually computed results this run —
            # workers report their resolved backend per job, so a forced
            # --codec-backend sweep is provable from the manifest alone.
            "codec_backends": sorted(
                {r.backend for r in self.records if r.backend is not None}
            ),
            "cache": {
                "enabled": self.cache is not None,
                "dir": str(self.cache.root) if self.cache is not None else None,
                "hits": self.cache_hits,
                "misses": self.cache_misses,
                "hit_rate": self.cache_hits / total if total else 0.0,
                "quarantined": self.cache.quarantined if self.cache else 0,
                "quarantine_evicted": (
                    self.cache.quarantine_evicted if self.cache else 0
                ),
            },
            "resilience": {
                "timeout_s": self.timeout_s,
                "retries": self.retries,
                "timeouts": self.timeouts,
                "pool_failures": self.pool_failures,
                "serial_fallback": self._pool_broken,
            },
            "totals": {
                "job_count": total,
                "simulated_wall_s": sum(r.wall_s for r in ran),
                "max_job_wall_s": max((r.wall_s for r in ran), default=0.0),
                "failed_jobs": sum(
                    1 for r in self.records if r.status in ("failed", "timeout")
                ),
                "resumed_jobs": sum(
                    1 for r in self.records if r.status == "resumed"
                ),
            },
            "jobs": [dataclasses.asdict(r) for r in self.records],
        }

    def write_manifest(self, path: str | os.PathLike) -> str:
        """Atomically write the manifest as JSON; returns the path written.

        Atomic (temp file + rename) because the checkpoint path rewrites
        it after every job — a sweep killed mid-write must leave the
        previous complete manifest behind, never a torn one.
        """
        manifest = self.manifest()
        manifest["created"] = time.strftime("%Y-%m-%dT%H:%M:%S")
        target = Path(path)
        tmp = target.with_name(f".{target.name}.{os.getpid()}.tmp")
        with open(tmp, "w", encoding="utf-8") as stream:
            json.dump(manifest, stream, indent=2, sort_keys=True)
        os.replace(tmp, target)
        return str(target)


# ---------------------------------------------------------------------------
# Process-wide default runner
# ---------------------------------------------------------------------------

_default_runner: ExperimentRunner | None = None


def configure_runner(
    jobs: int = 1,
    cache_dir: str | os.PathLike | None = None,
    timeout_s: float | None = None,
    retries: int = 0,
    checkpoint_path: str | os.PathLike | None = None,
    start_method: str | None = None,
    backend: str = "local",
) -> ExperimentRunner:
    """Install (and return) the process-wide default runner.

    Args:
        jobs: worker-process count (1 = inline).
        cache_dir: on-disk cache directory; None disables persistence.
        timeout_s: per-job wall-clock deadline (None = unlimited).
        retries: extra attempts for failed/timed-out jobs.
        checkpoint_path: incremental checkpoint manifest path.
        start_method: worker-pool start method (None = platform default).
        backend: execution backend; only ``"local"`` is accepted.
    """
    global _default_runner
    cache = ResultCache(cache_dir) if cache_dir else None
    _default_runner = ExperimentRunner(
        jobs=jobs,
        cache=cache,
        timeout_s=timeout_s,
        retries=retries,
        checkpoint_path=checkpoint_path,
        start_method=start_method,
        backend=backend,
    )
    return _default_runner


def get_runner() -> ExperimentRunner:
    """The default runner; built from the environment on first use.

    ``REPRO_JOBS`` (int), ``REPRO_CACHE_DIR`` (path),
    ``REPRO_JOB_TIMEOUT_S`` (float), ``REPRO_RETRIES`` (int),
    ``REPRO_CHECKPOINT`` (path), and ``REPRO_POOL_START_METHOD``
    (``fork``/``spawn``/``forkserver``) configure it; with none set the
    default is serial and memory-only, matching the pre-runner behavior
    exactly.
    """
    global _default_runner
    if _default_runner is None:
        jobs = int(os.environ.get("REPRO_JOBS", "1") or "1")
        cache_dir = os.environ.get("REPRO_CACHE_DIR") or None
        timeout_env = os.environ.get("REPRO_JOB_TIMEOUT_S") or None
        retries = int(os.environ.get("REPRO_RETRIES", "0") or "0")
        checkpoint = os.environ.get("REPRO_CHECKPOINT") or None
        start_method = os.environ.get("REPRO_POOL_START_METHOD") or None
        _default_runner = configure_runner(
            jobs=max(1, jobs),
            cache_dir=cache_dir,
            timeout_s=float(timeout_env) if timeout_env else None,
            retries=max(0, retries),
            checkpoint_path=checkpoint,
            start_method=start_method,
        )
    return _default_runner


def reset_runner() -> None:
    """Forget the default runner (tests / CLI re-configuration)."""
    global _default_runner
    _default_runner = None
