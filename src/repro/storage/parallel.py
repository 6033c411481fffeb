"""The process-pool execution plane for chunk-parallel work.

Chunks are independent by construction — hash-routed keys never share
records across chunk files, every chunk carries the global version
numbering, and all chunk payloads publish through one WAL commit point
— so the hot chunk loops (batch ingest, recode, per-chunk query
evaluation) are embarrassingly parallel.  :class:`ExecutionPool` is the
one place that parallelism lives: an ordered ``map`` over a
``concurrent.futures.ProcessPoolExecutor`` with a deterministic serial
fallback at ``workers=1``.

Design rules, enforced here so callers cannot get them wrong:

* **Workers see plain data.**  Task payloads are bytes, codec *names*,
  key specs and document slices — never live backends, WAL handles or
  open files.  Tasks are pickled eagerly in the parent, so an
  unpicklable payload fails fast as :class:`TaskNotPicklable` instead
  of dying opaquely inside the executor machinery.
* **Results gather before anything publishes.**  Callers run
  ``pool.map`` to completion *before* their transaction begins; a
  worker failure therefore stages nothing and the archive is untouched
  — the single commit point (and with it crash atomicity and
  byte-identity with serial runs) is preserved unchanged.
* **Worker failures come back typed.**  A task that raises inside a
  worker is captured (type name, message, traceback text) and
  re-raised in the parent as :class:`WorkerError`; a worker process
  that dies outright (``BrokenProcessPool``) surfaces the same way.
  At ``workers=1`` tasks run inline and exceptions propagate with
  their original types — the serial fallback is byte-for-byte the
  code path every existing caller already ran.

The module-level ``_*_chunk_task`` functions are the worker entry
points for the three hot loops.  They run identically inline (serial)
and in a forked worker (parallel): same decode → work → encode
sequence on the same plain inputs, which is what makes parallel output
byte-identical to serial by construction.
"""

from __future__ import annotations

import pickle
import traceback
from typing import Any, Callable, Iterable, Optional

#: Test seam: set to an operation name ("ingest" / "recode" / "query")
#: to make the matching worker task raise mid-flight.  Forked workers
#: inherit the setting, so fault drills can kill a real child process
#: and assert that nothing was published.  Never set in production.
_WORKER_FAULT: Optional[str] = None


class TaskNotPicklable(TypeError):
    """A task payload cannot cross the process boundary.

    Raised in the parent, eagerly, with the offending task's position —
    worker payloads must be plain data (bytes, names, specs), never
    live handles.
    """


class WorkerError(RuntimeError):
    """A task failed inside a worker process.

    Carries what the child could report about the original exception:
    ``cause_type`` (the exception class name), ``cause_message`` and
    ``cause_traceback`` (its formatted traceback text), plus the
    ``task_index`` of the failing task in the submitted batch.
    """

    def __init__(
        self,
        message: str,
        *,
        task_index: Optional[int] = None,
        cause_type: Optional[str] = None,
        cause_message: Optional[str] = None,
        cause_traceback: Optional[str] = None,
    ) -> None:
        super().__init__(message)
        self.task_index = task_index
        self.cause_type = cause_type
        self.cause_message = cause_message
        self.cause_traceback = cause_traceback


def _check_fault(kind: str) -> None:
    """Raise when the test seam armed a fault for this operation."""
    if _WORKER_FAULT == kind:
        raise RuntimeError(f"injected {kind} worker fault")


def _run_task(blob: bytes) -> tuple:
    """Worker entry: unpickle ``(fn, task)``, run it, report the outcome.

    Every exception — including ``BaseException`` subclasses like the
    fault seam's crash signals — is captured into a plain tuple so the
    parent can re-raise it typed; only a worker that dies outright
    escapes this net (and surfaces as ``BrokenProcessPool``).
    """
    try:
        fn, task = pickle.loads(blob)
        return ("ok", fn(task))
    except BaseException as error:  # noqa: BLE001 - report, don't kill the pool
        return (
            "err",
            type(error).__name__,
            str(error),
            traceback.format_exc(),
        )


class ExecutionPool:
    """Ordered parallel ``map`` with a deterministic serial fallback.

    ``workers=1`` (the default everywhere) runs tasks inline in
    submission order — no processes, no pickling, exceptions propagate
    unchanged.  ``workers>1`` fans tasks out to a process pool and
    gathers results *in submission order*, so callers see the same
    result sequence either way.
    """

    def __init__(self, workers: int = 1) -> None:
        workers = int(workers)
        if workers < 1:
            raise ValueError(f"Need at least one worker (got {workers})")
        self.workers = workers

    def map(self, fn: Callable[[Any], Any], tasks: Iterable[Any]) -> list:
        """Apply ``fn`` to every task; results in submission order.

        ``fn`` must be a module-level function (workers import it by
        qualified name).  Tasks are pickled up front when dispatching
        to processes — :class:`TaskNotPicklable` names the first task
        that cannot cross the boundary.  A task that raises in a worker
        re-raises here as :class:`WorkerError`.
        """
        tasks = list(tasks)
        if self.workers == 1 or len(tasks) <= 1:
            # The deterministic serial path: inline, original
            # exception types, zero serialization.
            return [fn(task) for task in tasks]
        blobs = []
        for position, task in enumerate(tasks):
            try:
                blobs.append(
                    pickle.dumps((fn, task), protocol=pickle.HIGHEST_PROTOCOL)
                )
            except Exception as error:
                raise TaskNotPicklable(
                    f"Task {position} for {getattr(fn, '__name__', fn)!r} "
                    f"cannot be pickled for worker dispatch — worker "
                    f"payloads must be plain data (bytes, codec names, "
                    f"specs), not live handles: {error}"
                ) from error
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool

        results = []
        with ProcessPoolExecutor(
            max_workers=min(self.workers, len(blobs))
        ) as executor:
            futures = [executor.submit(_run_task, blob) for blob in blobs]
            for position, future in enumerate(futures):
                try:
                    outcome = future.result()
                except BrokenProcessPool as error:
                    raise WorkerError(
                        f"Worker process died while running task {position} "
                        f"of {getattr(fn, '__name__', fn)!r}: {error}",
                        task_index=position,
                    ) from error
                if outcome[0] == "err":
                    _, cause_type, cause_message, cause_tb = outcome
                    raise WorkerError(
                        f"Task {position} of "
                        f"{getattr(fn, '__name__', fn)!r} failed in a "
                        f"worker: {cause_type}: {cause_message}",
                        task_index=position,
                        cause_type=cause_type,
                        cause_message=cause_message,
                        cause_traceback=cause_tb,
                    )
                results.append(outcome[1])
        return results


# -- worker task functions for the three hot chunk loops ----------------------
#
# Imports stay inside the functions: the chunked backend imports this
# module, so pulling ``chunked``/``query`` symbols at module scope
# would cycle.  Each function takes one plain-data task tuple and
# returns plain data; checksum verification happened in the parent
# (the bytes handed over are already trusted).


def _ingest_chunk_task(task: tuple) -> tuple:
    """Nested-Merge one chunk's slice of every batch version.

    Task: ``(index, payload, codec_name, spec, options, version_count,
    slices)`` where ``payload`` is the chunk's verified at-rest bytes
    (``None`` for a fresh chunk), ``version_count`` the archive-global
    version counter a fresh chunk must catch up to, and ``slices`` one
    partition shell (or ``None``) per batch version.

    Returns ``(index, encoded_bytes, presence_text, merge_stats)``.
    """
    index, payload, codec_name, spec, options, version_count, slices = task
    from ..core.archive import Archive
    from ..core.ingest import IngestSession
    from .chunked import _chunk_presence_of
    from .codec import get_codec

    _check_fault("ingest")
    codec = get_codec(codec_name)
    if payload is None:
        archive = Archive(spec, options)
        # Bring the fresh chunk up to the current version count so
        # chunk timestamps stay globally aligned.
        for _ in range(version_count):
            archive.add_version(None)
    else:
        archive = codec.decode_archive(payload, spec, options)
    session = IngestSession(archive)
    for part in slices:
        # Versions without records for this chunk are empty versions
        # locally, keeping timestamps globally aligned.
        session.add(part)
    presence = _chunk_presence_of(archive).to_text()
    encoded = codec.encode_archive(archive)
    return (index, encoded, presence, session.stats)


def _recode_chunk_task(task: tuple) -> tuple:
    """Decode one chunk under its old codec, re-encode, verify identity.

    Task: ``(index, payload, source_codec_name, target_codec_name,
    spec, options)``.  Returns ``(index, encoded_bytes)``; raises
    :class:`~repro.storage.codec.CodecError` (re-raised as
    :class:`WorkerError` across processes) when the round-trip is not
    the identity.
    """
    index, payload, source_name, target_name, spec, options = task
    from .backend import verify_recoded_document
    from .codec import get_codec

    _check_fault("recode")
    source = get_codec(source_name)
    target = get_codec(target_name)
    # Decode once through the archive seam, re-encode through it, then
    # verify the staged payload re-emits the same Fig. 5 document the
    # source encoding held — codecs that store binary records (xbin)
    # take part in the identity check via their document re-emission.
    archive = source.decode_archive(payload, spec, options)
    text = archive.to_xml_string()
    encoded = target.encode_archive(archive)
    verify_recoded_document(text, encoded, target)
    return (index, encoded)


def _query_chunk_task(task: tuple) -> tuple:
    """Evaluate a compiled plan over one chunk archive.

    Task: ``(index, payload, codec_name, spec, options, plan,
    version)``.  Returns ``(index, items, stats)`` where ``items`` is
    the chunk's ordered ``(anchor, seq, index, element)`` result list —
    the same stream the serial evaluator feeds the k-way merge — and
    ``stats`` the chunk-local
    :class:`~repro.query.result.QueryStats` for the parent to merge.
    """
    index, payload, codec_name, spec, options, plan, version = task
    from ..query.exec import MemoryCursor, run_plan
    from ..query.result import QueryStats
    from .codec import get_codec

    _check_fault("query")
    codec = get_codec(codec_name)
    archive = codec.decode_archive(payload, spec, options)
    stats = QueryStats()
    items = []
    root_timestamp = archive.root.timestamp
    if root_timestamp is not None:
        cursor = MemoryCursor(archive, archive.root, root_timestamp, version, stats)
        for seq, (anchor, element) in enumerate(run_plan(cursor, plan, stats)):
            items.append((anchor, seq, index, element))
    return (index, items, stats)
