"""Spark work counters read from outside the program.

Jobs are counted by job-id delta, read from the DAG scheduler's job-id
counter: ``statusTracker`` retains only the last ``spark.ui.retainedJobs``
job ids, so counting that list undercounts, and turning it into a Python list
costs one gateway call per id. Shuffle bytes, tasks and GC time are summed over
the status store's executor summaries. Each snapshot first drains the listener
bus, so the store has seen every event of the jobs that already returned.
"""
from __future__ import annotations

from dataclasses import dataclass

from pyspark.sql import SparkSession


@dataclass(frozen=True)
class Snapshot:
    jobs: int
    tasks: int
    shuffle_bytes: int
    gc_ms: int

    def __sub__(self, other: "Snapshot") -> "Snapshot":
        return Snapshot(
            self.jobs - other.jobs,
            self.tasks - other.tasks,
            self.shuffle_bytes - other.shuffle_bytes,
            self.gc_ms - other.gc_ms,
        )


class SparkCounters:
    def __init__(self, spark: SparkSession) -> None:
        self._jsc = spark.sparkContext._jsc.sc()

    def snapshot(self) -> Snapshot:
        self._jsc.listenerBus().waitUntilEmpty()
        execs = self._jsc.statusStore().executorList(True)
        summaries = [execs.apply(i) for i in range(execs.size())]
        return Snapshot(
            jobs=self._jsc.dagScheduler().nextJobId(),
            tasks=sum(e.completedTasks() + e.failedTasks() for e in summaries),
            shuffle_bytes=sum(e.totalShuffleWrite() for e in summaries),
            gc_ms=sum(e.totalGCTime() for e in summaries),
        )

    def cached(self) -> tuple[int, float]:
        """(persisted RDD count, MB they hold in memory and on disk)."""
        infos = self._jsc.getRDDStorageInfo()
        stored = sum(i.memSize() + i.diskSize() for i in infos)
        return self._jsc.getPersistentRDDs().size(), stored / 1e6
