"""Per-component and cluster-wide execution metrics.

The throughput and ablation benchmarks read these counters; they are also
how tests assert that e.g. a fields grouping really did pin a key to one
task.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import asdict, dataclass, field

# bump when a counter is added/renamed; from_dict refuses other versions
METRICS_SCHEMA_VERSION = 2


@dataclass
class TaskMetrics:
    """Counters for a single task (component instance)."""

    emitted: int = 0
    executed: int = 0
    acked: int = 0
    failed: int = 0

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "TaskMetrics":
        return cls(**data)


@dataclass
class ClusterMetrics:
    """Counters aggregated by the local cluster during a run."""

    tasks: dict[tuple[str, int], TaskMetrics] = field(
        default_factory=lambda: defaultdict(TaskMetrics)
    )
    tuples_transferred: int = 0
    trees_completed: int = 0
    trees_failed: int = 0
    task_restarts: int = 0
    # tuples a failed wave put back on their tasks' queues
    retried_tuples: int = 0

    def task(self, component: str, task_index: int) -> TaskMetrics:
        return self.tasks[(component, task_index)]

    def component_emitted(self, component: str) -> int:
        return sum(
            m.emitted for (name, _), m in self.tasks.items() if name == component
        )

    def component_executed(self, component: str) -> int:
        return sum(
            m.executed for (name, _), m in self.tasks.items() if name == component
        )

    def executed_by_task(self, component: str) -> dict[int, int]:
        """Return task index -> executed count for one component."""
        return {
            idx: m.executed
            for (name, idx), m in sorted(self.tasks.items())
            if name == component
        }

    def total_executed(self) -> int:
        return sum(m.executed for m in self.tasks.values())

    def to_dict(self) -> dict:
        """JSON-safe form; task keys flatten to ``"component[index]"``."""
        return {
            "schema_version": METRICS_SCHEMA_VERSION,
            "tasks": {
                f"{name}[{idx}]": m.to_dict()
                for (name, idx), m in sorted(self.tasks.items())
            },
            "tuples_transferred": self.tuples_transferred,
            "trees_completed": self.trees_completed,
            "trees_failed": self.trees_failed,
            "task_restarts": self.task_restarts,
            "retried_tuples": self.retried_tuples,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ClusterMetrics":
        version = data.get("schema_version")
        if version != METRICS_SCHEMA_VERSION:
            raise ValueError(
                f"metrics schema version {version!r} is not "
                f"{METRICS_SCHEMA_VERSION}; refusing a lossy decode"
            )
        metrics = cls(
            tuples_transferred=data["tuples_transferred"],
            trees_completed=data["trees_completed"],
            trees_failed=data["trees_failed"],
            task_restarts=data["task_restarts"],
            retried_tuples=data["retried_tuples"],
        )
        for key, counters in data["tasks"].items():
            name, _, rest = key.rpartition("[")
            metrics.tasks[(name, int(rest[:-1]))] = TaskMetrics.from_dict(
                counters
            )
        return metrics

    def summary(self) -> str:
        lines = ["component/task  executed  emitted  acked  failed"]
        for (name, idx), m in sorted(self.tasks.items()):
            lines.append(
                f"{name}[{idx}]  {m.executed}  {m.emitted}  {m.acked}  {m.failed}"
            )
        lines.append(
            f"transferred={self.tuples_transferred} "
            f"trees_completed={self.trees_completed} trees_failed={self.trees_failed}"
        )
        return "\n".join(lines)
