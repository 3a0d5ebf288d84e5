"""One function per table/figure of the paper's evaluation.

Each function returns plain rows (lists of dicts) so the benchmark harness,
the tests and EXPERIMENTS.md all consume the same data.  ``format_table``
renders rows the way the paper prints them.
"""

from __future__ import annotations

from ..config import FlorConfig
from ..modes import InitStrategy
from ..workloads.registry import WORKLOADS, workload_names
from .cost_model import checkpoint_storage_cost, compare_replay_costs
from .record_sim import simulate_record
from .replay_sim import (simulate_inner_probe_replay, simulate_outer_probe_replay,
                         simulate_parallel_replay_fraction, simulate_scaleout)

__all__ = [
    "table3_workloads", "table4_storage_costs",
    "figure7_adaptive_overhead",
    "figure10_parallel_replay_fraction", "figure11_record_overhead",
    "figure12_replay_latency", "figure13_scaleout", "figure14_parallel_cost",
    "format_table",
]


def format_table(rows: list[dict], columns: list[str] | None = None) -> str:
    """Render rows as a fixed-width text table (for benches and docs)."""
    if not rows:
        return "(no rows)"
    columns = columns or list(rows[0])
    widths = {col: max(len(col), *(len(_fmt(row.get(col))) for row in rows))
              for col in columns}
    header = "  ".join(col.ljust(widths[col]) for col in columns)
    separator = "  ".join("-" * widths[col] for col in columns)
    lines = [header, separator]
    for row in rows:
        lines.append("  ".join(_fmt(row.get(col)).ljust(widths[col])
                               for col in columns))
    return "\n".join(lines)


def _fmt(value) -> str:
    if isinstance(value, float):
        if abs(value) >= 100:
            return f"{value:.1f}"
        if abs(value) >= 1:
            return f"{value:.2f}"
        return f"{value:.4f}"
    return str(value)


# ---------------------------------------------------------------------- #
# Tables
# ---------------------------------------------------------------------- #
def table3_workloads() -> list[dict]:
    """Table 3: the eight evaluation workloads."""
    rows = []
    for name in workload_names():
        spec = WORKLOADS[name]
        rows.append({
            "Name": spec.name,
            "Benchmark": spec.benchmark,
            "Task": spec.task,
            "Model": spec.model,
            "Dataset": spec.dataset,
            "Train/Tune": "Fine-Tune" if spec.is_fine_tune else "Train",
            "Epochs": spec.epochs,
        })
    return rows


def table4_storage_costs() -> list[dict]:
    """Table 4: gzip-compressed checkpoint size and monthly S3 cost per run."""
    rows = []
    for name in workload_names():
        spec = WORKLOADS[name]
        nbytes, cost = checkpoint_storage_cost(spec)
        rows.append({
            "Name": spec.name,
            "Checkpoint Size (GB)": nbytes / 1024 ** 3,
            "Storage Cost / Mo. ($)": cost,
        })
    return sorted(rows, key=lambda row: row["Checkpoint Size (GB)"])


# ---------------------------------------------------------------------- #
# Figures 7 and 11: record overhead
# ---------------------------------------------------------------------- #
def figure7_adaptive_overhead(epsilon: float = FlorConfig().epsilon) -> list[dict]:
    """Figure 7: record overhead with and without adaptive checkpointing."""
    rows = []
    for name in workload_names():
        spec = WORKLOADS[name]
        with_adaptive = simulate_record(spec, adaptive=True, epsilon=epsilon)
        without_adaptive = simulate_record(spec, adaptive=False, epsilon=epsilon)
        rows.append({
            "Workload": name,
            "Overhead (adaptive)": with_adaptive.overhead_fraction,
            "Overhead (adaptivity disabled)": without_adaptive.overhead_fraction,
            "Tolerance": epsilon,
            "Checkpoints (adaptive)": with_adaptive.checkpoints_materialized,
            "Epochs": spec.epochs,
        })
    return rows


def figure11_record_overhead() -> list[dict]:
    """Figure 11: training time with and without Flor record, in hours."""
    rows = []
    for name in workload_names():
        spec = WORKLOADS[name]
        simulation = simulate_record(spec)
        rows.append({
            "Workload": name,
            "Vanilla hours": simulation.vanilla_seconds / 3600,
            "Record hours": simulation.record_seconds / 3600,
            "Overhead": simulation.overhead_fraction,
        })
    return rows


# ---------------------------------------------------------------------- #
# Figures 10, 12, 13: replay
# ---------------------------------------------------------------------- #
def figure10_parallel_replay_fraction(num_gpus: int = 4) -> list[dict]:
    """Figure 10: parallel replay time as a fraction of vanilla re-execution."""
    rows = []
    for name in workload_names():
        spec = WORKLOADS[name]
        record = simulate_record(spec)
        strong = simulate_parallel_replay_fraction(
            spec, record, num_gpus=num_gpus,
            init_strategy=InitStrategy.STRONG)
        weak = simulate_parallel_replay_fraction(
            spec, record, num_gpus=num_gpus, init_strategy=InitStrategy.WEAK)
        rows.append({
            "Workload": name,
            "Fraction (strong init)": strong,
            "Fraction (weak init)": weak,
            "Ideal fraction": 1.0 / num_gpus,
            "Partitions": (record.checkpoints_materialized
                           if record.checkpoints_materialized < spec.epochs
                           else spec.epochs),
        })
    return rows


def figure12_replay_latency(num_gpus_outer: int = 4,
                            max_machines: int = 4,
                            gpus_per_machine: int = 4) -> list[dict]:
    """Figure 12: replay latency by probe position (outer vs inner loop)."""
    rows = []
    for name in workload_names():
        spec = WORKLOADS[name]
        record = simulate_record(spec)
        outer = simulate_outer_probe_replay(spec, record, num_gpus=num_gpus_outer)
        inner = simulate_inner_probe_replay(
            spec, record, num_gpus=max_machines * gpus_per_machine)
        rows.append({
            "Workload": name,
            "Vanilla hours": spec.vanilla_hours,
            "Outer-probe replay hours": outer.replay_seconds / 3600,
            "Outer-probe speedup": outer.speedup,
            "Inner-probe replay hours": inner.replay_seconds / 3600,
            "Inner-probe speedup": inner.speedup,
        })
    return rows


def figure13_scaleout(workload: str = "RsNt",
                      machines: tuple[int, ...] = (1, 2, 3, 4)) -> list[dict]:
    """Figure 13: RsNt replay speedup as 4-GPU machines are added."""
    spec = WORKLOADS[workload]
    speedups = simulate_scaleout(spec, machines=list(machines))
    rows = []
    for machine_count, speedup in speedups.items():
        workers = machine_count * 4
        rows.append({
            "Machines": machine_count,
            "GPUs": workers,
            "Speedup": speedup,
            "Ideal speedup": float(min(workers, spec.epochs)),
        })
    return rows


# ---------------------------------------------------------------------- #
# Figure 14: cost of parallelism
# ---------------------------------------------------------------------- #
def figure14_parallel_cost() -> list[dict]:
    """Figure 14: serial vs parallel replay cost for every workload."""
    rows = []
    for name in workload_names():
        spec = WORKLOADS[name]
        comparison = compare_replay_costs(spec)
        rows.append({
            "Workload": name,
            "Serial hours": comparison.serial_hours,
            "Serial cost ($)": comparison.serial_cost_usd,
            "Parallel machines": comparison.parallel_machines,
            "Parallel hours": comparison.parallel_hours,
            "Parallel cost ($)": comparison.parallel_cost_usd,
            "Marginal cost ($)": comparison.marginal_cost_usd,
            "Hours saved": comparison.time_saved_hours,
        })
    return rows
