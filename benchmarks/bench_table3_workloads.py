"""Table 3: the eight evaluation workloads.

Regenerates the workload catalogue row-for-row and, as the measured part,
times one vanilla training epoch of every miniature workload — the quantity
every other experiment normalizes against.
"""

from __future__ import annotations

from repro.sim import experiments as ex
from repro.workloads import run_vanilla_training, workload_names


def test_table3_rows(benchmark):
    rows = benchmark(ex.table3_workloads)
    assert len(rows) == 8
    print("\nTable 3: evaluation workloads")
    print(ex.format_table(rows))


def test_table3_vanilla_epoch_times(benchmark):
    """One miniature training epoch per workload (the vanilla baseline)."""
    def run_all():
        return {name: run_vanilla_training(name, epochs=1)[-1]
                for name in workload_names()}

    losses = benchmark.pedantic(run_all, rounds=1, iterations=1)
    assert set(losses) == set(workload_names())
    print("\nFinal first-epoch loss per miniature workload:")
    for name, loss in losses.items():
        print(f"  {name}: {loss:.4f}")


def test_distributed_record_smoke(benchmark, tmp_path):
    """Data-parallel record family: K=2 worker processes, one shared home."""
    from repro.config import FlorConfig
    from repro.query.catalog import RunCatalog
    from repro.workloads import run_distributed_record

    config = FlorConfig(home=tmp_path / "home")

    def run():
        return run_distributed_record("cifr", world_size=2, epochs=2,
                                      config=config, job_name="bench-ddp")

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    assert result.succeeded, [w.error for w in result.workers]
    group = RunCatalog.open(config).job(result.job_id)
    assert group.complete
    print(f"\nDistributed record: {result.world_size} workers, "
          f"{group.checkpoint_count} checkpoints, "
          f"{result.wall_seconds:.2f}s wall")


def test_streaming_record_smoke(benchmark, tmp_path):
    """Streaming/continual family: retention prunes live on the spool."""
    from repro.config import FlorConfig
    from repro.workloads import run_streaming_record

    config = FlorConfig(home=tmp_path / "home")

    def run():
        return run_streaming_record("cifr", max_iterations=24,
                                    config=config)

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    assert 0 < result.checkpoint_count <= 8
    assert result.lifecycle_passes >= 1
    print(f"\nStreaming record: {result.iterations} steps -> "
          f"{result.checkpoint_count} surviving checkpoints "
          f"({result.lifecycle_passes} lifecycle passes, "
          f"{result.stored_nbytes} bytes)")
