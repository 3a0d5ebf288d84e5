"""The four workloads: what is recorded, how wide the fleet is, what is asked.

Every workload runs the same three planes (record and replay, library
query, multi-tenant service) and reports the same metrics; what differs is
the training script, the checkpoint regime and how the measured time is
split between the planes.  ``--seed`` reaches the program only through
what is built here: script texts, run ids (the generated scripts seed
their data from their own run id) and the request mix.

A multi-run query carries one probe source, so every run of a fleet has
the same script text.  The generated scripts therefore derive their data
from ``repro.get_active_session().run_id``: runs differ in content, which
keeps cross-run chunk dedup from making later runs' checkpoints cheaper
and the adaptive checkpoint density drifting from run to run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

#: ``--seconds`` the counts below are sized for on a 2-core machine.
BASE_SECONDS = 20

#: Shares of the service plane's requests that are cold-distinct and
#: shared-burst; the rest (70 %) are warm.  With the warm class this wide
#: the median request sits inside it rather than at its slow edge.
COLD_SHARE, SHARED_SHARE = 0.20, 0.10

#: Name the ground-truth script logs the outer probe under.
TRUTH_OUTER = "truth_outer"


@dataclass(frozen=True)
class Scripts:
    """One workload's script texts; all runs of a fleet share ``record``."""

    record: str             # recorded, and exec'd as the vanilla baseline
    inner: str              # record + a probe inside the checkpointed loop
    truth: str              # every probe, device waits removed
    one_epoch: str          # record cut to one epoch: the fixed record cost
    outer_line: str         # appended to ``record`` to probe at epoch level
    inner_name: str
    epochs: int
    run_seeded: bool        # values depend on the run id

    def outer(self, name: str) -> str:
        """``record`` plus an epoch-level probe logged under ``name``.

        A fresh ``name`` gives a text no memo entry covers, which is how
        the planes make a query cold.
        """
        return self.record + self.outer_line.format(name=name)


def generated_scripts(seed: int, epochs: int, steps: int, wait_ms: float,
                      frozen_elems: int, head_elems: int) -> Scripts:
    """Fine-tune shape: a frozen backbone, a head rewritten every step.

    The device wait sits inside the checkpointed loop, so a replay that
    restores a checkpoint skips it and one that bridges from an earlier
    checkpoint pays it again.
    """
    def text(epochs: int = epochs, wait_ms: float = wait_ms,
             inner: bool = False) -> str:
        lines = [
            "import time",
            "import zlib",
            "import numpy as np",
            "import repro",
            "from repro import api as flor",
            "_session = repro.get_active_session()",
            "_run = zlib.crc32(_session.run_id.encode()) if _session else 0",
            f"rng = np.random.default_rng([{seed}, _run])",
            "model = {",
            f"    'backbone': rng.standard_normal({frozen_elems})"
            ".astype('float32'),",
            f"    'head': rng.standard_normal({head_elems})"
            ".astype('float32'),",
            "}",
            f"for epoch in range({epochs}):",
            f"    for step in range({steps}):",
            f"        time.sleep({wait_ms / 1000.0})",
            "        model['head'] = (np.roll(model['head'], 1) * 0.999",
            f"                         + (epoch * {steps} + step + 1) * 1e-3)",
        ]
        if inner:
            lines.append(
                "        flor.log('head_max', float(model['head'].max()))")
        lines.append(
            "    flor.log('fingerprint', float(model['head'][:64].sum()))")
        return "\n".join(lines) + "\n"

    outer_line = ("    flor.log({name!r}, float(model['head'].sum())"
                  " + float(model['backbone'][:8].sum()))\n")
    return Scripts(
        record=text(), inner=text(inner=True),
        truth=text(wait_ms=0.0, inner=True)
        + outer_line.format(name=TRUTH_OUTER),
        one_epoch=text(epochs=1), outer_line=outer_line,
        inner_name="head_max", epochs=epochs, run_seeded=True)


def training_scripts(seed: int, epochs: int) -> Scripts:
    """The repo's miniature RsNt script: real torchlike CPU training."""
    from repro.workloads import build_training_script

    step = "        optimizer.step()\n"
    probe = step + "        flor.log('step_loss', loss.item())\n"

    def text(epochs: int = epochs, inner: bool = False) -> str:
        source = build_training_script("RsNt", epochs=epochs, seed=seed)
        if source.count(step) != 1:
            raise RuntimeError("RsNt script changed shape: expected one "
                               "'optimizer.step()' line to probe after")
        return source.replace(step, probe) if inner else source

    outer_line = ("    flor.log({name!r}, float(sum(float((p.data ** 2).sum())"
                  " for p in net.parameters())))\n")
    return Scripts(
        record=text(), inner=text(inner=True),
        truth=text(inner=True) + outer_line.format(name=TRUTH_OUTER),
        one_epoch=text(epochs=1), outer_line=outer_line,
        inner_name="step_loss", epochs=epochs, run_seeded=False)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: ``(seed, smoke) -> Scripts``; smoke shrinks the script itself.
    scripts: Callable[[int, bool], Scripts]
    #: FlorConfig fields that differ from the default.
    config: dict = field(default_factory=dict)
    #: Record-plane trials.  Each leaves one run in the home, so this is
    #: also the width of the fleet the query and service planes ask about.
    trials: int = 3
    #: The request list is sent in this many chunks; ``warm_per_chunk``
    #: memoized library queries follow each chunk, and ``rounds`` cold
    #: rounds (a cold query, then the widened one) are spaced over them.
    chunks: int = 8
    warm_per_chunk: int = 3
    rounds: int = 3
    requests: int = 60
    #: Runs one cold or shared service request touches.
    cold_runs: int = 2


#: Sleep-bound workloads first: a driver that runs them in this order meets
#: the machine's change of pace under sustained load on the timings that
#: depend on it least.
WORKLOADS = {workload.name: workload for workload in (
    Workload(
        name="fleet_query",
        why="A wide fleet of short runs with sparse adaptive checkpoints: "
            "cold queries are bound by replay and the executor, warm ones "
            "by planner, catalog and memo; the write path is idle.",
        scripts=lambda seed, smoke: generated_scripts(
            seed, epochs=6 if smoke else 12, steps=1, wait_ms=10.0,
            frozen_elems=8, head_elems=50_000),
        config={"epsilon": 0.2},
        trials=12, rounds=5, requests=100, cold_runs=4),
    Workload(
        name="service_tenants",
        why="Closed loop of tenant threads against the in-process daemon "
            "with a warm/cold/shared request mix: admission, fair "
            "scheduling, in-flight dedup, streaming and the protocol.",
        scripts=lambda seed, smoke: generated_scripts(
            seed, epochs=6 if smoke else 12, steps=1, wait_ms=10.0,
            frozen_elems=8, head_elems=50_000),
        config={"epsilon": 0.2},
        trials=6, rounds=8, requests=240, cold_runs=4),
    Workload(
        name="ckpt_heavy",
        why="6 MB of state checkpointed every epoch behind a 5 ms device "
            "wait: the storage write path dominates record, the read path "
            "dominates replay, and the frozen backbone makes dedup matter.",
        scripts=lambda seed, smoke: generated_scripts(
            seed, epochs=3 if smoke else 8, steps=4, wait_ms=5.0,
            frozen_elems=1 << 20, head_elems=1 << 19),
        config={"adaptive_checkpointing": False},
        trials=4, rounds=3, requests=50, cold_runs=1,
        # Few, slow requests: fewer chunk barriers keep throughput steady.
        chunks=5, warm_per_chunk=5),
    Workload(
        name="train_cpu",
        why="Real torchlike training (RsNt): compute dominates record and "
            "replay and storage moves little, so storage, codec, chunker "
            "and planner changes should not move it.",
        scripts=lambda seed, smoke: training_scripts(seed, 2 if smoke else 3),
        trials=4, rounds=4, requests=60, cold_runs=2),
)}
