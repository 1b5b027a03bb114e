"""Convenience builders for the paper's lifetime experiments.

These wire workload profiles, system configs, and the scaled simulation
parameters together so benchmarks and examples can run one-liners like::

    results = run_system_comparison("gcc", n_lines=128, endurance_mean=60)
"""

from __future__ import annotations

from ..core import EVALUATED_SYSTEMS, SystemConfig
from ..engine.registry import resolve_config
from ..traces import SyntheticWorkload, get_profile
from .results import LifetimeResult, normalized_lifetime
from .simulator import LifetimeSimulator


def scaled_intra_counter_limit(
    endurance_mean: float, lines_per_bank: int = 32, cycles: float = 2.0
) -> int:
    """Intra-WL counter limit matched to a scaled simulation.

    The paper pairs 16-bit counters with a 1e7-write endurance: a line's
    compression window visits many of the 64 byte offsets during the
    cells' lifetime, while consecutive writes rarely see a moved window
    (each move rewrites the whole window, costing extra flips).  At
    simulation scale both properties must be preserved *relative to the
    scaled lifetime*: we size the counter so the offset completes about
    ``cycles`` full 64-step rotations over the bank's total write budget,

        bank writes to death ~ lines_per_bank * endurance * 512 / (2*flips)

    with ``flips ~ 20`` per write.  Smaller limits over-rotate and
    inflate flips (an artifact the paper-scale system never sees).
    """
    bank_writes_to_death = lines_per_bank * endurance_mean * 512 / (2 * 20)
    return max(16, round(bank_writes_to_death / (64 * cycles)))


def build_simulator(
    system: str | SystemConfig,
    workload: str,
    n_lines: int = 256,
    endurance_mean: float = 100.0,
    endurance_cov: float = 0.15,
    seed: int = 0,
    cell_type: str = "slc",
    **config_overrides,
) -> LifetimeSimulator:
    """A ready-to-run simulator for one (system, workload) pair.

    ``system`` may be any registered :class:`~repro.engine.SystemSpec`
    name (the four paper systems plus ablation/extension variants) or
    an explicit :class:`~repro.core.SystemConfig`.
    """
    if isinstance(system, SystemConfig):
        config = resolve_config(system, **config_overrides)
    else:
        overrides = dict(config_overrides)
        overrides.setdefault(
            "intra_counter_limit",
            scaled_intra_counter_limit(endurance_mean, lines_per_bank=max(1, n_lines // 8)),
        )
        config = resolve_config(system, **overrides)
    source = SyntheticWorkload(get_profile(workload), n_lines=n_lines, seed=seed)
    return LifetimeSimulator(
        config=config,
        source=source,
        n_lines=n_lines,
        endurance_mean=endurance_mean,
        endurance_cov=endurance_cov,
        seed=seed + 1,
        cell_type=cell_type,
    )


def run_system_comparison(
    workload: str,
    systems: tuple[str, ...] = EVALUATED_SYSTEMS,
    n_lines: int = 256,
    endurance_mean: float = 100.0,
    endurance_cov: float = 0.15,
    seed: int = 0,
    max_writes: int = 2_000_000,
    workers: int = 1,
    checkpoint_dir: str | None = None,
    checkpoint_interval: int = 0,
    resume: bool = False,
    progress: bool = False,
    batch: int = 1,
    tier_lines: int = 0,
) -> dict[str, LifetimeResult]:
    """Run every system on one workload (one Figure 10 column group).

    The runs go through :class:`~repro.engine.SweepRunner` (see it for
    the knobs): in-process for ``workers=1``, across that many
    processes otherwise, with bit-for-bit the same results.  ``batch``,
    ``progress`` and the durability knobs (see
    :mod:`repro.lifetime.checkpoint`) never change results either;
    ``tier_lines > 0`` fronts every system with a content-aware DRAM
    tier of that capacity (:mod:`repro.tier`) by overriding the
    config's ``tier_lines`` knob.
    """
    return _run_grid(
        (workload,),
        systems,
        n_lines=n_lines,
        endurance_mean=endurance_mean,
        endurance_cov=endurance_cov,
        seed=seed,
        max_writes=max_writes,
        workers=workers,
        checkpoint_dir=checkpoint_dir,
        checkpoint_interval=checkpoint_interval,
        resume=resume,
        progress=progress,
        batch=batch,
        tier_lines=tier_lines,
    )[workload]


def _run_grid(
    workloads: tuple[str, ...],
    systems: tuple[str, ...],
    *,
    n_lines: int = 256,
    endurance_mean: float = 100.0,
    endurance_cov: float = 0.15,
    seed: int = 0,
    max_writes: int = 2_000_000,
    workers: int = 1,
    checkpoint_dir: str | None = None,
    checkpoint_interval: int = 0,
    resume: bool = False,
    progress: bool = False,
    batch: int = 1,
    tier_lines: int = 0,
) -> dict[str, dict[str, LifetimeResult]]:
    """Run every (workload, system) pair through one SweepRunner."""
    from ..engine.sweep import SweepRunner

    runner = SweepRunner(
        systems=tuple(systems),
        workers=workers,
        n_lines=n_lines,
        endurance_mean=endurance_mean,
        endurance_cov=endurance_cov,
        max_writes=max_writes,
        config_overrides={"tier_lines": tier_lines} if tier_lines else {},
        checkpoint_dir=checkpoint_dir,
        checkpoint_interval=checkpoint_interval,
        resume=resume,
        batch=batch,
        progress=progress,
    )
    return runner.run(workloads, seed=seed)


def normalized_against_baseline(
    results: dict[str, LifetimeResult]
) -> dict[str, float]:
    """Figure 10 normalization: every system over the baseline run."""
    if "baseline" not in results:
        raise ValueError("need a baseline run to normalize against")
    baseline = results["baseline"]
    return {
        name: normalized_lifetime(result, baseline)
        for name, result in results.items()
    }
