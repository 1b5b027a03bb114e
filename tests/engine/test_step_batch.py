"""Batched write engine vs the serial pipeline: bit-identity.

``CompressedPCMController.write_batch`` promises results and final
state *bit-identical* to issuing the same writes serially, for every
system composition -- including runs harsh enough to exercise wear-out
mid-write, the fallback-to-compressed rescue, FREE-p retirement, and
block death.  These tests pin that promise, plus the order-invariance
property the scheduler's vectorized wave programming relies on:
applying a conflict-free request set in any permutation or partition
leaves byte-identical bank state.
"""

import dataclasses
import pickle

import numpy as np
import pytest

from repro.core.controller import CompressedPCMController
from repro.engine.context import SCHEDULER_FIELDS
from repro.engine.registry import get_system, system_names
from repro.pcm import EnduranceModel
from repro.validate.invariants import default_invariants

LINE = 64
N_LINES = 40


def make_controller(config, endurance_mean=70.0, seed=11):
    return CompressedPCMController(
        config=config,
        n_lines=N_LINES,
        endurance_model=EnduranceModel(mean=endurance_mean, cov=0.25),
        rng=np.random.default_rng(seed),
        n_banks=4,
    )


def make_requests(count, seed=3, n_lines=N_LINES):
    """A logical write stream over a small mixed-entropy content pool."""
    rng = np.random.default_rng(seed)
    pool = []
    for index in range(10):
        if index % 3 == 0:
            pool.append(rng.integers(0, 3, LINE, dtype=np.uint8).tobytes())
        elif index % 3 == 1:
            pool.append(rng.integers(0, 256, LINE, dtype=np.uint8).tobytes())
        else:
            pool.append(rng.integers(0, 2, LINE, dtype=np.uint8).tobytes())
    return [
        (int(rng.integers(0, n_lines)), pool[int(rng.integers(0, len(pool)))])
        for _ in range(count)
    ]


def state_fingerprint(controller):
    """Every externally observable piece of controller state."""
    engine = controller.engine
    memory = engine.memory
    start_gap = engine.start_gap
    gaps = getattr(start_gap, "_gaps", None)
    forward = getattr(start_gap, "_forward", None)
    if forward is not None:  # WoLFRaM PAD backend
        gap_state = ("pad", tuple(forward), start_gap._partner,
                     start_gap.write_count, start_gap.swaps)
    elif gaps is not None:  # RegionStartGap
        gap_state = [(g.start, g.gap, g.write_count, g.gap_moves) for g in gaps]
    else:
        gap_state = (start_gap.start, start_gap.gap, start_gap.write_count,
                     start_gap.gap_moves)
    intra = engine.intra_wl
    remapper = engine.remapper
    return {
        "stored": memory.stored.copy(),
        "counts": memory.counts.copy(),
        "faulty": memory.faulty.copy(),
        "fault_counts": memory.fault_counts.copy(),
        "dead": engine.dead.copy(),
        "dead_count": engine.dead_count,
        "metadata": [
            (m.start_pointer, m.compressed, m.stored_size, m.encoding, m.sc)
            for m in engine.metadata
        ],
        "repairs": [dict(r) for r in engine.repairs],
        "death_fault_counts": dict(engine.death_fault_counts),
        # Scheduler telemetry describes *how* a stream was executed
        # (waves, barriers) and legitimately differs between a batched
        # run and its serial replay; everything else must be identical.
        "stats": {
            name: value
            for name, value in dataclasses.asdict(engine.stats).items()
            if name not in SCHEDULER_FIELDS
        },
        "start_gap": gap_state,
        "intra_wl": (
            None if intra is None
            else (tuple(intra._counters), tuple(intra._offsets), intra.rotations)
        ),
        "freep": (
            None if remapper is None
            else (tuple(remapper._free_spares),
                  tuple(sorted(remapper._remap.items())),
                  remapper.remaps_performed)
        ),
    }


def assert_same_state(got, want, label=""):
    for key in want:
        got_value, want_value = got[key], want[key]
        if isinstance(want_value, np.ndarray):
            assert np.array_equal(got_value, want_value), f"{label}: {key}"
        else:
            assert got_value == want_value, f"{label}: {key}"


@pytest.mark.parametrize("system", system_names())
def test_write_batch_matches_serial(system):
    """Every registered system, across batch sizes, under heavy wear."""
    config = get_system(system).config
    requests = make_requests(1500)
    serial = make_controller(config)
    serial_results = [serial.write(line, data) for line, data in requests]
    want = state_fingerprint(serial)
    assert serial.stats.deaths or serial.stats.total_flips  # stream did work

    for batch_size in (2, 7, 32):
        batched = make_controller(config)
        got_results = []
        for index in range(0, len(requests), batch_size):
            got_results.extend(
                batched.write_batch(requests[index:index + batch_size])
            )
        assert got_results == serial_results, f"{system} batch={batch_size}"
        assert_same_state(
            state_fingerprint(batched), want, f"{system} batch={batch_size}"
        )


def test_write_batch_exercises_hard_paths():
    """The equivalence stream must actually hit deaths/rescues/remaps."""
    config = get_system("comp_wf_freep").config
    controller = make_controller(config, endurance_mean=55.0)
    for index in range(0, 3000, 16):
        controller.write_batch(make_requests(3000)[index:index + 16])
    stats = controller.stats
    assert stats.deaths > 0
    assert stats.remaps > 0
    assert stats.lost_writes > 0


def test_write_batch_serializes_same_line_collisions():
    """Repeated writes to one logical line flush and stay serial-equal."""
    config = get_system("comp_wf").config
    requests = [(5, bytes([value]) * LINE) for value in range(40)]
    serial = make_controller(config)
    serial_results = [serial.write(line, data) for line, data in requests]
    batched = make_controller(config)
    assert batched.write_batch(requests) == serial_results
    assert_same_state(
        state_fingerprint(batched), state_fingerprint(serial), "collisions"
    )


def test_write_batch_validates_payload_size_up_front():
    controller = make_controller(get_system("comp").config)
    before = state_fingerprint(controller)
    with pytest.raises(ValueError, match="64 bytes"):
        controller.write_batch([(0, bytes(LINE)), (1, bytes(3))])
    # Up-front validation: no side effects from the valid prefix.
    assert_same_state(state_fingerprint(controller), before, "validation")


def test_step_batch_with_invariants_falls_back_to_serial():
    """Checkers assert per-write accounting, so batching must stage
    through the fully serial path -- and still match its results."""
    config = get_system("comp_wf").config
    checked = CompressedPCMController(
        config=config,
        n_lines=N_LINES,
        endurance_model=EnduranceModel(mean=70.0, cov=0.25),
        rng=np.random.default_rng(11),
        n_banks=4,
        invariants=default_invariants(),
    )
    plain = make_controller(config)
    requests = make_requests(300)
    got = []
    for index in range(0, len(requests), 8):
        got.extend(checked.write_batch(requests[index:index + 8]))
    want = [plain.write(line, data) for line, data in requests]
    assert got == want


# -- order-invariance property (the wave programming's foundation) --------


def _conflict_free_controller():
    """A controller whose next writes cannot move, rotate or evict mid-set.

    Order invariance only holds when no order-dependent shared machinery
    fires *inside* the set: a huge Start-Gap interval keeps every
    logical line on its row, a huge intra-WL counter limit keeps the
    rotation offsets fixed and a large content cache never evicts.
    """
    config = get_system("comp_wf").configured(
        start_gap_psi=1_000_000,
        intra_counter_limit=1_000_000,
        compression_cache_lines=4096,
    )
    return make_controller(config, endurance_mean=90.0)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_conflict_free_sets_are_order_and_partition_invariant(seed):
    """Any permutation/partition of distinct-line requests is equivalent.

    Warm the controller with a serial prefix, snapshot it, then apply
    one conflict-free request set (distinct logical lines, hence
    distinct physical rows) every way through ``write_batch``: one
    write at a time, as one batch, permuted, and split into uneven
    partitions.  The final bank state and ControllerStats (outside the
    scheduler's wave telemetry) must be byte-identical.
    """
    rng = np.random.default_rng(seed)
    base = _conflict_free_controller()
    for line, data in make_requests(400, seed=seed + 10):
        base.write(line, data)
    frozen = pickle.dumps(base)

    remap = base.pipeline.remap
    logicals = list(rng.choice(N_LINES, size=24, replace=False))
    physicals = {remap.map_logical(int(l)) for l in logicals}
    assert len(physicals) == len(logicals)  # genuinely conflict-free
    pool = make_requests(60, seed=seed + 20)
    requests = [(int(logical), pool[i][1]) for i, logical in enumerate(logicals)]
    gap_moves = base.engine.start_gap.gap_moves

    def apply(plan):
        controller = pickle.loads(frozen)
        for chunk in plan:
            controller.write_batch(chunk)
        # No Start-Gap move fired inside the set.
        assert controller.engine.start_gap.gap_moves == gap_moves
        return state_fingerprint(controller)

    want = apply([[request] for request in requests])  # serial order
    permuted = list(requests)
    rng.shuffle(permuted)
    plans = {
        "one-batch": [requests],
        "permuted-one-batch": [permuted],
        "pairs": [requests[i:i + 2] for i in range(0, len(requests), 2)],
        "uneven": [requests[:5], requests[5:6], requests[6:]],
        "permuted-uneven": [permuted[:7], permuted[7:]],
    }
    for label, plan in plans.items():
        assert_same_state(apply(plan), want, label)
