"""Checkpoint protocol + execution backends: bit-identical resume."""

import functools
import itertools
import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.campaign import (
    BACKENDS,
    CampaignCheckpoint,
    CampaignOrchestrator,
    CampaignSpec,
    CheckpointError,
    SerialBackend,
    SupervisedQueueBackend,
    build_session,
    campaign_report,
    checkpoint_session,
    coverage_at_time,
    register_backend,
    resolve_backend,
    resume_session,
)
from repro.coverage import CoverageMap, FeedbackWeights
from repro.fuzzer.blocks import (
    InstructionBlock,
    StimulusEntry,
    blocks_from_state,
    blocks_state,
)
from repro.fuzzer.corpus import Corpus, Seed
from repro.fuzzer.lfsr import Lfsr
from repro.harness.clock import VirtualClock
from tests.test_goldens import fingerprint

SMALL = {"instructions_per_iteration": 150}


def small_spec(**options):
    merged = dict(SMALL)
    merged.update(options)
    return CampaignSpec().with_fuzzer("turbofuzz", **merged)


def json_round_trip(value):
    return json.loads(json.dumps(value))


def corpus_fingerprint(session):
    """Full serialized corpus (``seed_id`` is deliberately not part of the
    state protocol — it is a process-global counter)."""
    return [seed.state_dict() for seed in session.fuzzer.corpus.seeds]


class TestComponentStateDicts:
    def test_lfsr_round_trip_continues_stream(self):
        source = Lfsr(0xFEED)
        for _ in range(10):
            source.next()
        clone = Lfsr(1)
        clone.load_state(json_round_trip(source.state_dict()))
        assert [clone.next() for _ in range(20)] == \
            [source.next() for _ in range(20)]

    def test_corpus_round_trip_preserves_schedule(self):
        lfsr = Lfsr(3)
        corpus = Corpus(capacity=4)
        for increment in (5, 2, 9, 1, 7):
            corpus.add(Seed([], coverage_increment=increment))
        restored = Corpus(capacity=1)
        restored.load_state(json_round_trip(corpus.state_dict()))
        assert restored.increments() == corpus.increments()
        assert restored.capacity == 4
        assert restored.best().coverage_increment == \
            corpus.best().coverage_increment
        # Selection draws must agree from identical LFSR states.
        twin = Lfsr(3)
        for _ in range(16):
            a = corpus.select(lfsr)
            b = restored.select(twin)
            assert a.coverage_increment == b.coverage_increment

    def test_coverage_map_round_trip(self):
        cmap = CoverageMap(1 << 10)
        cmap.observe_many([3, 7, 500])
        clone = CoverageMap(0)
        clone.load_state(json_round_trip(cmap.state_dict()))
        assert clone.snapshot() == cmap.snapshot()
        assert clone.instrumented_points == 1 << 10
        assert not clone.observe(7) and clone.observe(8)

    def test_weights_round_trip(self):
        weights = FeedbackWeights.attenuate_arithmetic()
        clone = FeedbackWeights({"X": 3})
        clone.load_state(json_round_trip(weights.state_dict()))
        assert clone.weighted("MulDiv", 8) == weights.weighted("MulDiv", 8)
        assert clone.shift_for("X") == 0

    def test_clock_round_trip_is_exact(self):
        clock = VirtualClock(100e6)
        clock.advance_cycles(12345)
        clock.advance_seconds(0.1)
        clone = VirtualClock(1.0)
        clone.load_state(json_round_trip(clock.state_dict()))
        assert clone.seconds == clock.seconds  # bit-exact, not approx
        assert clone.frequency_hz == 100e6

    @pytest.mark.parametrize("spec", (small_spec(),
                                      CampaignSpec(fuzzer="difuzzrtl")),
                             ids=("turbofuzz", "difuzzrtl"))
    def test_mid_iteration_checkpoint_rejected(self, spec):
        session = build_session(spec)
        session.fuzzer.generate_iteration()
        with pytest.raises(ValueError, match="mid-iteration"):
            session.state_dict()

    def test_protocol_less_fuzzer_gets_named_error(self):
        session = build_session(small_spec())

        class LegacyPluginFuzzer:
            def generate_iteration(self):
                raise NotImplementedError

            def feedback(self, iteration, increment):
                raise NotImplementedError

        session.fuzzer = LegacyPluginFuzzer()
        with pytest.raises(TypeError, match="checkpoint protocol"):
            session.state_dict()
        with pytest.raises(TypeError, match="checkpoint protocol"):
            session.load_state({"history": [], "total_executed": 0,
                                "total_generated": 0, "fuzzer": {}})


PATCH_KINDS = ("", "branch", "jal", "lui", "addi")
CF_KINDS = ("", "branch", "jal", "jalr")

entry_strategy = st.builds(
    StimulusEntry,
    word=st.integers(min_value=0, max_value=(1 << 32) - 1),
    is_prime=st.booleans(),
    needs_target_patch=st.booleans(),
    patch_kind=st.sampled_from(PATCH_KINDS),
)
block_strategy = st.builds(
    InstructionBlock,
    prime_name=st.sampled_from(("addi", "beq", "jal", "jalr", "lw", "amoadd.w")),
    entries=st.lists(entry_strategy, max_size=4),
    cf_kind=st.sampled_from(CF_KINDS),
    target_block=st.none() | st.integers(min_value=0, max_value=1 << 20),
    generated=st.booleans(),
)


def every_flag_blocks():
    """One block per cf_kind; together they hold every entry flag."""
    combos = itertools.product(PATCH_KINDS, (False, True), (False, True))
    entries = [StimulusEntry(word, is_prime, patch, kind)
               for word, (kind, is_prime, patch) in enumerate(combos)]
    return [InstructionBlock("jalr", entries[:7], "jalr", 3),
            InstructionBlock("beq", entries[7:14], "branch", None, False),
            InstructionBlock("addi", [], ""),
            InstructionBlock("jal", entries[14:], "jal", 0)]


def _drop_last(key):
    def mutate(state):
        state[key] = state[key][:-1]
    return mutate


def _set(key, value):
    def mutate(state):
        state[key] = value
    return mutate


class TestBlockColumns:
    def test_every_flag_and_cf_kind_round_trips(self):
        blocks = every_flag_blocks()
        state = json_round_trip(blocks_state(blocks))
        assert len(set(state["flags"])) == 20
        assert blocks_from_state(state) == blocks

    @given(blocks=st.lists(block_strategy, max_size=12))
    @settings(max_examples=200, deadline=None)
    def test_round_trip_property(self, blocks):
        assert blocks_from_state(json_round_trip(blocks_state(blocks))) == blocks

    @pytest.mark.parametrize("mutate", [
        _drop_last("prime_name"),
        _drop_last("cf_kind"),
        _drop_last("target_block"),
        _drop_last("generated"),
        _drop_last("sizes"),
        _drop_last("words"),
        _drop_last("flags"),
        _set("sizes", [7, 7, 1, 6]),
        _set("sizes", [-1, 15, 0, 6]),
        _set("flags", "?" * 20),
        _set("cf_kind", "rb.x"),
        _set("generated", "10yy"),
    ], ids=["prime_name", "cf_kind", "target_block", "generated", "sizes",
            "words", "flags", "size_sum", "negative_size", "flag_code",
            "cf_kind_code", "generated_code"])
    def test_malformed_columns_rejected(self, mutate):
        state = json_round_trip(blocks_state(every_flag_blocks()))
        mutate(state)
        with pytest.raises(ValueError):
            blocks_from_state(state)

    def test_corpus_costs_at_most_40_bytes_per_instruction(self):
        # Per-entry dicts cost 170 B per stored instruction; the columns
        # cost about 30 B.
        session = build_session(CampaignSpec().with_fuzzer(
            "turbofuzz", instructions_per_iteration=1000, seed=1))
        session.run_iterations(6)
        stored = sum(seed.size for seed in session.fuzzer.corpus.seeds)
        encoded = json.dumps(session.fuzzer.state_dict()["corpus"],
                             sort_keys=True)
        assert stored > 0
        assert len(encoded) <= 40 * stored


class TestSessionResume:
    @pytest.mark.parametrize("seed", (0xFEED, 0xBEEF, 7))
    def test_resume_equals_uninterrupted_turbofuzz(self, seed):
        spec = small_spec(seed=seed)
        full = build_session(spec)
        full.run_iterations(8)

        half = build_session(spec)
        half.run_iterations(4)
        checkpoint = CampaignCheckpoint.from_json(
            CampaignCheckpoint.capture(half).to_json())
        resumed = resume_session(checkpoint)
        resumed.run_iterations(4)

        assert resumed.coverage_series() == full.coverage_series()
        assert resumed.history_dicts() == full.history_dicts()
        assert campaign_report(resumed) == campaign_report(full)
        assert resumed.fuzzer.lfsr.state == full.fuzzer.lfsr.state
        assert corpus_fingerprint(resumed) == corpus_fingerprint(full)
        assert resumed.clock.seconds == full.clock.seconds

    @pytest.mark.parametrize("fuzzer", ("difuzzrtl", "cascade"))
    def test_resume_equals_uninterrupted_baselines(self, fuzzer):
        spec = CampaignSpec(fuzzer=fuzzer)
        full = build_session(spec)
        full.run_iterations(4)
        half = build_session(spec)
        half.run_iterations(2)
        resumed = resume_session(
            json_round_trip(CampaignCheckpoint.capture(half).to_dict()))
        resumed.run_iterations(2)
        assert resumed.coverage_series() == full.coverage_series()
        assert campaign_report(resumed) == campaign_report(full)

    def test_checkpoint_file_round_trip(self, tmp_path):
        session = build_session(small_spec(seed=11))
        session.run_iterations(3)
        path = tmp_path / "shard.json"
        checkpoint_session(session, path, label="solo")
        resumed = resume_session(path)
        assert resumed.spec == session.spec
        assert resumed.coverage_series() == session.coverage_series()

    def test_resume_preserves_triggered_bugs(self):
        spec = (small_spec(seed=5)
                .with_core("cva6", bugs=("C1",)))
        session = build_session(spec)
        session.run_iterations(1)
        session.core.hooks.triggered.add("C1")
        resumed = resume_session(
            json_round_trip(CampaignCheckpoint.capture(session).to_dict()))
        assert resumed.core.hooks.triggered == {"C1"}

    def test_newer_format_version_rejected(self):
        session = build_session(small_spec())
        data = CampaignCheckpoint.capture(session).to_dict()
        data["version"] = 999
        with pytest.raises(ValueError, match="newer"):
            CampaignCheckpoint.from_dict(data)

    def test_older_format_version_rejected(self):
        session = build_session(small_spec())
        data = CampaignCheckpoint.capture(session).to_dict()
        data["version"] = 1  # per-entry dict corpus, no longer read
        with pytest.raises(CheckpointError, match="v1 is older"):
            CampaignCheckpoint.from_dict(data)

    @pytest.mark.parametrize("key,value", [
        ("spec", {"bogus": 1}),
        ("spec", "x"),
        ("spec", 5),
        ("spec", []),
        ("spec", {"bugs": 5}),
        ("state", 7),
        ("state", []),
        ("meta", "x"),
    ])
    def test_malformed_spec_state_or_meta_rejected(self, key, value):
        # The supervisor counts only CheckpointError as a corrupt result;
        # anything else a worker's result raises would abort the run.
        data = CampaignCheckpoint.capture(build_session(small_spec())).to_dict()
        data[key] = value
        with pytest.raises(CheckpointError):
            CampaignCheckpoint.from_dict(data)

    def test_checkpoint_rejects_mismatched_design(self):
        rocket = build_session(small_spec(seed=1))
        rocket.run_iterations(1)
        state = rocket.state_dict()
        boom = build_session(small_spec(seed=1).with_core("boom"))
        with pytest.raises(ValueError, match="does not match this design"):
            boom.coverage.load_state(state["coverage"])


RESUME_ITERATIONS = 8


def resume_spec(fuzzer):
    return CampaignSpec().with_fuzzer(fuzzer, instructions_per_iteration=200)


@functools.lru_cache(maxsize=None)
def uninterrupted_fingerprint(fuzzer):
    session = build_session(resume_spec(fuzzer))
    session.run_iterations(RESUME_ITERATIONS)
    return json.dumps(fingerprint(session), sort_keys=True)


class TestResumeAtRandomCut:
    @pytest.mark.parametrize("fuzzer", ("turbofuzz", "difuzzrtl", "cascade"))
    @given(cut=st.integers(min_value=0, max_value=RESUME_ITERATIONS - 1))
    @settings(max_examples=6, deadline=None)
    def test_resume_at_any_iteration_equals_uninterrupted(self, fuzzer, cut):
        first_leg = build_session(resume_spec(fuzzer))
        first_leg.run_iterations(cut)
        wire = json_round_trip(CampaignCheckpoint.capture(first_leg).to_dict())
        resumed = resume_session(wire)
        resumed.run_iterations(RESUME_ITERATIONS - cut)
        assert (json.dumps(fingerprint(resumed), sort_keys=True)
                == uninterrupted_fingerprint(fuzzer))


class TestBackends:
    def grid(self, backend=None):
        return CampaignOrchestrator(
            [small_spec(seed=seed).named(f"s{seed}") for seed in (1, 2)],
            backend=backend,
        )

    def test_registry_resolution(self):
        assert isinstance(resolve_backend(None), SerialBackend)
        assert isinstance(resolve_backend("serial"), SerialBackend)
        assert isinstance(resolve_backend("supervised-queue"),
                          SupervisedQueueBackend)
        backend = SupervisedQueueBackend(workers=2)
        assert resolve_backend(backend) is backend
        with pytest.raises(ValueError, match="unknown execution backend"):
            resolve_backend("gpu")
        assert set(BACKENDS.names()) == {"serial", "supervised-queue"}

    def test_third_party_backend_plugs_in(self):
        calls = []

        @register_backend("probe")
        class ProbeBackend(SerialBackend):
            name = "probe"

            def run_iterations(self, orchestrator, count, batch=16):
                calls.append(count)
                super().run_iterations(orchestrator, count, batch=batch)

        try:
            grid = self.grid(backend="probe")
            grid.run_iterations(1)
            assert calls == [1]
            assert grid.report()["backend"] == "probe"
        finally:
            BACKENDS.unregister("probe")

    def test_supervised_matches_serial_run_iterations(self):
        serial = self.grid()
        serial.run_iterations(3)
        supervised = self.grid(backend=SupervisedQueueBackend(workers=2))
        supervised.run_iterations(3)
        assert supervised.coverage_series() == serial.coverage_series()
        assert supervised.shard_stats() == serial.shard_stats()
        assert (supervised.merged_coverage_series()
                == serial.merged_coverage_series())
        # Checkpoint *files* are deterministic too: freezing either grid
        # yields byte-identical JSON per shard.
        serial_wire = {label: cp.to_json()
                       for label, cp in serial.checkpoint().items()}
        supervised_wire = {label: cp.to_json()
                           for label, cp in supervised.checkpoint().items()}
        assert serial_wire == supervised_wire

    def test_supervised_matches_serial_virtual_time(self):
        serial = self.grid()
        serial.run_for_virtual_time(0.01, max_iterations=12, slices=3)
        supervised = self.grid(backend="supervised-queue")
        supervised.run_for_virtual_time(0.01, max_iterations=12, slices=3)
        assert supervised.coverage_series() == serial.coverage_series()
        assert supervised.shard_stats() == serial.shard_stats()

    def test_supervised_emits_orchestration_milestones(self):
        grid = self.grid(backend=SupervisedQueueBackend(workers=1))
        kinds = []
        grid.bus.on_milestone(lambda **kw: kinds.append(kw["kind"]))
        grid.run_for_virtual_time(0.005, max_iterations=4, slices=2)
        assert kinds.count("time_slice") == 2
        assert kinds.count("shard_done") == 2

    def test_per_call_backend_override(self):
        serial = self.grid()
        serial.run_iterations(2)
        grid = self.grid()  # default serial...
        grid.run_iterations(2, backend="supervised-queue")  # ...queue per call
        assert grid.coverage_series() == serial.coverage_series()


SLICE_CUT_BUDGET_S = 0.01
SLICE_CUT_ITERATIONS = 12


def slice_cut_specs():
    return [small_spec(seed=seed).named(f"s{seed}") for seed in (6, 7)]


@functools.lru_cache(maxsize=None)
def uninterrupted_slice_cut_grid():
    """A shard's result does not depend on where the slice frontiers
    fall, only on the final budget, so one serial run serves every cut."""
    serial = CampaignOrchestrator(slice_cut_specs())
    serial.run_for_virtual_time(SLICE_CUT_BUDGET_S,
                                max_iterations=SLICE_CUT_ITERATIONS)
    return serial.coverage_series(), serial.shard_stats()


class TestOrchestratorResume:
    def test_grid_resume_equals_uninterrupted(self):
        specs = [small_spec(seed=seed).named(f"s{seed}") for seed in (1, 2, 3)]
        full = CampaignOrchestrator(specs)
        full.run_iterations(6)

        half = CampaignOrchestrator(specs)
        half.run_iterations(3)
        wire = json_round_trip(
            {label: cp.to_dict() for label, cp in half.checkpoint().items()})
        resumed = CampaignOrchestrator.from_checkpoints(
            [CampaignCheckpoint.from_dict(cp) for cp in wire.values()])
        resumed.run_iterations(3)

        assert resumed.coverage_series() == full.coverage_series()
        assert resumed.shard_stats() == full.shard_stats()

    def test_grid_resume_on_supervised_backend(self):
        specs = [small_spec(seed=seed).named(f"s{seed}") for seed in (4, 5)]
        full = CampaignOrchestrator(specs)
        full.run_for_virtual_time(0.01, max_iterations=10, slices=2)

        half = CampaignOrchestrator(specs)
        half.run_for_virtual_time(0.005, max_iterations=10, slices=1)
        resumed = CampaignOrchestrator.from_checkpoints(
            half.checkpoint(), backend="supervised-queue")
        resumed.run_for_virtual_time(0.01, max_iterations=10, slices=1)

        assert resumed.coverage_series() == full.coverage_series()

    @given(cut=st.integers(min_value=2, max_value=6).flatmap(
        lambda slices: st.tuples(st.just(slices),
                                 st.integers(min_value=1,
                                             max_value=slices - 1))))
    @settings(max_examples=6, deadline=None)
    def test_resume_at_any_slice_on_supervised_backend(self, cut):
        slices, frontier = cut
        cut_s = SLICE_CUT_BUDGET_S * frontier / slices
        first_leg = CampaignOrchestrator(
            slice_cut_specs(), backend=SupervisedQueueBackend(workers=2))
        first_leg.run_for_virtual_time(
            cut_s, max_iterations=SLICE_CUT_ITERATIONS, slices=frontier)
        # The supervised sessions really stand at the cut when the call
        # returns (not at their start, which would resume trivially).
        serial_leg = CampaignOrchestrator(slice_cut_specs())
        serial_leg.run_for_virtual_time(
            cut_s, max_iterations=SLICE_CUT_ITERATIONS, slices=1)
        assert first_leg.shard_stats() == serial_leg.shard_stats()
        wire = json_round_trip(
            {label: cp.to_dict() for label, cp in first_leg.checkpoint().items()})
        resumed = CampaignOrchestrator.from_checkpoints(
            [CampaignCheckpoint.from_dict(cp) for cp in wire.values()],
            backend=SupervisedQueueBackend(workers=2))
        resumed.run_for_virtual_time(
            SLICE_CUT_BUDGET_S, max_iterations=SLICE_CUT_ITERATIONS,
            slices=slices - frontier)
        assert (resumed.coverage_series(), resumed.shard_stats()) \
            == uninterrupted_slice_cut_grid()


class TestCoverageAtBisect:
    def test_matches_linear_scan(self):
        series = [(0.5, 10), (1.0, 20), (1.0, 25), (2.5, 40)]

        def linear(seconds):
            best = 0
            for time_point, points in series:
                if time_point <= seconds:
                    best = points
            return best

        for seconds in (0.0, 0.5, 0.75, 1.0, 2.0, 2.5, 99.0):
            assert coverage_at_time(series, seconds) == linear(seconds)
        assert coverage_at_time([], 1.0) == 0

    def test_orchestrator_coverage_at_uses_series(self):
        grid = CampaignOrchestrator([small_spec(seed=9).named("only")])
        grid.run_iterations(3)
        series = grid["only"].coverage_series()
        last_time, last_points = series[-1]
        assert grid.coverage_at("only", last_time) == last_points
        assert grid.coverage_at("only", 0.0) == 0


class TestInstructionLibraryCheckpoint:
    """The library's VIO-style enable/disable toggles must travel with a
    checkpoint — the analyzer's checkpoint auditor motivated adding the
    library to every fuzzer's state_dict (before that, mid-campaign
    toggles silently reverted to constructor defaults on resume)."""

    def test_library_round_trip(self):
        from repro.fuzzer.instrlib import InstructionLibrary
        from repro.isa.instructions import Extension

        library = InstructionLibrary()
        library.disable(Extension.D)
        library.disable(Extension.F)
        restored = InstructionLibrary()
        restored.load_state(json_round_trip(library.state_dict()))
        assert restored.enabled_extensions == library.enabled_extensions
        assert [spec.name for spec in restored.active_specs] == \
            [spec.name for spec in library.active_specs]

    def test_resume_preserves_mid_campaign_toggle(self):
        from repro.isa.instructions import Extension

        spec = small_spec(seed=0xD15A)

        full = build_session(spec)
        full.run_iterations(3)
        full.fuzzer.library.disable(Extension.F)
        full.fuzzer.library.disable(Extension.D)
        full.run_iterations(5)

        half = build_session(spec)
        half.run_iterations(3)
        half.fuzzer.library.disable(Extension.F)
        half.fuzzer.library.disable(Extension.D)
        half.run_iterations(1)
        resumed = resume_session(CampaignCheckpoint.from_json(
            CampaignCheckpoint.capture(half).to_json()))
        assert resumed.fuzzer.library.enabled_extensions == \
            half.fuzzer.library.enabled_extensions
        resumed.run_iterations(4)

        assert resumed.coverage_series() == full.coverage_series()
        assert resumed.history_dicts() == full.history_dicts()
        assert resumed.fuzzer.lfsr.state == full.fuzzer.lfsr.state

    @pytest.mark.parametrize("fuzzer", ("difuzzrtl", "cascade"))
    def test_baseline_fuzzers_carry_library(self, fuzzer):
        from repro.isa.instructions import Extension

        spec = CampaignSpec(fuzzer=fuzzer)
        half = build_session(spec)
        half.run_iterations(2)
        half.fuzzer.library.disable(Extension.M)
        resumed = resume_session(
            json_round_trip(CampaignCheckpoint.capture(half).to_dict()))
        assert resumed.fuzzer.library.enabled_extensions == \
            half.fuzzer.library.enabled_extensions

    @pytest.mark.parametrize("fuzzer", ("turbofuzz", "difuzzrtl", "cascade"))
    def test_checkpoint_without_library_key_is_rejected(self, fuzzer):
        # Format v2 always writes the library; a payload missing it must
        # not resume silently with the default extension toggles.
        session = build_session(CampaignSpec(fuzzer=fuzzer))
        session.run_iterations(1)
        payload = json_round_trip(CampaignCheckpoint.capture(session).to_dict())
        del payload["state"]["fuzzer"]["library"]
        with pytest.raises(KeyError, match="library"):
            resume_session(payload)
