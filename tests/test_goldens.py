"""Committed behaviour fingerprints for every fuzzer x core x layout.

Each case runs a small fixed campaign and compares a sha256 digest of
its observable behaviour (coverage series, history, LFSR state, corpus,
per-module coverage counts and instruction totals) with the digest
committed in ``tests/data/goldens.json``.  The corpus is read from the
live seeds and blocks, not from a checkpoint, so a change of checkpoint
encoding leaves the digests alone.  A change to the execution,
generation or coverage paths must leave every digest unchanged.

The goldens are regenerated only on purpose, never from pytest::

    PYTHONPATH=src python tests/test_goldens.py --write

and every regeneration is recorded, with its reason, in CHANGES.md.
"""

import argparse
import hashlib
import json
import pathlib

import pytest

from repro.campaign.checkpoint import CampaignCheckpoint
from repro.campaign.session import CampaignSession
from repro.campaign.spec import CampaignSpec

GOLDENS_PATH = pathlib.Path(__file__).parent / "data" / "goldens.json"

FUZZERS = ("turbofuzz", "difuzzrtl", "cascade")
CORES = ("rocket", "cva6", "boom")
STYLES = ("optimized", "legacy")
ITERATIONS = 4
INSTRUCTIONS = 300
RESUME_AT = 2


def _spec(fuzzer, core, style):
    return (CampaignSpec()
            .with_fuzzer(fuzzer, instructions_per_iteration=INSTRUCTIONS)
            .with_core(core)
            .with_instrumentation(style=style))


def _blocks_fingerprint(blocks):
    return [[block.prime_name, block.cf_kind, block.target_block,
             block.generated,
             [[entry.word, entry.is_prime, entry.needs_target_patch,
               entry.patch_kind] for entry in block.entries]]
            for block in blocks]


def _corpus_fingerprint(fuzzer):
    """The corpus read field by field from the live objects, so the
    digest locks what is stored, not how checkpoints encode it."""
    corpus = getattr(fuzzer, "corpus", None)
    if corpus is None:  # Cascade keeps no corpus
        return None
    if isinstance(corpus, list):  # DifuzzRTL's FIFO of block lists
        return [_blocks_fingerprint(blocks) for blocks in corpus]
    return {
        "capacity": corpus.capacity,
        "policy": corpus.policy,
        "priority_prob": list(corpus.priority_prob),
        "evictions": corpus.evictions,
        "rejected": corpus.rejected,
        "seeds": [[seed.coverage_increment, seed.born_iteration, seed.origin,
                   seed.uses, _blocks_fingerprint(seed.blocks)]
                  for seed in corpus.seeds],
    }


def fingerprint(session):
    """A session's observable behaviour as plain JSON data."""
    fuzzer = session.fuzzer
    return {
        "coverage_series": session.coverage_series(),
        "history": session.history_dicts(),
        "lfsr": fuzzer.lfsr.state,
        "corpus": _corpus_fingerprint(fuzzer),
        "counts": session.coverage.counts_by_module(),
        "total_executed": session.total_executed,
        "total_generated": session.total_generated,
    }


def _digest(session):
    text = json.dumps(fingerprint(session), sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _run_straight(fuzzer, core, style):
    session = CampaignSession(_spec(fuzzer, core, style))
    session.run_iterations(ITERATIONS)
    return _digest(session)


def _run_resumed(fuzzer):
    first_leg = CampaignSession(_spec(fuzzer, "rocket", "optimized"))
    first_leg.run_iterations(RESUME_AT)
    checkpoint = CampaignCheckpoint.capture(first_leg)
    resumed = CampaignCheckpoint.from_json(checkpoint.to_json()).restore()
    resumed.run_iterations(ITERATIONS - RESUME_AT)
    return _digest(resumed)


def _cases():
    cases = {f"{fuzzer}/{core}/{style}": (_run_straight, (fuzzer, core, style))
             for fuzzer in FUZZERS for core in CORES for style in STYLES}
    cases.update({f"{fuzzer}/rocket/optimized/resume@{RESUME_AT}":
                  (_run_resumed, (fuzzer,)) for fuzzer in FUZZERS})
    return cases


CASES = _cases()


@pytest.fixture(scope="module")
def goldens():
    return json.loads(GOLDENS_PATH.read_text())


def test_goldens_cover_every_case(goldens):
    assert sorted(goldens["digests"]) == sorted(CASES)
    assert goldens["iterations"] == ITERATIONS
    assert goldens["instructions_per_iteration"] == INSTRUCTIONS


@pytest.mark.parametrize("case", sorted(CASES))
def test_behaviour_matches_golden(goldens, case):
    run, args = CASES[case]
    assert run(*args) == goldens["digests"][case]


def _write():
    data = {
        "iterations": ITERATIONS,
        "instructions_per_iteration": INSTRUCTIONS,
        "digests": {case: run(*args)
                    for case, (run, args) in sorted(CASES.items())},
    }
    GOLDENS_PATH.parent.mkdir(parents=True, exist_ok=True)
    GOLDENS_PATH.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(data['digests'])} digests to {GOLDENS_PATH}")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(
        description="Regenerate the committed behaviour goldens.")
    parser.add_argument("--write", action="store_true", required=True,
                        help="overwrite tests/data/goldens.json")
    parser.parse_args()
    _write()
