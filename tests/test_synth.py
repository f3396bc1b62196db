"""The synthetic generator: the word stream it draws through, its files and
its argument checks."""

import json
import math
import runpy
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from kgalign.cli import main
from kgalign.stream import Stream
from kgalign.synth import write_synthetic

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
FILES = ("triples1.tsv", "names1.tsv", "triples2.tsv", "names2.tsv", "gold.tsv",
         "vectors.vec")


def scalar_scan(rng, level, limit):
    """The loop ``Stream.scan`` replays: draw until one is below level."""
    for passed in range(limit):
        u = rng.random()
        if u < level:
            return passed, u
    return limit, None


# Bounds near 2**31 and 2**32 reject about half the 32-bit draws.
BOUNDS = st.one_of(st.integers(1, 30), st.integers(1, 2**32 - 1),
                   st.sampled_from([2**31 + 1, 3 * 2**30 + 1, 2**32 - 1]))
OPS = st.lists(st.one_of(
    st.just(("random",)),
    st.tuples(st.just("integers"), BOUNDS),
    st.tuples(st.just("scan"), st.floats(0, 1), st.integers(1, 30)),
), max_size=40)


class TestWordStream:
    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2**64 - 1), full=st.booleans(), ops=OPS,
           block=st.sampled_from([1, 2, 3, 7, 1 << 12]))
    def test_replays_interleaved_scalar_draws(self, seed, full, ops, block):
        scalar = np.random.default_rng(seed)
        replay = np.random.default_rng(seed)
        if full:  # one 32-bit draw leaves the other half of its word buffered
            scalar.integers(5)
            replay.integers(5)
        assert replay.bit_generator.state["has_uint32"] == full
        stream = Stream(replay, block)
        for op in ops:
            if op[0] == "random":
                assert stream.random() == scalar.random()
            elif op[0] == "integers":
                assert stream.integers(op[1]) == int(scalar.integers(op[1]))
            else:
                assert stream.scan(*op[1:]) == scalar_scan(scalar, *op[1:])
        # Blocks of more than one word leave words for close() to step back over.
        stream.close()
        assert replay.bit_generator.state == scalar.bit_generator.state
        np.testing.assert_array_equal(replay.integers(1000, size=3),
                                      scalar.integers(1000, size=3))

    def test_rejects_other_bit_generators(self):
        with pytest.raises(TypeError, match="PCG64"):
            Stream(np.random.Generator(np.random.MT19937(0)), 1)


def probability(special):
    return st.one_of(st.sampled_from(special), st.floats(0, 1))


class TestFiles:
    @settings(max_examples=120, deadline=None)
    @given(n=st.integers(4, 80), edge_prob=probability([0.0, 1.0]),
           name_noise=probability([0.0, 0.9]), edge_noise=probability([0.0, 0.9]),
           seed=st.integers(0, 2**32 - 1), vec_dim=st.integers(1, 24))
    def test_byte_equal_to_scalar_generator(self, n, edge_prob, name_noise,
                                            edge_noise, seed, vec_dim):
        args = (n, edge_prob, name_noise, seed, edge_noise, vec_dim)
        with tempfile.TemporaryDirectory() as tmp:
            got, want = Path(tmp) / "got", Path(tmp) / "want"
            write_synthetic(got, *args)
            reference.write_synthetic(want, *args)
            for name in FILES:
                assert (got / name).read_bytes() == (want / name).read_bytes(), name

    @pytest.mark.parametrize("workload", ["walkthrough-70", "rl-250"])
    def test_benchmark_pins(self, tmp_path, workload):
        # run_path compiles the benchmark's module without caching bytecode,
        # so nothing under perfbench/ is written.
        bench = runpy.run_path(str(PERFBENCH / "workloads.py"))
        pins = json.loads((PERFBENCH / "fingerprints.json").read_text())
        spec = bench["WORKLOADS"][workload]
        for seed in (0, 61):
            in_dir = tmp_path / str(seed)
            for k, task_seed in enumerate(bench["task_seeds"](seed, spec)):
                write_synthetic(bench["task_dir"](in_dir, k), rng_seed=task_seed,
                                **spec["input"], **bench["SYNTH_COMMON"])
            assert bench["fingerprint"](in_dir, spec) == pins[workload][str(seed)]


ARGS = dict(n=20, edge_prob=0.2, name_noise=0.1, rng_seed=0, edge_noise=0.1,
            vec_dim=8)


class TestArgumentChecks:
    @pytest.mark.parametrize("key,value,message", [
        ("vec_dim", 0, "vec_dim must be >= 1"),
        ("vec_dim", -1, "vec_dim must be >= 1"),
        ("edge_prob", -0.1, "edge_prob must be in [0, 1]"),
        ("edge_prob", math.nan, "edge_prob must be in [0, 1], got nan"),
        ("name_noise", "0.1", "name_noise must be a number, got '0.1'"),
        ("name_noise", 1.5, "name_noise must be in [0, 1]"),
        ("edge_noise", -1.0, "edge_noise must be in [0, 1]"),
        pytest.param("n", 3, "n must be >= 4, got 3", id="n-3-need n >= 4"),
        ("n", 20.0, "n must be an integer, got 20.0"),
        ("rng_seed", -1, "rng_seed must be >= 0, got -1"),
        # It used to write five of the six files, then fail.
        ("vec_dim", 8.0, "vec_dim must be an integer, got 8.0"),
    ])
    def test_rejected_before_writing(self, tmp_path, key, value, message):
        out = tmp_path / "data"
        with pytest.raises(ValueError) as err:
            write_synthetic(out, **{**ARGS, key: value})
        assert message in str(err.value)
        assert not out.exists()

    @pytest.mark.parametrize("flags,message", [
        (["--vec-dim", "0"], "vec_dim must be >= 1, got 0"),
        (["--edge-prob", "2"], "edge_prob must be in [0, 1], got 2.0"),
    ])
    def test_cli_reports_usage_error(self, tmp_path, capsys, flags, message):
        out = tmp_path / "data"
        with pytest.raises(SystemExit) as exit_info:
            main(["synth", "--out", str(out), "--n", "20", *flags])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: kgalign synth")
        assert f"kgalign synth: error: {message}" in err
        assert not out.exists()
