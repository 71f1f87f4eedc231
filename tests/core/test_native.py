"""Tests for the native C gather tier (repro.core.native).

The contract under test: ``float_table_native`` is **byte-identical** to
``float_table``: same gather, same scale multiplies, same subnormal
flush / inf overflow / signed-zero handling, same sequential
accumulation order, for every thread count and across ``fork``.  Plus
the build and degradation satellites: the library is built once per
cache directory (also under concurrent cold starts), a damaged cached
build is rebuilt, a warm start spawns no child process, and without a
compiler (or with ``REPRO_DISABLE_NATIVE=1``) the kernel delegates to
``float_table`` and the introspection surfaces say why.

Direct calls of the C entry point are skipped where the native tier is
inactive (a box with no ``cc``); every kernel-level parity test still
runs there and checks the delegation path.
"""

import contextlib
import json
import os
import select
import signal
import subprocess
import sys
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import FLA, PC2_TR, PC3, PC3_TR, all_configs
from repro.core.kernels import (
    FloatTableKernel,
    NativeGatherKernel,
    exact_tier_name,
    get_kernel,
    kernel_names,
    kernel_tiers,
    row_block_budget,
    set_row_budget,
    value_table,
)
from repro.core.native import (
    build,
    gather,
    gather_gemm,
    native_active,
    native_disabled,
    native_status,
    native_threads,
)
from repro.formats.floatfmt import BFLOAT16, FLOAT8_E4M3, FLOAT16
from repro.formats.packed import pack

_NATIVE = get_kernel("float_table_native")
_TABLE = get_kernel("float_table")
_SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "..", "src"))

needs_native = pytest.mark.skipif(
    not native_active(), reason="native C tier inactive (no compiler or disabled)"
)


def _extreme_operands(rng, shape, fmt=BFLOAT16, zero_frac=0.1):
    """Finite operands spanning ``fmt``'s whole normal exponent range.

    Products of two such operands land below ``2^emin`` (flush) and at or
    above ``2^(emax+1)`` (overflow), so both range masks are exercised.
    """
    emin = 1 - fmt.bias
    emax = fmt.max_exponent - fmt.bias
    exponents = rng.integers(emin, emax + 1, shape).astype(np.float64)
    values = (rng.uniform(1.0, 1.9, shape) * 2.0**exponents).astype(np.float32)
    values[rng.random(shape) < 0.5] *= -1
    values[rng.random(shape) < zero_frac] = 0.0
    values[rng.random(shape) < zero_frac] = -0.0
    return values


def _bits(x):
    return np.asarray(x).view(np.uint32)


@contextlib.contextmanager
def _threads(count):
    """Make every ``gather_gemm`` call inside run on ``count`` threads."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gather, "PARALLEL_MIN_MACS", 0)
        mp.setattr(gather, "native_threads", lambda: count)
        yield


def _gemm_at(args, count):
    with _threads(count):
        return gather_gemm(*args)


def _assert_native_matches(a, b, fmt, config, k_chunk, threads=(1, 3)):
    pa, pb = pack(a, fmt), pack(b, fmt)
    want = _TABLE.run(pa, pb, config, k_chunk)
    got = _NATIVE.run(pa, pb, config, k_chunk)
    np.testing.assert_array_equal(_bits(got), _bits(want))
    # Call the C entry point directly too, bypassing the kernel's
    # dispatch, at fixed thread counts, whenever the shape runs natively.
    args = _NATIVE._call_args(pa, pb, config, k_chunk)
    if args is not None and native_active():
        for count in threads:
            np.testing.assert_array_equal(_bits(_gemm_at(args, count)), _bits(want))
    return args


class TestRegistration:
    def test_registered_and_bit_exact(self):
        assert "float_table_native" in kernel_names()
        assert _NATIVE.bit_exact
        assert isinstance(_NATIVE, NativeGatherKernel)

    def test_supports_matches_float_table(self):
        for fmt in (BFLOAT16, FLOAT16, FLOAT8_E4M3):
            assert _NATIVE.supports(fmt, PC3_TR) == _TABLE.supports(fmt, PC3_TR)


class TestByteParity:
    @pytest.mark.parametrize("config", all_configs(), ids=lambda c: c.name)
    def test_all_configs_byte_identical(self, config):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((23, 37)).astype(np.float32)
        b = rng.standard_normal((37, 11)).astype(np.float32)
        _assert_native_matches(a, b, BFLOAT16, config, k_chunk=7)

    @pytest.mark.parametrize("config", [None, PC3_TR], ids=["exact", "PC3_tr"])
    def test_exact_products_and_full_k(self, config):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((9, 16)).astype(np.float32)
        b = rng.standard_normal((16, 5)).astype(np.float32)
        _assert_native_matches(a, b, BFLOAT16, config, k_chunk=16)

    @pytest.mark.parametrize(
        "shape,k_chunk",
        [
            ((5, 9, 3), 4),  # ragged tail chunk
            ((8, 17, 2), 5),  # narrow n: the C dot form
            ((8, 17, 1), 17),  # single output column: must delegate
            ((96, 17, 9), 17),  # several C row blocks
            ((640, 13, 5), 13),  # float_table takes its transposed path
        ],
    )
    def test_shape_and_chunk_boundaries(self, shape, k_chunk):
        m, k, n = shape
        rng = np.random.default_rng(m * k * n)
        a = rng.standard_normal((m, k)).astype(np.float32)
        b = rng.standard_normal((k, n)).astype(np.float32)
        _assert_native_matches(a, b, BFLOAT16, PC3_TR, k_chunk)

    @pytest.mark.parametrize(
        "shape,k_chunk",
        [
            ((640, 40, 1), 7),  # depthwise-like, float_table transposed
            ((300, 50, 3), 6),  # transposed, n below the C wide form
            ((40, 50, 2), 6),  # standard orientation, n below the C wide form
            ((33, 50, 9), 6),  # wide form, ragged C row block
        ],
    )
    def test_chunked_sums_every_c_loop_form(self, shape, k_chunk):
        # Enough outputs and chunks that any change to where a partial
        # starts or joins the output flips some float32 rounding.
        m, k, n = shape
        rng = np.random.default_rng(k * n)
        a = (rng.standard_normal((m, k)) * 2.0 ** rng.integers(-8, 9, (m, k))).astype(
            np.float32
        )
        b = rng.standard_normal((k, n)).astype(np.float32)
        assert _assert_native_matches(a, b, BFLOAT16, PC3_TR, k_chunk) is not None

    @pytest.mark.parametrize("fmt", [FLOAT16, FLOAT8_E4M3], ids=lambda f: f.name)
    def test_narrow_formats(self, fmt):
        # float16/float8 exercise the non-f32-exact branch and the case
        # where the flush mask applies even on the f32-exact branch.
        rng = np.random.default_rng(11)
        a = rng.standard_normal((13, 19)).astype(np.float32)
        b = rng.standard_normal((19, 7)).astype(np.float32)
        _assert_native_matches(a, b, fmt, PC3, k_chunk=6)

    @pytest.mark.parametrize("config", [FLA, PC2_TR], ids=lambda c: c.name)
    def test_extreme_operands_specials(self, config):
        # Full exponent range: subnormal flush, inf overflow, signed
        # zeros, and inf + -inf accumulation NaNs must all match bits.
        rng = np.random.default_rng(13)
        a = _extreme_operands(rng, (17, 23))
        b = _extreme_operands(rng, (23, 9))
        with np.errstate(all="ignore"):
            _assert_native_matches(a, b, BFLOAT16, config, k_chunk=8)

    @settings(max_examples=25, deadline=None)
    @given(
        m=st.integers(1, 24),
        k=st.integers(1, 32),
        n=st.integers(1, 12),
        k_chunk=st.integers(1, 32),
        config_i=st.integers(0, len(all_configs()) - 1),
        seed=st.integers(0, 2**16),
    )
    def test_hypothesis_byte_parity(self, m, k, n, k_chunk, config_i, seed):
        config = all_configs()[config_i]
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((m, k)).astype(np.float32)
        b = rng.standard_normal((k, n)).astype(np.float32)
        _assert_native_matches(a, b, BFLOAT16, config, min(k_chunk, k))

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**16), k_chunk=st.integers(1, 16))
    def test_hypothesis_both_orientations(self, seed, k_chunk):
        # Tall-skinny (float_table's transposed fast path) and wide-n
        # orientations of the same operand pool.
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((48, 16)).astype(np.float32)
        b = rng.standard_normal((16, 3)).astype(np.float32)
        _assert_native_matches(a, b, BFLOAT16, PC3_TR, k_chunk)
        _assert_native_matches(
            np.ascontiguousarray(b.T), np.ascontiguousarray(a.T), BFLOAT16,
            PC3_TR, k_chunk,
        )

    @settings(max_examples=40, deadline=None)
    @given(
        config_i=st.integers(0, len(all_configs()) - 1),
        fmt_i=st.integers(0, 2),
        tall=st.booleans(),
        extreme=st.booleans(),
        k=st.integers(1, 40),
        chunk_offset=st.integers(-1, 1),
        n=st.integers(1, 9),
        seed=st.integers(0, 2**16),
    )
    def test_hypothesis_table1_configs_formats(
        self, config_i, fmt_i, tall, extreme, k, chunk_offset, n, seed
    ):
        # The five Table I configs x bfloat16/float16/float8, both
        # float_table orientations, chunk sizes straddling a K boundary,
        # and operands from the flush/overflow regime.
        config = all_configs()[config_i]
        fmt = (BFLOAT16, FLOAT16, FLOAT8_E4M3)[fmt_i]
        rng = np.random.default_rng(seed)
        m = FloatTableKernel.TRANSPOSE_ASPECT * n + int(rng.integers(0, 9)) if tall else 7
        k_chunk = max(1, (k + 1) // 2 + chunk_offset)
        if extreme:
            # Extreme x normal keeps most sums finite; both masks still fire.
            a = _extreme_operands(rng, (m, k), fmt)
            b = rng.standard_normal((k, n)).astype(np.float32)
            if seed % 2:
                a, b = _extreme_operands(rng, (m, k), fmt), _extreme_operands(rng, (k, n), fmt)
        else:
            a = rng.standard_normal((m, k)).astype(np.float32)
            b = rng.standard_normal((k, n)).astype(np.float32)
        with np.errstate(all="ignore"):
            _assert_native_matches(a, b, fmt, config, k_chunk)

    @pytest.mark.parametrize("extreme", [False, True], ids=["normal", "extreme"])
    @pytest.mark.parametrize("config", all_configs(), ids=lambda c: c.name)
    def test_float16_table1_configs(self, config, extreme):
        # float16's exponent range is narrower than float32's, so both
        # range masks are live; extreme operands hit them on every row.
        rng = np.random.default_rng(17)
        b = rng.standard_normal((33, 6)).astype(np.float32)
        if extreme:
            a = _extreme_operands(rng, (21, 33), FLOAT16)
        else:
            a = rng.standard_normal((21, 33)).astype(np.float32)
        with np.errstate(all="ignore"):
            _assert_native_matches(a, b, FLOAT16, config, k_chunk=10)


class TestDelegation:
    """``_call_args`` hands back exactly the shapes where NumPy regroups."""

    def test_standard_orientation_single_column_delegates(self):
        rng = np.random.default_rng(0)
        pa = pack(rng.standard_normal((4, 64)).astype(np.float32), BFLOAT16)
        pb = pack(rng.standard_normal((64, 1)).astype(np.float32), BFLOAT16)
        assert _NATIVE._call_args(pa, pb, PC3_TR, 64) is None

    def test_transposed_single_column_runs_natively(self):
        # Depthwise convolutions: tall m, n == 1, float_table transposed.
        rng = np.random.default_rng(1)
        a = rng.standard_normal((16 * 36, 9)).astype(np.float32)
        b = rng.standard_normal((9, 1)).astype(np.float32)
        args = _assert_native_matches(a, b, BFLOAT16, PC3_TR, 9)
        assert args is not None

    def test_one_row_column_blocks_delegate(self):
        rng = np.random.default_rng(2)
        k, n = 8, 2
        previous = row_block_budget("float_table")
        try:
            # Column budget of one row: every transposed tile is one wide.
            set_row_budget("float_table", k * n)
            pa = pack(rng.standard_normal((64, k)).astype(np.float32), BFLOAT16)
            pb = pack(rng.standard_normal((k, n)).astype(np.float32), BFLOAT16)
            assert _NATIVE._call_args(pa, pb, PC3_TR, k) is None
            # Column blocks of 4 rows over m = 4q + 1: a one-row remainder.
            set_row_budget("float_table", 4 * k * n)
            pa = pack(rng.standard_normal((65, k)).astype(np.float32), BFLOAT16)
            assert _NATIVE._call_args(pa, pb, PC3_TR, k) is None
            pa = pack(rng.standard_normal((66, k)).astype(np.float32), BFLOAT16)
            assert _NATIVE._call_args(pa, pb, PC3_TR, k) is not None
        finally:
            set_row_budget("float_table", previous)

    @needs_native
    def test_reference_regroups_where_delegated(self):
        # Why the rule exists: on the delegated shape float_table's sum is
        # pairwise, so a sequential sum (the C loop) differs on some inputs.
        differ = 0
        for seed in range(50):
            rng = np.random.default_rng(seed)
            pa = pack(rng.standard_normal((4, 64)).astype(np.float32), BFLOAT16)
            pb = pack(rng.standard_normal((64, 1)).astype(np.float32), BFLOAT16)
            want = _TABLE.run(pa, pb, PC3_TR, 64)
            masks = FloatTableKernel._range_masks(pa, pb)
            sequential = gather_gemm(
                value_table(BFLOAT16.significand_bits, PC3_TR),
                pa.significand, pa.scale(), pb.significand, pb.scale(), 64, *masks,
            )
            differ += _bits(sequential).tobytes() != _bits(want).tobytes()
            # Delegation keeps the kernel byte-identical regardless.
            got = _NATIVE.run(pa, pb, PC3_TR, 64)
            np.testing.assert_array_equal(_bits(got), _bits(want))
        assert differ >= 1


@needs_native
class TestThreads:
    @pytest.mark.parametrize("shape", [(37, 29, 13), (101, 16, 2), (50, 9, 1)])
    def test_thread_count_invariance(self, shape):
        # m is not a multiple of any tested count; n=2/1 take the C dot form.
        m, k, n = shape
        rng = np.random.default_rng(m)
        pa = pack(rng.standard_normal((m, k)).astype(np.float32), BFLOAT16)
        pb = pack(rng.standard_normal((k, n)).astype(np.float32), BFLOAT16)
        masks = FloatTableKernel._range_masks(pa, pb)
        table = value_table(BFLOAT16.significand_bits, PC3_TR)
        args = (table, pa.significand, pa.scale(), pb.significand, pb.scale(), 5, *masks)
        one = _gemm_at(args, 1)
        for count in (2, 3, 7, native_threads(), m + 5):
            np.testing.assert_array_equal(_bits(_gemm_at(args, count)), _bits(one))

    def test_fork_after_parallel_call(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((300, 64)).astype(np.float32)
        b = rng.standard_normal((64, 48)).astype(np.float32)
        pa, pb = pack(a, BFLOAT16), pack(b, BFLOAT16)
        args = _NATIVE._call_args(pa, pb, PC3_TR, 64)
        want = _gemm_at(args, 4)  # parent runs a parallel call first
        read_fd, write_fd = os.pipe()
        pid = os.fork()
        if pid == 0:  # child: a parallel call must complete, not hang
            try:
                os.close(read_fd)
                got = _gemm_at(args, 4)
                os.write(write_fd, got.tobytes())
            finally:
                os._exit(0)
        os.close(write_fd)
        data = b""
        deadline = time.monotonic() + 30
        try:
            while time.monotonic() < deadline:
                ready, _, _ = select.select([read_fd], [], [], 0.5)
                if ready:
                    chunk = os.read(read_fd, 1 << 16)
                    if not chunk:
                        break
                    data += chunk
            else:
                pytest.fail("forked child's parallel gather did not finish in 30 s")
        finally:
            os.close(read_fd)
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            os.waitpid(pid, 0)
        assert data == want.tobytes()


@needs_native
class TestValidation:
    def _planes(self, m=4, k=3, n=2):
        rng = np.random.default_rng(0)
        pa = pack(rng.standard_normal((m, k)).astype(np.float32), BFLOAT16)
        pb = pack(rng.standard_normal((k, n)).astype(np.float32), BFLOAT16)
        table = value_table(BFLOAT16.significand_bits, PC3_TR)
        return table, pa, pb

    def test_out_of_range_significand_raises(self):
        table, pa, pb = self._planes()
        ma = pa.significand.copy()
        ma[1, 2] = table.shape[0]  # one past the table edge
        with pytest.raises(IndexError):
            gather_gemm(table, ma, pa.scale(), pb.significand, pb.scale(), 3,
                        True, False, False, 0, 0)

    def test_mismatched_planes_raise(self):
        table, pa, pb = self._planes()
        with pytest.raises(ValueError):
            gather_gemm(table, pa.significand, pa.scale(), pb.significand[:2],
                        pb.scale()[:2], 3, True, False, False, 0, 0)
        with pytest.raises(ValueError):
            gather_gemm(table[:, :128], pa.significand, pa.scale(), pb.significand,
                        pb.scale(), 3, True, False, False, 0, 0)


class TestEngineParity:
    @pytest.mark.parametrize("shards", [1, 2, 8])
    def test_batch_engine_sharded_byte_parity(self, shards):
        from repro.nn.backend import daism_backend
        from repro.nn.models import model_zoo
        from repro.runtime import BatchEngine, compile_plan, plan_tiers

        module = model_zoo()["lenet"]
        module.eval()
        x = np.random.default_rng(5).standard_normal((16, 1, 16, 16)).astype(
            np.float32
        )
        plan_native = compile_plan(
            module, daism_backend(PC3_TR, BFLOAT16, kernel="float_table_native")
        )
        plan_table = compile_plan(
            module, daism_backend(PC3_TR, BFLOAT16, kernel="float_table")
        )
        assert plan_tiers(plan_native) == ["float_table_native"]
        got = BatchEngine(plan_native, shards=shards).run(x)
        want = BatchEngine(plan_table, shards=1).run(x)
        np.testing.assert_array_equal(got.view(np.uint32), want.view(np.uint32))


def _run_python(code, cache_dir=None, **env_overrides):
    env = {**os.environ, "PYTHONPATH": _SRC}
    if cache_dir is not None:
        env["REPRO_CACHE_DIR"] = str(cache_dir)
    env.update(env_overrides)
    return subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env,
        check=True, timeout=300,
    )


_STATUS_CODE = (
    "import json, resource;"
    "from repro.core.native import native_status;"
    "from repro.core.kernels import exact_tier_name;"
    "from repro.formats.floatfmt import BFLOAT16;"
    "s = native_status();"
    "s['tier'] = exact_tier_name(BFLOAT16);"
    "s['child_rss_kb'] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss;"
    "print(json.dumps(s))"
)


@needs_native
class TestBuildCache:
    def test_concurrent_cold_builds(self, tmp_path):
        env = {**os.environ, "PYTHONPATH": _SRC, "REPRO_CACHE_DIR": str(tmp_path)}
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", _STATUS_CODE], stdout=subprocess.PIPE,
                stderr=subprocess.PIPE, text=True, env=env,
            )
            for _ in range(2)
        ]
        results = []
        for proc in procs:
            out, err = proc.communicate(timeout=300)
            assert proc.returncode == 0, err
            results.append(json.loads(out))
        assert all(r["active"] and r["tier"] == "float_table_native" for r in results)
        assert results[0]["library"] == results[1]["library"]
        names = sorted(os.listdir(tmp_path / "native"))
        assert [n for n in names if n.endswith(".so")] == [
            os.path.basename(results[0]["library"])
        ]
        assert not [n for n in names if n.startswith(".")]  # no temp files left

    def test_truncated_library_is_rebuilt(self, tmp_path):
        first = json.loads(_run_python(_STATUS_CODE, tmp_path).stdout)
        path = first["library"]
        size = os.path.getsize(path)
        with open(path, "r+b") as fh:
            fh.truncate(64)
        again = json.loads(_run_python(_STATUS_CODE, tmp_path).stdout)
        assert again["active"] and again["library"] == path
        assert again["build_error"] is None
        assert os.path.getsize(path) == size

    def test_warm_start_spawns_no_child(self, tmp_path):
        _run_python(_STATUS_CODE, tmp_path)  # cold: compiles
        warm = json.loads(_run_python(_STATUS_CODE, tmp_path).stdout)
        assert warm["active"]
        assert warm["child_rss_kb"] == 0


class TestGracefulDegradation:
    def test_status_shape(self):
        status = native_status()
        assert set(status) == {
            "disabled",
            "active",
            "backend",
            "compiler",
            "library",
            "threads",
            "build_error",
        }
        assert status["backend"] in ("c", "numpy-fallback")
        assert native_active() == status["active"]
        if status["active"]:
            assert status["backend"] == "c"
            assert status["build_error"] is None
            assert os.path.isfile(status["library"])
            assert status["compiler"]
            assert status["threads"] == len(os.sched_getaffinity(0))
        else:
            assert set(status["build_error"]) == {"reason", "detail"}

    def test_kernel_tiers_reports_native(self):
        tiers = kernel_tiers()
        assert "float_table_native" in tiers["kernels"]
        assert tiers["exact_tier"] == exact_tier_name(BFLOAT16)
        assert tiers["native"]["backend"] in ("c", "numpy-fallback")

    def test_active_backend_property(self):
        expected = "c" if native_active() else "numpy-fallback"
        assert _NATIVE.active_backend == expected

    def test_disable_env_kills_native(self, tmp_path):
        got = json.loads(
            _run_python(_STATUS_CODE, tmp_path, REPRO_DISABLE_NATIVE="1").stdout
        )
        assert got["disabled"] is True
        assert got["active"] is False
        assert got["backend"] == "numpy-fallback"
        assert got["tier"] == "float_table"
        assert got["build_error"]["reason"] == "disabled"
        assert not (tmp_path / "native").exists()  # nothing compiled

    def test_no_compiler_on_path_falls_back(self, tmp_path):
        empty = tmp_path / "bin"
        empty.mkdir()
        got = json.loads(
            _run_python(_STATUS_CODE, tmp_path, PATH=str(empty), REPRO_DISABLE_NATIVE="").stdout
        )
        assert got["active"] is False
        assert got["backend"] == "numpy-fallback"
        assert got["tier"] == "float_table"
        assert got["build_error"]["reason"] == "no-compiler"

    def test_no_sched_getaffinity_uses_cpu_count(self, monkeypatch):
        # macOS has no os.sched_getaffinity: the thread count falls back to
        # os.cpu_count() and a GEMM large enough to thread still runs.
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        assert native_threads() == (os.cpu_count() or 1)
        status = native_status()
        if status["active"]:
            assert status["threads"] == native_threads()
        rng = np.random.default_rng(8)
        pa = pack(rng.standard_normal((128, 64)).astype(np.float32), BFLOAT16)
        pb = pack(rng.standard_normal((64, 24)).astype(np.float32), BFLOAT16)
        assert 128 * 64 * 24 >= gather.PARALLEL_MIN_MACS
        np.testing.assert_array_equal(
            _bits(_NATIVE.run(pa, pb, PC3_TR, 64)), _bits(_TABLE.run(pa, pb, PC3_TR, 64))
        )

    def test_no_fcntl_module_falls_back(self, tmp_path):
        # A platform without fcntl or sched_getaffinity (Windows): the
        # package still imports, the tier reports why it is inactive, and
        # the kernel delegates to float_table.
        code = (
            "import os, sys;"
            "sys.modules['fcntl'] = None;"
            "del os.sched_getaffinity;"
            "import numpy as np;"
            "from repro.core.config import PC3_TR;"
            "from repro.core.kernels import get_kernel;"
            "from repro.formats.floatfmt import BFLOAT16;"
            "from repro.formats.packed import pack;"
            "rng = np.random.default_rng(0);"
            "pa = pack(rng.standard_normal((6, 8)).astype(np.float32), BFLOAT16);"
            "pb = pack(rng.standard_normal((8, 4)).astype(np.float32), BFLOAT16);"
            "got = get_kernel('float_table_native').run(pa, pb, PC3_TR, 8);"
            "want = get_kernel('float_table').run(pa, pb, PC3_TR, 8);"
            "assert got.tobytes() == want.tobytes();"
            + _STATUS_CODE
        )
        got = json.loads(_run_python(code, tmp_path, REPRO_DISABLE_NATIVE="").stdout)
        assert got["active"] is False
        assert got["tier"] == "float_table"
        assert got["threads"] is None
        expected = "unsupported-platform" if build.shutil.which(build.COMPILER) else "no-compiler"
        assert got["build_error"]["reason"] == expected
        assert not (tmp_path / "native").exists()  # nothing compiled

    def test_disabled_kernel_still_byte_exact(self, monkeypatch):
        # With native disabled the kernel must silently delegate — same
        # bits, no error.
        monkeypatch.setenv("REPRO_DISABLE_NATIVE", "1")
        assert native_disabled()
        assert not native_active()
        rng = np.random.default_rng(2)
        a = rng.standard_normal((6, 8)).astype(np.float32)
        b = rng.standard_normal((8, 4)).astype(np.float32)
        pa, pb = pack(a, BFLOAT16), pack(b, BFLOAT16)
        got = _NATIVE.run(pa, pb, PC3_TR, 8)
        want = _TABLE.run(pa, pb, PC3_TR, 8)
        np.testing.assert_array_equal(got.view(np.uint32), want.view(np.uint32))

    @needs_native
    def test_tune_cache_fingerprint_separates_native(self, monkeypatch):
        from repro.core.tune_cache import machine_fingerprint

        native = machine_fingerprint()
        monkeypatch.setenv("REPRO_DISABLE_NATIVE", "1")
        assert machine_fingerprint() != native


@needs_native
class TestNoLazyTable:
    def test_first_mobilenet_execute_after_compile_builds_no_table(self, tmp_path):
        # The C tier indexes V0 in both orientations, so the transposed
        # value table float_table builds lazily is never needed.
        code = (
            "import numpy as np;"
            "from repro.core.kernels import reset_table_cache_counters, table_cache_counters;"
            "from repro.nn.models import model_input_shape, model_zoo;"
            "from repro.runtime import compile_plan, plan_tiers, resolve_backend;"
            "m = model_zoo()['mobilenet_edge']; m.eval();"
            "plan = compile_plan(m, resolve_backend('daism'));"
            "assert plan_tiers(plan) == ['float_table_native'], plan_tiers(plan);"
            "reset_table_cache_counters();"
            "x = np.random.default_rng(0).standard_normal("
            "(2, *model_input_shape('mobilenet_edge'))).astype(np.float32);"
            "plan.execute(x);"
            "print(table_cache_counters()['misses'])"
        )
        assert _run_python(code, tmp_path).stdout.strip() == "0"


class TestCrossProcessDigest:
    def test_plan_digest_parity_with_native_tier(self):
        # Two fresh processes compiling the same snapshot with the native
        # tier must agree on the digest — the tier choice is part of it.
        code = (
            "from repro.nn.models import model_zoo;"
            "from repro.runtime import compile_plan, plan_digest, resolve_backend;"
            "m = model_zoo()['lenet']; m.eval();"
            "plan = compile_plan(m, resolve_backend('daism', 'float_table_native'));"
            "print(plan_digest(plan))"
        )
        digests = [_run_python(code).stdout.strip() for _ in range(2)]
        assert digests[0] == digests[1]
        # And the tier is visibly different from the plain table tier.
        code_table = code.replace("'float_table_native'", "'float_table'")
        assert _run_python(code_table).stdout.strip() != digests[0]


class TestCliKernelFlag:
    def test_unknown_kernel_structured_error(self):
        env = {**os.environ, "PYTHONPATH": _SRC}
        out = subprocess.run(
            [sys.executable, "-m", "repro", "serve-bench", "--kernel", "bogus",
             "--json"],
            capture_output=True, text=True, env=env,
        )
        assert out.returncode == 2
        err = json.loads(out.stderr)
        assert err["kernel"] == "bogus"
        assert "float_table_native" in err["registered_kernels"]
        assert "unknown GEMM kernel" in err["error"]

    def test_unknown_kernel_plain_error(self):
        env = {**os.environ, "PYTHONPATH": _SRC}
        out = subprocess.run(
            [sys.executable, "-m", "repro", "fleet-bench", "--kernel", "bogus"],
            capture_output=True, text=True, env=env,
        )
        assert out.returncode == 2
        assert "unknown GEMM kernel" in out.stderr
        assert "float_table_native" in out.stderr

    @pytest.mark.parametrize(
        "argv",
        [
            ["serve-bench", "--duration", "0.2", "--clients", "1"],
            ["fleet-bench", "--workers", "1", "--duration", "0.3"],
        ],
        ids=["serve-bench", "fleet-bench"],
    )
    def test_bench_cli_prints_native_status(self, argv):
        env = {**os.environ, "PYTHONPATH": _SRC}
        out = subprocess.run(
            [sys.executable, "-m", "repro", *argv],
            capture_output=True, text=True, env=env, check=True, timeout=300,
        )
        lines = [ln.strip() for ln in out.stdout.splitlines()]
        native = [ln for ln in lines if ln.startswith("native: backend=")]
        assert len(native) == 1, out.stdout
        if native_active():
            assert native[0].startswith("native: backend=c,")
            assert native_status()["library"] in native[0]
        else:
            assert "numpy-fallback" in native[0]
