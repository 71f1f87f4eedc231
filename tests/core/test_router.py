"""Tests for the certified tier router.

Routing policy (explicit bypass / tiny-shape guard / certificate
gating), the ``kernel="auto"`` plumbing through ``approx_matmul`` and
compiled plans, and the cross-process determinism of an ``"auto"`` plan:
the decision depends only on format, config, shape and integrity
demotion, never on what the process measured or ran before.
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from repro.core.config import PC3_TR, all_configs
from repro.core.gemm import approx_matmul
from repro.core.kernels import (
    UnknownKernelError,
    exact_tier_name,
    get_kernel,
    shape_class,
)
from repro.core.router import (
    AUTO_KERNEL,
    CERT_MARGIN,
    CERT_SHAPE,
    FAST_TIERS,
    TierCertificate,
    certify_fast_path,
    route_decision,
    route_kernel,
)
from repro.formats.floatfmt import BFLOAT16, FLOAT32

_SRC = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir, "src")


class TestShapeClass:
    def test_classes(self):
        assert shape_class(None, 128, 64) == "general"
        assert shape_class(4, 16, 16) == "tiny"  # 1024 macs
        assert shape_class(256, 288, 64) == "general"
        assert shape_class(4096, 64, 4) == "tall_skinny"

    def test_tiny_boundary(self):
        assert shape_class(1, 1, 1 << 14) == "tiny"
        assert shape_class(2, 1, 1 << 14) == "general"


class TestCertification:
    @pytest.mark.parametrize("config", all_configs(), ids=lambda c: c.name)
    def test_all_table1_configs_certify_on_bf16(self, config):
        cert = certify_fast_path(BFLOAT16, config)
        assert isinstance(cert, TierCertificate)
        assert cert.certified, (
            f"{config.name}: measured {cert.measured_rel_error} vs "
            f"margin*bound {cert.margin * cert.analytic_bound}"
        )
        assert 0.0 < cert.measured_rel_error <= CERT_MARGIN * cert.analytic_bound
        assert cert.rank >= 1
        assert cert.fmt == "bfloat16" and cert.config == config.name

    def test_deterministic_and_cached(self):
        a = certify_fast_path(BFLOAT16, PC3_TR)
        b = certify_fast_path(BFLOAT16, PC3_TR)
        assert a is b  # per-process cache returns the same object


class TestRoutingPolicy:
    def test_explicit_and_none_bypass(self):
        assert route_kernel(BFLOAT16, PC3_TR, "generic").name == "generic"
        assert route_kernel(BFLOAT16, PC3_TR, None).name == exact_tier_name(BFLOAT16)
        decision = route_decision(BFLOAT16, PC3_TR, None, shape=(256, 288, 64))
        assert decision.certificate is None  # no cert consulted off-route

    def test_auto_general_routes_to_certified_fast_path(self):
        decision = route_decision(BFLOAT16, PC3_TR, AUTO_KERNEL, shape=(256, 288, 64))
        assert decision.kernel == "blas_factored_fast"
        assert decision.certificate is not None and decision.certificate.certified
        assert decision.certificate.kernel == "blas_factored_fast"

    def test_auto_compile_time_unknown_batch_is_general(self):
        decision = route_decision(BFLOAT16, PC3_TR, AUTO_KERNEL, shape=(None, 128, 64))
        assert decision.shape_class == "general"
        assert decision.kernel == "blas_factored_fast"

    def test_auto_tiny_stays_exact(self):
        decision = route_decision(BFLOAT16, PC3_TR, AUTO_KERNEL, shape=(4, 16, 16))
        assert decision.kernel == exact_tier_name(BFLOAT16)
        assert "tiny" in decision.reason

    def test_auto_exact_products_stay_default(self):
        decision = route_decision(BFLOAT16, None, AUTO_KERNEL, shape=(256, 288, 64))
        assert decision.kernel == exact_tier_name(BFLOAT16)

    def test_auto_untabulated_format_stays_generic(self):
        decision = route_decision(FLOAT32, PC3_TR, AUTO_KERNEL, shape=(256, 288, 64))
        assert decision.kernel == "generic"

    def test_unknown_kernel_error_attrs(self):
        with pytest.raises(UnknownKernelError) as info:
            get_kernel("bogus")
        assert info.value.kernel == "bogus"
        assert "float_table_native" in info.value.registered
        assert "unknown GEMM kernel" in str(info.value)


class TestAutoPlumbing:
    def test_approx_matmul_auto_matches_routed_kernel(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((48, 64)).astype(np.float32)
        b = rng.standard_normal((64, 24)).astype(np.float32)
        got = approx_matmul(a, b, BFLOAT16, PC3_TR, kernel="auto")
        want = approx_matmul(a, b, BFLOAT16, PC3_TR, kernel="blas_factored_fast")
        np.testing.assert_array_equal(got.view(np.uint32), want.view(np.uint32))

    def test_approx_matmul_auto_tiny_matches_exact(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((4, 16)).astype(np.float32)
        b = rng.standard_normal((16, 16)).astype(np.float32)
        got = approx_matmul(a, b, BFLOAT16, PC3_TR, kernel="auto")
        want = approx_matmul(a, b, BFLOAT16, PC3_TR)
        np.testing.assert_array_equal(got.view(np.uint32), want.view(np.uint32))

    def test_compiled_plan_auto_parity_and_digest(self):
        from repro.nn.backend import daism_backend
        from repro.nn.models import model_zoo
        from repro.runtime import (
            BatchEngine,
            compile_plan,
            plan_digest,
            plan_tiers,
        )

        module = model_zoo()["lenet"]
        module.eval()
        x = np.random.default_rng(2).standard_normal((4, 1, 16, 16)).astype(
            np.float32
        )
        plan_auto = compile_plan(module, daism_backend(PC3_TR, BFLOAT16, kernel="auto"))
        plan_blas = compile_plan(
            module, daism_backend(PC3_TR, BFLOAT16, kernel="blas_factored_fast")
        )
        plan_default = compile_plan(module, daism_backend(PC3_TR, BFLOAT16))
        assert plan_tiers(plan_auto) == ["blas_factored_fast"]
        got = BatchEngine(plan_auto).run(x)
        want = BatchEngine(plan_blas).run(x)
        np.testing.assert_array_equal(got.view(np.uint32), want.view(np.uint32))
        # Tier choice is part of the digest: auto (-> blas) != default tier,
        # and recompiling the same auto plan reproduces the same digest.
        assert plan_digest(plan_auto) != plan_digest(plan_default)
        plan_again = compile_plan(
            module, daism_backend(PC3_TR, BFLOAT16, kernel="auto")
        )
        assert plan_digest(plan_again) == plan_digest(plan_auto)

    def test_quantized_auto_is_dense_blas(self):
        from repro.nn.backend import quantized_backend
        from repro.nn.models import model_zoo
        from repro.runtime import compile_plan, plan_tiers

        module = model_zoo()["lenet"]
        module.eval()
        plan = compile_plan(module, quantized_backend(BFLOAT16, kernel="auto"))
        assert plan_tiers(plan) == ["dense_blas"]


class TestCrossProcessDeterminism:
    def test_auto_plan_matches_a_fresh_process(self):
        """An ``"auto"`` LeNet plan compiles the same in any process.

        This process first certifies every Table I config on every fast
        tier, as the perf harness does before its routed row; a fresh
        interpreter compiles the same plan cold.  Tiers and per-op
        digests must agree.
        """
        from repro.nn.backend import daism_backend
        from repro.nn.models import model_zoo
        from repro.runtime import compile_plan, plan_digest, plan_tiers

        for config in all_configs():
            for kernel in FAST_TIERS:
                certify_fast_path(BFLOAT16, config, kernel=kernel)
        module = model_zoo()["lenet"]
        module.eval()
        plan = compile_plan(module, daism_backend(PC3_TR, BFLOAT16, kernel="auto"))
        code = (
            "import json\n"
            "from repro.core.config import PC3_TR\n"
            "from repro.formats.floatfmt import BFLOAT16\n"
            "from repro.nn.backend import daism_backend\n"
            "from repro.nn.models import model_zoo\n"
            "from repro.runtime import compile_plan, plan_digest, plan_tiers\n"
            "module = model_zoo()['lenet']\n"
            "module.eval()\n"
            "plan = compile_plan(module, daism_backend(PC3_TR, BFLOAT16, kernel='auto'))\n"
            "print(json.dumps([plan_tiers(plan), plan_digest(plan)]))\n"
        )
        fresh = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": _SRC},
            check=True,
            timeout=300,
        )
        tiers, digest = json.loads(fresh.stdout.strip().splitlines()[-1])
        assert plan_tiers(plan) == tiers
        assert plan_digest(plan) == digest


class TestTierCertificationExperiment:
    @pytest.mark.parametrize("config", all_configs(), ids=lambda c: c.name)
    def test_verdict_names_the_routed_kernel(self, config):
        from repro.experiments import get_experiment

        exp = get_experiment("tier_certification")
        params = dict(exp.defaults, config=config.name)
        assert (params["m"], params["k"], params["n"]) == CERT_SHAPE
        verdict = exp.run(params)[-1]["within margin"]
        routed = route_decision(BFLOAT16, config, AUTO_KERNEL, shape=CERT_SHAPE).kernel
        if routed in FAST_TIERS:
            assert verdict == f"certified -> {routed}"
        else:
            assert routed == exact_tier_name(BFLOAT16)
            assert verdict == "NOT certified -> bit-exact tier"
