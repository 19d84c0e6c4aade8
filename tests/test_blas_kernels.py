"""The identity premises under a forced OpenBLAS kernel.

Stacked training equals serial training only if np.matmul runs each slice of
a stack as a 2-D call would, and distillation equals its serial reference
only if both build the one teacher.  Tier-1 otherwise checks these on the
host's default kernel only; here a child process forces
OPENBLAS_CORETYPE=Nehalem (SSE4.2, which every x86-64 host can run) and
repeats there the lockstep-equals-serial checks, the distillation
equivalence, the stacked-products premise at every shipped layer shape and
loss_gradient's equality with the scalar gradient it replaced.
"""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
spec = importlib.util.spec_from_file_location("identity_tool", ROOT / "tools" / "identity.py")
identity = importlib.util.module_from_spec(spec)
spec.loader.exec_module(identity)

# argv: the src, tests and tools directories; prints the kernel the checks ran on
CHILD = """
import sys
sys.path[:0] = sys.argv[1:]
from identity import blas_core_name
from test_nets import (
    SHIPPED_LAYERS, TestStackedProductsPremise, test_loss_gradient_equals_the_scalar_gradient)
from test_training_core import TestLockstep, TestMutualLockstep, TestReferenceEquivalence
TestMutualLockstep().test_each_client_equals_its_serial_reference()
TestLockstep().test_each_client_equals_its_serial_reference()
for strategy in ("max_logits", "majority_vote"):
    for init_mode in ("avg_members", "warm_start"):
        TestReferenceEquivalence().test_distill(strategy, init_mode)
for fan_in, fan_out in SHIPPED_LAYERS:
    for n in (1, 7, 13, 32):
        for k in (1, 4, 10):
            TestStackedProductsPremise.check_stack(fan_in, fan_out, n, k)
test_loss_gradient_equals_the_scalar_gradient()
print(blas_core_name())
"""


@pytest.mark.skipif(not identity.nehalem_runs(), reason="needs x86-64 and numpy's OpenBLAS")
def test_lockstep_equals_serial_on_nehalem():
    env = {**os.environ, "OPENBLAS_CORETYPE": identity.NEHALEM}
    child = subprocess.run(
        [sys.executable, "-c", CHILD, *(str(ROOT / d) for d in ("src", "tests", "tools"))],
        env=env, capture_output=True, text=True, timeout=60)
    assert child.returncode == 0, child.stderr
    assert child.stdout.split() == ["Nehalem"]
