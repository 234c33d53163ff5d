"""scripts/answers.py: the workloads' answers, printed the same way by every run, and kept.

``answers_tiny.json`` holds the ``--tiny`` lines of each recorded
environment.  Bits may depend on numpy, the BLAS and its thread count,
the CPU (OpenBLAS picks its kernels by CPU) and the C library, so a run
is compared only with the block of its own environment.  The kernel
release is left out of the key: no float operation goes through the
kernel, and a kernel update would otherwise turn the comparison off.  In
an environment with no block the comparison is skipped, and the skip
reason names the key.  A change that moves answers re-records its
blocks, once per thread count, and says why:

    OPENBLAS_NUM_THREADS=1 python3 tests/test_answers.py
"""

import json
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "answers.py"
REFERENCE = Path(__file__).resolve().with_name("answers_tiny.json")


def tiny_answers():
    """The lines of one ``scripts/answers.py --tiny`` run, as bytes."""
    return subprocess.run([sys.executable, str(SCRIPT), "--tiny"], capture_output=True,
                          check=True, timeout=300).stdout


def environment(blas_threads):
    """The key of a reference block: what the bits may depend on besides the code."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpuinfo = Path("/proc/cpuinfo")
    models = [line.split(":", 1)[1].strip()
              for line in (cpuinfo.read_text().splitlines() if cpuinfo.is_file() else [])
              if line.startswith("model name")]
    return {"numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": blas_threads, "machine": platform.machine(),
            "cpu": models[0] if models else platform.processor(),
            "libc": " ".join(platform.libc_ver())}


def test_the_environment_key_leaves_out_the_kernel_release():
    # a kernel update must not switch the recorded-block comparison off
    assert platform.release() not in json.dumps(environment(1))


@pytest.fixture(scope="module")
def tiny_run():
    return tiny_answers()


def test_answers_repeat_byte_for_byte_at_tiny_size(tiny_run):
    assert tiny_answers() == tiny_run
    lines = [json.loads(line) for line in tiny_run.decode().splitlines()]
    assert [(a["workload"], a["seed"]) for a in lines] == [
        (w, s) for w in ("usps-durp", "wide-durp", "orig-duori") for s in (0, 1, 2)
    ] + [("verify-t1", None), ("verify-t2", None), ("span-durp", 0)]
    assert all(isinstance(a["blas_threads"], int) and a["blas_threads"] >= 1 for a in lines)
    train, theorem1, theorem2, span = lines[0], lines[-3], lines[-2], lines[-1]
    assert set(train) == set(span) == {"workload", "seed", "blas_threads", "alpha_sha256",
                                       "factor_sha256", "map", "knn_acc", "final_gap"}
    assert set(theorem1) == {"workload", "seed", "blas_threads", "recovery_err", "errors_sha256",
                             "oracle_gap"}
    assert set(theorem2) == {"workload", "seed", "blas_threads", "measured_sha256", "oracle_gap"}


def test_tiny_answers_equal_the_recorded_block(tiny_run):
    lines = [json.loads(line) for line in tiny_run.decode().splitlines()]
    key = environment(lines[0]["blas_threads"])
    blocks = [block["answers"] for block in json.loads(REFERENCE.read_text())
              if block["environment"] == key]
    if not blocks:
        pytest.skip(f"no answers recorded for this environment: {json.dumps(key)}")
    assert lines == blocks[0]


def record():
    """Write this environment's block into the reference, replacing an older one."""
    lines = [json.loads(line) for line in tiny_answers().decode().splitlines()]
    key = environment(lines[0]["blas_threads"])
    blocks = [block for block in json.loads(REFERENCE.read_text()) if block["environment"] != key]
    blocks.append({"environment": key, "answers": lines})
    REFERENCE.write_text("[\n" + ",\n".join(
        '{"environment": %s,\n "answers": [\n  %s]}'
        % (json.dumps(block["environment"]), ",\n  ".join(map(json.dumps, block["answers"])))
        for block in blocks) + "\n]\n")


if __name__ == "__main__":
    record()
