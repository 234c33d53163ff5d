"""scripts/answers.py: the workloads' answers, printed the same way by every run."""

import json
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "answers.py"


def test_answers_repeat_byte_for_byte_at_tiny_size():
    runs = [subprocess.run([sys.executable, str(SCRIPT), "--tiny"], capture_output=True,
                           check=True, timeout=300).stdout for _ in range(2)]
    assert runs[0] == runs[1]
    lines = [json.loads(line) for line in runs[0].decode().splitlines()]
    assert [(a["workload"], a["seed"]) for a in lines] == [
        (w, s) for w in ("usps-durp", "wide-durp", "orig-duori") for s in (0, 1, 2)
    ] + [("verify-t1", None), ("verify-t2", None)]
    assert all(isinstance(a["blas_threads"], int) and a["blas_threads"] >= 1 for a in lines)
    train, theorem1, theorem2 = lines[0], lines[-2], lines[-1]
    assert set(train) == {"workload", "seed", "blas_threads", "alpha_sha256", "factor_sha256",
                          "map", "knn_acc", "final_gap"}
    assert set(theorem1) == {"workload", "seed", "blas_threads", "recovery_err", "errors_sha256",
                             "oracle_gap"}
    assert set(theorem2) == {"workload", "seed", "blas_threads", "measured_sha256", "oracle_gap"}
