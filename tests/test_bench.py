"""The benchmark under ``bench/`` wraps layerpot functions by name; a
change that deletes or renames one must fail here, not in the benchmark."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_tracer_installs():
    code = (
        "import sys\n"
        f"sys.path[:0] = [{str(ROOT / 'src')!r}, {str(ROOT / 'bench')!r}]\n"
        "import spans, run\n"
        "spans.install(spans.Tracer())\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-3000:]
