"""Record the sha256 of every byte `coronawalk figures all` writes, as the
reference the cli_figures workload compares against.

    python3 perfbench/record_figures.py

Run from the repository root at the commit whose output is the reference.
The output directory is the relative path the workload passes, because the
figures embed it in their config headers.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from coronawalk.cli import main  # noqa: E402

from workloads import FIGURES_REFERENCE, CliFigures  # noqa: E402

if __name__ == "__main__":
    os.chdir(ROOT)
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main(["figures", "all", "--outdir", CliFigures.FIGURES_DIR])
    if code != 0:
        sys.exit(f"figures all exited {code}")
    files = {"<stdout>": hashlib.sha256(stdout.getvalue().encode()).hexdigest()}
    for name in json.loads(stdout.getvalue())["files"]:
        files[name] = hashlib.sha256((ROOT / name).read_bytes()).hexdigest()
    FIGURES_REFERENCE.write_text(json.dumps(files, indent=2, sort_keys=True) + "\n")
    print(f"wrote {FIGURES_REFERENCE.relative_to(ROOT)}: {len(files)} entries")
