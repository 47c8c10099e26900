"""Pin the output digests of this checkout in tests/output_digests.json.

    python tools/pin_digests.py

Runs ``compare.py``'s list of invocations, with ``compare_cases.txt``, on
this checkout in one child interpreter, and writes the numpy and BLAS
versions of this interpreter and one SHA-256 of (exit code, stdout,
stderr) per invocation.  Re-pin only after a change that alters output on
purpose: the file's diff then names every invocation whose output changed.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

from compare import DIGESTS, ROOT, output_digests, versions


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="negspin-pin-") as tmp:
        digests = output_digests(ROOT, Path(tmp) / "cwd")
    DIGESTS.write_text(json.dumps({"versions": versions(), "digests": digests}, indent=1) + "\n",
                       encoding="utf-8")
    print(f"pinned {len(digests)} invocations in {DIGESTS.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
