"""Write pinned.json: the reference outputs the correctness gate compares.

Runs every exact operation of the pinned seed (0) at both sizes and the
eta operation for each Berger parameter, and records the SHA-256 digest of
each exact output and the eta partial sum of each numeric one.  Run it only
on a commit whose outputs are known to be right:

    python3 perfbench/pin.py
"""

import json
import sys
import tempfile
from pathlib import Path

from checks import EXACT, PINNED_SEED, digest
from worker import BERGER_A, SIZES, berger_ops, build_ops, op_key, run_op


def main() -> None:
    pinned = {"digests": {}, "eta": {}}
    with tempfile.TemporaryDirectory(dir=Path(__file__).resolve().parent) as tmp:
        for size in SIZES:
            ops = build_ops("asym_sweep", PINNED_SEED, size, Path(tmp))
            ops += build_ops("project_random", PINNED_SEED, size, Path(tmp))
            ops += [berger_ops(a, size)[0] for a in BERGER_A]
            for op in ops:
                key = op_key(op)
                rc, text, _, _ = run_op(op)
                if rc != 0:
                    sys.exit(f"{key}: exit code {rc}; nothing pinned")
                if op["kind"] in EXACT:
                    pinned["digests"][key] = digest(text)
                else:
                    pinned["eta"][key] = json.loads(text)["eta_partial"]
                print(key, file=sys.stderr)
    out = Path(__file__).resolve().parent / "pinned.json"
    out.write_text(json.dumps(pinned, indent=2, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
