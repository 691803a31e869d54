"""Write ``reference.json``: the outputs the benchmark's gate accepts.

Run once from the repository root at the commit that defines the
benchmark::

    python3 perfbench/record_reference.py

It records the SHA-256 of each ``symbolic`` invocation's stdout and the
checks that pass in the ``verify-suite`` report. Re-recording at a later
commit would let that commit's outputs define "correct", so don't.
"""

import json
import random

from run import HERE, Symbolic, VerifySuite, load_program


def main() -> None:
    _, mods = load_program()
    symbolic = Symbolic(mods, {})
    reference = {
        "symbolic": {
            name: symbolic.digest(name, call())[1]
            for name, call in symbolic.calls(random.Random(0))
        }
    }
    suite = VerifySuite(mods, {})
    (name, call), = suite.calls(random.Random(0))
    digest = suite.digest(name, call())
    if digest["exit_code"] != 0 or digest["summary"]["fail"] != 0:
        raise SystemExit(f"verify failed, not recording it: {digest['summary']}")
    reference["verify-suite"] = {"passing": digest["passing"]}
    (HERE / "reference.json").write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
