"""Write bench/reference.json: outputs of the fixed reference runs.

Run from the root of a checkout, only when the program's outputs are
meant to change:

    python3 bench/make_reference.py
"""

import json
import tempfile
from pathlib import Path

# run sets the BLAS thread count, so it is imported before anything imports numpy
from run import import_package


def main():
    import_package()
    import harness

    harness.OUT.mkdir(parents=True, exist_ok=True)
    refs = {}
    with tempfile.TemporaryDirectory(dir=harness.OUT) as tmp:
        for name, wl in harness.WORKLOADS.items():
            refs[name] = harness.reference_outputs(wl, Path(tmp))
    harness.REFERENCE.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    print(f"wrote {harness.REFERENCE}")


if __name__ == "__main__":
    main()
