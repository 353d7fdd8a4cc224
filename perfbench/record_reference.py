"""Record the sha256 of every report and CSV at the reference seed.

    PYTHONPATH=src python3 perfbench/record_reference.py

Run it only at a commit whose output bytes are known to be right: the
benchmark counts every later mismatch at that seed as a failed input.
"""

import json

from workload import REFERENCE, REFERENCE_SEED, output_hashes
from workloads import NAMES

if __name__ == "__main__":
    table = {}
    for name in NAMES:
        for quick in (False, True):
            key = name + (":quick" if quick else "")
            table[key] = output_hashes(name, REFERENCE_SEED, quick)
    REFERENCE.write_text(json.dumps(table, indent=1) + "\n")
