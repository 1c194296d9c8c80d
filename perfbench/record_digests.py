"""Record the SHA-256 digest of stdout for every fixed-input invocation.

    python3 perfbench/record_digests.py

Writes perfbench/digests.json.  Run it only on a commit whose outputs are
known to be right: the benchmark treats these digests as the expected
output of every later commit.
"""

import hashlib
import json
import os
import shutil
import sys

import run
import workloads


def main():
    workdir = os.path.join(run.HERE, ".work", "record")
    os.makedirs(workdir, exist_ok=True)
    digests = {}
    try:
        runner = run.Runner(workdir)
        for argv in workloads.fixed_argvs():
            _, _, code, stdout, _ = runner.launch(argv)
            if code != 0:
                sys.exit(f"{' '.join(argv)} exited {code}; nothing recorded")
            digests[" ".join(argv)] = hashlib.sha256(stdout).hexdigest()
    finally:
        shutil.rmtree(workdir)
    with open(workloads.DIGESTS_PATH, "w", encoding="utf-8") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
