"""Write certify_reference.json: the exhaustive-enumeration verdicts that the
certify-n6 workload checks against.

    python3 perfbench/make_reference.py

Runs check_nnamcq and check_foscms on the certify instances for seeds 0-9
at n = 4 (the self-test size) and n = 6, and on the Example 5.1 cases.  The
instances are built so that their verdicts do not depend on the seed; the
script stops if any seed disagrees.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(1, os.path.join(os.path.dirname(HERE), "src"))

from calmkit import calmness, instances  # noqa: E402

import workloads  # noqa: E402

SEEDS = range(10)


def verdicts(prob, x):
    return {check: {"verdict": rep.verdict, "condition": rep.condition}
            for check, fn in workloads.CHECKS
            for rep in [getattr(calmness, fn)(prob, x)]}


def main():
    ref = {}
    for n in (4, 6):
        for seed in SEEDS:
            for name, prob, x in workloads.certify_instances(seed, n):
                got = verdicts(prob, x)
                if ref.setdefault(name, got) != got:
                    raise SystemExit("%s n=%d seed=%d: %s != %s" % (name, n, seed, got, ref[name]))
    for case in instances.example_5_1_cases():
        ref[case.name] = verdicts(case.prob, case.z_bar)
    ref["_source"] = {"method": "exhaustive atom enumeration (check_nnamcq, check_foscms)",
                      "n": [4, 6], "seeds": list(SEEDS)}
    with open(workloads.REFERENCE_FILE, "w") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
