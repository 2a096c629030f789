"""Regenerate the committed output references of the benchmark.

Usage (from the repository root)::

    python3 perfbench/regen_reference.py [--workload signoff ...]

Runs one pass of each workload on every input set, prints each value
that moved against the committed reference, and rewrites
``perfbench/reference/<workload>.json``.  Regenerating is a deliberate
act: a change that moves a reference value says why in ``CHANGES.md``.
The ``serve`` workload checks every label against the direct
``predict`` and keeps no reference.
"""

import argparse
import json
import sys

import run

CHECKED = ("signoff", "device", "readout")


def regenerate(workload: str) -> None:
    path = run.reference_path(workload)
    old = json.loads(path.read_text(encoding="utf-8")) if path.exists() \
        else {}
    new = {}
    for variant in range(run.VARIANTS):
        result = run.execute(workload, variant, 0.0, False)
        outputs = json.loads(json.dumps(result["outputs"][0]))
        before = old.get(str(variant), {})
        for key in run.harness.moved(before, outputs):
            print(f"{workload}[{variant}] {key}: "
                  f"{before.get(key, '<absent>')!r} -> "
                  f"{outputs.get(key, '<absent>')!r}")
        new[str(variant)] = outputs
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(new, indent=1, sort_keys=True) + "\n",
                    encoding="utf-8")
    print(f"{workload}: wrote {path.name} ({run.VARIANTS} input sets)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append", choices=CHECKED)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(run.ROOT / "src"))
    reason = run.refuse_environment()
    if reason:
        print(f"regen_reference: refusing to run: {reason}", file=sys.stderr)
        return 2
    for workload in args.workload or CHECKED:
        regenerate(workload)
    return 0


if __name__ == "__main__":
    sys.exit(main())
