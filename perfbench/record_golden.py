"""Record the sha256 of every op's output for the default seed.

Usage (from the repository root): python3 perfbench/record_golden.py

Run this only at a commit whose outputs are known to be right: the table
it writes is what later runs on the default seed compare bytes against.
Each output must first pass the structural check.
"""

import json
import sys

import run  # sets the one-thread environment before numpy is imported


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    import ramasim.cli as cli
    import workloads

    table = {}
    for name in workloads.WORKLOADS:
        table[name] = {}
        for op in workloads.make_ops(name, run.DEFAULT_SEED):
            rc, text, _ = run.run_op(cli, op.argv)
            workloads.check_output(op, rc, text, {})
            table[name][workloads.argv_key(op.argv)] = workloads.sha256(text)
    run.GOLDEN.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {sum(map(len, table.values()))} hashes to {run.GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
