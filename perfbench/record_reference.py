"""Records the verdict reference table that every benchmark call is checked against.

    python3 perfbench/record_reference.py [SEED ...]

Runs every case of every workload once at seed 0 and writes
``reference.json`` (case id -> verdict and route, or the image gcd).  Each
further SEED re-runs all cases and lists those whose outcome differs; such a
case stays in the table and is reported, never excluded.  Run it only on a
commit whose verdicts are meant to become the reference.
"""

from __future__ import annotations

import json
import shutil
import sys

import checks
import run


def record(seed: int, client_for) -> tuple[dict, list[str]]:
    table, problems = {}, []
    for client in client_for(seed):
        for case in client.workload.cases:
            result = client.call(case)
            if result.doc is None:
                problems.append(f"{case.id}: {result.errors}")
                continue
            table[case.id] = checks.outcome(case, result.doc)
            errors = checks.call_errors(client.images[case.op], case, result.doc,
                                        result.exit_code, table[case.id])
            problems += [f"{case.id}: {e}" for e in errors]
    return table, problems


def main(argv: list[str]) -> int:
    cli = run.load_program()
    from battery import build_battery, image_table, write_operator_files
    from workloads import WORKLOADS
    work = run.WORK / "record"
    try:
        ops = write_operator_files(work / "ops")
        images = image_table(build_battery())

        def client_for(seed):
            for w in WORKLOADS.values():
                yield run.Client(cli, w, ops, images, {}, seed)

        table, problems = record(0, client_for)
        for p in problems:
            print("PROBLEM", p)
        for seed in (int(s) for s in argv):
            other, more = record(seed, client_for)
            flips = {k: (table.get(k), v) for k, v in other.items() if table.get(k) != v}
            print(f"seed {seed}: {len(flips)} flipped cases {flips}; problems {more}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if problems:
        return 1
    path = run.HERE / "reference.json"
    path.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(table)} cases to {path}, fingerprint {checks.fingerprint(table)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
