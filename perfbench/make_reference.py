#!/usr/bin/env python3
"""Write reference.json: iters and f_val of every seed-0 pool instance.

    python3 perfbench/make_reference.py

run.py compares seed-0 solves against this file.  Regenerate it only when a
change is meant to alter solver output, and say so where the change is
described.
"""

import json

import program

import workloads as W


def main():
    out = {}
    for w in W.WORKLOADS.values():
        if w.suite:
            continue
        instances = {}
        for base in range(w.pool):
            case = W.make_case(w, 0, base)
            res = W.run_op(w, case)[0]
            instances[str(base)] = {"iters": res.iters, "f_val": res.f_val,
                                    "status": res.status}
            print(w.name, base, instances[str(base)], flush=True)
        out[w.name] = {"sizes": w.sizes, "tol": w.tol, "instances": instances}
    path = program.ROOT / "perfbench" / "reference.json"
    path.write_text(json.dumps(out, indent=1) + "\n")
    print(path)


if __name__ == "__main__":
    main()
