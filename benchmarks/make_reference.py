"""Write reference/ap_reports.json, the committed answers of the two
deterministic `report` jobs, from the sidonlab in this checkout's src/.

    python3 benchmarks/make_reference.py

Run it only at a commit whose report output is trusted: the benchmark
fails any later commit whose answers differ from this document.
"""

import json
import sys
import tempfile
from pathlib import Path

import run


def main() -> int:
    run.bootstrap()
    import workloads

    jobs = {}
    with tempfile.TemporaryDirectory(dir=run.HERE) as tmp:
        for name, s_set in workloads.ap_sets().items():
            path = Path(tmp) / f"{name}.txt"
            workloads.sidonlab.write_set_file(s_set, path)
            result = workloads.call_cli(["report", "--set", str(path),
                                         *workloads.REPORT_ARGS])
            if result.code != 0:
                print(f"error: report {name} exited {result.code}", file=sys.stderr)
                return 1
            jobs[name] = workloads.report_document(json.loads(result.stdout))
    doc = {
        "about": "sidonlab report --coeffs 1,1,1,1,-4 --eps 1/5 on ET(17) joined "
                 "with the odd / even numbers of [1, 578]; config.set omitted; "
                 f"floats compared with relative tolerance {workloads.FLOAT_REL_TOL}",
        "jobs": jobs,
    }
    workloads.REFERENCE_FILE.parent.mkdir(exist_ok=True)
    with open(workloads.REFERENCE_FILE, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {workloads.REFERENCE_FILE.relative_to(run.ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
