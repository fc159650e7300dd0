"""One benchmark set-up in a fresh interpreter: import, open a store, prefill.

Run as ``python3 perfbench/setup_probe.py --db STORE [--prefill SPECS.json
--out PAYLOADS.json]``.  The benchmark times this process, so ``setup_s``
includes interpreter start and the imports a user pays before a first
prediction.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro import ExperimentRunner, ExperimentSpec  # noqa: E402
from repro.experiments.serialization import prediction_to_dict  # noqa: E402
from repro.service.api import make_server  # noqa: E402,F401  (the serve import cost)
from repro.service.store import ResultStore  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--db", required=True)
    parser.add_argument("--prefill")
    parser.add_argument("--out")
    args = parser.parse_args()
    store = ResultStore(args.db)
    if args.prefill:
        specs = [ExperimentSpec.from_dict(data) for data in json.loads(Path(args.prefill).read_text())]
        results = ExperimentRunner(store=store).run(specs)
        payloads = {result.spec.spec_id: prediction_to_dict(result.prediction) for result in results}
        Path(args.out).write_text(json.dumps(payloads))
    return 0


if __name__ == "__main__":
    sys.exit(main())
