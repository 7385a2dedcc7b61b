"""Pin ``national_day``'s ledger and network digests for a range of seeds.

    python3 perfbench/pin.py 0 48      # seeds 0..47, merged into pins.json

The benchmark fails a ``national_day`` run whose front-end ledger digest
or network digest differs from the value pinned here for its seed.  The
digests come from the current program: re-pin only when a change is
meant to alter national_day's outcomes, and say so in the change.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import days  # noqa: E402  (needs the source path above)


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    first, stop = (int(a) for a in argv)
    workload = days.WORKLOADS["national_day"]
    pins = json.loads(days.PINS_PATH.read_text()) if days.PINS_PATH.exists() else {}
    for seed in range(first, stop):
        day = workload.setup(seed)
        result = day.run()
        day.close()
        pins[str(seed)] = day.digests
        print(f"seed {seed}: {day.digests} ({result.wall_s:.1f} s)", flush=True)
        days.PINS_PATH.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
