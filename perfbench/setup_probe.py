"""One cold set-up, timed in a fresh interpreter: import, load weights, build state.

Usage: python3 setup_probe.py SRC_DIR [VARIANT=WEIGHTS_PATH=LOOKBACK ...]

LOOKBACK is the attention lookback in seconds, or "none" for unbounded.
Prints one JSON object with the CPU seconds spent in each step.
"""

import json
import sys
from time import thread_time


def main(argv: list[str]) -> None:
    start = thread_time()
    sys.path.insert(0, argv[0])
    import cabinsep
    from cabinsep.model import ModelWeights, StreamingMaskNet, variant_config
    from cabinsep.mvdr import BeamformerState

    imported = thread_time()
    loaded = []
    for spec in argv[1:]:
        variant, path, lookback = spec.split("=")
        cfg = variant_config(variant, chunk_lookback_seconds=(
            None if lookback == "none" else float(lookback)))
        loaded.append((cfg, ModelWeights.load(path)))
    weights_done = thread_time()
    for cfg, weights in loaded:
        StreamingMaskNet(weights, cfg)
    BeamformerState(zones=4, bins=257)
    built = thread_time()
    print(json.dumps({
        "cabinsep_file": cabinsep.__file__,
        "import_s": imported - start,
        "weights_load_s": weights_done - imported,
        "build_s": built - weights_done,
        "setup_s": built - start,
    }))


if __name__ == "__main__":
    main(sys.argv[1:])
