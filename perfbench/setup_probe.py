"""Time one sweep's set-up in this fresh interpreter; print the seconds.

Set-up is what a user pays before the first trial: importing the
package and building the sweep's prepared context (emulated and
authentic waveforms, receivers, channel environment, detector) through
the spec's public ``context`` and ``detector`` hooks.  The clock starts
before anything but ``sys`` and ``time`` is imported.  Run as::

    python3 perfbench/setup_probe.py SRC_DIR EXPERIMENT SEED CONFIG_JSON
"""

import sys
import time


def main(src: str, experiment: str, seed: int, config_json: str) -> float:
    start = time.perf_counter()
    import json

    sys.path.insert(0, src)
    from repro.experiments.registry import get_experiment
    from repro.utils.rng import ensure_rng

    spec = get_experiment(experiment).spec
    config = spec.resolve_config(json.loads(config_json))
    context = spec.context(config, ensure_rng(seed))
    if spec.detector is not None:
        context["detector"] = spec.detector(config)
    return time.perf_counter() - start


if __name__ == "__main__":
    print(repr(main(sys.argv[1], sys.argv[2], int(sys.argv[3]), sys.argv[4])))
