"""The traced benchmark run's wiring.

``perfbench/tracer.py`` wraps each layer's function under the name its
caller looks it up by (``training.encode``, ``cli.train``, ...). Only a
``--trace 1`` run uses those names, so this test holds them to the code:
a renamed or moved function fails here, not in the benchmark.
"""

import inspect
import sys
from pathlib import Path

sys.path.append(str(Path(__file__).resolve().parents[1] / "perfbench"))

from interlingua import cli, data, evaluation, training, transformer  # noqa: E402
from tracer import TARGETS, Tracer  # noqa: E402

# the modules perfbench/run.py hands the tracer
MODULES = {"cli": cli, "data": data, "evaluation": evaluation, "training": training, "transformer": transformer}


def test_tracer_wraps_every_target_and_restores_it():
    originals = {(module, attr): getattr(MODULES[module], attr) for module, attr, _ in TARGETS}
    assert all(callable(fn) for fn in originals.values())
    tracer = Tracer(MODULES)
    tracer.install()
    try:
        for (module, attr), original in originals.items():
            assert getattr(MODULES[module], attr) is not original, f"{module}.{attr} is not wrapped"
    finally:
        tracer.uninstall()
    for (module, attr), original in originals.items():
        assert getattr(MODULES[module], attr) is original, f"{module}.{attr} was not restored"


def test_parameters_the_tracer_reads_by_position():
    # the notes read decode_teacher_forced's target_in as args[3],
    # save_checkpoint's path as args[2] and backward's loss as args[0]
    for fn, position, name in (
        (transformer.decode_teacher_forced, 3, "target_in"),
        (training.save_checkpoint, 2, "path"),
        (training.backward, 0, "loss"),
    ):
        assert list(inspect.signature(fn).parameters)[position] == name, fn.__name__
