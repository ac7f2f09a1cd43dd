"""Every name the benchmark's tracer patches exists in wormgnn.

``wormbench/tracing.py`` looks its functions, methods and blocks up by
name; a name deleted or renamed here fails in this quick test, naming it,
instead of inside the slower traced smoke runs.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np

from wormgnn import models as m

TRACING = Path(__file__).resolve().parents[1] / "wormbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("wormbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # defines names only; nothing is patched
    return module


def test_traced_names_exist():
    tracing = load_tracing()
    missing = [f"autodiff.{op}" for op in tracing.OPS
               if not hasattr(importlib.import_module("wormgnn.autodiff"), op)]
    missing += [f"{module}.{attr}" for module, attr, _ in tracing.FUNCTIONS
                if not hasattr(importlib.import_module(f"wormgnn.{module}"), attr)]
    missing += [f"{module}.{cls}.{attr}" for module, cls, attr, _ in tracing.METHODS
                if attr not in vars(getattr(importlib.import_module(f"wormgnn.{module}"), cls, object))]
    missing += [f"models.{cls}.forward" for cls, _ in tracing.BLOCKS
                if "forward" not in vars(getattr(m, cls, object))]
    assert not missing, f"traced names missing from wormgnn: {missing}"


def test_traced_blocks_name_their_first_parameter():
    # each block label is read off a parameter name the block holds
    rng = np.random.default_rng(0)
    blocks = {"TwoLayerMlp": m.TwoLayerMlp("edge", 4, 3, rng, batchnorm=False),
              "Linear": m.Linear("edge_head", 3, 2, rng), "LstmUnit": m.LstmUnit("lstm", 2, 3, rng)}
    labels = {cls: param_name_of(blocks[cls]) for cls, param_name_of in load_tracing().BLOCKS}
    assert labels == {"TwoLayerMlp": "edge.fc1.weight", "Linear": "edge_head.weight",
                      "LstmUnit": "lstm.w_x"}
