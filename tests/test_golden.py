"""Golden training and eval numbers for every pinned layout.

Each form of ``test_layout.PINNED`` is trained for three Adam steps at the
desk preset with drop-path 0.2 (so branches are dropped and rescaled), then
run in eval mode on five samples. The three losses and the eval logits are
compared with ``golden_numerics.json`` at rtol 1e-9: close enough that any
change to the computation shows, loose enough for a BLAS build that sums a
GEMM in another order. Re-record with ``python tests/test_golden.py``.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from ferfuse.cli import PRESETS, RunConfig
from ferfuse.data import gen_clusters
from ferfuse.model import forward
from ferfuse.tensor import Tensor
from ferfuse.training import train_loop
from test_layout import PINNED

GOLDEN = Path(__file__).with_name("golden_numerics.json")


def run_form(label: str) -> dict:
    run = RunConfig(**PRESETS["desk"])
    cfg = run.model_config(seed=0, drop_path=0.2, **PINNED[label][0])
    data = gen_clusters(cfg.patches, cfg.base_dim, cfg.num_classes, per_class=4, sigma=1.0, seed=5)
    result = train_loop(cfg, run.train_config(steps=3, batch_size=16, seed=0), data)
    logits = forward(Tensor(data.x_img[:5]), Tensor(data.x_lm[:5]), result.params, cfg, training=False)
    return {"losses": [loss for _, loss, _, _ in result.log], "logits": logits.data.tolist()}


@pytest.mark.parametrize("label", sorted(PINNED))
def test_training_losses_and_eval_logits(label):
    want = json.loads(GOLDEN.read_text())[label]
    got = run_form(label)
    np.testing.assert_allclose(got["losses"], want["losses"], rtol=1e-9, atol=0)
    np.testing.assert_allclose(got["logits"], want["logits"], rtol=1e-9, atol=0)


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps({label: run_form(label) for label in sorted(PINNED)}, indent=1) + "\n")
