"""Output checks whose reference does not come from the build under test.

Both run untimed and untraced, after a workload's last round.

- ``golden``: at ``REFERENCE_SEED``, whatever the run's seed, a model of the
  workload's configuration trains for two steps on that seed's inputs and
  then predicts its held-out split. The two step losses, the eval-mode loss
  of the first held-out batch and the predicted classes must match
  ``reference.json``, which holds what this code gave when the benchmark was
  defined. Step 1's loss checks the training forward, the eval loss and the
  classes check the eval forward and ``predict``. Step 2's loss checks the
  backward pass and Adam in direction only: Adam's first update is about
  ``lr * sign(grad)``, whatever the gradient's scale.
- ``directional``: at the run's own seed, the loss's derivative along a
  direction through all parameters, as ``backward`` gives it, must match a
  central difference of the forward. It runs along the gradient itself,
  where a wrongly scaled or wrongly oriented VJP shows, and along a random
  direction, where a gradient that was dropped shows. Both errors are
  taken relative to the gradient's norm, the largest derivative along any
  unit direction. The derivative along a random direction is about
  ``sqrt(parameters)`` times smaller and, on some seeds, close to zero, so
  relative to itself the error would be the difference's round-off.

To rewrite ``reference.json`` after a deliberate change of the model's
numbers, run ``python3 bench/reference.py`` from the root of a checkout.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from ferfuse import model, tensor, training

REFERENCE_SEED = 0
REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"
GOLDEN_STEPS = 2
# Summation-order changes move float64 losses by far less than this.
GOLDEN_RTOL = 1e-6
DIRECTIONAL_H = 1e-4
# Relative to the gradient's norm. A correct build lands below 5e-8 at the
# desk widths (six table4 variants, seeds 1-59) and below 1e-9 at the paper
# widths; a matmul VJP that scales its grads by 1.01 lands near 2e-5.
DIRECTIONAL_RTOL = 1e-6


def golden(mcfg, tcfg, train, held_out, eval_batch: int) -> dict:
    """Step losses, first-batch eval loss and predicted classes of one case."""
    result = training.train_loop(mcfg, replace(tcfg, steps=GOLDEN_STEPS), train)
    first = slice(0, eval_batch)
    x_img, x_lm = tensor.Tensor(held_out.x_img[first]), tensor.Tensor(held_out.x_lm[first])
    logits = model.forward(x_img, x_lm, result.params, mcfg, training=False)
    eval_loss = training.label_smoothing_ce(logits, held_out.labels[first], mcfg.label_smoothing).item()
    classes = training.predict(result.params, mcfg, held_out, batch_size=eval_batch)
    return {"losses": [row[1] for row in result.log], "eval_loss": eval_loss, "classes": classes.tolist()}


def golden_mismatches(got: dict, ref: dict) -> list:
    """What of ``got`` is outside the tolerance of ``ref``; empty if nothing."""
    bad = []
    values = list(zip(got["losses"], ref["losses"])) + [(got["eval_loss"], ref["eval_loss"])]
    if len(got["losses"]) != len(ref["losses"]) or not all(
        math.isclose(a, b, rel_tol=GOLDEN_RTOL) for a, b in values
    ):
        bad.append(f"losses {got['losses']} + eval {got['eval_loss']}, expected {ref['losses']} + eval {ref['eval_loss']}")
    if got["classes"] != ref["classes"]:
        bad.append(f"predicted classes {got['classes']}, expected {ref['classes']}")
    return bad


def directional(mcfg, params, dataset, batch: int, seed: int) -> dict:
    """Error of the backward-pass derivative relative to the gradient's
    norm, by direction name.

    ``params`` is left as it was found, without grads.
    """
    rng = np.random.default_rng([seed, 7])
    idx = rng.choice(len(dataset), size=min(batch, len(dataset)), replace=False)
    x_img, x_lm, labels = tensor.Tensor(dataset.x_img[idx]), tensor.Tensor(dataset.x_lm[idx]), dataset.labels[idx]
    named = params.named

    def loss():
        # A fresh generator per call draws the same drop-path masks.
        logits = model.forward(x_img, x_lm, params, mcfg, training=True, rng=np.random.default_rng([seed, 11]))
        return training.label_smoothing_ce(logits, labels, mcfg.label_smoothing)

    tensor.zero_grads(named)
    tensor.backward(loss())
    grads = {name: np.zeros_like(t.data) if t.grad is None else t.grad for name, t in named.items()}
    tensor.zero_grads(named)
    scale = math.sqrt(sum(float(np.vdot(g, g)) for g in grads.values())) or 1e-12
    random = {name: rng.standard_normal(t.shape) for name, t in named.items()}
    base = {name: t.data for name, t in named.items()}
    errors = {}
    for kind, v in (("gradient", grads), ("random", random)):
        norm = math.sqrt(sum(float(np.vdot(d, d)) for d in v.values())) or 1.0
        analytic = sum(float(np.vdot(grads[name], d)) for name, d in v.items()) / norm
        sides = []
        for sign in (1.0, -1.0):
            for name, t in named.items():
                t.data = base[name] + (sign * DIRECTIONAL_H / norm) * v[name]
            sides.append(loss().item())
        for name, t in named.items():
            t.data = base[name]
        numeric = (sides[0] - sides[1]) / (2 * DIRECTIONAL_H)
        errors[kind] = abs(analytic - numeric) / scale
    return errors


def load() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


def record() -> None:
    import workloads

    reference = {}
    for w in workloads.WORKLOADS.values():
        for key, case in workloads.reference_cases(w, REFERENCE_SEED):
            reference[key] = golden(*case)
            print(key, reference[key]["losses"], reference[key]["eval_loss"], flush=True)
    REFERENCE_PATH.write_text(json.dumps(reference, indent=1) + "\n")


if __name__ == "__main__":
    record()
