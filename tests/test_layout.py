"""Pinned parameter layouts and initial checkpoint bytes.

For each variant at the desk preset (seed 0), and one two-stream form with
a shared unswapped tail and no q/k/v biases, the ordered name -> shape list
and the PCKPT bytes of the freshly built parameters are compared against
recorded sha256 digests. The initial values come from numpy's seeded
generator alone, so the digests hold on every machine; a change here means
checkpoints written by earlier builds no longer load or no longer match.
"""

import hashlib
import json

import pytest

from ferfuse.checkpoint import save_checkpoint
from ferfuse.cli import PRESETS, RunConfig
from ferfuse.model import build_params

SINGLE = (
    38,
    "3a553e415e0415d7349801f12dbabf87f0ade6c2e2eab084b2acf79206b644f9",
    "f4b4c9981cb0b4f53aaf0f8a4d4a63e0daf5515423a7699fab72622a4aae62d5",
)

# label: (model overrides, tensor count, layout sha256, checkpoint sha256)
PINNED = {
    "landmark_only": ({"variant": "landmark_only"},) + SINGLE,
    "image_only": ({"variant": "image_only"},) + SINGLE,
    "baseline": ({"variant": "baseline"},) + SINGLE,
    "baseline_pyramid": (
        {"variant": "baseline_pyramid"},
        106,
        "2db7636de33cc26055c62b2c008a47461c8e21929ba8685b5c20827f8b00ed11",
        "c5495653061414dfc0211b154ec9dad83638fae6fecd75d69c48dcf97b69cc77",
    ),
    "baseline_crossfusion": (
        {"variant": "baseline_crossfusion"},
        72,
        "eb04442d4b86ef9c33e9dd6e5737a358958832049d7f1763dd2d1c6b891e59f5",
        "e561c660f51edd51bef75266841d684741f57212c2767a7778e39688743f52af",
    ),
    "poster": (
        {"variant": "poster"},
        208,
        "fbed93693e2e84cb33b58c6eacf46030d2120cbca8b397254bfe9f641b4350dc",
        "5a26105afb2378bba007da57e5bcdcbe031712757e87276932cb38d337b7a517",
    ),
    "poster_swap1_shared_nobias": (
        {"variant": "poster", "swap_depth": 1, "share_unswapped": True, "qkv_bias": False},
        133,
        "f3b78f93d7749ef79e7122575370cd6fdece8ce7ffc3b9b121a5f345b2047ad0",
        "b458e15c88c433b2e18eb5150a7ffa76a8d6008be55be6b076e00b0f9ad27421",
    ),
}


@pytest.mark.parametrize("label", sorted(PINNED))
def test_layout_and_initial_checkpoint_bytes(label, tmp_path):
    overrides, count, layout_sha, ckpt_sha = PINNED[label]
    cfg = RunConfig(**PRESETS["desk"]).model_config(seed=0, **overrides)
    params = build_params(cfg)
    layout = [[name, list(t.shape)] for name, t in params.named.items()]
    assert len(layout) == count
    assert hashlib.sha256(json.dumps(layout).encode()).hexdigest() == layout_sha
    path = tmp_path / "init.pckpt"
    save_checkpoint(path, params.named)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == ckpt_sha
