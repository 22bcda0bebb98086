"""Synthetic two-stream datasets and the PFER binary feature format.

Both generators stand in for frozen upstream feature extractors: each
sample is a pair of (P, D) feature matrices, one per stream, plus an
integer label.

gen_clusters draws one random prototype per (class, stream) and adds
Gaussian noise, giving a task either stream can solve alone.

gen_xor hides one bit in each stream along a fixed random direction and
labels samples with the XOR of the two bits. Each stream's marginal
distribution is identical for both labels, so no single-stream classifier
can beat 50%; only a model that combines the streams can solve it.

PFER file layout (all little-endian):

    magic  b"PFER"
    u32    version (1), u32 P, u32 D, u32 class count, u32 sample count
    per sample: P*D f32 image stream, P*D f32 landmark stream, u32 label
                (below the class count)

f32 on disk, widened to f64 in memory. Every feature is finite.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .binio import (
    BadFieldError,
    FormatVersionError,
    check_magic,
    check_shape,
    read_exact,
    read_u32,
    write_json,
    write_u32,
)

MAGIC = b"PFER"
VERSION = 1


@dataclass
class FeatureDataset:
    """Paired stream features and labels, stored stacked.

    ``x_img`` and ``x_lm`` are (count, P, D) float64; ``labels`` is
    (count,) int64 with values in [0, num_classes).
    """

    x_img: np.ndarray
    x_lm: np.ndarray
    labels: np.ndarray
    num_classes: int
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.x_img.shape != self.x_lm.shape or self.x_img.ndim != 3:
            raise ValueError(
                f"stream shapes must match and be (count, P, D), got {self.x_img.shape} vs {self.x_lm.shape}"
            )
        if self.labels.shape != (self.x_img.shape[0],):
            raise ValueError(f"labels shape {self.labels.shape} does not match {self.x_img.shape[0]} samples")
        if len(self.labels) and (self.labels.min() < 0 or self.labels.max() >= self.num_classes):
            raise ValueError(f"labels must lie in [0, {self.num_classes})")

    def __len__(self) -> int:
        return self.x_img.shape[0]

    @property
    def patches(self) -> int:
        return self.x_img.shape[1]

    @property
    def dim(self) -> int:
        return self.x_img.shape[2]

    def sample(self, i: int):
        return self.x_img[i], self.x_lm[i], int(self.labels[i])


def gen_clusters(
    patches: int,
    dim: int,
    num_classes: int,
    per_class: int,
    sigma: float,
    seed: int,
) -> FeatureDataset:
    """Per-class random prototypes plus Gaussian noise, one prototype per
    stream. At sigma 0 a nearest-prototype rule is perfect."""
    if not 0 <= sigma < float("inf"):
        raise ValueError(f"sigma must be finite and >= 0, got {sigma}")
    for name, value, least in (("num_classes", num_classes, 2), ("per_class", per_class, 1),
                               ("patches", patches, 1), ("dim", dim, 1)):
        if value < least:
            raise ValueError(f"{name} must be >= {least}, got {value}")
    rng = np.random.default_rng([seed, 11])
    protos_img = rng.standard_normal((num_classes, patches, dim))
    protos_lm = rng.standard_normal((num_classes, patches, dim))
    total = num_classes * per_class
    labels = np.repeat(np.arange(num_classes), per_class)
    noise_img = rng.standard_normal((total, patches, dim)) * sigma
    noise_lm = rng.standard_normal((total, patches, dim)) * sigma
    x_img = protos_img[labels] + noise_img
    x_lm = protos_lm[labels] + noise_lm
    return _shuffled(rng, x_img, x_lm, labels, "clusters", patches, dim, num_classes, per_class, sigma, seed)


def xor_directions(dim: int, seed: int) -> tuple:
    """The two orthonormal bit directions per stream used by gen_xor.

    Returns ((img_u0, img_u1), (lm_u0, lm_u1)); exposed so oracles can
    reconstruct the generator's analytic densities.
    """
    rng = np.random.default_rng([seed, 23])
    dirs = []
    for _ in range(2):
        m = rng.standard_normal((dim, 2))
        q, _ = np.linalg.qr(m)
        dirs.append((q[:, 0].copy(), q[:, 1].copy()))
    return dirs[0], dirs[1]


def gen_xor(
    patches: int,
    dim: int,
    per_class: int,
    sigma: float,
    seed: int,
) -> FeatureDataset:
    """Two-class task solvable only by fusing the streams.

    Stream bits are embedded by placing every patch row at one of two
    orthonormal unit directions (amplitude 1) plus Gaussian noise; the
    label is the XOR of the two stream bits. Bit combinations are laid out
    in exact counts, so labels are perfectly balanced and each stream's
    bit is independent of the label. ``per_class`` must be even to keep
    that balance exact.
    """
    if not 0 <= sigma < float("inf"):
        raise ValueError(f"sigma must be finite and >= 0, got {sigma}")
    if per_class % 2 != 0:
        raise ValueError(f"per_class must be even for exact stream balance, got {per_class}")
    for name, value, least in (("per_class", per_class, 2), ("patches", patches, 1), ("dim", dim, 2)):
        if value < least:
            raise ValueError(f"{name} must be >= {least}, got {value}")
    (img_dirs, lm_dirs) = xor_directions(dim, seed)
    half = per_class // 2
    # label 0: (0, 0) and (1, 1); label 1: (0, 1) and (1, 0), each exactly half
    bits_img = np.concatenate([np.zeros(half), np.ones(half), np.zeros(half), np.ones(half)]).astype(int)
    bits_lm = np.concatenate([np.zeros(half), np.ones(half), np.ones(half), np.zeros(half)]).astype(int)
    labels = bits_img ^ bits_lm
    total = 2 * per_class
    rng = np.random.default_rng([seed, 29])
    img_base = np.stack(img_dirs)[bits_img]  # (total, dim)
    lm_base = np.stack(lm_dirs)[bits_lm]
    x_img = np.broadcast_to(img_base[:, None, :], (total, patches, dim)).copy()
    x_lm = np.broadcast_to(lm_base[:, None, :], (total, patches, dim)).copy()
    x_img += rng.standard_normal((total, patches, dim)) * sigma
    x_lm += rng.standard_normal((total, patches, dim)) * sigma
    return _shuffled(rng, x_img, x_lm, labels, "xor", patches, dim, 2, per_class, sigma, seed)


def _shuffled(rng, x_img, x_lm, labels, generator, patches, dim, num_classes, per_class, sigma, seed) -> FeatureDataset:
    """The rows in the order of one ``rng.permutation``, int64 labels, and
    the generator's name and settings as metadata."""
    order = rng.permutation(len(labels))
    metadata = {"generator": generator, "patches": patches, "dim": dim, "num_classes": num_classes,
                "per_class": per_class, "sigma": sigma, "seed": seed}
    return FeatureDataset(x_img[order], x_lm[order], labels[order].astype(np.int64), num_classes, metadata)


def _records(buf: np.ndarray, count: int, patches: int, dim: int) -> tuple:
    """Views of the fields of ``count`` PFER records packed in the uint8 array
    ``buf``: the (count, P, D) <f4 image and landmark streams and the (count,)
    <u4 labels. Fields are sliced out of bytes because a numpy structured
    dtype caps a record below 2^31 bytes."""
    plane = 4 * patches * dim
    rows = buf.reshape(count, 2 * plane + 4)
    img, lm = (rows[:, i * plane : (i + 1) * plane].view("<f4").reshape(count, patches, dim) for i in (0, 1))
    return img, lm, rows[:, 2 * plane :].view("<u4")[:, 0]


def write_features(dataset: FeatureDataset, path) -> None:
    """Write a PFER file plus a JSON metadata sidecar at ``path + '.json'``."""
    count = len(dataset)
    buf = np.empty(count * (8 * dataset.patches * dataset.dim + 4), dtype=np.uint8)
    img, lm, labels = _records(buf, count, dataset.patches, dataset.dim)
    with np.errstate(over="ignore"):  # an f64 value beyond the f32 range narrows to Inf
        img[...], lm[...], labels[...] = dataset.x_img, dataset.x_lm, dataset.labels
    bad = np.flatnonzero(~np.isfinite(img.sum(axis=(1, 2), dtype=np.float64) + lm.sum(axis=(1, 2), dtype=np.float64)))
    if bad.size:  # checked before the file opens, so nothing unreadable is left behind
        raise ValueError(f"{path}: features of sample {bad[0]} are NaN/Inf or beyond the float32 range")
    with open(path, "wb") as f:
        f.write(MAGIC)
        write_u32(f, VERSION, dataset.patches, dataset.dim, dataset.num_classes, count)
        f.write(buf)
    sidecar = {"format": "PFER", "version": VERSION, "count": count, "patches": dataset.patches, "dim": dataset.dim}
    write_json({**dataset.metadata, **sidecar}, f"{path}.json")


def read_features(path) -> FeatureDataset:
    """Read a PFER file back; values widen from f32 to f64."""
    with open(path, "rb") as f:
        check_magic(f, MAGIC, path)
        version = read_u32(f, "version")
        if version != VERSION:
            raise FormatVersionError(f"{path}: unsupported feature-file version {version}")
        patches, dim, num_classes, count = read_exact(f, 16, "the header's counts").view("<u4").tolist()
        buf = read_exact(f, count * (8 * patches * dim + 4), f"{count} samples of {patches}x{dim} features")
        check_shape((count, patches, dim), "the feature stack")
    img, lm, labels = _records(buf, count, patches, dim)
    x_img, x_lm, labels = img.astype(np.float64), lm.astype(np.float64), labels.astype(np.int64)
    bad = np.flatnonzero(labels >= num_classes)
    if bad.size:
        i = int(bad[0])
        raise BadFieldError(f"{path}: label {labels[i]} of sample {i} is not below the class count {num_classes}")
    if not np.isfinite(x_img.sum() + x_lm.sum()):  # widened f32 values cannot overflow the sum
        i = int(np.flatnonzero(~np.isfinite(x_img + x_lm).all(axis=(1, 2)))[0])
        raise BadFieldError(f"{path}: features of sample {i} contain NaN/Inf")
    metadata = {"source": str(path)}
    return FeatureDataset(x_img=x_img, x_lm=x_lm, labels=labels, num_classes=num_classes, metadata=metadata)


def split_dataset(dataset: FeatureDataset, train_fraction: float, seed: int = 0):
    """Deterministic shuffled split into (train, test)."""
    if not 0.0 < train_fraction < 1.0:
        raise ValueError(f"train_fraction must be in (0, 1), got {train_fraction}")
    rng = np.random.default_rng([seed, 37])
    order = rng.permutation(len(dataset))
    cut = int(round(train_fraction * len(dataset)))
    first, second = order[:cut], order[cut:]

    def take(idx):
        return FeatureDataset(
            x_img=dataset.x_img[idx],
            x_lm=dataset.x_lm[idx],
            labels=dataset.labels[idx],
            num_classes=dataset.num_classes,
            metadata=dict(dataset.metadata),
        )

    return take(first), take(second)
