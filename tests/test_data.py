import os
import threading

import numpy as np
import pytest

from ferfuse import binio
from ferfuse.binio import BadFieldError, BadMagicError, FormatVersionError, TruncatedFileError
from ferfuse.data import (
    MAGIC,
    VERSION,
    FeatureDataset,
    gen_clusters,
    gen_xor,
    read_features,
    split_dataset,
    write_features,
    xor_directions,
)
from helpers import fed_fifo, traced_peak


class TestGenClusters:
    def test_sigma_zero_nearest_class_mean_is_perfect(self):
        ds = gen_clusters(patches=4, dim=8, num_classes=3, per_class=20, sigma=0.0, seed=0)
        means = np.stack([ds.x_img[ds.labels == c].mean(axis=0) for c in range(3)])
        for i in range(len(ds)):
            dists = [np.sum((ds.x_img[i] - m) ** 2) for m in means]
            assert int(np.argmin(dists)) == ds.labels[i]

    def test_seed_determinism(self):
        a = gen_clusters(4, 8, 3, 10, 0.5, seed=7)
        b = gen_clusters(4, 8, 3, 10, 0.5, seed=7)
        assert np.array_equal(a.x_img, b.x_img)
        assert np.array_equal(a.x_lm, b.x_lm)
        assert np.array_equal(a.labels, b.labels)
        c = gen_clusters(4, 8, 3, 10, 0.5, seed=8)
        assert not np.array_equal(a.x_img, c.x_img)

    def test_label_counts_balanced(self):
        ds = gen_clusters(4, 8, 5, 12, 0.3, seed=1)
        assert np.array_equal(np.bincount(ds.labels), [12] * 5)

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            gen_clusters(4, 8, 3, 10, -0.1, seed=0)

    @pytest.mark.parametrize(
        "field,value", [("num_classes", 1), ("num_classes", 0), ("per_class", 0), ("patches", 0), ("dim", 0)]
    )
    def test_shapes_no_model_accepts_rejected(self, field, value):
        kw = dict(patches=4, dim=8, num_classes=3, per_class=5, sigma=0.1, seed=0)
        kw[field] = value
        with pytest.raises(ValueError, match=field):
            gen_clusters(**kw)

    def test_huge_sigma_drowns_the_signal(self):
        # prototypes have unit-scale entries; at sigma 50 held-out accuracy
        # after training must sit at chance within Monte-Carlo margin
        from ferfuse.model import ModelConfig
        from ferfuse.training import TrainConfig, evaluate, train_loop

        full = gen_clusters(patches=6, dim=16, num_classes=4, per_class=150, sigma=50.0, seed=2)
        train, test = split_dataset(full, 0.8, seed=2)
        cfg = ModelConfig(
            patches=6, base_dim=16, pyramid_dims=(16, 8), depth=1, heads_divisor=16,
            num_classes=4, variant="poster", seed=0,
        )
        result = train_loop(cfg, TrainConfig(batch_size=64, learning_rate=2e-3, steps=120, seed=0), train)
        report = evaluate(result.params, cfg, test)
        assert abs(report.accuracy - 0.25) < 0.10


def _infer_bits(stream, u0, u1):
    pooled = stream.mean(axis=1)  # (count, dim)
    d0 = ((pooled - u0) ** 2).sum(axis=1)
    d1 = ((pooled - u1) ** 2).sum(axis=1)
    return (d1 < d0).astype(int)


class TestGenXor:
    def test_labels_exactly_balanced(self):
        ds = gen_xor(patches=4, dim=16, per_class=50, sigma=0.3, seed=2)
        assert np.array_equal(np.bincount(ds.labels), [50, 50])

    def test_bit_label_joint_counts_exact(self):
        # every (stream bit, label) pair appears exactly count/4 times, which
        # is what makes each stream's marginal label-independent
        ds = gen_xor(patches=4, dim=16, per_class=50, sigma=0.3, seed=3)
        (iu0, iu1), (lu0, lu1) = xor_directions(16, seed=3)
        bits_img = _infer_bits(ds.x_img, iu0, iu1)
        bits_lm = _infer_bits(ds.x_lm, lu0, lu1)
        assert np.array_equal(ds.labels, bits_img ^ bits_lm)
        for bit in (0, 1):
            for label in (0, 1):
                assert np.sum((bits_img == bit) & (ds.labels == label)) == 25
                assert np.sum((bits_lm == bit) & (ds.labels == label)) == 25

    def test_single_stream_bayes_accuracy_is_half(self):
        # the class-conditional density of one stream is the same equal-weight
        # two-component Gaussian mixture for both labels, so the Bayes
        # classifier ties everywhere and scores the majority rate: exactly 1/2
        sigma = 0.3
        ds = gen_xor(patches=4, dim=16, per_class=100, sigma=sigma, seed=4)
        (u0, u1), _ = xor_directions(16, seed=4)
        t0 = np.tile(u0, (4, 1))
        t1 = np.tile(u1, (4, 1))

        def log_mixture(x, w0, w1):
            ll0 = -np.sum((x - t0) ** 2) / (2 * sigma**2)
            ll1 = -np.sum((x - t1) ** 2) / (2 * sigma**2)
            return np.logaddexp(np.log(w0) + ll0, np.log(w1) + ll1)

        preds = []
        for i in range(len(ds)):
            # P(bit | label) is 1/2 for every combination, so both labels share
            # one density; verify and tie-break to label 0
            ll_given_0 = log_mixture(ds.x_img[i], 0.5, 0.5)
            ll_given_1 = log_mixture(ds.x_img[i], 0.5, 0.5)
            assert abs(ll_given_0 - ll_given_1) < 1e-12
            preds.append(0 if ll_given_0 >= ll_given_1 else 1)
        accuracy = float(np.mean(np.array(preds) == ds.labels))
        assert accuracy == pytest.approx(0.5, abs=1e-12)

    def test_sigma_zero_two_stream_closed_form_is_perfect(self):
        ds = gen_xor(patches=4, dim=16, per_class=40, sigma=0.0, seed=5)
        (iu0, iu1), (lu0, lu1) = xor_directions(16, seed=5)
        s_img = ds.x_img.mean(axis=1) @ (iu1 - iu0)
        s_lm = ds.x_lm.mean(axis=1) @ (lu1 - lu0)
        preds = (s_img * s_lm < 0).astype(int)
        assert np.array_equal(preds, ds.labels)

    def test_single_stream_mutual_information_near_zero(self):
        # plug-in MI between the label and a binned projection of one stream's
        # sufficient statistic; the bias of the estimator at this sample size
        # is ~(bins-1)/(2n), far below the 0.01 nat threshold
        ds = gen_xor(patches=8, dim=32, per_class=1000, sigma=0.3, seed=6)
        (u0, u1), _ = xor_directions(32, seed=6)
        s = ds.x_img.mean(axis=1) @ (u1 - u0)
        bins = np.histogram_bin_edges(s, bins=8)
        cell = np.clip(np.digitize(s, bins[1:-1]), 0, 7)
        joint = np.zeros((8, 2))
        for c, l in zip(cell, ds.labels):
            joint[c, l] += 1
        joint /= joint.sum()
        pc = joint.sum(axis=1, keepdims=True)
        pl = joint.sum(axis=0, keepdims=True)
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = joint * np.log(joint / (pc @ pl))
        mi = float(np.nansum(terms))
        assert mi < 0.01

    def test_odd_per_class_rejected(self):
        with pytest.raises(ValueError):
            gen_xor(patches=4, dim=16, per_class=3, sigma=0.3, seed=0)

    @pytest.mark.parametrize("field,value", [("per_class", 0), ("patches", 0), ("dim", 1)])
    def test_shapes_no_model_accepts_rejected(self, field, value):
        kw = dict(patches=4, dim=16, per_class=4, sigma=0.3, seed=0)
        kw[field] = value
        with pytest.raises(ValueError, match=field):
            gen_xor(**kw)

    def test_directions_orthonormal(self):
        (u0, u1), (v0, v1) = xor_directions(16, seed=9)
        for u in (u0, u1, v0, v1):
            assert np.linalg.norm(u) == pytest.approx(1.0, abs=1e-12)
        assert abs(u0 @ u1) < 1e-12
        assert abs(v0 @ v1) < 1e-12


class TestFeatureFiles:
    def _small(self, seed=0):
        return gen_clusters(patches=3, dim=5, num_classes=2, per_class=4, sigma=0.2, seed=seed)

    def test_round_trip_lossless_at_storage_precision(self, tmp_path):
        # disk storage is f32: the first write quantises, after which the
        # round trip is bitwise stable
        ds = self._small()
        path = tmp_path / "a.pfer"
        write_features(ds, path)
        once = read_features(path)
        assert np.array_equal(once.x_img, ds.x_img.astype(np.float32).astype(np.float64))
        assert np.array_equal(once.labels, ds.labels)
        write_features(once, tmp_path / "b.pfer")
        twice = read_features(tmp_path / "b.pfer")
        assert np.array_equal(twice.x_img, once.x_img)
        assert np.array_equal(twice.x_lm, once.x_lm)
        assert np.array_equal(twice.labels, once.labels)
        assert twice.num_classes == once.num_classes

    def test_file_size_matches_format_arithmetic(self, tmp_path):
        ds = self._small()
        path = tmp_path / "a.pfer"
        write_features(ds, path)
        count, p, d = len(ds), ds.patches, ds.dim
        header = 4 + 5 * 4  # magic + five u32 fields
        assert path.stat().st_size == header + count * (2 * p * d * 4 + 4)

    def test_sidecar_written(self, tmp_path):
        import json

        ds = self._small()
        path = tmp_path / "a.pfer"
        write_features(ds, path)
        with open(str(path) + ".json") as f:
            meta = json.load(f)
        assert meta["format"] == "PFER"
        assert meta["count"] == len(ds)
        assert meta["patches"] == 3

    def test_corrupted_magic(self, tmp_path):
        ds = self._small()
        path = tmp_path / "a.pfer"
        write_features(ds, path)
        raw = bytearray(path.read_bytes())
        raw[1] ^= 0x55
        path.write_bytes(bytes(raw))
        with pytest.raises(BadMagicError):
            read_features(path)

    def test_unsupported_version(self, tmp_path):
        ds = self._small()
        path = tmp_path / "a.pfer"
        write_features(ds, path)
        raw = bytearray(path.read_bytes())
        raw[4:8] = (7).to_bytes(4, "little")
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatVersionError):
            read_features(path)

    def test_truncated_payload(self, tmp_path):
        ds = self._small()
        path = tmp_path / "a.pfer"
        write_features(ds, path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-10])
        with pytest.raises(TruncatedFileError):
            read_features(path)

    @pytest.mark.parametrize(
        "patches,dim,count",
        [
            (0xFFFFFFFF, 0xFFFFFFFF, 0xFFFFFFFF),  # beyond what numpy can allocate
            (68, 512, 100000),  # 25.9 GiB of f64 with no payload behind it
        ],
    )
    def test_header_larger_than_file(self, tmp_path, patches, dim, count):
        path = tmp_path / "hostile.pfer"
        fields = (1, patches, dim, 7, count)
        path.write_bytes(b"PFER" + b"".join(v.to_bytes(4, "little") for v in fields))
        with pytest.raises(TruncatedFileError):
            read_features(path)

    def test_zero_samples_of_unindexable_width(self, tmp_path):
        # no payload is needed for 0 samples, but numpy rejects the empty
        # (0, 2^32-1, 2^32-1) float64 stack all the same
        path = tmp_path / "hostile.pfer"
        fields = (1, 0xFFFFFFFF, 0xFFFFFFFF, 7, 0)
        path.write_bytes(b"PFER" + b"".join(v.to_bytes(4, "little") for v in fields))
        with pytest.raises(BadFieldError):
            read_features(path)

    def test_zero_samples_of_record_wider_than_a_c_int(self, tmp_path):
        # Each record would take 2^31 + 4 bytes, past the itemsize limit of a
        # numpy structured dtype; with no samples the file is still valid.
        path = tmp_path / "wide.pfer"
        fields = (1, 1 << 14, 1 << 14, 7, 0)
        path.write_bytes(b"PFER" + b"".join(v.to_bytes(4, "little") for v in fields))
        ds = read_features(path)
        assert len(ds) == 0 and ds.x_img.shape == (0, 1 << 14, 1 << 14) and ds.num_classes == 7

    @pytest.mark.parametrize("classes", [1, 0])
    def test_label_not_below_class_count(self, tmp_path, classes):
        ds = self._small()
        path = tmp_path / "a.pfer"
        write_features(ds, path)
        raw = bytearray(path.read_bytes())
        raw[16:20] = classes.to_bytes(4, "little")
        path.write_bytes(bytes(raw))
        first_bad = int(np.flatnonzero(ds.labels >= classes)[0])
        with pytest.raises(BadFieldError, match=f"sample {first_bad} "):
            read_features(path)

    @pytest.mark.parametrize("stream,value", [(0, np.nan), (1, np.inf), (1, -np.inf)])
    def test_non_finite_feature(self, tmp_path, stream, value):
        ds = self._small()
        path = tmp_path / "a.pfer"
        write_features(ds, path)
        raw = bytearray(path.read_bytes())
        plane = 4 * ds.patches * ds.dim
        sample, entry = 5, 7
        at = 24 + sample * (2 * plane + 4) + stream * plane + 4 * entry
        raw[at : at + 4] = np.float32(value).tobytes()
        path.write_bytes(bytes(raw))
        with pytest.raises(BadFieldError, match=f"{path}: features of sample {sample} contain NaN/Inf"):
            read_features(path)

    @pytest.mark.parametrize("stream,value", [(0, np.nan), (1, np.inf), (0, 1e39), (1, -1e39)])
    def test_write_refuses_features_not_finite_in_float32(self, tmp_path, stream, value, recwarn):
        # 1e39 is finite in float64 but narrows to Inf, which read_features refuses
        ds = self._small()
        (ds.x_img, ds.x_lm)[stream][5, 1, 2] = value
        path = tmp_path / "a.pfer"
        with pytest.raises(ValueError, match=f"{path}: features of sample 5 are NaN/Inf"):
            write_features(ds, path)
        assert not path.exists() and not os.path.exists(f"{path}.json")
        assert not recwarn.list

    def test_largest_float32_round_trips(self, tmp_path):
        ds = self._small()
        top = float(np.finfo(np.float32).max)
        ds.x_img[5, 1, 2], ds.x_lm[0, 0, 0] = top, -top
        path = tmp_path / "a.pfer"
        write_features(ds, path)
        back = read_features(path)
        assert back.x_img[5, 1, 2] == top and back.x_lm[0, 0, 0] == -top

    def test_reads_from_a_pipe(self, tmp_path):
        # A pipe has no size to check a header against; it is read as before.
        ds = self._small()
        path = tmp_path / "a.pfer"
        write_features(ds, path)
        fifo = tmp_path / "pipe.pfer"
        os.mkfifo(fifo)
        writer = threading.Thread(target=lambda: fifo.write_bytes(path.read_bytes()), daemon=True)
        writer.start()
        try:
            got = read_features(fifo)
        finally:
            writer.join(timeout=10)
        assert not writer.is_alive()
        assert np.array_equal(got.x_img, read_features(path).x_img)

    def test_reads_a_pipe_in_chunks(self, tmp_path, monkeypatch):
        monkeypatch.setattr(binio, "_PIPE_CHUNK", 100)  # the 992-byte payload takes 10 reads
        ds = self._small()
        path = tmp_path / "a.pfer"
        write_features(ds, path)
        with fed_fifo(tmp_path, path.read_bytes()) as fifo:
            got = read_features(fifo)
        want = read_features(path)
        assert np.array_equal(got.x_img, want.x_img) and np.array_equal(got.x_lm, want.x_lm)
        assert np.array_equal(got.labels, want.labels)

    def test_pipe_header_promising_terabytes_fails_in_bounded_memory(self, tmp_path):
        # 2^20 samples of 1024 x 1024 features, about 8.8 TB, of which 1 MB is sent.
        u32 = lambda v: v.to_bytes(4, "little")  # noqa: E731
        payload = MAGIC + u32(VERSION) + u32(1024) + u32(1024) + u32(7) + u32(2**20) + bytes(1 << 20)
        with traced_peak() as peak, fed_fifo(tmp_path, payload) as fifo:
            with pytest.raises(TruncatedFileError, match=r"\(1048576/8796097216512 bytes\)"):
                read_features(fifo)
        assert peak[0] < 64 << 20

    def test_dataset_validation(self):
        with pytest.raises(ValueError):
            FeatureDataset(
                x_img=np.zeros((2, 3, 4)),
                x_lm=np.zeros((2, 3, 5)),
                labels=np.zeros(2, dtype=np.int64),
                num_classes=2,
            )
        with pytest.raises(ValueError):
            FeatureDataset(
                x_img=np.zeros((2, 3, 4)),
                x_lm=np.zeros((2, 3, 4)),
                labels=np.array([0, 5]),
                num_classes=2,
            )


class TestSplitDataset:
    def test_sizes_and_disjointness(self):
        ds = gen_clusters(patches=3, dim=4, num_classes=2, per_class=50, sigma=0.5, seed=3)
        train, test = split_dataset(ds, 0.8, seed=1)
        assert len(train) == 80 and len(test) == 20
        train_rows = {tuple(x.ravel()) for x in train.x_img}
        test_rows = {tuple(x.ravel()) for x in test.x_img}
        assert not train_rows & test_rows

    def test_deterministic(self):
        ds = gen_clusters(patches=3, dim=4, num_classes=2, per_class=50, sigma=0.5, seed=3)
        a1, b1 = split_dataset(ds, 0.7, seed=2)
        a2, b2 = split_dataset(ds, 0.7, seed=2)
        assert np.array_equal(a1.x_img, a2.x_img)
        assert np.array_equal(b1.labels, b2.labels)

    def test_fraction_validation(self):
        ds = gen_clusters(patches=3, dim=4, num_classes=2, per_class=5, sigma=0.5, seed=3)
        with pytest.raises(ValueError):
            split_dataset(ds, 1.0)
