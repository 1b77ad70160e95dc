"""API-surface stability: every documented public name imports and works."""

import importlib

import pytest

import repro


class TestTopLevel:
    def test_version(self):
        assert repro.__version__

    @pytest.mark.parametrize("name", sorted(repro._LAZY))
    def test_lazy_exports_resolve(self, name):
        obj = getattr(repro, name)
        assert callable(obj)

    def test_unknown_attribute(self):
        with pytest.raises(AttributeError):
            repro.not_a_thing


PUBLIC_SURFACE = {
    "repro.core": [
        "DyTIS", "ConcurrentDyTIS", "DyTISConfig",
        "PiecewiseRemap", "Segment", "OperationStats",
    ],
    "repro.hashing": ["ExtendibleHashing", "CCEH", "pseudo_key"],
    "repro.btree": ["BPlusTree"],
    "repro.learned": [
        "LinearModel", "GappedArray", "AlexIndex", "XIndex",
        "RMIndex", "LippIndex", "PGMIndex", "StaticPGM",
    ],
    "repro.plr": ["GreedyPLR", "PLRSegment", "fit_plr", "count_models"],
    "repro.metrics": [
        "variance_of_skewness", "key_distribution_divergence",
        "kl_divergence", "characterize", "calibrate_gamma",
    ],
    "repro.datasets": [
        "generate", "shuffled", "uniform", "lognormal", "longlat",
        "longitudes", "map_like", "review_like", "taxi_like",
        "dataset_stats", "table1",
    ],
    "repro.workloads": [
        "ZipfianChooser", "UniformChooser", "HotspotChooser",
        "Operation", "OpKind", "WorkloadSpec", "WORKLOADS",
        "make_workload", "generate_operations", "save_trace", "load_trace",
    ],
    "repro.kvstore": [
        "KVStore", "Namespace", "UintCodec", "StringCodec",
        "CompositeCodec", "CodecError", "save_snapshot", "load_snapshot",
        "dump_snapshot_bytes", "load_snapshot_bytes",
        "read_snapshot_header", "SnapshotError", "SnapshotCorruptError",
    ],
    "repro.wal": [
        "DurableKVStore", "DurableNamespace", "WriteAheadLog",
        "RecoveryError", "WalMetrics", "FsyncPolicy", "AlwaysFsync",
        "BatchFsync", "NeverFsync", "parse_policy", "OsFS", "SimFS",
        "FaultSpec", "SimulatedCrash",
    ],
    "repro.bench": [
        "make_adapter", "run_load", "run_operations", "run_ycsb",
        "deep_size_bytes", "LatencyStats", "WorkloadResult",
        "ADAPTER_NAMES",
    ],
}


@pytest.mark.parametrize("module_name", sorted(PUBLIC_SURFACE))
def test_public_surface_importable(module_name):
    module = importlib.import_module(module_name)
    for name in PUBLIC_SURFACE[module_name]:
        assert hasattr(module, name), f"{module_name}.{name} missing"
        assert name in module.__all__, f"{name} not in {module_name}.__all__"


@pytest.mark.parametrize("module_name", sorted(PUBLIC_SURFACE))
def test_modules_have_docstrings(module_name):
    module = importlib.import_module(module_name)
    assert (module.__doc__ or "").strip(), f"{module_name} lacks a docstring"


def test_every_public_class_documented():
    for module_name, names in PUBLIC_SURFACE.items():
        module = importlib.import_module(module_name)
        for name in names:
            obj = getattr(module, name)
            if isinstance(obj, type):
                assert (obj.__doc__ or "").strip(), f"{module_name}.{name}"
