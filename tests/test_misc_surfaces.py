"""Coverage of smaller public surfaces: errors, driver registries,
deployment wiring, simulated client cache modes, ticket serialization."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.config import BlobConfig, DeploymentSpec
from repro.deploy.inproc import Deployment, build_inproc
from repro.deploy.simulated import SimDeployment
from repro.errors import ConfigError, RemoteError, ReproError, VersionNotPublished
from repro.net.inproc import InprocDriver
from repro.net.message import estimate_size
from repro.util.intervals import Interval
from repro.util.sizes import KB, MB, TB
from repro.version.manager import VersionManager, WriteTicket
from tests.conftest import BUILDERS


class TestErrors:
    def test_hierarchy(self):
        assert issubclass(VersionNotPublished, ReproError)
        assert issubclass(RemoteError, ReproError)
        assert issubclass(ConfigError, ReproError)

    def test_version_not_published_payload(self):
        exc = VersionNotPublished("blob-7", 9, 2)
        assert exc.blob_id == "blob-7"
        assert exc.requested == 9
        assert exc.latest == 2
        assert "blob-7" in str(exc)

    def test_remote_error_wrap_idempotent(self):
        inner = RemoteError("X", "y")
        assert RemoteError.wrap(inner) is inner


class TestBlobConfig:
    def test_valid(self):
        cfg = BlobConfig(total_size=1 * TB, pagesize=64 * KB)
        assert cfg.geometry().depth == 24
        assert "1 TB" in str(cfg)

    def test_invalid(self):
        with pytest.raises(ConfigError):
            BlobConfig(total_size=3 * MB, pagesize=4 * KB)
        with pytest.raises(ConfigError):
            BlobConfig(total_size=4 * KB, pagesize=8 * KB)


class TestDeploymentSpec:
    def test_validation(self):
        with pytest.raises(ConfigError):
            DeploymentSpec(n_data=0)
        with pytest.raises(ConfigError):
            DeploymentSpec(replication=0)
        with pytest.raises(ConfigError):
            DeploymentSpec(n_data=2, n_meta=2, replication=3)
        with pytest.raises(ConfigError):
            DeploymentSpec(cache_capacity=-1)
        with pytest.raises(ConfigError, match="round_robin.*hash_ring"):
            DeploymentSpec(strategy="hashring")


class TestInprocDriverRegistry:
    def test_register_unregister(self):
        driver = InprocDriver()
        actor = object()
        driver.register("x", actor)  # type: ignore[arg-type]
        assert driver.addresses() == ["x"]
        driver.unregister("x")
        assert driver.addresses() == []
        driver.unregister("x")  # idempotent

    def test_duplicate_rejected(self):
        driver = InprocDriver()
        driver.register("x", object())  # type: ignore[arg-type]
        with pytest.raises(ValueError):
            driver.register("x", object())  # type: ignore[arg-type]


class TestDeploymentWiring:
    def test_client_names_and_caches(self):
        dep = build_inproc(DeploymentSpec(n_data=2, n_meta=2))
        a = dep.client("alpha")
        b = dep.client()
        assert a.name == "alpha"
        assert b.name.startswith("client-")
        assert a.cache is not b.cache

    def test_provider_registration_consistency(self):
        dep = build_inproc(DeploymentSpec(n_data=3, n_meta=5))
        assert dep.pm.providers() == [0, 1, 2]
        assert dep.meta_ids == [0, 1, 2, 3, 4]
        assert dep.router.meta_ids == (0, 1, 2, 3, 4)

    def test_every_live_builder_returns_one_deployment_surface(self):
        spec = DeploymentSpec(n_data=2, n_meta=2, cache_capacity=0)
        actors = {"vm", "pm", ("data", 0), ("data", 1), ("meta", 0), ("meta", 1)}
        seen = {}
        for name in ("inproc", "threaded", "tcp", "aio"):
            with BUILDERS[name](spec) as dep:
                assert isinstance(dep, Deployment)
                client = dep.client()
                blob = client.alloc(64 * KB, 4 * KB)
                client.write(blob, b"P" * 8 * KB, 0)
                wire = dep.workload_stats()
                if name == "inproc":
                    assert wire is None  # no wire layer
                else:
                    assert set(wire) == actors and wire["vm"][0] > 0
                seen[name] = (
                    sorted(
                        (n.key, n.left_version, n.right_version, n.providers)
                        for n in dep.blob_nodes(blob)
                    ),
                    dep.total_pages_stored(),
                    dep.data_ids,
                )
        assert seen["inproc"][1:] == (2, [0, 1])
        assert all(got == seen["inproc"] for got in seen.values()), seen


class TestSimClientModes:
    def test_cache_override_flags(self):
        dep = SimDeployment(
            DeploymentSpec(n_data=2, n_meta=2, n_clients=3, cache_capacity=0)
        )
        assert dep.client().cache is None  # spec default: disabled
        assert dep.client(index=1, cached=True).cache is not None
        assert dep.client(index=2, cached=False).cache is None

    def test_spec_cache_respected(self):
        dep = SimDeployment(
            DeploymentSpec(n_data=2, n_meta=2, n_clients=2, cache_capacity=64)
        )
        client = dep.client()
        assert client.cache is not None
        assert dep.client(index=1, cached=False).cache is None


class TestWriteTicket:
    def test_refs_roundtrip(self):
        vm = VersionManager()
        blob = vm.alloc(1 * MB, 4 * KB)
        ticket = vm.assign(blob, 0, 4 * KB)
        refs = ticket.refs_as_dict()
        assert all(type(key) is tuple and len(key) == 2 for key in refs)
        assert len(refs) == len(ticket.border_refs)

    def test_wire_size_scales_with_refs(self):
        vm = VersionManager()
        blob = vm.alloc(1 * MB, 4 * KB)
        t_small = vm.assign(blob, 0, 512 * KB)  # few borders
        t_big = vm.assign(blob, 4 * KB, 4 * KB)  # deep path: many borders
        assert estimate_size(t_big) > estimate_size(t_small)


class TestIntervalProperties:
    @given(
        st.integers(min_value=0, max_value=1000),
        st.integers(min_value=0, max_value=100),
        st.integers(min_value=0, max_value=1000),
        st.integers(min_value=0, max_value=100),
    )
    def test_intersection_consistent_with_intersects(self, o1, s1, o2, s2):
        a, b = Interval(o1, s1), Interval(o2, s2)
        inter = a.intersection(b)
        if a.intersects(b):
            assert inter.size > 0
            assert a.contains(inter) and b.contains(inter)
        else:
            assert inter.size == 0

    @given(
        st.integers(min_value=0, max_value=1000),
        st.integers(min_value=1, max_value=100),
        st.integers(min_value=0, max_value=1000),
        st.integers(min_value=1, max_value=100),
    )
    def test_intersects_symmetric(self, o1, s1, o2, s2):
        a, b = Interval(o1, s1), Interval(o2, s2)
        assert a.intersects(b) == b.intersects(a)
