"""CLI tools and simulated per-node utilization."""

import pytest

from repro.core.config import DeploymentSpec
from repro.deploy.simulated import SimDeployment
from repro.obs.metrics import render_metrics
from repro.tools import figures, inspect as inspect_tool
from repro.util.sizes import KB, TB


class TestSimTrace:
    def run_some_traffic(self):
        dep = SimDeployment(
            DeploymentSpec(n_data=2, n_meta=2, n_clients=1, cache_capacity=0)
        )
        blob = dep.alloc_blob(1 * TB, 64 * KB)
        client = dep.client()
        client.write_virtual(blob, 0, 16 * 64 * KB)
        client.read_virtual(blob, 0, 16 * 64 * KB)
        return dep

    def test_utilization_report_covers_all_nodes(self):
        dep = self.run_some_traffic()
        nodes = dep.metrics()["nodes"]
        assert set(nodes) == set(dep.network.nodes)
        for u in nodes.values():
            assert 0.0 <= u["cpu"] <= 1.0
            assert 0.0 <= u["tx"] <= 1.0
            assert 0.0 <= u["rx"] <= 1.0

    def test_client_did_real_work(self):
        dep = self.run_some_traffic()
        client = dep.metrics()["nodes"]["client-0"]
        assert client["cpu"] > 0 and client["tx"] > 0 and client["rx"] > 0

    def test_render_contains_every_node(self):
        dep = self.run_some_traffic()
        text = render_metrics(dep.metrics())
        for name in dep.network.nodes:
            assert name in text
        assert "node utilization (simulated)" in text


class TestFiguresCli:
    def test_parser_rejects_unknown_figure(self):
        with pytest.raises(SystemExit):
            figures.build_parser().parse_args(["9z"])

    def test_run_3a(self, capsys):
        assert figures.main(["3a"]) == 0
        out = capsys.readouterr().out
        assert "Fig 3(a)" in out
        assert "[measured] 10 providers" in out

    def test_run_ablation_c(self, capsys):
        assert figures.main(["ablC"]) == 0
        out = capsys.readouterr().out
        assert "aggregated RPCs" in out

    def test_run_3c_with_custom_grid(self, capsys):
        assert figures.main(["3c", "--clients", "1", "2", "--iterations", "2"]) == 0
        out = capsys.readouterr().out
        assert "Read (cached metadata)" in out


class TestInspectCli:
    def test_default_script(self, capsys):
        rc = inspect_tool.main(["--pages", "8", "--writes", "0:2", "4:2",
                                "0:1", "--diff", "1", "3"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "segment tree" in out
        assert "sharing:" in out
        assert "changed ranges v1 -> v3" in out
        assert "patch catalog" in out

    def test_rejects_non_pow2_pages(self, capsys):
        rc = inspect_tool.main(["--pages", "6", "--writes", "0:1"])
        assert rc == 2
