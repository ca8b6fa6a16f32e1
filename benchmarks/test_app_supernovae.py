"""Application benchmark: the supernova-detection campaign.

The paper reports no application-level numbers (the case study motivates
the system), so this bench records what a user of the release would check:
detection quality on synthetic truth and end-to-end pipeline throughput
through the blob service.
"""

from repro.core.config import DeploymentSpec
from repro.deploy.inproc import build_inproc
from repro.sky.pipeline import SupernovaPipeline
from repro.sky.skymodel import SkyModel, SkySpec
from repro.util.sizes import human_size

EPOCHS = 8


def run_campaign():
    spec = SkySpec(tiles_x=3, tiles_y=3, seed=42)
    model = SkyModel.with_random_events(
        spec, n_supernovae=5, n_variables=5, epochs=EPOCHS
    )
    # the paper's per-node metadata dispersal, like every paper figure
    dep = build_inproc(DeploymentSpec(n_data=8, n_meta=8, meta_subtree_bytes=0))
    pipe = SupernovaPipeline(model, dep.client("survey"))
    report = pipe.run_campaign(epochs=EPOCHS)
    return report


def test_app_supernova_campaign(benchmark, publish, publish_json):
    import time

    from repro.bench.figures import Series

    t0 = time.perf_counter()
    report = benchmark.pedantic(run_campaign, rounds=1, iterations=1,
                                warmup_rounds=0)
    wall = time.perf_counter() - t0
    publish_json(
        "app_supernovae",
        "App",
        [Series("quality", ["precision", "recall"],
                [report.precision, report.recall])],
        wall,
        counters={
            "bytes_written": report.bytes_written,
            "bytes_read": report.bytes_read,
            "claimed_supernovae": report.claimed_supernovae,
            "matched_supernovae": report.matched_supernovae,
        },
    )
    lines = [
        "Application: supernova detection campaign (3x3 tiles, 8 epochs)",
        f"  injected supernovae : {report.true_supernovae}",
        f"  claimed supernovae  : {report.claimed_supernovae}",
        f"  matched             : {report.matched_supernovae}",
        f"  precision           : {report.precision:.2f}",
        f"  recall              : {report.recall:.2f}",
        f"  tracks followed     : {len(report.tracks)}",
        f"  blob bytes written  : {human_size(report.bytes_written)}",
        f"  blob bytes read     : {human_size(report.bytes_read)}",
        f"  epoch versions      : {report.epoch_versions}",
    ]
    publish("app_supernovae", "\n".join(lines))

    assert report.recall >= 0.8
    assert report.precision >= 0.8
    # the pipeline genuinely exercised the blob service
    assert report.bytes_written == EPOCHS * 9 * 64 * 1024
    assert report.bytes_read > report.bytes_written  # scans re-read epochs
