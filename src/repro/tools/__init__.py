"""Command-line tools shipped with the release.

- ``python -m repro.tools.figures`` — regenerate any paper figure/ablation
  on the simulated cluster and print the measured-vs-paper table;
- ``python -m repro.tools.inspect`` — demo blob: dump segment trees,
  structural sharing and diffs for a scripted write history;
- ``python -m repro.tools.node`` — run one cluster node agent: host
  ``data/N``/``meta/N`` actors on a TCP endpoint for the TCP deployment
  (loopback CI clusters and real hosts share this entrypoint);
- ``python -m repro.tools.metrics`` / ``repro.tools.trace`` — scrape a live
  cluster's telemetry / trace an operation and export its timeline;
- ``python -m repro.tools.many_clients`` — async tail-latency sweep.

The supernova survey runs from ``examples/supernovae_detection.py``.

All tools are plain ``main(argv)`` functions, so they are unit-testable
without subprocesses.
"""
