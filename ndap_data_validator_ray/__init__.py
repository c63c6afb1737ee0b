"""ndap_data_validator_ray — a Ray-Data-native schema + constraint validation engine.

A brand-new engine (NOT a port) with the data-processing capabilities of the
reference validator (``suseel96/ndap_data_validator``), rebuilt Ray-Data-first:

- one ``ray.data.Dataset`` per logical table, zero-copy Arrow batches
  (``batch_format="pyarrow"``) through ``map_batches``;
- stateless vectorized kernels for coercion/stats (reference semantics:
  ``/root/reference/utils/validation.py:200-357``);
- actor pools for stateful stages (audio decode validation);
- hash-partitioned groupby shuffles only where semantics require,
  pre-aggregated per batch first; ``clip_id`` uniqueness needs none — it
  merges persisted per-partition key runs by hash range;
- commutative, mergeable sketches (HLL, t-digest, histograms) so runs are
  resumable from per-partition checkpoints without double-counting.

Nothing here calls ``ray.init()``/``ray.shutdown()`` — the driver (or
``bench.py`` / the pytest session fixture) owns the Ray session.
"""

__version__ = "0.1.0"
