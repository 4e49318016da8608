"""The paper's §VII recommendations, built as extensions over the co-analysis.

None of this is part of the ``repro`` program: the co-analysis CLI never
imports it. The ``bench_ext_*`` benchmarks score it on simulated traces.

* :mod:`benchmarks.ext.predict` — location-aware failure prediction;
* :mod:`benchmarks.ext.policy` — checkpoint policies scored by lost work;
* :mod:`benchmarks.ext.failure_aware` — a failure-aware allocation
  policy that plugs into :class:`repro.sched.cobalt.CobaltSimulator`
  through its ``observe_interruption`` hook;
* :mod:`benchmarks.ext.predictor_tuning` — a threshold-tuning script,
  ``python -m benchmarks.ext.predictor_tuning``.
"""
