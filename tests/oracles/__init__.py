"""The paper's alternative forms of partition selection, kept as test oracles.

The engine realises PartitionSelectors one way: Orca places them inside the
Memo as enforcers (Section 3.1), and the executor runs them natively on the
Table 1 functions (:mod:`repro.executor.runtime_funcs`).  The paper gives two
other forms of the same selectors, and this package holds both so that tests
can check the engine's plans against them:

* :mod:`.placement` — the standalone placement Algorithms 1-4 of Section 2.3
  (plus the multi-level extension of Section 2.4);
* :mod:`.lowering` — GPDB's lowering of selectors onto plain operators over
  the Table 1 built-ins (Section 3.2, Figure 15).  Importing it registers its
  two operators in :data:`repro.executor.iterators.OPERATORS`.

Nothing under ``src/`` imports this package.
"""
