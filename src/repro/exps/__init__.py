"""Experiment drivers: one module per table/figure of the paper, plus
ablations for the design choices DESIGN.md calls out.

Every module declares one :class:`repro.exps.experiment.Experiment`
(``EXPERIMENT``: title, columns, ``run(full)``, the paper's words and
the ``shape`` assertions), keeps the simulated programs it runs, and
prints its paper-style rows through the shared runner::

    python -m repro.exps.fig4            # Figure 4: super-linear speedup
    python -m repro.exps.fig5            # Figure 5: speedups of the suite
    python -m repro.exps.fig6            # Figure 6: merge-split sort
    python -m repro.exps.table1          # Table 1: disk page transfers
    python -m repro.exps.ablation_managers
    python -m repro.exps.ablation_pagesize
    python -m repro.exps.ablation_allocator
    python -m repro.exps.ablation_loadbalance
    python -m repro.exps.ablation_msgpass
    python -m repro.exps.ablation_overlap
    python -m repro.exps.ablation_writepolicy

``--full`` selects the paper-scale workloads; the default is a quicker
configuration with the same qualitative shape.  ``repro.exps.all``
renders all eleven into one report and checks it cell by cell.
"""
