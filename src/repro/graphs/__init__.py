"""Graph substrate: edge model, generators, dataset stand-ins, query workloads.

The paper's input is a directed graph ``G=(V,E)``; here a graph is a Spark
DataFrame with long columns ``src`` and ``dst`` (the generators emit each
edge once; a duplicated row is accepted and collapsed into one edge). EVE,
the baselines and the pure-Python oracles all read it as one type,
:class:`repro.graphs.model.Graph` (the out-adjacency dict of the collected
edge list, with its reverse cached as ``Graph.rev``), which
:func:`repro.spark_util.load_graph` collects once per graph and
:func:`repro.spark_util.map_queries` broadcasts to Spark's Python workers.
:mod:`repro.graphs.model` also owns the one BFS; this package imports
nothing from :mod:`repro.core` or :mod:`repro.baselines`.
"""
